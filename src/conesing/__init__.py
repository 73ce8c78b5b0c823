"""Exact-arithmetic toolkit for cone surface singularities built from
ample Q-divisors on the projective line, with toric cross-checks and a
finite catalog enumerator.

The names below are re-exported lazily (PEP 562): ``from conesing
import build_graph`` imports ``conesing.resolution`` on first use, so
importing the package itself loads no layer.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "divisors": ("CurveCouple", "IntegralDivisorP1", "MarkedPoint",
                 "QDivisorP1", "finite_point", "floor_multiple",
                 "infinity_point", "label_point", "max_isotropy",
                 "normal_form"),
    "quotient": ("StandardPair", "VertexData", "cartier_index_of_kx",
                 "curve_log_discrepancy", "horizontal_log_discrepancy",
                 "log_fano_quotient", "vertex_decomposition",
                 "vertex_log_discrepancy"),
    "resolution": ("LatticeCone2", "ResolutionGraph", "build_graph",
                   "hj_chain", "local_cone_at"),
    "hilbert": ("HilbertData", "hilbert_series", "hilbert_values"),
    "sections": ("presentation",),
    "catalog": ("SearchParams", "enumerate_catalog", "mld_spectrum",
                "search_bounds"),
    "audit": ("audit_catalog",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
