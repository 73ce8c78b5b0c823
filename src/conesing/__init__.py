"""Exact-arithmetic toolkit for cone surface singularities built from
ample Q-divisors on the projective line, with toric cross-checks and a
finite catalog enumerator."""

__version__ = "0.1.0"

from .divisors import (CurveCouple, IntegralDivisorP1, MarkedPoint,
                       QDivisorP1, finite_point, floor_multiple,
                       infinity_point, label_point, max_isotropy,
                       normal_form)
from .quotient import (StandardPair, VertexData, cartier_index_of_kx,
                       curve_log_discrepancy, horizontal_log_discrepancy,
                       is_log_fano, log_fano_quotient,
                       vertex_decomposition, vertex_log_discrepancy)
from .resolution import (LatticeCone2, ResolutionGraph, build_graph, hj_chain,
                         local_cone_at)
from .sections import (HilbertData, Presentation, hilbert_series,
                       hilbert_values, presentation)
from .catalog import (CatalogEntry, SearchParams, audit_catalog,
                      enumerate_catalog, mld_spectrum, search_bounds)

__all__ = [name for name in dir() if not name.startswith("_")]
