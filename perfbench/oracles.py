"""Output checks for every benchmark command.

Each check recomputes what it can from the input with the benchmark's
own arithmetic (Orlik-Wagreich determinant, the quotient formula for
the central log discrepancy, h(n) = deg floor(nD) + 1, Laufer's
fundamental cycle) instead of pinning golden counts.  ``check`` returns
None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import floor
from typing import Dict, List, Optional, Sequence

from workloads import Command

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_KEYS_FILE = os.path.join(HERE, "seed_catalog_keys.json")


def _fractions(terms) -> List[Fraction]:
    return [Fraction(c) for _, c in terms]


def degree(terms) -> Fraction:
    return sum(_fractions(terms), Fraction(0))


def link_determinant(terms) -> int:
    """Orlik-Wagreich: det = deg D * prod q over the fractional points."""
    det = degree(terms)
    for c in _fractions(terms):
        det *= c.denominator
    if det.denominator != 1:
        raise ValueError("Orlik-Wagreich determinant is not integral")
    return int(det)


def central_log_discrepancy(terms) -> Fraction:
    """a_e0 = (2 - sum (1 - 1/q)) / deg D from the quotient pair."""
    boundary = sum((1 - Fraction(1, c.denominator) for c in _fractions(terms)),
                   Fraction(0))
    return (2 - boundary) / degree(terms)


def h0(terms, n: int) -> int:
    """Dimension of the degree-n piece: max(0, deg floor(nD) + 1)."""
    return max(0, sum(floor(n * c) for c in _fractions(terms)) + 1)


def expand_series(numerator: Sequence[int], period: int, count: int) -> List[int]:
    """First ``count`` coefficients of numerator / ((1 - T)(1 - T^L))."""
    h: List[int] = []
    for k in range(count):
        val = numerator[k] if k < len(numerator) else 0
        if k >= 1:
            val += h[k - 1]
        if k >= period:
            val += h[k - period]
        if k >= period + 1:
            val -= h[k - period - 1]
        h.append(val)
    return h


def series_problem(series: dict, terms) -> Optional[str]:
    L = series["L"]
    count = len(series["numerator"]) + 2 * L + 2
    got = expand_series(series["numerator"], L, count)
    for n, value in enumerate(got):
        if value != h0(terms, n):
            return f"Hilbert series gives h({n}) = {value}, divisor gives {h0(terms, n)}"
    return None


def artin_embedding_dimension(blown_down: Optional[dict]) -> int:
    """1 - Z^2 with Z Laufer's fundamental cycle on the blown-down
    graph; 2 when the graph contracts to nothing (smooth point)."""
    if blown_down is None:
        return 2
    selfints = blown_down["vertices"]
    n = len(selfints)
    M = [[0] * n for _ in range(n)]
    for i, e in enumerate(selfints):
        M[i][i] = e
    for i, j in blown_down["edges"]:
        M[i][j] = M[j][i] = 1
    Z = [1] * n
    while True:
        bad = next((i for i in range(n)
                    if sum(M[i][j] * Z[j] for j in range(n)) > 0), None)
        if bad is None:
            break
        Z[bad] += 1
    z2 = sum(Z[i] * M[i][j] * Z[j] for i in range(n) for j in range(n))
    return 1 - z2


class Checker:
    """Output oracles for one workload run.

    ``outputs`` maps a command index to its stdout text, so that
    ``audit`` can compare against the catalog ``enumerate`` wrote;
    ``embdims`` holds the Artin embedding dimension of each presentation
    couple, taken from ``resolve`` at set-up.
    """

    def __init__(self, embdims: Dict[str, int] | None = None):
        with open(SEED_KEYS_FILE, "r", encoding="utf-8") as fh:
            self.seed_keys: Dict[str, List[str]] = json.load(fh)
        self.embdims = embdims or {}

    def check(self, cmd: Command, text: str,
              outputs: Dict[int, str]) -> Optional[str]:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        try:
            return getattr(self, "_" + cmd.kind.replace("-", "_"))(
                cmd.check, doc, outputs)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"output lacks expected fields: {exc!r}"

    def _enumerate(self, spec, doc, outputs):
        keys = {e["key"] for e in doc["entries"]}
        want = self.seed_keys[f"{Fraction(spec['epsilon'])},{spec['isotropy_bound']}"]
        missing = sorted(set(want) - keys)
        if missing:
            return f"catalog lost {len(missing)} seed entries, e.g. {missing[0]}"
        for e in doc["entries"]:
            det = Fraction(e["degree"])
            for _, q in e["fractional"]:
                det *= q
            if det != e["link_determinant"]:
                return f"entry {e['key']}: determinant {e['link_determinant']} != {det}"
        return None

    def _audit(self, spec, doc, outputs):
        catalog = json.loads(outputs[spec["catalog_command"]])
        if doc["ok"] is not True:
            return f"audit failed: {doc['failures'][:1]}"
        if doc["checked"] != len(catalog["entries"]):
            return "audit checked a different number of entries"
        return None

    def _graph(self, terms, graph, a_e0=None) -> Optional[str]:
        expect_det = link_determinant(terms)
        if graph["det"] != expect_det:
            return f"det {graph['det']} != deg D * prod q = {expect_det}"
        central = 1 + Fraction(graph["discrepancies"][0])
        if a_e0 is not None and Fraction(a_e0) != central:
            return f"a_e0 {a_e0} != 1 + central discrepancy {central}"
        if central != central_log_discrepancy(terms):
            return f"1 + central discrepancy {central} disagrees with the quotient formula"
        return None

    def _describe(self, spec, doc, outputs):
        terms = spec["couple"]
        return (self._graph(terms, doc["graph"], doc["a_e0"])
                or series_problem(doc["hilbert"], terms))

    def _resolve(self, spec, doc, outputs):
        return self._graph(spec["couple"], doc)

    def _discrepancy(self, spec, doc, outputs):
        a = Fraction(doc["a_e0"])
        if a != central_log_discrepancy(spec["couple"]):
            return f"a_e0 {a} disagrees with the quotient formula"
        if doc["m"] < 1 or a * doc["m"] != -doc["u"]:
            return f"u = {doc['u']} is not -m a_e0 with m = {doc['m']}"
        if sum(t["coeff"] for t in doc["H"]) != 0:
            return "H does not have degree zero"
        return None

    def _hilbert(self, spec, doc, outputs):
        return series_problem(doc["series"], spec["couple"])

    def _presentation(self, spec, doc, outputs):
        want = self.embdims[spec["ref"]]
        got = len(doc["generators"])
        if got != want:
            return f"{got} generators, Artin embedding dimension is {want}"
        return series_problem(doc["series"], spec["couple"])

    def _toric_check(self, spec, doc, outputs):
        if doc["violations"]:
            return f"{len(doc['violations'])} comparison violations"
        if doc["vertex_ok"] is False:
            return "vertex identity violated"
        return None

    def _verify_examples(self, spec, doc, outputs):
        return None if doc["ok"] is True else "verify-examples reports ok = false"

