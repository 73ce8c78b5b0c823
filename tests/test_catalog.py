import itertools
import json
from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conesing import audit, catalog, cli, divisors, hilbert, resolution
from conesing.audit import audit_catalog
from conesing.catalog import (SearchParams, _admissible_types,
                              _candidate_types, _evaluate_candidate,
                              _fractional_coefficients, catalog_to_json,
                              enumerate_catalog, mld_spectrum, search_bounds)
from conesing.divisors import normal_form
from conesing.errors import (InternalInvariantError, ParseError,
                             PreconditionError)
from conesing.jsonio import dumps
from conesing.resolution import ResolutionGraph
from helpers import (count_build_graph, entry_couple, graph_side_catalog,
                     key_string, per_candidate_catalog, per_candidate_entry,
                     uncapped_catalog, unpruned_candidate_types)

F = Fraction


def stored(entries):
    """Entries as audit reads them from a catalog file."""
    return json.loads(json.dumps(entries))


def replaced(entry, **changes):
    """A copy of a catalog entry with some fields changed."""
    return {**entry, **changes}


def test_search_params_validation():
    # the two refusals share their family and differ in their messages
    with pytest.raises(PreconditionError, match=r"epsilon 3/2 outside \(0, 1\]"):
        SearchParams(epsilon=F(3, 2), isotropy_bound=1)
    with pytest.raises(PreconditionError, match="isotropy bound 0 < 1") as exc:
        SearchParams(epsilon=F(1, 2), isotropy_bound=0)
    assert "epsilon" not in str(exc.value)


def test_search_bounds_examples():
    b = search_bounds(SearchParams(epsilon=F(1), isotropy_bound=1))
    assert b["k_max_effective"] == 0 and b["degree_max"] == "2"
    b = search_bounds(SearchParams(epsilon=F(1, 2), isotropy_bound=2))
    assert b["q_max"] == 2 and b["degree_max"] == "4"
    b = search_bounds(SearchParams(epsilon=F(1), isotropy_bound=7))
    assert b["q_min"] == 2 and b["q_max"] == 7 and b["degree_max"] == "2"
    assert b == {"k_max": 3, "q_min": 2, "q_max": 7, "degree_max": "2",
                 "k_max_effective": 3}


def test_catalog_1_1():
    entries = enumerate_catalog(SearchParams(epsilon=F(1), isotropy_bound=1))
    assert len(entries) == 2
    degrees = sorted(F(e["degree"]) for e in entries)
    assert degrees == [1, 2]
    assert mld_spectrum(entries) == (F(1), F(2))
    by_degree = {e["degree"]: e for e in entries}
    assert by_degree["1"]["embedding_dimension"] == 2
    assert by_degree["2"]["embedding_dimension"] == 3
    assert by_degree["2"]["mld"] == "1"
    assert by_degree["2"]["link_determinant"] == 2


def test_catalog_1_2_contains_a3_and_d4():
    entries = enumerate_catalog(SearchParams(epsilon=F(1), isotropy_bound=2))
    assert len(entries) == 6
    frac_types = [(e["fractional"], e["degree"]) for e in entries]
    assert ([[1, 2], [1, 2]], "1") in frac_types          # the xy = z^4 cone
    assert ([[1, 2], [1, 2], [1, 2]], "1/2") in frac_types   # the D4 star
    a3 = next(e for e in entries
              if e["fractional"] == [[1, 2], [1, 2]] and e["degree"] == "1")
    assert a3["mld"] == "1"
    assert a3["link_determinant"] == 4
    assert a3["cartier_index_kx"] == 1
    assert mld_spectrum(entries) == (F(1), F(2))


def test_catalog_integral_only_family():
    # integral couples with isotropy bound 1: exactly the cones over
    # rational normal curves of degree up to 2/eps
    for m0 in (3, 5):
        eps = F(2, m0)
        entries = enumerate_catalog(SearchParams(epsilon=eps, isotropy_bound=1))
        assert [e["degree"] for e in entries] == [
            str(d) for d in range(1, m0 + 1)]
        for e in entries:
            assert F(e["a_e0"]) == 2 / F(e["degree"])
            assert e["max_isotropy"] == 1


def test_mld_spectrum_examples():
    entries = enumerate_catalog(SearchParams(epsilon=F(2, 5), isotropy_bound=1))
    assert mld_spectrum(entries) == (F(2, 5), F(1, 2), F(2, 3), F(1), F(2))
    assert mld_spectrum([]) == ()


def test_monotonicity_in_params():
    small = enumerate_catalog(SearchParams(epsilon=F(1), isotropy_bound=2))
    big = enumerate_catalog(SearchParams(epsilon=F(1, 2), isotropy_bound=3))
    keys_small = {e["key"] for e in small}
    keys_big = {e["key"] for e in big}
    assert keys_small <= keys_big


def test_entry_round_trip_and_rebuild():
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    entries = enumerate_catalog(params)
    for e in entries:
        C = entry_couple(e)
        assert C.degree() == F(e["degree"])
        assert key_string(normal_form(C)) == e["key"]


@pytest.mark.parametrize("eps,N", [(F(1), 3), (F(1, 2), 6), (F(1, 4), 4),
                                   (F(1, 10), 5)])
def test_entries_are_json_values(eps, N):
    # each entry is already the object the file holds: no Fraction, no
    # tuple, nothing that a JSON round trip would change
    entries = enumerate_catalog(SearchParams(epsilon=eps, isotropy_bound=N))
    assert entries and json.loads(json.dumps(entries)) == entries
    assert all(type(e) is dict for e in entries)


def test_catalog_determinism():
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=2)
    a = catalog_to_json(enumerate_catalog(params), params)
    b = catalog_to_json(enumerate_catalog(params), params)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_degree_cap_is_inclusive():
    # the A1 cone xy = z^2 (degree 2, no fractional points) has
    # a_e0 = mld = 1, so at eps = 1 it sits exactly on the cap 2/eps
    params = SearchParams(epsilon=F(1), isotropy_bound=1)
    assert list(_candidate_types(params)) == [((), F(1)), ((), F(2))]
    a1 = _evaluate_candidate(((), F(2), F(1)))
    assert a1["a_e0"] == a1["mld"] == "1" and a1["link_determinant"] == 2
    # every type with members is swept through its last member, which
    # the per-candidate oracle accepts, and not one step past
    eps = F(2, 5)
    last = {}
    for fracs, degree in _candidate_types(SearchParams(eps, 5)):
        last[fracs] = degree
    for fracs, degree in last.items():
        assert per_candidate_entry(fracs, degree, eps) is not None
        assert per_candidate_entry(fracs, degree + 1, eps) is None


# (eps, N) pairs on which the sweep by type is compared with the
# per-candidate oracle, entry by entry and byte by byte
ORACLE_GRID = [(F(1), 3), (F(1), 6), (F(1, 2), 6), (F(1, 4), 4),
               (F(2, 3), 9), (F(1, 8), 6), (F(1), 8), (F(1, 4), 7),
               (F(1, 3), 6), (F(1, 10), 10)]


@pytest.mark.parametrize("eps,N", ORACLE_GRID)
def test_sweep_by_type_matches_the_per_candidate_oracle(eps, N):
    params = SearchParams(epsilon=eps, isotropy_bound=N)
    entries = enumerate_catalog(params)
    oracle = per_candidate_catalog(params)
    assert entries == oracle
    assert dumps(catalog_to_json(entries, params)) == \
        dumps(catalog_to_json(oracle, params))


# (eps, N) pairs on which the degree-capped sweep is compared with the
# sweep through 2/eps for every fractional type
CAP_ORACLE_GRID = [(F(1), 3), (F(1), 6), (F(1, 2), 6), (F(1, 4), 4),
                   (F(2, 3), 9), (F(1, 8), 6)]


@pytest.mark.parametrize("eps,N", CAP_ORACLE_GRID)
def test_degree_cap_keeps_every_member(eps, N):
    params = SearchParams(epsilon=eps, isotropy_bound=N)
    capped = enumerate_catalog(params)
    full = uncapped_catalog(params)
    assert capped == full
    assert dumps(catalog_to_json(capped, params)) == \
        dumps(catalog_to_json(full, params))


@given(st.data())
def test_degree_cap_skips_only_rejected_candidates(data):
    eps = data.draw(st.fractions(min_value=F(1, 8), max_value=1,
                                 max_denominator=8).filter(lambda e: e > 0))
    params = SearchParams(epsilon=eps,
                          isotropy_bound=data.draw(st.integers(1, 6)))
    capped = list(_candidate_types(params))
    full = list(unpruned_candidate_types(params))
    kept = set(capped)
    assert [c for c in full if c in kept] == capped
    skipped = [c for c in full if c not in kept]
    assume(skipped)
    for _ in range(3):
        fracs, degree = data.draw(st.sampled_from(skipped))
        with pytest.raises(InternalInvariantError, match="is below epsilon"):
            _evaluate_candidate((fracs, degree, eps))
        assert per_candidate_entry(fracs, degree, eps) is None


@given(st.data())
def test_mld_cap_is_the_last_degree_the_oracle_accepts(data):
    # per type, the swept degrees are exactly those the per-candidate
    # oracle accepts below the central cap (2 - deg B)/eps: a prefix, and
    # the closed-form cap is its last degree
    eps = data.draw(st.fractions(min_value=F(1, 10), max_value=1,
                                 max_denominator=10).filter(lambda e: e > 0))
    params = SearchParams(epsilon=eps,
                          isotropy_bound=data.draw(st.integers(1, 9)))
    coeffs = _fractional_coefficients(params.isotropy_bound)
    fracs = data.draw(st.sampled_from(
        [tuple(coeffs[i] for i in t) for t in _admissible_types(coeffs)]))
    swept = [d for f, d in _candidate_types(params) if f == fracs]
    fsum = sum(fracs, F(0))
    deg_cap = (2 - sum(1 - F(1, f.denominator) for f in fracs)) / eps
    # degrees fsum + n in (0, deg_cap]
    degrees = [fsum + n for n in range(floor(-fsum) + 1,
                                        floor(deg_cap - fsum) + 1)]
    accepted = [d for d in degrees
                if per_candidate_entry(fracs, d, eps) is not None]
    assert swept == accepted


def test_admissible_types_are_those_of_the_cubic_scan():
    for N in (1, 2, 3, 6, 12):
        coeffs = _fractional_coefficients(N)
        scan = [()]
        for k in (1, 2, 3):
            scan.extend(
                t for t in itertools.combinations_with_replacement(coeffs, k)
                if sum(1 - F(1, f.denominator) for f in t) < 2)
        assert [tuple(coeffs[i] for i in t)
                for t in _admissible_types(coeffs)] == scan


# (eps, N) pairs, N <= 6, on which the catalog is compared with the
# graph-side enumeration of tests/helpers.py
COMPLETENESS_GRID = [(F(1), 1), (F(1), 3), (F(1), 6), (F(1, 2), 6),
                     (F(1, 4), 4), (F(2, 3), 5), (F(1, 3), 5), (F(2, 5), 6),
                     (F(1, 6), 3)]


@pytest.mark.parametrize("eps,N", COMPLETENESS_GRID)
def test_catalog_equals_graph_side_enumeration(eps, N):
    # audit checks the entries a catalog holds; this is the check that
    # none is missing: the same keys, each with the same mld
    params = SearchParams(epsilon=eps, isotropy_bound=N)
    entries = enumerate_catalog(params)
    graph_side = graph_side_catalog(eps, N)
    assert {e["key"]: F(e["mld"]) for e in entries} == graph_side
    assert mld_spectrum(entries) == tuple(sorted(set(graph_side.values())))


# eps = a/b with 1 <= a <= b <= 8
small_epsilons = st.integers(1, 8).flatmap(
    lambda b: st.integers(1, b).map(lambda a: F(a, b)))


def completeness_examples(test):
    for eps, N in COMPLETENESS_GRID:
        test = example(eps, N)(test)
    return test


@settings(max_examples=20, deadline=5000)
@given(small_epsilons, st.integers(1, 6))
@completeness_examples
def test_catalog_equals_graph_side_enumeration_on_drawn_bounds(eps, N):
    # the graph-side oracle takes up to about 0.35 s at N = 6, eps = 1/8
    params = SearchParams(epsilon=eps, isotropy_bound=N)
    entries = enumerate_catalog(params)
    graph_side = graph_side_catalog(eps, N)
    assert {e["key"]: F(e["mld"]) for e in entries} == graph_side
    assert mld_spectrum(entries) == tuple(sorted(set(graph_side.values())))


def test_sweep_checks_that_the_degree_cap_keeps_every_member_eps_lc(
        monkeypatch, tmp_path):
    # a candidate one degree past its type's cap has mld below eps: the
    # sweep refuses it as an invariant breach instead of dropping it
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    candidates = catalog._candidate_types

    def one_past_the_cap(params):
        last = {}
        for fracs, degree in candidates(params):
            yield fracs, degree
            last[fracs] = degree
        yield from ((fracs, degree + 1) for fracs, degree in last.items())

    monkeypatch.setattr(catalog, "_candidate_types", one_past_the_cap)
    with pytest.raises(InternalInvariantError,
                       match="is below epsilon 1 under the degree cap"):
        enumerate_catalog(params)
    assert cache_sizes() == (0, 0)
    out = tmp_path / "catalog.json"
    assert cli.main(["enumerate", "--epsilon", "1", "--isotropy-bound", "3",
                     "--out", str(out)]) == 4
    assert not out.exists()


def test_audit_clean_catalog():
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    entries = enumerate_catalog(params)
    report = audit_catalog(stored(entries), params)
    assert report["ok"] and report["checked"] == len(entries)
    report = audit_catalog([], params)
    assert report["ok"] and report["checked"] == 0


def test_audit_flags_tampered_entry():
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    entries = list(enumerate_catalog(params))
    victim = next(e for e in entries if e["fractional"])
    bad = replaced(victim, fractional=[[2, 3]], degree="5/3")
    report = audit_catalog(stored([bad]), params)
    assert not report["ok"]
    assert any("isotropy" in f or "a_e0" in f or "mld" in f
               for f in report["failures"])


def test_audit_reports_entry_rebuilt_to_non_klt_couple():
    entries = list(enumerate_catalog(SearchParams(epsilon=F(1),
                                                  isotropy_bound=2)))
    # three 6/7 points: the quotient boundary has degree 18/7 >= 2; the
    # audit bound admits isotropy 7, so the graph is built
    bad = replaced(entries[0], fractional=[[6, 7]] * 3, degree="4/7")
    params = SearchParams(epsilon=F(1), isotropy_bound=7)
    report = audit_catalog(stored([bad] + entries[1:]), params)
    assert not report["ok"] and report["checked"] == len(entries)
    assert any(f.startswith(f"entry {bad['key']}: rebuilt couple is not klt")
               for f in report["failures"])
    assert all(f.startswith(f"entry {bad['key']}:") for f in report["failures"])


@pytest.mark.parametrize("eps,N,count", [
    (F(1), 3, 15), (F(1), 6, 51), (F(1, 2), 6, 88), (F(1, 4), 4, 85),
])
def test_catalog_counts(eps, N, count):
    params = SearchParams(epsilon=eps, isotropy_bound=N)
    entries = enumerate_catalog(params)
    assert len(entries) == count
    assert audit_catalog(stored(entries), params)["ok"]


def test_catalog_keeps_canonical_couples_with_thirds():
    # membership is the vertex mld: these are A1, A2 and a smooth point,
    # although the chart germ of the partial resolution over a 2/3 point
    # has mld 2/3
    entries = {e["key"]: e for e in
               enumerate_catalog(SearchParams(epsilon=F(1), isotropy_bound=3))}
    expected = {"f[2/3];deg=2/3": ("1", [-2]),
                "f[2/3,2/3];deg=1/3": ("1", [-2, -2]),
                "f[2/3,1/2];deg=1/6": ("2", None)}
    for key, (mld, blown_down) in expected.items():
        assert entries[key]["mld"] == mld
        assert entries[key]["graph"]["blown_down"] == blown_down


def test_no_graph_per_candidate_and_one_per_audited_entry(monkeypatch):
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    calls = count_build_graph(monkeypatch)
    entries = enumerate_catalog(params)
    # the sweep solves each chain once per type and builds no star graph
    assert calls == []
    assert audit_catalog(stored(entries), params)["ok"]
    assert len(calls) == len(entries)


def test_audit_builds_each_stored_couple_once(monkeypatch):
    params = SearchParams(epsilon=F(1, 4), isotropy_bound=4)
    docs = stored(enumerate_catalog(params))
    build = audit.canonical_couple
    calls = []

    def counting(fracs, degree):
        calls.append(degree)
        return build(fracs, degree)

    # normal_form keeps a couple that is in normal form already
    monkeypatch.setattr(audit, "canonical_couple", counting)
    monkeypatch.setattr(divisors, "canonical_couple", counting)
    assert audit_catalog(docs, params)["ok"]
    assert len(calls) == len(docs)


def test_audit_flags_an_entry_stored_out_of_canonical_order():
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    docs = stored(enumerate_catalog(params))
    victim = next(d for d in docs if d["fractional"] == [[2, 3], [1, 2]])
    victim["fractional"] = [[1, 2], [2, 3]]
    assert audit_catalog(docs, params)["failures"] == [
        f"entry {victim['key']}: stored fractional [[1, 2], [2, 3]] is wrong"]


def test_audit_exits_1_on_a_repeated_entry(tmp_path, capsys):
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    docs = stored(enumerate_catalog(params))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"entries": docs + docs[:1]}), encoding="utf-8")
    code = cli.main(["audit", "--catalog", str(path), "--epsilon", "1",
                     "--isotropy-bound", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["checked"] == len(docs) + 1
    assert report["failures"] == [f"entry {docs[0]['key']}: duplicate key"]


def tampered_oracle(monkeypatch, tamper):
    """Route audit's build_graph through tamper(G)."""
    build = resolution.build_graph
    monkeypatch.setattr(audit, "build_graph", lambda C: tamper(build(C)))


def test_audit_checks_a_e0_against_the_resolution_oracle(monkeypatch):
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    docs = stored(enumerate_catalog(params))

    def shift_center(G):
        H = ResolutionGraph(G.central_self_int, G.chains,
                            (G.numerators[0] + G.denominator,
                             *G.numerators[1:]),
                            G.denominator, G.determinant)
        H.__dict__["mld"] = G.mld       # only the central value is off
        return H

    tampered_oracle(monkeypatch, shift_center)
    assert audit_catalog(docs, params)["failures"] == [
        f"entry {d['key']}: a_e0 disagrees with the resolution oracle"
        for d in docs]


def test_audit_checks_the_mld_against_the_resolution_oracle(monkeypatch):
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    docs = stored(enumerate_catalog(params))

    def raise_mld(G):
        G.__dict__["mld"] = G.mld + 1
        return G

    tampered_oracle(monkeypatch, raise_mld)
    assert audit_catalog(docs, params)["failures"] == [
        f"entry {d['key']}: mld disagrees with the resolution oracle"
        for d in docs]


def test_audit_checks_the_mld_of_blown_down_entries_against_the_oracle(
        monkeypatch):
    # where the centre is a (-1)-curve, the oracle and the rebuilt entry
    # share one blow-down; a wrong oracle mld there must still show, and
    # only there
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=6)
    docs = stored(enumerate_catalog(params))

    def raise_mld_over_a_minus_one_curve(G):
        if G.central_self_int == -1:
            G.__dict__["mld"] = G.mld + 1
        return G

    tampered_oracle(monkeypatch, raise_mld_over_a_minus_one_curve)
    flagged = [d for d in docs if d["graph"]["center"] == -1]
    assert 0 < len(flagged) < len(docs)
    assert audit_catalog(docs, params)["failures"] == [
        f"entry {d['key']}: mld disagrees with the resolution oracle"
        for d in flagged]


def mutated_members(monkeypatch, mutate):
    """Route audit's rebuilt entries through mutate(entry), as a builder
    that writes that field wrongly would, in the sweep and the audit
    alike."""
    build = catalog._type_member

    def member_of(fracs):
        member = build(fracs)

        def mutated(degree, G):
            mld, entry = member(degree, G)
            return mld, mutate(entry)
        return mutated

    member_of.cache_clear = build.cache_clear
    monkeypatch.setattr(audit, "_type_member", member_of)


def last_lowered(numerator):
    return [*numerator[:-1], numerator[-1] - 1]


def one_moved_up(numerator):
    """1 moved from the coefficient of T to that of T^2: the sum at T = 1
    stays, and h(1) falls by 1."""
    num = [*numerator, 0, 0][:max(3, len(numerator))]
    return [num[0], num[1] - 1, num[2] + 1, *num[3:]]


H_VALUES = "h(n) at n = 1, L and 2L + 1"


@pytest.mark.parametrize("field,mutate,oracles", [
    ("cartier_index_kx", lambda e: replaced(
        e, cartier_index_kx=2 * e["cartier_index_kx"]),
     ["the quotient oracle"]),
    ("hilbert_period", lambda e: replaced(
        e, hilbert_period=2 * e["hilbert_period"]),
     ["the lcm of the denominators"]),
    # the last coefficient moves h(2L + 1) too
    ("hilbert_numerator", lambda e: replaced(
        e, hilbert_numerator=last_lowered(e["hilbert_numerator"])),
     ["L deg D at T = 1", H_VALUES]),
    ("hilbert_numerator", lambda e: replaced(
        e, hilbert_numerator=one_moved_up(e["hilbert_numerator"])),
     [H_VALUES]),
    ("link_determinant", lambda e: replaced(
        e, link_determinant=e["link_determinant"] + 1), ["the star graph"]),
], ids=["cartier_index_kx", "hilbert_period", "hilbert_numerator",
        "hilbert_values", "link_determinant"])
def test_audit_checks_a_field_against_its_second_oracle(field, mutate, oracles,
                                                       monkeypatch):
    # the stored entries carry the same damage, so only the oracle sees it
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=6)
    docs = [mutate(d) for d in stored(enumerate_catalog(params))]
    mutated_members(monkeypatch, mutate)
    assert audit_catalog(docs, params)["failures"] == [
        f"entry {d['key']}: {field} disagrees with {oracle}"
        for d in docs for oracle in oracles]


def test_audit_checks_the_embedding_dimension_of_a_cyclic_quotient(
        monkeypatch):
    # an entry with at most two fractional points is a cyclic quotient,
    # whose continued fraction gives the embedding dimension; three
    # points keep the blow-down that the entry shares
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=6)

    def mutate(e):
        return replaced(e, embedding_dimension=e["embedding_dimension"] + 1)

    docs = [mutate(d) for d in stored(enumerate_catalog(params))]
    mutated_members(monkeypatch, mutate)
    cyclic = [d for d in docs if len(d["fractional"]) <= 2]
    assert len(cyclic) < len(docs)
    assert audit_catalog(docs, params)["failures"] == [
        f"entry {d['key']}: embedding_dimension disagrees with the cyclic "
        "quotient" for d in cyclic]


def test_audit_blows_down_each_entry_at_most_once(monkeypatch):
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=6)
    docs = stored(enumerate_catalog(params))
    original = resolution.blow_down
    calls = []

    def counting(self_intersections, edges):
        calls.append((tuple(self_intersections), tuple(edges)))
        return original(self_intersections, edges)

    monkeypatch.setattr(resolution, "blow_down", counting)
    monkeypatch.setattr(catalog, "blow_down", counting)
    assert audit_catalog(docs, params)["ok"]
    # the oracle and the rebuilt entry share each blow-down: no graph
    # is blown down twice
    assert len(set(calls)) == len(calls) <= len(docs)


def test_audit_accepts_entries_with_their_keys_in_another_order():
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    docs = [dict(reversed(d.items())) for d in stored(enumerate_catalog(params))]
    for d in docs:
        d["graph"] = dict(reversed(d["graph"].items()))
    assert audit_catalog(docs, params)["ok"]


def test_audit_refuses_entry_with_four_fractional_points():
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    entries = list(enumerate_catalog(params))
    # four halves at degree 3 have no canonical placement; they must not
    # rebuild to the three-point couple of degree 5/2
    bad = replaced(entries[0], fractional=[[1, 2]] * 4, degree="3")
    with pytest.raises(PreconditionError, match="canonical placement"):
        entry_couple(bad)
    report = audit_catalog(stored([bad]), params)
    assert report["failures"] == [
        f"entry {bad['key']}: cannot rebuild couple (4 fractional points have "
        "no canonical placement (at most 3))"]


# At least one tamper per stored field, each keeping the JSON
# well-formed.  The defining fields (key, fractional, degree) are
# tampered without changing the couple, so that only the tampered field
# differs.  A JSON true or 2.0 must not pass for the integer 1 or 2.
TAMPERS = [
    ("key", "f[];deg=99"),
    ("degree", "2/2"),
    ("fractional", [[2, 4], [1, 2]]),
    ("a_e0", "5"),
    ("mld", "1/2"),
    ("cartier_index_kx", 99),
    ("cartier_index_kx", True),
    ("max_isotropy", 1.5),
    ("max_isotropy", 2.0),
    ("link_determinant", True),
    ("hilbert_numerator", [7, 7]),
    ("hilbert_period", 5),
    ("embedding_dimension", 5),
    ("graph.center", -3),
    ("graph.chains", [[-3]]),
    ("graph.blown_down", None),
]


@pytest.mark.parametrize("path, value", TAMPERS,
                         ids=[f"{p}={json.dumps(v)}" for p, v in TAMPERS])
def test_audit_names_each_tampered_field(path, value):
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    entries = stored(enumerate_catalog(params))
    # the A3 cone xy = z^4: two fractional points, degree 1, Gorenstein,
    # blown-down graph of three (-2)-curves
    index, victim = next((i, e) for i, e in enumerate(entries)
                         if e["fractional"] == [[1, 2], [1, 2]]
                         and e["degree"] == "1")
    assert victim["graph"]["blown_down"] == [-2, -2, -2]
    assert victim["cartier_index_kx"] == 1 and victim["max_isotropy"] == 2
    assert {p.split(".")[0] for p, _ in TAMPERS} == victim.keys()
    *outer, field = path.split(".")
    owner = victim
    for part in outer:
        owner = owner[part]
    assert json.dumps(owner[field]) != json.dumps(value)
    owner[field] = value
    top = path.split(".")[0]
    report = audit_catalog(entries, params)
    assert report["checked"] == len(entries)
    assert report["failures"] == [
        f"entry {victim['key']}: stored {top} "
        f"{json.dumps(victim[top], sort_keys=True)} is wrong"]
    assert audit_catalog(entries[:index] + entries[index + 1:], params)["ok"]


def test_audit_flags_missing_and_extra_fields():
    params = SearchParams(epsilon=F(1), isotropy_bound=1)
    victim = stored(enumerate_catalog(params))[-1]
    missing = {k: v for k, v in victim.items() if k != "mld"}
    assert audit_catalog([missing], params)["failures"] == [
        f"entry {victim['key']}: stored entry has no mld"]
    extra = {**victim, "note": 1}
    assert audit_catalog([extra], params)["failures"] == [
        f"entry {victim['key']}: stored note 1 is wrong"]


def test_audit_refuses_a_period_above_the_cap(monkeypatch):
    # the rebuilt Hilbert numerator takes time linear in the period, so
    # audit refuses it before the type is built, as hilbert_series does
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    docs = [d for d in stored(enumerate_catalog(params))
            if d["fractional"] == [[1, 2], [1, 3]]]
    assert docs and audit_catalog(docs, params)["ok"]
    monkeypatch.setattr(hilbert, "PERIOD_MAX", 5)
    with pytest.raises(PreconditionError,
                       match="period L = 6 exceeds PERIOD_MAX = 5"):
        audit_catalog(docs, params)


def cache_sizes():
    """Entries held by the catalog's chain cache and its type cache."""
    return (catalog._chain_solve.cache_info().currsize,
            catalog._type_member.cache_info().currsize)


def test_enumerate_empties_the_chain_and_type_caches(monkeypatch):
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=6)
    assert enumerate_catalog(params)
    assert cache_sizes() == (0, 0)
    evaluate, calls = catalog._evaluate_candidate, []

    def stop_at_the_third(args):
        calls.append(cache_sizes())
        if len(calls) == 3:
            raise PreconditionError("stopped")
        return evaluate(args)

    monkeypatch.setattr(catalog, "_evaluate_candidate", stop_at_the_third)
    with pytest.raises(PreconditionError, match="stopped"):
        enumerate_catalog(params)
    # both caches held entries when the sweep raised
    assert all(calls[-1])
    assert cache_sizes() == (0, 0)


def test_audit_empties_the_chain_and_type_caches(monkeypatch):
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    docs = stored(enumerate_catalog(params))
    assert audit_catalog(docs, params)["ok"]
    assert cache_sizes() == (0, 0)
    # an entry of period 2, then one of period 6, above the cap
    docs = [next(d for d in docs if d["fractional"] == pairs)
            for pairs in ([[1, 2]], [[1, 2], [1, 3]])]
    checked, sizes = audit._checked_period, []

    def record_sizes(D):
        sizes.append(cache_sizes())
        return checked(D)

    monkeypatch.setattr(audit, "_checked_period", record_sizes)
    monkeypatch.setattr(hilbert, "PERIOD_MAX", 5)
    with pytest.raises(PreconditionError,
                       match="period L = 6 exceeds PERIOD_MAX = 5"):
        audit_catalog(docs, params)
    # the first entry filled both caches before the second one raised
    assert len(sizes) == 2 and all(sizes[-1])
    assert cache_sizes() == (0, 0)


@pytest.mark.parametrize("doc", [
    [],
    {"fractional": [], "degree": "1"},
    {"key": "k", "fractional": [[1, 2]]},
    {"key": "k", "fractional": [[1, True]], "degree": "1/2"},
    {"key": "k", "fractional": [[1.0, 2]], "degree": "1/2"},
    {"key": "k", "fractional": [[1, 2, 3]], "degree": "1/2"},
    {"key": "k", "fractional": {"p": 1}, "degree": "1/2"},
    {"key": "k", "fractional": [[1, 2]], "degree": 0.5},
])
def test_audit_refuses_malformed_defining_data(doc):
    params = SearchParams(epsilon=F(1), isotropy_bound=2)
    with pytest.raises(ParseError):
        audit_catalog([doc], params)
