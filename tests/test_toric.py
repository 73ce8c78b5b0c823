import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conesing import linalg, toric
from conesing.divisors import CurveCouple, finite_point, infinity_point
from conesing.errors import InternalInvariantError, PreconditionError
from conesing.jsonio import fmt_q
from conesing.linalg import primitivize
from conesing.resolution import build_graph
from conesing.toric import (Fan, _dot, _pair_form, cartier_index_global,
                            cone_of_x, fan_projective_space, is_ample,
                            log_discrepancy_x, random_primitive_samples,
                            verify_comparison)
from helpers import (cartier_index_on_cone, coeff, fan_p1, fan_p1xp1, fan_p2,
                     fan_weighted_plane, lattice_mld, log_discrepancy_y,
                     random_instances, simplicial_walls_ok, support_value,
                     toric_divisor, weil_index)

F2 = Fraction
P0 = finite_point(0)
PINF = infinity_point()


def toric_model_of_couple(C: CurveCouple):
    """Couple supported in {0, infinity} as a fan-plus-divisor."""
    c0 = coeff(C, P0)
    cinf = coeff(C, PINF)
    for p, _ in C.terms:
        assert p in (P0, PINF)
    return fan_p1(), toric_divisor([c0, cinf])


def test_fan_validation():
    with pytest.raises(PreconditionError, match="fan not complete"):
        Fan(rank=1, rays=((1,),), max_cones=((0,),))
    with pytest.raises(PreconditionError,
                       match=r"ray \(2, 0\) is not primitive"):
        Fan(rank=2, rays=((2, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (1, 2), (0, 2)))
    with pytest.raises(PreconditionError, match="fan not complete"):
        # missing one cone of the plane fan: wall condition fails
        Fan(rank=2, rays=((1, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (1, 2)))
    fan_p2()
    fan_p1xp1()
    fan_weighted_plane(2, 3)
    fan_projective_space(3)


def test_support_value_examples():
    F = fan_p2()
    D = toric_divisor([0, 0, 1])
    assert support_value(F, D, (-1, -1)) == 1
    assert support_value(F, D, (0, 0)) == 0
    Fp1 = fan_p1()
    Dp1 = toric_divisor([F2(1, 2), 0])
    assert support_value(Fp1, Dp1, (3,)) == F2(3, 2)


def test_weil_index_examples():
    Fp1 = fan_p1()
    D = toric_divisor([F2(1, 2), F2(2, 3)])
    assert weil_index(Fp1, D, (1,)) == 2
    assert weil_index(Fp1, D, (-1,)) == 3
    F = fan_p2()
    D = toric_divisor([0, 0, F2(1, 2)])
    assert weil_index(F, D, (1, 0)) == 1
    assert weil_index(F, D, (-1, -1)) == 2


def test_cartier_index_on_cone():
    Fp1 = fan_p1()
    D = toric_divisor([F2(3, 4), 0])
    assert cartier_index_on_cone(Fp1, D, 0) == 4
    assert cartier_index_on_cone(Fp1, D, 1) == 1
    assert cartier_index_global(Fp1, D) == 4
    F = fan_p2()
    assert cartier_index_global(F, toric_divisor([0, 0, 1])) == 1


def test_pair_form_takes_one_over_q_at_the_rays():
    # the boundary 1 - 1/q_rho is read off D's denominators, so the pair
    # form takes 1 - b_rho = 1/q_rho at the rays of each cone
    F = fan_p2()
    D = toric_divisor([2, F2(1, 2), F2(5, 3)])
    at_rays = (1, F2(1, 2), F2(1, 3))
    for ci, cone in enumerate(F.max_cones):
        form = _pair_form(F, D, ci)
        assert [_dot(form, F.rays[i]) for i in cone] == [at_rays[i]
                                                         for i in cone]


def test_log_discrepancy_y():
    F = fan_p2()
    B = toric_divisor([0, 0, 0])
    assert log_discrepancy_y(F, B, (1, 0)) == 1
    assert log_discrepancy_y(F, B, (1, 1)) == 2     # blowup of the origin
    B = toric_divisor([F2(1, 2), 0, 0])
    assert log_discrepancy_y(F, B, (1, 0)) == F2(1, 2)


def test_cone_of_x_p2_hyperplane():
    rays, qform = cone_of_x(fan_p2(), toric_divisor([0, 0, 1]))
    assert rays == ((1, 0, 0), (0, 1, 0), (-1, -1, 1))
    assert qform == (F2(1), F2(1), F2(3))
    assert log_discrepancy_x(qform, (0, 0, 1)) == 3


def test_cone_of_x_p1_cases():
    rays, qform = cone_of_x(fan_p1(), toric_divisor([F2(1, 2), F2(1, 2)]))
    assert rays == ((2, 1), (-2, 1))
    assert log_discrepancy_x(qform, (0, 1)) == 1
    for m in range(1, 8):
        rays, qform = cone_of_x(fan_p1(), toric_divisor([m, 0]))
        assert rays == ((1, m), (-1, 0))
        assert log_discrepancy_x(qform, (0, 1)) == F2(2, m)


def test_cone_of_x_requires_ample():
    with pytest.raises(PreconditionError, match="not ample on the fan"):
        cone_of_x(fan_p1(), toric_divisor([0, 0]))
    with pytest.raises(PreconditionError, match="not ample on the fan"):
        cone_of_x(fan_p2(), toric_divisor([-1, 0, 0]))


def test_not_qgorenstein_lift():
    # generic quadric-surface divisor is not proportional to the
    # anticanonical class, and the lifted cone has no normalizing form
    F = fan_p1xp1()
    D = toric_divisor([1, 2, 3, 4])
    assert is_ample(F, D)
    _, qform = cone_of_x(F, D)
    assert qform is None
    with pytest.raises(PreconditionError, match="no covector takes value 1"):
        log_discrepancy_x(qform, (0, 0, 1))


def test_verify_comparison_p2():
    report = verify_comparison(fan_p2(), toric_divisor([0, 0, 1]),
                               samples=[(1, 1), (2, -1), (-3, 1)])
    assert not report.violations
    for c in report.checks[:3]:
        assert c["a_cone"] == "1"     # fan rays have log discrepancy 1
    assert report.vertex_ok is True
    assert report.vertex_actual == 3


def test_verify_comparison_p1_mixed_denominators():
    report = verify_comparison(fan_p1(),
                               toric_divisor([F2(1, 2), F2(2, 3)]),
                               samples=[(1,), (-1,)])
    assert not report.violations
    by_v = {tuple(c["v"]): c for c in report.checks}
    assert by_v[(1,)]["weil"] == 2 and by_v[(-1,)]["weil"] == 3
    assert by_v[(1,)]["a_cone"] == "1" and by_v[(-1,)]["a_cone"] == "1"


def test_verify_comparison_seeded_instances():
    instances = random_instances(seed=5, count=12)
    for i, (label, F, D) in enumerate(instances):
        samples = random_primitive_samples(seed=1000 + i, rank=F.rank, count=8)
        report = verify_comparison(F, D, samples)
        assert not report.violations, label
        if report.vertex_ok is not None:
            assert report.vertex_ok, label


def test_weil_divides_cartier_on_samples():
    instances = random_instances(seed=7, count=10, require_qgorenstein=False)
    for label, F, D in instances:
        for v in random_primitive_samples(seed=11, rank=F.rank, count=12):
            ci = F.locate(v)
            w = weil_index(F, D, v)
            cart = cartier_index_on_cone(F, D, ci)
            assert cart % w == 0 and w <= cart


def test_rank1_vertex_matches_curve_side():
    from conesing.quotient import vertex_log_discrepancy
    cases = [
        {P0: F2(1, 2), PINF: F2(1, 2)},
        {P0: F2(2, 3), PINF: F2(1, 3)},
        {P0: 3},
        {P0: F2(3, 4), PINF: 2},
    ]
    for terms in cases:
        C = CurveCouple.of(terms)
        F, D = toric_model_of_couple(C)
        _, qform = cone_of_x(F, D)
        rank = F.rank
        assert log_discrepancy_x(qform, tuple([0] * rank + [1])) == \
            vertex_log_discrepancy(C)


def test_lattice_mld_agrees_with_star_resolution():
    cases = [
        {P0: 1}, {P0: 2}, {P0: 5},
        {P0: F2(1, 2)}, {P0: F2(2, 3)},
        {P0: F2(1, 2), PINF: F2(1, 2)},
        {P0: F2(2, 3), PINF: F2(1, 3)},
        {P0: F2(3, 4), PINF: F2(2, 5)},
        {P0: F2(5, 7), PINF: 1},
    ]
    for terms in cases:
        C = CurveCouple.of(terms)
        F, D = toric_model_of_couple(C)
        rays, qform = cone_of_x(F, D)
        if qform is None:
            continue
        assert lattice_mld(rays, qform) == build_graph(C).mld


# ---------------------------------------------------------------------------
# oracles for Fan.locate and verify_comparison
# ---------------------------------------------------------------------------

def _in_cone(rays, v):
    """Membership of v in the cone spanned by the rays (Caratheodory:
    some full-rank subset realizes it with nonnegative coordinates)."""
    n = len(v)
    if all(x == 0 for x in v):
        return True
    for subset in itertools.combinations(range(len(rays)), min(n, len(rays))):
        cols = [rays[i] for i in subset]
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        status, sol = linalg.solve(rows, list(v))
        if status == "unique" and all(x >= 0 for x in sol):
            return True
    return False


def locate_by_scan(F, v):
    """First maximal cone containing v, by one Fraction solve per subset."""
    for ci, c in enumerate(F.max_cones):
        if _in_cone([F.rays[i] for i in c], v):
            return ci
    return None


def fan_cube():
    """Non-simplicial complete fan over the six faces of [-1, 1]^3."""
    rays = tuple(itertools.product((1, -1), repeat=3))
    cones = tuple(tuple(i for i, r in enumerate(rays) if r[axis] == sign)
                  for axis in range(3) for sign in (1, -1))
    return Fan(rank=3, rays=rays, max_cones=cones)


def cube_divisor(shift):
    """All-ones divisor on the cube fan plus a rational linear form."""
    return toric_divisor([1 + sum(F2(a) * x for a, x in zip(shift, r))
                            for r in fan_cube().rays])


P3_DIVISOR = toric_divisor([F2(1, 2), F2(1, 3), 0, 1])
# random_instances draws from the line, the plane, the quadric and the
# weighted planes; P^3 and the non-simplicial cube fan add rank 3
INSTANCES = (random_instances(seed=13, count=10, require_qgorenstein=False)
             + [("p3", fan_projective_space(3), P3_DIVISOR)]
             + [(f"cube{shift}", fan_cube(), cube_divisor(shift))
                for shift in [(0, 0, 0), (F2(1, 2), F2(1, 2), 0),
                              (F2(1, 3), 0, 0), (F2(2, 3), F2(1, 3), 0)]])


def lattice_vectors(rank, box=6):
    return st.tuples(*[st.integers(-box, box)] * rank)


def reference_checks(F, D, samples):
    """The per-vector path: locate and solve again in every call."""
    _, qform = cone_of_x(F, D)
    # the standard-coefficient boundary, one b_rho = 1 - 1/q_rho per ray
    B = tuple(1 - F2(1, c.denominator) for c in D)
    out = []
    for v in [*F.rays, *samples]:
        if all(x == 0 for x in v):
            continue
        v = primitivize(v)
        s = support_value(F, D, v)
        lifted = primitivize(tuple(s.denominator * x for x in v) + (s.numerator,))
        weil = weil_index(F, D, v)
        a_base = log_discrepancy_y(F, B, v)
        a_cone = log_discrepancy_x(qform, lifted)
        out.append({"v": list(v), "weil": weil, "a_base": fmt_q(a_base),
                    "a_cone": fmt_q(a_cone), "ok": a_cone == weil * a_base})
    return out


@given(st.data())
def test_locate_matches_caratheodory_scan(data):
    _, F, _ = data.draw(st.sampled_from(INSTANCES))
    v = data.draw(lattice_vectors(F.rank))
    if any(v):
        v = primitivize(v)
    assert F.locate(v) == locate_by_scan(F, v)


@given(st.data())
def test_verify_comparison_matches_per_vector_reference(data):
    label, F, D = data.draw(st.sampled_from(INSTANCES))
    samples = data.draw(st.lists(lattice_vectors(F.rank), max_size=12))
    try:
        expected = reference_checks(F, D, samples)
    except PreconditionError as exc:
        assert str(exc) == "no covector takes value 1 on all rays"
        with pytest.raises(PreconditionError,
                           match="needs a Q-Gorenstein lifted cone"):
            verify_comparison(F, D, samples)
        return
    assert verify_comparison(F, D, samples).checks == expected, label


# the benchmark's fans and divisors: P^3 and the weighted plane P(1,1,2)
BENCHMARK_FANS = [
    (lambda: fan_projective_space(3), P3_DIVISOR),
    (lambda: Fan(rank=2, rays=((1, 0), (0, 1), (-1, -2)),
                 max_cones=((0, 1), (1, 2), (0, 2))),
     toric_divisor([F2(1, 2), F2(2, 3), 1])),
]


def test_linear_algebra_calls_do_not_grow_with_samples(monkeypatch):
    calls = []
    solve = toric.solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(toric, "solve", counting)
    seen = []
    for make_fan, D in BENCHMARK_FANS:
        for n in (10, 1000):
            F = make_fan()      # fresh fan: its cone data is rebuilt
            # one interior vector per cone, so both runs build every
            # cone's forms
            interiors = [tuple(map(sum, zip(*(F.rays[i] for i in c))))
                         for c in F.max_cones]
            samples = interiors + random_primitive_samples(
                seed=1, rank=F.rank, count=n)
            calls.clear()
            report = verify_comparison(F, D, samples)
            assert not report.violations
            assert len(report.checks) == len(F.rays) + len(samples)
            seen.append(len(calls))
            # the divisor forms stay on the fan for every later reader
            calls.clear()
            assert is_ample(F, D)
            cartier_index_global(F, D)
            cone_of_x(F, D)
            assert len(calls) == 1      # the Q-Gorenstein solve
    # one divisor form and one pair form per cone, the Q-Gorenstein
    # solve and the vertex-ratio solve
    assert seen == [10, 10, 8, 8]


def test_fan_facets_are_cached_primitive_integer_normals():
    F = fan_cube()
    assert F.facets is F.facets
    # a square face of the cube is a cone with four facets
    assert [len(normals) for normals in F.facets] == [4] * 6
    for c, normals in zip(F.max_cones, F.facets):
        rays = [F.rays[i] for i in c]
        for u in normals:
            assert all(type(x) is int for x in u)
            assert primitivize(u) == u
            assert all(sum(a * b for a, b in zip(u, r)) >= 0 for r in rays)
            on_facet = [r for r in rays if sum(a * b for a, b in zip(u, r)) == 0]
            assert linalg.rank(on_facet) == F.rank - 1
    # a non-simplicial cone gets the wall check too, so this incomplete
    # fan no longer reaches locate
    with pytest.raises(PreconditionError, match="fan not complete"):
        Fan(rank=2, rays=((1, 0), (1, 1), (0, 1)), max_cones=((0, 1, 2),))


def test_degenerate_inputs_raise_contract_errors():
    with pytest.raises(PreconditionError, match="rank 0 must be at least 1"):
        Fan(rank=0, rays=(), max_cones=((),))
    with pytest.raises(InternalInvariantError):
        primitivize((0, 0))
    for rank, count in [(2, -3), (0, 1)]:
        with pytest.raises(PreconditionError):
            random_primitive_samples(seed=1, rank=rank, count=count)
    with pytest.raises(PreconditionError):
        fan_projective_space(0)
    with pytest.raises(PreconditionError):
        fan_weighted_plane(2, 4)
    with pytest.raises(PreconditionError):
        lattice_mld(*cone_of_x(fan_p2(), toric_divisor([0, 0, 1])))


# ---------------------------------------------------------------------------
# the wall check of Fan validation
# ---------------------------------------------------------------------------

def accepts(rank, rays, cones):
    try:
        Fan(rank=rank, rays=rays, max_cones=cones)
    except PreconditionError:
        return False
    return True


P2_RAYS = ((1, 0), (0, 1), (-1, -1))


@pytest.mark.parametrize("rank, rays, cones, ok", [
    (3, fan_projective_space(3).rays, fan_projective_space(3).max_cones, True),
    (2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)), True),
    (3, fan_cube().rays, fan_cube().max_cones, True),
    # five of the six faces of the cube
    (3, fan_cube().rays, fan_cube().max_cones[:5], False),
    # a ray index repeated inside a cone of P^2, also with a cone missing
    # and then written without the repeat
    (2, P2_RAYS, ((0, 0, 1), (1, 2), (0, 2)), False),
    (2, P2_RAYS, ((0, 0, 1), (1, 2)), False),
    (2, P2_RAYS, ((0, 1), (1, 2)), False),
    # the cone over (1,0), (1,1) overlaps the cone over (1,0), (0,1)
    (2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)),
     ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)), False),
    # every ray lies in two cones, but the cones over 0-90 and 45-90
    # degrees lie on the same side of their common ray
    (2, ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)),
     ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), False),
    # two half-planes cover the plane but are not strictly convex
    (2, ((1, 0), (-1, 0), (0, 1), (0, -1)), ((0, 1, 2), (0, 1, 3)), False),
    # a rank-1 fan needs one cone per ray
    (1, ((1,), (-1,)), ((0,), (0,)), False),
], ids=["P3", "P112", "cube", "cube_five_faces", "repeated_index",
        "repeated_index_two_cones", "p2_two_cones", "overlap", "folded", "half_planes",
        "rank1_one_ray"])
def test_wall_check(rank, rays, cones, ok):
    assert accepts(rank, rays, cones) == ok


@pytest.mark.parametrize("rays, cones, ok", [
    (((1,), (-1,)), ((0,), (1,)), True),
    (((-1,), (1,)), ((1,), (0,)), True),
    (((1,),), ((0,),), False),
    (((1,), (-1,)), ((0,),), False),
    (((1,), (-1,)), ((0, 1),), False),
    (((1,), (-1,)), ((0,), (1,), (0,)), False),
])
def test_rank1_fans_pass_the_general_checks(rays, cones, ok):
    # the normal of a one-ray cone is its ray, so the strict-convexity
    # test, the wall pairing and the single cover need no rank-1 case
    assert accepts(1, rays, cones) == ok
    if ok:
        F = Fan(rank=1, rays=rays, max_cones=cones)
        assert F.facets == tuple((F.rays[c[0]],) for c in F.max_cones)


def stellar(rays, cones, ci):
    """Star subdivision of cone ci at the sum of its rays."""
    new = primitivize(tuple(map(sum, zip(*(rays[i] for i in cones[ci])))))
    k = len(rays)
    split = [tuple(sorted(set(cones[ci]) - {i} | {k})) for i in cones[ci]]
    return rays + (new,), cones[:ci] + tuple(split) + cones[ci + 1:]


SIMPLICIAL = [fan_p2(), fan_p1xp1(), fan_weighted_plane(2, 3),
              fan_projective_space(3),
              # the Hirzebruch surface F_2
              Fan(rank=2, rays=((1, 0), (0, 1), (-1, 2), (0, -1)),
                  max_cones=((0, 1), (1, 2), (2, 3), (0, 3))),
              # (P^1)^3: rays +-e_i, one octant per cone
              Fan(rank=3, rays=((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (-1, 0, 0), (0, -1, 0), (0, 0, -1)),
                  max_cones=tuple(itertools.product((0, 3), (1, 4), (2, 5))))]


@pytest.mark.parametrize("index", range(len(SIMPLICIAL)))
def test_wall_check_matches_simplicial_oracle(index):
    # complete simplicial fans and star subdivisions of them, each also
    # with one maximal cone dropped
    F = SIMPLICIAL[index]
    fans = [(F.rays, F.max_cones)]
    fans += [stellar(F.rays, F.max_cones, ci) for ci in (0, len(F.max_cones) - 1)]
    for rays, cones in fans:
        assert accepts(F.rank, rays, cones)
        assert simplicial_walls_ok(F.rank, cones)
        for drop in range(len(cones)):
            kept = cones[:drop] + cones[drop + 1:]
            assert (accepts(F.rank, rays, kept),
                    simplicial_walls_ok(F.rank, kept)) == (False, False)
