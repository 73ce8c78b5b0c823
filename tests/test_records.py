"""The value records keep the frozen-dataclass contract they replaced:
equality and hash by the field tuple, NotImplemented against another
class, no assignment or deletion, the same repr, validation in the
constructor, and a pickle round trip."""

import json
import pickle
from fractions import Fraction as F

import pytest

from conesing.audit import audit_catalog
from conesing.catalog import SearchParams, enumerate_catalog
from conesing.counterexamples import diagonal_cone_report, rnc_family_report
from conesing.divisors import (CurveCouple, IntegralDivisorP1, MarkedPoint,
                               QDivisorP1, finite_point, infinity_point,
                               label_point, normal_form)
from conesing.errors import PreconditionError
from conesing.quotient import log_fano_quotient, vertex_decomposition
from conesing.records import Record
from conesing.resolution import LatticeCone2, build_graph
from conesing.hilbert import hilbert_series
from conesing.sections import presentation
from conesing.toric import (Fan, ToricDivisor, cone_of_x,
                            fan_projective_space, random_primitive_samples,
                            verify_comparison)


def make_all():
    """One instance of every record class, by name."""
    p0, p1, pinf = finite_point(0), finite_point(1), infinity_point()
    E6 = CurveCouple.of({p0: F(-1, 2), p1: F(1, 3), pinf: F(1, 3)})
    G = build_graph(E6)
    fan = fan_projective_space(2)
    td = ToricDivisor.of([0, 0, 1])
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=3)
    return {
        "MarkedPoint": finite_point(F(1, 2)),
        "MarkedPoint.inf": pinf,
        "MarkedPoint.lbl": label_point("a"),
        "QDivisorP1": QDivisorP1.of({p0: F(1, 2), pinf: 3}),
        "IntegralDivisorP1": IntegralDivisorP1.of({p0: 2, pinf: -2}),
        "CurveCouple": E6,
        "NormalForm": normal_form(E6),
        "StandardPair": log_fano_quotient(E6),
        "VertexData": vertex_decomposition(E6),
        "LatticeCone2": LatticeCone2(q=5, p=2),
        "ResolutionGraph": G,
        "BlownDownGraph": G.blown_down,
        "HilbertData": hilbert_series(E6),
        "Fan": fan,
        "ToricDivisor": td,
        "ConeOfX": cone_of_x(fan, td),
        "ComparisonReport": verify_comparison(fan, td, [(1, 1), (-1, 2)]),
        "SearchParams": params,
    }


# field names and repr of each instance, recorded from the dataclasses
# these classes replaced
EXPECTED = {
    'MarkedPoint': (('kind', 'x', 'name'),
        '[1/2]'),
    'MarkedPoint.inf': (('kind', 'x', 'name'),
        '[inf]'),
    'MarkedPoint.lbl': (('kind', 'x', 'name'),
        '[a]'),
    'QDivisorP1': (('terms',),
        '(1/2)[0] + (3)[inf]'),
    'IntegralDivisorP1': (('terms',),
        '(2)[0] + (-2)[inf]'),
    'CurveCouple': (('divisor',),
        'CurveCouple(divisor=(-1/2)[0] + (1/3)[1] + (1/3)[inf])'),
    'NormalForm': (('couple', 'key'),
        'NormalForm(couple=CurveCouple(divisor=(-1/2)[0] + (1/3)[1] + (1/3)[inf]), key=((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)), Fraction(1, 6)))'),
    'StandardPair': (('boundary',),
        'StandardPair(boundary=(([0], Fraction(1, 2)), ([1], Fraction(2, 3)), ([inf], Fraction(2, 3))))'),
    'VertexData': (('m', 'u', 'H'),
        'VertexData(m=1, u=-1, H=(1)[1] + (-1)[inf])'),
    'LatticeCone2': (('q', 'p'),
        'LatticeCone2(q=5, p=2)'),
    # the discrepancies are held as integers over one denominator
    'ResolutionGraph': (('central_self_int', 'chains', 'numerators', 'denominator', 'determinant'),
        'ResolutionGraph(central_self_int=-2, chains=((-2,), (-2, -2), (-2, -2)), numerators=(0, 0, 0, 0, 0, 0), denominator=6, determinant=3)'),
    'BlownDownGraph': (('self_intersections', 'edges', 'surviving'),
        'BlownDownGraph(self_intersections=(-2, -2, -2, -2, -2, -2), edges=((0, 1), (0, 2), (0, 4), (2, 3), (4, 5)), surviving=(0, 1, 2, 3, 4, 5))'),
    'HilbertData': (('period', 'numerator'),
        'HilbertData(period=6, numerator=(1, -1, 0, 1, 0, -1, 1))'),
    'Fan': (('rank', 'rays', 'max_cones'),
        'Fan(rank=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (0, 2), (1, 2)))'),
    'ToricDivisor': (('coefficients',),
        'ToricDivisor(coefficients=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))'),
    'ConeOfX': (('rank', 'rays', 'qgorenstein_form'),
        'ConeOfX(rank=3, rays=((1, 0, 0), (0, 1, 0), (-1, -1, 1)), qgorenstein_form=(Fraction(1, 1), Fraction(1, 1), Fraction(3, 1)))'),
    'ComparisonReport': (('checks', 'violations', 'vertex_expected', 'vertex_actual', 'vertex_ok'),
        "ComparisonReport(checks=[{'v': [1, 0], 'weil': 1, 'a_base': '1', 'a_cone': '1', 'ok': True}, {'v': [0, 1], 'weil': 1, 'a_base': '1', 'a_cone': '1', 'ok': True}, {'v': [-1, -1], 'weil': 1, 'a_base': '1', 'a_cone': '1', 'ok': True}, {'v': [1, 1], 'weil': 1, 'a_base': '2', 'a_cone': '2', 'ok': True}, {'v': [-1, 2], 'weil': 1, 'a_base': '4', 'a_cone': '4', 'ok': True}], violations=[], vertex_expected=Fraction(3, 1), vertex_actual=Fraction(3, 1), vertex_ok=True)"),
    'SearchParams': (('epsilon', 'isotropy_bound'),
        'SearchParams(epsilon=Fraction(1, 2), isotropy_bound=3)'),
}

INSTANCES = make_all()


def test_every_record_class_is_covered():
    from conesing import (catalog, counterexamples, divisors, hilbert,
                          quotient, resolution, sections, toric)
    classes = {cls for mod in (catalog, counterexamples, divisors, hilbert,
                               quotient, resolution, sections, toric)
               for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__ == mod.__name__
               and issubclass(cls, Record)}
    assert {type(v) for v in INSTANCES.values()} == classes
    assert len(classes) == 16


def assert_same_hash(*objs):
    """The objects hash alike, or, when a field holds JSON objects (the
    rows of a ComparisonReport), none of them is hashable."""
    try:
        expected = hash(objs[-1])
    except TypeError:
        for obj in objs:
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
    else:
        assert all(hash(obj) == expected for obj in objs)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_record_contract(name):
    obj = INSTANCES[name]
    fields, expected_repr = EXPECTED[name]
    assert type(obj)._fields == fields
    values = tuple(getattr(obj, f) for f in fields)
    twin = type(obj)(*values)
    assert twin == obj and not (twin != obj)
    assert_same_hash(obj, twin, values)
    assert obj.__eq__(values) is NotImplemented
    assert obj != values
    assert obj.__eq__(object()) is NotImplemented
    assert repr(obj) == expected_repr
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert tuple(getattr(obj, f) for f in fields) == values


def test_records_differing_in_one_field_are_unequal():
    row = INSTANCES["VertexData"]
    other = type(row)(**{**vars(row), "u": row.u - 1})
    assert other != row
    assert type(row)(**vars(row)) == row
    assert INSTANCES["MarkedPoint"] != INSTANCES["MarkedPoint.inf"]


def test_constructors_still_validate():
    with pytest.raises(PreconditionError, match="bad point kind"):
        MarkedPoint("nowhere")
    with pytest.raises(PreconditionError, match="label point needs a name"):
        MarkedPoint("lbl")
    assert MarkedPoint("fin", 2).x == F(2) and type(MarkedPoint("fin", 2).x) is F
    with pytest.raises(PreconditionError, match="bad cone data"):
        LatticeCone2(q=4, p=2)
    with pytest.raises(PreconditionError, match="isotropy bound 0 < 1"):
        SearchParams(epsilon=F(1), isotropy_bound=0)


def test_cached_values_stay_out_of_equality_and_repr():
    G = INSTANCES["ResolutionGraph"]
    fresh = type(G)(*(getattr(G, f) for f in G._fields))
    assert G.mld == 1 and "mld" in vars(G) and "mld" not in vars(fresh)
    assert fresh == G and repr(fresh) == repr(G)


def test_catalog_entries_survive_pickle():
    # catalog entries are plain JSON objects now; every record still
    # round-trips with its equality, hash, repr and immutability
    entries = enumerate_catalog(SearchParams(epsilon=F(1), isotropy_bound=3))
    assert pickle.loads(pickle.dumps(entries)) == entries
    for name, obj in INSTANCES.items():
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj, name
        assert_same_hash(back, obj)
        assert repr(back) == repr(obj), name
        with pytest.raises(AttributeError):
            setattr(back, obj._fields[0], None)


def test_check_rows_are_json_values():
    # the rows of toric-check, verify-examples and audit, and the result
    # of presentation, are built as the objects the commands print: no
    # Fraction, no tuple, nothing that a JSON round trip would change
    fan = Fan(rank=2, rays=((1, 0), (0, 1), (-1, -2)),
              max_cones=((0, 1), (1, 2), (0, 2)))
    D = ToricDivisor.of([F(1, 2), F(2, 3), 1])
    report = verify_comparison(fan, D, random_primitive_samples(3, 2, 40))
    params = SearchParams(epsilon=F(1), isotropy_bound=3)
    entries = enumerate_catalog(params)
    tampered = [{**entries[0], "mld": "1/7"}, *entries[1:]]
    audits = [audit_catalog(docs, params) for docs in (entries, tampered)]
    assert audits[0]["ok"] and audits[1]["failures"]
    rnc = rnc_family_report(6)
    pres = presentation(CurveCouple.of({finite_point(0): F(1, 2),
                                        finite_point(1): F(1, 2)}))
    assert pres["equations"]
    values = [report.checks, report.to_json(), rnc,
              [diagonal_cone_report(d) for d in (1, 2, 3)], *audits, pres]
    assert any(c["weil"] > 1 for c in report.checks)
    assert any("/" in r["a_e0"] for r in rnc)
    for value in values:
        assert json.loads(json.dumps(value)) == value
