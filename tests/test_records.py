"""The value records keep the frozen-dataclass contract they replaced:
equality and hash by the field tuple, NotImplemented against another
class, no assignment or deletion, the same repr, validation in the
constructor, and a pickle round trip for the catalog's worker pool."""

import pickle
from fractions import Fraction as F

import pytest

from conesing.catalog import (AuditReport, CatalogEntry, SearchParams,
                              enumerate_catalog, search_bounds)
from conesing.counterexamples import diagonal_cone_report, rnc_family_report
from conesing.divisors import (CurveCouple, IntegralDivisorP1, MarkedPoint,
                               QDivisorP1, finite_point, infinity_point,
                               label_point, normal_form)
from conesing.errors import PreconditionError
from conesing.quotient import log_fano_quotient, vertex_decomposition
from conesing.records import Record
from conesing.resolution import LatticeCone2, build_graph
from conesing.hilbert import hilbert_series
from conesing.sections import Presentation
from conesing.toric import (ComparisonCheck, ToricDivisor, cone_of_x,
                            fan_projective_space, verify_comparison)


def make_all():
    """One instance of every record class, by name."""
    p0, p1, pinf = finite_point(0), finite_point(1), infinity_point()
    E6 = CurveCouple.of({p0: F(-1, 2), p1: F(1, 3), pinf: F(1, 3)})
    G = build_graph(E6)
    fan = fan_projective_space(2)
    td = ToricDivisor.of([0, 0, 1])
    params = SearchParams(epsilon=F(1, 2), isotropy_bound=3)
    entry = enumerate_catalog(params)[-1]
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
        "Presentation": Presentation(generator_degrees=(2, 3, 6),
                                     relation_degrees=(12,), equations=None,
                                     verified_through=24),
        "Fan": fan,
        "ToricDivisor": td,
        "ConeOfX": cone_of_x(fan, td),
        "ComparisonCheck": ComparisonCheck(v=(1, 2), weil=1, a_base=F(1, 2),
                                           a_cone=F(1, 2)),
        "ComparisonReport": verify_comparison(fan, td, [(1, 1), (-1, 2)]),
        "RncRow": rnc_family_report(3)[2],
        "DiagonalConeRow": diagonal_cone_report(2),
        "SearchParams": params,
        "SearchBounds": search_bounds(params),
        "GraphSummary": entry.graph,
        "CatalogEntry": entry,
        "AuditReport": AuditReport(checked=2, failures=("entry x: bad",)),
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
    'NormalForm': (('couple', 'key', 'moduli'),
        'NormalForm(couple=CurveCouple(divisor=(-1/2)[0] + (1/3)[1] + (1/3)[inf]), key=((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)), Fraction(1, 6)), moduli=False)'),
    'StandardPair': (('boundary',),
        'StandardPair(boundary=(([0], Fraction(1, 2)), ([1], Fraction(2, 3)), ([inf], Fraction(2, 3))))'),
    'VertexData': (('m', 'u', 'H'),
        'VertexData(m=1, u=-1, H=(1)[1] + (-1)[inf])'),
    'LatticeCone2': (('q', 'p'),
        'LatticeCone2(q=5, p=2)'),
    'ResolutionGraph': (('central_self_int', 'chains', 'discrepancies', 'determinant'),
        'ResolutionGraph(central_self_int=-2, chains=((-2,), (-2, -2), (-2, -2)), discrepancies=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), determinant=3)'),
    'BlownDownGraph': (('self_intersections', 'edges', 'surviving'),
        'BlownDownGraph(self_intersections=(-2, -2, -2, -2, -2, -2), edges=((0, 1), (0, 2), (0, 4), (2, 3), (4, 5)), surviving=(0, 1, 2, 3, 4, 5))'),
    'HilbertData': (('period', 'numerator'),
        'HilbertData(period=6, numerator=(1, -1, 0, 1, 0, -1, 1))'),
    'Presentation': (('generator_degrees', 'relation_degrees', 'equations', 'verified_through'),
        'Presentation(generator_degrees=(2, 3, 6), relation_degrees=(12,), equations=None, verified_through=24)'),
    'Fan': (('rank', 'rays', 'max_cones'),
        'Fan(rank=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (0, 2), (1, 2)))'),
    'ToricDivisor': (('coefficients',),
        'ToricDivisor(coefficients=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))'),
    'ConeOfX': (('rank', 'rays', 'qgorenstein_form'),
        'ConeOfX(rank=3, rays=((1, 0, 0), (0, 1, 0), (-1, -1, 1)), qgorenstein_form=(Fraction(1, 1), Fraction(1, 1), Fraction(3, 1)))'),
    'ComparisonCheck': (('v', 'weil', 'a_base', 'a_cone'),
        'ComparisonCheck(v=(1, 2), weil=1, a_base=Fraction(1, 2), a_cone=Fraction(1, 2))'),
    'ComparisonReport': (('checks', 'violations', 'vertex_expected', 'vertex_actual', 'vertex_ok'),
        'ComparisonReport(checks=(ComparisonCheck(v=(1, 0), weil=1, a_base=Fraction(1, 1), a_cone=Fraction(1, 1)), ComparisonCheck(v=(0, 1), weil=1, a_base=Fraction(1, 1), a_cone=Fraction(1, 1)), ComparisonCheck(v=(-1, -1), weil=1, a_base=Fraction(1, 1), a_cone=Fraction(1, 1)), ComparisonCheck(v=(1, 1), weil=1, a_base=Fraction(2, 1), a_cone=Fraction(2, 1)), ComparisonCheck(v=(-1, 2), weil=1, a_base=Fraction(4, 1), a_cone=Fraction(4, 1))), violations=(), vertex_expected=Fraction(3, 1), vertex_actual=Fraction(3, 1), vertex_ok=True)'),
    'RncRow': (('m', 'a_e0', 'cartier_index_kx', 'max_isotropy', 'mld', 'link_determinant'),
        'RncRow(m=3, a_e0=Fraction(2, 3), cartier_index_kx=3, max_isotropy=1, mld=Fraction(2, 3), link_determinant=3)'),
    'DiagonalConeRow': (('d', 'a_e0', 'max_isotropy', 'smooth'),
        'DiagonalConeRow(d=2, a_e0=Fraction(3, 1), max_isotropy=1, smooth=True)'),
    'SearchParams': (('epsilon', 'isotropy_bound'),
        'SearchParams(epsilon=Fraction(1, 2), isotropy_bound=3)'),
    'SearchBounds': (('k_max', 'q_min', 'q_max', 'degree_max', 'k_max_effective'),
        'SearchBounds(k_max=3, q_min=2, q_max=3, degree_max=Fraction(4, 1), k_max_effective=3)'),
    'GraphSummary': (('center', 'chains', 'blown_down_vertices'),
        'GraphSummary(center=-4, chains=(), blown_down_vertices=(-4,))'),
    'CatalogEntry': (('key', 'degree', 'fractional', 'a_e0', 'mld', 'cartier_index_kx', 'max_isotropy', 'link_determinant', 'hilbert_numerator', 'hilbert_period', 'embedding_dimension', 'graph'),
        "CatalogEntry(key='f[];deg=4', degree=Fraction(4, 1), fractional=(), a_e0=Fraction(1, 2), mld=Fraction(1, 2), cartier_index_kx=2, max_isotropy=1, link_determinant=4, hilbert_numerator=(1, 3), hilbert_period=1, embedding_dimension=5, graph=GraphSummary(center=-4, chains=(), blown_down_vertices=(-4,)))"),
    'AuditReport': (('checked', 'failures'),
        "AuditReport(checked=2, failures=('entry x: bad',))"),
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
    assert len(classes) == 24


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_record_contract(name):
    obj = INSTANCES[name]
    fields, expected_repr = EXPECTED[name]
    assert type(obj)._fields == fields
    values = tuple(getattr(obj, f) for f in fields)
    twin = type(obj)(*values)
    assert twin == obj and not (twin != obj)
    assert hash(obj) == hash(twin) == hash(values)
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
    entry = INSTANCES["CatalogEntry"]
    other = CatalogEntry(**{**vars(entry), "mld": entry.mld + 1})
    assert other != entry
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
    entries = enumerate_catalog(SearchParams(epsilon=F(1), isotropy_bound=3))
    for entry in entries:
        back = pickle.loads(pickle.dumps(entry))
        assert back == entry and hash(back) == hash(entry)
        assert repr(back) == repr(entry) and back.to_json() == entry.to_json()
        with pytest.raises(AttributeError):
            back.mld = 0
