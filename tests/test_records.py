"""The contract of the package's eight frozen records.

Equal fields give equal records with equal hashes, a changed field gives an
unequal one, no field can be assigned or deleted, and each repr names its
fields in order, as ``classify_positivity``'s error messages rely on.  The
records that validate their fields support no arithmetic by accident.
"""

import pickle
from fractions import Fraction as F

import pytest

from cfmoments.cfrac import AtomRatios, TwoPeriodicParams
from cfmoments.exactnum import DomainError, QuadField
from cfmoments.hankel import PsdResult, ScanReport
from cfmoments.measures import (
    Atom,
    DiscreteSignedMeasure,
    GeometricAtomFamily,
    PositivityVerdict,
)

FLD = QuadField(5)
HALF = FLD.element(F(1, 2))
THIRD = FLD.element(F(1, 3))
ROOT = FLD.element(0, 1)
ATOM = Atom(FLD.one, HALF)
FAMILY = GeometricAtomFamily(ROOT, HALF, THIRD)

# (record type, constructor keywords, a different value for each field, repr)
CASES = [
    (
        TwoPeriodicParams,
        dict(a=F(7, 2), b=F(3), w=F(1, 2)),
        dict(a=F(5, 2), b=F(4), w=F(1)),
        "TwoPeriodicParams(a=Fraction(7, 2), b=Fraction(3, 1), w=Fraction(1, 2))",
    ),
    (
        AtomRatios,
        dict(location=THIRD, even_weight=HALF, odd_weight=-HALF),
        dict(location=HALF, even_weight=THIRD, odd_weight=HALF),
        "AtomRatios(location=QuadElem(Fraction(1, 3), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "even_weight=QuadElem(Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "odd_weight=QuadElem(Fraction(-1, 2), Fraction(0, 1), sqrt=Fraction(5, 1)))",
    ),
    (
        PsdResult,
        dict(is_psd=False, witness=(F(-2), F(1))),
        dict(is_psd=True, witness=(F(1), F(-2))),
        "PsdResult(is_psd=False, witness=(Fraction(-2, 1), Fraction(1, 1)))",
    ),
    (
        ScanReport,
        dict(
            periods=(F(1),), w=F(0), max_order=1, sequence=(F(0), F(1), F(1, 2)),
            determinants=(F(0), F(-1)), psd=(True, False), first_not_psd=1,
            results=(PsdResult(True), PsdResult(False, (F(1), F(-2)))),
        ),
        dict(
            periods=(F(2),), w=F(1), max_order=2, sequence=(F(0),),
            determinants=(F(1),), psd=(True, True), first_not_psd=None,
            results=(PsdResult(True),),
        ),
        "ScanReport(periods=(Fraction(1, 1),), w=Fraction(0, 1), max_order=1, "
        "sequence=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)), "
        "determinants=(Fraction(0, 1), Fraction(-1, 1)), psd=(True, False), "
        "first_not_psd=1, results=(PsdResult(is_psd=True, witness=None), "
        "PsdResult(is_psd=False, witness=(Fraction(1, 1), Fraction(-2, 1)))))",
    ),
    (
        Atom,
        dict(location=FLD.one, weight=HALF),
        dict(location=THIRD, weight=ROOT),
        "Atom(location=QuadElem(Fraction(1, 1), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "weight=QuadElem(Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1)))",
    ),
    (
        GeometricAtomFamily,
        dict(scale=ROOT, weight_ratio=HALF, location_ratio=THIRD, location_sign=1),
        dict(scale=HALF, weight_ratio=THIRD, location_ratio=HALF, location_sign=-1),
        "GeometricAtomFamily(scale=QuadElem(Fraction(0, 1), Fraction(1, 1), sqrt=Fraction(5, 1)), "
        "weight_ratio=QuadElem(Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "location_ratio=QuadElem(Fraction(1, 3), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "location_sign=1)",
    ),
    (
        DiscreteSignedMeasure,
        dict(field=FLD, head_atoms=(ATOM,), families=(FAMILY,), bounded_support=True),
        # no other field: the atoms pin its radicand
        dict(head_atoms=(), families=(), bounded_support=False),
        "DiscreteSignedMeasure(field=QuadField(5), head_atoms=(Atom("
        "location=QuadElem(Fraction(1, 1), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "weight=QuadElem(Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1))),), "
        "families=(GeometricAtomFamily(scale=QuadElem(Fraction(0, 1), Fraction(1, 1), "
        "sqrt=Fraction(5, 1)), weight_ratio=QuadElem(Fraction(1, 2), Fraction(0, 1), "
        "sqrt=Fraction(5, 1)), location_ratio=QuadElem(Fraction(1, 3), Fraction(0, 1), "
        "sqrt=Fraction(5, 1)), location_sign=1),), bounded_support=True)",
    ),
    (
        PositivityVerdict,
        dict(
            is_positive=True, even_ratio_nonneg=True, a_ge_b=False,
            w_above_even_threshold=True, w_above_order_threshold=False,
            even_ratio=HALF, odd_ratio=THIRD,
        ),
        dict(
            is_positive=False, even_ratio_nonneg=False, a_ge_b=True,
            w_above_even_threshold=False, w_above_order_threshold=True,
            even_ratio=THIRD, odd_ratio=HALF,
        ),
        "PositivityVerdict(is_positive=True, even_ratio_nonneg=True, a_ge_b=False, "
        "w_above_even_threshold=True, w_above_order_threshold=False, "
        "even_ratio=QuadElem(Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "odd_ratio=QuadElem(Fraction(1, 3), Fraction(0, 1), sqrt=Fraction(5, 1)))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, changes, _", CASES, ids=IDS)
def test_records_compare_and_hash_by_field(cls, fields, changes, _):
    record, twin = cls(**fields), cls(**fields)
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    for name, value in changes.items():
        other = cls(**{**fields, name: value})
        assert record != other and not record == other, name


@pytest.mark.parametrize("cls, fields, _, __", CASES, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(cls, fields, _, __):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, _, text", CASES, ids=IDS)
def test_record_repr_names_each_field_in_order(cls, fields, _, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, _, __", CASES, ids=IDS)
def test_records_survive_a_pickle_round_trip(cls, fields, _, __):
    record = cls(**fields)
    assert pickle.loads(pickle.dumps(record)) == record


def test_validated_records_support_no_arithmetic():
    params = TwoPeriodicParams(1, 2, F(1, 2))
    measure = DiscreteSignedMeasure(FLD, (ATOM,), (FAMILY,))
    for record in (params, measure):
        with pytest.raises(TypeError):
            record * 2
        with pytest.raises(TypeError):
            2 * record
    with pytest.raises(TypeError):
        params + params
    with pytest.raises(TypeError):
        measure + 1  # __add__ declines anything but a measure


def test_adding_measures_over_different_radicands_raises():
    measure = DiscreteSignedMeasure(FLD, (ATOM,))
    other = DiscreteSignedMeasure(QuadField(7), (Atom(QuadField(7).one, QuadField(7).one),))
    with pytest.raises(DomainError, match="cannot add measures over different fields"):
        measure + other


def test_reflected_and_scaled_measures_keep_their_fields():
    flipped = GeometricAtomFamily(ROOT, HALF, THIRD, -1)
    measure = DiscreteSignedMeasure(FLD, (ATOM,), (FAMILY, flipped))
    assert repr(measure.reflected()) == (
        "DiscreteSignedMeasure(field=QuadField(5), head_atoms=(Atom("
        "location=QuadElem(Fraction(-1, 1), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "weight=QuadElem(Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1))),), "
        "families=(GeometricAtomFamily(scale=QuadElem(Fraction(0, 1), Fraction(1, 1), "
        "sqrt=Fraction(5, 1)), weight_ratio=QuadElem(Fraction(1, 2), Fraction(0, 1), "
        "sqrt=Fraction(5, 1)), location_ratio=QuadElem(Fraction(1, 3), Fraction(0, 1), "
        "sqrt=Fraction(5, 1)), location_sign=-1), GeometricAtomFamily(scale=QuadElem("
        "Fraction(0, 1), Fraction(1, 1), sqrt=Fraction(5, 1)), weight_ratio=QuadElem("
        "Fraction(1, 2), Fraction(0, 1), sqrt=Fraction(5, 1)), location_ratio=QuadElem("
        "Fraction(1, 3), Fraction(0, 1), sqrt=Fraction(5, 1)), location_sign=1)), "
        "bounded_support=True)"
    )
    assert measure.reflected().reflected() == measure
    scaled = DiscreteSignedMeasure(FLD, (ATOM,), (FAMILY,), False).scaled(F(-2))
    assert scaled == DiscreteSignedMeasure(
        FLD, (Atom(FLD.one, -FLD.one),), (GeometricAtomFamily(-2 * ROOT, HALF, THIRD),), False
    )
    assert repr(scaled) == (
        "DiscreteSignedMeasure(field=QuadField(5), head_atoms=(Atom("
        "location=QuadElem(Fraction(1, 1), Fraction(0, 1), sqrt=Fraction(5, 1)), "
        "weight=QuadElem(Fraction(-1, 1), Fraction(0, 1), sqrt=Fraction(5, 1))),), "
        "families=(GeometricAtomFamily(scale=QuadElem(Fraction(0, 1), Fraction(-2, 1), "
        "sqrt=Fraction(5, 1)), weight_ratio=QuadElem(Fraction(1, 2), Fraction(0, 1), "
        "sqrt=Fraction(5, 1)), location_ratio=QuadElem(Fraction(1, 3), Fraction(0, 1), "
        "sqrt=Fraction(5, 1)), location_sign=1),), bounded_support=False)"
    )
