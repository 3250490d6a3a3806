"""The immutable value classes: frozen, equal and hashed by their fields,
built by position or by keyword."""

import copy
import pickle
from fractions import Fraction

import pytest

from hfroots import (
    SurgerySpec,
    UModuleDecomposition,
    compute_runs,
    compute_spinc,
    from_newton_pairs,
)
from hfroots.frozen import Frozen

K23 = from_newton_pairs([(2, 3)])
SPEC = SurgerySpec(K23, 7, 5)


def instances():
    """(instance, its constructor's arguments by name) for every value class."""

    def slots(obj):
        return {name: getattr(obj, name) for name in obj.__slots__}

    res = compute_spinc(SPEC, 1)
    run = compute_runs(SPEC)[0]
    return [
        (K23.semigroup, slots(K23.semigroup)),
        (K23, slots(K23)),
        (SPEC.cfrac, {"p": 7, "q": 5, "terms": SPEC.cfrac.terms}),
        (SPEC, {"knot": K23, "p": 7, "q": 5}),
        (res, slots(res)),
        (run, slots(run)),
        (res.module, slots(res.module)),
    ]


CASES = instances()
IDS = [type(obj).__name__ for obj, _ in CASES]


@pytest.mark.parametrize("obj, kwargs", CASES, ids=IDS)
def test_assigning_a_field_raises(obj, kwargs):
    for name in type(obj).__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("obj, kwargs", CASES, ids=IDS)
def test_keyword_and_positional_construction_give_equal_instances(obj, kwargs):
    by_keyword = type(obj)(**kwargs)
    by_position = type(obj)(*kwargs.values())
    for other in (by_keyword, by_position):
        assert other is not obj
        assert other == obj
        assert hash(other) == hash(obj)
    assert obj != object()


@pytest.mark.parametrize("obj, kwargs", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_fields(obj, kwargs):
    # the classes are sent to worker processes; a plain slots class with its own
    # __setattr__ would fail to unpickle
    for restored in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(restored) is type(obj)
        assert pickle.dumps(restored) == pickle.dumps(obj)
        with pytest.raises(AttributeError):
            setattr(restored, type(obj).__slots__[0], None)


def test_unequal_fields_give_unequal_instances():
    assert SurgerySpec(K23, 7, 4) != SPEC
    assert SurgerySpec(from_newton_pairs([(2, 5)]), 7, 5) != SPEC
    assert SurgerySpec(from_newton_pairs([(2, 3)]), 7, 5) == SPEC
    assert len({SPEC, SurgerySpec(K23, 7, 5), SurgerySpec(K23, 7, 4)}) == 2


def test_module_equality_compares_absolute_grades():
    # the towers are stored relative to the shift; equality reads them absolutely
    assert UModuleDecomposition(0, 2, ((0, 1),)) == UModuleDecomposition(2, 0, ((-2, 1),))
    assert hash(UModuleDecomposition(0, 2, ())) == hash(UModuleDecomposition(Fraction(2), 0, ()))
    assert UModuleDecomposition(0, 2, ()) != UModuleDecomposition(0, 4, ())


def test_repr_names_the_fields():
    assert repr(K23.semigroup) == "NumericalSemigroup(generators=(0, 2, 3), gaps=frozenset({1}))"
    assert repr(K23) == "AlgebraicKnot[(2,3)]"
    assert repr(SPEC) == "SurgerySpec(AlgebraicKnot[(2,3)], -7/5)"


def test_every_value_class_is_covered():
    assert {type(obj) for obj, _ in CASES} == set(Frozen.__subclasses__())
