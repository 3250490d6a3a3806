"""The immutable value classes: frozen, equal and hashed by their fields,
built by position or by keyword."""

import copy
import pickle

import pytest

from hfroots import (
    NumericalSemigroup,
    SpincRun,
    SurgerySpec,
    compute_runs,
    from_newton_pairs,
    module_from_tau,
)
from hfroots.frozen import Frozen

K23 = from_newton_pairs([(2, 3)])
SPEC = SurgerySpec(K23, 7, 5)


def instances():
    """(instance, its constructor's arguments by name) for every value class."""

    def slots(obj):
        return {name: getattr(obj, name) for name in obj.__slots__}

    run = compute_runs(SPEC)[0]
    return [
        (K23.semigroup, slots(K23.semigroup)),
        (K23, slots(K23)),
        (SPEC.cfrac, {"p": 7, "q": 5, "terms": SPEC.cfrac.terms}),
        (SPEC, {"knot": K23, "p": 7, "q": 5}),
        (run, slots(run)),
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


@pytest.mark.parametrize("obj, kwargs", CASES, ids=IDS)
def test_a_missing_extra_or_unknown_field_raises(obj, kwargs):
    cls, values = type(obj), list(kwargs.values())
    *head, last = kwargs
    with pytest.raises(TypeError):
        cls(*values[:-1])  # missing by position
    with pytest.raises(TypeError):
        cls(*values, values[-1])  # extra by position
    with pytest.raises(TypeError):
        cls(**{name: kwargs[name] for name in head})  # missing by name
    with pytest.raises(TypeError):
        cls(**kwargs, not_a_field=1)  # unknown
    with pytest.raises(TypeError):
        cls(*values, **{last: kwargs[last]})  # given twice


def test_fields_are_set_by_position_then_by_name():
    # Frozen.__init__ itself, on a class that keeps it
    gens, gaps = (0, 2, 3), frozenset({1})
    assert (NumericalSemigroup(gens, gaps=gaps) == NumericalSemigroup(gaps=gaps, generators=gens)
            == NumericalSemigroup(gens, gaps) == K23.semigroup)
    for args, named, message in [
        ((gens,), {}, "takes the 2 fields generators, gaps, got 1"),
        ((gens, gaps, 0), {}, "takes the 2 fields generators, gaps, got 3"),
        ((), {"gaps": gaps}, "takes the 2 fields generators, gaps, got 1"),
        ((gens, gaps), {"generators": gens}, "no field 'generators' left to set by name"),
        ((gens,), {"gaps": gaps, "mu": 2}, "no field 'mu' left to set by name"),
    ]:
        with pytest.raises(TypeError, match=message):
            NumericalSemigroup(*args, **named)


def test_unequal_fields_give_unequal_instances():
    assert SurgerySpec(K23, 7, 4) != SPEC
    assert SurgerySpec(from_newton_pairs([(2, 5)]), 7, 5) != SPEC
    assert SurgerySpec(from_newton_pairs([(2, 3)]), 7, 5) == SPEC
    assert len({SPEC, SurgerySpec(K23, 7, 5), SurgerySpec(K23, 7, 4)}) == 2


def test_module_equality_compares_absolute_grades():
    # a module is the pair (tower, towers) of its integer grades with no
    # shift beside them, and a run holds the pair as two of its fields, so
    # equality is the grades'
    assert module_from_tau((0, 2, 1, 3, 0)) == (0, ((0, 3), (2, 1)))
    assert module_from_tau((0, 1, 0)) != module_from_tau((0, 1, 1))
    run = compute_runs(SPEC)[0]
    assert (run.tower, run.towers) == module_from_tau(run.tau) == (0, ((0, 1),))
    fields = {name: getattr(run, name) for name in run.__slots__}
    assert SpincRun(**fields) == run and hash(SpincRun(**fields)) == hash(run)
    assert SpincRun(**{**fields, "tower": 2}) != run
    assert SpincRun(**{**fields, "towers": ((-2, 1),)}) != run
    assert SpincRun(**{**fields, "towers": ((0, 1), (0, 1))}) != run


def test_repr_names_the_fields():
    assert repr(K23.semigroup) == "NumericalSemigroup(generators=(0, 2, 3), gaps=frozenset({1}))"
    assert repr(K23) == "AlgebraicKnot[(2,3)]"
    assert repr(SPEC) == "SurgerySpec(AlgebraicKnot[(2,3)], -7/5)"


def test_every_value_class_is_covered():
    assert {type(obj) for obj, _ in CASES} == set(Frozen.__subclasses__())
