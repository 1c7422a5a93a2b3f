"""The frozen record base of the model classes: fields, construction,
immutability, equality, hash and repr, as ``@dataclass(frozen=True)`` gave them."""

import math

import numpy as np
import pytest

from rheokit._graph import _Graph
from rheokit.convex_core import SampledFunction, SubdiffInterval
from rheokit.errors import InvalidInputError
from rheokit.maxwell0d import DriveProgram, MaxwellModel, TimeSeries
from rheokit.potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    _Polyline,
)
from rheokit.rheology import Leaf, Parallel, Serial, ThreeElementParams

_GRID = np.linspace(0.0, 2.0, 5)
_PIECES = ((0.0, 0.0, 1.0, 2.0),)
_KIDS = [Leaf(Dashpot(1.0)), Leaf(PowerLaw(1.0, 3.0))]

# class, constructor arguments, field names in order, arguments that fail
# validation (None: the class validates nothing)
RECORDS = [
    (SubdiffInterval, (0.0, 1.0), ("lo", "hi"), (1.0, 0.0)),
    (SampledFunction, (_GRID, _GRID**2, 5), ("grid", "values", "finite_sup"),
     (_GRID, -(_GRID**2), 5)),
    (_Graph, (_PIECES,), ("pieces",), None),
    (MaxwellModel, (1.0, (Dashpot(1.0),)), ("E", "elements"), (0.0, (Dashpot(1.0),))),
    (DriveProgram, (((1.0, 0.5),),), ("segments",), (((1.0, math.nan),),)),
    (TimeSeries, ([0.0, 1.0], [1.0, 1.0], [0.0, 0.5], [0.0, 0.5]), ("columns",),
     ([1.0, 0.0], [1.0, 1.0], [0.0, 0.5], [0.0, 0.5])),
    (_Polyline, (_Graph(_PIECES),), ("_graph",), None),
    (Dashpot, (2.0,), ("D",), (-2.0,)),
    (PerfectPlastic, (0.5,), ("sigma_a",), (0.0,)),
    (PowerLaw, (1.0, 3.0), ("D", "n"), (1.0, -3.0)),
    (Huber, (1.0, 2.0), ("sigma_a", "D"), (1.0, math.inf)),
    (QuadPlusBall, (0.5, 1.0), ("Dinv_quad", "sigma_a"), (-0.5, 1.0)),
    (Sampled, (SampledFunction.from_samples(_GRID, _GRID**2),), ("f",), ("x",)),
    (Leaf, (Dashpot(1.0),), ("p",), ("dashpot",)),
    (Parallel, (_KIDS,), ("children",), ([],)),
    (Serial, (_KIDS,), ("children",), ([Leaf(PerfectPlastic(1.0))],)),
    (ThreeElementParams, (1.0, 2.0, 3.0), ("sigma_a", "D2", "D3"), (1.0, 0.0, 3.0)),
]
IDENTITY_EQ = {SampledFunction, TimeSeries}


@pytest.mark.parametrize("cls, args, names, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_their_dataclass_behaviour(cls, args, names, bad):
    assert cls._fields == names
    a, b = cls(*args), cls(*args)
    if "__init__" not in vars(cls):  # the generic one takes keywords too
        assert repr(cls(**dict(zip(names, args)))) == repr(a)
    if cls in IDENTITY_EQ:
        assert a == a and a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in names))
        assert a.__eq__(object()) is NotImplemented
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
    assert repr(a) == f"{cls.__qualname__}({fields})"
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, 1.0)
    if bad is not None:
        with pytest.raises(InvalidInputError):
            cls(*bad)


def test_record_equality_is_for_the_same_class_only():
    assert Parallel(_KIDS) != Serial(_KIDS)
    assert Dashpot(1.0) != Dashpot(2.0) and Huber(1.0, 2.0) != Huber(2.0, 1.0)
    assert repr(Huber(1.0, 2.0)) == "Huber(sigma_a=1.0, D=2.0)"
    assert repr(Leaf(Dashpot(2.0))) == "Leaf(p=Dashpot(D=2.0))"
    with pytest.raises(TypeError):
        Huber(1.0, sigma_a=1.0)  # a field given twice
    with pytest.raises(TypeError):
        Huber(1.0, C=1.0)  # an unknown field
