"""JSON model documents: parsing with field-precise errors, and dumping.

Model document::

    {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}}
    {"node": "serial"|"parallel", "children": [ ...model documents... ]}

Simulation document::

    {"E": 1.0,
     "elements": [ ...potential objects... ],
     "drive": [{"t_end": 1.0, "eps": 0.5}, ...],
     "e_el0": 0.0}            # optional initial elastic strain

Potential kinds: ``dashpot {D}``, ``plastic {sigma_a}``,
``powerlaw {D, n}``, ``huber {sigma_a, D}``.  A number is a JSON number
(not a boolean or a string) that converts to a finite float, so an integer
past the float range is refused; moduli, ``E`` and ``t_end`` must also be
> 0, while ``eps`` and ``e_el0`` may take any sign.  The rule is the
library's (``potentials._number``).  Validation errors carry the JSON path
of the offending field.
"""

from __future__ import annotations

from . import potentials
from .errors import InvalidInputError, SchemaError
from .potentials import Potential
from .rheology import Leaf, Parallel, RheoExpr, Serial

__all__ = [
    "parse_model",
    "parse_potential",
    "parse_simulation",
    "dump_model",
    "dump_potential",
    "dump_simulation",
]


def _subclasses(cls):
    return [d for c in cls.__subclasses__() for d in (c, *_subclasses(c))]


_KINDS = {c.kind: c for c in _subclasses(Potential) if c.kind is not None}


def _at(path, key):
    """JSON path of ``key`` inside the object at ``path``."""
    return f"{path}.{key}" if path else key


def _expect_object(doc, path):
    if not isinstance(doc, dict):
        raise SchemaError(path or "<root>", f"expected an object, got {type(doc).__name__}")
    return doc


def _number(doc, key, path, rule="positive"):
    """The float at ``doc[key]`` under :func:`potentials._number`'s ``rule``; else a
    :class:`SchemaError` at its path."""
    where = _at(path, key)
    if key not in doc:
        raise SchemaError(where, "missing required field")
    try:
        return potentials._number(doc[key], key, rule)
    except InvalidInputError as exc:
        raise SchemaError(where, str(exc).removeprefix(f"{key} ")) from None


def parse_potential(doc, path: str = "potential") -> Potential:
    doc = _expect_object(doc, path)
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SchemaError(
            f"{path}.kind",
            f"must be one of {sorted(_KINDS)}, got {kind!r}",
        )
    names = _KINDS[kind]._fields
    extra = set(doc) - {"kind", *names}
    if extra:
        raise SchemaError(f"{path}.{sorted(extra)[0]}", f"unknown field for kind {kind!r}")
    return _KINDS[kind](**{f: _number(doc, f, path) for f in names})


def parse_model(doc, path: str = "") -> RheoExpr:
    doc = _expect_object(doc, path)
    node = doc.get("node")
    if node not in ("leaf", "parallel", "serial"):
        raise SchemaError(_at(path, "node"),
                          f"must be 'leaf', 'parallel' or 'serial', got {node!r}")
    extra = set(doc) - {"node", "potential", "children"}
    if extra:
        raise SchemaError(_at(path, sorted(extra)[0]), "unknown field")
    if node == "leaf":
        if "children" in doc:
            raise SchemaError(_at(path, "children"), "leaf takes no children")
        if "potential" not in doc:
            raise SchemaError(_at(path, "potential"), "missing required field")
        return Leaf(parse_potential(doc["potential"], _at(path, "potential")))
    if "potential" in doc:
        raise SchemaError(_at(path, "potential"), f"{node} node takes no potential")
    children = doc.get("children")
    kids_path = _at(path, "children")
    if not isinstance(children, list) or not children:
        raise SchemaError(kids_path, "must be a nonempty array")
    kids = [parse_model(c, f"{kids_path}[{i}]") for i, c in enumerate(children)]
    try:
        return Parallel(kids) if node == "parallel" else Serial(kids)
    except Exception as exc:
        raise SchemaError(path or "<root>", str(exc)) from exc


def dump_potential(p: Potential) -> dict:
    if getattr(p, "kind", None) is None:
        raise SchemaError("potential", f"{type(p).__name__} is not representable in a document")
    return {"kind": p.kind, **{f: getattr(p, f) for f in p._fields}}


def dump_model(e: RheoExpr) -> dict:
    if isinstance(e, Leaf):
        return {"node": "leaf", "potential": dump_potential(e.p)}
    node = "parallel" if isinstance(e, Parallel) else "serial"
    return {"node": node, "children": [dump_model(c) for c in e.children]}


def parse_simulation(doc):
    """Parse a simulation document into (model, drive, initial elastic strain)."""
    from .maxwell0d import DriveProgram, MaxwellModel  # loaded by simulation documents only

    doc = _expect_object(doc, "")
    extra = set(doc) - {"E", "elements", "drive", "e_el0"}
    if extra:
        raise SchemaError(sorted(extra)[0], "unknown field")
    e_mod = _number(doc, "E", "")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise SchemaError("elements", "must be a nonempty array")
    pots = [parse_potential(p, f"elements[{i}]") for i, p in enumerate(elements)]
    drive = doc.get("drive")
    if not isinstance(drive, list) or not drive:
        raise SchemaError("drive", "must be a nonempty array")
    segments = []
    for i, seg in enumerate(drive):
        seg = _expect_object(seg, f"drive[{i}]")
        extra = set(seg) - {"t_end", "eps"}
        if extra:
            raise SchemaError(f"drive[{i}].{sorted(extra)[0]}", "unknown field")
        at = f"drive[{i}]"
        segments.append((_number(seg, "t_end", at), _number(seg, "eps", at, None)))
    e_el0 = _number(doc, "e_el0", "", None) if "e_el0" in doc else 0.0
    try:
        model = MaxwellModel(e_mod, pots)
        program = DriveProgram(segments)
    except Exception as exc:
        raise SchemaError("", str(exc)) from exc
    return model, program, e_el0


def dump_simulation(model: MaxwellModel, drive: DriveProgram, e_el0: float = 0.0) -> dict:
    return {
        "E": model.E,
        "elements": [dump_potential(p) for p in model.elements],
        "drive": [{"t_end": t, "eps": r} for t, r in drive.segments],
        "e_el0": e_el0,
    }
