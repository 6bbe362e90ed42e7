"""JSON wire formats for operators, weights and step functions; CSV output.

Operator files look like

    {"algebra": {"kind": "matrix", "blocks": [2, 1], "weights": [1.0, 0.5]},
     "blocks": [[a11, a12, a21, a22], [b11]]}

or, for multipliers,

    {"algebra": {"kind": "steps", "bound": 2.0},
     "step": {"breakpoints": [0.0, 2.0], "values": [1.0]}}

Weight files are {"kind": "step", "mu": {...}} or {"kind": "exp"}.  A
counterexample may also name Lebesgue measure, {"kind": "lebesgue"}, or a step
density that is not non-increasing; neither is a weight, so ``parse_weight``
rejects them and ``parse_measure`` reads them.
Step functions always serialize as {"breakpoints": [...], "values": [...]}.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import Algebra, Operator
from .errors import ParseError, ValidationError
from .stepfn import LEBESGUE, DensityMeasure, StepFunction
from .weighted import ExpWeight, StepWeight

__all__ = [
    "load_json",
    "dumps_canonical",
    "step_to_obj",
    "parse_step",
    "operator_to_obj",
    "parse_operator",
    "weight_to_obj",
    "parse_weight",
    "parse_measure",
    "write_step_csv",
]


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def dumps_canonical(obj):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return value


def _float_list(raw, where):
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list of numbers")
    # each type is checked once, not each number
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, raw))):
        raise ParseError(f"{where}: expected a number")
    try:
        return np.array(raw, dtype=float)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ParseError(f"{where}: number out of the float range") from exc


def step_to_obj(f):
    return {
        "breakpoints": [float(x) for x in f.breakpoints],
        "values": [float(v) for v in f.values],
    }


def parse_step(obj, where="step function"):
    bps = _float_list(_require(obj, "breakpoints", list, where), where)
    vals = _float_list(_require(obj, "values", list, where), where)
    return StepFunction(bps, vals)


def _algebra_to_obj(algebra):
    if algebra.is_matrix:
        return {
            "kind": "matrix",
            "blocks": [int(n) for n in algebra.block_sizes],
            "weights": [float(w) for w in algebra.trace_weights],
        }
    return {"kind": "steps", "bound": float(algebra.domain_bound)}


def _parse_algebra(obj, where="algebra"):
    kind = _require(obj, "kind", str, where)
    if kind == "matrix":
        sizes = _require(obj, "blocks", list, where)
        weights = _float_list(_require(obj, "weights", list, where), where)
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in sizes):
            raise ParseError(f"{where}: block sizes must be integers")
        return Algebra.matrix_blocks(sizes, weights)
    if kind == "steps":
        bound = _require(obj, "bound", None, where)
        return Algebra.commutative(_float_list([bound], f"{where}.bound")[0])
    raise ParseError(f"{where}: unknown algebra kind {kind!r}")


def operator_to_obj(op):
    obj = {"algebra": _algebra_to_obj(op.algebra)}
    if op.is_matrix:
        obj["blocks"] = [[float(x) for x in b.ravel()] for b in op.blocks]
    else:
        obj["step"] = step_to_obj(op.step)
    return obj


def parse_operator(obj, where="operator"):
    algebra = _parse_algebra(_require(obj, "algebra", dict, where), f"{where}.algebra")
    if algebra.is_matrix:
        raw = _require(obj, "blocks", list, where)
        if len(raw) != len(algebra.block_sizes):
            raise ValidationError(f"{where}: wrong number of blocks")
        blocks = []
        for k, (flat, n) in enumerate(zip(raw, algebra.block_sizes)):
            entries = _float_list(flat, f"{where}.blocks[{k}]")
            if len(entries) != n * n:
                raise ValidationError(
                    f"{where}.blocks[{k}]: expected {n * n} row-major entries, got {len(entries)}"
                )
            blocks.append(np.asarray(entries).reshape(n, n))
        return Operator(algebra, blocks=blocks)
    step = parse_step(_require(obj, "step", dict, where), f"{where}.step")
    return Operator(algebra, step=step)


def weight_to_obj(w):
    """A measure of any of the three kinds in the weight JSON form."""
    if isinstance(w, DensityMeasure):
        return {"kind": "step", "mu": step_to_obj(w.density)}
    if isinstance(w, ExpWeight):
        return {"kind": "exp"}
    if w is LEBESGUE:
        return {"kind": "lebesgue"}
    raise ValidationError(f"cannot serialize weight {w!r}")


def parse_weight(obj, where="weight"):
    kind = _require(obj, "kind", str, where)
    if kind == "step":
        return StepWeight(parse_step(_require(obj, "mu", dict, where), f"{where}.mu"))
    if kind == "exp":
        return ExpWeight()
    raise ParseError(f"{where}: unknown weight kind {kind!r}")


def parse_measure(obj, where="measure"):
    """A measure of any of the three kinds, as :func:`weight_to_obj` writes
    it: Lebesgue measure, a non-negative step density of finite mass, or the
    exponential weight."""
    kind = _require(obj, "kind", str, where)
    if kind == "lebesgue":
        return LEBESGUE
    if kind == "step":
        return DensityMeasure(parse_step(_require(obj, "mu", dict, where), f"{where}.mu"))
    if kind == "exp":
        return ExpWeight()
    raise ParseError(f"{where}: unknown measure kind {kind!r}")


def write_step_csv(f, stream):
    """Emit the canonical pieces as (t_start, t_end, value) rows."""
    stream.write("t_start,t_end,value\n")
    for a, b, v in f.pieces():
        stream.write(f"{a!r},{b!r},{v!r}\n")
