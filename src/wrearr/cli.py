"""Command-line front end.

Commands
--------
mu      singular value function of an operator, as CSV
mux     weighted rearrangement of an operator, as CSV
taux    weighted trace of an operator
norm    a norm computed by both routes, with their difference
verify  run the randomized property suite
gen     write deterministic random operator/weight files

Exit codes: 0 success, 1 property failure, 2 parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import formats, generate
from .algebra import MAX_BLOCK_SIZE, Algebra, singular_value_function
from .errors import ParseError, WrearrError
from .norms import NormSpec, norm_route_a, norm_route_b
from .verify import format_report, run_suite
from .weighted import WeightedContext, weighted_rearrangement, weighted_trace

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

GEN_KINDS = ("block", "diag", "isometry", "weight")
MAX_WEIGHT_STEPS = 8


# the flags several commands share, each declared once
_SHARED_FLAGS = {
    "input": {"required": True, "help": "operator JSON file"},
    "weight": {"required": True, "help": "weight JSON file"},
    "out": {"help": "CSV output path (default: stdout)"},
}
_TABLE = []  # (name, help, [(flag, argparse keywords)], handler), one row per subcommand


def _command(name, help_text, *shared, **own):
    """Register the decorated handler as subcommand ``name``: the ``shared``
    flags first, then its ``own``, each as ``--<flag>``."""
    def register(run):
        _TABLE.append((name, help_text, [(f, _SHARED_FLAGS[f]) for f in shared] + list(own.items()), run))
        return run
    return register


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wrearr",
        description="Weighted rearrangements, weighted traces and two-route norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, run in _TABLE:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag, keywords in flags:
            p.add_argument("--" + flag, **keywords)
    return parser


def _emit_csv(step, out_path):
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        formats.write_step_csv(step, fh)


def _load_context(args):
    operator = formats.parse_operator(formats.load_json(args.input))
    weight = formats.parse_weight(formats.load_json(args.weight))
    return WeightedContext(operator.algebra, weight), operator


@_command("mu", "singular value function as CSV", "input", "out")
def _cmd_mu(args):
    operator = formats.parse_operator(formats.load_json(args.input))
    _emit_csv(singular_value_function(operator), args.out)
    return EXIT_OK


@_command("mux", "weighted rearrangement as CSV", "input", "weight", "out")
def _cmd_mux(args):
    ctx, operator = _load_context(args)
    _emit_csv(weighted_rearrangement(ctx, operator), args.out)
    return EXIT_OK


@_command("taux", "weighted trace of an operator", "input", "weight")
def _cmd_taux(args):
    ctx, operator = _load_context(args)
    print(f"{weighted_trace(ctx, operator):.12g}")
    return EXIT_OK


@_command("norm", "norm by both routes", "input", "weight", norm={
    "required": True,
    "help": "norm spec: L1, L2, Linf, orlicz:cosh-1, orlicz:llogl, orlicz:pow:3, orlicz:capped:1.0",
})
def _cmd_norm(args):
    spec = NormSpec.parse(args.norm)
    ctx, operator = _load_context(args)
    value_a = norm_route_a(ctx, spec, operator)
    value_b = norm_route_b(ctx, spec, operator)
    print(f"route_A {value_a:.12g}")
    print(f"route_B {value_b:.12g}")
    print(f"difference {abs(value_a - value_b):.12g}")
    return EXIT_OK


def _finite_json(obj):
    """``obj`` with each non-finite float as the string "inf", "-inf" or "nan",
    so that strict JSON parsers read it."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_json(v) for v in obj]
    return obj


@_command("verify", "run the property suite",
          seed={"type": int, "default": 42}, trials={"type": int, "default": 100})
def _cmd_verify(args):
    if args.trials < 0:
        raise ParseError("--trials must be >= 0")
    if args.trials == 0:
        print("0 properties, 0 failing trial(s) (no trials requested)")
        return EXIT_OK
    results = run_suite(args.seed, args.trials)
    print(format_report(results))
    failing = [r for r in results if not r.passed]
    for r in failing:
        dump = {"property": r.name, "worst_residual": r.worst_residual}
        if r.counterexample:
            dump.update(r.counterexample)
        text = json.dumps(_finite_json(dump), sort_keys=True, allow_nan=False)
        print("counterexample " + text, file=sys.stderr)
    return EXIT_PROPERTY_FAILURE if failing else EXIT_OK


@_command(
    "gen", "generate a random operator or weight file",
    seed={"type": int, "default": 0}, kind={"required": True, "choices": GEN_KINDS},
    size={"type": int, "required": True}, out={"required": True, "help": "output JSON path"},
)
def _cmd_gen(args):
    size = args.size
    rng = generate.rng_from_seed(args.seed)
    if args.kind == "weight":
        if not 1 <= size <= MAX_WEIGHT_STEPS:
            raise ParseError(f"weight size must be in 1..{MAX_WEIGHT_STEPS}")
        obj = formats.weight_to_obj(generate.random_step_weight(rng, max_pieces=size))
    else:
        if not 1 <= size <= MAX_BLOCK_SIZE:
            raise ParseError(f"size must be in 1..{MAX_BLOCK_SIZE}")
        if args.kind == "block":
            operator = generate.random_operator(rng, generate.random_block_algebra(rng, size))
        else:  # one block: a diagonal operator or a partial isometry
            draw = generate.random_diagonal_operator if args.kind == "diag" else generate.random_partial_isometry
            operator = draw(rng, Algebra.matrix_blocks([size], [float(rng.uniform(0.25, 2.0))]))
        obj = formats.operator_to_obj(operator)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(formats.dumps_canonical(obj))
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators need seeds >= 0
            raise ParseError("--seed must be >= 0")
        return args.run(args)
    except WrearrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_VALIDATION


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
