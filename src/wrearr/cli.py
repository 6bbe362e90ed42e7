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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wrearr",
        description="Weighted rearrangements, weighted traces and two-route norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mu = sub.add_parser("mu", help="singular value function as CSV")
    p_mu.add_argument("--input", required=True, help="operator JSON file")
    p_mu.add_argument("--out", help="CSV output path (default: stdout)")

    p_mux = sub.add_parser("mux", help="weighted rearrangement as CSV")
    p_mux.add_argument("--input", required=True, help="operator JSON file")
    p_mux.add_argument("--weight", required=True, help="weight JSON file")
    p_mux.add_argument("--out", help="CSV output path (default: stdout)")

    p_taux = sub.add_parser("taux", help="weighted trace of an operator")
    p_taux.add_argument("--input", required=True, help="operator JSON file")
    p_taux.add_argument("--weight", required=True, help="weight JSON file")

    p_norm = sub.add_parser("norm", help="norm by both routes")
    p_norm.add_argument("--input", required=True, help="operator JSON file")
    p_norm.add_argument("--weight", required=True, help="weight JSON file")
    p_norm.add_argument(
        "--norm",
        required=True,
        help="norm spec: L1, L2, Linf, orlicz:cosh-1, orlicz:llogl, "
        "orlicz:pow:3, orlicz:capped:1.0",
    )

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=100)

    p_gen = sub.add_parser("gen", help="generate a random operator or weight file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="output JSON path")

    return parser


def _emit_csv(step, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            formats.write_step_csv(step, fh)
    else:
        formats.write_step_csv(step, sys.stdout)


def _load_context(args):
    operator = formats.parse_operator(formats.load_json(args.input))
    weight = formats.parse_weight(formats.load_json(args.weight))
    return WeightedContext(operator.algebra, weight), operator


def _cmd_mu(args):
    operator = formats.parse_operator(formats.load_json(args.input))
    _emit_csv(singular_value_function(operator), args.out)
    return EXIT_OK


def _cmd_mux(args):
    ctx, operator = _load_context(args)
    _emit_csv(weighted_rearrangement(ctx, operator), args.out)
    return EXIT_OK


def _cmd_taux(args):
    ctx, operator = _load_context(args)
    print(f"{weighted_trace(ctx, operator):.12g}")
    return EXIT_OK


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


def _cmd_verify(args):
    if args.trials < 0:
        raise ParseError("--trials must be >= 0")
    if args.trials == 0:
        print("0 properties, 0 failing trial(s) (no trials requested)")
        return EXIT_OK
    results = run_suite(args.seed, args.trials)
    print(format_report(results))
    failing = [r for r in results if not r.passed]
    if failing:
        for r in failing:
            dump = {"property": r.name, "worst_residual": r.worst_residual}
            if r.counterexample:
                dump.update(r.counterexample)
            text = json.dumps(_finite_json(dump), sort_keys=True, allow_nan=False)
            print("counterexample " + text, file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


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
        if args.kind == "diag":
            algebra = Algebra.matrix_blocks([size], [float(rng.uniform(0.25, 2.0))])
            operator = generate.random_diagonal_operator(rng, algebra)
        elif args.kind == "isometry":
            algebra = Algebra.matrix_blocks([size], [float(rng.uniform(0.25, 2.0))])
            operator = generate.random_partial_isometry(rng, algebra)
        else:  # block
            algebra = generate.random_block_algebra(rng, size)
            operator = generate.random_operator(rng, algebra)
        obj = formats.operator_to_obj(operator)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(formats.dumps_canonical(obj))
    return EXIT_OK


_COMMANDS = {
    "mu": _cmd_mu,
    "mux": _cmd_mux,
    "taux": _cmd_taux,
    "norm": _cmd_norm,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators need seeds >= 0
            raise ParseError("--seed must be >= 0")
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WrearrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
