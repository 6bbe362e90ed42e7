import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wrearr
from wrearr import (
    LEBESGUE,
    Algebra,
    DensityMeasure,
    ExpWeight,
    Operator,
    ParseError,
    StepFunction,
    StepWeight,
    ValidationError,
    WeightedContext,
    eig,
    formats,
)
from wrearr.algebra import MAX_BLOCK_SIZE
from wrearr.cli import main
from wrearr.generate import random_operator
from wrearr.verify import (
    PROPERTY_NAMES,
    PropertyResult,
    _diag_shrink_candidates,
    _shrink,
    format_report,
    run_property,
    run_suite,
)
import wrearr.verify as verify_mod


def test_property_names_are_unique_and_known():
    assert len(PROPERTY_NAMES) == len(set(PROPERTY_NAMES))
    assert "oracle-matches-weighted-rearrangement" in PROPERTY_NAMES


def test_unknown_property_rejected():
    with pytest.raises(ValidationError):
        run_property("no-such-property", 1, 1)


def test_results_are_deterministic_per_seed():
    a = run_property("weighted-trace-homogeneous", 7, 5)
    b = run_property("weighted-trace-homogeneous", 7, 5)
    assert a.worst_residual == b.worst_residual
    c = run_property("weighted-trace-homogeneous", 8, 5)
    assert c.worst_residual != a.worst_residual


def test_level_sets_replay_passes():
    # failed, 1.15e-10 against a 1e-10 tolerance, when the projections came from
    # a separate symmetric eigensolver that stopped at an absolute threshold
    assert run_property("functional-calculus-preserves-level-sets", 1884188051, 5).failures == 0


def test_environment_cannot_loosen_a_cross_route_row(monkeypatch):
    # a variable of this name once replaced the cross-route tolerance, so a 1%
    # error in the rearrangement's integral passed every trial
    monkeypatch.setenv("WREARR_TOLERANCE", "1")
    original = verify_mod.integrate
    monkeypatch.setattr(verify_mod, "integrate", lambda f, m: 1.01 * original(f, m))
    result = run_property("rearrangement-integral-equals-weighted-trace", 987654321, 50)
    assert result.tolerance == 1e-10
    assert result.failures == 50


def test_shrinker_reduces_diagonal_instance():
    alg = Algebra.matrix_blocks([1] * 5, [1.0] * 5)
    ctx = WeightedContext(alg, StepWeight(StepFunction([0, 1, 2, 3], [3.0, 2.0, 1.0])))
    inst = (ctx, Operator.from_diagonal(alg, [5.0, 4.0, 3.0, 2.0, 1.0]))

    def fails(candidate):
        # pretend the property fails whenever the largest entry 5 is present
        _, op = candidate
        return 5.0 in op.diagonal_entries()

    small = _shrink(inst, fails, _diag_shrink_candidates)
    assert small[1].diagonal_entries().size == 1
    assert small[1].diagonal_entries()[0] == 5.0
    assert small[0].weight.density.piece_count == 1


def test_shrinker_lets_a_non_library_error_through():
    # a residual that raises anything but a WrearrError is a bug in the
    # property, never a candidate that passes it
    alg = Algebra.matrix_blocks([1] * 3, [1.0] * 3)
    ctx = WeightedContext(alg, StepWeight(StepFunction([0, 1, 2], [2.0, 1.0])))
    inst = (ctx, Operator.from_diagonal(alg, [3.0, 2.0, 1.0]))

    def fails(candidate):
        raise TypeError("a bug in the residual")

    with pytest.raises(TypeError, match="a bug in the residual"):
        _shrink(inst, fails, _diag_shrink_candidates)


def test_reference_checks_hold_on_tiny_operators():
    # the references cut off relative to ||a|| or test for exact zero; an
    # absolute 1e-9 rank cut-off expected rank 0 here and gave residual 5
    rng = np.random.default_rng(0)
    alg = Algebra.matrix_blocks([4, 2], [1.0, 0.5])
    ctx = WeightedContext(alg, StepWeight(StepFunction([0.0, 1.0, 3.0], [2.0, 0.5])))
    a = 2.0**-40 * random_operator(rng, alg)
    b = 2.0**-40 * random_operator(rng, alg)
    assert verify_mod._support_projection_trace((ctx, a)) == pytest.approx(0.0, abs=1e-12)
    assert verify_mod._trace_faithful((ctx, a)) == 0.0
    assert verify_mod._norm_axioms((ctx, a, b, 1.5)) == pytest.approx(0.0, abs=1e-12)


def test_trace_faithful_holds_on_the_zero_operator():
    alg = Algebra.matrix_blocks([2], [1.0])
    ctx = WeightedContext(alg, ExpWeight())
    assert verify_mod._trace_faithful((ctx, Operator.zero(alg))) == 0.0


@pytest.mark.parametrize(
    "lhs, rhs, gap",
    [(float("inf"), float("inf"), 0.0), (float("inf"), 1.0, float("inf")), (1.0, float("inf"), float("inf"))],
    ids=["both-infinite", "route-a-infinite", "route-b-infinite"],
)
def test_route_gap_of_infinite_routes(monkeypatch, lhs, rhs, gap):
    monkeypatch.setattr(verify_mod, "norm_route_a", lambda ctx, spec, a: lhs)
    monkeypatch.setattr(verify_mod, "norm_route_b", lambda ctx, spec, a: rhs)
    assert verify_mod._route_gap(None, None, None) == gap


def test_cli_verify_reports_failure_with_counterexample(monkeypatch, capsys):
    first = verify_mod._REGISTRY[0]
    broken = dataclasses.replace(first, residual=lambda inst: 1.0)
    monkeypatch.setattr(verify_mod, "_REGISTRY", [broken] + verify_mod._REGISTRY[1:])
    name = first.name
    code = main(["verify", "--seed", "1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    dump_line = [l for l in captured.err.splitlines() if l.startswith("counterexample ")]
    assert dump_line
    payload = json.loads(dump_line[0][len("counterexample ") :])
    assert payload["property"] == name
    assert payload["worst_residual"] == 1.0


@pytest.mark.parametrize("index", range(len(PROPERTY_NAMES)), ids=PROPERTY_NAMES)
def test_every_row_writes_a_counterexample_naming_each_field(monkeypatch, index):
    row = verify_mod._REGISTRY[index]
    broken = dataclasses.replace(row, residual=lambda inst: 1.0)
    registry = list(verify_mod._REGISTRY)
    registry[index] = broken
    monkeypatch.setattr(verify_mod, "_REGISTRY", registry)
    result = run_property(row.name, 1, 1)
    assert result.failures == 1
    payload = json.loads(json.dumps(result.counterexample))
    assert payload == result.counterexample
    assert payload["detail"]["residual"] == 1.0
    instance = row.make(np.random.default_rng([1, index]))
    assert len(row.describe) == len(instance)
    keys = [k for k in payload if k != "detail"] + [k for k in payload["detail"] if k != "residual"]
    assert sorted(keys) == sorted(row.describe)


@pytest.mark.parametrize(
    "measure,expected",
    [
        (LEBESGUE, {"kind": "lebesgue"}),
        (ExpWeight(), {"kind": "exp"}),
        (DensityMeasure(StepFunction([0, 1, 2], [3.0, 1.0])),
         {"kind": "step", "mu": {"breakpoints": [0.0, 1.0, 2.0], "values": [3.0, 1.0]}}),
    ],
    ids=["lebesgue", "exp", "step"],
)
def test_step_counterexample_renders_each_measure_kind_as_weight_json(measure, expected):
    row = next(r for r in verify_mod._REGISTRY if r.name == "step-distribution-shape")
    f = StepFunction([0, 1], [2.0])
    payload = json.loads(json.dumps(verify_mod._counterexample(row, (f, measure), 1.0)))
    assert payload["detail"]["measure"] == expected == formats.weight_to_obj(measure)
    if expected["kind"] == "lebesgue":
        with pytest.raises(ParseError):
            formats.parse_weight(expected)
    else:
        assert formats.weight_to_obj(formats.parse_weight(expected)) == expected


def test_cli_verify_failure_path_writes_replayable_counterexamples(monkeypatch, capsys):
    # the cross-route rows, and the routes' step comparison, tightened past
    # float resolution: the full report, then exit 1, and on stderr one strict
    # JSON counterexample line per FAIL row, naming that row's property; its
    # top-level weight and operators, and any measure in its detail, parse back
    # to the same objects, so a counterexample can be replayed as input files
    tight = 1e-16
    registry = [
        dataclasses.replace(row, tolerance=tight)
        if row.tolerance == verify_mod.CROSS_ROUTE_TOLERANCE else row
        for row in verify_mod._REGISTRY
    ]
    assert sum(row.tolerance == tight for row in registry) == 16
    monkeypatch.setattr(verify_mod, "_REGISTRY", registry)
    monkeypatch.setattr(verify_mod, "CROSS_ROUTE_TOLERANCE", tight)
    code = main(["verify", "--seed", "42", "--trials", "3"])
    captured = capsys.readouterr()
    assert code == 1

    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    failed = [line.split()[1] for line in captured.out.splitlines() if line.startswith("FAIL ")]
    found = [
        json.loads(line[len("counterexample ") :], parse_constant=reject)
        for line in captured.err.splitlines()
        if line.startswith("counterexample ")
    ]
    assert failed and sorted(obj["property"] for obj in found) == sorted(failed)
    trips = 0
    for obj in found:
        if "weight" in obj:
            assert formats.weight_to_obj(formats.parse_weight(obj["weight"])) == obj["weight"]
            trips += 1
        for value in obj.values():
            if isinstance(value, dict) and "algebra" in value:
                assert formats.operator_to_obj(formats.parse_operator(value)) == value
                trips += 1
        if "measure" in obj["detail"]:
            measure = obj["detail"]["measure"]
            assert formats.weight_to_obj(formats.parse_measure(measure)) == measure
            trips += 1
    assert trips >= len(found)


ROUTE_ROWS = ("oracle-matches-weighted-rearrangement", "weighted-rearrangement-shape")


def _plant_scaled_inverse(monkeypatch, factor):
    """Break the inverse-distribution route: its values come out times ``factor``."""
    original = verify_mod.generalized_inverse

    def scaled(d):
        inv = original(d)
        return StepFunction(inv.breakpoints, factor * inv.values)

    monkeypatch.setattr(verify_mod, "generalized_inverse", scaled)


def test_route_disagreement_fails_both_rows(monkeypatch):
    _plant_scaled_inverse(monkeypatch, 1.5)
    for name in ROUTE_ROWS:
        result = run_property(name, 1, 3)
        assert result.failures > 0
        assert result.worst_residual == 1.0
        assert result.counterexample is not None


def test_cli_verify_reports_a_route_disagreement(monkeypatch, capsys):
    _plant_scaled_inverse(monkeypatch, 1.5)
    code = main(["verify", "--seed", "1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    dumps = [
        json.loads(line[len("counterexample ") :])
        for line in captured.err.splitlines()
        if line.startswith("counterexample ")
    ]
    assert {d["property"] for d in dumps} == set(ROUTE_ROWS)


def test_route_disagreement_is_seen_on_a_tiny_total_trace(monkeypatch):
    # every piece of both routes is narrower than the 1e-12 breakpoint tolerance
    alg = Algebra.matrix_blocks([2], [1e-13])
    ctx = WeightedContext(alg, StepWeight(StepFunction([0, 1, 3], [2.0, 1.0])))
    a = Operator.from_diagonal(alg, [3.0, 1.0])
    assert verify_mod._wr_shape((ctx, a)) == 0.0
    _plant_scaled_inverse(monkeypatch, 5.0)
    assert verify_mod._wr_shape((ctx, a)) == 1.0


def test_route_disagreement_is_seen_on_a_memoized_operator(monkeypatch):
    alg = Algebra.matrix_blocks([3], [1.0])
    ctx = WeightedContext(alg, StepWeight(StepFunction([0, 1, 3], [2.0, 1.0])))
    a = Operator.from_diagonal(alg, [3.0, 1.0, 2.0])
    ts = np.array([0.5, 2.5])
    assert verify_mod._oracle((ctx, a, ts)) == 0.0
    _plant_scaled_inverse(monkeypatch, 1.5)
    assert verify_mod._oracle((ctx, a, ts)) == 1.0


def test_format_report_mentions_every_property():
    results = [
        PropertyResult("alpha", 3, 0, 1e-14, 1e-9),
        PropertyResult("beta", 3, 1, 2e-3, 1e-9),
    ]
    text = format_report(results)
    assert "alpha" in text and "beta" in text
    assert "FAIL" in text and "pass" in text
    assert "1 failing trial(s)" in text


# ``format_report(run_suite(42, 3))`` under ``OPENBLAS_CORETYPE=Haswell``: pins
# every property's rng draws and residual formatting.
GOLDEN_SUITE_42_3 = (
    "pass  step-distribution-shape                          trials=3  failures=0  worst=0.000e+00  tol=0.0e+00\n"
    "pass  step-rearrangement-equimeasurable                trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  step-distribution-at-rearrangement-bounded       trials=3  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "pass  step-rearrangement-preserves-integral            trials=3  failures=0  worst=1.386e-16  tol=1.0e-10\n"
    "pass  singular-values-of-abs-and-adjoint-agree         trials=3  failures=0  worst=2.665e-15  tol=1.0e-10\n"
    "pass  singular-values-homogeneous                      trials=3  failures=0  worst=1.110e-16  tol=1.0e-10\n"
    "pass  singular-value-distribution-counts-spectrum      trials=3  failures=0  worst=1.776e-15  tol=1.0e-10\n"
    "pass  support-projection-trace                         trials=3  failures=0  worst=1.776e-15  tol=1.0e-10\n"
    "pass  functional-calculus-preserves-level-sets         trials=3  failures=0  worst=1.221e-15  tol=1.0e-10\n"
    "pass  oracle-matches-weighted-rearrangement            trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  rearrangement-integral-equals-weighted-trace     trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  weighted-trace-subadditive                       trials=3  failures=0  worst=0.000e+00  tol=1.0e-09\n"
    "pass  weighted-trace-homogeneous                       trials=3  failures=0  worst=4.927e-17  tol=1.0e-09\n"
    "pass  weighted-trace-adjoint-product-symmetric         trials=3  failures=0  worst=1.937e-16  tol=1.0e-09\n"
    "pass  weighted-trace-faithful                          trials=3  failures=0  worst=0.000e+00  tol=0.0e+00\n"
    "pass  weighted-trace-normal-on-monotone-sequences      trials=3  failures=0  worst=2.176e-16  tol=1.0e-09\n"
    "pass  equivalent-projections-share-weighted-trace      trials=3  failures=0  worst=8.882e-16  tol=1.0e-09\n"
    "pass  orthogonal-projections-trace-inequality          trials=3  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "pass  weighted-rearrangement-of-abs-and-adjoint-agree  trials=3  failures=0  worst=1.776e-15  tol=1.0e-10\n"
    "pass  weighted-rearrangement-homogeneous               trials=3  failures=0  worst=8.327e-17  tol=1.0e-10\n"
    "pass  weighted-rearrangement-sum-shift-inequality      trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  weighted-rearrangement-product-shift-inequality  trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  weighted-rearrangement-shape                     trials=3  failures=0  worst=0.000e+00  tol=0.0e+00\n"
    "pass  weighted-rearrangement-small-t-limit             trials=3  failures=0  worst=0.000e+00  tol=1.0e-09\n"
    "pass  weighted-distribution-at-rearrangement-bounded   trials=3  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "pass  truncation-distance-dominates-rearrangement      trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  orlicz-norm-routes-agree                         trials=3  failures=0  worst=0.000e+00  tol=1.0e-08\n"
    "pass  lp-norm-routes-agree                             trials=3  failures=0  worst=0.000e+00  tol=1.0e-08\n"
    "pass  membership-routes-agree                          trials=3  failures=0  worst=0.000e+00  tol=0.0e+00\n"
    "pass  functional-calculus-commutes-with-rearrangement  trials=3  failures=0  worst=9.992e-16  tol=1.0e-10\n"
    "pass  rearrangement-norm-axioms                        trials=3  failures=0  worst=2.867e-16  tol=1.0e-09\n"
    "pass  lp-norm-matches-quadrature                       trials=3  failures=0  worst=1.499e-16  tol=1.0e-10\n"
    "pass  conjugation-invariance                           trials=3  failures=0  worst=8.882e-16  tol=1.0e-09\n"
    "pass  exponential-weight-reference-values              trials=1  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "34 properties, 0 failing trial(s)"
)


def test_suite_report_is_golden():
    # OpenBLAS picks its kernels for the CPU when it loads, and their rounding
    # moves worst= fields (SkylakeX, Haswell, Zen, SandyBridge and Prescott
    # give four different reports), so the report is made in a fresh process
    # with one kernel set named
    src = str(Path(wrearr.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "from wrearr.verify import format_report, run_suite; print(format_report(run_suite(42, 3)), end='')"
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == GOLDEN_SUITE_42_3


@pytest.mark.parametrize("cutoff", [0, MAX_BLOCK_SIZE])
def test_suite_passes_on_each_jacobi_kernel_alone(monkeypatch, cutoff):
    # cutoff 0 sends every block to the batched kernel, MAX_BLOCK_SIZE every
    # block to the Python-float kernel
    monkeypatch.setattr(eig, "PYTHON_FLOAT_CUTOFF", cutoff)
    assert sum(r.failures for r in run_suite(42, 3)) == 0
