import dataclasses
import json

import numpy as np
import pytest

from wrearr import Algebra, Operator, StepFunction, StepWeight, ValidationError, WeightedContext
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


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("WREARR_TOLERANCE", "1e-3")
    result = run_property("rearrangement-integral-equals-weighted-trace", 1, 2)
    assert result.tolerance == 1e-3
    monkeypatch.setenv("WREARR_TOLERANCE", "bogus")
    with pytest.raises(ValidationError):
        run_property("rearrangement-integral-equals-weighted-trace", 1, 2)


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


# ``format_report(run_suite(42, 3))``: pins every property's rng draws and
# residual formatting.
GOLDEN_SUITE_42_3 = (
    "pass  step-distribution-shape                          trials=3  failures=0  worst=0.000e+00  tol=0.0e+00\n"
    "pass  step-rearrangement-equimeasurable                trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  step-distribution-at-rearrangement-bounded       trials=3  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "pass  step-rearrangement-preserves-integral            trials=3  failures=0  worst=1.386e-16  tol=1.0e-10\n"
    "pass  singular-values-of-abs-and-adjoint-agree         trials=3  failures=0  worst=2.220e-15  tol=1.0e-10\n"
    "pass  singular-values-homogeneous                      trials=3  failures=0  worst=1.110e-16  tol=1.0e-10\n"
    "pass  singular-value-distribution-counts-spectrum      trials=3  failures=0  worst=1.776e-15  tol=1.0e-10\n"
    "pass  support-projection-trace                         trials=3  failures=0  worst=1.776e-15  tol=1.0e-10\n"
    "pass  functional-calculus-preserves-level-sets         trials=3  failures=0  worst=7.772e-16  tol=1.0e-10\n"
    "pass  oracle-matches-weighted-rearrangement            trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  rearrangement-integral-equals-weighted-trace     trials=3  failures=0  worst=0.000e+00  tol=1.0e-10\n"
    "pass  weighted-trace-subadditive                       trials=3  failures=0  worst=0.000e+00  tol=1.0e-09\n"
    "pass  weighted-trace-homogeneous                       trials=3  failures=0  worst=2.410e-16  tol=1.0e-09\n"
    "pass  weighted-trace-adjoint-product-symmetric         trials=3  failures=0  worst=6.710e-16  tol=1.0e-09\n"
    "pass  weighted-trace-faithful                          trials=3  failures=0  worst=0.000e+00  tol=0.0e+00\n"
    "pass  weighted-trace-normal-on-monotone-sequences      trials=3  failures=0  worst=2.633e-16  tol=1.0e-09\n"
    "pass  equivalent-projections-share-weighted-trace      trials=3  failures=0  worst=0.000e+00  tol=1.0e-09\n"
    "pass  orthogonal-projections-trace-inequality          trials=3  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "pass  weighted-rearrangement-of-abs-and-adjoint-agree  trials=3  failures=0  worst=4.441e-16  tol=1.0e-10\n"
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
    "pass  functional-calculus-commutes-with-rearrangement  trials=3  failures=0  worst=1.332e-15  tol=1.0e-10\n"
    "pass  rearrangement-norm-axioms                        trials=3  failures=0  worst=1.946e-16  tol=1.0e-09\n"
    "pass  lp-norm-matches-quadrature                       trials=3  failures=0  worst=1.433e-16  tol=1.0e-10\n"
    "pass  conjugation-invariance                           trials=3  failures=0  worst=1.110e-15  tol=1.0e-09\n"
    "pass  exponential-weight-reference-values              trials=1  failures=0  worst=0.000e+00  tol=1.0e-12\n"
    "34 properties, 0 failing trial(s)"
)


def test_suite_report_is_golden(monkeypatch):
    monkeypatch.delenv("WREARR_TOLERANCE", raising=False)
    assert format_report(run_suite(42, 3)) == GOLDEN_SUITE_42_3
