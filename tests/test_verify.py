import json

import pytest

from wrearr import Algebra, Operator, StepFunction, StepWeight, ValidationError, WeightedContext
from wrearr.cli import main
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
    # worst residual 1.15e-10 against a 1e-10 tolerance while the symmetric
    # solver stopped at an absolute off-diagonal threshold
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


def test_cli_verify_reports_failure_with_counterexample(monkeypatch, capsys):
    def broken_runner(rng, trials, tol):
        return trials, 1.0, {"detail": {"residual": 1.0}}

    name, tolerance, _ = verify_mod._REGISTRY[0]
    monkeypatch.setattr(
        verify_mod, "_REGISTRY", [(name, tolerance, broken_runner)] + verify_mod._REGISTRY[1:]
    )
    code = main(["verify", "--seed", "1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    dump_line = [l for l in captured.err.splitlines() if l.startswith("counterexample ")]
    assert dump_line
    payload = json.loads(dump_line[0][len("counterexample ") :])
    assert payload["property"] == name
    assert payload["worst_residual"] == 1.0


def test_format_report_mentions_every_property():
    results = [
        PropertyResult("alpha", 3, 0, 1e-14, 1e-9),
        PropertyResult("beta", 3, 1, 2e-3, 1e-9),
    ]
    text = format_report(results)
    assert "alpha" in text and "beta" in text
    assert "FAIL" in text and "pass" in text
    assert "1 failing trial(s)" in text


def test_run_suite_subset():
    results = run_suite(3, 2, names=["weighted-trace-homogeneous"])
    assert len(results) == 1
    assert results[0].passed
