import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
)
import wrearr.verify as verify_mod
from wrearr import formats
from wrearr.cli import main
from wrearr.generate import random_matrix_algebra, random_operator, rng_from_seed

FIXTURES = "fixtures"


class TestJsonRoundTrips:
    def test_matrix_operator(self):
        rng = rng_from_seed(1)
        op = random_operator(rng, random_matrix_algebra(rng))
        obj = formats.operator_to_obj(op)
        back = formats.parse_operator(json.loads(json.dumps(obj)))
        assert back.algebra == op.algebra
        for a, b in zip(back.blocks, op.blocks):
            assert np.array_equal(a, b)

    def test_commutative_operator(self):
        op = Operator.multiplier(
            Algebra.commutative(2.0), StepFunction([0, 1, 2], [0.5, -1.0])
        )
        back = formats.parse_operator(formats.operator_to_obj(op))
        assert back.step == op.step

    def test_weights(self):
        w = StepWeight(StepFunction([0, 1, 3], [2.0, 1.0]))
        back = formats.parse_weight(formats.weight_to_obj(w))
        assert back.density == w.density
        exp_back = formats.parse_weight({"kind": "exp"})
        assert isinstance(exp_back, ExpWeight)

    @pytest.mark.parametrize(
        "measure",
        [
            LEBESGUE,
            ExpWeight(),
            # no weight: its density rises and vanishes on [1, 2)
            DensityMeasure(StepFunction([0, 1, 2, 3], [1.0, 0.0, 3.0])),
        ],
        ids=["lebesgue", "exp", "step"],
    )
    def test_measures(self, measure):
        obj = formats.weight_to_obj(measure)
        back = formats.parse_measure(json.loads(json.dumps(obj)))
        assert type(back) is type(measure)
        assert formats.weight_to_obj(back) == obj
        assert np.array_equal(back.piece_masses([0.0, 0.5, 1.5, 2.5, 4.0]),
                              measure.piece_masses([0.0, 0.5, 1.5, 2.5, 4.0]))
        if not isinstance(measure, ExpWeight):
            # parse_weight stays strict: neither is a weight
            with pytest.raises((ParseError, ValidationError)):
                formats.parse_weight(obj)

    def test_measure_parse_errors(self):
        with pytest.raises(ParseError):
            formats.parse_measure({"kind": "unknown"})
        with pytest.raises(ValidationError):
            formats.parse_measure({"kind": "step", "mu": {"breakpoints": [0, 1], "values": [-1.0]}})

    def test_canonical_serialization_is_stable(self):
        w = StepWeight(StepFunction([0, 1, 3], [2.0, 1.0]))
        text = formats.dumps_canonical(formats.weight_to_obj(w))
        again = formats.dumps_canonical(
            formats.weight_to_obj(formats.parse_weight(json.loads(text)))
        )
        assert text == again

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            formats.parse_operator({"algebra": {"kind": "matrix"}})
        with pytest.raises(ParseError):
            formats.parse_operator({"algebra": {"kind": "other"}})
        with pytest.raises(ParseError):
            formats.parse_weight({"kind": "unknown"})
        with pytest.raises(ParseError):
            formats.parse_step({"breakpoints": [0, 1], "values": ["x"]})

    @pytest.mark.parametrize(
        "algebra,step",
        [
            ({"kind": "steps", "bound": True}, [0, 1]),
            ({"kind": "steps", "bound": 10**400}, [0, 1]),
            ({"kind": "steps", "bound": 2.0}, [0, True]),
            ({"kind": "steps", "bound": 2.0}, [0, 10**400]),
        ],
    )
    def test_booleans_and_oversized_integers_are_not_numbers(self, algebra, step):
        obj = {"algebra": algebra, "step": {"breakpoints": step, "values": [1.0]}}
        with pytest.raises(ParseError):
            formats.parse_operator(obj)

    @pytest.mark.parametrize("bad", [True, "1.0", None, 10**400], ids=repr)
    def test_float_list_rejects_a_last_non_number(self, bad):
        raw = [0.5] * 999 + [bad]
        with pytest.raises(ParseError):
            formats._float_list(raw, "values")

    def test_float_list_converts_ints_floats_and_numpy_floats(self):
        raw = [0, 3, -7, 2**60 + 1, 2**1000, 0.1, -2.5e-300, np.float64(1 / 3), np.float64(-4.0)] * 20
        out = formats._float_list(raw, "values")
        assert out.dtype == np.float64
        assert [float(v) for v in out] == [float(x) for x in raw]

    def test_validation_errors(self):
        obj = {
            "algebra": {"kind": "matrix", "blocks": [2], "weights": [1.0]},
            "blocks": [[1.0, 2.0, 3.0]],
        }
        with pytest.raises(ValidationError):
            formats.parse_operator(obj)


class TestCliCommands:
    def test_mu_csv(self, capsys):
        assert main(["mu", "--input", f"{FIXTURES}/diag_312.json"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "t_start,t_end,value",
            "0.0,1.0,3.0",
            "1.0,2.0,2.0",
            "2.0,3.0,1.0",
        ]

    def test_mu_zero_operator(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        op = Operator.zero(Algebra.matrix_blocks([2], [1.0]))
        path.write_text(formats.dumps_canonical(formats.operator_to_obj(op)))
        assert main(["mu", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["t_start,t_end,value"]

    def test_mux_csv(self, capsys):
        code = main(
            [
                "mux",
                "--input",
                f"{FIXTURES}/diag_312.json",
                "--weight",
                f"{FIXTURES}/step_weight_21.json",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "t_start,t_end,value",
            "0.0,2.0,3.0",
            "2.0,3.0,2.0",
            "3.0,4.0,1.0",
        ]

    def test_taux_prints_twelve_significant_digits(self, capsys):
        code = main(
            [
                "taux",
                "--input",
                f"{FIXTURES}/indicator_whole_interval.json",
                "--weight",
                f"{FIXTURES}/exp_weight.json",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.864664716763"

    def test_norm_prints_both_routes(self, capsys):
        code = main(
            [
                "norm",
                "--input",
                f"{FIXTURES}/diag_312.json",
                "--weight",
                f"{FIXTURES}/step_weight_21.json",
                "--norm",
                "L2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("route_A ") and lines[1].startswith("route_B ")
        va = float(lines[0].split()[1])
        vb = float(lines[1].split()[1])
        diff = float(lines[2].split()[1])
        assert va == pytest.approx(math.sqrt(23), abs=1e-11)
        assert vb == pytest.approx(math.sqrt(23), abs=1e-11)
        assert diff <= 1e-8 * max(va, 1.0)

    def test_norm_difference_small_on_all_fixture_norms(self, capsys):
        for norm in ["L1", "L2", "Linf", "orlicz:cosh-1", "orlicz:llogl", "orlicz:pow:3", "orlicz:capped:1.0"]:
            code = main(
                [
                    "norm",
                    "--input",
                    f"{FIXTURES}/diag_312.json",
                    "--weight",
                    f"{FIXTURES}/step_weight_21.json",
                    "--norm",
                    norm,
                ]
            )
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            va = float(lines[0].split()[1])
            diff = float(lines[2].split()[1])
            assert diff <= 1e-8 * (1.0 + va)

    def test_zero_operator_norm(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        op = Operator.zero(Algebra.matrix_blocks([2], [1.0]))
        path.write_text(formats.dumps_canonical(formats.operator_to_obj(op)))
        code = main(
            ["taux", "--input", str(path), "--weight", f"{FIXTURES}/step_weight_21.json"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"


class TestCliErrors:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"algebra": ')
        assert main(["mu", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_bad_norm_spec_exits_2(self, capsys):
        code = main(
            [
                "norm",
                "--input",
                f"{FIXTURES}/diag_312.json",
                "--weight",
                f"{FIXTURES}/step_weight_21.json",
                "--norm",
                "L0",
            ]
        )
        assert code == 2

    def test_increasing_weight_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "weight.json"
        bad.write_text(
            json.dumps({"kind": "step", "mu": {"breakpoints": [0, 1, 2], "values": [1.0, 2.0]}})
        )
        code = main(
            ["mux", "--input", f"{FIXTURES}/diag_312.json", "--weight", str(bad)]
        )
        assert code == 3

    def test_norm_beyond_the_float_range_exits_3(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(
            json.dumps(
                {
                    "algebra": {"kind": "matrix", "blocks": [2], "weights": [1.0]},
                    "blocks": [[1e308, 0.0, 0.0, 1e308]],
                }
            )
        )
        args = ["norm", "--input", str(op), "--weight", f"{FIXTURES}/step_weight_21.json"]
        assert main(args + ["--norm", "L1"]) == 3
        assert "float range" in capsys.readouterr().err
        assert main(args + ["--norm", "orlicz:cosh-1"]) == 0

    def test_weighted_trace_beyond_the_float_range_exits_3(self, capsys, tmp_path):
        # each term of the weighted trace is finite, their sum is not; L1 by
        # route A is the same quantity
        op, weight = tmp_path / "op.json", tmp_path / "weight.json"
        op.write_text(
            json.dumps(
                {
                    "algebra": {"kind": "matrix", "blocks": [2], "weights": [3e35]},
                    "blocks": [[7.9e298, 1e298, 2e298, 5e298]],
                }
            )
        )
        mu = {"breakpoints": [0, 1.7e-227, 1.8e-141, 5.2e81], "values": [9.2e203, 4.0e193, 1.7e-151]}
        weight.write_text(json.dumps({"kind": "step", "mu": mu}))
        args = ["--input", str(op), "--weight", str(weight)]
        assert main(["taux", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "float range" in captured.err
        assert main(["norm", *args, "--norm", "L1"]) == 3

    @pytest.mark.parametrize("command", ["mu", "mux", "taux", "norm"])
    def test_singular_value_beyond_the_float_range_exits_3(self, capsys, command):
        # block 1 is 1.7e308 in every entry: finite, but its largest singular
        # value, 3.4e308, is not
        args = [command, "--input", f"{FIXTURES}/overflow_block.json"]
        if command != "mu":
            args += ["--weight", f"{FIXTURES}/step_weight_21.json"]
        if command == "norm":
            args += ["--norm", "L2"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "block 1: the operator norm exceeds the float range" in captured.err

    def test_wrong_block_shape_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "op.json"
        bad.write_text(
            json.dumps(
                {
                    "algebra": {"kind": "matrix", "blocks": [2], "weights": [1.0]},
                    "blocks": [[1.0, 0.0]],
                }
            )
        )
        assert main(["mu", "--input", str(bad)]) == 3

    # one block too many would otherwise be dropped in silence
    @pytest.mark.parametrize("blocks", [[[2.0], [3.0]], []], ids=["too-many", "too-few"])
    def test_wrong_number_of_blocks_exits_3(self, capsys, tmp_path, blocks):
        bad = tmp_path / "op.json"
        algebra = {"kind": "matrix", "blocks": [1], "weights": [1.0]}
        bad.write_text(json.dumps({"algebra": algebra, "blocks": blocks}))
        assert main(["mu", "--input", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "wrong number of blocks" in captured.err


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for kind, size in [("diag", 4), ("block", 6), ("isometry", 4), ("weight", 5)]:
            assert main(["gen", "--seed", "1", "--kind", kind, "--size", str(size), "--out", str(a)]) == 0
            assert main(["gen", "--seed", "1", "--kind", kind, "--size", str(size), "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_round_trip_is_identity_on_canonical_form(self, tmp_path):
        path = tmp_path / "op.json"
        assert main(["gen", "--seed", "9", "--kind", "block", "--size", "5", "--out", str(path)]) == 0
        text = path.read_text()
        op = formats.parse_operator(json.loads(text))
        assert formats.dumps_canonical(formats.operator_to_obj(op)) == text

    def test_generated_weight_validates(self, tmp_path):
        path = tmp_path / "w.json"
        assert main(["gen", "--seed", "3", "--kind", "weight", "--size", "8", "--out", str(path)]) == 0
        w = formats.parse_weight(json.loads(path.read_text()))
        assert w.density.is_nonincreasing()

    def test_generated_isometry_validates(self, tmp_path):
        path = tmp_path / "v.json"
        assert main(["gen", "--seed", "5", "--kind", "isometry", "--size", "4", "--out", str(path)]) == 0
        v = formats.parse_operator(json.loads(path.read_text()))
        vstar_v = (v.T @ v).blocks[0]
        assert np.max(np.abs(vstar_v @ vstar_v - vstar_v)) <= 1e-10

    def test_size_out_of_caps_exits_2(self, tmp_path):
        path = tmp_path / "x.json"
        assert main(["gen", "--seed", "1", "--kind", "diag", "--size", "65", "--out", str(path)]) == 2
        assert main(["gen", "--seed", "1", "--kind", "weight", "--size", "9", "--out", str(path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "-1", "--trials", "1"],
        ["gen", "--seed", "-1", "--kind", "diag", "--size", "2", "--out", "unused.json"],
    ],
    ids=["verify", "gen"],
)
def test_negative_seed_exits_2(argv, capsys, tmp_path, monkeypatch):
    # numpy rejects negative seeds; the CLI reports a parse error, not a traceback
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "unused.json").exists()


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--seed", "42", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failing trial(s)" in out

    def test_zero_trials(self, capsys):
        assert main(["verify", "--seed", "42", "--trials", "0"]) == 0

    def test_infinite_residual_is_written_as_strict_json(self, capsys, monkeypatch):
        registry = list(verify_mod._REGISTRY)
        registry[0] = dataclasses.replace(registry[0], residual=lambda inst: math.inf)
        monkeypatch.setattr(verify_mod, "_REGISTRY", registry)
        assert main(["verify", "--seed", "1", "--trials", "1"]) == 1

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("counterexample ")]
        assert len(lines) == 1
        payload = json.loads(lines[0][len("counterexample ") :], parse_constant=reject)
        assert payload["property"] == registry[0].name
        assert payload["worst_residual"] == payload["detail"]["residual"] == "inf"

    def test_corrupted_weight_hits_validation_before_verification(self, capsys, tmp_path):
        bad = tmp_path / "weight.json"
        bad.write_text(
            json.dumps({"kind": "step", "mu": {"breakpoints": [0, 1, 2], "values": [1.0, 2.0]}})
        )
        code = main(
            ["taux", "--input", f"{FIXTURES}/diag_312.json", "--weight", str(bad)]
        )
        assert code == 3


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "wrearr.cli", "taux",
         "--input", f"{FIXTURES}/indicator_first_half.json",
         "--weight", f"{FIXTURES}/exp_weight.json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.632120558829"


def test_package_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "wrearr", "verify", "--seed", "1", "--trials", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "34 properties, 0 failing trial(s)" in result.stdout
