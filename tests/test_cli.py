import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rotframes
from rotframes import cli
from rotframes.cli import CSV_HEADER, main
from rotframes.errors import DegenerateError, DomainError

DATA = Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestOmegaSweep:
    def test_row_count_and_self_check_clean(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "omega", "--kind", "gal,tt", "--omega", "0.5", "--c", "1",
                "--rho-min", "0.1", "--rho-max", "1.5", "--steps", "15",
                "--format", "csv", "--self-check",
            ],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 30
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["rel_err"]) < 1e-6 for r in rows)

    def test_horizon_rows_marked_not_dropped(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "omega", "--kind", "gal", "--omega", "1", "--c", "1",
                "--rho-min", "0.5", "--rho-max", "1.5", "--steps", "3",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        statuses = {float(r["rho"]): r["status"] for r in rows}
        assert statuses[0.5] == "ok"
        assert statuses[1.0] == "light_cylinder"
        assert statuses[1.5] == "light_cylinder"
        nan_row = [r for r in rows if r["status"] == "light_cylinder"][0]
        assert nan_row["omega_numeric"] == "nan"

    def test_mtt_matches_tt_in_numeric_columns(self, capsys):
        base = [
            "omega", "--omega", "0.5", "--rho-min", "0.2", "--rho-max", "2.0",
            "--steps", "7",
        ]
        _, out_tt, _ = run(capsys, base + ["--kind", "tt"])
        _, out_mtt, _ = run(capsys, base + ["--kind", "mtt"])
        strip = lambda text: [
            line.split(",", 1)[1] for line in text.strip().split("\n")[1:]
        ]
        assert strip(out_tt) == strip(out_mtt)

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "omega", "--kind", "gal,tt,mtt", "--omega", "0.3",
            "--rho-min", "0.1", "--rho-max", "2.5", "--steps", "12",
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        assert b"\r" not in b1
        assert b1.startswith(CSV_HEADER.encode() + b"\n")

    def test_floats_round_trip_through_csv(self, capsys):
        _, out, _ = run(
            capsys,
            [
                "omega", "--kind", "tt", "--omega", "0.7",
                "--rho-min", "0.3", "--rho-max", "1.7", "--steps", "4",
            ],
        )
        _, rows = parse_csv(out)
        from rotframes import CongruenceSpec, omega_closed_form

        spec = CongruenceSpec("tt", 0.7)
        for r in rows:
            assert float(r["omega_closed"]) == omega_closed_form(float(r["rho"]), spec)

    def test_self_check_trips_on_injected_perturbation(self, capsys, monkeypatch):
        argv = [
            "omega", "--kind", "gal", "--omega", "0.5",
            "--rho-min", "0.5", "--rho-max", "1.5", "--steps", "3",
            "--self-check",
        ]
        monkeypatch.setenv("ROTFRAMES_SELF_CHECK_PERTURB", "1e-5")
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "self-check" in err
        monkeypatch.delenv("ROTFRAMES_SELF_CHECK_PERTURB")
        code, _, _ = run(capsys, argv)
        assert code == 0

    def test_json_schema_and_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "omega", "--kind", "gal", "--omega", "1", "--c", "1",
                "--rho-min", "0.5", "--rho-max", "1.5", "--steps", "3",
                "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"params", "rows", "version"}
        assert doc["version"]
        assert doc["params"]["command"] == "omega"
        assert len(doc["rows"]) == 3
        horizon = [r for r in doc["rows"] if r["status"] == "light_cylinder"]
        assert horizon and horizon[0]["omega_numeric"] is None
        ok = [r for r in doc["rows"] if r["status"] == "ok"][0]
        assert isinstance(ok["omega_closed"], float)
        # lossless: dump -> parse -> dump is stable
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            json.loads(json.dumps(doc, sort_keys=True)), sort_keys=True
        )

    def test_usage_errors(self, capsys):
        code, _, err = run(capsys, ["omega", "--bogus"])
        assert code == 64
        assert err == ("rotframes omega: error: the following arguments are required: "
                       "--rho-min, --rho-max, --steps, --omega\n")
        code, _, err = run(
            capsys,
            ["omega", "--kind", "warp", "--omega", "1", "--rho-min", "1",
             "--rho-max", "2", "--steps", "3"],
        )
        assert code == 64 and "warp" in err
        code, _, _ = run(
            capsys,
            ["omega", "--kind", "gal", "--omega", "1", "--rho-min", "2",
             "--rho-max", "1", "--steps", "3"],
        )
        assert code == 64
        code, _, _ = run(
            capsys,
            ["omega", "--kind", "gal", "--omega", "1", "--rho-min", "1",
             "--rho-max", "2", "--steps", "1"],
        )
        assert code == 64
        code, _, _ = run(
            capsys,
            ["omega", "--kind", "gal", "--omega", "-1", "--rho-min", "1",
             "--rho-max", "2", "--steps", "3"],
        )
        assert code == 64


class TestPrecess:
    def test_gal_values(self, capsys):
        code, out, _ = run(
            capsys, ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        gamma = 1.0 / math.sqrt(0.75)
        assert float(rows[0]["delta_phi_prime"]) == pytest.approx(
            -2.0 * math.pi * gamma, rel=1e-12
        )
        assert float(rows[0]["thomas_net"]) == pytest.approx(
            2.0 * math.pi * (1.0 - gamma), rel=1e-10
        )

    def test_tt_values(self, capsys):
        code, out, _ = run(
            capsys, ["precess", "--kind", "tt", "--rho", "1", "--omega", "1"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        expected = -math.pi * (math.cosh(1.0) + 1.0 / math.sinh(1.0))
        assert float(rows[0]["delta_phi_prime"]) == pytest.approx(expected, rel=1e-12)

    def test_horizon_is_domain_error_exit(self, capsys):
        code, out, err = run(
            capsys, ["precess", "--kind", "gal", "--rho", "2", "--omega", "1"]
        )
        assert code == 3
        assert out == ""
        assert "light cylinder" in err
        assert "Traceback" not in err

    def test_fw_check_columns(self, capsys):
        code, out, _ = run(
            capsys,
            ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5",
             "--fw-check", "5000"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["fw_measured", "fw_deviation"]
        fw = float(rows[0]["fw_measured"])
        assert fw == pytest.approx(float(rows[0]["delta_phi_prime"]), abs=1e-6)
        assert abs(float(rows[0]["fw_deviation"])) < 1e-6

    def test_fw_check_drift_is_domain_error_exit(self, capsys):
        code, out, err = run(
            capsys,
            ["precess", "--kind", "tt", "--rho", "1", "--omega", "0.5",
             "--fw-check", "20"],
        )
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert err.rstrip("\n").endswith("increase --fw-check")

    def test_fw_check_billion_steps(self, capsys):
        code, out, _ = run(
            capsys,
            ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5",
             "--fw-check", "1000000000"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        expected = -2.0 * math.pi / float(rows[0]["dtau_dt"])
        assert float(rows[0]["fw_measured"]) == pytest.approx(expected, abs=1e-9)

    def test_fw_check_at_high_rapidity(self, capsys):
        # fw_measured was 3503.0067..., the angle folded by np.unwrap
        code, out, _ = run(
            capsys,
            ["precess", "--kind", "tt", "--rho", "8", "--omega", "1",
             "--fw-check", "10000000"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        expected = -2.0 * math.pi * math.cosh(8.0)
        assert float(rows[0]["fw_measured"]) == pytest.approx(expected, rel=1e-9)
        code, out, err = run(
            capsys,
            ["precess", "--kind", "tt", "--rho", "13", "--omega", "1",
             "--fw-check", "1000000000"],
        )
        assert code == 3 and out == ""
        # no step count cures the generator's rounding, so no hint
        assert err.count("\n") == 1 and "eps (u^t)^2" in err
        assert "increase --fw-check" not in err

    @pytest.mark.parametrize("rho", ["12", "13", "20", "50"])
    def test_fw_check_past_the_precision_rule(self, capsys, rho):
        code, out, err = run(
            capsys,
            ["precess", "--kind", "tt", "--rho", rho, "--omega", "1",
             "--fw-check", "1000000000"],
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "above 1e-06" in err
        assert "increase --fw-check" not in err

    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    def test_fw_check_passes_the_thomas_gate(self, capsys, kind):
        code, out, err = run(
            capsys,
            ["precess", "--kind", kind, "--rho", "1", "--omega", "0.5",
             "--fw-check", "100000", "--self-check"],
        )
        assert code == 0 and err == ""

    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    @pytest.mark.parametrize("factor, gated", [(1.0 + 2e-6, 2), (1.0 + 5e-7, 0)])
    def test_thomas_gate_fault_injection(self, capsys, monkeypatch, kind, factor, gated):
        # fw_measured is gated against -2 pi u^t for every kind, relative
        thomas = -2.0 * math.pi / rotframes.proper_time_rate(
            1.0, rotframes.CongruenceSpec(kind, 0.5))
        monkeypatch.setattr(cli, "measure_precession_angle",
                            lambda spec, rho, steps: thomas * factor)
        argv = ["precess", "--kind", kind, "--rho", "1", "--omega", "0.5",
                "--fw-check", "100000"]
        plain = run(capsys, argv)
        assert plain[0] == 0 and plain[2] == ""
        code, out, err = run(capsys, argv + ["--self-check"])
        assert code == gated and out == plain[1]
        if gated:
            assert err.count("\n") == 1
            assert err.rstrip("\n").endswith("increase --fw-check")
        else:
            assert err == ""

    def test_fw_check_step_range_is_usage_error(self, capsys):
        for steps in ("15", str(2**53 + 1), "10" * 20):
            code, _, err = run(
                capsys,
                ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5",
                 "--fw-check", steps],
            )
            assert code == 64, steps
            assert "Traceback" not in err
        # the range is checked before the point: a refused point is no excuse
        for point in (["--kind", "gal", "--rho", "5"], ["--kind", "tt", "--rho", "1e-300"]):
            code, out, err = run(capsys, ["precess", *point, "--omega", "0.5",
                                          "--fw-check", "3"])
            assert (code, out) == (64, ""), point
            assert err == "rotframes: error: --fw-check needs 16 to 2**53 steps\n"

    def test_fw_check_step_range_includes_its_edges(self, capsys):
        # 16 steps drift past the limit, a domain error and not a usage one
        for steps, expected in (("16", 3), (str(2**53), 0)):
            code, _, _ = run(capsys, ["precess", "--kind", "gal", "--rho", "1",
                                      "--omega", "0.5", "--fw-check", steps])
            assert code == expected, steps


class TestSweepSize:
    @pytest.mark.parametrize("steps", [str(10**15), "10" * 20])
    def test_huge_steps_is_usage_error(self, capsys, steps):
        # np.linspace raised _ArrayMemoryError for 10**15 (exit 1)
        code, out, err = run(
            capsys,
            ["omega", "--kind", "gal", "--omega", "0.5", "--rho-min", "0.1",
             "--rho-max", "1", "--steps", steps],
        )
        assert code == 64 and out == ""
        assert err == "rotframes: error: --steps must be at most 100000\n"

    def test_steps_at_the_cap_are_a_sweep(self, capsys, monkeypatch):
        # the cap lowered to a size a test can run
        monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 4)
        argv = ["omega", "--kind", "gal", "--omega", "0.5", "--rho-min", "0.1",
                "--rho-max", "1", "--steps"]
        code, out, _ = run(capsys, argv + ["4"])
        assert code == 0 and len(out.splitlines()) == 5
        code, out, err = run(capsys, argv + ["5"])
        assert code == 64 and out == ""
        assert err == "rotframes: error: --steps must be at most 4\n"


class TestCompare:
    def test_three_rows_with_expected_scalars(self, capsys):
        code, out, _ = run(capsys, ["compare", "--rho", "1", "--omega", "0.5"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["kind"] for r in rows] == ["gal", "tt", "mtt"]
        assert float(rows[0]["omega_closed"]) == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)
        expected_tt = 0.5 * (math.sinh(0.5) * math.cosh(0.5) + 0.5)
        assert float(rows[1]["omega_closed"]) == pytest.approx(expected_tt, rel=1e-12, abs=0.0)
        assert rows[1]["omega_closed"] == rows[2]["omega_closed"]

    def test_horizon_marker_keeps_tt_finite(self, capsys):
        code, out, _ = run(capsys, ["compare", "--rho", "1", "--omega", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["status"] == "light_cylinder"
        assert rows[1]["status"] == "ok"
        assert float(rows[1]["omega_closed"]) == pytest.approx(
            0.5 * (math.sinh(1.0) * math.cosh(1.0) + 1.0), rel=1e-12
        )

    def test_small_omega_scalars_agree(self, capsys):
        code, out, _ = run(capsys, ["compare", "--rho", "1", "--omega", "1e-6"])
        assert code == 0
        _, rows = parse_csv(out)
        values = [float(r["omega_closed"]) for r in rows]
        assert values[0] == pytest.approx(values[1], rel=1e-9, abs=0.0)
        assert values[1] == values[2]


class TestTransform:
    def test_tt_forward_values(self, capsys):
        code, out, _ = run(
            capsys,
            ["transform", "--map", "tt", "--direction", "fwd", "--t", "1",
             "--rho", "1", "--omega", "1"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "rho", "phi", "z"]
        assert float(rows[0]["t"]) == pytest.approx(math.cosh(1.0), rel=1e-15, abs=0.0)
        assert float(rows[0]["phi"]) == pytest.approx(-math.sinh(1.0), rel=1e-15, abs=0.0)

    def test_gal_round_trip(self, capsys):
        _, out, _ = run(
            capsys,
            ["transform", "--map", "gal", "--t", "2", "--rho", "1.5",
             "--phi", "0.7", "--omega", "0.4"],
        )
        _, rows = parse_csv(out)
        _, out2, _ = run(
            capsys,
            ["transform", "--map", "gal", "--direction", "inv",
             "--t", rows[0]["t"], "--rho", rows[0]["rho"],
             "--phi", rows[0]["phi"], "--omega", "0.4"],
        )
        _, rows2 = parse_csv(out2)
        assert float(rows2[0]["phi"]) == pytest.approx(0.7, abs=1e-14)
        assert float(rows2[0]["t"]) == 2.0

    def test_zero_omega_tt_is_identity(self, capsys):
        _, out, _ = run(
            capsys,
            ["transform", "--map", "tt", "--t", "1.25", "--rho", "2.5",
             "--phi", "-0.3", "--z", "4", "--omega", "0"],
        )
        _, rows = parse_csv(out)
        assert [float(rows[0][k]) for k in ("t", "rho", "phi", "z")] == [
            1.25, 2.5, -0.3, 4.0,
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["transform", "--map", "tt", "--t", "1", "--rho", "1",
             "--omega", "1", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["t"] == pytest.approx(math.cosh(1.0), rel=1e-15, abs=0.0)

    def test_non_finite_flags_are_usage_errors(self, capsys):
        base = {"--map": "tt", "--rho": "1", "--omega": "1"}
        for flag, value in (("--omega", "inf"), ("--rho", "inf"), ("--t", "nan"),
                            ("--phi", "-inf"), ("--c", "inf")):
            argv = ["transform"]
            for k, v in {**base, flag: value}.items():
                argv.append(f"{k}={v}")
            code, out, err = run(capsys, argv)
            assert code == 64, flag
            assert out == ""
            assert "must be finite" in err and "Traceback" not in err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 64


@pytest.mark.parametrize("argv, params", [
    (["omega", "--kind", "gal,tt", "--omega", "0.5", "--rho-min", "0.5",
      "--rho-max", "1.5", "--steps", "3", "--c", "2"],
     {"command": "omega", "kind": ["gal", "tt"], "rho_min": 0.5, "rho_max": 1.5,
      "steps": 3, "omega": 0.5, "c": 2.0, "format": "json"}),
    (["compare", "--rho", "1", "--omega", "0.5"],
     {"command": "compare", "rho": 1.0, "omega": 0.5, "c": 1.0, "format": "json"}),
    (["precess", "--kind", "tt", "--rho", "1", "--omega", "0.5"],
     {"command": "precess", "kind": "tt", "rho": 1.0, "omega": 0.5, "c": 1.0,
      "format": "json", "fw_check": None}),
    (["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5", "--fw-check", "1000"],
     {"command": "precess", "kind": "gal", "rho": 1.0, "omega": 0.5, "c": 1.0,
      "format": "json", "fw_check": 1000}),
    (["transform", "--map", "tt", "--direction", "inv", "--rho", "1", "--omega", "0"],
     {"command": "transform", "map": "tt", "direction": "inv", "omega": 0.0, "c": 1.0,
      "format": "json"}),
])
def test_json_params_of_each_command(capsys, argv, params):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out)["params"] == params


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["compare", "--rho", "1", "--omega", "0.5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    path = tmp_path / "cmp.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == out


class TestInputsOutsideArgv:
    """The environment and the file system end in a documented exit too."""

    COMMANDS = [
        ["compare", "--rho", "1", "--omega", "0.5"],
        ["precess", "--kind", "tt", "--rho", "1", "--omega", "0.5"],
        ["omega", "--rho-min", "0.5", "--rho-max", "1", "--steps", "20", "--omega", "0.5"],
    ]

    @pytest.mark.parametrize("value", ["abc", "inf", "-inf", "nan", "1e999", "1e-3x"])
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_bad_perturbation_is_a_usage_error(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv(cli.PERTURB_ENV, value)
        code, out, err = run(capsys, argv + ["--self-check"])
        assert (code, out) == (64, "")
        assert err == (f"rotframes: error: {cli.PERTURB_ENV} must be a finite number, "
                       f"got {value!r}\n")

    def test_overflowing_perturbation_marks_rows(self, capsys, monkeypatch):
        # (1 + 1e308) times the tt scalar 51.9 leaves the float range: the
        # rows are marked, with no numpy warning
        monkeypatch.setenv(cli.PERTURB_ENV, "1e308")
        code, out, err = run(capsys, ["compare", "--rho", "1", "--omega", "3", "--self-check"])
        assert (code, err) == (0, "")
        assert [row["status"] for row in parse_csv(out)[1]] == [
            "light_cylinder", "domain_error", "domain_error"]
        code, out, err = run(capsys, ["precess", "--kind", "tt", "--rho", "1", "--omega", "3",
                                      "--self-check"])
        assert (code, out) == (3, "")
        assert err == ("rotframes: point not numerically evaluable: "
                       "rho = 1.0, omega = 3.0, c = 1.0\n")

    def test_blank_perturbation_is_zero(self, capsys, monkeypatch):
        argv = self.COMMANDS[2] + ["--self-check"]
        unset = run(capsys, argv)
        monkeypatch.setenv(cli.PERTURB_ENV, " \t")
        assert run(capsys, argv) == unset
        assert unset[0] == 0

    @pytest.mark.parametrize("target,reason", [
        ("missing/x.csv", "No such file or directory"), (".", "Is a directory"),
    ])
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv, target, reason):
        path = tmp_path / target
        code, out, err = run(capsys, argv + ["--out", str(path)])
        assert (code, out) == (64, "")
        assert err == f"rotframes: error: cannot write --out {str(path)!r}: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_failed_run_writes_no_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        argv = ["precess", "--kind", "gal", "--rho", "3", "--omega", "0.5", "--out", str(path)]
        assert run(capsys, argv)[0] == 3
        monkeypatch.setenv(cli.PERTURB_ENV, "abc")
        assert run(capsys, self.COMMANDS[0] + ["--out", str(path)])[0] == 64
        assert not path.exists()


class TestBatchedSweep:
    # tests/data/omega_criterion8.csv is this sweep's output from the
    # row-by-row implementation that preceded the batched one
    GOLDEN_ARGV = [
        "omega", "--kind", "gal,tt,mtt", "--omega", "0.5",
        "--rho-min", "0.1", "--rho-max", "1.8", "--steps", "20",
    ]
    EXACT = ("kind", "rho", "lambda", "omega_closed", "v", "dtau_dt",
             "delta_phi_prime", "thomas_net", "status")

    def test_matches_row_by_row_golden(self, capsys):
        code, out, _ = run(capsys, self.GOLDEN_ARGV)
        assert code == 0
        golden = (DATA / "omega_criterion8.csv").read_text(encoding="utf-8")
        header, rows = parse_csv(out)
        gold_header, gold_rows = parse_csv(golden)
        assert header == gold_header
        assert len(rows) == len(gold_rows) == 60
        for row, gold in zip(rows, gold_rows):
            for name in self.EXACT:
                assert row[name] == gold[name], (name, gold["kind"], gold["rho"])
            num, gold_num = float(row["omega_numeric"]), float(gold["omega_numeric"])
            assert abs(num - gold_num) <= 1e-12 * abs(gold_num)
            # rel_err is already relative: compare it absolutely
            assert abs(float(row["rel_err"]) - float(gold["rel_err"])) <= 1e-12

    def test_sweep_row_equals_compare_row(self, capsys):
        argv = ["omega", "--omega", "0.45", "--rho-min", "0.05", "--rho-max", "2.5",
                "--steps", "9"]
        _, out, _ = run(capsys, argv)
        sweep = out.strip().split("\n")[1:]
        rhos = [line.split(",")[1] for line in sweep[:9]]
        for i, rho in enumerate(rhos):
            _, out, _ = run(capsys, ["compare", "--rho", rho, "--omega", "0.45"])
            assert out.strip().split("\n")[1:] == sweep[i::9]

    def test_stencil_rows_near_light_cylinder_are_marked(self, capsys):
        # the last radius is inside the cylinder (c / omega = 2) but its
        # stencil is not; the first one's stencil crosses the axis
        code, out, err = run(
            capsys,
            ["omega", "--kind", "gal", "--omega", "0.5", "--rho-min", "0.00005",
             "--rho-max", "1.99995", "--steps", "5"],
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        statuses = [r["status"] for r in rows]
        assert statuses == ["domain_error", "ok", "ok", "ok", "domain_error"]

    def test_perturbation_read_once_per_command(self, capsys, monkeypatch):
        calls = []
        real = os.environ.get

        def spy(key, default=None):
            if key == "ROTFRAMES_SELF_CHECK_PERTURB":
                calls.append(key)
            return real(key, default)

        monkeypatch.setattr(cli.os.environ, "get", spy)
        run(capsys, self.GOLDEN_ARGV)
        run(capsys, ["compare", "--rho", "1", "--omega", "0.5"])
        assert len(calls) == 2


def _bits(row):
    """A row with its floats as float.hex, so that nan equals nan."""
    return tuple(v if isinstance(v, str) else float(v).hex() for v in row)


class TestRowsDoNotDependOnTheirTable:
    """compute_rows builds the rows of a table of _ROWS_FROM rows or more
    from arrays, and smaller tables row by row: every row has the bits of
    compute_row at its radius either way, also where the closed forms take
    a fallback branch or refuse the radius."""

    # omega, c, perturb, radii that force a fallback, and the range of the
    # seeded radii around them
    CASES = {
        # gal at and past the light cylinder and with its stencil across
        # it; tt at rapidity in (355, 710] and above 710; radii off the domain
        "light_cylinder_and_overflow": (0.5, 1.0, 0.0, [2.0, 1.99995, 2.5, 720.0, 1500.0,
                                                        0.0, -1.0], (0.01, 4.0)),
        "perturbed": (0.7, 1.3, 1e-3, [1.3 / 0.7, 700.0], (0.01, 3.0)),
        # rho omega, and so the tt speed, is subnormal below rho = 2.2e-8;
        # a nan radius must not hide those rows
        "subnormal_rho_omega": (1e-300, 1.0, 0.0, [1e-12, 2e-8, 2.3e-8, math.nan],
                                (1e-12, 1e10)),
        # the gal vorticity overflows inside the light cylinder
        "huge_omega": (1e300, 1.0, 0.0, [9.9999999999e-301, 5e-301], (1e-302, 1e-300)),
        # 2 pi rho rounds in the subnormal range where the tt speed need not
        "subnormal_rho": (1e10, 1.0, 0.0, [5e-324, 1e-310, 2e-308], (1e-320, 1e-300)),
        # 2 pi / omega overflows; where the gal rate is small enough the
        # proper period 2 pi rate / omega does not (rho = 9.999e298)
        "tiny_omega": (1e-309, 1e-10, 0.0, [9.999e298, 5e298, 1e299], (1e290, 1e299)),
        # 2 pi rho overflows above 2.86e307, 2 rho above 8.99e307
        "huge_rho": (1e-300, 1e10, 0.0, [2.8e307, 2.9e307, 8.9e307, 9e307, 1.7e308],
                     (1.0, 1.7e308)),
        # the difference pipeline refuses these c
        "tiny_c": (1e-170, 1e-160, 0.0, [1e-300, 1e10], (0.1, 5.0)),
        "huge_c": (1.0, 1e150, 0.0, [1e-300, 7e152], (1e149, 1e151)),
    }
    # cases whose numeric scalars are nan at every radius, so every row is
    # marked; cases with rows whose report takes a fallback branch without
    # raising (a tt speed below the normal floats, a subnormal rho, 2 pi rho
    # or 2 pi / omega past the float range), which are never plain
    MARKED_ONLY = {"huge_omega", "subnormal_rho", "tiny_omega", "tiny_c", "huge_c"}
    FALLBACK = {"subnormal_rho_omega", "subnormal_rho", "tiny_omega", "huge_rho", "tiny_c"}

    def _radii(self, case, size, rng):
        _, _, _, forced, (lo, hi) = self.CASES[case]
        seeded = np.exp(rng.uniform(np.log(lo), np.log(hi), size - len(forced)))
        return rng.permutation(np.concatenate([forced, seeded])).tolist()

    @pytest.mark.parametrize("case", CASES)
    def test_rows_equal_compute_row_bitwise(self, case, monkeypatch):
        omega, c, perturb, _, _ = self.CASES[case]
        monkeypatch.setenv(cli.PERTURB_ENV, repr(perturb))
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        single, statuses = {}, set()
        for size in (cli._ROWS_FROM - 1, cli._ROWS_FROM, 4 * cli._ROWS_FROM):
            rhos = self._radii(case, size, rng)
            for kind, rows in cli.compute_rows(["gal", "tt", "mtt"], rhos, omega, c):
                assert [_bits([row.rho]) for row in rows] == [_bits([r]) for r in rhos]
                for rho, row in zip(rhos, rows):
                    if (kind, rho) not in single:
                        single[kind, rho] = _bits(
                            cli.compute_row(kind, rho, omega, c)[1:])
                    assert _bits(row[1:]) == single[kind, rho], (kind, size, rho)
                    statuses.add(row.status)
        assert statuses - {"ok"}
        assert ("ok" in statuses) == (case not in self.MARKED_ONLY)

    def test_plain_and_light_cylinder_rows_take_no_report(self, monkeypatch):
        calls = []
        real = cli.precession_per_revolution

        def spy(spec, rho):
            calls.append(spec.kind)
            return real(spec, rho)

        monkeypatch.setattr(cli, "precession_per_revolution", spy)
        # 2.5 is past the gal light cylinder, 720 past the tt float range
        rhos = [2.5, 720.0] + np.linspace(0.1, 1.9, cli._ROWS_FROM - 2).tolist()
        cli.compute_rows(["gal", "tt", "mtt"], rhos, 0.5, 1.0)
        assert calls == ["tt"]
        calls.clear()
        cli.compute_rows(["gal", "tt", "mtt"], rhos[:-1], 0.5, 1.0)
        assert calls == ["gal"] * (cli._ROWS_FROM - 1) + ["tt"] * (cli._ROWS_FROM - 1)

    @pytest.mark.parametrize("case", CASES)
    def test_plain_closed_forms_equal_the_report_bitwise(self, case):
        from rotframes.congruences import _fixed_point_rows

        omega, c, _, _, _ = self.CASES[case]
        rhos = self._radii(case, 4 * cli._ROWS_FROM, np.random.default_rng(5))
        plain = set()
        for kind in ("gal", "tt"):
            spec = rotframes.CongruenceSpec(kind, omega, c)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                fp = _fixed_point_rows(np.array(rhos), spec)
            for i, rho in enumerate(rhos):
                try:
                    report = rotframes.precession_per_revolution(spec, rho)
                except rotframes.DomainError as exc:
                    assert not fp.plain[i], (kind, rho)
                    assert fp.light_cylinder[i] == isinstance(exc, rotframes.LightCylinderError)
                    continue
                assert not fp.light_cylinder[i]
                if fp.plain[i]:
                    assert _bits([col[i] for col in fp[:4]]) == _bits(report[4:8]), (kind, rho)
                plain.add(bool(fp.plain[i]))
        assert (True in plain) == (case != "tiny_omega")
        assert (False in plain) == (case in self.FALLBACK)


    @pytest.mark.parametrize("rho, omega, c", [
        # rho is the smallest normal float
        (sys.float_info.min, 1e10, 0.1),
        # the tt speed c tanh(lam) is exactly the smallest normal float
        (0.01, sys.float_info.min / 0.01, 0.1),
    ])
    def test_plain_rows_at_the_smallest_normal_float(self, rho, omega, c):
        # there the period's ordinary form and its fallback differ in the
        # last bit: the array pass and the report both take the ordinary one
        from rotframes.congruences import _fixed_point_rows

        spec = rotframes.CongruenceSpec("tt", omega, c)
        fp = _fixed_point_rows(np.array([rho]), spec)
        report = rotframes.precession_per_revolution(spec, rho)
        assert fp.plain[0]
        assert _bits([col[0] for col in fp[:4]]) == _bits(report[4:8])


class TestModelReuse:
    """omega and compare compute mtt rows once, as the tt rows relabelled.

    Each command differences its rows in one _scalar_rows call, which
    covers every distinct model once.
    """

    SWEEP = ["--omega", "0.7", "--rho-min", "0.05", "--rho-max", "1.6", "--steps", "40",
             "--self-check"]

    @staticmethod
    def _spy(monkeypatch):
        """The models of each _scalar_rows call, one tuple per call, and the
        row counts of its arrays, one tuple per call."""
        kinds, sizes = [], []
        real = cli._scalar_rows

        def spy(fields, xs, *scale):
            kinds.append(tuple(field.kind for field in fields))
            sizes.append(tuple(len(x) for x in xs))
            return real(fields, xs, *scale)

        monkeypatch.setattr(cli, "_scalar_rows", spy)
        return kinds, sizes

    @pytest.mark.parametrize("perturb", ["", "1e-3"])
    @pytest.mark.parametrize("kinds,models", [
        ("mtt", [("tt",)]), ("mtt,gal", [("tt", "gal")]), ("tt,mtt", [("tt",)]),
        ("gal,tt,mtt,tt", [("gal", "tt")]),
    ])
    def test_sweep_equals_the_per_kind_sweeps(self, capsys, monkeypatch, kinds,
                                               models, perturb):
        monkeypatch.setenv(cli.PERTURB_ENV, perturb)
        singles = [run(capsys, ["omega", "--kind", k] + self.SWEEP)
                   for k in kinds.split(",")]
        called, sizes = self._spy(monkeypatch)
        code, out, err = run(capsys, ["omega", "--kind", kinds] + self.SWEEP)
        assert called == models
        # every radius of each model is differenced, past the light cylinder too
        assert sizes == [(40,) * len(m) for m in models]
        assert out == CSV_HEADER + "\n" + "".join(
            o.split("\n", 1)[1] for _, o, _ in singles)
        assert code == max(c for c, _, _ in singles)
        assert err == next((e for c, _, e in singles if c), "")
        _, out, _ = run(capsys, ["omega", "--kind", kinds, "--format", "json"] + self.SWEEP)
        rows = [row for k in kinds.split(",") for row in json.loads(
            run(capsys, ["omega", "--kind", k, "--format", "json"] + self.SWEEP)[1])["rows"]]
        assert json.loads(out)["rows"] == rows

    @pytest.mark.parametrize("perturb", ["", "1e-3"])
    @pytest.mark.parametrize("rho", ["0.05", "0.9", "1.6", "400"])
    def test_compare_rows_are_the_sweep_rows(self, capsys, monkeypatch, rho, perturb):
        monkeypatch.setenv(cli.PERTURB_ENV, perturb)
        called, sizes = self._spy(monkeypatch)
        _, out, _ = run(capsys, ["compare", "--rho", rho, "--omega", "0.7"])
        assert called == [("gal", "tt")] and sizes == [(1, 1)]
        _, sweep, _ = run(capsys, ["omega", "--rho-min", rho, "--rho-max", "1e3",
                                   "--steps", "2", "--omega", "0.7"])
        assert out.split("\n")[1:4] == sweep.split("\n")[1::2][:3]
        assert [line.split(",")[0] for line in out.split("\n")[1:4]] == ["gal", "tt", "mtt"]


class TestRefusedClosedForms:
    """Every radius reaches _scalar_rows, so a row whose closed form raises
    is differenced too where its stencil fits; the closed form still marks
    the row domain_error, and precess still prints its own message."""

    @pytest.mark.parametrize("kind,flags", [
        ("tt", ["--rho", "400", "--omega", "1"]),  # rapidity 400 overflows
        ("gal", ["--rho", "1", "--omega", "1e-310"]),  # the period overflows
        ("tt", ["--rho", "1", "--omega", "1e-310"]),
        ("mtt", ["--rho", "1e-200", "--omega", "1e-200"]),  # the rapidity is 0
        ("tt", ["--rho", "1", "--omega", "1e-300", "--c", "1e30"]),
    ])
    def test_rows_stay_marked_and_precess_keeps_the_message(self, capsys, kind, flags):
        args = dict(zip(flags[::2], flags[1::2]))
        rho, omega, c = (float(args.get(f, "1")) for f in ("--rho", "--omega", "--c"))
        with pytest.raises(rotframes.DomainError) as refused:
            rotframes.precession_per_revolution(rotframes.CongruenceSpec(kind, omega, c), rho)
        code, out, err = run(capsys, ["precess", "--kind", kind, *flags])
        assert (code, out, err) == (3, "", f"rotframes: {refused.value}\n")
        _, out, _ = run(capsys, ["compare", *flags])
        assert parse_csv(out)[1][["gal", "tt", "mtt"].index(kind)]["status"] == "domain_error"
        sweep = ["--rho-min", args["--rho"], "--rho-max", "1e3", "--steps", "2"]
        _, out, _ = run(capsys, ["omega", "--kind", kind, *sweep, *flags[2:]])
        assert parse_csv(out)[1][0]["status"] == "domain_error"


class TestNoRevolution:
    @pytest.mark.parametrize("kind", ["gal", "tt"])
    @pytest.mark.parametrize("size", [1, cli._ROWS_FROM - 1, cli._ROWS_FROM, 40])
    def test_omega_zero_is_degenerate_on_both_paths(self, kind, size):
        # the library call: the parser refuses --omega 0 for every table
        rhos = np.linspace(0.1, 1.5, size).tolist()
        with pytest.raises(DegenerateError, match="^no revolution at omega = 0$"):
            cli.compute_rows([kind], rhos, 0.0, 1.0)


class TestRenderOnce:
    """Kinds of one model share one rendered body: an mtt section is the tt
    body with its kind cell rewritten."""

    SWEEP = TestModelReuse.SWEEP

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kinds,bodies", [
        ("gal,tt,mtt", 2), ("tt,mtt,tt", 1), ("mtt", 1),
    ])
    def test_each_model_is_formatted_once(self, capsys, monkeypatch, fmt, kinds,
                                          bodies):
        calls = []
        real = cli._blocks

        def spy(rows, row_template, sep):
            calls.append(len(rows))
            return real(rows, row_template, sep)

        monkeypatch.setattr(cli, "_blocks", spy)
        code, _, _ = run(capsys, ["omega", "--kind", kinds, "--format", fmt]
                           + self.SWEEP)
        assert code == 0 and calls == [40] * bodies

    def test_precess_names_mtt(self, capsys, monkeypatch):
        argv = ["precess", "--kind", "mtt", "--rho", "1", "--omega", "0.5"]
        _, out, _ = run(capsys, argv)
        assert parse_csv(out)[1][0]["kind"] == "mtt"
        _, out, _ = run(capsys, argv + ["--format", "json"])
        assert json.loads(out)["rows"][0]["kind"] == "mtt"
        monkeypatch.setenv(cli.PERTURB_ENV, "1e-5")
        code, _, err = run(capsys, argv + ["--self-check"])
        assert code == 2 and "kind=mtt rho=1.0" in err

    def test_self_check_names_the_first_section(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PERTURB_ENV, "1e-5")
        code, out, err = run(capsys, ["omega", "--kind", "mtt,tt"] + self.SWEEP)
        assert code == 2 and "kind=mtt rho=0.05" in err
        assert [r["kind"] for r in parse_csv(out)[1]] == ["mtt"] * 40 + ["tt"] * 40


class TestOverflow:
    # rapidity rho * omega / c: sinh cosh leaves the float range above 355,
    # cosh itself above 710
    @pytest.mark.parametrize("rho", ["400", "800"])
    def test_compare_marks_tt_rows(self, capsys, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["compare", "--rho", rho, "--omega", "1"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == [
            "light_cylinder", "domain_error", "domain_error",
        ]

    @pytest.mark.parametrize("rho", ["400", "800"])
    @pytest.mark.parametrize("kind", ["tt", "mtt"])
    def test_precess_is_domain_error_exit(self, capsys, rho, kind):
        code, out, err = run(
            capsys, ["precess", "--kind", kind, "--rho", rho, "--omega", "1"]
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv,cause", [
        (["--kind", "gal", "--rho", "1", "--omega", "3e-308"],
         "revolution period exceeds the float range"),
        (["--kind", "tt", "--rho", "400", "--omega", "1"],
         "overflow at rho = 400.0, omega = 1.0, c = 1.0"),
        (["--kind", "tt", "--rho", "1e-300", "--omega", "1e-300"],
         "rho * omega / c underflows"),
    ])
    def test_precess_names_the_closed_form_cause(self, capsys, argv, cause):
        code, out, err = run(capsys, ["precess"] + argv)
        assert code == 3 and out == ""
        assert cause in err and err.count("\n") == 1

    def test_sweep_marks_rows_past_the_float_range(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                ["omega", "--kind", "tt", "--rho-min", "1", "--rho-max", "800",
                 "--steps", "5", "--omega", "1", "--self-check"],
            )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        # rapidity 1, 200.75, 400.5, 600.25, 800
        assert [r["status"] for r in rows] == ["ok", "ok"] + ["domain_error"] * 3
        assert all(math.isfinite(float(r["omega_numeric"])) for r in rows[:2])
        assert float(rows[1]["rel_err"]) < 1e-6

    @pytest.mark.parametrize("rho, omega, hint", [
        ("1", "11", "increase --fw-check"),  # RK4 unstable: samples overflow
        ("305", "1", "float range"),  # the generator itself overflows
    ])
    def test_fw_check_overflow_is_domain_error_exit(self, capsys, rho, omega, hint):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, ["precess", "--kind", "tt", "--rho", rho, "--omega", omega,
                         "--fw-check", "1649"],
            )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.rstrip("\n").endswith(hint)

    def test_underflowed_rapidity_marks_rows(self, capsys):
        # rho * omega / c is 0 in floats: the tt period divided by tanh(0)
        code, out, err = run(
            capsys, ["compare", "--rho", "1e-300", "--omega", "1e-300"]
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["domain_error"] * 3
        code, out, err = run(
            capsys, ["precess", "--kind", "tt", "--rho", "1e-300", "--omega", "1e-30"]
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_lambda_where_rho_omega_overflows(self, capsys):
        # rho * omega overflows where lambda = 5.63 does not: the lambda
        # cell read inf; the rows stay marked, as the stencil's c^2 overflows
        argv = ["compare", "--rho", "1.5252990216509972e+77",
                "--omega", "3.364998115658751e+231", "--c", "9.11131909243001e+307"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r["lambda"] for r in rows] == ["5.6332439700592891"] * 3
        assert [r["status"] for r in rows] == ["light_cylinder"] + ["domain_error"] * 2

    @pytest.mark.parametrize("omega", ["3e-308", "1e-310", "5e-324"])
    def test_overflowing_period_marks_rows(self, capsys, omega):
        # the period 2 pi / omega leaves the float range: the rows held
        # delta_phi_prime = thomas_net = -inf marked ok
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["compare", "--rho", "1", "--omega", omega])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["domain_error"] * 3
        for kind in ("gal", "tt", "mtt"):
            code, out, err = run(
                capsys, ["precess", "--kind", kind, "--rho", "1", "--omega", omega]
            )
            assert code == 3 and out == ""
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_underflowed_vorticity_norm_passes_the_self_check(self, capsys):
        # omega 1e-300: w.w is about 1e-600 and underflows; the norm is
        # taken on w scaled by a power of two instead
        code, out, err = run(
            capsys, ["compare", "--rho", "1", "--omega", "1e-300", "--self-check"]
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert all(float(r["rel_err"]) <= 1e-6 for r in rows)

    @pytest.mark.parametrize("argv", [
        ["--map", "gal", "--rho", "1", "--omega", "1e308", "--t", "1e10"],
        ["--map", "gal", "--direction", "inv", "--rho", "1", "--omega", "1e308",
         "--t", "1e10"],
        # phi' = -t c sinh(lam) / rho is about -1e310; the rapidity is 1e-10
        ["--map", "tt", "--rho", "1e-310", "--omega", "1e300", "--t", "1e10"],
        ["--map", "tt", "--rho", "1000", "--omega", "1"],
    ])
    def test_transform_overflow_names_the_inputs(self, capsys, argv):
        code, out, err = run(capsys, ["transform"] + argv)
        assert code == 3 and out == "" and err.count("\n") == 1
        assert "rapidity" not in err
        for name in ("overflow mapping t = ", "rho = ", "phi = ", "omega = ", "c = "):
            assert name in err

    def test_transform_is_domain_error_exit(self, capsys):
        code, out, err = run(
            capsys, ["transform", "--map", "tt", "--t", "1", "--rho", "800",
                     "--omega", "1"],
        )
        assert code == 3 and out == ""
        assert "overflow" in err and "Traceback" not in err


def test_csv_rows_match_per_value_formatting():
    from rotframes.cli import _render_csv

    values = [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, math.nan,
              math.inf, -math.inf, 2.0 / 3.0, np.float64(1.25)]
    rows = [["gal"] + values + ["ok"], ["tt"] + values[::-1] + ["light_cylinder"]]
    expected = ["a,b"] + [
        ",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row)
        for row in rows
    ]
    assert _render_csv("a,b", [(None, rows)]) == "\n".join(expected) + "\n"
    assert _render_csv("a,b", [(None, [])]) == "a,b\n"


class TestNegativeExponent:
    # argparse's own negative-number pattern has no exponent, so "-1e-05"
    # used to be read as an option
    @pytest.mark.parametrize("flags", [
        [("--t", "-1e-05")],
        [("--t", "-1E+2"), ("--phi", "-.5e-3")],
        [("--t", "-2."), ("--z", "-3e0")],
    ])
    def test_space_form_matches_equals_form(self, capsys, flags):
        base = ["transform", "--map", "gal", "--rho", "1", "--omega", "0.5"]
        spaced = base + [part for flag in flags for part in flag]
        joined = base + [f"{flag}={value}" for flag, value in flags]
        code, out, err = run(capsys, spaced)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, joined)

    def test_negative_exponent_still_checks_the_domain(self, capsys):
        code, out, err = run(
            capsys, ["transform", "--map", "gal", "--rho", "-1e-05", "--omega", "0.5"]
        )
        assert code == 64 and out == ""
        assert "must be positive" in err

    def test_negative_infinity_is_still_an_option(self, capsys):
        code, out, err = run(
            capsys, ["transform", "--map", "gal", "--t", "-inf", "--rho", "1",
                     "--omega", "0.5"]
        )
        assert code == 64 and out == ""
        assert "expected one argument" in err


def _fresh_interpreter(argv, cwd, module="rotframes"):
    """(exit code, stdout, stderr) of argv run first in a new interpreter."""
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(Path(rotframes.__file__).resolve().parents[1]),
        "COLUMNS": "80",
    }
    proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(real_build())
            return built[-1]

        real_build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for argv in (["compare", "--rho", "1", "--omega", "0.5"], ["omega", "--bogus"],
                     ["transform", "--map", "tt", "--rho", "1", "--omega", "1"]):
            run(capsys, argv)
        assert len(built) == 1
        assert cli._parser is built[0]
        assert real_build() is not real_build()

    @pytest.mark.parametrize("argv", [["compare", "--rho", "1", "--omega", "0.5"],
                                      ["omega", "--bogus"], []])
    def test_main_without_argv_parses_sys_argv(self, capsys, monkeypatch, argv):
        # the console script calls main() bare: a subcommand there must
        # take the subcommand's parser too, not the top parser's full parse
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        full = []
        real = cli._parser.parse_args
        monkeypatch.setattr(cli._parser, "parse_args", lambda a: full.append(a) or real(a))
        monkeypatch.setattr(sys, "argv", ["rotframes", *argv])
        from_sys = run(capsys, None)
        assert full == ([] if argv else [[]])
        assert from_sys == run(capsys, argv)
        assert from_sys[0] == (cli.EXIT_OK if argv[:1] == ["compare"] else cli.EXIT_USAGE)

    def test_the_cli_module_runs_as_a_script(self, capsys, tmp_path):
        argv = ["compare", "--rho", "1", "--omega", "0.5"]
        assert _fresh_interpreter(argv, tmp_path, "rotframes.cli") == run(capsys, argv)

    def test_outputs_match_a_fresh_interpreter(self, capsys, monkeypatch, tmp_path):
        # usage text wraps at the terminal width: pin it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        every_flag = ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5",
                      "--c", "2", "--fw-check", "1000", "--format", "json",
                      "--out", "out.json", "--self-check"]
        calls = [
            every_flag,
            ["omega", "--bogus"],
            ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5"],
            ["compare", "--rho", "1", "--omega", "0.5"],
            ["transform", "--map", "tt", "--t", "1", "--rho", "1", "--omega", "1"],
        ]
        monkeypatch.chdir(tmp_path)
        # the in-process sequence runs after whatever this process ran before
        in_process = [run(capsys, argv) for argv in calls]
        written = (tmp_path / "out.json").read_text(encoding="utf-8")
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        for argv, got in zip(calls, in_process):
            assert got == _fresh_interpreter(argv, fresh_dir), argv
        assert written == (fresh_dir / "out.json").read_text(encoding="utf-8")
        # the defaults came back: CSV on stdout, no fw_ columns
        code, out, _ = in_process[2]
        assert code == 0 and out.split("\n", 1)[0] == CSV_HEADER
        assert in_process[1][0] == 64


class TestDispatch:
    """main hands argv[1:] straight to a subcommand's parser; every argv
    must end as the full parse of a fresh parser ends it."""

    POINT = ["--rho", "1", "--omega", "0.5"]
    TRANSFORM = ["transform", "--map", "tt", "--rho", "1", "--omega", "1"]
    ARGV = [
        [], ["-h"], ["--help"],
        ["warp", *POINT], ["comp", *POINT],
        ["compare", "-h"], ["compare", "--bogus"], ["compare", *POINT, "extra"],
        ["compare", *POINT, "extra", "--bogus", "x"], ["compare", "--rh", "1", "--omega", "0.5"],
        ["compare", *POINT, "--format=json"], ["compare", *POINT, "--"],
        ["compare", "--", *POINT], [*TRANSFORM, "--t=-1e-05"], [*TRANSFORM, "--t", "-1e-05"],
        ["precess", "--kind", "xx", *POINT], ["omega"],
        ["--format", "json", "compare", *POINT], ["-h", "compare"],
    ]

    @staticmethod
    def _full_parse(argv):
        """(exit code, stdout, stderr) of a fresh parser's parse_args, then
        args.func, with main's handling of what they raise."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = cli.build_parser().parse_args(argv)
                code = args.func(args)
            except SystemExit as exc:
                code = int(exc.code or 0)
            except cli.UsageError as exc:
                print(f"rotframes: error: {exc}", file=sys.stderr)
                code = cli.EXIT_USAGE
            except DomainError as exc:
                print(f"rotframes: {exc}", file=sys.stderr)
                code = cli.EXIT_DOMAIN
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_main_ends_as_the_full_parse(self, capsys, monkeypatch, argv):
        # usage text wraps at the terminal width: pin it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        expected = self._full_parse(argv)
        assert run(capsys, argv) == expected

    def test_leftovers_name_the_program(self, capsys):
        code, out, err = run(capsys, ["compare", *self.POINT, "extra"])
        assert (code, out) == (64, "")
        assert err == "rotframes: error: unrecognized arguments: extra\n"


class _CliFuzz:
    """Seeded draws of argv inside and outside the domain, all in one process."""

    SEED = 20061
    DRAWS = 300
    # values that parse but sit at a domain edge: tiny rho, the gal light
    # cylinder at rho omega = c = 1, rapidity past 355 and 710, the float range
    EDGES = ["1e-6", "1e-300", "1.99", "2", "400", "800", "1000", "1e308"]
    # values every flag that takes them rejects
    INVALID = ["0", "-0", "-1", "-1e-05", "inf", "-inf", "nan", "abc", ""]
    # (valid, invalid) choices of the flags that take no real number
    STEPS = (["2", "3", "5"], ["1", "0", "-2", "2.5", "x"])
    FW_STEPS = (["16", "17", "64", "300", "1000", "100000"],
                ["8", "15", str(2**53 + 1), "-16", "1e3"])
    KINDS = (["gal", "tt", "mtt"], ["warp", "", ","])
    SWEEP_KINDS = (["gal", "tt", "mtt", "gal,tt,mtt", "tt,gal"], ["warp", "", ","])
    MAPS = (["gal", "tt"], ["mtt"])
    DIRECTIONS = (["fwd", "inv"], ["up"])
    # what each draw takes from outside argv, with its weight: the fault
    # injection (unset; 1e-3, which makes every finite self-check row fail;
    # 1e308, which overflows the scalars; a bad string; inf) and the --out
    # target (stdout, a file, a missing directory, a directory)
    PERTURBS = ([None, "1e-3", "1e308", "abc", "inf"], [0.6, 0.2, 0.1, 0.05, 0.05])
    OUTS = ([None, "file", "missing", "dir"], [0.7, 0.1, 0.1, 0.1])

    def _real(self, rng, signed=False):
        u = rng.random()
        if u < 0.08:
            return str(rng.choice(self.INVALID))
        if u < 0.3:
            return str(rng.choice(self.EDGES))
        value = rng.lognormal(0.0, 1.5) * (rng.choice([-1, 1]) if signed else 1)
        return f"{value:.6g}"

    def _range(self, rng):
        lo, hi = self._real(rng), self._real(rng)
        try:
            if float(lo) > float(hi) and rng.random() < 0.9:
                return hi, lo
        except ValueError:
            pass
        return lo, hi

    @staticmethod
    def _pick(rng, choices, p_valid=0.9):
        valid, invalid = choices
        return str(rng.choice(valid if rng.random() < p_valid else invalid))

    def _argv(self, rng):
        command = str(rng.choice(["omega", "precess", "compare", "transform"]))
        flags = {"--c": self._real(rng) if rng.random() < 0.3 else None}
        if command == "omega":
            lo, hi = self._range(rng)
            flags.update({"--kind": self._pick(rng, self.SWEEP_KINDS),
                          "--rho-min": lo, "--rho-max": hi,
                          "--steps": self._pick(rng, self.STEPS),
                          "--omega": self._real(rng)})
        elif command == "precess":
            flags.update({"--kind": self._pick(rng, self.KINDS),
                          "--rho": self._real(rng), "--omega": self._real(rng),
                          "--fw-check": (self._pick(rng, self.FW_STEPS, 0.6)
                                         if rng.random() < 0.4 else None)})
        elif command == "compare":
            flags.update({"--rho": self._real(rng), "--omega": self._real(rng)})
        else:
            flags.update({"--map": self._pick(rng, self.MAPS),
                          "--direction": self._pick(rng, self.DIRECTIONS),
                          "--t": self._real(rng, signed=True),
                          "--rho": self._real(rng),
                          "--phi": self._real(rng, signed=True),
                          "--z": self._real(rng, signed=True),
                          "--omega": self._real(rng)})
        argv = [command]
        for flag, value in flags.items():
            if value is None or rng.random() < 0.02:  # a missing required flag
                continue
            if rng.random() < 0.5:
                argv.append(f"{flag}={value}")
            else:
                argv += [flag, value]
        for extra, p in ((["--format", "json"], 0.2), (["--format", "xml"], 0.02),
                         (["--self-check"], 0.3), (["--bogus"], 0.02)):
            if rng.random() < p:
                argv += extra
        return argv

    def _draws(self, capsys, tmp_path):
        """(argv, exit code, output) of each draw, after the checks all draws
        share; the output is stdout, or the --out file's text."""
        rng = np.random.default_rng(self.SEED)
        # a second stream draws what lies outside argv, so the argv stream
        # stays the same
        outside = np.random.default_rng(self.SEED + 1)
        file = tmp_path / "out.txt"
        targets = {None: None, "file": file, "missing": tmp_path / "missing" / "out.txt",
                   "dir": tmp_path}
        for _ in range(self.DRAWS):
            argv = self._argv(rng)
            perturb = outside.choice(self.PERTURBS[0], p=self.PERTURBS[1])
            target = targets[outside.choice(self.OUTS[0], p=self.OUTS[1])]
            with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
                warnings.simplefilter("error")
                if perturb is not None:
                    mp.setenv(cli.PERTURB_ENV, perturb)
                code, out, err = run(capsys, argv + ([] if target is None
                                                     else ["--out", str(target)]))
            where = (argv, perturb, target)
            assert code in (0, 2, 3, 64), where
            assert "Traceback" not in err, where
            # one line of diagnosis, none on success
            if code == 0:
                assert err == "", where
            else:
                assert err.endswith("\n") and err.count("\n") == 1, where
            if code == 64:
                assert err.count("error:") == 1, where
            if code in (3, 64):
                assert out == "", where
            if target == file:
                assert out == "" and file.exists() == (code in (0, 2)), where
                if code in (0, 2):
                    out = file.read_text()
                    file.unlink()
            yield argv, code, out


class TestFuzz(_CliFuzz):
    def test_every_draw_ends_in_a_documented_exit(self, capsys, tmp_path):
        codes = {code for _, code, _ in self._draws(capsys, tmp_path)}
        # this seed reaches every documented exit
        assert codes == {0, 2, 3, 64}


class TestFuzzFloatRange(_CliFuzz):
    """The same kind of draws, with subnormal and near-overflow edge values."""

    SEED = 20062
    EDGES = ["5e-324", "1e-310", "1e-300", "1.7e308"]

    def test_no_ok_row_holds_a_non_finite_number(self, capsys, tmp_path):
        codes, ok_rows = set(), 0
        for argv, code, out in self._draws(capsys, tmp_path):
            codes.add(code)
            if code not in (0, 2):
                continue
            rows = json.loads(out)["rows"] if "json" in argv else parse_csv(out)[1]
            for row in rows:  # transform rows have no status: all must be finite
                if row.get("status", "ok") != "ok":
                    continue
                ok_rows += 1
                # a CSV cell is a string, a JSON one a float or None (null)
                numbers = [v for k, v in row.items() if k not in ("kind", "status")]
                assert all(v is not None and math.isfinite(float(v)) for v in numbers), (
                    argv, row)
        assert codes == {0, 2, 3, 64} and ok_rows > 100
