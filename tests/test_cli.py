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
        code, _, _ = run(capsys, ["omega", "--bogus"])
        assert code == 64
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
        assert err.count("\n") == 1 and "spin samples" in err

    def test_fw_check_step_range_is_usage_error(self, capsys):
        for steps in ("15", str(2**53 + 1), "10" * 20):
            code, _, err = run(
                capsys,
                ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5",
                 "--fw-check", steps],
            )
            assert code == 64, steps
            assert "Traceback" not in err


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


class TestCompare:
    def test_three_rows_with_expected_scalars(self, capsys):
        code, out, _ = run(capsys, ["compare", "--rho", "1", "--omega", "0.5"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["kind"] for r in rows] == ["gal", "tt", "mtt"]
        assert float(rows[0]["omega_closed"]) == pytest.approx(2.0 / 3.0, rel=1e-12)
        expected_tt = 0.5 * (math.sinh(0.5) * math.cosh(0.5) + 0.5)
        assert float(rows[1]["omega_closed"]) == pytest.approx(expected_tt, rel=1e-12)
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
        assert values[0] == pytest.approx(values[1], rel=1e-9)
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
        assert float(rows[0]["t"]) == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert float(rows[0]["phi"]) == pytest.approx(-math.sinh(1.0), rel=1e-15)

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
        assert doc["rows"][0]["t"] == pytest.approx(math.cosh(1.0), rel=1e-15)

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


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["compare", "--rho", "1", "--omega", "0.5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    path = tmp_path / "cmp.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == out


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
        ("1", "14", "increase --fw-check"),  # RK4 unstable: samples overflow
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

    def test_underflowed_difference_quotient_still_fails_the_self_check(self, capsys):
        # omega 1e-300: the period fits, the numeric scalar underflows to 0
        code, out, err = run(
            capsys, ["compare", "--rho", "1", "--omega", "1e-300", "--self-check"]
        )
        assert code == 2 and err.startswith("self-check failed: rel_err 1.000e+00")
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["ok"] * 3

    @pytest.mark.parametrize("argv", [
        ["--map", "gal", "--rho", "1", "--omega", "1e308", "--t", "1e10"],
        ["--map", "gal", "--direction", "inv", "--rho", "1", "--omega", "1e308",
         "--t", "1e10"],
        # c / rho overflows, not the rapidity 1e-310
        ["--map", "tt", "--rho", "1e-310", "--omega", "1", "--t", "1"],
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
    assert _render_csv("a,b", rows) == "\n".join(expected) + "\n"
    assert _render_csv("a,b", []) == "a,b\n"


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


def _fresh_interpreter(argv, cwd):
    """(exit code, stdout, stderr) of argv run first in a new interpreter."""
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(Path(rotframes.__file__).resolve().parents[1]),
        "COLUMNS": "80",
    }
    proc = subprocess.run([sys.executable, "-m", "rotframes", *argv], cwd=cwd,
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


class TestFuzz:
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

    def test_every_draw_ends_in_a_documented_exit(self, capsys):
        rng = np.random.default_rng(self.SEED)
        codes = set()
        for _ in range(self.DRAWS):
            argv = self._argv(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, argv)
            assert code in (0, 2, 3, 64), argv
            assert "Traceback" not in err, argv
            if code in (3, 64):
                assert out == "", argv
            codes.add(code)
        # this seed reaches every documented exit
        assert codes == {0, 2, 3, 64}
