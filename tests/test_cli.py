"""Command-line harness: commands, exit codes, serialization round-trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latgreen
from latgreen import GreenParams, OutputRecord, green_bessel, mass
from latgreen.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    rows = list(reader)
    header, body = rows[0], rows[1:]
    return header, body


def first_row(text):
    """The first data row of CSV output, as a dict keyed by column name."""
    header, body = parse_csv(text)
    return dict(zip(header, body[0]))


class TestEval:
    def test_closed_d1_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "0", "--method", "closed-d1",
        )
        assert code == 0
        rec = first_row(out)
        assert float(rec["value"]) == pytest.approx(0.5773503, abs=1e-7)
        assert rec["method"] == "closed_d1"

    def test_massless_d3_origin(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "3", "--a", "0", "--q", "1",
            "--x", "0,0,0", "--method", "bessel",
        )
        assert code == 0
        rec = first_row(out)
        assert float(rec["value"]) == pytest.approx(1.5163861, abs=1e-6)

    def test_bitwise_equality_with_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "2", "--a", "0.7", "--q", "1.5",
            "--x", "2,1", "--method", "bessel",
        )
        assert code == 0
        rec = first_row(out)
        lib = green_bessel(GreenParams(2, 0.7, 1.5), [2, 1])
        assert float(rec["value"]) == lib.value
        assert float(rec["log_value"]) == lib.log_value

    def test_divergent_case_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--d", "2", "--a", "0", "--q", "1",
            "--x", "0,0", "--method", "bessel",
        )
        assert code == 2
        assert "diverges" in err

    def test_usage_error_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "eval", "--d", "2", "--a", "1", "--q", "1",
                "--x", "0,0", "--method", "closed-d1",
            )
        assert exc.value.code == 64

    def test_missing_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "--d", "2", "--a", "1", "--q", "1")
        assert exc.value.code == 64

    def test_monte_carlo_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "0", "--method", "mc", "--walks", "20000", "--seed", "5",
        )
        assert code == 0
        rec = first_row(out)
        assert rec["method"] == "monte_carlo"
        value, est_error = float(rec["value"]), float(rec["est_error"])
        assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=5 * est_error)

    def test_monte_carlo_points_share_one_ensemble(self, capsys, monkeypatch):
        import latgreen.walk as walk_mod

        common = (
            "eval", "--d", "2", "--a", "0.5", "--q", "1", "--method", "mc",
            "--walks", "20000", "--seed", "7",
        )
        # one point per call: windows of half-width 3 and 5
        near = run_cli(capsys, *common, "--x", "1,0")[1].splitlines()
        far = run_cli(capsys, *common, "--x", "5,-2")[1].splitlines()

        ensembles = []
        run = walk_mod.run_killed_walks

        def counting_run(cfg):
            ensembles.append(cfg.max_box)
            return run(cfg)

        monkeypatch.setattr(walk_mod, "run_killed_walks", counting_run)
        code, out, _ = run_cli(capsys, *common, "--x", "1,0", "--x", "5,-2")
        assert code == 0
        assert ensembles == [5]
        assert out.splitlines() == near + far[2:]

    def test_monte_carlo_window_too_large_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--d", "3", "--a", "0.5", "--q", "1",
            "--x", "10000000,0,0", "--method", "mc",
        )
        assert code == 2
        assert out == ""
        assert "max_box" in err and "Traceback" not in err

    def test_multiple_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "0.5", "--q", "2",
            "--x", "0", "--x", "3", "--method", "closed-d1",
        )
        assert code == 0
        _, body = parse_csv(out)
        assert len(body) == 2

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "2", "--method", "closed-d1", "--json",
        )
        assert code == 0
        obj = json.loads(out.splitlines()[0])
        assert obj["x"] == [2]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "0", "--method", "closed-d1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# schema=1")


class TestNorm:
    def test_unit_vector(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--d", "3", "--a", "0.5", "--x", "1,0,0"
        )
        assert code == 0
        header, body = parse_csv(out)
        row = dict(zip(header, body[0]))
        assert float(row["norm"]) == pytest.approx(1.0, abs=1e-12)
        assert row["sandwich_ok"] == "True"

    def test_near_euclidean(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--d", "2", "--a", "0.01", "--x", "3,4"
        )
        header, body = parse_csv(out)
        row = dict(zip(header, body[0]))
        assert float(row["norm"]) == pytest.approx(5.0, abs=1e-3)

    def test_zero_vector(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--d", "1", "--a", "1", "--x", "0")
        assert code == 0
        header, body = parse_csv(out)
        row = dict(zip(header, body[0]))
        assert float(row["norm"]) == 0.0
        assert row["u"] == ""

    def test_nonpositive_killing_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--d", "1", "--a", "0", "--x", "1")
        assert code == 2

    def test_overflowing_killing_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "norm", "--d", "3", "--a", "1e300", "--x", "1,0,0"
        )
        assert code == 2
        assert out == ""
        assert "too large" in err

    @pytest.mark.parametrize("x, scale", [("1e200,1,0", 1e200), ("1e-200,0,0", 1e-200)])
    def test_extreme_point_is_homogeneous(self, capsys, x, scale):
        code, out, err = run_cli(capsys, "norm", "--d", "3", "--a", "0.5", "--x", x)
        assert code == 0
        assert err == ""
        header, body = parse_csv(out)
        row = dict(zip(header, body[0]))
        # |t e_1|_a = |t|; the 1 in the second coordinate is lost in rounding
        assert float(row["norm"]) == pytest.approx(scale, rel=1e-12)
        assert float(row["l2"]) == pytest.approx(scale, rel=1e-12)
        assert row["sandwich_ok"] == "True"


class TestBall:
    def test_axis_points_and_sandwich(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--d", "2", "--a", "20", "--points", "360"
        )
        assert code == 0
        header, body = parse_csv(out)
        pts = np.array([[float(r[1]), float(r[2])] for r in body])
        assert len(pts) == 360
        # axis direction appears with radius exactly 1
        assert pts[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert pts[0, 1] == 0.0
        l2 = np.linalg.norm(pts, axis=1)
        l1 = np.abs(pts).sum(axis=1)
        assert np.all(l2 <= 1.0 + 1e-10)
        assert np.all(l1 >= 1.0 - 1e-10)
        # diagonal point from the equal-coordinate closed form
        a = 20.0
        u = math.sqrt((1.0 + a * a) ** 2 - 1.0)
        want = math.sqrt(2.0) / (2.0 * math.asinh(u) / mass(2, a)) / math.sqrt(2.0)
        assert pts[45, 0] == pytest.approx(want, rel=1e-10)
        assert pts[45, 0] == pytest.approx(pts[45, 1], rel=1e-12)

    def test_small_killing_round(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--d", "2", "--a", "0.05", "--points", "100"
        )
        _, body = parse_csv(out)
        radii = [math.hypot(float(r[1]), float(r[2])) for r in body]
        assert max(abs(r - 1.0) for r in radii) < 1e-2

    def test_three_dimensional(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--d", "3", "--a", "1.0", "--points", "16"
        )
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["theta", "phi", "x1", "x2", "x3"]

    def test_unsupported_dimension(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "ball", "--d", "1", "--a", "1", "--points", "16")
        assert exc.value.code == 64

    def test_row_budget_refused_before_building(self, capsys):
        # 1e8 points in d = 3 are 5e15 rows: a numpy memory error before
        code, out, err = run_cli(
            capsys, "ball", "--d", "3", "--a", "1", "--points", "100000000"
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "row limit" in err


class TestAsy:
    def test_regime_one_converges(self, capsys):
        code, out, _ = run_cli(
            capsys, "asy", "--d", "1", "--q", "1", "--x", "1",
            "--a", "0.5", "--n-list", "1,2,4,8,16,32,64",
        )
        assert code == 0
        header, body = parse_csv(out)
        ratios = [
            float(dict(zip(header, r))["ratio"])
            for r in body
            if dict(zip(header, r))["regime"].startswith("I_")
        ]
        assert ratios[-1] == pytest.approx(1.0, abs=1e-9)

    def test_critical_regime_converges(self, capsys):
        code, out, _ = run_cli(
            capsys, "asy", "--d", "3", "--q", "1", "--x", "1,0,0",
            "--s", "0", "--n-list", "8,16,32,64",
        )
        assert code == 0
        header, body = parse_csv(out)
        ratios = [float(dict(zip(header, r))["ratio"]) for r in body]
        assert abs(ratios[-1] - 1.0) < 0.01
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_isotropic_tracking_with_vanishing_killing(self, capsys):
        # scan n with a_n = n^{-1/2}: the two OZ estimates approach 1
        gaps = []
        for n in (100, 10_000):
            a_n = n**-0.5
            code, out, _ = run_cli(
                capsys, "asy", "--d", "2", "--q", "1", "--x", "1,1",
                "--a", repr(a_n), "--n-list", str(n),
            )
            assert code == 0
            header, body = parse_csv(out)
            by_regime = {
                dict(zip(header, r))["regime"]: float(
                    dict(zip(header, r))["estimate_log"]
                )
                for r in body
            }
            gaps.append(
                abs(by_regime["II_isotropic_OZ"] - by_regime["I_anisotropic_OZ"])
            )
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.01

    def test_requires_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "asy", "--d", "1", "--q", "1", "--x", "1",
                "--a", "0.5", "--s", "1", "--n-list", "2",
            )
        assert exc.value.code == 64


class TestGbar:
    def test_curve_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "gbar", "--d", "1", "--x", "1", "--a-list", "0.25,0.5,1",
            "--y-range", "0.4:2.5", "--y-steps", "85",
        )
        assert code == 0
        header, body = parse_csv(out)
        rows = [dict(zip(header, r)) for r in body]
        for a in ("0.25", "0.5", "1.0"):
            curve = [r for r in rows if float(r["a"]) == float(a)]
            assert len(curve) == 85
            assert curve[0]["curve_convex"] == "True"
            assert abs(float(curve[0]["curve_min_y"]) - 1.0) < 0.015
        # minima ordered by killing strength, and the unit-killing minimum
        # equals arccosh(2)
        minima = {
            float(r["a"]): float(r["curve_min_value"]) for r in rows
        }
        assert minima[0.25] < minima[0.5] < minima[1.0]
        assert minima[1.0] == pytest.approx(math.acosh(2.0), abs=1e-4)

    def test_empty_grid_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "gbar", "--d", "1", "--x", "1", "--a-list", "1",
                "--y-range", "2:1", "--y-steps", "10",
            )
        assert exc.value.code == 64

    def test_row_budget_refused_before_building(self, capsys):
        # the y grid was allocated first: a numpy memory error at 1e12 steps
        code, out, err = run_cli(
            capsys, "gbar", "--d", "1", "--x", "1", "--a-list", "0.5,1",
            "--y-range", "0.4:2.5", "--y-steps", "1000000000000",
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "row limit" in err


class TestBound:
    def test_holds_with_frozen_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "3", "--q", "1", "--kappa", "0.5",
            "--kappa1", "0.6", "--a-grid", "0,0.25,1", "--box", "3",
        )
        assert code == 0
        header, body = parse_csv(out)
        row = dict(zip(header, body[0]))
        assert row["holds"] == "True"
        assert float(row["worst_ratio"]) < 1.0

    def test_violation_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "3", "--q", "1", "--kappa", "0.5",
            "--kappa1", "0.01", "--a-grid", "0.25", "--box", "2",
        )
        assert code == 1
        header, body = parse_csv(out)
        assert dict(zip(header, body[0]))["holds"] == "False"

    def test_higher_exponent_dimension_five(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "5", "--q", "2", "--kappa", "0.5",
            "--kappa1", "0.9", "--a-grid", "0,0.5", "--box", "2",
        )
        assert code == 0

    def test_kappa_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "bound", "--d", "3", "--q", "1", "--kappa", "1.5",
                "--kappa1", "1", "--a-grid", "0.5", "--box", "2",
            )
        assert exc.value.code == 64

    @pytest.mark.parametrize("d, box", [(3, 100_000), (10**9, 10**9)])
    def test_point_budget_refused_before_sweeping(self, capsys, d, box):
        # box 1e5 in d = 3 listed its 1.7e14 points first and ran out of memory
        code, out, err = run_cli(
            capsys, "bound", "--d", str(d), "--q", "1", "--kappa", "0.5",
            "--kappa1", "0.6", "--a-grid", "0,0.25,1,4", "--box", str(box),
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "point limit" in err


class TestRecordRoundTrip:
    @staticmethod
    def assert_floats_exact(rec, fields):
        # floats are written with repr: float() gives back every bit
        for name in ("a", "q", "s", "value", "log_value", "est_error"):
            want = getattr(rec, name)
            if want is None:
                assert fields[name] in ("", None), name
            else:
                assert float(fields[name]).hex() == want.hex(), name

    def test_csv(self):
        rec = OutputRecord(
            method="bessel_rep", d=3, a=0.25, q=1.5, s=None, n=17,
            x=(1, -2, 0), value=1.25e-7, log_value=-15.895,
            est_error=3.2e-16, regime="I_anisotropic_OZ",
        )
        fields = dict(zip(OutputRecord.csv_header(), rec.to_csv_row()))
        assert fields == {
            "method": "bessel_rep", "d": "3", "a": "0.25", "q": "1.5", "s": "",
            "n": "17", "x": "1,-2,0", "value": "1.25e-07", "log_value": "-15.895",
            "est_error": "3.2e-16", "regime": "I_anisotropic_OZ",
        }
        self.assert_floats_exact(rec, fields)

    @staticmethod
    def csv_round_trip(rec):
        """Write ``rec`` with ``csv`` and read it back as a dict of fields."""
        stream = io.StringIO()
        csv.writer(stream, lineterminator="\n").writerow(rec.to_csv_row())
        (row,) = csv.reader(io.StringIO(stream.getvalue()))
        assert row == rec.to_csv_row()
        return dict(zip(OutputRecord.csv_header(), row))

    def test_csv_file_eval_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "3", "--a", "0.5", "--q", "1",
            "--x", "2,-1,0", "--method", "bessel",
        )
        assert code == 0
        _, body = parse_csv(out)
        lib = green_bessel(GreenParams(3, 0.5, 1.0), [2, -1, 0])
        rec = OutputRecord(
            method=lib.method, d=3, a=0.5, q=1.0, s=None, n=None, x=(2, -1, 0),
            value=lib.value, log_value=lib.log_value, est_error=lib.est_error,
        )
        # lattice points are written as ints
        assert rec.to_csv_row() == body[0]
        fields = self.csv_round_trip(rec)
        assert fields["x"] == "2,-1,0"
        self.assert_floats_exact(rec, fields)

    def test_csv_file_norm_row(self):
        # the norm accepts real coordinates; they are written as floats
        rec = OutputRecord(
            method="a_norm", d=2, a=0.01, q=None, s=None, n=None,
            x=(3.0, -4.5), value=5.4, log_value=math.log(5.4),
            est_error=0.0, regime=None,
        )
        fields = self.csv_round_trip(rec)
        assert fields["x"] == "3.0,-4.5"
        assert tuple(float(c) for c in fields["x"].split(",")) == rec.x
        self.assert_floats_exact(rec, fields)

    def test_json(self):
        rec = OutputRecord(
            method="fourier", d=2, a=0.0, q=1.0, s=0.5, n=None,
            x=(4.0, 5.0), value=0.125, log_value=math.log(0.125),
            est_error=1e-12, regime=None,
        )
        obj = json.loads(rec.to_json())
        assert obj["params"] == {"d": 2, "a": 0.0, "q": 1.0, "s": 0.5, "n": None}
        assert (obj["method"], obj["x"], obj["regime"]) == ("fourier", [4.0, 5.0], None)
        self.assert_floats_exact(rec, {**obj["params"], **obj})

    def test_json_lines_parse(self):
        rec = OutputRecord(
            method="closed_d1", d=1, a=1.0, q=1.0, s=None, n=None,
            x=(0.0,), value=0.5, log_value=math.log(0.5), est_error=0.0,
        )
        obj = json.loads(rec.to_json())
        assert obj["params"]["d"] == 1


class TestEvalGuards:
    @pytest.mark.parametrize("method", ["bessel", "fourier", "closed-d1"])
    @pytest.mark.parametrize("x", [str(2**53), str(-(2**53)), str(2**63), str(2**64)])
    def test_coordinate_past_2_53_exits_2(self, capsys, method, x):
        code, out, err = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1", "--x", x,
            "--method", method,
        )
        assert (code, out) == (2, "")
        assert err == "latgreen: lattice coordinates must satisfy |x_j| < 2**53\n"

    def test_closed_d1_large_exponent(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1000",
            "--x", "5", "--method", "closed-d1",
        )
        assert code == 0
        rec = first_row(out)
        assert math.isfinite(float(rec["log_value"])) and float(rec["value"]) > 0.0

    def test_closed_d1_exponent_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1e300",
            "--x", "0", "--method", "closed-d1",
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and err.count("\n") == 1

    def test_mc_step_budget_exits_2(self, capsys):
        # 2000 walks at a = 0.003 expect about 2.2e8 steps
        code, out, err = run_cli(
            capsys, "eval", "--d", "1", "--a", "0.003", "--q", "1",
            "--x", "1", "--method", "mc", "--walks", "2000",
        )
        assert code == 2
        assert out == ""
        assert "budget" in err and err.count("\n") == 1

    def test_fourier_d1_massless(self, capsys):
        # the polar part of d = 1 runs on the two-point sphere
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "0", "--q", "0.25",
            "--x", "3", "--method", "fourier",
        )
        assert code == 0
        rec = first_row(out)
        lib = green_bessel(GreenParams(1, 0.0, 0.25), [3])
        assert float(rec["value"]) == pytest.approx(lib.value, rel=1e-9)


def _fresh_python(*args, env=None):
    """Run ``python *args`` in a fresh interpreter that imports this latgreen."""
    src = os.path.dirname(os.path.dirname(latgreen.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
    )


# Runs main(argv) and prints which of numpy and scipy it loaded.
_LOADED_BY_MAIN = """
import contextlib, io, json, sys
from latgreen.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})))
"""

_EVAL_BESSEL = ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1", "--method", "bessel"]


def _in_process(argv, env=None):
    """Exit code, stdout and stderr of ``main(argv)`` in this process, with
    ``env`` added to the environment."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"), mock.patch.dict(os.environ, env or {}):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestImport:
    def test_no_fft_import(self):
        code = "import sys, latgreen; print('scipy.fft' in sys.modules)"
        done = _fresh_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_package_import_loads_no_numpy(self):
        code = "import sys, latgreen; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        done = _fresh_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv, env, loaded",
        [
            (["norm", "--d", "3", "--a", "0.5", "--x", "1,2,0"], {}, ["numpy"]),
            (["ball", "--d", "3", "--a", "1.0", "--points", "48"], {}, ["numpy"]),
            (["eval", "--d", "3", "--a", "0.3", "--q", "1", "--method", "mc",
              "--walks", "100", "--x", "1,0,0"], {}, ["numpy"]),
            (["norm", "--d", "3", "--a", "-0.5", "--x", "1,0,0"], {}, ["numpy"]),
            (["eval", "--d", "2", "--a", "1", "--q", "1", "--x", "1,1",
              "--method", "closed-d1"], {}, []),
            (["eval", "--d", "3", "--a", "1", "--q", "1", "--method", "bessel"], {}, []),
            (_EVAL_BESSEL, {"LATGREEN_REL_TOL": "abc"}, []),
            (_EVAL_BESSEL, {}, ["numpy", "scipy"]),
        ],
        ids=["norm", "ball", "eval-mc", "norm-domain-error", "usage-error",
             "missing-flag", "malformed-env", "eval-bessel"],
    )
    def test_command_loads_only_what_it_runs(self, argv, env, loaded):
        done = _fresh_python("-c", _LOADED_BY_MAIN, *argv, env=env)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == loaded

    def test_every_public_name_resolves(self):
        for name in latgreen.__all__:
            assert getattr(latgreen, name) is not None, name
        assert set(latgreen.__all__) <= set(dir(latgreen))
        with pytest.raises(AttributeError):
            getattr(latgreen, "no_such_name")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--d", "1", "--a", "1", "--q", "2", "--x", "3", "--method", "closed-d1"],
            ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", str(2**64),
             "--method", "bessel"],
            ["norm", "--d", "2", "--a", "0.7", "--x", "1,0", "--json"],
            ["norm", "--d", "2", "--a", "0", "--x", "1,0"],
            ["ball", "--d", "2", "--a", "1", "--points", "8"],
            ["ball", "--d", "4", "--a", "1", "--points", "8"],
            ["asy", "--d", "1", "--q", "1", "--x", "1", "--a", "1", "--n-list", "1,2"],
            ["asy", "--d", "1", "--q", "1", "--x", "1", "--a", "1", "--s", "1",
             "--n-list", "1"],
            ["gbar", "--d", "2", "--x", "1,0", "--a-list", "0.5", "--y-range", "0.5:2",
             "--y-steps", "3"],
            ["gbar", "--d", "1", "--x", "1", "--a-list", "1", "--y-range", "0.5:1:2",
             "--y-steps", "5"],
            ["bound", "--d", "3", "--q", "1", "--kappa", "0.3", "--kappa1", "1",
             "--a-grid", "0.3", "--box", "1"],
            ["bound", "--d", "3", "--q", "1", "--kappa", "0.5", "--kappa1", "0.01",
             "--a-grid", "0.25", "--box", "2"],
        ],
        ids=["eval-ok", "eval-domain", "norm-ok", "norm-domain", "ball-ok",
             "ball-usage", "asy-ok", "asy-usage", "gbar-ok", "gbar-usage", "bound-ok",
             "bound-violated"],
    )
    def test_module_run_matches_main(self, argv):
        done = _fresh_python("-m", "latgreen.cli", *argv)
        assert (done.returncode, done.stdout, done.stderr) == _in_process(argv)


class TestEnvironment:
    def test_rel_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LATGREEN_REL_TOL", "1e-8")
        code, out, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "1", "--method", "bessel",
        )
        assert code == 0
        rec = first_row(out)
        lib = green_bessel(GreenParams(1, 1.0, 1.0), [1])
        assert float(rec["value"]) == pytest.approx(lib.value, rel=1e-7)

    def test_malformed_rel_tol_env_exits_64(self, capsys, monkeypatch):
        monkeypatch.setenv("LATGREEN_REL_TOL", "abc")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
                "--x", "1", "--method", "bessel",
            )
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert "LATGREEN_REL_TOL" in captured.err

    def test_rel_tol_flag_wins_over_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATGREEN_REL_TOL", "abc")
        code, _, _ = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "1", "--method", "bessel", "--rel-tol", "1e-10",
        )
        assert code == 0

    def test_norm_ignores_rel_tol_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATGREEN_REL_TOL", "abc")
        code, out, err = run_cli(
            capsys, "norm", "--d", "3", "--a", "0.5", "--x", "1,0,0"
        )
        assert code == 0
        assert err == ""
        _, body = parse_csv(out)
        assert len(body) == 1


_REL_TOL_COMMANDS = {
    "eval-bessel": ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
                    "--method", "bessel"],
    "eval-fourier": ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
                     "--method", "fourier"],
    "eval-closed-d1": ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
                       "--method", "closed-d1"],
    "eval-mc": ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
                "--method", "mc", "--walks", "10"],
    "asy": ["asy", "--d", "1", "--q", "1", "--x", "1", "--a", "1", "--n-list", "1"],
}


class TestRelTolRange:
    """An out-of-range tolerance is a domain error (exit 2) for every method."""

    @staticmethod
    def assert_rejected(code, out, err):
        assert (code, out, err) == (2, "", "latgreen: rel_tol must lie in (0, 1e-6]\n")

    @pytest.mark.parametrize("command", sorted(_REL_TOL_COMMANDS))
    @pytest.mark.parametrize("rel_tol", ["0", "-1e-12", "nan", "inf", "1e-3"])
    def test_flag(self, capsys, command, rel_tol):
        argv = [*_REL_TOL_COMMANDS[command], f"--rel-tol={rel_tol}"]
        self.assert_rejected(*run_cli(capsys, *argv))

    @pytest.mark.parametrize("command", sorted(_REL_TOL_COMMANDS))
    def test_environment(self, capsys, monkeypatch, command):
        monkeypatch.setenv("LATGREEN_REL_TOL", "1e-3")
        self.assert_rejected(*run_cli(capsys, *_REL_TOL_COMMANDS[command]))


class TestAccuracyExitCode:
    def test_accuracy_error_exits_3(self, capsys, monkeypatch):
        import latgreen.cli as cli_mod
        from latgreen import AccuracyError

        def boom(*args, **kwargs):
            raise AccuracyError("synthetic quadrature failure", best=None)

        monkeypatch.setattr(cli_mod, "green_bessel", boom)
        code, _, err = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "0", "--method", "bessel",
        )
        assert code == 3
        assert "accuracy" in err

    @pytest.mark.parametrize(
        "d, q, x", [("1", "1", "1"), ("3", "2", "1,0,0")]
    )
    def test_peak_at_quadrature_cut_off_exits_3(self, capsys, d, q, x):
        # a = 1e-300 squares to 0: the integrand still rises at t = exp(700)
        code, out, err = run_cli(
            capsys, "eval", "--d", d, "--a", "1e-300", "--q", q,
            "--x", x, "--method", "bessel",
        )
        assert code == 3
        assert out == ""
        assert "cut-off" in err and "Traceback" not in err

    @pytest.mark.parametrize("a", ["1e-300", "1e-160"])
    def test_tiny_killing_divergent_limit_exits_3(self, capsys, a):
        # a^2 underflows to 0 and the massless integral diverges at d = 2q
        code, out, err = run_cli(
            capsys, "eval", "--d", "2", "--a", a, "--q", "1",
            "--x", "4,1", "--method", "bessel",
        )
        assert (code, out) == (3, "")
        assert err == "latgreen: accuracy error: quadrature needs more than 200000 nodes\n"

    def test_fourier_grid_over_budget_exits_3(self, capsys, monkeypatch):
        import latgreen.lattice as lat

        monkeypatch.setattr(lat, "_FOURIER_GRID_BYTES", 0)
        code, out, err = run_cli(
            capsys, "eval", "--d", "2", "--a", "1", "--q", "1",
            "--x", "1,0", "--method", "fourier",
        )
        assert code == 3
        assert out == ""
        assert "budget" in err

    def test_domain_error_exits_2(self, capsys, monkeypatch):
        import latgreen.cli as cli_mod
        from latgreen import DomainError

        def boom(*args, **kwargs):
            raise DomainError("synthetic domain failure")

        monkeypatch.setattr(cli_mod, "green_bessel", boom)
        code, _, err = run_cli(
            capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
            "--x", "0", "--method", "bessel",
        )
        assert code == 2
        assert "synthetic domain failure" in err

    def test_untyped_error_is_not_a_domain_error(self, capsys, monkeypatch):
        import latgreen.cli as cli_mod

        def bug(*args, **kwargs):
            raise ValueError("not a latgreen error")

        monkeypatch.setattr(cli_mod, "green_bessel", bug)
        with pytest.raises(ValueError):
            run_cli(
                capsys, "eval", "--d", "1", "--a", "1", "--q", "1",
                "--x", "0", "--method", "bessel",
            )


_NUMBER_TEXT = ["0", "1e-300", "1e300", "nan", "inf", "-inf", "-1", "0.3", "1", "2.5"]
# The largest coordinate inside the 2**53 bound, and four past it: the int64
# extremes and 2**64, which no int64 holds.
_HUGE_COORDINATES = [str(2**53 - 1), str(2**53), str(-(2**63)), str(2**63 - 2), str(2**64)]


@st.composite
def _argv(draw):
    """(argv, environment) for eval, norm, asy and ball, as drawn by
    ``_command_argv``, with an optional ``--json``, an optional
    ``--out {out}`` (the test fills in the path) and an optional
    ``LATGREEN_REL_TOL``."""
    argv = draw(_command_argv())
    argv += draw(st.sampled_from([[], ["--json"]]))
    argv += draw(st.sampled_from([[], ["--out", "{out}"]]))
    rel_tol = st.sampled_from([*_NUMBER_TEXT, "abc"])
    env = draw(st.one_of(st.just({}), rel_tol.map(lambda r: {"LATGREEN_REL_TOL": r})))
    return argv, env


@st.composite
def _command_argv(draw):
    """argv for eval (bessel, closed-d1, mc), norm, asy and ball; small inputs,
    and huge eval coordinates.

    eval and asy may carry a ``--rel-tol``.
    """
    command = draw(st.sampled_from(["eval", "norm", "asy", "ball"]))
    d = draw(st.integers(min_value=0, max_value=4))
    a = draw(st.sampled_from(_NUMBER_TEXT))
    if command == "ball":
        points = draw(st.sampled_from(["0", "8", "12", "nan"]))
        return ["ball", "--d", str(d), "--a", a, "--points", points]
    coord = st.integers(min_value=-20, max_value=20).map(str)
    if command == "norm":
        coord = st.one_of(coord, st.sampled_from(["nan", "inf", "0.5", "-1e-300"]))
    if command == "eval":
        coord = st.one_of(coord, st.sampled_from(_HUGE_COORDINATES))
    x = ["--x", ",".join(draw(st.lists(coord, min_size=max(d, 1), max_size=max(d, 1) + 1)))]
    if command == "norm":
        return ["norm", "--d", str(d), "--a", a, *x]
    q = draw(st.sampled_from(["0", "0.5", "1", "2", "nan", "inf", "-1"]))
    rel_tol = st.one_of(
        st.just([]), st.sampled_from(_NUMBER_TEXT).map(lambda r: [f"--rel-tol={r}"])
    )
    if command == "eval":
        method = draw(st.sampled_from(["bessel", "closed-d1", "mc"]))
        argv = ["eval", "--d", str(d), "--a", a, "--q", q, *x, "--method", method]
        if method == "closed-d1":
            big_q = draw(st.sampled_from([q, "1000", "10000", "10001", "1e300"]))
            argv[argv.index("--q") + 1] = big_q
        if method == "mc":
            # tiny a: 200 walks at a = 0.001 expect 2e8 steps, over the budget
            argv[argv.index("--a") + 1] = draw(st.sampled_from([a, "0.001", "0.02", "1e-300"]))
            argv += ["--walks", str(draw(st.integers(min_value=-1, max_value=200)))]
        return argv + draw(rel_tol)
    n_list = ",".join(draw(st.lists(st.sampled_from(["0", "1", "2", "-1"]),
                                    min_size=1, max_size=2)))
    mode = draw(st.sampled_from([["--a", a], ["--s", a]]))
    argv = ["asy", "--d", str(d), "--q", q, *x, *mode, "--n-list", n_list]
    return argv + draw(rel_tol)


@st.composite
def _argv_sweeps(draw):
    """argv for gbar, bound (box <= 3) and eval --method fourier (d <= 2)."""
    command = draw(st.sampled_from(["gbar", "bound", "fourier"]))
    number = st.sampled_from(_NUMBER_TEXT)
    if command == "bound":
        a_grid = ",".join(draw(st.lists(number, min_size=1, max_size=2)))
        return [
            "bound", "--d", str(draw(st.integers(min_value=-1, max_value=4))),
            "--q", draw(st.sampled_from(["0", "1", "2", "-1"])),
            "--kappa", draw(number), "--kappa1", draw(number),
            "--a-grid", a_grid, "--box", str(draw(st.integers(min_value=-1, max_value=3))),
        ]
    if command == "gbar":
        d = draw(st.integers(min_value=0, max_value=4))
        coord = st.sampled_from(["0", "1", "2", "-3", "0.5", "nan", "inf", "1e300"])
        x = ",".join(draw(st.lists(coord, min_size=max(d, 1), max_size=max(d, 1) + 1)))
        return [
            "gbar", "--d", str(d), "--x", x,
            "--a-list", ",".join(draw(st.lists(number, min_size=1, max_size=2))),
            "--y-range", draw(st.sampled_from(
                ["0.5:2", "2:0.5", "0:1", "nan:1", "1e-300:1", "0.1:1e300", "1", "0.5:1:2"]
            )),
            "--y-steps", draw(st.sampled_from(["-1", "0", "2", "5", "40"])),
        ]
    d = draw(st.sampled_from([0, 1, 2, 4]))
    coord = st.integers(min_value=-3, max_value=3).map(str)
    x = ",".join(draw(st.lists(coord, min_size=max(d, 1), max_size=max(d, 1) + 1)))
    q = draw(st.sampled_from(["0", "0.5", "1", "2", "nan", "inf", "-1"]))
    return ["eval", "--d", str(d), "--a", draw(number), "--q", q, "--x", x,
            "--method", "fourier"]


def _assert_in_contract(argv, env=None, out_path=None):
    if out_path is not None:
        out_path.unlink(missing_ok=True)
        argv = [str(out_path) if arg == "{out}" else arg for arg in argv]
    code, out, _ = _in_process(argv, env)
    assert code in (0, 1, 2, 3, 64), (argv, env)
    if code == 0:
        if out_path is not None and out_path.exists():
            assert out == "", argv
            out = out_path.read_text()
        assert "nan" not in out and "NaN" not in out, (argv, env)


@pytest.fixture(scope="class")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "out.txt"


class TestErrorContractFuzz:
    @given(case=_argv())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_in_contract(self, case, out_path):
        argv, env = case
        _assert_in_contract(argv, env, out_path)

    @given(argv=_argv_sweeps())
    @settings(max_examples=150, deadline=None)
    def test_sweeps_and_fourier_exit_code_in_contract(self, argv):
        _assert_in_contract(argv)

    @pytest.mark.parametrize(
        "argv, want",
        [
            # a malformed range escaped as an unpacking ValueError
            (["gbar", "--d", "1", "--x", "1", "--a-list", "1",
              "--y-range", "0.5:1:2", "--y-steps", "5"], 64),
            # no dimension left nothing to check: nan on stdout, exit 0
            (["bound", "--d", "0", "--q", "1", "--kappa", "0.3", "--kappa1", "1",
              "--a-grid", "0.3", "--box", "1"], 2),
            # a negative dimension recursed without end
            (["bound", "--d", "-1", "--q", "1", "--kappa", "0.3", "--kappa1", "1",
              "--a-grid", "0.3", "--box", "1"], 2),
            # a nan constant made every ratio nan: nan on stdout, exit 0
            (["bound", "--d", "3", "--q", "1", "--kappa", "0.3", "--kappa1", "nan",
              "--a-grid", "0.3", "--box", "1"], 2),
            # the mass of a = 1e-300 is finite, so the q = 2 value overflows
            (["eval", "--d", "1", "--a", "1e-300", "--q", "2", "--x", "2",
              "--method", "closed-d1"], 3),
            # an --out that cannot be opened raised IsADirectoryError or
            # FileNotFoundError, which exited 1 (bound violated)
            (["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
              "--method", "bessel", "--out", "{tmp}"], 64),
            (["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
              "--method", "bessel", "--out", "{tmp}/missing/out.csv"], 64),
            (["bound", "--d", "3", "--q", "1", "--kappa", "0.3", "--kappa1", "1",
              "--a-grid", "0.3", "--box", "1", "--out", "{tmp}"], 64),
            (["bound", "--d", "3", "--q", "1", "--kappa", "0.3", "--kappa1", "1",
              "--a-grid", "0.3", "--box", "1", "--out", "{tmp}/missing/out.csv"], 64),
            # a coordinate of 2**64 made np.round fail on an object array: an
            # untyped TypeError, exit 1
            (["eval", "--d", "1", "--a", "1", "--q", "1", "--x", str(2**64),
              "--method", "bessel"], 2),
            # 2**63 wrapped in the int64 cast and was refused as a bad order
            (["eval", "--d", "1", "--a", "1", "--q", "1", "--x", str(2**63),
              "--method", "bessel"], 2),
            # x + q - i overflowed int64 in the closed form: OverflowError, exit 1
            (["eval", "--d", "1", "--a", "1", "--q", "2", "--x", str(2**63 - 2),
              "--method", "closed-d1"], 2),
            # the log rounding floor accepted logs 2e7 and 1.2e5 off: exit 0
            (["eval", "--d", "1", "--a", "1", "--q", "1", "--x", str(10**15),
              "--method", "bessel"], 3),
            (["eval", "--d", "1", "--a", "1", "--q", "1", "--x", str(2**53 - 1),
              "--method", "bessel"], 3),
            # argparse took a comma list with a leading minus sign for a flag
            (["eval", "--d", "2", "--a", "1", "--q", "1", "--x", "-1,0",
              "--method", "bessel"], 0),
        ],
    )
    def test_found_cases(self, argv, want, tmp_path):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, _ = _in_process(argv)
        assert code == want
        assert (out == "") == (want != 0)

    def test_negative_comma_list_reads_as_value(self):
        spaced = _in_process(["eval", "--d", "2", "--a", "1", "--q", "1",
                              "--x", "-1,0", "--method", "bessel"])
        joined = _in_process(["eval", "--d", "2", "--a", "1", "--q", "1",
                              "--x=-1,0", "--method", "bessel"])
        assert spaced == joined
        assert spaced[0] == 0
