"""Command-line interface: formats, round trips, exit codes."""
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import susy_ces
from susy_ces import cli
from susy_ces import closedform as cf
from susy_ces import potential, verify
from susy_ces.cli import main
from susy_ces.potential import Sector

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself requires tomli before Python 3.11
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _csv_writer_text(header, rows):
    """The CSV a csv.writer prints: LF line ends, %.17g floats."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([["%.17g" % v for v in r] for r in rows])
    return buf.getvalue()


_EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e22, 1e-7]


@pytest.mark.parametrize("header", [
    ["x", "V", "Z_re", "Z_im", "dZ_re", "dZ_im"],      # table
    ["x", "difference", "accelerated"],                # phase --format csv
    ["x", "W"], ["x", "V"],                            # figures
])
def test_csv_text_is_the_csv_writers_bytes(header):
    n = len(header)
    rows = [tuple(_EDGE_FLOATS[(i + j) % len(_EDGE_FLOATS)] for j in range(n))
            for i in range(len(_EDGE_FLOATS))]
    assert cli._csv_text(header, rows) == _csv_writer_text(header, rows)
    assert cli._csv_text(header, []) == _csv_writer_text(header, [])


# ---------------------------------------------------------------------------
# table


def test_table_csv_round_trip(runner):
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "1"])
    assert res.exit_code == 0
    header, rows = parse_csv(res.output)
    assert header == ["x", "V", "Z_re", "Z_im", "dZ_re", "dZ_im"]
    assert len(rows) == 50
    xs = np.array([float(r[0]) for r in rows])
    assert np.all(np.diff(xs) > 0)
    assert xs[0] == 0.1 and xs[-1] == 10.0
    # %.17g output round-trips doubles exactly: cross-check a full row
    p = cf.solution_params(1.0, 1.0)
    z = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, xs)
    v = potential.V(xs, 1.0, Sector.MINUS)
    for i in (0, 24, 49):
        assert float(rows[i][1]) == float(v[i])
        assert float(rows[i][2]) == float(z.value[i].real)
        assert float(rows[i][5]) == float(z.derivative[i].imag)


def test_table_json_payload(runner):
    res = runner.invoke(main, ["table", "--m", "2", "--omega", "0.5",
                               "--sector", "plus", "--branch", "II",
                               "--points", "7", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["m"] == 2.0 and payload["omega"] == 0.5
    assert payload["sector"] == "plus" and payload["branch"] == "II"
    assert len(payload["rows"]) == 7
    assert set(payload["rows"][0]) == {"x", "V", "Z_re", "Z_im", "dZ_re", "dZ_im"}
    x0 = payload["rows"][0]["x"]
    assert payload["rows"][0]["V"] == float(potential.V(x0, 2.0, Sector.PLUS))


def test_table_log_spacing(runner):
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "1",
                               "--x-min", "0.01", "--x-max", "10",
                               "--points", "4", "--spacing", "log"])
    assert res.exit_code == 0
    _, rows = parse_csv(res.output)
    xs = [float(r[0]) for r in rows]
    ratios = [xs[i + 1] / xs[i] for i in range(3)]
    assert ratios == pytest.approx([10.0, 10.0, 10.0], rel=1e-12)


def test_table_log_spacing_ends_on_the_requested_bounds(runner):
    # x_max = 30/omega puts |y| = 2 omega x_max at 60 after rounding: a log
    # grid formed as 10**log10(x_max) overshot it by an ulp and was refused
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "0.502", "--x-min", "0.1",
                               "--x-max", "59.7609561752988", "--points", "50",
                               "--spacing", "log"])
    assert res.exit_code == 0, res.output
    _, rows = parse_csv(res.output)
    assert len(rows) == 50
    assert float(rows[0][0]) == 0.1 and float(rows[-1][0]) == 59.7609561752988
    assert rows[-1][0] == "59.760956175298801"


def test_table_refusal_prints_the_largest_y_in_full(runner):
    # at omega = 1/2, |y| = x: one ulp past 60 must not read as 60
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "0.5",
                               "--x-max", "60.00000000000001"])
    assert res.exit_code == 2
    assert "max|z| = 60.00000000000001 exceeds the series bound 60;" in res.stderr


def test_table_writes_file(runner, tmp_path):
    out = tmp_path / "t.csv"
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "1",
                               "--points", "3", "--out", str(out)])
    assert res.exit_code == 0
    header, rows = parse_csv(out.read_text())
    assert header[0] == "x" and len(rows) == 3


def test_table_readme_example(runner):
    # the argument list of the README's table example
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "1", "--branch", "I",
                               "--sector", "plus", "--x-min", "0.1", "--x-max", "10",
                               "--points", "50", "--format", "csv"])
    assert res.exit_code == 0, res.output
    _, rows = parse_csv(res.output)
    assert len(rows) == 50


def test_table_usage_errors(runner):
    for args in (["--points", "1"], ["--x-min", "0"], ["--x-min", "5", "--x-max", "2"]):
        res = runner.invoke(main, ["table", "--m", "1", "--omega", "1"] + args)
        assert res.exit_code == 2, args


def test_table_far_region_is_a_config_error(runner):
    res = runner.invoke(main, ["table", "--m", "1", "--omega", "1", "--x-max", "1000"])
    assert res.exit_code == 2
    assert "exceeds the series bound" in res.stderr
    assert "phase_difference reads the pair through the large-|y| expansion" in res.stderr


def test_table_beyond_the_double_range_is_a_typed_error(runner):
    res = runner.invoke(main, ["table", "--m", "120", "--omega", "0.5",
                               "--x-min", "13", "--x-max", "14", "--points", "2"])
    assert res.exit_code == 2
    assert "error:" in res.stderr
    assert "double range" in res.stderr


@pytest.mark.parametrize("args, msg", [
    # V at x = 1e-220 divides by x sqrt(x) = 0; at 1e-210 V_- is -inf, and
    # at m = 1e150, x = 1e-10 m^2/x is +inf
    (["--m", "1", "--omega", "1", "--x-min", "1e-220", "--x-max", "1e-219"],
     "is not a finite double"),
    (["--m", "1", "--omega", "1", "--x-min", "1e-220", "--x-max", "1e-219",
      "--format", "json"], "is not a finite double"),
    (["--m", "1", "--omega", "1", "--sector", "minus", "--x-min", "1e-210",
      "--x-max", "1e-209", "--format", "json"], "is not a finite double"),
    (["--m", "1e150", "--omega", "1", "--x-min", "1e-10", "--x-max", "1e-9"],
     "is not a finite double"),
    # eta = 5e299 at |y| ~ 2e-100, V finite: the series' terms grow past its budget
    (["--m", "1e100", "--omega", "1e-100", "--x-min", "1", "--x-max", "2"],
     "cannot converge within")])
def test_table_refusals_exit_two(runner, args, msg):
    res = runner.invoke(main, ["table", "--points", "2", *args])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and msg in res.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_specfun_json(runner):
    res = runner.invoke(main, ["verify", "--suite", "specfun", "--format", "json"])
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert len(reports) == 6
    assert all(r["passed"] for r in reports)
    assert all(set(r) == {"name", "passed", "max_error", "tolerance", "details"}
               for r in reports)


def test_verify_text_and_failure_exit(runner, monkeypatch):
    # a suite of one check that passes and one that misses its tolerance
    missed = verify._report("demo/missed", 2.0, 1.0, "synthetic miss")
    monkeypatch.setitem(verify.SUITES, "specfun",
                        (verify.check_golden_table, lambda: missed))
    res = runner.invoke(main, ["verify", "--suite", "specfun"])
    assert res.exit_code == 1
    assert res.output.count("FAIL") == 1
    assert "FAIL  demo/missed" in res.output
    assert "PASS  specfun/golden-table" in res.output
    assert "1/2 checks passed" in res.output


def test_verify_json_is_strict_where_a_check_reports_inf(runner, monkeypatch):
    # a check that compares nothing reports inf (asymptotic-overlap, when its
    # pair refuses every value): JSON carries null, not the non-JSON Infinity
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    empty = verify._report("demo/empty", math.inf, 1.0, "nothing compared")
    monkeypatch.setitem(verify.SUITES, "specfun", (verify.check_golden_table, lambda: empty))
    res = runner.invoke(main, ["verify", "--suite", "specfun", "--format", "json"])
    assert res.exit_code == 1
    reports = {r["name"]: r for r in json.loads(res.stdout, parse_constant=refuse)}
    assert reports["demo/empty"]["max_error"] is None
    assert reports["specfun/golden-table"]["max_error"] == 0.0


def test_verify_takes_no_tolerance(runner):
    # every check keeps its own tolerance: no option can replace it
    assert [o for p in cli.verify.params for o in p.opts] == ["--suite", "--format", "--out"]
    res = runner.invoke(main, ["verify", "--help"])
    assert res.exit_code == 0
    assert "tol" not in res.output


def test_verify_suite_choices_are_the_suites():
    choices = next(p.type.choices for p in cli.verify.params if p.name == "suite")
    assert list(choices) == [*verify.SUITES, "all"]


def test_verify_pass_text(runner):
    res = runner.invoke(main, ["verify", "--suite", "specfun"])
    assert res.exit_code == 0
    assert "6/6 checks passed" in res.output
    assert "FAIL" not in res.output


def test_verify_unknown_suite(runner):
    res = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert res.exit_code == 2


def test_verify_honours_golden_dir_override(runner, tmp_path):
    from susy_ces import specfun as sf
    src = sf.golden_dir() / "chf.csv"
    lines = src.read_text().splitlines()
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) + 1e-3)  # corrupt one frozen value
    lines[1] = ",".join(fields)
    (tmp_path / "chf.csv").write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["verify", "--suite", "specfun"],
                        env={"SUSY_CES_GOLDEN_DIR": str(tmp_path)})
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert "golden" in res.output


# ---------------------------------------------------------------------------
# phase


def test_phase_text_converged(runner):
    res = runner.invoke(main, ["phase", "--m", "0.5", "--omega", "2"])
    assert res.exit_code == 0
    assert "converged: True" in res.output
    assert "x_match=10" in res.output


def test_phase_csv(runner):
    res = runner.invoke(main, ["phase", "--m", "0.5", "--omega", "2",
                               "--format", "csv"])
    assert res.exit_code == 0
    header, rows = parse_csv(res.output)
    assert header == ["x", "difference", "accelerated"]
    assert math.isfinite(float(rows[0][2]))   # every rung carries its corrected value
    assert float(rows[0][0]) == 20.0
    assert abs(float(rows[-1][2]) - 0.5 * math.pi) < 1e-3


def test_phase_json(runner):
    res = runner.invoke(main, ["phase", "--m", "0.5", "--omega", "2",
                               "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["converged"] is True
    assert abs(payload["estimate"] - 0.5 * math.pi) < 1e-3
    assert payload["x_match"] == 10.0
    assert len(payload["raw"]) == len(payload["x"])
    assert len(payload["accelerated"]) == len(payload["x"])
    # the proven bound at the last rung, arcsin(m^2/(omega^2 x)), covers the error;
    # every rung is read from the closed form, so no ODE work is reported
    assert payload["bound"] == math.asin(0.0625 / payload["x"][-1])
    assert abs(payload["estimate"] - 0.5 * math.pi) <= payload["bound"]
    assert "ode_steps" not in payload and "ode_rejected" not in payload


def test_phase_text_prints_the_proven_bound(runner):
    # the residual is an estimate; the bound, the proven distance from pi/2,
    # is printed next to it, the same number JSON carries
    args = ["phase", "--m", "0.5", "--omega", "2"]
    text = runner.invoke(main, args)
    payload = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
    assert text.exit_code == 0
    line = next(ln for ln in text.output.splitlines() if ln.startswith("estimate:"))
    assert "residual: " in line and f"bound: {payload['bound']:.3e}" in line


@pytest.mark.parametrize("m, omega, first", [("1e200", "1e300", "1.375e-101"),
                                             ("1e160", "1e200", "1.375e+39"),
                                             ("0.5", "2", "20")])
def test_phase_text_keeps_each_rungs_exponent(runner, m, omega, first):
    # x prints to 12 significant digits with its exponent: a rung at
    # 1.375e-101 does not print as 0.0, nor one at 1.375e39 as 40 digits
    args = ["phase", "--m", m, "--omega", omega]
    text = runner.invoke(main, args)
    xs = json.loads(runner.invoke(main, args + ["--format", "json"]).output)["x"]
    assert text.exit_code == 0
    rows = text.output.splitlines()[2:2 + len(xs)]
    assert rows[0].split()[0] == first
    for row, x in zip(rows, xs):
        assert float(row.split()[0]) == pytest.approx(x, rel=1e-11)


def test_phase_json_is_strict_before_the_third_rung(runner):
    # at tol = 0.01 the ladder stops at x = 20 after one rung, before the
    # three-rung spread exists: the residual is null, not the non-JSON Infinity
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    res = runner.invoke(main, ["phase", "--m", "0.5", "--omega", "2",
                               "--tol", "0.01", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout, parse_constant=refuse)
    assert payload["residual"] is None and payload["converged"] is True
    assert len(payload["x"]) < 3


def test_phase_beyond_series_range_prints_ladder_and_exits_1(runner):
    # default x_match = 40 puts |y| = 80 past the series bound; the rungs are
    # read from the large-|y| expansion, and the ladder converges (exit 0)
    res = runner.invoke(main, ["phase", "--m", "4", "--omega", "1"])
    assert res.exit_code == 0
    assert "series bound" not in res.stderr
    assert "x_match=40" in res.output
    assert "converged: True" in res.output


def test_phase_has_no_budget_option():
    # the proven bound is the ladder's only stop: tol is its one knob
    assert [o for p in cli.phase.params for o in p.opts] == ["--m", "--omega", "--tol",
                                                            "--format", "--out"]


@pytest.mark.parametrize("omega", ["1e-300", "1e-160"])
def test_phase_rungs_past_the_double_range_exit_2(runner, omega):
    # x_match = 2.5 m^2/omega^2 is past the largest double
    res = runner.invoke(main, ["phase", "--m", "1", "--omega", omega])
    assert res.exit_code == 2
    assert "rungs x_match 2^k pass the largest double" in res.stderr
    assert res.stdout == ""


def test_phase_rungs_past_the_double_range_in_y_exit_2(runner):
    res = runner.invoke(main, ["phase", "--m", "1.4e130", "--omega", "1e100"])
    assert res.exit_code == 2
    assert "in |y| = 2 omega x_k" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("m, omega", [("1e-9", "1"), ("1", "1e300")])
def test_phase_at_vanishing_eta(runner, m, omega):
    res = runner.invoke(main, ["phase", "--m", m, "--omega", omega, "--format", "json"])
    assert res.exit_code == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["converged"] is True
    assert abs(out["estimate"] - 0.5 * math.pi) <= 1e-3


def test_phase_past_the_double_range_of_eta_exits_2(runner):
    # eta = 5e299 is a double, but the first rung's |y| = 1.1 eta^2 is not
    res = runner.invoke(main, ["phase", "--m", "1e300", "--omega", "1e300"])
    assert res.exit_code == 2
    assert "rungs x_match 2^k pass the largest double" in res.stderr
    assert "|y| = 2 omega x_k at m=1e+300, omega=1e+300" in res.stderr
    assert res.stdout == ""


def test_phase_tol_at_the_rounding_floor_exits_2(runner):
    # the bound does not cover a rung's own rounding, a few eps
    res = runner.invoke(main, ["phase", "--m", "0.5", "--omega", "2", "--tol", "1e-13"])
    assert res.exit_code == 2
    assert "TOL_FLOOR = 2^-40 = 9.095e-13" in res.stderr
    assert res.stdout == ""


def test_phase_invalid_params_exit_2(runner):
    res = runner.invoke(main, ["phase", "--m", "-1", "--omega", "2"])
    assert res.exit_code == 2
    assert "error:" in res.stderr


# ---------------------------------------------------------------------------
# figures


def test_figures_writes_curve_files(runner, tmp_path):
    res = runner.invoke(main, ["figures", "--out-dir", str(tmp_path),
                               "--points", "60"])
    assert res.exit_code == 0
    names = ["fig1_w_m+1.csv", "fig1_w_m-1.csv", "fig2_vplus_m2.csv",
             "fig2_vminus_m2.csv"]
    for name in names:
        assert (tmp_path / name).exists()
        assert f"wrote {tmp_path / name}" in res.output
        header, rows = parse_csv((tmp_path / name).read_text())
        assert len(rows) == 60
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
    w1 = [float(r[1]) for r in parse_csv((tmp_path / names[0]).read_text())[1]]
    assert all(v < 0 for v in w1)


def test_figures_rejects_single_point(runner, tmp_path):
    res = runner.invoke(main, ["figures", "--out-dir", str(tmp_path),
                               "--points", "1"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# console-script entry point (real process, real exit codes)


def run_entry_point(*args):
    """Run the ``susy-ces`` console script in a fresh interpreter.

    The target comes from ``[project.scripts]`` in ``pyproject.toml`` and is
    launched the way pip's generated wrapper launches it, so no installed
    script is needed and a broken declaration still fails.  The source root
    of the imported package goes first on the child's ``PYTHONPATH``: the
    child runs the same code as the in-process tests, from any directory.
    """
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["susy-ces"]
    module, _, func = target.partition(":")
    code = (f"import sys\nsys.argv[0] = 'susy-ces'\n"
            f"from {module} import {func}\nsys.exit({func}())")
    src_root = str(Path(susy_ces.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_entry_point_version():
    proc = run_entry_point("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_entry_point_usage_error_code():
    proc = run_entry_point("verify", "--suite", "bogus")
    assert proc.returncode == 2
    # the interpreter also exits 2 on some launch errors: check it was click
    assert "Invalid value for '--suite'" in proc.stderr
    assert "'bogus'" in proc.stderr


def test_entry_point_help_lists_commands():
    proc = run_entry_point("--help")
    assert proc.returncode == 0
    assert "Usage: susy-ces" in proc.stdout
    for cmd in ("table", "verify", "phase", "figures"):
        assert cmd in proc.stdout
