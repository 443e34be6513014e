"""Acceptance criteria for the package, one test per criterion.

Each test computes its worst-case error, attaches a one-line summary via
``record_property`` (printed by the conftest hook as ``[acceptance]
PASS/FAIL ...``), and then asserts against a pinned tolerance.  The
tolerances here are contractual: do not loosen them to make a failing
build green.
"""
import csv
import math
import time

import numpy as np
from click.testing import CliRunner

from susy_ces import closedform as cf
from susy_ces import oracle, potential, scattering, specfun, verify
from susy_ces.cli import main as cli_main
from susy_ces.closedform import Branch
from susy_ces.potential import Sector

FAMILIES = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))
HALF_PI = 0.5 * math.pi


def test_c01_closed_forms_satisfy_their_equations(record_property):
    """Five-point-stencil residual of Z against V_pm at energy omega^2."""
    tol = 1e-6
    budget_s = 30.0
    t0 = time.perf_counter()
    worst = 0.0
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.linspace(0.1, min(20.0, 29.0 / omega), 40)
        for br in Branch:
            for sec in Sector:
                res = oracle.residual_schrodinger(
                    lambda xx: cf.solution_Z(p, br, sec, xx).value,
                    lambda xx: potential.V(xx, m, sec),
                    p.omega * p.omega, x)
                worst = max(worst, float(np.max(res)))
    elapsed = time.perf_counter() - t0
    record_property("acceptance",
                    f"criterion 01 closed-form residual: 3 families x 4 "
                    f"branch/sector combos, max rel residual {worst:.2e} "
                    f"(tol {tol:.0e}), {elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert worst < tol
    assert elapsed < budget_s


def test_c02_wronskian_constant(record_property):
    """W[Z^I, Z^II] equals its closed-form constant on the grid where
    double precision can resolve it."""
    tol = 1e-8
    worst = 0.0
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        x = verify.wronskian_grid(m, omega)
        for sec in Sector:
            wr = cf.wronskian_Z(p, sec, x)
            ex = cf.wronskian_exact(p, sec)
            worst = max(worst, float(np.max(np.abs(wr - ex)) / abs(ex)))
    record_property("acceptance",
                    f"criterion 02 Wronskian constancy: 50 log points x 3 "
                    f"families x 2 sectors, max rel error {worst:.2e} (tol {tol:.0e})")
    assert worst < tol


def test_c03_intertwining_relations(record_property):
    """(d/dx +- W) maps each sector's solution onto i omega times the
    partner's, pointwise, with derivatives from dM/dy = (a/b) M(a+1, b+1; y)
    rather than from the first-order system, which would make it hold by
    construction."""
    tol = 1e-8
    worst = 0.0
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(25.0 / omega), 40)
        wx = potential.superpotential(x, m)
        for br in Branch:
            zp = verify.series_solution_Z(p, br, Sector.PLUS, x)
            zm = verify.series_solution_Z(p, br, Sector.MINUS, x)
            sc = np.maximum(1.0, np.abs(zp.value) + np.abs(zm.value))
            up = np.abs((zm.derivative + wx * zm.value) - 1j * omega * zp.value) / sc
            dn = np.abs((zp.derivative - wx * zp.value) - 1j * omega * zm.value) / sc
            worst = max(worst, float(np.max(up)), float(np.max(dn)))
    record_property("acceptance",
                    f"criterion 03 intertwining: both directions x 3 families "
                    f"x 2 branches, max rel error {worst:.2e} (tol {tol:.0e})")
    assert worst < tol


def test_c04_shape_invariance_bitwise(record_property):
    """V_plus(x, m) and V_minus(x, -m) agree to at most one ulp on a wide
    log grid (they actually agree bit for bit)."""
    tol_ulp = 1.0
    x = np.logspace(-8, 8, 10_000)
    worst = 0.0
    for m in (1.0, 2.0, 0.5, 1.75, math.pi, 0.3183098861837907):
        a = potential.V(x, m, Sector.PLUS)
        b = potential.V(x, -m, Sector.MINUS)
        ulps = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(ulps)))
    record_property("acceptance",
                    f"criterion 04 shape invariance: 1e4-point grid x 6 "
                    f"couplings, max deviation {worst:.1f} ulp (tol {tol_ulp:.0f} ulp)")
    assert worst <= tol_ulp


def test_c05_landmarks_recovered_by_grid_search(record_property):
    """A blind grid scan of V_minus at m = 2 finds the zero at 1/16 and
    the maximum at 9/64 with height 256/27."""
    x = np.linspace(0.01, 0.5, 20001)
    step = x[1] - x[0]
    v = np.asarray(potential.V(x, 2.0, Sector.MINUS))
    crossings = np.flatnonzero(np.diff(np.signbit(v)))
    assert crossings.size == 1
    i = int(crossings[0])
    zero_err = abs(0.5 * (x[i] + x[i + 1]) - 0.0625)
    j = int(np.argmax(v))
    max_x_err = abs(x[j] - 0.140625)
    max_val_err = abs(float(v[j]) - 256.0 / 27.0) / (256.0 / 27.0)
    record_property("acceptance",
                    f"criterion 05 landmark scan (m=2): zero offset "
                    f"{zero_err:.2e}, max offset {max_x_err:.2e} (tol: one "
                    f"grid step {step:.2e}), height rel err {max_val_err:.1e} (tol 1e-06)")
    assert x[i] <= 0.0625 <= x[i + 1]
    assert zero_err <= step
    assert max_x_err <= step
    assert max_val_err < 1e-6


def test_c06_integrator_reproduces_closed_form(record_property):
    """Seeding the adaptive integrator from the closed form at x = 1 and
    propagating to x = 10 lands back on the closed form."""
    tol = 1e-7
    worst = 0.0
    p = cf.solution_params(1.0, 1.0)
    for br in Branch:
        for sec in Sector:
            seed = cf.solution_Z(p, br, sec, 1.0)
            prob = oracle.schrodinger_problem(1.0, 1.0, sec)
            sol = oracle.integrate(prob, 1.0, 10.0, complex(seed.value),
                                   complex(seed.derivative))
            ref = cf.solution_Z(p, br, sec, 10.0)
            worst = max(
                worst,
                abs(sol.value - complex(ref.value)) / max(1.0, abs(complex(ref.value))),
                abs(sol.derivative - complex(ref.derivative))
                / max(1.0, abs(complex(ref.derivative))))
    record_property("acceptance",
                    f"criterion 06 integrator vs closed form: 4 branch/sector "
                    f"combos over x in [1, 10], max rel error {worst:.2e} (tol {tol:.0e})")
    assert worst < tol


def test_c07_phase_difference_reaches_half_pi(record_property):
    """The accelerated ladder estimate of delta_minus - delta_plus lands
    within 1e-3 of pi/2 using only points x <= 1e4 max(1, m^2)/omega."""
    tol = 1e-3
    budget_s = 60.0
    t0 = time.perf_counter()
    outcomes = []
    for m, omega in ((1.0, 1.0), (0.5, 2.0)):
        x_budget = 1e4 * max(1.0, m * m) / omega
        res = scattering.phase_difference(m, omega)
        assert res.converged
        assert float(res.x[-1]) <= x_budget
        err = abs(res.estimate - HALF_PI)
        outcomes.append((m, omega, err, float(res.x[-1])))
    elapsed = time.perf_counter() - t0
    summary = ", ".join(f"(m={m:g}, omega={w:g}): |est - pi/2| = {e:.1e} "
                        f"at x = {xl:g}" for m, w, e, xl in outcomes)
    record_property("acceptance",
                    f"criterion 07 phase-shift difference: {summary} "
                    f"(tol {tol:.0e}), {elapsed:.1f}s (budget {budget_s:.0f}s)")
    for _, _, err, _ in outcomes:
        assert err < tol
    assert elapsed < budget_s


def test_c08_special_function_battery(record_property):
    """Frozen reference table, transformation consistency, pair
    Wronskian, derivative stencil, and Frobenius agreement."""
    checks = [
        verify.check_golden_table(),        # tol 1e-10
        verify.check_kummer_consistency(),  # tol 1e-10
        verify.check_chf_wronskian(),       # tol 1e-9
        verify.check_derivative_fd(),       # tol 1e-7
        verify.check_frobenius(),           # tol 1e-12
    ]
    summary = ", ".join(f"{r.name.split('/')[-1]} {r.max_error:.1e}<={r.tolerance:.0e}"
                        for r in checks)
    record_property("acceptance", f"criterion 08 special-function battery: {summary}")
    for r in checks:
        assert r.passed, f"{r.name}: {r.max_error:.3e} > {r.tolerance:.1e}"


def test_c09_eigenvalue_parameter_identity(record_property):
    """lambda_j and -4 a_j are two routes to the same constant; they must
    agree to <= 2 ulps over random couplings."""
    tol_ulp = 2.0
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(100):
        m = 10.0 ** rng.uniform(-1.5, 1.5)
        omega = 10.0 ** rng.uniform(-1.5, 1.5)
        p = cf.solution_params(m, omega)
        for j, a in ((1, p.a1), (2, p.a2)):
            lam = cf.hermite_lambda(p, j)
            ref = -4.0 * a
            worst = max(worst,
                        abs(lam.imag - ref.imag) / np.spacing(max(abs(ref.imag), 5e-324)),
                        abs(lam.real - ref.real) / np.spacing(max(abs(ref.real), 1.0)))
    record_property("acceptance",
                    f"criterion 09 eigenvalue identity: 100 random couplings, "
                    f"max deviation {worst:.1f} ulp (tol {tol_ulp:.0f} ulp)")
    assert worst <= tol_ulp


def test_c10_figure_curves_have_the_documented_shape(record_property):
    """The exported curve files show the documented qualitative features:
    superpotential sign/monotonicity and the partner-potential landmarks."""
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        res = CliRunner().invoke(cli_main, ["figures", "--out-dir", d,
                                            "--points", "500"])
        assert res.exit_code == 0

        def load(name):
            with open(f"{d}/{name}", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            return (np.array([float(r[0]) for r in rows]),
                    np.array([float(r[1]) for r in rows]))

        x, w_pos = load("fig1_w_m+1.csv")
        _, w_neg = load("fig1_w_m-1.csv")
        _, vp = load("fig2_vplus_m2.csv")
        _, vm = load("fig2_vminus_m2.csv")

    step = x[1] - x[0]
    checks = {
        # W(m=1): negative everywhere, rising toward zero
        "w+ sign": bool(np.all(w_pos < 0)),
        "w+ monotone": bool(np.all(np.diff(w_pos) > 0)),
        # W(m=-1) is the exact mirror image
        "w mirror": bool(np.array_equal(w_neg, -w_pos)),
        # V_plus(m=2): positive and strictly decreasing
        "v+ sign": bool(np.all(vp > 0)),
        "v+ monotone": bool(np.all(np.diff(vp) < 0)),
        # V_minus(m=2): exactly one sign change, then a single interior
        # maximum near 9/64, and always below V_plus
        "v- one crossing": int(np.sum(np.diff(np.signbit(vm)))) == 1,
        "v- max location": abs(float(x[np.argmax(vm)]) - 0.140625) <= step,
        "v- below v+": bool(np.all(vm < vp)),
    }
    failed = [k for k, ok in checks.items() if not ok]
    record_property("acceptance",
                    f"criterion 10 figure-curve shape: {len(checks)} invariants "
                    f"checked{'' if not failed else ', failing: ' + ', '.join(failed)}")
    assert not failed
