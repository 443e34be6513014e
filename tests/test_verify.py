"""Cross-check suite plumbing: report structure, suite routing,
tolerance override, and a live run of every suite."""
import math

import pytest

from susy_ces import oracle, verify
from susy_ces.errors import InvalidParams, NotConverged


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParams):
        verify.run_suite("bogus")


def test_suite_names_and_sizes():
    assert set(verify.SUITES) == {"specfun", "closedform", "oracle", "scattering"}
    assert len(verify.SUITES["specfun"]) == 6
    assert len(verify.SUITES["closedform"]) == 9
    assert len(verify.SUITES["oracle"]) == 4
    assert len(verify.SUITES["scattering"]) == 4


def test_specfun_suite_passes():
    reports = verify.run_suite("specfun")
    assert len(reports) == 6
    assert [r.name for r in reports] == sorted(r.name for r in reports)
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_error:.3e} > {r.tolerance:.1e}"
        assert r.max_error <= r.tolerance


def test_oracle_suite_passes():
    for r in verify.run_suite("oracle"):
        assert r.passed, f"{r.name}: {r.max_error:.3e} > {r.tolerance:.1e}"


def test_closedform_suite_passes():
    for r in verify.run_suite("closedform"):
        assert r.passed, f"{r.name}: {r.max_error:.3e} > {r.tolerance:.1e}"


def test_scattering_suite_passes():
    for r in verify.run_suite("scattering"):
        assert r.passed, f"{r.name}: {r.max_error:.3e} > {r.tolerance:.1e}"


def test_convergence_order_check_needs_the_kernels_degree(monkeypatch):
    # with one five-term pass fewer the kernel sums to degree ORDER - 5: its
    # steps still pass rel_tol 1e-3, but the check reads the lower order
    assert verify.check_convergence_order().passed
    monkeypatch.setattr(oracle, "_REC", oracle._REC[:-1])
    rep = verify.check_convergence_order()
    assert not rep.passed and rep.max_error > 3.0, rep.details


def test_report_pass_is_exactly_the_threshold_comparison():
    rep = verify._report("demo", 2.0, 1.0, "x")
    assert not rep.passed
    rep = verify._report("demo", 1.0, 1.0, "x")
    assert rep.passed  # boundary counts as pass


def test_tolerance_override_reaches_every_check():
    reports = verify.run_suite("specfun", tol_override=1e-30)
    assert all(r.tolerance == 1e-30 for r in reports)
    # the golden table reproduces its correctly rounded values exactly, so
    # its error of 0 meets even 1e-30; every other check misses it
    assert [r.name for r in reports if r.passed] == ["specfun/golden-table"]
    assert all(r.max_error == 0.0 for r in reports if r.passed)
    assert all(r.max_error > 1e-30 for r in reports if not r.passed)


def test_tolerance_override_loose_passes_everything():
    reports = verify.run_suite("specfun", tol_override=1e6)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerance_override_must_be_finite_and_non_negative(tol):
    # a nan or negative tolerance would fail every check without a miss
    with pytest.raises(InvalidParams):
        verify.run_suite("specfun", tol_override=tol)


def test_tolerance_override_zero_is_accepted():
    # several checks use tolerance 0 by design; the golden table meets it
    reports = verify.run_suite("specfun", tol_override=0.0)
    assert all(r.tolerance == 0.0 for r in reports)
    assert [r.name for r in reports if r.passed] == ["specfun/golden-table"]


def test_nonconvergence_maps_to_failed_report(monkeypatch):
    def check_always_diverges(tol: float = 1e-3):
        raise NotConverged("synthetic divergence")

    monkeypatch.setitem(verify.SUITES, "synthetic", (check_always_diverges,))
    reports = verify.run_suite("synthetic")
    assert len(reports) == 1
    assert not reports[0].passed
    assert math.isinf(reports[0].max_error)
    assert "synthetic divergence" in reports[0].details


def test_ode_closedform_agreement_stays_near_rounding():
    # the integrator reads 4.4e-15 here, near rounding; the check's own
    # tolerance, 1e-7, would let it lose seven digits unseen
    assert verify.check_ode_vs_closedform().max_error <= 1e-13
