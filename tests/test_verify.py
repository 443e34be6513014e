"""Cross-check suite plumbing: report structure, suite routing,
the fixed tolerance of every check, and a live run of every suite."""
import inspect
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from susy_ces import closedform as cf
from susy_ces import oracle, specfun, verify
from susy_ces.closedform import y_of_x
from susy_ces.errors import InvalidParams, SeriesRangeExceeded
from susy_ces.potential import Sector
from susy_ces.specfun import SERIES_ZMAX


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParams):
        verify.run_suite("bogus")


def test_suite_names_and_sizes():
    assert set(verify.SUITES) == {"specfun", "closedform", "oracle", "scattering"}
    assert len(verify.SUITES["specfun"]) == 6
    assert len(verify.SUITES["closedform"]) == 9
    assert len(verify.SUITES["oracle"]) == 4
    assert len(verify.SUITES["scattering"]) == 3


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


def test_phase_difference_check_names_its_rungs_and_bound():
    # the worse of the two, (1/2, 2), stops at x = 80, the third rung, where
    # the bound is 7.8e-4
    r = verify.check_phase_difference()
    assert r.passed and r.tolerance == 1e-3
    assert r.details.endswith("is (0.5, 2): estimate 1.571030 at x = 80, 3 rungs, bound 7.81e-04")


@given(st.floats(1e-3, 1e3))
def test_seed_point_stays_inside_the_series_range(omega):
    # the ladder checks seed their integrations at the edge of the series range
    x = verify._seed_point(1e6, omega)
    assert abs(complex(y_of_x(x, omega))) <= SERIES_ZMAX
    assert 2.0 * omega * x > SERIES_ZMAX * (1.0 - 1e-14)
    inside = 0.5 * SERIES_ZMAX / (2.0 * omega)
    assert verify._seed_point(inside, omega) == inside


@pytest.mark.parametrize("branch", list(cf.Branch))
def test_series_samples_walk_the_pair_once_for_every_sector(branch, monkeypatch):
    # one walk gives series_components its components, and every sector's
    # value is formed from them, whatever the number of sectors; the values
    # are solution_Z's, bit for bit
    p = cf.solution_params(1.0, 1.0)
    x = np.linspace(29.5 / 256, 29.5, 256)
    want = [cf.solution_Z(p, branch, sec, x).value for sec in Sector]
    walks = []
    real = specfun.kummer_walk
    monkeypatch.setattr(specfun, "kummer_walk", lambda *args: walks.append(args) or real(*args))
    got = verify._series_Z(p, branch, tuple(Sector), x)
    assert len(walks) == 1
    for g, w in zip(got, want):
        assert [(v.real.hex(), v.imag.hex()) for v in g.value.tolist()] == \
            [(v.real.hex(), v.imag.hex()) for v in w.tolist()]


@pytest.mark.parametrize("branch", list(cf.Branch))
def test_series_components_of_a_grid_are_those_of_its_lone_points(branch):
    # the series derivatives are formed point by point in Python complex,
    # as are the sectors' derivatives from them, so no bit depends on the grid
    p = cf.solution_params(1.0, 1.0)
    x = np.linspace(29.5 / 200, 29.5, 200)
    grid = [c.tolist() for c in verify.series_components(p, branch, x)]
    grid += [z.derivative.tolist() for z in verify._series_Z(p, branch, tuple(Sector), x)]
    for i, xi in enumerate(x.tolist()):
        lone = list(verify.series_components(p, branch, xi))
        lone += [z.derivative for z in verify._series_Z(p, branch, tuple(Sector), xi)]
        assert [(v.real.hex(), v.imag.hex()) for v in lone] == \
            [(col[i].real.hex(), col[i].imag.hex()) for col in grid], xi


def test_series_samples_refuse_a_non_sector():
    p = cf.solution_params(1.0, 1.0)
    with pytest.raises(InvalidParams, match="is not a Sector"):
        verify.series_solution_Z(p, cf.Branch.I, "PLUS", 2.0)


def _compared(rep):
    return int(re.search(r"(\d+) of \d+ values compared", rep.details).group(1))


def test_asymptotic_overlap_compares_the_ladders_pair():
    # the pair refusing every point would pass on nothing compared
    rep = verify.check_asymptotic_overlap()
    assert rep.passed and rep.max_error <= specfun.FAR_TOL, rep.details
    assert _compared(rep) >= 40


def test_asymptotic_overlap_fails_on_a_pair_off_by_1e_8(monkeypatch):
    real = specfun.asymptotic_pair

    def off(eta, s):
        p, q = real(eta, s)
        return [v * (1.0 + 1e-8) for v in p], q

    monkeypatch.setattr(specfun, "asymptotic_pair", off)
    rep = verify.check_asymptotic_overlap()
    assert not rep.passed and rep.max_error > 5e-9, rep.details
    assert _compared(rep) >= 40


def test_asymptotic_overlap_fails_on_a_pair_that_refuses_everything(monkeypatch):
    def refuse(eta, s):
        raise SeriesRangeExceeded("refused")

    monkeypatch.setattr(specfun, "asymptotic_pair", refuse)
    rep = verify.check_asymptotic_overlap()
    assert not rep.passed and _compared(rep) == 0, rep.details


def test_convergence_order_check_needs_the_kernels_degree(monkeypatch):
    # with one five-term pass fewer the kernel sums to degree ORDER - 5, and
    # the check reads the lower order from its single steps
    assert verify.check_convergence_order().passed
    monkeypatch.setattr(oracle, "_REC", oracle._REC[:-1])
    rep = verify.check_convergence_order()
    assert not rep.passed and rep.max_error > 3.0, rep.details


def test_ladder_routes_check_fails_on_a_plus_sample_off_by_1e_7(monkeypatch):
    # the integrated PLUS solution v must match the sample the ladder reads
    real = cf._ladder_sample

    def off(*args):
        u, du, v, dv = real(*args)
        return u, du, v * (1.0 + 1e-7), dv

    assert verify.check_ladder_routes_agree().passed
    monkeypatch.setattr(cf, "_ladder_sample", off)
    rep = verify.check_ladder_routes_agree()
    assert not rep.passed and rep.max_error > 5e-8, rep.details


def test_report_pass_is_exactly_the_threshold_comparison():
    rep = verify._report("demo", 2.0, 1.0, "x")
    assert not rep.passed
    rep = verify._report("demo", 1.0, 1.0, "x")
    assert rep.passed  # boundary counts as pass


#: every check's own tolerance; a change to one is a change to what PASS means
TOLERANCES = {
    "specfun/golden-table": 1e-10, "specfun/kummer-consistency": 1e-10,
    "specfun/derivative-fd": 1e-7, "specfun/loggamma-reflection": 1e-10,
    "specfun/chf-wronskian": 1e-9, "specfun/asymptotic-overlap": 1e-9,
    "closedform/schrodinger-fd-residual": 1e-6, "closedform/wronskian-constancy": 1e-8,
    "closedform/intertwining": 1e-8, "closedform/shape-invariance": 0.0,
    "closedform/rtilde-system": 1e-12, "closedform/grid-continuation": 0.0,
    "closedform/hermite-lambda": 2.0, "closedform/small-x-limit": 1e-4,
    "closedform/critical-structure": 1e-12,
    "oracle/free-wave": 1e-8, "oracle/convergence-order": 0.0,
    "oracle/closedform-agreement": 1e-7, "oracle/frobenius-agreement": 1e-12,
    "scattering/offset-identity": 1e-12, "scattering/phase-difference-halfpi": 1e-3,
    "scattering/ladder-routes-agree": 1e-8,
}


def test_every_check_keeps_its_own_tolerance():
    reports = verify.run_suite("all")
    assert {r.name: r.tolerance for r in reports} == TOLERANCES


def test_no_check_and_no_suite_run_takes_a_setting():
    assert list(inspect.signature(verify.run_suite).parameters) == ["suite"]
    for checks in verify.SUITES.values():
        for chk in checks:
            assert not inspect.signature(chk).parameters, chk.__name__


def test_golden_table_reproduces_exactly():
    # the frozen values are correctly rounded, and the evaluator returns them
    assert verify.check_golden_table().max_error == 0.0


def test_ode_closedform_agreement_stays_near_rounding():
    # the integrator reads 4.4e-15 here, near rounding; the check's own
    # tolerance, 1e-7, would let it lose seven digits unseen
    assert verify.check_ode_vs_closedform().max_error <= 1e-13
