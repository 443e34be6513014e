"""Phase extraction, the phase-difference ladder, and the closed-form offset."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from susy_ces import scattering as sc
from susy_ces.closedform import y_of_x
from susy_ces.errors import (
    DegenerateSample,
    InvalidParams,
    NotConverged,
    TooCloseToTurningRegion,
)
from susy_ces.scattering import PhaseConfig, phase_difference, susy_phase_offset
from susy_ces.specfun import SERIES_ZMAX

HALF_PI = 0.5 * math.pi


def test_coulomb_eta_values():
    assert sc.coulomb_eta(1.0, 1.0) == 0.5
    assert sc.coulomb_eta(2.0, 0.5) == 4.0
    assert sc.coulomb_eta(0.5, 2.0) == 0.0625
    with pytest.raises(InvalidParams):
        sc.coulomb_eta(1.0, 0.0)
    with pytest.raises(InvalidParams):
        sc.coulomb_eta(math.nan, 1.0)


def test_default_x_match_values():
    assert sc.default_x_match(1.0, 1.0) == 20.0
    assert sc.default_x_match(0.5, 2.0) == 10.0
    assert sc.default_x_match(2.0, 0.5) == 40.0


def test_local_phase_recovers_synthetic_coulomb_wave():
    # u = sin(omega x - eta ln(2 omega x) + delta0) at large x must yield
    # delta_log_corrected ~ delta0 (mod pi)
    m, omega, delta0 = 1.0, 1.0, 0.7
    eta = sc.coulomb_eta(m, omega)
    for x in (1e5, 1e6):
        theta = omega * x - eta * math.log(2.0 * omega * x) + delta0
        u = math.sin(theta)
        du = (omega - eta / x) * math.cos(theta)
        out = sc.local_phase(m, omega, x, u, du)
        assert out.x == x
        gap = abs(math.remainder(out.delta_log_corrected - delta0, math.pi))
        assert gap < 5.0 / (omega * x)


def test_local_phase_plane_wave():
    # pure sinusoid (m -> 0 limit): raw phase is exact up to rounding
    omega, delta0 = 2.0, -0.4
    x = 123.0
    u = math.sin(omega * x + delta0)
    du = omega * math.cos(omega * x + delta0)
    out = sc.local_phase(0.0, omega, x, u, du)
    assert abs(math.remainder(out.delta_raw - delta0, math.pi)) < 1e-10
    assert out.delta_log_corrected == out.delta_raw  # eta = 0


def test_local_phase_guards():
    with pytest.raises(TooCloseToTurningRegion):
        sc.local_phase(1.0, 1.0, 5.0, 1.0, 0.0)          # omega x < 20
    with pytest.raises(TooCloseToTurningRegion):
        sc.local_phase(5.0, 1.0, 25.0, 1.0, 0.0)         # x < 2 m^2/omega^2
    with pytest.raises(DegenerateSample):
        sc.local_phase(1.0, 1.0, 50.0, 0.0, 0.0)


def test_phase_config_validation():
    with pytest.raises(InvalidParams):
        PhaseConfig(part="abs")
    with pytest.raises(InvalidParams):
        PhaseConfig(tol=0.0)


@pytest.mark.parametrize("x_limit", [math.nan, math.inf, 0.0, -1.0])
def test_phase_config_rejects_bad_x_limit(x_limit):
    # x_limit is the ladder's only budget, so it must be a finite positive x
    with pytest.raises(InvalidParams):
        PhaseConfig(x_limit=x_limit)


@pytest.mark.parametrize("x_match", [math.nan, math.inf, 0.0, -1.0])
def test_phase_config_rejects_bad_x_match(x_match):
    with pytest.raises(InvalidParams):
        PhaseConfig(x_match=x_match)


def test_susy_phase_offset_landmarks():
    # arg((w - i omega)/(w + i omega)) with the w = 0 limit taken from below
    assert susy_phase_offset(0.0, 1.0) == math.pi
    assert susy_phase_offset(1.0, 1.0) == -HALF_PI
    assert susy_phase_offset(-1.0, 1.0) == HALF_PI
    assert abs(susy_phase_offset(-1e12, 1.0)) < 3e-12
    # attractive side approaches +pi continuously ...
    assert math.pi - 1e-8 < susy_phase_offset(-1e-9, 1.0) <= math.pi
    # ... while the repulsive side sits near -pi (same angle mod 2 pi)
    assert abs(susy_phase_offset(1e-9, 1.0) + math.pi) < 1e-8


def test_offset_identity_on_synthetic_ladder():
    """Mapping a sinusoid through (d/dx + w) shifts its phase by exactly
    half the closed-form offset (mod pi)."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        wv = -(10.0 ** rng.uniform(-3.0, 1.0))
        om = 10.0 ** rng.uniform(-1.0, 1.0)
        d0 = rng.uniform(-1.5, 1.5)
        x = 40.0 / om
        um = math.sin(om * x + d0)
        dum = om * math.cos(om * x + d0)
        up = (dum + wv * um) / om
        dup = (-om * om * um + wv * dum) / om
        em = sc.local_phase(0.0, om, x, um, dum).delta_raw
        ep = sc.local_phase(0.0, om, x, up, dup).delta_raw
        gap = math.remainder(2.0 * (em - ep) - susy_phase_offset(wv, om), 2.0 * math.pi)
        assert abs(gap) < 1e-12


def test_phase_difference_converges_to_half_pi():
    res = phase_difference(0.5, 2.0)
    assert res.converged
    assert res.m == 0.5 and res.omega == 2.0
    assert res.x_match == 10.0
    assert res.x[0] == 20.0                      # first ladder point: 2 x_match
    assert np.all(np.diff(res.x) > 0)
    assert np.all((res.raw >= 0.0) & (res.raw < math.pi))
    assert res.accelerated.size == res.x.size
    assert res.estimate == res.accelerated[-1]
    assert res.residual <= 1e-3
    assert abs(res.estimate - HALF_PI) < 1e-3
    assert res.ode_steps > 0
    assert res.ode_rejected >= 0


def test_phase_difference_at_coupling_one_half():
    # m^2/omega = 0.5: the successive-difference stop must not fire while
    # the estimate is still outside the tolerance of the limit
    res = phase_difference(1.0, 2.0)
    assert res.converged
    assert abs(res.estimate - HALF_PI) < 1e-3


def test_phase_difference_imaginary_part_agrees():
    for m in (0.5, 1.0):  # m^2/omega = 0.125 and 0.5
        re_part = phase_difference(m, 2.0, PhaseConfig(part="re"))
        im_part = phase_difference(m, 2.0, PhaseConfig(part="im"))
        assert im_part.converged
        assert abs(im_part.estimate - HALF_PI) < 1e-3
        assert abs(im_part.estimate - re_part.estimate) < 2e-3


def test_phase_difference_budget_exhaustion():
    with pytest.raises(NotConverged) as exc:
        phase_difference(0.5, 2.0, PhaseConfig(x_limit=50.0))
    res = exc.value.result
    assert res is not None
    assert not res.converged
    assert res.x.size >= 1
    assert np.all(res.x <= 50.0)
    assert np.all(np.isfinite(res.raw))


def test_phase_difference_too_few_points():
    with pytest.raises(NotConverged):
        # x_match = 10: two rungs, at x = 20 and 40
        phase_difference(0.5, 2.0, PhaseConfig(x_limit=10.0 * 2 ** 2))


@given(st.floats(1e-3, 1e3))
def test_seed_point_stays_inside_the_series_range(omega):
    x = sc.seed_point(1e6, omega)
    assert abs(complex(y_of_x(x, omega))) <= SERIES_ZMAX
    assert 2.0 * omega * x > SERIES_ZMAX * (1.0 - 1e-14)
    inside = 0.5 * SERIES_ZMAX / (2.0 * omega)
    assert sc.seed_point(inside, omega) == inside


@pytest.mark.parametrize("m, omega", [(4.0, 1.0), (3.0, 0.5)])
def test_phase_difference_seeds_inside_the_series_range(m, omega):
    # 2 omega x_match = 80 and 90: the seed moves in to |y| = 60, the rungs stay
    x_match = sc.default_x_match(m, omega)
    with pytest.raises(NotConverged) as exc:
        phase_difference(m, omega, PhaseConfig(x_limit=x_match * 2 ** 3))
    res = exc.value.result
    assert 2.0 * omega * res.x_match > SERIES_ZMAX
    assert np.array_equal(res.x, res.x_match * np.array([2.0, 4.0, 8.0]))
    assert np.all(np.isfinite(res.raw))
    assert res.ode_steps > 0


def test_phase_difference_rejects_turning_region_seed():
    with pytest.raises(TooCloseToTurningRegion):
        phase_difference(1.0, 1.0, PhaseConfig(x_match=1.0))
