"""Confluent hypergeometric evaluator, complex log-gamma, large-|z|
expansion, and the frozen reference table."""
import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from susy_ces import closedform as cf
from susy_ces import specfun as sf
from susy_ces.errors import (
    ArgumentTooSmall,
    InvalidParams,
    PoleAtNonPositiveInteger,
    SeriesRangeExceeded,
)


def rel(got, want, floor=1.0):
    return abs(got - want) / max(floor, abs(want))


def mp_hyp1f1(a, b, z):
    """mpmath's 1F1 at the exact binary values of the inputs, to 40 digits."""
    with mpmath.workdps(40):
        return complex(mpmath.hyp1f1(mpmath.mpc(a), mpmath.mpf(b), mpmath.mpc(z)))


# ---------------------------------------------------------------------------
# frozen reference values (produced by the exact fixed-point ladder at
# 500 fractional bits and cross-gated by a contiguous-relation identity)

FROZEN = [
    (0.5j, 0.5, complex(-0.0, -2.0), 2.8691774325111776 - 1.5568702688029648j),
    (0.5j, 0.5, -40j, -3.1839217224031864 - 1.5184461818508241j),
    (0.5 + 0.5j, 1.5, -15 + 5j, 0.026144683919538367 - 0.22333813645949696j),
    (0.5j, 0.5, 0j, 1.0 + 0j),
]


@pytest.mark.parametrize("a,b,z,f", FROZEN)
def test_frozen_reference_values(a, b, z, f):
    got = sf.chf_1f1(sf.CHFParams(a, b), z)
    assert rel(got, f) < 1e-13


def test_golden_table_loaded_and_reproduced():
    rows = sf.load_golden_chf()
    assert len(rows) == 24
    worst = 0.0
    for r in rows:
        got = sf.chf_1f1(sf.CHFParams(r.a, r.b), r.z)
        worst = max(worst, rel(got, r.f))
    assert worst < 1e-12


def test_golden_table_matches_mpmath():
    # mpmath, the table's generator, shares no code with the fixed-point
    # kernel that chf_1f1 runs
    worst = 0.0
    for r in sf.load_golden_chf():
        worst = max(worst, rel(r.f, mp_hyp1f1(r.a, r.b, r.z), floor=0.0))
    assert worst < 1e-15


def test_golden_dir_env_override(tmp_path, monkeypatch):
    src = sf.golden_dir() / "chf.csv"
    lines = src.read_text().splitlines()
    # perturb the first data row's real part so the override is observable
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) + 1e-3)
    lines[1] = ",".join(fields)
    (tmp_path / "chf.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("SUSY_CES_GOLDEN_DIR", str(tmp_path))
    assert sf.golden_dir() == tmp_path
    rows = sf.load_golden_chf()
    direct = sf.load_golden_chf(src)
    assert abs(rows[0].f - direct[0].f) == pytest.approx(1e-3, rel=1e-6)
    monkeypatch.delenv("SUSY_CES_GOLDEN_DIR")
    assert sf.golden_dir() != tmp_path


# ---------------------------------------------------------------------------
# basic values and parameter guards


def test_trivial_values():
    p = sf.CHFParams(1 + 1j, 0.5)
    assert sf.chf_1f1(p, 0j) == 1.0 + 0j
    assert sf.chf_1f1(sf.CHFParams(0.0, 0.5), 3j) == 1.0 + 0j
    # a == b collapses to exp(z)
    pe = sf.CHFParams(1.5, 1.5)
    assert rel(sf.chf_1f1(pe, 2.0 + 1.0j), cmath.exp(2.0 + 1.0j)) < 1e-14


def test_param_validation():
    with pytest.raises(InvalidParams):
        sf.CHFParams(1.0, 0.0)
    with pytest.raises(InvalidParams):
        sf.CHFParams(1.0, -3.0)
    with pytest.raises(InvalidParams):
        sf.CHFParams(complex("nan"), 0.5)
    with pytest.raises(InvalidParams):
        sf.CHFParams(1.0, math.inf)
    sf.CHFParams(1.0, 0.5)  # valid half-integer


def test_series_range_guard():
    p = sf.CHFParams(0.5j, 0.5)
    with pytest.raises(SeriesRangeExceeded):
        sf.chf_1f1(p, 61j)
    with pytest.raises(SeriesRangeExceeded):
        sf.chf_1f1(p, np.array([-2j, 75j]))
    with pytest.raises(InvalidParams):
        sf.chf_1f1(p, complex(math.inf, 0.0))
    # the boundary itself is allowed and routed to the fixed-point ladder
    v = sf.chf_1f1(p, -60j)
    assert cmath.isfinite(v)


def test_array_shape_round_trip():
    p = sf.CHFParams(0.5j, 0.5)
    z = np.array([[-2j, -38j], [33j, 5 + 5j]])
    out = sf.chf_1f1(p, z)
    assert out.shape == z.shape
    for idx in np.ndindex(z.shape):
        scalar = sf.chf_1f1(p, complex(z[idx]))
        assert rel(out[idx], scalar) < 1e-13
    assert isinstance(sf.chf_1f1(p, -2j), complex)


def _component_families(m, omega):
    """The four (a, b) whose series closedform.components sums for the values."""
    a1 = cf.solution_params(m, omega).a1
    return ((a1, 0.5), (a1 + 1.0, 1.5), (a1 + 0.5, 1.5), (a1 + 0.5, 0.5))


@pytest.mark.parametrize("m,omega", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
def test_single_point_width_meets_double_precision(m, omega):
    # the width grows with |z|; 59.9 sits just inside the refusal bound
    worst = 0.0
    for a, b in _component_families(m, omega):
        p = sf.CHFParams(a, b)
        for r in (0.5, 20.0, 40.0, 40.5, 59.9):
            z = complex(0.0, -r)
            worst = max(worst, rel(sf.chf_1f1(p, z), mp_hyp1f1(a, b, z), floor=0.0))
    assert worst < 4e-16


def test_negative_real_half_plane_is_correctly_rounded():
    # re z < 0 is summed directly like every other z: the fixed-point sum
    # resolves the cancellation there too, where e^z times the transformed
    # sum would add the rounding of exp in double
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(150):
        a = complex(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))
        b = float(rng.choice([0.5, 1.5, rng.uniform(0.3, 3.0)]))
        theta = rng.uniform(0.5, 1.5) * math.pi
        z = cmath.rect(rng.uniform(0.5, 60.0), theta)
        if z.real >= 0.0:
            continue
        worst = max(worst, rel(sf.chf_1f1(sf.CHFParams(a, b), z),
                               mp_hyp1f1(a, b, z), floor=0.0))
    assert worst < 4e-16


# ---------------------------------------------------------------------------
# Kummer transformation


def test_kummer_transform_agrees_with_direct_sum():
    worst = 0.0
    for a, b in ((0.5j, 0.5), (1 + 1j, 2.5), (-0.3 + 0.2j, 1.2)):
        p = sf.CHFParams(a, b)
        for z in (-3j, 24j, -17j, 4.0 + 3.0j, 7.0, -9.0 + 2.0j):
            worst = max(worst, rel(sf.chf_1f1(p, z), sf.kummer_transform(p, z)))
    assert worst < 1e-11


def test_derivative_matches_central_difference():
    h = 1e-6
    for a, b in ((0.5j, 0.5), (1 + 1j, 2.5), (-0.3 + 0.2j, 1.2)):
        p = sf.CHFParams(a, b)
        for z in (-3j, -20j, 2 + 2j, 5.0):
            fd = (sf.chf_1f1(p, z + h) - sf.chf_1f1(p, z - h)) / (2 * h)
            an = sf.chf_1f1_deriv(p, z)
            assert rel(an, fd) < 1e-7


def test_derivative_of_constant_series_is_zero():
    p = sf.CHFParams(0.0, 0.5)
    assert sf.chf_1f1_deriv(p, 3j) == 0j
    out = sf.chf_1f1_deriv(p, np.array([1j, 2j]))
    assert np.all(out == 0)


# ---------------------------------------------------------------------------
# log-gamma


def test_log_gamma_known_values():
    assert rel(sf.log_gamma(5.0), math.log(24.0)) < 1e-15
    # 0.5 sits below the Stirling threshold, so it goes through the
    # recurrence shift and accumulates a few more ulps than large args
    assert rel(sf.log_gamma(0.5), 0.5 * math.log(math.pi)) < 1e-13
    assert sf.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert sf.log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)


def test_log_gamma_poles():
    for z in (0.0, -1.0, -7.0, complex(-3.0, 0.0)):
        with pytest.raises(PoleAtNonPositiveInteger):
            sf.log_gamma(z)


def test_log_gamma_matches_scipy_principal_branch():
    rng = np.random.default_rng(20240818)
    checked = 0
    for _ in range(400):
        z = complex(rng.uniform(-25, 25), rng.uniform(-25, 25))
        if abs(z.imag) < 0.05:
            continue  # stay off the real axis (pole/cut neighborhoods)
        ref = complex(sp.loggamma(z))
        got = sf.log_gamma(z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        checked += 1
    assert checked > 300


def test_log_gamma_recurrence():
    for z in (0.3 + 0.7j, 2.5 - 4j, 11.0 + 0.25j, 0.75):
        z = complex(z)
        lhs = sf.log_gamma(z + 1.0)
        rhs = sf.log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_log_gamma_reflection():
    for z in (-3.3 + 1j, -10.6 - 2j, 0.2 + 5j, -0.7 + 0.3j):
        z = complex(z)
        lhs = cmath.exp(sf.log_gamma(z) + sf.log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert rel(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# large-|z| expansion


def test_asymptotic_agrees_with_series_in_overlap():
    worst = 0.0
    for a, b in ((0.5j, 0.5), (1 + 0.5j, 1.5), (-0.3 + 0.2j, 1.2)):
        p = sf.CHFParams(a, b)
        for z in (-30j, -55j, 50j, 28 + 28j, -40 - 10j):
            val, err_est = sf.chf_asymptotic(p, z)
            ser = sf.chf_1f1(p, z)
            worst = max(worst, rel(val, ser))
            assert err_est < 1e-6 * max(1.0, abs(val))
    assert worst < 1e-9


def test_asymptotic_error_estimate_bounds_the_actual_error():
    # on the ray the closed forms use, against mpmath at 40 digits
    checked = 0
    with mpmath.workdps(40):
        for eta in (0.0, 0.025, 0.25, 1.0, 4.0, 8.0, 16.0):
            for k in (0, 1, 2):
                p = sf.CHFParams(complex(k, eta), k + 0.5)
                for y in (60.0, 100.0, 500.0, 2000.0, 1e4):
                    val, err_est = sf.chf_asymptotic(p, -1j * y)
                    if err_est >= 1e-6 * abs(val):
                        continue
                    ref = complex(mpmath.hyp1f1(mpmath.mpc(p.a), p.b, mpmath.mpc(0, -y)))
                    assert abs(val - ref) <= err_est, (eta, k, y)
                    checked += 1
    assert checked >= 90


def test_asymptotic_boundary_ray():
    # phase(z) == -pi/2 exactly: the recessive/dominant sign split must
    # treat the negative imaginary axis consistently with its neighborhood
    p = sf.CHFParams(0.5j, 0.5)
    on_ray = sf.chf_asymptotic(p, -50j).value
    near = sf.chf_asymptotic(p, complex(-1e-9, -50.0)).value
    assert rel(on_ray, near) < 1e-9
    assert rel(on_ray, sf.chf_1f1(p, -50j)) < 1e-9


def test_asymptotic_small_argument_guard():
    p = sf.CHFParams(0.5j, 0.5)
    with pytest.raises(ArgumentTooSmall):
        sf.chf_asymptotic(p, 10j)
    sf.chf_asymptotic(p, 26j)  # just above the default floor


# ---------------------------------------------------------------------------
# property-based identities

complex_a = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
moderate_z = st.builds(complex, st.floats(-18, 18), st.floats(-18, 18))


@given(a=complex_a, b=st.floats(0.3, 3.0), z=moderate_z)
@settings(max_examples=60)
def test_contiguous_relation_property(a, b, z):
    """M(a,b;z) - M(a-1,b;z) = (z/b) M(a,b+1;z)."""
    m1 = sf.chf_1f1(sf.CHFParams(a, b), z)
    m0 = sf.chf_1f1(sf.CHFParams(a - 1.0, b), z)
    mr = sf.chf_1f1(sf.CHFParams(a, b + 1.0), z)
    lhs = m1 - m0
    rhs = (z / b) * mr
    scale = max(1.0, abs(m1), abs(m0), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(a=complex_a, b=st.floats(0.3, 3.0), t=st.floats(1e-3, 30.0))
@settings(max_examples=40)
def test_kummer_round_trip_property(a, b, t):
    """On the imaginary axis the direct and transformed sums are
    genuinely different computations that must agree."""
    p = sf.CHFParams(a, b)
    z = complex(0.0, t)
    direct = sf.chf_1f1(p, z)
    transf = sf.kummer_transform(p, z)
    assert abs(direct - transf) <= 1e-11 * max(1.0, abs(direct))
