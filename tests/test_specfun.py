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
    DoubleRangeExceeded,
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
    got = sf.chf_1f1(a, b, z)
    assert rel(got, f) < 1e-13


def test_golden_table_loaded_and_reproduced():
    rows = sf.load_golden_chf()
    assert len(rows) == 24
    worst = 0.0
    for r in rows:
        got = sf.chf_1f1(r.a, r.b, r.z)
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
    # a table with its header and no rows is refused
    (tmp_path / "chf.csv").write_text(lines[0] + "\n")
    with pytest.raises(InvalidParams):
        sf.load_golden_chf(tmp_path / "chf.csv")


# ---------------------------------------------------------------------------
# basic values and parameter guards


def test_trivial_values():
    p = (1 + 1j, 0.5)
    assert sf.chf_1f1(*p, 0j) == 1.0 + 0j
    assert sf.chf_1f1(0.0, 0.5, 3j) == 1.0 + 0j
    # a == b collapses to exp(z)
    pe = (1.5, 1.5)
    assert rel(sf.chf_1f1(*pe, 2.0 + 1.0j), cmath.exp(2.0 + 1.0j)) < 1e-14


def test_param_validation():
    for f in (sf.chf_1f1, sf.chf_1f1_deriv, sf.kummer_transform, sf.chf_asymptotic):
        for a, b in ((1.0, 0.0), (1.0, -3.0), (complex("nan"), 0.5), (1.0, math.inf)):
            with pytest.raises(InvalidParams):
                f(a, b, -30j)
        f(1.0, 0.5, -30j)  # valid half-integer


def test_series_range_guard():
    p = (0.5j, 0.5)
    with pytest.raises(SeriesRangeExceeded):
        sf.chf_1f1(*p, 61j)
    with pytest.raises(SeriesRangeExceeded):
        sf.chf_1f1(*p, np.array([-2j, 75j]))
    with pytest.raises(InvalidParams):
        sf.chf_1f1(*p, complex(math.inf, 0.0))
    # finite z whose modulus overflows the double range
    with pytest.raises(SeriesRangeExceeded):
        sf.chf_1f1(*p, complex(1.7e308, 1.7e308))
    # the boundary itself is allowed and routed to the fixed-point ladder
    v = sf.chf_1f1(*p, -60j)
    assert cmath.isfinite(v)


def test_array_shape_round_trip():
    p = (0.5j, 0.5)
    z = np.array([[-2j, -38j], [33j, 5 + 5j]])
    out = sf.chf_1f1(*p, z)
    assert out.shape == z.shape
    for idx in np.ndindex(z.shape):
        scalar = sf.chf_1f1(*p, complex(z[idx]))
        assert rel(out[idx], scalar) < 1e-13
    assert isinstance(sf.chf_1f1(*p, -2j), complex)


def _component_families(m, omega):
    """The four (a, b) whose series closedform.components sums for the values."""
    a1 = cf.solution_params(m, omega).a1
    return ((a1, 0.5), (a1 + 1.0, 1.5), (a1 + 0.5, 1.5), (a1 + 0.5, 0.5))


@pytest.mark.parametrize("m,omega", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
def test_single_point_width_meets_double_precision(m, omega):
    # the width grows with |z|; 59.9 sits just inside the refusal bound
    worst = 0.0
    for a, b in _component_families(m, omega):
        for r in (0.5, 20.0, 40.0, 40.5, 59.9):
            z = complex(0.0, -r)
            worst = max(worst, rel(sf.chf_1f1(a, b, z), mp_hyp1f1(a, b, z), floor=0.0))
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
        worst = max(worst, rel(sf.chf_1f1(a, b, z),
                               mp_hyp1f1(a, b, z), floor=0.0))
    assert worst < 4e-16


# ---------------------------------------------------------------------------
# Kummer transformation


def test_kummer_transform_agrees_with_direct_sum():
    worst = 0.0
    for a, b in ((0.5j, 0.5), (1 + 1j, 2.5), (-0.3 + 0.2j, 1.2)):
        for z in (-3j, 24j, -17j, 4.0 + 3.0j, 7.0, -9.0 + 2.0j):
            worst = max(worst, rel(sf.chf_1f1(a, b, z), sf.kummer_transform(a, b, z)))
    assert worst < 1e-11


@pytest.mark.parametrize("f", [sf.chf_1f1, sf.kummer_transform, sf.chf_1f1_deriv])
def test_values_past_the_double_range_are_typed(f):
    # 1F1(2000, 1/2; 60) is about 9e313: the direct sum, the transformed sum
    # times e^60 and the derivative all name the double range
    with pytest.raises(DoubleRangeExceeded):
        f(2000.0, 0.5, 60.0)


def test_derivative_matches_central_difference():
    h = 1e-6
    for a, b in ((0.5j, 0.5), (1 + 1j, 2.5), (-0.3 + 0.2j, 1.2)):
        for z in (-3j, -20j, 2 + 2j, 5.0):
            fd = (sf.chf_1f1(a, b, z + h) - sf.chf_1f1(a, b, z - h)) / (2 * h)
            an = sf.chf_1f1_deriv(a, b, z)
            assert rel(an, fd) < 1e-7


def test_derivative_of_constant_series_is_zero():
    p = (0.0, 0.5)
    assert sf.chf_1f1_deriv(*p, 3j) == 0j
    out = sf.chf_1f1_deriv(*p, np.array([1j, 2j]))
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
    with pytest.raises(InvalidParams):
        sf.log_gamma(math.nan)


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


@pytest.mark.parametrize("n", [0, -1, -2])
@pytest.mark.parametrize("sign", [1, -1])
def test_log_gamma_next_to_its_poles_matches_mpmath(n, sign):
    # z = n +- i 10^-k: e^{+-2 i pi z} is within 2^-53 of 1 from k = 17, so
    # 1 - e^{+-2 i pi z} must not be formed by subtraction
    with mpmath.workdps(40):
        for k in range(1, 301):
            z = complex(n, sign * 10.0 ** -k)
            ref = complex(mpmath.loggamma(mpmath.mpc(z)))
            assert rel(sf.log_gamma(z), ref, floor=0.0) <= 4e-15, k


@pytest.mark.parametrize("z", [0.5 + 1e16j, 1.0 - 5e17j, 0.5 + 1e100j, 1e20 + 3.0j])
def test_log_gamma_far_from_the_origin_matches_mpmath(z):
    # the Stirling tail's powers of z pass the largest double from |z| ~ 1.5e16,
    # where the tail is far below eps of the sum
    with mpmath.workdps(40):
        ref = complex(mpmath.loggamma(mpmath.mpc(z)))
    assert rel(sf.log_gamma(z), ref, floor=0.0) <= 4e-15


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
        for z in (-30j, -55j, 50j, 28 + 28j, -40 - 10j):
            val, err_est = sf.chf_asymptotic(a, b, z)
            ser = sf.chf_1f1(a, b, z)
            worst = max(worst, rel(val, ser))
            assert err_est < 1e-6 * max(1.0, abs(val))
    assert worst < 1e-9


def test_asymptotic_error_estimate_bounds_the_actual_error():
    # on the ray the closed forms use, against mpmath at 40 digits
    checked = 0
    with mpmath.workdps(40):
        for eta in (0.0, 0.025, 0.25, 1.0, 4.0, 8.0, 16.0):
            for k in (0, 1, 2):
                a, b = complex(k, eta), k + 0.5
                for y in (60.0, 100.0, 500.0, 2000.0, 1e4):
                    val, err_est = sf.chf_asymptotic(a, b, -1j * y)
                    if err_est >= 1e-6 * abs(val):
                        continue
                    ref = complex(mpmath.hyp1f1(mpmath.mpc(a), b, mpmath.mpc(0, -y)))
                    assert abs(val - ref) <= err_est, (eta, k, y)
                    checked += 1
    assert checked >= 90


def test_asymptotic_boundary_ray():
    # phase(z) == -pi/2 exactly: the recessive/dominant sign split must
    # treat the negative imaginary axis consistently with its neighborhood
    p = (0.5j, 0.5)
    on_ray = sf.chf_asymptotic(*p, -50j).value
    near = sf.chf_asymptotic(*p, complex(-1e-9, -50.0)).value
    assert rel(on_ray, near) < 1e-9
    assert rel(on_ray, sf.chf_1f1(*p, -50j)) < 1e-9


def test_asymptotic_small_argument_guard():
    p = (0.5j, 0.5)
    with pytest.raises(ArgumentTooSmall):
        sf.chf_asymptotic(*p, 10j)
    sf.chf_asymptotic(*p, 26j)  # just above the default floor


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                               complex(0.0, math.inf), complex(0.0, -math.inf)])
def test_asymptotic_refuses_non_finite_z(z):
    # as the other 1F1 functions do: a typed refusal, not a bare ValueError
    # or OverflowError from sizing the sum
    with pytest.raises(InvalidParams, match="not finite"):
        sf.chf_asymptotic(0.5j, 0.5, z)


def test_asymptotic_past_the_double_range_is_typed():
    # |1F1(1/2 + 256 i, 1/2; -1280 i)| is about 8.8e348: a branch's prefactor
    # alone overflows, and the error names the point
    with pytest.raises(DoubleRangeExceeded, match=r"1F1\(\(0\.5\+256j\), 0\.5; .*1280j\)"):
        sf.chf_asymptotic(0.5 + 256j, 0.5, -1280j)
    # 1F1(3, 1/2; 700) is about 1.2e311: e^700 is a double, the value is not
    with pytest.raises(DoubleRangeExceeded):
        sf.chf_asymptotic(3.0, 0.5, 700.0)
    # at eta = 200 the true value, about 6.9e272, is still a double: a finite
    # value comes back, its error estimate (of the value's own size, as the
    # expansion is far from asymptotic there) covering the actual error
    a, b, z = 0.5 + 200j, 0.5, -1280j
    val, err_est = sf.chf_asymptotic(a, b, z)
    with mpmath.workdps(40):
        ref = complex(mpmath.hyp1f1(mpmath.mpc(a), b, mpmath.mpc(z)))
    assert abs(val - ref) <= err_est


_PAIR_ETA = (0.025, 0.5, 8.0, 16.0, 32.0)
_PAIR_S = (80.0, 160.0, 640.0, 10240.0)
#: where the ladder reads the expansion, up to m^2/omega = 400: from its
#: first rung s = 1.1 eta^2, past the frontier s ~ eta^2, to s = 1.8e8
_PAIR_FAR = [(eta, s) for eta in (64.0, 128.0, 150.0, 200.0)
             for s in (1.1 * eta * eta, 70.4 * eta * eta, 1.8e8)]


def test_asymptotic_pair_is_within_far_tol_wherever_it_certifies():
    # M(1/2 + i eta, 1/2 and 3/2; -i s) against mpmath at 40 digits.  The
    # shared factors' rounding is not charged to the estimate; up to
    # eta = 200 it stays below FAR_TOL (5.4e-13 at most on the ladder's rungs)
    refused = []
    for eta, s in [(eta, s) for eta in _PAIR_ETA for s in _PAIR_S] + _PAIR_FAR:
        try:
            p, q = sf.asymptotic_pair_for(eta)(eta, [s])
        except SeriesRangeExceeded:
            refused.append((eta, s))
            continue
        a = complex(0.5, eta)
        for got, b in ((p[0], 0.5), (q[0], 1.5)):
            want = mp_hyp1f1(a, b, complex(0.0, -s))
            assert abs(got - want) <= sf.FAR_TOL * abs(want), (eta, s, b)
    # the expansion holds once s is well past eta^2
    assert refused == [(16.0, 80.0), (16.0, 160.0), (32.0, 80.0), (32.0, 160.0),
                       (32.0, 640.0)]


@pytest.mark.parametrize("eta, s", [(16.0, 160.0), (32.0, 640.0)])
def test_asymptotic_pair_refuses_what_it_cannot_certify(eta, s):
    with pytest.raises(SeriesRangeExceeded, match=rf"\|y\| = {s:g} at eta = {eta:g}.*FAR_TOL"):
        sf.asymptotic_pair_for(eta)(eta, [s])


def _branches(eta, s, b):
    """The recessive and dominant terms of M(1/2 + i eta, b; -i s), DLMF 13.2.41,
    from mpmath's U at 40 digits."""
    mp = mpmath
    with mp.workdps(40):
        a, z, b = mp.mpc(0.5, eta), mp.mpc(0.0, -s), mp.mpf(b)
        rec = mp.gamma(b) / mp.gamma(b - a) * mp.exp(-1j * mp.pi * a) * mp.hyperu(a, b, z)
        dom = (mp.gamma(b) / mp.gamma(a) * mp.exp(z - 1j * mp.pi * (a - b))
               * mp.hyperu(b - a, b, -z))
        return rec, dom


def test_asymptotic_pair_branches_sum_to_the_function():
    # the per-branch reference below, checked where M itself is a double
    with mpmath.workdps(40):
        for eta, s in ((8.0, 200.0), (64.0, 4505.6)):
            for b in (0.5, 1.5):
                want = mp_hyp1f1(complex(0.5, eta), b, complex(0.0, -s))
                assert abs(complex(sum(_branches(eta, s, b))) - want) <= 1e-30 * abs(want)


@pytest.mark.parametrize("s", [275e3, 1.76e7])
def test_asymptotic_pair_past_the_double_range_is_scaled(s):
    # eta = 500: |M| ~ e^{pi eta} is past the largest double, and the shared
    # factors' logs are ~1e4 in size.  The pair comes back as 2^-e times
    # f_r R + f_d D, R and D the exact branches; solved for, each factor is 1
    # within eps times the size of its branch's shared log terms
    eta = 500.0
    p, q = sf.asymptotic_pair_for(eta)(eta, [s])
    (rp, dp), (rq, dq) = _branches(eta, s, 0.5), _branches(eta, s, 1.5)
    mp = mpmath
    with mp.workdps(40):
        a, logz = mp.mpc(0.5, eta), mp.log(mp.mpc(0.0, -s))
        det = rp * dq - rq * dp
        f_r, f_d = (p[0] * dq - q[0] * dp) / det, (rp * q[0] - rq * p[0]) / det
        e = -int(mp.nint(mp.log(abs(f_r), 2)))
        assert e > 1000
        shared_r = abs(mp.pi * a) + abs(a * logz) + abs(mp.loggamma(1 - (a - 0.5)))
        shared_d = abs((a - 0.5) * logz) + abs(mp.loggamma(a))
        for f, shared in ((f_r, shared_r), (f_d, shared_d)):
            assert abs(f * mp.mpf(2) ** e - 1) <= sf._EPS * (96 + shared)


def _bits(vals):
    return [(v.real.hex(), v.imag.hex()) for v in vals]


def _pair_or_refusal(eta, s):
    try:
        return tuple(map(_bits, sf.asymptotic_pair_for(eta)(eta, s)))
    except SeriesRangeExceeded as e:
        return str(e)


@given(eta=st.floats(0.0, 40.0), s=st.lists(st.floats(25.0, 1e5), min_size=1, max_size=3),
       other=st.floats(0.0, 40.0))
@settings(max_examples=settings.default.max_examples // 5)
def test_asymptotic_pair_agrees_with_chf_asymptotic(eta, s, other):
    # the pair shares each branch's factor between b = 1/2 and 3/2 and
    # charges only the rest: it certifies wherever chf_asymptotic does
    # with room, and its values agree with chf_asymptotic's within twice
    # that one's error estimate and FAR_TOL.  No earlier call, at another eta
    # or in another order, changes a bit of it
    got = _pair_or_refusal(eta, s)
    a = complex(0.5, eta)
    certified = True
    for k, v in enumerate(s):
        for j, b in enumerate((0.5, 1.5)):
            r = sf.chf_asymptotic(a, b, complex(0.0, -v))
            certified &= r.error_estimate <= 0.5 * sf.FAR_TOL * abs(r.value)
            if not isinstance(got, str):
                mine = complex(*map(float.fromhex, got[j][k]))
                assert abs(mine - r.value) <= 2.0 * r.error_estimate + sf.FAR_TOL * abs(r.value)
    assert not (certified and isinstance(got, str)), got
    _pair_or_refusal(other, s[::-1])
    _pair_or_refusal(eta, s[::-1])
    assert _pair_or_refusal(eta, s) == got


# ---------------------------------------------------------------------------
# property-based identities

complex_a = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
moderate_z = st.builds(complex, st.floats(-18, 18), st.floats(-18, 18))


@given(a=complex_a, b=st.floats(0.3, 3.0), z=moderate_z)
@settings(max_examples=60)
def test_contiguous_relation_property(a, b, z):
    """M(a,b;z) - M(a-1,b;z) = (z/b) M(a,b+1;z)."""
    m1 = sf.chf_1f1(a, b, z)
    m0 = sf.chf_1f1(a - 1.0, b, z)
    mr = sf.chf_1f1(a, b + 1.0, z)
    lhs = m1 - m0
    rhs = (z / b) * mr
    scale = max(1.0, abs(m1), abs(m0), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(a=complex_a, b=st.floats(0.3, 3.0), t=st.floats(1e-3, 30.0))
@settings(max_examples=40)
def test_kummer_round_trip_property(a, b, t):
    """On the imaginary axis the direct and transformed sums are
    genuinely different computations that must agree."""
    z = complex(0.0, t)
    direct = sf.chf_1f1(a, b, z)
    transf = sf.kummer_transform(a, b, z)
    assert abs(direct - transf) <= 1e-11 * max(1.0, abs(direct))
