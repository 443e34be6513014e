"""Confluent hypergeometric evaluator, complex log-gamma, large-|z|
expansion, and the frozen reference table."""
import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from susy_ces import closedform as cf
from susy_ces import specfun as sf
from susy_ces.errors import (
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
    for f in (sf.chf_1f1, sf.chf_1f1_deriv, sf.kummer_transform):
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
            p, q = sf.asymptotic_pair(eta, [s])
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
        sf.asymptotic_pair(eta, [s])


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
    p, q = sf.asymptotic_pair(eta, [s])
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
        return tuple(map(_bits, sf.asymptotic_pair(eta, s)))
    except SeriesRangeExceeded as e:
        return str(e)


@given(eta=st.floats(0.0, 40.0), ds=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=3),
       other=st.floats(0.0, 40.0))
@settings(max_examples=settings.default.max_examples // 5)
def test_asymptotic_pair_certifies_where_the_ladder_reads_it(eta, ds, other):
    # the ladder's rungs sit at s >= 1.1 eta^2, and the walk covers s <= 60:
    # the pair certifies every s >= max(80, 1.1 eta^2).  No earlier call, at
    # another eta or in another order, changes a bit of it
    lo = max(80.0, 1.1 * eta * eta)
    s = [lo + d for d in ds]
    got = _pair_or_refusal(eta, s)
    assert not isinstance(got, str), got
    _pair_or_refusal(other, s[::-1])
    _pair_or_refusal(eta, s[::-1])
    assert _pair_or_refusal(eta, s) == got


@pytest.mark.parametrize("eta, s", [(math.nan, 100.0), (math.inf, 100.0), (0.5, math.nan),
                                    (0.5, math.inf), (0.5, -math.inf), (0.5, 0.0),
                                    (0.5, -100.0)])
def test_asymptotic_pair_refuses_non_finite_input(eta, s):
    # a typed refusal, not a bare ValueError or OverflowError from sizing the
    # sums; s must also be positive, and a valid point first does not save it
    for points in ([s], [100.0, s]):
        with pytest.raises(InvalidParams, match="finite"):
            sf.asymptotic_pair(eta, points)


@pytest.mark.parametrize("eta", [1e306, 1e307, 1.7e308, -1e306])
@pytest.mark.parametrize("s", [30.0, 1.79e308])
def test_asymptotic_pair_refuses_eta_whose_log_terms_pass_the_double_range(eta, s):
    # eta ln eta passes the largest double from eta = 2.556e305 and pi eta
    # from 5.7e307: a typed refusal naming the limit, not a bare ValueError
    # from math.remainder or fsum
    with pytest.raises(DoubleRangeExceeded, match="log terms .* pass the largest double"):
        sf.asymptotic_pair(eta, [s])


def test_asymptotic_pair_below_the_log_limit_refuses_by_its_certificate():
    # just below the limit every log term is finite, eta ln s at the largest
    # s included; nothing there lies past eta^2, so the certificate refuses
    eta = math.nextafter(sys.float_info.max / math.log(sys.float_info.max), 0.0)
    for s in (30.0, 1.79e308):
        with pytest.raises(SeriesRangeExceeded, match="not certified to FAR_TOL"):
            sf.asymptotic_pair(eta, [s])


@given(eta=st.just(0.0) | st.floats(1e-300, 1e150),
       s=st.floats(0.0, 25.0, exclude_min=True, exclude_max=True))
@settings(max_examples=settings.default.max_examples // 5)
def test_asymptotic_pair_refuses_every_s_below_25(eta, s):
    # no pre-check: the certificate itself refuses below the frontier, and
    # a certified point before a refused one does not save the call
    for e, points in ((eta, [s]), (0.5, [100.0, s])):
        with pytest.raises(SeriesRangeExceeded, match="not certified to FAR_TOL"):
            sf.asymptotic_pair(e, points)


@pytest.mark.parametrize("eta", [0.0, 0.5, 200.0])
def test_asymptotic_pair_runs_one_sum_loop_per_point(eta, monkeypatch):
    # the two recessive sums share one loop, and the two dominant sums are
    # their conjugates: one loop a point, whatever the call holds
    calls, real = [], sf._recessive_sums

    def counted(a, zz, terms):
        calls.append(zz)
        return real(a, zz, terms)

    monkeypatch.setattr(sf, "_recessive_sums", counted)
    s = [max(80.0, 1.1 * eta * eta) * 2.0 ** k for k in range(6)]
    sf.asymptotic_pair(eta, s)
    assert calls == [complex(0.0, v) for v in s]


def _pochhammer_sum(p1, p2, zz, terms):
    """sum_k (p1)_k (p2)_k / (k! zz^k) at the working precision, and the size
    of its last term, cut where the code under test must cut it: before the
    first term at least as large as the one before, or once the last term
    added is below eps of the sum."""
    t = total = mpmath.mpc(1)
    best = mpmath.mpf(1)
    for k in range(terms):
        t = t * (p1 + k) * (p2 + k) / ((k + 1) * zz)
        if abs(t) >= best or best < sf._EPS * abs(total):
            break
        total += t
        best = abs(t)
    return total, best


@pytest.mark.parametrize("eta", [0.0, 1e-6, 0.5, 200.0])
def test_recessive_sums_and_their_conjugates_are_the_four_sums(eta):
    # R_1/2 and R_3/2 against their direct Pochhammer sums in 1/(-z), and
    # their conjugates against the dominant sums in 1/z (DLMF 13.7.2):
    # D_1/2 = conj R_3/2 and D_3/2 = conj R_1/2 term by term, as eta and s
    # are real.  Each sum is within 8 eps of its exact partial sum (3.5 eps
    # at most was measured), well inside the 16 eps each sum is charged
    lo = max(25.0, 1.1 * eta * eta)
    for s in [lo * (1e8 / lo) ** (j / 11) for j in range(12)]:
        terms = 2 * int(s) + 30
        (r1, t1), (r3, t3) = sf._recessive_sums(complex(0.5, eta), complex(0.0, s), terms)
        with mpmath.workdps(40):
            a, ie, zz = mpmath.mpc(0.5, eta), mpmath.mpc(0.0, eta), mpmath.mpc(0.0, s)
            for got, size, p1, p2, x in ((r1, t1, a, 1 + ie, zz), (r3, t3, a, ie, zz),
                                         (r3.conjugate(), t3, -ie, 0.5 - ie, -zz),
                                         (r1.conjugate(), t1, 1 - ie, 0.5 - ie, -zz)):
                want, last = _pochhammer_sum(p1, p2, x, terms)
                # the same last term: each sum stops where the rule does
                assert abs(size - last) <= 1e-13 * last, (eta, s)
                assert abs(got - want) <= 8 * sf._EPS * abs(want), (eta, s)


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
