"""The fixed-point 1F1 series: correct rounding against mpmath, the width
check, the single final rounding and the term budget; the continuation
of a Kummer pair: each component the double nearest mpmath's value, a
radius that bounds the error at each step and at each point inside its
reach, the exact recurrence and Horner sums, the walk's work, steps that
each serve a grid point, the rounding certificate and the pair loop
rerun wider where it does not certify."""
import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susy_ces import highprec, specfun
from susy_ces.errors import DoubleRangeExceeded, NonConvergence
from susy_ces.highprec import _fixed_sum, chf_series_fixed, kummer_walk


_SERIES_PROBES = [
    (0.5j, 0.5, -30j),
    (0.5j, 0.5, -40j),
    (-0.3 + 0.2j, 1.2, 40j),      # non-representable re(a) and b
    (1 + 1j, 2.5, 20 + 20j),
    (0.5 + 0.5j, 0.5, -38j),
    (2j, 0.5, 33j),
]


@pytest.mark.parametrize("a,b,z", _SERIES_PROBES)
def test_series_fixed_is_mpmath_correctly_rounded(a, b, z):
    """The fixed-point sum is mpmath's 60-digit value correctly rounded."""
    with mpmath.workdps(60):
        want = complex(mpmath.hyp1f1(a, b, z))
    assert chf_series_fixed(complex(a), float(b), complex(z)) == want


def test_series_fixed_bounds_each_component_against_the_larger():
    # the width check holds the sum's error about SAFE_BITS bits below the
    # larger component, not below each: the imaginary part here lies 2**28
    # below the real part and is an ulp from mpmath's correctly rounded
    # 0x1.df6d8ce46da45p-29, within half an ulp plus that bound
    a, b, z = complex(0.5, 0.010350244292280555), 1.5, complex(0.0, -1.0464891916220499e-08)
    got = chf_series_fixed(a, b, z)
    with mpmath.workdps(60):
        want = mpmath.hyp1f1(a, b, z)
        bound = 2.0 ** (1 - highprec.SAFE_BITS) * max(abs(want.real), abs(want.imag))
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(g - w) <= 0.5 * math.ulp(g) + bound
    assert got.real == float(want.real)


def test_fixed_point_precision_ladder_consistent():
    a, b, z = -0.3 + 0.2j, 1.2, 40j
    lo = _fixed_sum(a, b, z, 320)[:2]
    hi = _fixed_sum(a, b, z, 400)[:2]
    for lo_int, hi_int in zip(lo, hi):
        lo_f = Fraction(lo_int, 2 ** 320)
        hi_f = Fraction(hi_int, 2 ** 400)
        assert abs(lo_f - hi_f) <= max(abs(hi_f), Fraction(1)) * Fraction(1, 10 ** 40)


def test_too_narrow_width_is_widened():
    # 16 bits hold the sum to about 1e-5; the width check sees the sum
    # standing too few bits above its truncation bound and sums again
    a, b, z = 0.5j, 0.5, -40j
    want = chf_series_fixed(a, b, z, bits=500)
    sr, si = _fixed_sum(a, b, z, 16)[:2]
    narrow = complex(sr / (1 << 16), si / (1 << 16))
    assert abs(narrow - want) > 1e-6 * abs(want)
    assert chf_series_fixed(a, b, z, bits=16) == want
    assert chf_series_fixed(a, b, z) == want


def test_int_to_float_rounding():
    # highprec turns a fixed-point integer n at width w into a double as n / 2**w
    assert 1 / (1 << 2) == 0.25
    assert 3 / (1 << 1) == 1.5
    assert -3 / (1 << 1) == -1.5
    assert 0 / (1 << 5) == 0.0
    # 2^60 + 1 rounds to 2^60 at double precision
    assert ((1 << 60) + 1) / (1 << 60) == 1.0


def test_int_to_float_rounds_once():
    # M + 1/4 with M odd and 53 bits wide: a first rounding to 54 bits gives
    # the tie M + 1/2, which a second rounding to even would carry up to M + 1
    m = (1 << 52) + 1
    assert ((m << 2) | 1) / (1 << 2) == float(m)
    assert ((m << 2) | 3) / (1 << 2) == float(m + 1)


#: the magnitudes from which the nearest double passes the largest one: the
#: tie with 2**1024 rounds to it, as the largest double's mantissa is odd
_PAST_DOUBLES = Fraction(sys.float_info.max) + Fraction(2) ** 970


def _nearest_double(n, w):
    """The double nearest n / 2**w, ties to even, by exact comparison: of a
    candidate (n's 53 leading bits scaled, less than an ulp and a half from
    the value) and its two nextafter neighbours, the nearest in Fraction
    distance, the even mantissa on a tie.  OverflowError where the nearest
    passes the largest double."""
    x = Fraction(abs(n), 1 << w)
    if x >= _PAST_DOUBLES:
        raise OverflowError(f"{n} / 2**{w} rounds past the largest double")
    drop = max(0, abs(n).bit_length() - 53)
    c = math.ldexp(abs(n) >> drop, drop - w)
    near = [v for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))
            if math.isfinite(v)]
    best = min(near, key=lambda v: (abs(Fraction(v) - x),
                                    int(Fraction(v) / Fraction(math.ulp(v))) % 2))
    return -best if n < 0 else best


@given(nw=st.one_of(
    st.tuples(st.integers(-(1 << 2300), 1 << 2300), st.integers(0, 3300)),
    # 54 bits ending in 1: a tie between two normal doubles, past the largest too
    st.builds(lambda m, k, w: (((m << 1) | 1) << k, w), st.integers(1 << 52, (1 << 53) - 1),
              st.integers(0, 2250), st.integers(0, 3300)),
    # n / 2**w = j 2**-1080 lies below 2**-1022, a tie where j % 64 == 32
    st.builds(lambda j, w: (j << (w - 1080), w), st.integers(1, 1 << 58),
              st.integers(1080, 3300)),
    st.builds(lambda i, w: (((i << 6) | 32) << (w - 1080), w), st.integers(0, (1 << 52) - 1),
              st.integers(1080, 3300))))
@example(nw=(1, 2))
@example(nw=(-3, 1))
@example(nw=(0, 5))
@example(nw=((1 << 60) + 1, 60))
# M + 1/4 with M odd and 53 bits wide: a first rounding to 54 bits would
# give the tie M + 1/2, which a second rounding to even would carry to M + 1
@example(nw=((((1 << 52) + 1) << 2) | 1, 2))
@example(nw=((((1 << 52) + 1) << 2) | 3, 2))
# the largest double, and the tie above it, which rounds past it
@example(nw=(((1 << 53) - 1) << 971, 0))
@example(nw=((((1 << 53) - 1) << 971) + (1 << 970), 0))
@example(nw=((((1 << 53) - 1) << 971) + (1 << 970) - 1, 0))
# a subnormal tie (2**-1074 + 2**-1075) rounds to the even 2**-1073
@example(nw=(3, 1075))
def test_int_division_is_the_nearest_double(nw):
    # every double highprec returns is n / 2**w rounded once by int / int:
    # the nearest double, ties to even, subnormals included, OverflowError
    # exactly where the nearest passes the largest double
    n, w = nw
    try:
        want = _nearest_double(n, w)
    except OverflowError:
        with pytest.raises(OverflowError):
            n / (1 << w)
        return
    assert (n / (1 << w)).hex() == want.hex()


def _reference_fixed_sum(a, b, z, bits, stop_bits):
    """(sr, si) of _fixed_sum with one floor division per term component:
    term k + 1 is floor((x + q // 2) / q), x / q = t_k (a + k) z / ((b +
    k)(k + 1)) over q = 2**(sa + sz) (b + k)(k + 1) 2**sb, 2**-sa, 2**-sz
    and 2**-sb the dyadic units of a, z and b."""
    sa = max(Fraction(v).denominator for v in (a.real, a.imag)).bit_length() - 1
    sz = max(Fraction(v).denominator for v in (z.real, z.imag)).bit_length() - 1
    ar, ai, zr, zi = (int(Fraction(v) * 2 ** s) for v, s in
                      ((a.real, sa), (a.imag, sa), (z.real, sz), (z.imag, sz)))
    bn, bd = Fraction(b).numerator, Fraction(b).denominator
    tr, ti, sr, si, hits = 1 << bits, 0, 1 << bits, 0, 0
    for k in range(highprec.MAX_TERMS):
        pr, pi = (ar + (k << sa)) * zr - ai * zi, (ar + (k << sa)) * zi + ai * zr
        q = (bn + k * bd) * (k + 1) << (sa + sz)
        tr, ti = ((tr * pr - ti * pi) * bd + q // 2) // q, ((tr * pi + ti * pr) * bd + q // 2) // q
        sr, si = sr + tr, si + ti
        tbits = (abs(tr) | abs(ti)).bit_length()
        hits = hits + 1 if tbits == 0 or tbits + stop_bits <= (abs(sr) | abs(si)).bit_length() else 0
        if hits == 2:
            return sr, si


_DYADIC = st.integers(-(1 << 12), 1 << 12).map(lambda n: n / 64) | st.floats(-30.0, 30.0)


@settings(max_examples=settings.default.max_examples // 2)
@given(a=st.builds(complex, _DYADIC, _DYADIC), z=st.builds(complex, _DYADIC, _DYADIC),
       b=st.sampled_from((0.5, 1.5, 3.0, -0.5, -2.75)) | st.floats(0.05, 6.0),
       bits=st.integers(8, 200), stop_bits=st.integers(4, 80))
def test_fixed_sum_shifts_then_divides_as_one_division(a, b, z, bits, stop_bits):
    # the power of two in each divisor is shifted out first, which floors
    # the same where the rest of it is positive (b > 0); any other b keeps
    # the one division
    assert _fixed_sum(a, b, z, bits, stop_bits=stop_bits)[:2] == \
        _reference_fixed_sum(a, b, z, bits, stop_bits)


def test_series_fixed_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(highprec, "MAX_TERMS", 3)
    with pytest.raises(NonConvergence):
        chf_series_fixed(0.5j, 0.5, -30j)


@pytest.mark.parametrize("call", [lambda: kummer_walk(5e299, [2e-10]),
                                  lambda: specfun.chf_1f1(1e300j, 0.5, -10j)])
def test_series_that_cannot_stop_is_refused_before_its_loop(call):
    # |a| |z| = 1e290 and 1e301: every term up to the budget at least
    # quadruples, so no stop test can pass; the refusal comes at once,
    # not after MAX_TERMS ever wider terms
    with pytest.raises(NonConvergence, match=f"cannot converge within {highprec.MAX_TERMS} terms"):
        call()


@pytest.mark.parametrize("s", [1e20, 1e200])
def test_lone_point_past_the_term_budget_is_refused(s):
    # the pair loop would need about 2 s terms, and its width about s log2 e
    # bits: the budget's error comes before any integer of that width is formed
    with pytest.raises(NonConvergence, match=f"did not converge within {highprec.MAX_TERMS} terms"):
        kummer_walk(0.5, [s])


def _strong_state(eta):
    """A state at s0 = 64 of radius one unit, P = Q = 1 at width 400."""
    return highprec._State(64.0, 400, (1 << 400, 0, 1 << 400, 0), 1,
                           highprec._norm_weight(eta, 64.0))


def test_step_past_its_term_budget_or_its_radius():
    # from s0 = 64 a step of 16 at eta = 4e6 (c = 32000.5) or 1e7 first
    # halves its terms, in the step's norm, past MAX_TERMS: it is refused.
    # At eta = 1e6 (c = 16000.5, mu = 125) one of 8 converges, and with
    # d mu = 1000, past e^700, its radius is a finite integer at least
    # e^1000 times the incoming one
    for eta in (4e6, 1e7):
        with pytest.raises(NonConvergence, match="did not converge"):
            highprec._step(eta, _strong_state(eta), 80.0)
    st = _strong_state(1e6)
    eps = highprec._step(1e6, st, 72.0)[0].eps
    assert type(eps) is int and eps >= mpmath.exp(1000) * st.eps


def test_strong_step_converges_within_the_term_budget():
    # eta = 1e6 from s0 = 64 to 80: the norm ratio rho_n = max(D alpha, r (c
    # + 2n + 1) / 2) / (n + 1) falls to 1/2 at n = 7,999, below MAX_TERMS,
    # so the step stops there with a finite integer radius
    st = _strong_state(1e6)
    new, terms = highprec._step(1e6, st, 80.0)
    assert len(terms) - 1 == 7999
    assert type(new.eps) is int and new.eps >= mpmath.exp(2000) * st.eps


@pytest.mark.parametrize("eta", [0.025, 0.5, 16.0])
def test_kummer_walk_is_the_series_bit_for_bit(eta):
    s = [59.0 * k / 128 for k in range(1, 129)] + [59.0 * 1.1 ** -k for k in range(1, 40)]
    s = sorted(s)
    walk = kummer_walk(eta, s)
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(eta, s))
    assert walk.seeds >= 1 and walk.continued > len(s) // 2
    # the linear part takes several points from each step's terms
    assert 0 < walk.steps < walk.continued - walk.seeds and walk.evals > 0


def test_kummer_walk_at_eta_zero_is_the_series():
    # eta = 0 is a1 when m**2 underflows; P is then M(1/2, 1/2) = e^z.  The
    # pair loop needs no eta: the walk seeds and steps as anywhere else, and
    # every value certifies, mpmath's nearest double
    s = [59.0 * k / 64 for k in range(1, 65)] + [59.0 * 1.1 ** -k for k in range(1, 30)]
    s = sorted(s)
    walk = kummer_walk(0.0, s)
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(0.0, s))
    assert (walk.seeds, walk.steps, walk.continued, walk.sums) == (4, 17, len(s), 4)


@pytest.mark.parametrize("eta", [1e-300, 0.0])
def test_kummer_walk_where_eta_s_is_tiny_seeds_and_steps(eta):
    # a 256-point table to |y| = 59 where eta s is below 2**-801 or 0 is
    # walked like any other: four seeds and 25 steps, and every value
    # certifies, equal to its lone point's bit for bit
    s = [59.0 * k / 256 for k in range(1, 257)]
    walk = kummer_walk(eta, s)
    lone = [kummer_walk(eta, [x]) for x in s]
    assert _hex(walk.p) == _hex([w.p[0] for w in lone])
    assert _hex(walk.q) == _hex([w.q[0] for w in lone])
    assert (walk.seeds, walk.steps, walk.sums) == (4, 25, 4)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_no_step_starts_at_zero(eta):
    # a state seeded at s = 0 has no reach (a quarter of 0): the next point
    # seeds its own, however close, and every value is mpmath's nearest double
    s = [0.0] + [k / 64 for k in range(1, 40)]
    assert highprec._plan(0.0, s, 1)[1] == 0
    walk = kummer_walk(eta, s)
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(eta, s))
    assert walk.seeds == 5 and walk.continued == len(s) - 1


@pytest.mark.parametrize("eta", [1.62, 2.0])
def test_kummer_walk_seeds_once(eta):
    # steps are read off the grid alone, with no price to weigh at the
    # state's width, so a state seeded where |M| is large is carried rather
    # than dropped and seeded again at the next point: the first four
    # points each lie out of a step's reach of the one before and start a
    # state, and the fourth's is carried to the end
    walk = kummer_walk(eta, [59.0 * k / 256 for k in range(1, 257)])
    assert walk.seeds == 4


def _pair(eta):
    a = complex(0.5, eta)
    return (a, 0.5), (a, 1.5)


def _state(eta, s0, width=100):
    """The state a walk seeds at s0: one pair loop at ``width`` bits, P
    formed from Q's terms, and its radius max(|P error|, c |Q error|) in
    the walk's norm."""
    c = highprec._norm_weight(eta, s0)
    ints, err_p, err_q = highprec._pair_sum(eta, s0, width)
    return highprec._State(s0, width, ints, max(err_p, math.ceil(Fraction(c) * err_q)), c)


def _hex(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _nearest(x):
    """The double nearest the mpmath real ``x``, through its exact rational."""
    sign, man, exp, _ = x._mpf_
    v = _nearest_double(man << max(0, exp), max(0, -exp))
    return -v if sign else v


def _nearest_pair(eta, s):
    """mpmath's P at each s, then its Q, each component rounded to the
    nearest double, at 200 + max(0, -log2 s) + 3 s bits: the cancellation
    of the series and the bits the smallest component, Im Q ~ -s/3, lies
    below the larger."""
    out = []
    for b in (0.5, 1.5):
        for x in s:
            with mpmath.workprec(200 + max(0, -math.frexp(x)[1]) + math.ceil(3.0 * x)):
                v = mpmath.hyp1f1(mpmath.mpc(0.5, eta), b, mpmath.mpc(0, -x))
                out.append(complex(_nearest(v.real), _nearest(v.imag)))
    return out


_ROUND_S = st.one_of(st.floats(0.0, 59.0),
                     st.floats(math.log10(5e-324), math.log10(59.0)).map(lambda e: 10.0 ** e))


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.one_of(st.just(0.0), st.floats(-12.0, math.log10(20.0)).map(lambda e: 10.0 ** e)),
       s=st.one_of(_ROUND_S.map(lambda x: [x]),
                   st.lists(_ROUND_S, min_size=2, max_size=6, unique=True).map(sorted),
                   st.builds(lambda hi, n: sorted({hi * k / n for k in range(1, n + 1)}),
                             _ROUND_S, st.integers(2, 16))))
@example(eta=0.5, s=[1e-250])
@example(eta=0.0, s=[8.873499459680644e-13])
@example(eta=0.010350244292280555, s=[1.0464891916220499e-08])
@example(eta=0.14847481401591137, s=[4.66898648904844e-308])
def test_walk_is_mpmath_correctly_rounded(eta, s):
    # every component of P and Q, seeded, carried or inside a step, is the
    # double nearest the exact value, the smallest among them too (Im P ~
    # -s and Im Q ~ -s/3 at small s), subnormal ones included
    walk = kummer_walk(eta, s)
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(eta, s))


@settings(max_examples=300)
@given(eta=st.one_of(st.just(0.0), st.floats(1e-6, 16.0)),
       s=st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
def test_pair_loop_is_two_series_bit_for_bit(eta, s):
    # a lone point sums Q's series once and forms P from its terms; the
    # pair starts a state that takes no step, and each component is
    # mpmath's value rounded to the nearest double
    walk = kummer_walk(eta, [s])
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(eta, [s]))
    assert walk.sums >= 1 and (walk.seeds, walk.steps) == (1, 0)
    assert walk.continued <= 1


def _mp_pair(eta, s, direct):
    """mpmath's P and Q at z = -i s, at the working precision: directly, or
    from branch I's functions M(i eta, 1/2) and M(1 + i eta, 3/2) by Kummer's
    transformation, M(a, b; z) = e^z conj(M(b - conj(a), b; z)) on the ray."""
    z = mpmath.mpc(0, -s)
    if direct:
        a = mpmath.mpc(0.5, eta)
        return mpmath.hyp1f1(a, 0.5, z), mpmath.hyp1f1(a, 1.5, z)
    a = mpmath.mpc(0, eta)
    return (mpmath.exp(z) * mpmath.conj(mpmath.hyp1f1(a, 0.5, z)),
            mpmath.exp(z) * mpmath.conj(mpmath.hyp1f1(a + 1, 1.5, z)))


_PAIR_ETA = st.one_of(st.just(0.0), st.floats(-12.0, math.log10(20.0)).map(lambda e: 10.0 ** e))
_PAIR_S = st.one_of(st.floats(0.0, 60.0), st.floats(-250.0, math.log10(60.0)).map(lambda e: 10.0 ** e))


def _check_pair_sum_bounds(eta, s, direct):
    """Q and the P formed from Q's terms lie within their bounds of
    mpmath's values at 60 digits, taken directly or from branch I's
    functions, and at the width a one-point walk starts at (no predicted
    growth, one point to go) the values stand SAFE_BITS above the bounds."""
    width = highprec.SAFE_BITS + highprec._WALK_GUARD + 1
    ints, err_p, err_q = highprec._pair_sum(eta, s, width)
    with mpmath.workdps(60):
        for want, (re, im), err in zip(_mp_pair(eta, s, direct), (ints[:2], ints[2:]),
                                       (err_p, err_q)):
            want *= 2 ** width
            assert abs(mpmath.mpc(re, im) - want) <= err
            assert err * 2 ** highprec.SAFE_BITS < abs(want)


@pytest.mark.parametrize("eta,s,direct", [
    (0.5, 40.0, False), (0.5, 40.0, True), (16.0, 59.0, False), (16.0, 7.3, True),
    (1e-6, 30.0, False), (1e-6, 30.0, True), (0.02, 1e-3, False), (3.0, 0.25, True),
    (1e-12, 5.0, False), (1e-9, 20.0, True), (0.0, 30.0, False), (0.0, 30.0, True),
    (1e-300, 30.0, False), (1e-300, 59.0, True), (0.5, 1e-250, False)])
def test_pair_sum_bounds_its_error(eta, s, direct):
    # at any eta s, 0 included
    _check_pair_sum_bounds(eta, s, direct)


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=_PAIR_ETA, s=_PAIR_S, direct=st.booleans())
def test_pair_sum_bounds_its_error_anywhere(eta, s, direct):
    # the same bounds on random points: across the turn of the terms, where
    # the pair loop reads their peak, and its first stop test, where their
    # ratios fall below 1/2, at eta up to 20 and |y| up to 60
    _check_pair_sum_bounds(eta, s, direct)


def _reference_pair(eta, s, bits, n):
    """(sr, si, kr, ki, top, last) over the n terms t_0 = 2**bits, ... of
    Q's series, each floor(rho t + 1/2) per component of the exact rational
    ratio rho = (a + k) z / ((3/2 + k)(k + 1)): top is the largest bit
    length of a component after t_0, last the bit length of the last."""
    e, zs = Fraction(eta), Fraction(s)
    tr, ti = 1 << bits, 0
    sr, si, kr, ki, top = tr, ti, 0, 0, 0
    for k in range(1, n):
        # (a + k - 1) z = e s - i (k - 1/2) s
        nr, ni, d = e * zs, -(k - Fraction(1, 2)) * zs, (k + Fraction(1, 2)) * k
        tr, ti = (math.floor((tr * nr - ti * ni) / d + Fraction(1, 2)),
                  math.floor((tr * ni + ti * nr) / d + Fraction(1, 2)))
        sr, si, kr, ki = sr + tr, si + ti, kr + k * tr, ki + k * ti
        top = max(top, (abs(tr) | abs(ti)).bit_length())
    return sr, si, kr, ki, top, (abs(tr) | abs(ti)).bit_length()


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=_PAIR_ETA, s=st.one_of(_PAIR_S, st.integers(0, 60).map(float)),
       width=st.integers(20, 160))
@example(eta=0.0, s=0.0, width=82)
@example(eta=0.5, s=59.0, width=82)
@example(eta=20.0, s=60.0, width=82)
@example(eta=1e-12, s=5.0, width=82)
def test_pair_loop_sums_the_series_terms(eta, s, width):
    # the pair loop's integers are the exact sums of the rounded terms the
    # general loop forms, K = sum k t_k among them; its peak, read once
    # where the terms stop growing, bounds every term; it stops at a term
    # that passes the stop rule, where the ratio has fallen below 1/2,
    # within one term before the general loop's stop (twice in a row) and
    # six after (the test runs every 8 terms)
    nb = int(3.0 * s + 40.0).bit_length()
    bits = width + math.ceil(s * highprec._LOG2E) + 3 * nb + 4
    stop = width + 8 + nb
    sr, si, kr, ki, peak, n = highprec._pair_loop(eta, s, bits, stop)
    *sums, top, last = _reference_pair(eta, s, bits, n)
    assert [sr, si, kr, ki] == sums
    assert top <= max(peak, bits)
    assert last == 0 or last + stop <= (abs(sr) | abs(si)).bit_length()
    assert n - 1 >= highprec._turn(eta, s, 0.5)
    general = _fixed_sum(complex(0.5, eta), 1.5, complex(0.0, -s), bits, stop_bits=stop)[3]
    assert general - 1 <= n <= general + 6


@pytest.mark.parametrize("eta,s", [(0.0, 30.0), (1e-300, 30.0), (0.5, 1e-250), (0.5, 0.0)])
def test_lone_point_runs_one_pair_loop_where_eta_s_is_tiny(eta, s, monkeypatch):
    # at eta s = 0 or far below 1 a lone point still runs one pair loop and
    # seeds a state, whose width gains the bits Im Q ~ -s/3 lies below 1,
    # so the state certifies it: at s = 1e-250, Im P and Im Q are about
    # -1e-250 and -3.3e-251; s = 0 gives (1, 1) exactly
    loops = []
    real = highprec._pair_sum
    monkeypatch.setattr(highprec, "_pair_sum", lambda *args: loops.append(args) or real(*args))
    walk = kummer_walk(eta, [s])
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(eta, [s]))
    assert len(loops) == walk.seeds == walk.sums == 1


def test_tiny_s_grid_certifies_from_its_states():
    # 39 points at s = 1e-250 k: Im P ~ -s and Im Q ~ -s/3 lie some 830 bits
    # below Re P ~ Re Q ~ 1, and each interior point's Horner sum is cut at
    # 2**-SAFE_BITS of that smallest component, so every value certifies
    # from its state: 4 pair loops, each a seed, and no rerun
    s = [1e-250 * k for k in range(1, 40)]
    walk = kummer_walk(0.5, s)
    assert walk.sums == walk.seeds == 4
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(0.5, s))


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.one_of(st.just(0.0), st.floats(1e-6, 16.0)),
       kind=st.sampled_from(("lone", "linear", "log")), hi=st.floats(1e-3, 59.9),
       n=st.integers(2, 100), k=st.integers(1, 2))
def test_uncertified_values_rerun_the_pair_loop(eta, kind, hi, n, k):
    # a value whose box _certain leaves open k times (lone, seeded, carried
    # or inside a step) reruns the pair loop k times, each wider, and is
    # still the nearest double; the loops counted are the seeds and the
    # reruns, and no general series runs
    s = [hi] if kind == "lone" else _grid(kind, hi, n)
    real_pair, real_certain = highprec._pair_sum, highprec._certain
    seeds, reruns = [], []
    at = {"open": 0, "p": None}   # attempts left open for the current value; P's box

    def count_pair(eta, x, width):
        (reruns if at["open"] else seeds).append(x)
        return real_pair(eta, x, width)

    def certain(re, im, rad, width):
        got = real_certain(re, im, rad, width)
        if at["p"] is None:          # P's box starts an attempt
            at["p"] = (got,)
            return got
        p, at["p"] = at["p"][0], None  # Q's box ends it
        if at["open"] < k:
            at["open"] += 1
            return None
        at["open"] = 0
        assert p is not None and got is not None
        return got

    def no_series(*args, **kw):
        raise AssertionError("a general series ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(highprec, "_certain", certain)
        mp.setattr(highprec, "_pair_sum", count_pair)
        mp.setattr(highprec, "_fixed_sum", no_series)
        walk = kummer_walk(eta, s)
    assert _hex(walk.p + walk.q) == _hex(_nearest_pair(eta, s))
    assert sorted(reruns) == sorted(s * k)
    assert walk.sums == len(seeds) + len(reruns) == walk.seeds + k * len(s)
    assert walk.continued == 0


def test_value_that_never_certifies_is_refused(monkeypatch):
    # a box left open at every width reruns the pair loop nine times, the
    # last with a guard of 2**12 bits, and then the walk stops
    widths = []
    real = highprec._pair_sum
    monkeypatch.setattr(highprec, "_certain", lambda *args: None)
    monkeypatch.setattr(highprec, "_pair_sum", lambda *args: widths.append(args[2]) or real(*args))
    with pytest.raises(NonConvergence, match=r"eta=0\.5, s=1\.0 does not certify"):
        kummer_walk(0.5, [1.0])
    assert len(widths) == 10
    assert widths[-1] - widths[-2] >= 1 << 12


def test_walk_falls_back_when_a_step_does_not_converge(monkeypatch):
    def no_step(*args):
        raise NonConvergence("synthetic")

    monkeypatch.setattr(highprec, "_step", no_step)
    s = [59.0 * k / 32 for k in range(1, 33)]
    walk = kummer_walk(0.5, s)
    assert walk.p == [chf_series_fixed(0.5 + 0.5j, 0.5, complex(0.0, -x)) for x in s]
    assert walk.steps == 0 and walk.seeds > 0


_SPARSE = [1.0, 1.3, 1.7, 2.2, 2.9, 3.8, 5.0, 6.5, 8.5, 11.0, 14.5, 19.0, 25.0, 32.0, 42.0, 55.0]


def _grid(kind, hi, n):
    """n points to |y| = hi, evenly spaced or over four decades."""
    f = (lambda k: k / n) if kind == "linear" else (lambda k: 10.0 ** (4.0 * (k / n - 1.0)))
    return sorted({hi * f(k) for k in range(1, n + 1)})


def _lone(eta, s):
    """P at each s, then Q, from each point's walk alone: one pair loop,
    whose values :func:`test_walk_is_mpmath_correctly_rounded` holds to
    mpmath's nearest double."""
    lone = [kummer_walk(eta, [x]) for x in s]
    return [w.p[0] for w in lone] + [w.q[0] for w in lone]


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.floats(1e-6, 16.0),
       s=st.builds(_grid, st.sampled_from(("linear", "log")), st.floats(1e-3, 59.9),
                   st.integers(2, 64)))
@example(eta=0.5, s=_SPARSE)
def test_every_step_serves_a_point(eta, s):
    # a Taylor step goes only where it gives a grid point: each step
    # s0 -> s1 has one in (s0, s1], and the values are those of the lone
    # points (:func:`_lone`)
    steps = []
    real = highprec._step

    def step(eta, st, s1):
        steps.append((st.s, s1))
        return real(eta, st, s1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(highprec, "_step", step)
        walk = kummer_walk(eta, s)
    for s0, s1 in steps:
        assert any(s0 < x <= s1 for x in s), (s0, s1)
    assert _hex(walk.p + walk.q) == _hex(_lone(eta, s))


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.floats(1e-6, 16.0),
       s=st.one_of(
           st.builds(_grid, st.sampled_from(("linear", "log")), st.floats(1e-3, 59.9),
                     st.integers(2, 128)),
           st.lists(st.floats(1e-3, 59.9), min_size=2, max_size=128, unique=True).map(sorted)))
@example(eta=16.0, s=[59.0 * k / 256 for k in range(1, 257)])
@example(eta=0.5, s=[1.0, 1.2, 1.4, 3.0, 3.5])      # drops a state and seeds again
# Im Q at s[1] is -0x1.70a169589f09fp-23, mpmath's nearest double; the
# general series rounds it an ulp off, to -0x1.70a169589f0a0p-23
@example(eta=1e-6, s=_grid("log", 0.001953125, 19))
def test_walk_follows_the_reach_rule(eta, s):
    # every step reaches at most a quarter of its start, and ends past a
    # grid point only at the largest power of two within that quarter,
    # serving two points or more; a pair loop after the first point seeds
    # a state only where the gap from the point before is out of a step's
    # reach (the other loops rerun a value whose box was left open); the
    # values are those of the lone points (:func:`_lone`)
    steps, loops, reruns = [], [], {}
    real_step, real_pair, real_rounded = highprec._step, highprec._pair_sum, highprec._rounded

    def step(eta, st, s1):
        steps.append((st.s, s1))
        return real_step(eta, st, s1)

    def pair(eta, x, width):
        loops.append(x)
        return real_pair(eta, x, width)

    def rounded(eta, x, *args):
        out = real_rounded(eta, x, *args)
        reruns[x] = out[2]
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(highprec, "_step", step)
        mp.setattr(highprec, "_pair_sum", pair)
        mp.setattr(highprec, "_rounded", rounded)
        walk = kummer_walk(eta, s)
    for s0, s1 in steps:
        d = s1 - s0
        assert d <= s0 / 4, (s0, s1)
        if s1 not in s:
            assert math.frexp(d)[0] == 0.5 and 2.0 * d > s0 / 4, (s0, s1)
            assert sum(s0 < x <= s1 for x in s) >= 2, (s0, s1)
    for x in set(loops):
        k = s.index(x)
        assert loops.count(x) - reruns[x] in (0, 1)
        if loops.count(x) > reruns[x]:      # x seeded a state
            assert k == 0 or s[k] - s[k - 1] > s[k - 1] / 4, (s[k - 1], x)
    assert _hex(walk.p + walk.q) == _hex(_lone(eta, s))


@pytest.mark.parametrize("eta", [0.025, 0.5, 4.0, 16.0])
def test_walk_radius_bounds_the_error(eta, monkeypatch):
    # every carried state lies within its radius of mpmath's pair at 60
    # digits or more, on steps of reach below 1 and above
    states = []
    real = highprec._step

    def step(*args):
        new, terms = real(*args)
        states.append(new)
        return new, terms

    monkeypatch.setattr(highprec, "_step", step)
    kummer_walk(eta, [59.0 * k / 64 for k in range(1, 65)])
    assert len(states) > 10
    for st in states:
        assert _error(eta, st.s, st.ints, st.width, st.c) <= st.eps


def _error(eta, s, ints, width, c, direct=True):
    """max(|P - P'|, c |Q - Q'|) * 2**width of the integers against mpmath's
    pair (the norm of the walk's radii), see :func:`_mp_pair`, at 30 digits
    more than the integers hold (at least 60): at eta = 1e3 they pass 2**1300."""
    with mpmath.workdps(max(60, 30 + max(map(abs, ints)).bit_length() * 10 // 33)):
        p, q = _mp_pair(eta, s, direct)
        got = [mpmath.mpf(v) / 2 ** width for v in ints]
        err = max(abs(mpmath.mpc(got[0], got[1]) - p), c * abs(mpmath.mpc(got[2], got[3]) - q))
        return err * 2 ** width


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("eta", [0.025, 0.5, 4.0, 16.0, 1000.0])
def test_inside_radius_bounds_the_error(eta, direct, monkeypatch):
    # every point a step gives from its terms on a dense grid lies within its
    # radius of mpmath's pair (:func:`_error`), taken directly or from branch I's
    # functions
    seen = []
    real = highprec._inside

    def inside(st, new, terms, s):
        out, used = real(st, new, terms, s)
        seen.extend((x, ints, eps, new.width, new.c) for x, (ints, eps) in zip(s, out))
        return out, used

    monkeypatch.setattr(highprec, "_inside", inside)
    kummer_walk(eta, [59.0 * k / 512 for k in range(1, 513)])
    assert len(seen) > 300
    for x, ints, eps, width, c in seen[::29] + seen[-1:]:
        assert _error(eta, x, ints, width, c, direct) <= eps


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.floats(1e-3, 16.0), s0=st.floats(1.0, 59.0),
       e=st.integers(-6, 3), fs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_inside_radius_bounds_the_error_anywhere(eta, s0, e, fs):
    # a step of any reach at any s0, and points anywhere inside it
    reach = 2.0 ** e
    assume(reach <= 0.25 * s0 and (s0 + reach) - s0 == reach)
    pts = sorted(x for x in {s0 + f * reach for f in fs} if s0 < x < s0 + reach)
    assume(pts)
    state = _state(eta, s0)
    new, terms = highprec._step(eta, state, s0 + reach)
    out, _ = highprec._inside(state, new, terms, pts)
    for x, (ints, eps) in zip(pts, out):
        assert _error(eta, x, ints, new.width, new.c) <= eps


def test_certain_rounds_like_int_to_float():
    rng = random.Random(4)
    seen = 0
    for _ in range(2000):
        width = rng.randrange(60, 200)
        re, im = (rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, width + 40))
                  for _ in range(2))
        rad = rng.getrandbits(rng.randrange(1, 40))
        got = highprec._certain(re, im, rad, width)
        if got is None:
            continue
        seen += 1
        for x, v in ((re, got.real), (im, got.imag)):
            assert _nearest_double(x - rad, width) == v == _nearest_double(x + rad, width)
    assert seen > 100
    # a side at an exact power of two is certain when both ends round to it
    width = 90
    assert highprec._certain(1 << width, -(3 << 87), 5, width) == complex(1.0, -0.375)
    # a box across a rounding boundary, (2**53 + 1/2) * 2**8, is uncertain
    tie = ((1 << 53) + 1) << 7
    assert highprec._certain(tie, 1 << 61, 1, 8) is None
    # a box past the double range raises, as the value lies past it
    with pytest.raises(OverflowError):
        highprec._certain(1 << 1200, 1 << 1200, 1, 60)


def _reference_certain(re, im, rad, width):
    """The certificate as two roundings per side: both ends of each side,
    the box alone, to the exact nearest double (:func:`_nearest_double`),
    which raises OverflowError where a lower end rounds past the largest
    double."""
    out = []
    for x in (re, im):
        lo = abs(x) - rad
        if lo <= 0:
            return None
        v = _nearest_double(lo, width)
        try:
            if v != _nearest_double(lo + 2 * rad, width):
                return None
        except OverflowError:
            return None
        out.append(v if x > 0 else -v)
    return complex(*out)


def _agrees_with_reference_certain(re, im, rad, width):
    """_certain is the reference's answer, None included; where the
    reference raises OverflowError (past the largest double) so does
    _certain, and the answer is None: no double."""
    try:
        want = _reference_certain(re, im, rad, width)
    except OverflowError:
        with pytest.raises(OverflowError):
            highprec._certain(re, im, rad, width)
        return None
    got = highprec._certain(re, im, rad, width)
    assert got == want, (re, im, rad, width, got, want)
    return got


# sides up to 2**3470, so that over 2**width, width in [0, 3300], the
# values reach past 2**1024 as well as below 2**-1074
_SIDES = st.builds(lambda sign, m, shift: sign * (m << shift), st.sampled_from((-1, 1)),
                   st.integers(1, (1 << 70) - 1), st.integers(0, 3400))


@settings(max_examples=settings.default.max_examples // 5)
@given(re=_SIDES, im=_SIDES, rad=st.integers(0, 1 << 40), width=st.integers(0, 3300))
def test_certain_agrees_with_two_roundings(re, im, rad, width):
    _agrees_with_reference_certain(re, im, rad, width)


@pytest.mark.parametrize("re,im,rad,width,want", [
    # 2**60 - 2 and 2**60 + 2 sit on either side of 2**60 and both round to it
    ((1 << 60), 3 << 58, 2, 60, complex(1.0, 0.75)),
    # 2**60 - 99 rounds to 2**60 - 2**7 at its 53 bits, 2**60 + 99 to 2**60
    ((1 << 60), -(1 << 60), 99, 60, None),
    # 2**56 - 2, radius 0, rounds up to 2**56 at its 53 bits
    ((1 << 56) - 2, -(1 << 56) + 2, 0, 56, complex(1.0, -1.0)),
    # over 4, lo = 2**53 + 1.75 and hi = 2**53 + 2.25 round to 2**53 + 2
    ((((1 << 53) + 1) << 2) + 4, 1 << 60, 1, 2, complex(float(((1 << 53) + 2) << 2) / 4, 2.0 ** 58)),
    # over 4, lo = 2**53 + 1.5 and hi = 2**53 + 2.5 round to 2**53 + 2
    ((((1 << 53) + 1) << 2) + 4, 1 << 60, 2, 2, complex(float(((1 << 53) + 2) << 2) / 4, 2.0 ** 58)),
    # over 4, hi = 2**53 + 1.25 rounds up, lo = 2**53 + 0.75 down
    ((((1 << 53) + 1) << 2), 1 << 60, 1, 2, None),
    # over 4, hi = 2**53 + 1.5 rounds up, lo = 2**53 + 0.5 down
    ((((1 << 53) + 1) << 2), 1 << 60, 2, 2, None),
    # radius 0 on the tie 2**53 + 1: to the even 2**53
    ((((1 << 53) + 1) << 2), 1 << 60, 0, 2, complex(2.0 ** 53, 2.0 ** 58)),
    # a side below 53 bits is exact, and its two ends differ
    ((1 << 52) + 5, 1 << 60, 1, 0, None),
    # past the double range: no double, and both raise OverflowError
    ((1 << 1100), 1 << 60, 1, 60, None),
    ((1 << 1100) - (1 << 1040), 1 << 60, 1, 76, None),
    # just inside it: the largest double
    ((1 << 1024) - (1 << 971), (1 << 1024) - (1 << 971), 1, 0,
     complex(sys.float_info.max, sys.float_info.max)),
    # a side whose ends, 1 and 5, are exact and differ
    (3, 1 << 60, 2, 0, None),
    # a side that reaches zero
    (3, 1 << 60, 3, 0, None),
    # both ends, 3 * 2**139 -+ about 2**100, land on the subnormal 3 * 2**-1061
    (3 << 139, 3 << 139, 1 << 100, 1200, complex(3 * 2.0 ** -1061, 3 * 2.0 ** -1061)),
    # both sides' ends, of bit lengths 81 and 91, round to one double each
    ((1 << 80) + (1 << 30), -((1 << 90) + (1 << 40)), 1, 80,
     complex(1.0 + 2.0 ** -50, -(2.0 ** 10 + 2.0 ** -40))),
    # both ends round to (2**52 + 1) 2**972, one ulp past the largest double:
    # no double, and both raise OverflowError
    ((1 << 1024) + (1 << 972), (1 << 1024) + (1 << 972), 1, 0, None),
    # both ends, 3 * 2**139 -+ 2**60, land on the subnormal 3 * 2**-1061
    (3 << 139, 3 << 139, 1 << 60, 1200, complex(3 * 2.0 ** -1061, 3 * 2.0 ** -1061)),
    # ends of 60 bits, (2**59 + 129) and (2**59 + 255) over 2**1129, both
    # within half a subnormal ulp of 2**-1070
    ((1 << 59) + 192, (1 << 59) + 192, 63, 1129, complex(2.0 ** -1070, 2.0 ** -1070)),
    # ends of 80 and 81 bits, across 2**80, both rounding to it
    (1 << 80, 1 << 80, 1, 80, complex(1.0, 1.0)),
    # sides of 41 bits, exact as integers, rounded to the subnormal 2**-1070
    ((1 << 40) + (1 << 34), (1 << 40) + (1 << 34), 0, 1110,
     complex(2.0 ** -1070, 2.0 ** -1070)),
    # ends either side of the tie 1 + 1.5 * 2**-52: two doubles
    (((1 << 53) + 3) << 27, 1 << 80, 1, 80, None),
])
def test_certain_fixed_boxes(re, im, rad, width, want):
    assert _agrees_with_reference_certain(re, im, rad, width) == want


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


@pytest.mark.parametrize("eta", [0.0, 0.5, 16.0, 512.0])
def test_pair_p_row_is_p_plus_2i_eta_q(eta):
    # the row the Taylor step forms P's terms from, dP/dz = P + 2 i eta Q:
    # with dM(a, b; z)/dz = (a / b) M(a + 1, b + 1; z) (DLMF 13.3.15) it
    # reads 2a M(a + 1, 3/2; z) = M(a, 1/2; z) + 2 i eta M(a, 3/2; z), here
    # to 30 digits of |P| + 2 eta |Q| (each side is at least a third of it)
    with mpmath.workdps(40):
        a = mpmath.mpc(0.5, eta)
        for s in (0.0, 1e-3, 0.7, 7.3, 30.0, 59.0):
            z = mpmath.mpc(0, -s)
            p, q = mpmath.hyp1f1(a, 0.5, z), mpmath.hyp1f1(a, 1.5, z)
            dp = 2 * a * mpmath.hyp1f1(a + 1, 1.5, z)
            assert abs(dp - (p + 2j * eta * q)) <= 1e-30 * (abs(p) + 2 * eta * abs(q)), s


def _reference_step(eta, ints, s0, s1, n_terms):
    """The Taylor step summed with exact rationals, each term rounded half up.

    P_{n+1} = D (2 eta Q_n - i P_n) / (n + 1) and Q_{n+1} = D (P_n - (2n + 1)
    Q_n) / (2 (n + 1) s0), D = s1 - s0: the rows P' = P + 2 i eta Q and
    z Q' = (P - Q) / 2 of the pair's system on z = -i s, written out with
    components as (re, im) pairs.
    """
    d, s0, eta = Fraction(s1) - Fraction(s0), Fraction(s0), Fraction(eta)
    p, q = (Fraction(ints[0]), Fraction(ints[1])), (Fraction(ints[2]), Fraction(ints[3]))
    terms = [tuple(ints)]
    for n in range(n_terms):
        # 2 eta Q - i P = (2 eta Re Q + Im P) + i (2 eta Im Q - Re P)
        pn = [d / (n + 1) * x for x in (2 * eta * q[0] + p[1], 2 * eta * q[1] - p[0])]
        qn = [d / (2 * (n + 1) * s0) * (x - (2 * n + 1) * y) for x, y in zip(p, q)]
        p, q = (tuple(Fraction(_round_half_up(v)) for v in w) for w in (pn, qn))
        terms.append(tuple(int(v) for v in p + q))
    return tuple(map(sum, zip(*terms))), terms


@pytest.mark.parametrize("eta,s0,s1", [
    (0.5, 30.0, 30.0 + 59 / 256), (0.025, 1.0, 1.25), (2.0, 2.75, 3.265625),
    (0.25, 3.75, 4.21875), (16.0, 12.3, 14.1), (3.0, 40.0, 40.5), (512.0, 40.0, 48.0)])
def test_step_is_the_rounded_exact_recurrence(eta, s0, s1):
    st = _state(eta, s0)
    new, terms = highprec._step(eta, st, s1)
    assert (new.ints, terms) == _reference_step(eta, st.ints, s0, s1, len(terms) - 1)


def _reference_inside(terms, f, cm, eps):
    """Horner's rule on a step's terms with exact rationals, each product by
    f rounded half up, cut off at the first N where the tail, f**(N+1)
    times the bound ceil(3 cm) 2**(bits - 1) on each later term, falls to
    the budget max(1, eps >> 3, 2**(t - SAFE_BITS)) of a step of radius
    ``eps``, t the bit length of the smallest component of its first term;
    returns the sum, N and that tail."""
    k3 = math.ceil(3.0 * cm)
    bound = [k3 * Fraction(2) ** ((abs(pr) | abs(pi) | abs(qr) | abs(qi)).bit_length() - 1)
             for pr, pi, qr, qi in terms]
    t = min(abs(v).bit_length() for v in terms[0])
    budget = max(1, eps >> 3, 1 << max(0, t - highprec.SAFE_BITS))
    n = 0
    while f ** (n + 1) * sum(bound[n + 1:]) > budget:
        n += 1
    acc = terms[n]
    for u in reversed(terms[:n]):
        acc = tuple(v + _round_half_up(w * f) for v, w in zip(u, acc))
    return acc, n, f ** (n + 1) * sum(bound[n + 1:])


def _covers(eps, new_eps, tail, cm, n):
    """A point's radius covers the step's, its cut-off tail rounded up to a
    power of two (one unit at least) and ceil(0.7072 cm) per rounding."""
    up = 1
    while up < tail:
        up *= 2
    return eps >= new_eps + up + math.ceil(0.7072 * cm) * n


@pytest.mark.parametrize("eta,s0,e", [
    (0.5, 30.0, 1), (0.025, 4.0, -1), (2.0, 2.75, -2), (16.0, 12.3, 0), (3.0, 40.0, 3)])
def test_inside_is_the_rounded_exact_horner(eta, s0, e):
    state = _state(eta, s0)
    new, terms = highprec._step(eta, state, s0 + 2.0 ** e)
    pts = [s0 + 2.0 ** e * k / 7 for k in range(1, 7)]
    out, used = highprec._inside(state, new, terms, pts)
    cm, total = max(1.0, new.c), 0
    for x, (ints, eps) in zip(pts, out):
        want, n, tail = _reference_inside(
            terms, (Fraction(x) - Fraction(s0)) / Fraction(2) ** e, cm, new.eps)
        assert ints == want
        assert _covers(eps, new.eps, tail, cm, n)
        total += n
    assert used == total


def _inside_is_horner(terms, s0, e, pts, c=1.0, eps=1):
    """_inside on a step of reach 2**e from s0 with the given terms and
    radius gives at each point the ints and the cut-off of
    _reference_inside, and a radius that covers its tail; returns the
    terms it evaluated."""
    reach = 2.0 ** e
    state = highprec._State(s0, 100, terms[0], eps, c)
    new = highprec._State(s0 + reach, 100, terms[0], eps, c)
    out, used = highprec._inside(state, new, terms, pts)
    total = 0
    for x, (ints, rad) in zip(pts, out):
        want, n, tail = _reference_inside(
            terms, (Fraction(x) - Fraction(s0)) / Fraction(reach), max(1.0, c), eps)
        assert ints == want
        assert _covers(rad, eps, tail, max(1.0, c), n)
        total += n
    assert used == total
    return used


_COMPONENTS = st.integers(-(1 << 300), 1 << 300) | st.sampled_from((0, 1, -1, (1 << 300) - 1))


@settings(max_examples=settings.default.max_examples // 5)
@given(terms=st.lists(st.tuples(*[_COMPONENTS] * 4), min_size=1, max_size=40),
       s0=st.floats(1.0, 59.0), e=st.integers(-6, 3),
       fs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_inside_lanes_are_the_exact_horner(terms, s0, e, fs):
    # any terms, signs mixed, at points with different dyadic exponents
    reach = 2.0 ** e
    assume(reach <= 0.25 * s0 and (s0 + reach) - s0 == reach)
    pts = sorted(x for x in {s0 + f * reach for f in fs} if s0 < x < s0 + reach)
    assume(pts)
    _inside_is_horner(terms, s0, e, pts)


@pytest.mark.parametrize("lane", range(4))
def test_inside_lanes_at_their_extremes(lane):
    big = (1 << 200) - 1
    one = [0, 0, 0, 0]
    for sign in (1, -1):
        one[lane] = sign * big
        # one component at the largest magnitude, the others zero, summed
        # with f = g / 2**sh, g = 2**sh - 1, just below 1: the partial sums
        # reach 40 times the term, next to the lanes' bias
        x = math.nextafter(3.5, 0.0)
        _inside_is_horner([tuple(one)] * 40, 3.0, -1, [x])
        # mixed signs, at points of dyadic exponents 2, 3, 5 and 51 in one call
        mixed = [tuple(sign * (-1) ** (j + c) * (big >> (j + c)) for c in range(4))
                 for j in range(30)]
        _inside_is_horner(mixed, 3.0, -1, [3.03125, 3.1, 3.125, 3.25, x], c=2.5)
        # a single interior point
        _inside_is_horner(mixed, 3.0, -1, [3.25])


def test_inside_cuts_where_the_tail_meets_the_budget():
    # terms u_j = 2**(40 - j) at f = 1/2 leave a tail of 1.5 2**(40 - 2N):
    # one unit is reached at N = 21, an eighth of a radius of 2**20 at 12
    terms = [((1 << 40) >> j,) * 4 for j in range(41)]
    assert _inside_is_horner(terms, 3.0, -1, [3.25]) == 21
    assert _inside_is_horner(terms, 3.0, -1, [3.25], eps=1 << 20) == 12
    # u_j = 2**(110 - j) in every lane: 2**(111 - SAFE_BITS) is reached at
    # N = 35; with Q zero the smallest component has no bits, and the cut
    # is the unit's, 56
    terms = [((1 << 110) >> j,) * 4 for j in range(111)]
    assert _inside_is_horner(terms, 3.0, -1, [3.25]) == 35
    terms = [((1 << 110) >> j,) * 2 + (0, 0) for j in range(111)]
    assert _inside_is_horner(terms, 3.0, -1, [3.25]) == 56


def test_inside_refuses_a_reach_off_a_power_of_two():
    # 1.0 past s0 = 7.222656250000001 rounds to 8.22265625: no shifts divide by it
    s0 = 7.222656250000001
    assert (s0 + 1.0) - s0 != 1.0
    state = _state(0.5, s0)
    new, terms = highprec._step(0.5, state, s0 + 1.0)
    with pytest.raises(ValueError):
        highprec._inside(state, new, terms, [s0 + 0.5])
    assert highprec._plan(s0, [s0 + 0.25 * k for k in range(1, 9)], 0)[0] < s0 + 1.0


def test_walk_work_is_pinned():
    # a 256-point linear grid to |y| = 59 at eta = 0.5: steps (expansions),
    # their Taylor terms, the terms evaluated inside their reach, points a
    # state certified and pair loops (4, each starting a state; the box of
    # every value certifies, so none reruns)
    walk = kummer_walk(0.5, [59.0 * k / 256 for k in range(1, 257)])
    assert (walk.steps, walk.terms, walk.evals, walk.continued, walk.sums) == \
        (25, 900, 7423, 256, 4)
    # a sparse grid, each gap more than a quarter of its start: no step
    # reaches the next point, and every point starts a state of its own
    walk = kummer_walk(0.5, _SPARSE)
    assert (walk.steps, walk.seeds, walk.sums) == (0, 16, 16)


def test_strong_coupling_grid_is_its_lone_points_bit_for_bit():
    # eta = 512, |y| <= 58: a Taylor step's largest term has 1,016 bits, so
    # its tail bound in units of 2**-width would pass the double range; the
    # walk still answers, and each value is the one its point gets alone
    s = [0.02 + 57.98 * k / 255 for k in range(256)]
    walk = kummer_walk(512.0, s)
    lone = [kummer_walk(512.0, [x]) for x in s]
    assert _hex(walk.p) == _hex([w.p[0] for w in lone])
    assert _hex(walk.q) == _hex([w.q[0] for w in lone])


@pytest.mark.parametrize("s", [1000.0, 2000.0])
@pytest.mark.parametrize("eta", [0.0, 0.5, 16.0, 50.0])
def test_lone_point_far_out_runs_one_pair_loop(eta, s):
    # the seed's error bounds are integers in units of 2**-width: past
    # s = 700, where 2**(s log2 e) passes the double range, they stay a few
    # units, so the seed certifies both values and no general series runs
    walk = kummer_walk(eta, [s])
    z = complex(0.0, -s)
    assert _hex(walk.p + walk.q) == _hex([chf_series_fixed(a, b, z) for a, b in _pair(eta)])
    assert (walk.sums, walk.continued) == (1, 1)


@pytest.mark.parametrize("eta,s_max", [(700.0, 58.0), (1e3, 50.0), (2e3, 50.0), (5e3, 20.0)])
def test_strong_coupling_grid_certifies_from_its_states(eta, s_max):
    # 256 points whose states' integers pass 2**1200: the radii, integers in
    # the same units, do not overflow, so the states certify nearly every
    # value and few points rerun the pair loop
    s = [s_max * k / 256 for k in range(1, 257)]
    walk = kummer_walk(eta, s)
    lone = [kummer_walk(eta, [x]) for x in s]
    assert _hex(walk.p) == _hex([w.p[0] for w in lone])
    assert _hex(walk.q) == _hex([w.q[0] for w in lone])
    assert walk.continued >= 250 and walk.sums <= 8


def test_walk_past_the_double_range_is_refused_at_once():
    # eta = 5e5: P passes the largest double between the second point and
    # the third (mpmath: |Re P| about 1.4e305 and 7.4e422); the first box
    # whose lower end rounds past it refuses the walk, naming eta and that s,
    # before any Taylor step forms integers thousands of bits too wide
    s = [0.02 + 57.98 * k / 255 for k in range(256)]
    with mpmath.workdps(30):
        big = [abs(mpmath.hyp1f1(mpmath.mpc(0.5, 5e5), 0.5, mpmath.mpc(0, -x)).real) for x in s[1:3]]
    assert big[0] < sys.float_info.max < big[1]
    t0 = time.perf_counter()
    with pytest.raises(DoubleRangeExceeded, match=f"eta={5e5!r}, s={s[2]!r} exceeds"):
        kummer_walk(5e5, s)
    assert time.perf_counter() - t0 < 1.0


def test_walk_never_runs_the_general_series(monkeypatch):
    # every value comes from a pair loop, seeded, carried or rerun wider:
    # tiny s, s = 0, s = 1,000 and strong coupling included
    def refuse(*args, **kw):
        raise AssertionError("a general series ran")

    monkeypatch.setattr(highprec, "_fixed_sum", refuse)
    monkeypatch.setattr(highprec, "chf_series_fixed", refuse)
    tiny = kummer_walk(0.5, [1e-250 * k for k in range(1, 40)])
    assert tiny.sums <= 4 + 39      # 4 seeds and at most one rerun a point
    assert kummer_walk(0.5, [0.0]).p == [1.0]
    assert kummer_walk(0.5, [1e-6]).sums == 1
    assert kummer_walk(0.5, [1000.0]).sums == 1
    for eta, s_max in ((0.5, 59.0), (700.0, 58.0)):
        walk = kummer_walk(eta, [s_max * k / 256 for k in range(1, 257)])
        assert walk.sums == walk.seeds == 4
