"""Exact integer fixed-point summation of the confluent-hypergeometric series.

``chf_series_fixed`` evaluates 1F1(a, b; z) one point at a time, by the
general series loop ``_fixed_sum``.  Term ratios are formed from the
*exact* binary rationals underlying the float inputs, so the only
rounding is one controlled rounding per term at a number of fractional
bits sized from the predicted cancellation and checked against the
truncation bound after the sum.  Its cost is a few
microseconds per term, and ``specfun.chf_1f1`` returns its sums.  The final
rounding to complex double happens once, from a sum whose error the width
check holds about ``SAFE_BITS`` bits below the larger component: that
component is correctly rounded unless it lies within about 2**-15 of an ulp
of a rounding boundary, but a component far below the other can be an ulp off.

``kummer_walk`` evaluates the Kummer pair both closed-form branches are
built from, P = M(a, 1/2; z) and Q = M(a, 3/2; z) with a = 1/2 + i eta,
on a grid of the ray z = -i s; it is the one place that spells the pair
out.  (Branch I's functions, M(i eta, 1/2; z) and M(1 + i eta, 3/2; z),
are e^z times the pair's conjugates by Kummer's transformation, DLMF
13.2.39.)  One series loop, the pair's own ``_pair_loop``, gives both:
it sums Q, whose rounded terms t_k also give K = sum k t_k = z Q' (DLMF
section 13.3), and P's terms are (2k + 1) t_k, as (3/2)_k / (1/2)_k =
2k + 1, which is (z^(b-1) M)' = (b-1) z^(b-2) M(a, b-1) at b = 3/2.  So

    P = Q + 2 K

in exact integers, at any eta and s.  That loop tests no stop while the terms
grow and one every 8 terms once their ratios fall below 1/2.  Every point no
carried state covers, a lone point included, runs it once at the walk's width,
and its result becomes the state.  Along a grid the walk carries the pair from
point to point by Taylor steps of its first-order system (DLMF 13.2-13.3),
summed in the same integer fixed point from exact dyadic constants, with a
rigorous error radius: a majorant bound on each step's tail, the rounding of
its terms carried through the recurrence, and a log-norm bound on the
transition for the incoming radius.  A step reaches at most a quarter of the
way to z = 0; a point further on drops the state and starts one of its own.
The step is read off the grid, with no price to weigh: it reaches the largest
power of two R within that quarter where two or more points lie within R, else
it lands on the next point.  A step that reaches a power of two past its start
serves every point on the way: each is the sum of the step's terms at its
fraction f = g / 2**sh < 1 of the reach, by Horner's rule with shifts for the
division, cut off where the remaining terms fall to an eighth of the step's
radius or 2**-SAFE_BITS of the smallest component of P and Q, whichever is
larger, and its radius is the step's plus the terms it cuts off and its
roundings, an integer in the state's units like every radius.  Horner
runs on one integer that packs the four components as lanes, each offset by a
bias above every partial sum, so that one product, one addition, one shift and
one mask round all four products by f at once, each exactly as alone.  Every
value comes from a state with one radius in the state's norm, an integer in
units of 2**-width that cannot overflow, and is rounded only where its whole
error box rounds to one double, else the pair loop runs again, wider (Ziv's
rounding test): each component of P and Q is the double nearest its exact value,
and no general series runs.  A step of about 36 terms serves 12 points at about
30 terms each on a table of 256 points to |z| = 59 at eta = 1/2, where the
series needs about 2.7 |z|.

No third-party extended-precision library is involved: Python's integers carry
the whole sum, and each double returned is an integer over a power of two
rounded once by their true division: the nearest double, ties to even,
subnormals included, and OverflowError past the largest double.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .errors import DoubleRangeExceeded, NonConvergence

#: term budget of one series sum; inside specfun.SERIES_ZMAX a few
#: hundred suffice
MAX_TERMS = 10000


def _dyadic(x: float) -> tuple[int, int]:
    """Return (n, s) with x == n / 2**s exactly."""
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


def _up(n: int, x: float, e: int = 0) -> int:
    """The least integer >= n * x * 2**e, for n >= 0 and finite x >= 0."""
    num, k = _dyadic(x)
    return n * num << e - k if e >= k else -(-n * num >> k - e)


#: bits of the sum the fixed-point route resolves: a double's 53 plus 16
#: guard bits, so the final rounding to complex double is exact
SAFE_BITS = 53 + 16
#: bits added to the predicted cancellation when sizing the width; they pay
#: for the safe bits and the n**2 growth of the truncation bound (n ~ 2**8)
_WIDTH_GUARD = SAFE_BITS + 16
_LOG2E = 1.0 / math.log(2.0)


def _refuse(a: complex, b: float, z: complex) -> None:
    """Raise NonConvergence before a series loop where no term up to the
    budget can stop the series.

    With K = MAX_TERMS, where (|a| - K) |z| >= 4 (|b| + K)(K + 1) every
    ratio a loop forms has |rho_k| >= 4, to a few ulps, so from t_0 =
    2**bits on |t_k| >= 4 |t_(k-1)| - 1 >= 3 |t_(k-1)|, one unit being the
    rounding: the sum stays below 1.5 |t_k| < 2**(tbits + 2), and no stop
    margin of 3 bits or more (every caller's is 8 or more) can pass.
    """
    if ((math.hypot(a.real, a.imag) - MAX_TERMS) * math.hypot(z.real, z.imag)
            >= 4.0 * (abs(b) + MAX_TERMS) * (MAX_TERMS + 1)):
        raise NonConvergence(
            f"fixed-point series cannot converge within {MAX_TERMS} terms: each "
            f"term up to the last at least quadruples (a={a!r}, b={b!r}, z={z!r})")


def _spent(a: complex, b: float, z: complex) -> NonConvergence:
    """The error of a series loop that used up the term budget."""
    return NonConvergence(f"fixed-point series did not converge within {MAX_TERMS} "
                          f"terms (a={a!r}, b={b!r}, z={z!r})")


def _fixed_sum(a: complex, b: float, z: complex, bits: int, *,
               stop_bits: int = SAFE_BITS) -> tuple[int, int, int, int]:
    """Fixed-point confluent-hypergeometric series, raw scaled integers.

    The general series (the Kummer pair has its own, :func:`_pair_loop`).
    Returns (sr, si, peak, n): the series value is (sr + i si) / 2**bits
    up to the truncation error, which stays below ~n**2 * 2**(peak - bits)
    absolute for the n terms summed, the largest after the first (which
    is 2**bits) having magnitude below 2**peak.  Summation stops once the
    term magnitude drops ``stop_bits`` binary orders below the running
    sum, twice in a row.

    Terms are carried as integer pairs scaled by 2**bits; the per-term
    ratio (a+k) z / ((b+k)(k+1)) is formed from the exact dyadic rationals
    of the float inputs, so each term suffers a single half-ulp rounding
    at the fixed-point scale.  This makes the routine accurate even when
    intermediate terms exceed the result by dozens of orders of magnitude.
    Raises NonConvergence before the loop where no term up to the budget
    can stop it (:func:`_refuse`).
    """
    _refuse(a, b, z)
    anr, asr = _dyadic(float(a.real))
    ani, asi = _dyadic(float(a.imag))
    sa = max(asr, asi)
    anr <<= sa - asr
    ani <<= sa - asi
    da = 1 << sa

    znr, zsr = _dyadic(float(z.real))
    zni, zsi = _dyadic(float(z.imag))
    sz = max(zsr, zsi)
    znr <<= sz - zsr
    zni <<= sz - zsi

    bn, bs = _dyadic(float(b))
    bd = 1 << bs

    # rho_k = (a + k) z / ((b + k)(k + 1)) = (pr + i pi) / q, all ints; the
    # numerator is linear in k, so it advances by (dpr, dpi) per term
    pr = (anr * znr - ani * zni) * bd
    pi = (anr * zni + ani * znr) * bd
    dpr = da * znr * bd
    dpi = da * zni * bd
    # the divisor is q 2**sd, q = dq (b + k)(k + 1) 2**bs; where b > 0, so
    # q > 0, (x + half) // (q 2**sd) == ((x + half) >> sd) // q: floors compose
    sd = sa + sz if bn > 0 else 0
    dq = 1 << (sa + sz - sd)
    one = 1 << bits
    tr, ti = one, 0
    sr, si = one, 0
    peak = 0
    hits = 0
    for k in range(MAX_TERMS):
        q = dq * (bn + k * bd) * (k + 1)
        half = (q << sd) >> 1
        # floor((x + q 2**sd / 2) / (q 2**sd)): round to nearest, one
        # half-unit error per term
        tr, ti = ((tr * pr - ti * pi + half) >> sd) // q, ((tr * pi + ti * pr + half) >> sd) // q
        pr += dpr
        pi += dpi
        sr += tr
        si += ti
        tbits = (abs(tr) | abs(ti)).bit_length()
        if tbits > peak:
            peak = tbits
        if tbits == 0 or tbits + stop_bits <= (abs(sr) | abs(si)).bit_length():
            hits += 1
            if hits >= 2:
                return sr, si, peak, k + 2
        else:
            hits = 0
    raise _spent(a, b, z)


def chf_series_fixed(a: complex, b: float, z: complex, *,
                     bits: int | None = None) -> complex:
    """Fixed-point confluent-hypergeometric series rounded to complex double.

    Sums at ``bits`` fractional bits, by default sized from the predicted
    cancellation: on the imaginary axis the largest term is about e^|z|
    while the sum stays of order one, which costs about |z| log2(e) bits.
    Then it checks the width: the sum must stand at least ``SAFE_BITS``
    bits above the truncation bound n**2 * 2**(peak - bits) of
    :func:`_fixed_sum`.  If it does not, because the parameters make the
    terms peak higher than predicted or the sum lies near a zero, the
    series is summed again at the width the bound asks for.
    """
    if bits is None:
        bits = math.ceil(abs(z) * _LOG2E) + _WIDTH_GUARD
    sr, si, peak, n = _fixed_sum(a, b, z, bits)
    # bits the sum stands above the bound; they grow one for one with the
    # width, and 8 more cover the rounding of the bit lengths
    above = ((abs(sr) | abs(si)).bit_length() - (max(peak, bits + 1) - bits)
             - 2 * n.bit_length())
    if above < SAFE_BITS:
        bits += SAFE_BITS - above + 8
        sr, si = _fixed_sum(a, b, z, bits)[:2]
    d = 1 << bits
    try:
        return complex(sr / d, si / d)
    except OverflowError:
        raise DoubleRangeExceeded(
            f"1F1({a!r}, {b!r}; {z!r}) exceeds the double range "
            f"(magnitude above {sys.float_info.max:.4g})") from None


# ---------------------------------------------------------------------------
# continuation of a Kummer pair along the ray z = -i s
#
# The pair Y = (P, Q) = (M(a, 1/2), M(a, 3/2)), a = 1/2 + i eta, obeys
# z Y' = (A0 + A1 z) Y, A0 = [[0, 0], [1/2, -1/2]], A1 = [[1, 2 i eta], [0, 0]]
# (DLMF 13.3): P' = P + 2 i eta Q and z Q' = (P - Q) / 2.  Re-centred at z0
# the Taylor terms u_n = Y_n Delta^n obey, row by row,
#   P_{n+1} = Delta (P_n + 2 i eta Q_n) / (n+1),
#   Q_{n+1} = Delta / z0 (P_n - (2n+1) Q_n) / (2 (n+1)),
# each term from the one before it; on the ray Delta = -i D and Delta / z0 =
# D / s0 is real.  Error radii are kept in the norm max(|P|, c |Q|), with c
# chosen per step to minimise the growth bound.

#: bits the carried state keeps beyond ``SAFE_BITS`` and its predicted error
#: growth: rounding over thousands of steps, and values below the seed's
_WALK_GUARD = 12
#: Taylor steps never reach past this fraction of the distance to z = 0
_STEP_REACH = 0.25


class Walk(NamedTuple):
    """The pair at each point of :func:`kummer_walk`, and the work it took."""

    p: list[complex]
    q: list[complex]
    continued: int    # points whose two values a state certified
    seeds: int        # pair loops, each the start of a state
    steps: int        # Taylor steps (expansions)
    terms: int        # Taylor terms summed over all steps
    evals: int        # terms evaluated for the points inside a step's reach
    sums: int         # pair loops run: the seeds and the reruns of values left open


class _State(NamedTuple):
    s: float
    width: int
    ints: tuple[int, int, int, int]   # P and Q at scale 2**width
    eps: int                          # error radius, an integer in units 2**-width, norm of c
    c: float


def _norm_weight(eta: float, s: float) -> float:
    # balances the two rows of the log-norm bound: 2 eta / c = (c - 1) / (2 s)
    return 0.5 * (1.0 + math.sqrt(1.0 + 16.0 * (eta * s)))


def _plan(s0: float, s: list[float], k: int) -> tuple[float, int]:
    """The next step from s0 towards s[k:]: (end t, points reached).

    Let R be the largest power of two within ``_STEP_REACH`` s0.  Where
    two or more points lie within R of s0 and s0 + R is exact, the step
    ends there and serves them all.  Else it lands on s[k] if s[k] lies
    within ``_STEP_REACH`` s0 of s0; else no point is reached: no step
    goes there.
    """
    # R <= _STEP_REACH s0 = s0 / 4 < 2 R; no step starts at s0 = 0
    reach = math.ldexp(1.0, math.frexp(s0)[1] - 3) if s0 else 0.0
    end = s0 + reach
    m = bisect_right(s, end, k) - k
    if m >= 2 and end - s0 == reach:
        return end, m
    return s[k], int(s[k] - s0 <= _STEP_REACH * s0)


def _turn(eta: float, s: float, c: float) -> int:
    """The first k with |rho_k| < c, to a few ulps (MAX_TERMS past the budget).

    |rho_k| = s |a + k| / ((k + 3/2)(k + 1)), the ratio of Q's terms, falls
    strictly with k, as |a + k + 1| / |a + k| <= (k + 3/2) / (k + 1/2) and
    (k + 3/2)**2 (k + 1) < (k + 1/2)(k + 5/2)(k + 2); its one crossing is
    found from the root of c u**2 = s hypot(u, eta), u ~ k + 5/4.
    """
    u = math.sqrt(0.5 * s * (s + math.hypot(s, 2.0 * c * eta))) / c
    if not u < MAX_TERMS:
        return MAX_TERMS
    k = max(0, int(u - 1.25))
    while s * math.hypot(k + 0.5, eta) >= c * (k + 1.5) * (k + 1):
        k += 1
    while k and s * math.hypot(k - 0.5, eta) < c * (k + 0.5) * k:
        k -= 1
    return k


def _pair_loop(eta: float, s: float, bits: int,
               stop_bits: int) -> tuple[int, int, int, int, int, int]:
    """Q = M(1/2 + i eta, 3/2; -i s) and K = z Q' = sum k t_k in a loop of
    their own: (sr, si, kr, ki, peak, n), Q and K over 2**bits.

    The n terms t_0 = 2**bits, ... are :func:`_fixed_sum`'s, each rounded
    once; K is (n - 1) S less the partial sums before S.  The terms grow
    up to t_g, g = _turn(eta, s, 1), and fall after it, so peak is read
    once, at t_g, one bit over its bit length (0 where g = 0).  They grow
    with no stop test, as none can pass there: |t_j| <= |t_k| + k - j for
    j < k, so the sum is at most (k + 1)(|t_k| + k).  From h = _turn(eta,
    s, 1/2) on, where the ratios are below 1/2, _fixed_sum's stop rule is
    tested every 8 terms, and the loop ends the first time it passes.
    """
    a, z = complex(0.5, eta), complex(0.0, -s)
    _refuse(a, 1.5, z)
    grow, half = _turn(eta, s, 1.0), _turn(eta, s, 0.5)
    if half >= MAX_TERMS:
        raise _spent(a, 1.5, z)
    e, ee = _dyadic(eta)
    n, ks = _dyadic(s)
    sh = ee + ks
    # rho_k = (2 eta s - i (2k + 1) s) / q, q = (2k + 3)(k + 1), its numerator
    # (pr + i pi) / 2**(sh + 1) exact: as q > 0, floor((x + q 2**sh) / (q
    # 2**(sh + 1))) == ((x >> sh) + q) // 2q, floors compose
    pr = e * n << 2
    pi = -(n << (ee + 1))
    dpi = 2 * pi
    q, dq = 3, 7
    tr = sr = 1 << bits
    ti = si = ur = ui = peak = k = 0
    end = grow
    while end <= MAX_TERMS:
        for _ in range(end - k):
            q2 = q + q
            tr, ti = (((tr * pr - ti * pi) >> sh) + q) // q2, (((tr * pi + ti * pr) >> sh) + q) // q2
            pi += dpi
            q, dq = q + dq, dq + 4
            ur, ui = ur + sr, ui + si
            sr, si = sr + tr, si + ti
        k = end
        if k == grow and k:
            peak = (abs(tr) | abs(ti)).bit_length() + 1
        if k >= half:
            tbits = (abs(tr) | abs(ti)).bit_length()
            if tbits == 0 or tbits + stop_bits <= (abs(sr) | abs(si)).bit_length():
                return sr, si, k * sr - ur, k * si - ui, peak, k + 1
        end = half if k < half else k + 8
    raise _spent(a, 1.5, z)


def _pair_sum(eta: float, s: float, width: int) -> tuple[tuple[int, ...], int, int]:
    """P and Q at z = -i s as integers at scale 2**width, with error bounds.

    Returns the four integers and bounds on the errors of P and of Q in
    units of 2**-width.  One run of :func:`_pair_loop` gives Q and K = z Q',
    and P = Q + 2 K exactly, as the module docstring states.  The loop runs
    ``ceil(s log2 e)`` bits wider than ``width``, to absorb the
    cancellation, plus the bits of n the bounds below ask for, and stops
    once its terms fall ``width + 8`` bits and those of n below the sum,
    where they at least halve (the ratios are below 1/2), so the tails of Q
    and K stay below 2 and 2 (n + 1) times the last term's bound.  Term k
    carries the half-unit roundings of the terms j <= k, each scaled by
    t_k / t_j; Q's term ratios fall with k from k = 0 on, so |t_k / t_j| <=
    |t_(k-j) / t_0| <= R = max(1, max_k |t_k|) over t_0 = 1, R <= max(1,
    2**(peak - bits)), and the n terms carry at most n**2 R / 2 units of Q,
    n times that of K.  P's bounds are Q's plus twice K's; both are returned
    1.5 times over 2**sh, rounded up, plus one unit for the final shift.
    """
    nb = int(3.0 * s + 40.0).bit_length()          # n < 3 s + 40 terms
    bits = width + math.ceil(s * _LOG2E) + 3 * nb + 4
    sh = bits - width
    stop = width + 8 + nb
    sr, si, kr, ki, peak, n = _pair_loop(eta, s, bits, stop)
    tail = 1 << max(0, (abs(sr) | abs(si)).bit_length() - stop + 1)
    rnd = n * n << max(0, peak - bits)
    # P's terms are (2k + 1) t_k, as (3/2)_k / (1/2)_k = 2k + 1; two shifts round half up
    ints = tuple((x >> sh - 1) + 1 >> 1 for x in (sr + 2 * kr, si + 2 * ki, sr, si))
    errs = ((2 * n + 1) * rnd + (2 * n + 3) * tail, rnd + tail)
    return (ints, *(1 - (-3 * e >> (sh + 1)) for e in errs))


def _step(eta: float, st: _State, s1: float) -> tuple[_State, list]:
    """Carry the state to s1 by one Taylor step; returns it and the terms
    u_0 .. u_N it summed, each a tuple of the four integers.

    Each term comes from the one before by the system's two rows: on the
    ray, Delta = -i D,

        P_{n+1} = D (2 eta Q_n - i P_n) / (n + 1),
        Q_{n+1} = D (P_n - (2n + 1) Q_n) / (2 (n + 1) s0),

    from exact dyadic constants, each component rounded half up once at the
    state's scale.  In the norm max(|P|, c |Q|) the map u_n -> u_{n+1} is at
    most rho_n = max(D alpha, r (c + 2n + 1) / 2) / (n + 1), alpha = 1 + 2
    eta / c, r = D / s0, which does not rise with n.  The new radius is the
    old one times the log-norm bound of the transition, exp(D max(2 eta / c,
    (c - 1) / (2 s0))), once the factor e^(z/2) of modulus one is split off,
    plus the terms' rounding carried through rho_n, plus the tail: from the
    first n with rho_n <= 1/2, which needs r < 1/2 (:func:`_plan` keeps r <=
    1/4), the exact terms at least halve, so past the first such term with
    every component within 8 units the tail is at most that term's norm plus
    its rounding.  The radius is an integer in the state's units, each part
    rounded up, the log-norm bound taken as 2**j g.
    """
    e, ee = _dyadic(eta)
    s0 = st.s
    c = _norm_weight(eta, s0)
    n0, k0 = _dyadic(s0)
    n1, k1 = _dyadic(s1)
    k = max(k0, k1, 1)
    big_s = n0 << (k - k0)
    big_d = (n1 << (k - k1)) - big_s
    d = math.ldexp(big_d, -k)
    r = d / s0
    mu = max(2.0 * eta / c, (c - 1.0) / (2.0 * s0))
    d_alpha = d * (1.0 + 2.0 * eta / c)
    # rho_n <= 1/2 from here on, to a few ulps, which the tail's 16 over
    # 8 sqrt(2) and the final margin cover; no term before it stops the step
    n_min = max(0, math.ceil(2.0 * d_alpha) - 1, math.ceil((r * (c + 1.0) - 1.0) / (1.0 - 2.0 * r)))

    # P_{n+1} is D X / (2**ee (n+1)) rounded half up, X = 2**ee (2 eta Q - i
    # P): flooring D X over 2**sh first and then dividing by the small
    # 2 (n+1) floors the same as one division by the product; Q_{n+1} is
    # num / (2 q1) rounded half up, q1 = (n+1) N0, as one division
    pr, pi, qr, qi = st.ints
    terms = [st.ints]
    e2 = 2 * e
    sh = k + ee - 1
    q1 = big_s
    odd = 1
    for n in range(1, MAX_TERMS + 1 if n_min <= MAX_TERMS else 1):
        xr, xi = e2 * qr + (pi << ee), e2 * qi - (pr << ee)
        br, bi = big_d * (pr - odd * qr), big_d * (pi - odd * qi)
        pr, pi = ((big_d * xr >> sh) + n) // (2 * n), ((big_d * xi >> sh) + n) // (2 * n)
        qr, qi = (br + q1) // (2 * q1), (bi + q1) // (2 * q1)
        terms.append((pr, pi, qr, qi))
        if n >= n_min and -8 <= pr <= 8 and -8 <= pi <= 8 and -8 <= qr <= 8 and -8 <= qi <= 8:
            break
        q1 += big_s
        odd += 2
    else:
        raise NonConvergence(f"Taylor step {s0!r} -> {s1!r} did not converge")
    # rounding: each term's error obeys e_(j+1) <= rho_j e_j + delta, e_0 = 0,
    # in units of 2**ex
    cm = max(1.0, c)
    delta = 0.7072 * cm
    e_cur = e_sum = ex = 0
    for j in range(n):
        e_cur = max(d_alpha, 0.5 * r * (c + 2 * j + 1)) / (j + 1) * e_cur + delta
        e_sum += e_cur
        if e_sum > 2.0 ** 600:
            e_cur, e_sum, delta = (v * 2.0 ** -600 for v in (e_cur, e_sum, delta))
            ex += 600
    # |u_n| <= 8 sqrt(2) cm, and the exact terms from n on at least halve
    tail = math.ldexp(16.0 * cm, -ex) + e_cur
    # exp(d mu) <= 2**int(x) g; the margin covers x's rounding, about x 2**-50
    x = d * mu * _LOG2E
    g = 2.0 ** (x % 1.0) * max(1.0, c / st.c) * (1.0 + 2.0 ** -40 + x * 2.0 ** -48)
    eps = _up(st.eps, g, int(x)) + (math.ceil((e_sum + tail) * (1.0 + 2.0 ** -40)) << ex)
    return _State(s1, st.width, tuple(map(sum, zip(*terms))), eps, c), terms


def _inside(st: _State, new: _State, terms: list, s: list[float]) -> tuple[list, int]:
    """(ints, radius) of the pair at each st.s < s_j < new.s, s ascending,
    from the terms of the step between them, and the terms evaluated.

    The reach Delta = new.s - st.s is a power of two; the pair at s_j is the
    sum of u_n f**n, f = (s_j - st.s) / Delta = g / 2**sh, by Horner's rule,
    each product by f rounded half up, cut off at the first N where f**(N+1)
    times a bound on the later terms falls to max(1, eps >> 3,
    2**(t - SAFE_BITS)) units, eps the step's radius and t the bit length of
    the smallest component of P and Q at st.s: a radius 2**-SAFE_BITS of it
    is all :func:`_certain` asks, and a tail below an eighth of eps buys
    nothing.  As f < 1, each part of the step's radius (incoming radius times
    exp(D mu), carried rounding, tail) bounds its part at s_j, and a point's
    radius is eps plus the cut-off terms, rounded up to a power of two, plus
    the N roundings, all integers in the state's units.  N is chosen in log2
    floats, which no scale overflows, from the N of the point before, as f
    rises; a tail that counts has a log within a few bits of the terms' bit
    lengths, and 2**-30 covers the ulps lost there.

    The four components run as lanes of one integer: component c sits at
    bit c B, offset by bias = 2**lb > sum |u_n| + N, which bounds every
    partial sum, so each lane holds a value in (0, 2 bias).  One product
    by g, one constant ((bias << sh) - bias g + 2**(sh-1) per lane), one
    shift and one mask then take every lane v + bias to floor((v g +
    2**(sh-1)) / 2**sh) + bias: before the shift a lane lies in (0,
    2**(lb+sh+2)), as g < 2**sh and |v| < bias, so with B = lb + sh + 2
    no lane carries into the next, and the mask drops the low bits the
    shift moves down from the lane above.  All points share one sh, from
    the largest dyadic exponent among them: scaling g and 2**sh by the
    same power of two floors the same.
    """
    cm = max(1.0, new.c)
    # 2**tops[n] > |u_n|'s components
    tops = [(abs(pr) | abs(pi) | abs(qr) | abs(qi)).bit_length() for pr, pi, qr, qi in terms]
    t = min(abs(v).bit_length() for v in terms[0])
    # log2 of the budget, and of sum_(m > n) ceil(3 cm) 2**(tops[m] - 1), which
    # bounds |u_(n+1)| + |u_(n+2)| + ..., summed from the last term down
    cap = math.log2(max(1, new.eps >> 3, 1 << max(0, t - SAFE_BITS)))
    k3 = math.ceil(3.0 * cm)
    rest = [math.log2(x) - 1.0 for x in accumulate(k3 << b for b in tops[:0:-1])][::-1]
    rest.append(-math.inf)
    n0, k0 = _dyadic(st.s)
    frac, e = math.frexp(new.s - st.s)        # exact: new.s <= 1.25 st.s
    if frac != 0.5:
        raise ValueError(f"the step {st.s!r} -> {new.s!r} does not reach a power of two")
    xs = [_dyadic(x) for x in s]
    k = max(k0, *(kx for _, kx in xs))
    sh = k + e - 1                            # f = g / 2**sh
    base = n0 << (k - k0)
    cuts = []                                 # (g, N, log2 of the tail) per point
    n = 0
    for nx, kx in xs:
        g = (nx << (k - kx)) - base
        lf = math.log2(g) - sh
        # the first n with (n + 1) lf + rest[n] <= cap; f rises from point to
        # point, so N never falls and each search starts at the last N
        while (n + 1) * lf + rest[n] > cap:
            n += 1
        cuts.append((g, n, (n + 1) * lf + rest[n]))
    last = n                                  # the last point's N is the largest
    lb = (sum(1 << b for b in tops[:last + 1]) + last).bit_length()
    bias = 1 << lb
    lane = lb + sh + 2
    ones = 1 + (1 << lane) + (1 << 2 * lane) + (1 << 3 * lane)
    mask = ((1 << (lb + 2)) - 1) * ones
    packed = [pr + ((pi + ((qr + (qi << lane)) << lane)) << lane)
              for pr, pi, qr, qi in terms[:last + 1]]
    lift = bias * ones
    cst0 = ((bias << sh) + (1 << (sh - 1))) * ones
    low = (1 << lane) - 1
    rnd = math.ceil(0.7072 * cm)              # a product's rounding
    out, used = [], 0
    for g, n, tail in cuts:
        cst = cst0 - g * lift
        a = packed[n] + lift
        for u in reversed(packed[:n]):
            a = (((a * g + cst) >> sh) & mask) + u
        used += n
        out.append((((a & low) - bias, ((a >> lane) & low) - bias, ((a >> 2 * lane) & low) - bias,
                     (a >> 3 * lane) - bias),
                    new.eps + (1 << math.ceil(max(0.0, tail + 2.0 ** -30))) + n * rnd))
    return out, used


def _certain(re: int, im: int, rad: int, width: int) -> complex | None:
    """The complex double every point of the box re ± rad, im ± rad over
    2**width, width >= 0, rounds to: the one nearest the exact value, which
    lies in the box.

    A side is certain where both its ends, |x| -+ rad, round to one double,
    as the rounding is monotone.  None where a side is not certain or
    reaches zero; OverflowError where a side's lower end rounds past the
    largest double, as the value then does.
    """
    d = 1 << width
    out = []
    for x in (re, im):
        lo = abs(x) - rad
        if lo <= 0:
            return None
        v = lo / d
        try:
            if (lo + 2 * rad) / d != v:
                return None
        except OverflowError:
            return None
        out.append(v if x > 0 else -v)
    return complex(*out)


def _rounded(eta: float, s: float, ints: tuple[int, ...], rad_p: int, rad_q: int,
             width: int) -> tuple[complex, complex, int]:
    """P and Q at s from ``ints`` (scale 2**width) within ``rad_p`` and
    ``rad_q``, each component the double nearest its exact value, and the
    pair loops rerun for them: where a box does not certify, the loop runs
    again (Ziv, ACM TOMS 17 (1991) 410), wider by the bits the smallest
    component stands short of ``SAFE_BITS`` above its radius plus a guard of
    16 bits, doubled at each rerun.  A rerun fails only within 2**-(16 +
    guard) of an ulp of a rounding boundary; past a guard of 2**12 bits
    NonConvergence ends the loop.  At s = 0 the pair is (1, 1).
    """
    reruns = 0
    while True:
        try:
            p, q = _certain(*ints[:2], rad_p, width), _certain(*ints[2:], rad_q, width)
        except OverflowError:
            raise DoubleRangeExceeded(
                f"the Kummer pair at eta={eta!r}, s={s!r} exceeds the double range "
                f"(magnitude above {sys.float_info.max:.4g})") from None
        if p is not None and q is not None:
            return p, q, reruns
        if not s:
            return 1 + 0j, 1 + 0j, reruns
        if reruns > 8:      # the guard, 16 << reruns, would pass 2**12 bits
            raise NonConvergence(f"the Kummer pair at eta={eta!r}, s={s!r} does not certify")
        above = min(abs(x).bit_length() - r.bit_length()
                    for x, r in zip(ints, (rad_p, rad_p, rad_q, rad_q)))
        width += max(0, SAFE_BITS - above) + (16 << reruns)
        ints, rad_p, rad_q = _pair_sum(eta, s, width)
        reruns += 1


def kummer_walk(eta: float, s: list[float]) -> Walk:
    """The Kummer pair at z = -i s for strictly ascending s >= 0, each
    component the double nearest its exact value.

    The pair is (M(a, 1/2; z), M(a, 3/2; z)), a = 1/2 + i eta.  One :func:`_pair_sum`
    seeds a state at every point no carried state covers, s = 0 included, at a
    width sized from the radius' predicted growth to the last point and from s's
    binary exponent (Im P ~ -s, Im Q ~ -s/3 at small s); Taylor steps carry it
    (:func:`_plan`, :func:`_step`, :func:`_inside`), and :func:`_rounded` rounds
    each value from its integer radius (Q's over c, rounded up), refusing the
    first s past the largest double (DoubleRangeExceeded).
    """
    n = len(s)
    # predicted growth of the radius, in nats, from each point to the last
    c = [_norm_weight(eta, x) for x in s]
    grow = [0.0] * n
    for k in range(n - 2, -1, -1):
        grow[k] = (grow[k + 1] + (s[k + 1] - s[k]) * 2.0 * eta / c[k]
                   + math.log(c[k + 1] / c[k]))
    out_p, out_q = [], []
    continued = seeds = steps = terms = evals = reruns = 0
    st = None
    while len(out_p) < n:
        k = len(out_p)
        got = []          # (ints, radius in the state's units and norm) at s[k], s[k + 1], ...
        if st is not None:
            t, m = _plan(st.s, s, k)
            if not m:
                st = None
            else:
                try:
                    new, us = _step(eta, st, t)
                    steps += 1
                    terms += len(us) - 1
                    short = m if t > s[k + m - 1] else m - 1   # points before t
                    if short:
                        got, used = _inside(st, new, us, s[k:k + short])
                        evals += used
                    st = new
                    got += [(st.ints, st.eps)] * (m - short)
                except NonConvergence:   # a pair loop still answers
                    st = None
        if st is None:
            width = (SAFE_BITS + _WALK_GUARD + math.ceil(grow[k] * _LOG2E)
                     + (n - k).bit_length() + max(0, -math.frexp(s[k])[1]))
            ints, err_p, err_q = _pair_sum(eta, s[k], width)
            seeds += 1
            st = _State(s[k], width, ints, max(err_p, _up(err_q, c[k])), c[k])
            got = [(st.ints, st.eps)]
        inv, sh = _dyadic(1.0 / st.c * (1.0 + 2.0 ** -50))    # 1 / c, rounded up
        for x, (ints, eps) in zip(s[k:], got):
            vp, vq, more = _rounded(eta, x, ints, eps, (eps * inv >> sh) + 1, st.width)
            continued += not more and x > 0     # s = 0 is exact, not certified
            reruns += more
            out_p.append(vp)
            out_q.append(vq)
    return Walk(out_p, out_q, continued, seeds, steps, terms, evals, seeds + reruns)
