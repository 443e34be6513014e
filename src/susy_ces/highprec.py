"""Exact integer fixed-point summation of the confluent-hypergeometric series.

``chf_series_fixed`` evaluates 1F1(a, b; z) one point at a time.  Term
ratios are formed from the *exact* binary rationals underlying the float
inputs, so the only rounding is one controlled rounding per term at a
number of fractional bits sized from the predicted cancellation and
checked against the truncation bound after the sum.  Its cost is a few
microseconds per term, and every value ``specfun`` returns is its sum or
bit for bit equal to it.  The final rounding to complex double happens
once, so the result is correctly rounded.

``kummer_walk`` evaluates the two Kummer functions of a closed-form
component pair on a grid of the ray z = -i s; it is the one place that
spells the pair out, and a one-point grid is the two series sums.  It
carries the pair from point to point by Taylor steps of its first-order
system (DLMF 13.2-13.3), summed in the same integer fixed point from
exact dyadic constants and seeded by ``_fixed_sum``, with a rigorous
error radius: a majorant bound on each step's tail, the rounding of its
terms carried through the recurrence, and a log-norm bound on the
transition for the incoming radius.  A value is taken from the carried
pair only where the radius, plus the series' own bound, leaves one
possible double; every other value is the per-point series, so each
output equals ``chf_series_fixed`` bit for bit.  A step costs about 20
terms where the series needs about 2.7 |z| per function.

No third-party extended-precision library is involved: Python's
integers carry the whole sum.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DoubleRangeExceeded, NonConvergence

#: term budget of one series sum; inside specfun.SERIES_ZMAX a few
#: hundred suffice
MAX_TERMS = 10000


def _dyadic(x: float) -> tuple[int, int]:
    """Return (n, s) with x == n / 2**s exactly."""
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


def _round_div(n: int, d: int) -> int:
    """Round-half-away-from-zero integer division, d > 0."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _int_to_float(n: int, shift: int) -> float:
    """Return the float nearest n * 2**shift without intermediate overflow."""
    if n == 0:
        return 0.0
    drop = n.bit_length() - 53
    if drop <= 0:
        return math.ldexp(float(n), shift)
    return math.ldexp(float(_round_div(n, 1 << drop)), shift + drop)


#: bits of the sum the fixed-point route resolves: a double's 53 plus 16
#: guard bits, so the final rounding to complex double is exact
SAFE_BITS = 53 + 16
#: bits added to the predicted cancellation when sizing the width; they pay
#: for the safe bits and the n**2 growth of the truncation bound (n ~ 2**8)
_WIDTH_GUARD = SAFE_BITS + 16
_LOG2E = 1.0 / math.log(2.0)


def _fixed_sum(a: complex, b: float, z: complex, bits: int, *,
               stop_bits: int = SAFE_BITS) -> tuple[int, int, int, int]:
    """Fixed-point confluent-hypergeometric series, raw scaled integers.

    Returns (sr, si, peak, n): the series value is (sr + i si) / 2**bits
    up to the truncation error, which stays below ~n**2 * 2**(peak - bits)
    absolute for the n terms summed, whose largest has magnitude
    2**peak.  Summation stops once the term magnitude drops ``stop_bits``
    binary orders below the running sum, twice in a row.

    Terms are carried as integer pairs scaled by 2**bits; the per-term
    ratio (a+k) z / ((b+k)(k+1)) is formed from the exact dyadic rationals
    of the float inputs, so each term suffers a single half-ulp rounding
    at the fixed-point scale.  This makes the routine accurate even when
    intermediate terms exceed the result by dozens of orders of magnitude.
    """
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
    dq = da << sz
    one = 1 << bits
    tr, ti = one, 0
    sr, si = one, 0
    peak = one.bit_length()
    hits = 0
    for k in range(MAX_TERMS):
        q = dq * (bn + k * bd) * (k + 1)
        half = q >> 1
        # floor((x + q/2) / q): round to nearest, one half-unit error per term
        tr, ti = (tr * pr - ti * pi + half) // q, (tr * pi + ti * pr + half) // q
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
    raise NonConvergence(
        f"fixed-point series did not converge within {MAX_TERMS} terms "
        f"(a={a!r}, b={b!r}, z={z!r})")


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
    above = (abs(sr) | abs(si)).bit_length() - (peak - bits) - 2 * n.bit_length()
    if above < SAFE_BITS:
        bits += SAFE_BITS - above + 8
        sr, si, _, _ = _fixed_sum(a, b, z, bits)
    try:
        return complex(_int_to_float(sr, -bits), _int_to_float(si, -bits))
    except OverflowError:
        raise DoubleRangeExceeded(
            f"1F1({a!r}, {b!r}; {z!r}) exceeds the double range "
            f"(magnitude above {sys.float_info.max:.4g})") from None


# ---------------------------------------------------------------------------
# continuation of a Kummer pair along the ray z = -i s
#
# Both pairs Y = (P, Q) the closed form needs obey z Y' = (A0 + A1 z) Y,
# A0 = [[0, 0], [1/2, -1/2]] (DLMF 13.3), with a = i eta:
#   unshifted:  P = M(a, 1/2),     Q = M(a+1, 3/2),  A1 = [[0, 2a], [0, 1]]
#   shifted:    P = M(a+1/2, 1/2), Q = M(a+1/2, 3/2), A1 = [[1, 2a], [0, 0]]
# Re-centred at z0 the Taylor terms u_n = Y_n Delta^n obey
#   u_{n+1} = Delta / (z0 (n+1)) ((A0 + A1 z0 - n) u_n + Delta A1 u_{n-1}),
# and on the ray Delta / z0 = D / s0 is real.  Error radii are kept in the
# norm max(|P|, c |Q|), with c chosen per step to minimise the growth bound.

#: bits the carried state keeps beyond ``SAFE_BITS`` and its predicted error
#: growth: rounding over thousands of steps, and values below the seed's
_WALK_GUARD = 12
#: cost of one Taylor term of the pair in series terms (two complex rows,
#: four roundings, against one complex row and two roundings)
_TERM_COST = 2.0
#: Taylor steps never reach past this fraction of the distance to z = 0
_STEP_REACH = 0.25


class Walk(NamedTuple):
    """The pair at each point of :func:`kummer_walk`, and the work it took."""

    p: list[complex]
    q: list[complex]
    continued: int    # points whose two values the carried state certified
    seeds: int        # points where a state started from the series
    steps: int        # Taylor steps, sub-steps included
    terms: int        # Taylor terms summed over all steps


class _State(NamedTuple):
    s: float
    width: int
    ints: tuple[int, int, int, int]   # P and Q at scale 2**width
    eps: float                        # error radius, units 2**-width, norm of c
    c: float


def _norm_weight(eta: float, s: float) -> float:
    # balances the two rows of the log-norm bound: 2 eta / c = (c - 1) / (2 s)
    return 0.5 * (1.0 + math.sqrt(1.0 + 16.0 * eta * s))


def _series_cost(s: float) -> float:
    """Two default series sums at |z| = s, counted in series terms."""
    return 2.0 * (2.7 * s + 25.0)


def _reach(s0: float, s1: float) -> float:
    """The end of the next step from s0 towards s1: s1, or the largest double
    within ``_STEP_REACH`` s0 of s0 (both differences are exact)."""
    t = min(s1, (1.0 + _STEP_REACH) * s0)
    return t if t - s0 <= _STEP_REACH * s0 else math.nextafter(t, 0.0)


def _step_cost(s0: float, s1: float, width: int) -> float:
    """Taylor steps from s0 to s1, counted in series terms (inf if out of reach)."""
    cost = 0.0
    for _ in range(64):
        if s0 >= s1:
            return cost
        t = _reach(s0, s1)
        r = (t - s0) / s0
        cost += _TERM_COST * ((width + 16) / -math.log2(r) + 2.7 * (t - s0) + 4.0)
        s0 = t
    return math.inf


def _seed(pair, s: float, width: int, c: float) -> _State | None:
    """The pair at z = -i s from :func:`_fixed_sum`, carried to ``width`` bits.

    The sums run ``ceil(s log2 e)`` bits wider than the state, to absorb the
    cancellation, and stop once their terms fall ``width + 8`` bits below
    the sum.  The radius charges their own bounds: the rounding
    n**2 * 2**(peak - bits), a tail below twice the first dropped term,
    and the half unit of the shift to ``width``.
    """
    z = complex(0.0, -s)
    bits = width + math.ceil(s * _LOG2E) + 2 * int(3.0 * s + 40.0).bit_length() + 4
    ints = []
    eps = 0.0
    for (a, b), w in zip(pair, (1.0, c)):
        sr, si, peak, n = _fixed_sum(a, b, z, bits, stop_bits=width + 8)
        top = (abs(sr) | abs(si)).bit_length()
        try:
            err = 1.5 * (math.ldexp(n * n, peak + width - 2 * bits)
                         + math.ldexp(1.0, top - 7 - bits)) + 0.71
        except OverflowError:   # terms past the double range: no state
            return None
        half = 1 << (bits - width - 1)
        ints += [(sr + half) >> (bits - width), (si + half) >> (bits - width)]
        eps = max(eps, w * err)
    return _State(s, width, tuple(ints), eps, c)


def _step(eta: float, shifted: bool, st: _State, s1: float) -> tuple[_State, int]:
    """Carry the state to s1 by one Taylor step; returns it and the terms summed.

    The terms are integers at the state's scale, each rounded once per
    component; the recurrence's constants are exact dyadic rationals.  The
    new radius is the old one times the log-norm bound of the transition
    over the step, exp(D max(2 eta / c, (c - 1) / (2 s0))), once the
    factor e^(z/2) of modulus one is split off, plus the terms' rounding
    carried through the recurrence, plus a tail bounded geometrically
    (ratio 1/2) once the recurrence's coefficients allow it.
    """
    e, ee = _dyadic(eta)
    s0 = st.s
    c = _norm_weight(eta, s0)
    eps = st.eps * max(1.0, c / st.c)
    n0, k0 = _dyadic(s0)
    n1, k1 = _dyadic(s1)
    k = max(k0, k1, 1)
    big_s = n0 << (k - k0)
    big_d = (n1 << (k - k1)) - big_s
    shift = k + ee + 1
    d = math.ldexp(big_d, -k)
    r = d / s0
    mu = max(2.0 * eta / c, (c - 1.0) / (2.0 * s0))
    # ||A0 + A1 z0 - n|| <= n + beta and ||Delta A1|| <= d alpha, scaled rows
    if shifted:
        beta = max(s0 + 2.0 * eta * s0 / c, 0.5 * c + 0.5)
        alpha = 1.0 + 2.0 * eta / c
    else:
        beta = max(2.0 * eta * s0 / c, 0.5 * c + 0.5 + s0)
        alpha = max(2.0 * eta / c, 1.0)
    rda = r * d * alpha
    # from this term on, m_n = max(|u_n|, |u_{n-1}| / 2) halves per term
    n_min = math.ceil((r * max(beta, 1.0) + 2.0 * rda - 0.5) / (0.5 - r)) + 1

    # each new component is num / (2 q1 2**sh) rounded half up, q1 = (n+1) N0;
    # flooring the part of num over 2**sh first and then dividing by the
    # small 2 q1 floors the same as one division by the product
    pr, pi, qr, qi = st.ints
    sum_pr, sum_pi, sum_qr, sum_qi = pr, pi, qr, qi
    dn, dd = big_d * big_s, big_d * big_d
    if shifted:
        e2 = 2 * e
        dn2, dd2 = 2 * dn, 2 * dd
    else:
        e4dn, e4dd = 4 * e * dn, 4 * e * dd
    sh = shift - 1
    q1, q1x2 = big_s, 2 * big_s
    xr0 = xi0 = nd2 = 0      # Q_{n-1} (unshifted) or 2^ee (2 eta Q - i P)_{n-1}; 2 n D
    odd = 1
    quiet = False
    n = 0
    while True:
        if shifted:
            xr, xi = e2 * qr + (pi << ee), e2 * qi - (pr << ee)
            ar = ((dn2 * xr + dd2 * xr0) >> sh) - nd2 * pr
            ai = ((dn2 * xi + dd2 * xi0) >> sh) - nd2 * pi
            # Q_{n+1} = D (P - (2n+1) Q) / (2 (n+1) s0)
            br, bi = big_d * (pr - odd * qr), big_d * (pi - odd * qi)
        else:
            xr, xi = qr, qi
            ar = ((e4dn * xr + e4dd * xr0) >> sh) - nd2 * pr
            ai = ((e4dn * xi + e4dd * xi0) >> sh) - nd2 * pi
            br = big_d * (pr - odd * qr) + ((dn * qi + dd * xi0) >> (k - 1))
            bi = big_d * (pi - odd * qi) + ((-dn * qr - dd * xr0) >> (k - 1))
        xr0, xi0 = xr, xi
        pr, pi = (ar + q1) // q1x2, (ai + q1) // q1x2
        qr, qi = (br + q1) // q1x2, (bi + q1) // q1x2
        sum_pr += pr
        sum_pi += pi
        sum_qr += qr
        sum_qi += qi
        n += 1
        # stop once two terms in a row have every component within 8 and 16
        small = -8 <= pr <= 8 and -8 <= pi <= 8 and -8 <= qr <= 8 and -8 <= qi <= 8
        if small and quiet and n >= n_min:
            break
        quiet = small or (-16 <= pr <= 16 and -16 <= pi <= 16
                          and -16 <= qr <= 16 and -16 <= qi <= 16)
        if n >= MAX_TERMS:
            raise NonConvergence(f"Taylor step {s0!r} -> {s1!r} did not converge")
        q1 += big_s
        q1x2 += 2 * big_s
        nd2 += 2 * big_d
        odd += 2
    # rounding: each term's error e_n obeys |e_n| <= c1 |e_{n-1}| + c2 |e_{n-2}|
    # + delta, c1 = r (n - 1 + beta) / n, c2 = r d alpha / n
    cm = max(1.0, c)
    delta = 0.7072 * cm
    gamma = r * max(beta, 1.0) + rda
    if gamma < 1.0:
        e_prev = e_cur = delta / (1.0 - gamma)
        e_sum = n * e_cur
    else:
        e_prev = e_cur = e_sum = 0.0
        for j in range(1, n + 1):
            e_prev, e_cur = e_cur, (r * (j - 1 + beta) * e_cur + rda * e_prev) / j + delta
            e_sum += e_cur
    # m_n = max(|u_n|, |u_{n-1}| / 2) halves from here on, |u| <= 2 cm max|component|
    tail = max(16.0 * cm + e_cur, 16.0 * cm + 0.5 * e_prev)
    if d * mu < 700.0:
        eps = (math.exp(d * mu) * eps + e_sum + tail) * (1.0 + 2.0 ** -40)
    else:
        eps = math.inf
    return _State(s1, st.width, (sum_pr, sum_pi, sum_qr, sum_qi), eps, c), n


def _round53(n: int) -> int:
    """n > 2**53 rounded half away from zero to 53 significant bits, as _int_to_float does."""
    drop = n.bit_length() - 53
    return ((n + (1 << (drop - 1))) >> drop) << drop


def _certain(re: int, im: int, rad: int, width: int) -> complex | None:
    """The complex double every point of the box re ± rad', im ± rad' rounds to.

    rad' adds to ``rad`` the series' own error bound, which
    :func:`chf_series_fixed` keeps ``SAFE_BITS`` below the larger
    component, so the per-point series lies in the box as well: where the
    whole box rounds to one double, so does the series.  The rounding is
    :func:`_int_to_float`'s, applied to both ends of each side, each at
    its own exponent, so a side that crosses a power of two is certain
    when both ends round to that power.
    """
    e = rad + ((max(abs(re), abs(im)) + rad) >> (SAFE_BITS - 3)) + 1
    out = []
    for x in (re, im):
        lo, hi = abs(x) - e, abs(x) + e
        if lo <= 0 or lo.bit_length() <= 53:
            return None
        r = _round53(lo)
        if r != _round53(hi):
            return None
        try:
            out.append(math.ldexp(float(r) if x > 0 else -float(r), -width))
        except OverflowError:
            return None
    return complex(*out)


def kummer_walk(eta: float, shifted: bool, s: list[float]) -> Walk:
    """A Kummer pair at z = -i s for ascending s >= 0, bit for bit the series'.

    The pair is (M(a, 1/2; z), M(a+1, 3/2; z)) with a = i eta, or with
    ``shifted`` (M(a, 1/2; z), M(a, 3/2; z)) with a = 1/2 + i eta.  Each
    output equals :func:`chf_series_fixed` at that point.  Where Taylor
    steps of the pair's first-order system are cheaper than the series,
    a state seeded from :func:`_fixed_sum` is carried from point to point,
    each step reaching at most a quarter of the way from z0 to z = 0
    (longer gaps take sub-steps), with a rigorous error radius; a value
    is taken from it only where the radius, plus the series' own bound,
    certifies the rounding.  Every other value is the per-point series.
    """
    a = complex(0.5 if shifted else 0.0, eta)
    pair = ((a, 0.5), (a if shifted else a + 1.0, 1.5))
    n = len(s)
    # predicted growth of the radius, in nats, from each point to the last
    c = [_norm_weight(eta, x) for x in s]
    grow = [0.0] * n
    for k in range(n - 2, -1, -1):
        grow[k] = (grow[k + 1] + (s[k + 1] - s[k]) * 2.0 * eta / c[k]
                   + math.log(c[k + 1] / c[k]))
    out_p, out_q = [], []
    continued = seeds = steps = terms = 0
    st = None
    for k, s1 in enumerate(s):
        if st is not None and _step_cost(st.s, s1, st.width) <= _series_cost(s1):
            try:
                while st.s < s1:
                    st, used = _step(eta, shifted, st, _reach(st.s, s1))
                    steps += 1
                    terms += used
            except NonConvergence:   # the series still answers
                st = None
        else:
            st = None
            width = (SAFE_BITS + _WALK_GUARD + math.ceil(grow[k] * _LOG2E)
                     + (n - k).bit_length())
            if (k + 1 < n and s1 > 0.0
                    and _step_cost(s1, s[k + 1], width) < _series_cost(s[k + 1])):
                st = _seed(pair, s1, width, c[k])
                seeds += 1
        if st is not None and not st.eps < math.inf:
            st = None
        vals = [None, None]
        if st is not None:
            pr, pi, qr, qi = st.ints
            # M(0, 1/2; z) = 1: its zero imaginary part has no box that rounds
            # to one double, and the state carries it exactly anyway
            vals = [1 + 0j if a == 0 else _certain(pr, pi, int(st.eps) + 1, st.width),
                    _certain(qr, qi, int(st.eps / st.c) + 1, st.width)]
            size = min((abs(pr) + abs(pi)).bit_length(),
                       (abs(qr) + abs(qi)).bit_length() + math.log2(st.c))
            if None in vals and math.log2(st.eps) + SAFE_BITS + 8 > size:
                st = None     # the radius outgrew the values: seed again
        continued += None not in vals
        z = complex(0.0, -s1)
        p, q = (v if v is not None else chf_series_fixed(ab[0], ab[1], z)
                for v, ab in zip(vals, pair))
        out_p.append(p)
        out_q.append(q)
    return Walk(out_p, out_q, continued, seeds, steps, terms)
