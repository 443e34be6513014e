"""Exact integer fixed-point summation of the confluent-hypergeometric series.

``chf_series_fixed`` evaluates 1F1(a, b; z) one point at a time.  Term
ratios are formed from the *exact* binary rationals underlying the float
inputs, so the only rounding is one controlled rounding per term at a
number of fractional bits sized from the predicted cancellation and
checked against the truncation bound after the sum.  Its cost is a few
microseconds per term, and it is the evaluator ``specfun`` uses for
every point.  The final rounding to complex double happens once, so the
result is correctly rounded.

No third-party extended-precision library is involved: Python's
integers carry the whole sum.
"""
from __future__ import annotations

import math
import sys

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


def _fixed_sum(a: complex, b: float, z: complex, bits: int) -> tuple[int, int, int, int]:
    """Fixed-point confluent-hypergeometric series, raw scaled integers.

    Returns (sr, si, peak, n): the series value is (sr + i si) / 2**bits
    up to the truncation error, which stays below ~n**2 * 2**(peak - bits)
    absolute for the n terms summed, whose largest has magnitude
    2**peak.  Summation stops once the term magnitude drops ``SAFE_BITS``
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
        if tbits == 0 or tbits + SAFE_BITS <= (abs(sr) | abs(si)).bit_length():
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
