"""Associated Legendre polynomials and Bessel functions, from scratch.

All evaluators are plain recurrence implementations chosen for stability
over the working range (degrees and orders up to a few hundred, arguments
up to ~1e4).  Every function accepts a scalar or an ndarray for
its real argument (a complex one raises ValueError) and is pure, with a
single evaluation path per function: negative Legendre orders scale the
positive-order recurrence, and j_n(x) is the p = 0 case of the scaled
j_n(x)/x^p.  Degrees, orders and powers are integers; an integral float
such as 2.0 stands for its int, and any other value raises ValueError.

Each loop steps one way whatever the size of its argument: the Hankel
set-up, which the oracle runs on node arrays, updates its own buffers in
place; the Legendre recurrence and the Miller loop step by augmented
assignments, in place on a node array and rebinding a lone point's numpy
scalars.  A lone point and the same point in an array of one give the
same bits.

J_m(x) has two regimes: for |x| >= max(ASYM_X_MIN, |m|), J_0 and J_1 from
Hankel's asymptotic expansion and the upward recurrence to |m|, whose cost
per point does not grow with x; below, x = 0 included, the Miller loop,
started for the regime's edge max(ASYM_X_MIN, |m|).
g_k = J_k(x)/x^k and y_k = j_k(x)/x^k are the minimal solutions of
g_{k-1} = 2k g_k - x^2 g_{k+1} and y_{k-1} = (2k+1) y_k - x^2 y_{k+1},
which divide by nothing; they share one Miller loop, each with its own
normalization, and J_k and j_k above their Miller regimes share one
upward recurrence.  Each loop returns the band of orders lo..hi it passes
on one pass, and the regime is picked from hi: J_m and j_n are one-order
bands, and the derivatives take their neighbouring orders from one band.
Each Miller loop starts from its regime's edge, max(ASYM_X_MIN, |m|) for
J and max(n, 1) for j_n, whatever its arguments, and Hankel's sums take,
at every point, the term count that x = ASYM_X_MIN needs in the dtype, so
a J_m value depends on its order, its argument and its dtype alone, not
on the other points of its call.  The J_m loops also take one order per
point, for the quadrature oracle's sweeps, which run a block of cases in
one call: each point takes its regime from its own order, enters the
Miller loop at its own order's start and leaves with its own order's
value.  The Miller loop rescales by counted powers of two, so each order
of its band, J_k = x^k g_k and j_n(x)/x^p, is a mantissa and its own
binary exponent, rounded once, and never passes through a g_k, j_n or x^p
outside the double range.  The P_n^m degree recurrence is the only
Legendre evaluator in the package; the quadrature oracle builds its rules
from the recurrence coefficients of its Jacobi-Kronrod matrix instead.

Sign convention: Abramowitz & Stegun associated Legendre polynomials with
the Condon-Shortley phase, i.e. P_1^1(x) = -sqrt(1 - x^2).
"""

import functools
import math

import numpy as np

# Cylindrical Bessel regime split: for |x| >= max(ASYM_X_MIN, |m|), J_0 and
# J_1 come from Hankel's asymptotic expansion and J_m from the upward
# recurrence.  At x >= 25 the expansion's smallest term, about e^(-2x) <
# 1e-21, lies below the eps of extended precision.
ASYM_X_MIN = 25.0

# Factorial ratios are evaluated in double precision; degrees above this
# overflow for large orders.
FACTORIAL_N_CAP = 170

# The Miller loop multiplies values past the limit by 2^-_RESCALE_BITS; a
# power of two scales exactly, so the rescale count is an exact exponent.
_RESCALE_LIMIT = 1e250
_RESCALE_BITS = 830


def _as_array(x, name):
    # Preserves float64 and extended-precision inputs; other real inputs
    # become float64, and complex ones raise rather than lose their
    # imaginary part.  The quadrature oracle relies on this to evaluate
    # integrands in np.longdouble on high-cancellation cases.
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} requires real arguments")
    if arr.dtype.kind != "f" or arr.dtype.itemsize < 8:
        arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} requires finite arguments")
    return arr, arr.ndim == 0


def _maybe_scalar(values, scalar):
    # A 0-d input's value as a float, or in an extended dtype as a numpy
    # scalar of that dtype, which keeps its precision.
    if not scalar:
        return values
    return float(values[()]) if values.dtype == np.float64 else values[()]


def _integer(value, what, name):
    # Degrees, orders and powers: an integral value (2, 2.0, np.int64(2))
    # as an int, anything else a ValueError naming the argument.
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating))
            and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{what} must be an integer (got {name}={value})")


def assoc_legendre(n, m, x):
    """Associated Legendre polynomial P_n^m(x), A&S convention.

    Degree n >= 0, order |m| <= n, x (float or ndarray) in [-1, 1], with the
    Condon-Shortley phase; negative orders use P_n^{-m}(x) = (-1)^m
    (n-m)!/(n+m)! P_n^m(x).  The recurrence steps scaled by powers of two,
    and the value is rounded once.  Raises OverflowError where P_n^m(x)
    passes the double range, as ``factorial_ratio`` does: only for m > 0
    near the degree cap, as |P_n^m| <= 1 for m < 0.
    """
    n, m = _integer(n, "degree", "n"), _integer(m, "order", "m")
    mant, e, scalar = _legendre_scaled(n, m, x)
    with np.errstate(over="ignore"):
        out = np.ldexp(mant, e)
    if not np.isfinite(out).all():
        raise OverflowError(
            f"P_n^m overflows double precision for n={n}, m={m}")
    return _maybe_scalar(out, scalar)


def _legendre_scaled(n, m, x):
    # P_n^m(x) = mant * 2^e for every |m| <= n, from _legendre_upward and,
    # for m < 0, A&S 8.2.5; powers of two scale exactly, so wherever the
    # plain formula stays normal, mant * 2^e is its result bit for bit.
    if n < 0:
        raise ValueError(f"degree must be non-negative (got n={n})")
    if abs(m) > n:
        raise ValueError(f"order must satisfy |m| <= n (got n={n}, m={m})")
    arr, scalar = _as_array(x, "assoc_legendre")
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    a = abs(m)
    mant, e = _legendre_upward(n, a, arr)
    if m < 0:
        mant, e = _negative_order(n, a, mant, e)
    return mant, e, scalar


def _negative_order(n, a, mant, e):
    # P_n^{-a} = (-1)^a (n-a)!/(n+a)! P_n^a (A&S 8.2.5), each as mant * 2^e.
    ratio, e_ratio = _scaled_factorial_ratio(n, a)
    return (1.0 if a % 2 == 0 else -1.0) / ratio * mant, e - e_ratio


def _legendre_upward(n, m, x):
    # P_n^m(x) = value * 2^e, m >= 0: P_m^m = (-1)^m (2m-1)!! (1-x^2)^(m/2),
    # then (n-m) P_n^m = x(2n-1) P_{n-1}^m - (n+m-1) P_{n-2}^m, stable for
    # |x| <= 1.  P_m^m takes each odd factor over 2^9 and, per point, frexp's
    # mantissa of sqrt(1-x^2) = s 2^(e_s), so e = m (9 + e_s): it lies in
    # [2^-520, 1] at m <= 170, and the degree raises it by at most the
    # Gegenbauer maximum (n+m)!/((n-m)! (2m)!) (DLMF 18.14.4), < 2^232 at
    # n <= 170.  Powers of two scale each step exactly, so value * 2^e is
    # the plain recurrence's result wherever that stays normal.
    x = x[()]
    somx2, e = np.frexp(np.sqrt((1.0 - x) * (1.0 + x)))
    pmm = x * 0.0 + 1.0
    fact = 1.0
    for _ in range(m):
        pmm *= -fact / 512.0
        pmm *= somx2
        fact += 2.0
    e = (e + 9) * m
    if n == m:
        return pmm, e
    pnm = (2.0 * m + 1.0) * x * pmm
    for k in range(m + 2, n + 1):
        step = (2.0 * k - 1.0) * x
        step *= pnm
        pmm *= -(k + m - 1.0)
        pmm += step
        pmm /= k - m
        pmm, pnm = pnm, pmm
    return pnm, e


def bessel_j(m, x):
    """Cylindrical Bessel function of the first kind, J_m(x), integer m.

    Two regimes, by |x|: for |x| >= max(ASYM_X_MIN, |m|), J_0 and J_1 from
    Hankel's asymptotic expansion and the upward recurrence to |m|, O(|m|)
    per point; below, x = 0 included, Miller downward recurrence on
    g_k = J_k/x^k, g_{k-1} = 2k g_k - x^2 g_{k+1}, which divides by nothing,
    with Neumann's g_0 + 2 sum x^(2k) g_{2k} = 1 normalization, and
    J_m = x^|m| g_|m| rounded once.  Values below the normal range of x's
    dtype come out subnormal or 0.  Negative orders use
    J_{-m}(x) = (-1)^m J_m(x).  A non-integral order raises ValueError.
    """
    m = _integer(m, "order", "m")
    arr, scalar = _as_array(x, "bessel_j")
    return _maybe_scalar(_bessel_j(m, arr), scalar)


def _bessel_j(m, x):
    # bessel_j on a checked array, m an int or, in an oracle block, one
    # order per point.  J_m(-x) = (-1)^m J_m(x) and J_{-m} = (-1)^m J_m:
    # (-1)^m where exactly one of x and m is negative.
    mm = abs(m)
    (out,) = _bessel_band(mm, mm, np.abs(x))
    out *= np.where((x < 0.0) != (m < 0), 1.0 - 2.0 * (mm % 2), 1.0)
    return out


def _bessel_band(lo, hi, x):
    # [J_lo(x), ..., J_hi(x)] for x >= 0, from one loop per regime, each
    # point's regime picked by its hi.  lo and hi are ints, or in a block one
    # int per point of x, hi - lo the same for all; a regime's points take
    # their orders with them; one that takes every point runs on x itself.
    block = isinstance(hi, np.ndarray)
    if block:
        count = int(np.max(hi - lo, initial=0)) + 1
        asym = x >= np.maximum(ASYM_X_MIN, hi)
    else:
        count = hi - lo + 1
        asym = x >= max(ASYM_X_MIN, hi)
    out = [np.empty_like(x) for _ in range(count)]
    for mask, regime in ((asym, _bessel_hankel), (~asym, _bessel_miller)):
        if x.size and mask.all():
            return [row.reshape(x.shape)
                    for row in regime(lo, hi, x.reshape(-1))]
        if mask.any():
            orders = (lo[mask], hi[mask]) if block else (lo, hi)
            for row, val in zip(out, regime(*orders, x[mask])):
                row[mask] = val
    return out


def _runs(lo, hi):
    # A loop's points as runs that share their orders: (part, lo, hi) per
    # run, part ``...`` for a call of one order pair, else the run's slice
    # of a block.  A block needs no sorting: its cases are runs already,
    # and neighbouring cases of one order merge.
    if not isinstance(lo, np.ndarray):
        return [(..., lo, hi)]
    cuts = (np.flatnonzero(lo[1:] != lo[:-1]) + 1).tolist()
    if not cuts:
        return [(..., int(lo[0]), int(hi[0]))]
    return [(slice(a, b), int(lo[a]), int(hi[a]))
            for a, b in zip([0, *cuts], [*cuts, lo.size])]


def _bessel_miller(lo, hi, x):
    # J_k = x^k g_k from the Miller loop on g_k = J_k/x^k, normalized by
    # Neumann's g_0 + 2 sum x^(2k) g_{2k} = 1, for x < max(ASYM_X_MIN, hi).
    # Every step takes the same rounding of x^2, about x eps/2 of J's
    # envelope (1.9e-15 near x = 24); g_k - (e/2) g_{k+1}, e = x^2 -
    # fl(x^2), steps back to x^2 (DLMF 10.6.6).  x^k enters through
    # _times_power, rounded once, with per-point exponents for one order
    # and a block alike: numpy squares a scalar 2, which can round apart.
    vals, above, g0, _, even_sum, drops = _backward(
        lo, hi, x, 0, int(ASYM_X_MIN))
    half_err = 0.5 * _square_error(x)
    norm = 2.0 * even_sum + g0
    orders = np.broadcast_to(lo, x.shape)
    return [np.ldexp(*_times_power(
        *_normalized(val - half_err * nxt, drop, norm), x, orders + j))
            for j, (val, nxt, drop) in enumerate(zip(vals, above, drops))]


def _normalized(val, drop, norm, factor=1.0):
    # A Miller band row f_k / norm * factor as a mantissa and a binary
    # exponent, net of the loop's ``drop`` rescales after passing k.
    mant, e = np.frexp(val / norm * factor)
    return mant, e - _RESCALE_BITS * drop


def _bessel_hankel(lo, hi, x):
    # [J_lo(x), ..., J_hi(x)] for x >= max(ASYM_X_MIN, hi).
    # J_nu = (P cos chi - Q sin chi) sqrt(2/(pi x)), chi = x - (nu/2 + 1/4) pi,
    # for nu = 0, 1 (DLMF 10.17.3), then J_{k+1} = 2k/x J_k - J_{k-1}, stable
    # for k <= x.  P and Q are Horner polynomials in z = 1/x^2 of
    # _hankel_coefs(x.dtype), one length for every point.  The four
    # polynomials are the rows of one array, so one numpy call steps all
    # four, and every update is in place, so the regime holds no more memory
    # than the Miller loop would; out of place, bessel_j(7, x) on 20 000
    # points in [25, 1000] took 43 % longer (median of 20 alternating
    # rounds).
    coefs = _hankel_coefs(x.dtype)
    z = 1.0 / x
    z *= z
    h = np.empty((4,) + x.shape, dtype=x.dtype)
    h[...] = coefs[:, -1, None]
    for i in range(coefs.shape[1] - 2, -1, -1):
        h *= z
        h += coefs[:, i, None]
    del z
    h[1::2] /= x
    # cos chi and sin chi are (c + s, s - c)/sqrt 2 at nu = 0 and
    # (s - c, -(s + c))/sqrt 2 at nu = 1, with c = cos x and s = sin x, so
    # J_0 sqrt(pi x) = (P_0 + Q_0) c + (P_0 - Q_0) s and
    # J_1 sqrt(pi x) = (P_1 + Q_1) s - (P_1 - Q_1) c.
    diff = h[0::2] - h[1::2]
    h[0::2] += h[1::2]
    h[1::2] = diff
    del diff
    c = np.cos(x)
    h[0::3] *= c  # P_0 + Q_0 and P_1 - Q_1
    s = np.sin(x, out=c)
    h[1:3] *= s   # P_0 - Q_0 and P_1 + Q_1
    del c, s
    h[0] += h[1]
    h[2] -= h[3]
    h[0::2] /= np.sqrt(4.0 * np.arctan(x.dtype.type(1)) * x)  # pi in x's dtype
    return _upward(lo, hi, x, h[0], h[2], 0)


def _upward(lo, hi, x, f0, f1, shift):
    # [f_lo, ..., f_hi] from f_0, f_1 and f_{k+1} = (2k+shift)/x f_k - f_{k-1},
    # the recurrence of J_k (shift 0) and of j_k (shift 1), stable for
    # k <= x.  (2k+shift)/x is rounded once per step: a shared 1/x would put
    # the same relative error into every step's coefficient, 4-6x the error
    # near x = k.  Updates are in place, so the loop holds three arrays; a
    # single point steps as numpy scalars, which rebind instead: as a
    # one-element array, a lone j_20(33.3) took 2.7 times as long and
    # j_150(400) 7 times.  With one order per point (_bessel_band) the loop
    # runs to the highest hi, each point taking its band row at the step of
    # its own order.
    runs = _runs(lo, hi)
    taken = {}  # order k -> the (band row, part) pairs that take f_k
    for part, a, b in runs:
        for k in range(a, b + 1):
            taken.setdefault(k, []).append((k - a, part))
    band = np.empty((runs[0][2] - runs[0][1] + 1,) + x.shape, x.dtype)
    if x.size == 1:
        x, f0, f1 = x[0], f0[0], f1[0]
    for k, f in (0, f0), (1, f1):
        for j, part in taken.get(k, ()):
            band[j, part] = f[part]
    prev, cur = f0, f1
    for k in range(1, max(b for _, _, b in runs)):
        nxt = (2.0 * k + shift) / x
        nxt *= cur
        nxt -= prev
        prev, cur = cur, nxt
        if k + 1 in taken:
            for j, part in taken[k + 1]:
                band[j, part] = cur[part]
    return band


def _hankel_coefficients(count):
    # Rows P_0, Q_0, P_1, Q_1 of Hankel's expansion, count coefficients each,
    # as polynomials in z = 1/x^2: P_nu = sum_i (-1)^i a_{2i} z^i and
    # Q_nu x = sum_i (-1)^i a_{2i+1} z^i, from the term ratio a_k = a_{k-1}
    # (4 nu^2 - (2k-1)^2) / (8k), a_0 = 1, in the widest float.  Also the
    # power of 1/x that each coefficient carries.
    k = np.arange(2 * count)
    a = np.ones((2, 2 * count), dtype=np.longdouble)
    for j in range(1, 2 * count):
        a[:, j] = a[:, j - 1] * (np.array([0, 4]) - (2 * j - 1) ** 2) / (8 * j)
    a *= (-1.0) ** (k // 2)
    table = np.stack([a[0, 0::2], a[0, 1::2], a[1, 0::2], a[1, 1::2]])
    return table, np.stack([k[0::2], k[1::2]] * 2)


# Up to k = 2 * ASYM_X_MIN the terms a_k / x^k fall with k for every x in
# the regime, so the terms above eps form a prefix of each row.
_HANKEL_PQ, _HANKEL_POWER = _hankel_coefficients(int(ASYM_X_MIN))


@functools.lru_cache(maxsize=None)
def _hankel_coefs(dtype):
    # _HANKEL_PQ in ``dtype``, cut after the first terms below its eps/4 at
    # x = ASYM_X_MIN.  Each term falls with x, so that length serves every
    # point of the regime: 10 terms in double.  Callers only read it.
    log_terms = (np.log(np.abs(_HANKEL_PQ).astype(float))
                 - _HANKEL_POWER * math.log(ASYM_X_MIN))
    above = log_terms > math.log(float(np.finfo(dtype).eps) / 4.0)
    terms = np.count_nonzero(above.any(axis=0)) + 1
    return _HANKEL_PQ[:, :terms].astype(dtype)


def _backward(lo, hi, x, shift, edge):
    # Miller's backward recurrence f_{k-1} = (2k+shift) f_k - x^2 f_{k+1}
    # for its minimal solution, up to one factor per element: g_k =
    # J_k(x)/x^k at shift 0 (DLMF 10.6.1 divided by x^(k-1)) and y_k =
    # j_k(x)/x^k at shift 1 (Gil, Segura & Temme 2007).  It divides by
    # nothing, so it is exact at x = 0.  The caller passes the integer
    # ``edge`` of its regime: each point's x lies below max(edge, hi), and
    # the point starts at _miller_start of that for the eps of x's dtype,
    # whatever its x.  With one order per point (_bessel_band), a point
    # whose start is below the top one holds zeros, which the loop keeps
    # exactly zero, until the step of its own start, where it takes the
    # seed a lone call starts from.  Returns the band
    # [f_lo, ..., f_hi] the loop passes on its way down, the f_{k+1} beside
    # each f_k (on its scale), f_0, f_1, sum_{k>=1} x^(2k) f_{2k} (Neumann's
    # sum for g, summed by Horner's rule; zeros for y, which does not use
    # it) and one drop per band order: f_k is 2^(_RESCALE_BITS * drop)
    # times the common scale of f_0, f_1 and the sum, the rescales the loop
    # made after passing k.
    runs = _runs(lo, hi)
    edges = [max(b, edge) for _, _, b in runs]
    starts = [_miller_start(big, x.dtype) for big in edges]
    top = max(starts)
    # events[k]: the parts seeded at step k and the (row, part) pairs that
    # take f_{k-1} into the band; ``late`` the parts that start below top.
    events, late = {}, []
    for (part, a, b), start in zip(runs, starts):
        if start < top:
            late.append(part)
            events.setdefault(start, ([], []))[0].append(part)
        for k in range(a, b + 1):
            events.setdefault(k + 1, ([], []))[1].append((k - a, part))
    # The steps that pass an even order k - 1 >= 2, for g's sum.
    sum_steps = () if shift else range(3, top + 1, 2)
    # band[j] was passed when ``drops`` stood at marks[j]; counting the
    # rescales once and subtracting at the end is exact in integers.  drops
    # is the scalar 0 until a rescale makes it one count per point: with a
    # count array from the start, the Miller regime on 30 000 points took
    # about 4 % longer.
    rows = (runs[0][2] - runs[0][1] + 1,) + x.shape
    band, above = np.empty(rows, x.dtype), np.empty(rows, x.dtype)
    marks, drops = np.empty(rows, np.int32), np.int32(0)
    # Each step updates f_{k+1}'s buffer into f_{k-1} and swaps, so a node
    # array steps in place and a lone point, as numpy scalars, rebinds:
    # as a one-element array, a lone j_20(5) took about twice as long, and
    # out of place, bessel_j(7, x) on 1000 points in (0, 24) took 21 %
    # longer.  -(x^2) f_{k+1} + (2k+shift) f_k rounds as (2k+shift) f_k -
    # x^2 f_{k+1} does: negation is exact.
    if x.size == 1:
        x = x.reshape(())[()]
    x2 = x * x
    neg_x2 = -x2
    fk = x * 0.0 + 1e-30
    for part in late:
        fk[part] = 0.0
    fkp1, even_sum = x * 0.0, x * 0.0
    # The rescale test must act as if it ran on every step: skipping a step
    # where it fires moves the rescale points and with them the last bits.
    # bk and bkp1 bound max|f_k| and max|f_{k+1}| up to rounding, which the
    # 1e-3 margin absorbs, so the test runs only where it could fire.  A
    # point that starts later enters below the bound, as its seed is.
    b = float(max(edges)) ** 2
    bk, bkp1 = 1e-30, 0.0
    for k in range(top, 0, -1):
        event = events.get(k)
        if event:
            for part in event[0]:
                fk[part] = 1e-30
        fkp1 *= neg_x2
        fkp1 += (2.0 * k + shift) * fk
        fk, fkp1 = fkp1, fk
        bk, bkp1 = (2.0 * k + shift) * bk + b * bkp1, bk
        if event:
            for j, part in event[1]:
                band[j, part] = fk[part]
                above[j, part] = fkp1[part]
                marks[j, part] = drops[part] if drops.ndim else drops
        if k in sum_steps:
            even_sum += fk
            even_sum *= x2
        if bk > 1e-3 * _RESCALE_LIMIT:
            clip = np.abs(fk) > _RESCALE_LIMIT
            if clip.any():
                f = np.where(clip, 2.0 ** -_RESCALE_BITS, 1.0)
                fk = fk * f
                fkp1 = fkp1 * f
                even_sum = even_sum * f
                drops = drops + clip
            bk = min(bk, _RESCALE_LIMIT)
    return band, above, fk, fkp1, even_sum, drops - marks


def _square_error(x):
    # x^2 - fl(x^2) to about 2^(-p/2) of itself for p-bit x: Veltkamp's
    # split x = hi + lo (Dekker 1971) makes hi*hi - fl(x^2) exact, and
    # lo (hi + x) = x^2 - hi^2 rounds twice.
    c = x * (2.0 ** ((np.finfo(x.dtype).nmant + 2) // 2) + 1.0)
    hi = c - (c - x)
    return (hi * hi - x * x) + (x - hi) * (hi + x)


@functools.lru_cache(maxsize=1024)
def _miller_start(big, dtype):
    # Start order N of the Miller loop for arguments x <= big and orders
    # <= big.  Started at N, the loop yields J_k - (J_{N+1}/Y_{N+1}) Y_k up
    # to a factor.  That error is largest near k = N, about |J_{N+1}|, and
    # so enters the normalization sum J_0 + 2 sum J_{2k}; at the band orders
    # k <= big it is about N |J_N|^2 times J_k's envelope, as |J_N Y_N| is
    # about 1/N.  So N is the first order past big where DLMF 10.14.5,
    # |J_N(x)| <= x^N e^s / (N + s)^N with s = sqrt(N^2 - x^2), puts
    # J_N(big), the largest over x <= big, below the dtype's eps.  The
    # spherical loop, normalized at order 0 or 1, needs only the band's
    # condition and starts at the same order.
    target = math.log(float(np.finfo(dtype).eps))
    n = big + 1
    while True:
        s = math.sqrt(float(n * n - big * big))
        if n * math.log(big / (n + s)) + s <= target:
            return n
        n += 1


def spherical_bessel_j(n, x):
    """Spherical Bessel function of the first kind, j_n(x), n >= 0.

    ``spherical_bessel_ratio`` at p = 0; at x = 0, 1 for n = 0, else 0.
    """
    mant, e, scalar = _sph_ratio_scaled(_integer(n, "order", "n"), 0, x,
                                        "spherical_bessel_j")
    return _maybe_scalar(np.ldexp(mant, e), scalar)


def spherical_bessel_j_prime(n, x):
    """Derivative j_n'(x) = (n j_{n-1} - (n+1) j_{n+1}) / (2n+1), n >= 0.

    One pass of the spherical Bessel loop gives both neighbours.  Below
    x = max(n+1, 1) they come as y_k = j_k(x)/x^k, and
    j_n' = x^(n-1) (n y_{n-1} - (n+1) x^2 y_{n+1}) / (2n+1) divides by
    nothing, so it is exact at x = 0: j_0'(0) = 0, j_1'(0) = 1/3,
    j_n'(0) = 0 for n >= 2.  At n = 0 the y_{-1} term has weight 0 and
    x^(-1) x^2 is taken as x.  Like ``spherical_bessel_ratio``, the value
    is a mantissa and a binary exponent until it is rounded once.
    """
    mant, e, scalar = _sph_ratio_scaled(_integer(n, "order", "n"), 0, x,
                                        "spherical_bessel_j_prime", prime=True)
    return _maybe_scalar(np.ldexp(mant, e), scalar)


def spherical_bessel_ratio(n, p, x):
    """j_n(x) / x^p for 0 <= p <= n, finite at x = 0.

    The limit at zero is 0 for n > p and 1/(2n+1)!! for n = p.  Where
    x >= max(n, 1), the upward recurrence gives j_n; elsewhere the Miller
    loop gives y_n = j_n(x)/x^n, normalized by y_0 = sin(x)/x (1 at x = 0)
    or, where |j_1| > |j_0|, by y_1 = j_1/x.  x^(-p) or x^(n-p) enters as
    a power of frexp(x)'s mantissa and a multiple of its exponent, and the
    result is rounded once: values below the double range come out
    subnormal or 0, never nan.
    """
    mant, e, scalar = _sph_ratio_scaled(
        _integer(n, "order", "n"), _integer(p, "power", "p"), x,
        "spherical_bessel_ratio")
    return _maybe_scalar(np.ldexp(mant, e), scalar)


def _sph_ratio_scaled(n, p, x, name, prime=False):
    # j_n(x)/x^p, or j_n'(x) where ``prime`` (p = 0), as mant * 2^e with
    # |mant| <= 1, for the kernel's closed forms to fold into.  ``name`` is
    # the public function an argument error is reported under.
    if n < 0:
        raise ValueError(f"order must be non-negative (got n={n})")
    if p < 0 or p > n:
        raise ValueError(f"power must satisfy 0 <= p <= n (got n={n}, p={p})")
    arr, scalar = _as_array(x, name)
    if (arr < 0.0).any():
        raise ValueError("argument must be non-negative")
    lo = max(n - 1, 0) if prime else n
    rows, exps, up = _sph_band((lo, n + 1) if prime else (n,), arr)
    mant, e = rows[0], exps[0]
    if prime:
        # Below, the rows are y_lo and y_(n+1): with x^(n+1-lo) y_(n+1) put
        # on y_lo's exponent, the bracket times x^lo is
        # spherical_bessel_j_prime's formula (-x y_1 at n = 0).  Combining
        # before the power of x enters rounds less than powering each row.
        top = rows[1] * np.where(up, 1.0, arr) ** (n + 1 - lo)
        top = np.ldexp(top, exps[1] - e)
        mant = (n * mant - (n + 1) * top) / (2.0 * n + 1.0)
    mant, e = _times_power(mant, e, arr, np.where(up, -p, lo - p))
    return mant, e, scalar


def _sph_band(orders, x):
    # j_k(x) / x^(d k) = mant_k 2^(e_k) for the ascending ``orders`` k, from
    # one loop per regime over their band lo..hi, picked by hi.  Where
    # ``up`` (x >= max(hi, 1)), d = 0, e_k = 0 and mant_k is j_k from the
    # elementary j_0, j_1 and the upward recurrence.  Below, d = 1 and
    # mant_k 2^(e_k) is y_k = j_k/x^k from the Miller loop, frexp'd, its
    # exponent net of the loop's rescales after passing k.  The loop is
    # normalized by y_0 = j_0 (1 at x = 0) or, where |j_1| > |j_0|, by
    # y_1 = j_1/x; j_0 and j_1 have no common zeros.
    lo, hi = orders[0], orders[-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at x = 0
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
    mant = [np.empty_like(x) for _ in orders]
    e = [np.zeros(x.shape, dtype=np.int32) for _ in orders]
    up = x >= max(hi, 1)
    if up.any():
        band = _upward(lo, hi, x[up], j0[up], j1[up], 1)
        for row, k in zip(mant, orders):
            row[up] = band[k - lo]
    down = ~up
    if down.any():
        xs, a, b = x[down], j0[down], j1[down]
        vals, _, f0, f1, _, drops = _backward(lo, hi, xs, 1, 1)
        use1 = np.abs(b) > np.abs(a)
        y = np.where(use1, b, np.where(xs > 0.0, a, 1.0))
        norm = np.where(use1, f1 * xs, f0)
        for row, row_e, k in zip(mant, e, orders):
            row[down], row_e[down] = _normalized(vals[k - lo], drops[k - lo],
                                                 norm, y)
    return mant, e, up


def _times_power(mant, e, x, q):
    # (mant, e) times x^q: frexp(x)'s mantissa^c and exponent*c, |c| <= 1000
    # per step, so no factor leaves the double range.
    mx, ex = np.frexp(x)
    q = q.astype(np.int32)
    while q.any():
        c = np.minimum(np.maximum(q, -1000), 1000)
        mant, de = np.frexp(mant * mx ** c)
        e = e + de + ex * c
        q = q - c
    return mant, e


def factorial_ratio(n, m):
    """(n+|m|)! / (n-|m|)! as the running product (n-|m|+1)...(n+|m|).

    Never forms the two full factorials.  Degrees above ``FACTORIAL_N_CAP``
    (or products past the double range) raise OverflowError.
    """
    n, m = _integer(n, "degree", "n"), _integer(m, "order", "m")
    mm = abs(m)
    if n < 0 or mm > n:
        raise ValueError(f"require 0 <= |m| <= n (got n={n}, m={m})")
    if n > FACTORIAL_N_CAP:
        raise OverflowError(f"degree above cap {FACTORIAL_N_CAP} (got n={n})")
    ratio, e = _scaled_factorial_ratio(n, mm)
    return _rounded(ratio, e, "factorial ratio overflows for n={}, m={}",
                    n, m)


def _rounded(x, e, message, *args):
    # x * 2^e, float or complex, each part rounded once: subnormal or 0
    # below the double range, OverflowError(message.format(*args)) past it.
    try:
        if type(x) is complex:
            return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
        return math.ldexp(x, e)
    except OverflowError:
        raise OverflowError(message.format(*args)) from None


def _scaled_factorial_ratio(n, a):
    # (n+a)!/(n-a)! = ratio * 2^e, ratio in [0.5, 1): the running product
    # (n-a+1)...(n+a), its powers of two moved to e past 1e300 and at the
    # end, exactly: ratio * 2^e is the plain product's rounding, unbounded.
    ratio, e = 1.0, 0
    for j in range(n - a + 1, n + a + 1):
        ratio *= j
        if ratio > 1e300:
            ratio, de = math.frexp(ratio)
            e += de
    ratio, de = math.frexp(ratio)
    return ratio, e + de
