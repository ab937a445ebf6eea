"""Associated Legendre polynomials and Bessel functions, from scratch.

All evaluators are plain recurrence implementations chosen for stability
over the working range (degrees and orders up to a few hundred, arguments
up to ~1e4).  Every function accepts a scalar or an ndarray for
its real argument and is pure, with a single evaluation path per function:
negative Legendre orders scale the positive-order recurrence, and j_n(x) is
the p = 0 case of the scaled j_n(x)/x^p.

J_m(x) has two regimes: for |x| >= max(ASYM_X_MIN, |m|), J_0 and J_1 from
Hankel's asymptotic expansion and the upward recurrence to |m|, whose cost
per point does not grow with x; below, the Miller loop, whose start order
is then bounded by about max(ASYM_X_MIN, |m|).  Where |x| < sqrt(eps
(|m|+1)) the leading term (x/2)^|m|/|m|! is J_m to rounding and stands in
for the loop.  J_k and y_k = j_k(x)/x^k are the minimal solutions
of J_{k-1} = 2k/x J_k - J_{k+1} and y_{k-1} = (2k+1) y_k - x^2 y_{k+1};
they share one Miller loop, each with its own normalization, and J_k and
j_k above their Miller regimes share one upward recurrence.  Each loop
returns the band of orders lo..hi it passes on one pass, and the regime is
picked from hi: J_m and j_n are one-order bands, and the derivatives take
their neighbouring orders from one band.  The Miller loop rescales by
counted powers of two, so each order of a spherical band, and j_n(x)/x^p,
is a mantissa and its own binary exponent, rounded once, and never passes
through a j_n or x^p outside the double range.  The P_n^m degree
recurrence is the only Legendre evaluator in the package; the quadrature
oracle builds its rules from the recurrence coefficients of its
Jacobi-Kronrod matrix instead.

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
    # Preserves float64 and extended-precision inputs; all else becomes
    # float64.  The quadrature oracle relies on this to evaluate integrands
    # in np.longdouble on high-cancellation cases.
    arr = np.asarray(x)
    if arr.dtype.kind != "f" or arr.dtype.itemsize < 8:
        arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} requires finite arguments")
    return arr, arr.ndim == 0


def _maybe_scalar(values, scalar):
    return float(values[()]) if scalar else values


def assoc_legendre(n, m, x):
    """Associated Legendre polynomial P_n^m(x), A&S convention.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    m : int
        Order, -n <= m <= n.  Negative orders use
        P_n^{-m}(x) = (-1)^m (n-m)!/(n+m)! P_n^m(x).
    x : float or ndarray
        Argument in [-1, 1].

    Returns
    -------
    float or ndarray
        P_n^m(x) including the Condon-Shortley phase.

    Raises
    ------
    OverflowError
        If P_n^m(x) lies outside the double range, as ``factorial_ratio``
        does; possible only for m > 0 near the degree cap.  Negative orders
        have |P_n^m| <= 1 and never raise.
    """
    mant, e, scalar = _legendre_scaled(n, m, x)
    with np.errstate(over="ignore"):
        out = np.ldexp(mant, e)
    if not np.isfinite(out).all():
        raise OverflowError(
            f"P_n^m overflows double precision for n={n}, m={m}")
    return _maybe_scalar(out, scalar)


def _legendre_scaled(n, m, x):
    # P_n^m(x) = mant * 2^e.  Every step of the recurrence stays within 680
    # < 2^10 times sqrt((k+a)!/(k-a)!) (addition theorem) and, per point,
    # (1-x^2)^(a/2) (k+a)!/((k-a)! 2^a a!) (DLMF 18.14.4 for P_k^a as a
    # Gegenbauer C_{k-a}^(a+1/2)), so the seed 2^-e keeps it under 2^1020
    # and P_a^a normal; e = 0 where the first bound fits.  Negative orders
    # take A&S 8.2.5, and powers of two scale exactly: wherever the plain
    # formula stays in the normal range, mant * 2^e is its result bit for bit.
    if n < 0:
        raise ValueError(f"degree must be non-negative (got n={n})")
    if abs(m) > n:
        raise ValueError(f"order must satisfy |m| <= n (got n={n}, m={m})")
    arr, scalar = _as_array(x, "assoc_legendre")
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    a = abs(m)
    bound = (math.lgamma(n + a + 1) - math.lgamma(n - a + 1)) / math.log(4.0)
    e, seed = 0, 1.0
    if bound > 1010.0:
        with np.errstate(divide="ignore"):  # log 0 = -inf at x = +-1
            near = (2.0 * bound - a - math.lgamma(a + 1) / math.log(2.0)
                    + 0.5 * a * np.log2((1.0 - arr) * (1.0 + arr)))
        e = np.maximum(np.ceil(np.minimum(near, bound)) - 1010, 0).astype(int)
        seed = np.ldexp(1.0, -e)
    mant = _legendre_upward(n, a, arr, seed)
    if m < 0:
        ratio, e_ratio = _scaled_factorial_ratio(n, a)
        mant = (1.0 if a % 2 == 0 else -1.0) / ratio * mant
        e = e - e_ratio
    return mant, e, scalar


def _legendre_upward(n, m, x, seed=1.0):
    # Seed P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}, times ``seed``, then raise
    # the degree with (n-m) P_n^m = x(2n-1) P_{n-1}^m - (n+m-1) P_{n-2}^m,
    # stable for |x| <= 1.  A single point steps as numpy scalars, which
    # rebind; arrays step in place through three buffers, with the same bits.
    scalar = x.ndim == 0
    x = x[()]
    somx2 = np.sqrt((1.0 - x) * (1.0 + x))
    pmm = np.full_like(x, seed)[()]
    fact = 1.0
    for _ in range(m):
        pmm *= -fact
        pmm *= somx2
        fact += 2.0
    if n == m:
        return pmm
    pnm = (2.0 * m + 1.0) * x * pmm
    spare = None if scalar else np.empty_like(x)
    for k in range(m + 2, n + 1):
        nxt = ((2.0 * k - 1.0) * x if scalar
               else np.multiply(x, 2.0 * k - 1.0, out=spare))
        nxt *= pnm
        pmm *= k + m - 1.0
        nxt -= pmm
        nxt /= k - m
        pmm, pnm, spare = pnm, nxt, pmm
    return pnm


def bessel_j(m, x):
    """Cylindrical Bessel function of the first kind, J_m(x), integer m.

    Two regimes, by |x|: for |x| >= max(ASYM_X_MIN, |m|), J_0 and J_1 from
    Hankel's asymptotic expansion and the upward recurrence to |m|, O(|m|)
    per point; below, Miller downward recurrence with the
    J_0 + 2 sum J_{2k} = 1 normalization.  Where |x| < sqrt(eps (|m|+1)),
    x = 0 included, the leading term (x/2)^|m| / |m|! is J_m to rounding
    and stands in for the Miller loop, whose steps 2k/x f_k would overflow
    near x = 0.  Values below the normal range of x's dtype come out
    subnormal or 0.  Negative orders use J_{-m}(x) = (-1)^m J_m(x).  A
    non-integral order raises ValueError.
    """
    if not float(m).is_integer():
        raise ValueError(f"order must be an integer (got m={m})")
    arr, scalar = _as_array(x, "bessel_j")
    mm = abs(int(m))
    sign = 1.0 if mm % 2 == 0 else -1.0
    signs = np.where(arr < 0.0, sign, 1.0) * (sign if m < 0 else 1.0)
    (out,) = _bessel_band(mm, mm, np.abs(arr))
    return _maybe_scalar(signs * out, scalar)


def _bessel_band(lo, hi, x):
    # [J_lo(x), ..., J_hi(x)] for x >= 0, from one loop per regime, the
    # regime picked by hi.  Below sqrt(eps (lo+1)) the leading term holds
    # for every order of the band: its neglected term x^2/(4(k+1)) is
    # below eps/4 for k >= lo.
    out = [np.empty_like(x) for _ in range(lo, hi + 1)]
    tiny = x < math.sqrt(float(np.finfo(x.dtype).eps) * (lo + 1.0))
    if tiny.any():
        for k, row in enumerate(out, lo):
            row[tiny] = _bessel_leading(k, x[tiny])
    asym = x >= max(ASYM_X_MIN, hi)
    if asym.any():
        for row, val in zip(out, _bessel_hankel(lo, hi, x[asym])):
            row[asym] = val
    rest = ~(tiny | asym)
    if rest.any():
        # Miller, normalized by Neumann's J_0 + 2 sum_{k>=1} J_{2k} = 1.
        vals, j0, _, even_sum, drops = _backward(lo, hi, x[rest], 0)
        norm = 2.0 * even_sum + j0
        for row, val, drop in zip(out, vals, drops):
            row[rest] = np.ldexp(val / norm, -_RESCALE_BITS * drop)
    return out


def _bessel_leading(m, x):
    # (x/2)^m / m!, whose neglected relative term is x^2/(4(m+1)).
    # 1/(2^m m!) leaves the double range at m = 171, so it is q * 2^-shift,
    # q from exact integers: 71 bits in two parts the dtype holds exactly.
    # frexp splits x^m into mant^m and 2^(m e), and ldexp rounds the product
    # into the dtype's range once.
    f = math.factorial(m) << m
    shift = f.bit_length() + 70
    hi, lo = divmod((1 << shift) // f, 1 << 35)
    q = x.dtype.type(hi) * 2.0 ** 35 + x.dtype.type(lo)
    mant, e = np.frexp(x)
    return np.ldexp(mant ** m * q, m * e - shift)


def _bessel_hankel(lo, hi, x):
    # [J_lo(x), ..., J_hi(x)] for x >= max(ASYM_X_MIN, hi).
    # J_nu = (P cos chi - Q sin chi) sqrt(2/(pi x)), chi = x - (nu/2 + 1/4) pi,
    # for nu = 0, 1 (DLMF 10.17.3), then J_{k+1} = 2k/x J_k - J_{k-1}, stable
    # for k <= x.  P and Q are Horner polynomials in z = 1/x^2, cut after the
    # first terms below eps at the smallest x.  The four polynomials are the
    # rows of one array, so one numpy call steps all four, and every update
    # is in place, so the regime holds no more memory than the Miller loop
    # would.
    tol = math.log(float(np.finfo(x.dtype).eps) / 4.0)
    above = _HANKEL_LOG - _HANKEL_POWER * math.log(np.min(x)) > tol
    terms = np.count_nonzero(above.any(axis=0)) + 1
    coefs = _HANKEL_PQ[:, :terms].astype(x.dtype)
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
    # near x = k and, in the Miller loop, k eps where x << k.  Updates are
    # in place, so the loop holds three arrays; a single point steps as
    # numpy scalars, which rebind instead and step faster.
    if x.size == 1:
        x, f0, f1 = x[0], f0[0], f1[0]
    band = [f0, f1][lo:hi + 1]
    prev, cur = f0, f1
    for k in range(1, hi):
        nxt = (2.0 * k + shift) / x
        nxt *= cur
        nxt -= prev
        prev, cur = cur, nxt
        if k >= lo - 1:
            band.append(cur)
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
_HANKEL_LOG = np.log(np.abs(_HANKEL_PQ).astype(float))


def _backward(lo, hi, x, shift):
    # Miller's backward recurrence for a minimal solution, up to one factor
    # per element: shift 0 runs f_{k-1} = 2k/x f_k - f_{k+1} (J_k), shift 1
    # f_{k-1} = (2k+1) f_k - x^2 f_{k+1} (y_k = j_k(x)/x^k; Gil, Segura &
    # Temme 2007), which divides by nothing and is exact at x = 0.  The loop
    # starts at _miller_start for the eps of x's dtype.
    # Returns the band [f_lo, ..., f_hi] the loop passes on its way down,
    # f_0, f_1, sum_{k>=1} f_{2k} (shift 0's normalization; zeros for shift
    # 1, sparing it an array add every other step) and one drop per band
    # order: f_k is 2^(_RESCALE_BITS * drop) times the common scale of f_0,
    # f_1 and the sum, the rescales the loop made after passing k.
    xmax = float(x.max())
    big = max(hi, int(math.ceil(xmax)), 1)
    start = _miller_start(big, x.dtype)
    if shift:
        a, b = 1.0, xmax * xmax
    else:
        a, b = 1.0 / float(x.min()), 1.0
    # A single point of the spherical loop (one j_n(R)) steps as numpy
    # scalars, which rebind and step faster.  Arrays, and the cylindrical
    # loop, whose callers pass node arrays, step in place through three
    # buffers.  Both give the same bits.
    scalar = shift and x.size == 1
    if scalar:
        x = x.reshape(())[()]
        fk, fkp1 = x.dtype.type(1e-30), x.dtype.type(0.0)
        even_sum, spare = fkp1, None
    else:
        fk, fkp1 = np.full_like(x, 1e-30), np.zeros_like(x)
        even_sum, spare = np.zeros_like(x), np.empty_like(x)
    x2 = x * x if shift else None
    # band[i] was passed when ``drops`` stood at marks[i]; counting the
    # rescales once and subtracting at the end is exact in integers.
    band, marks, drops = [], [], 0
    # The rescale test must act as if it ran on every step: skipping a step
    # where it fires moves the rescale points and with them the last bits of
    # J_m.  bk and bkp1 bound max|f_k| and max|f_{k+1}| up to rounding, which
    # the 1e-3 margin absorbs, so the test runs only where it could fire.
    bk, bkp1 = 1e-30, 0.0
    for k in range(start, 0, -1):
        # 2k/x is rounded once per step, for the reason given in _upward
        if scalar:
            nxt = (2.0 * k + 1.0) * fk - x2 * fkp1
        else:
            nxt = spare
            if shift:
                np.multiply(fk, 2.0 * k + 1.0, out=nxt)
                fkp1 *= x2
            else:
                np.divide(2.0 * k, x, out=nxt)
                nxt *= fk
            nxt -= fkp1
            spare = fkp1
        fk, fkp1 = nxt, fk
        bk, bkp1 = (2.0 * k + shift) * a * bk + b * bkp1, bk
        if lo <= k - 1 <= hi:
            band.append(fk if scalar else fk.copy())
            marks.append(drops)
        if shift == 0 and (k - 1) % 2 == 0 and k > 1:
            even_sum += fk
        if bk > 1e-3 * _RESCALE_LIMIT:
            clip = np.abs(fk) > _RESCALE_LIMIT
            if clip.any():
                f = np.where(clip, 2.0 ** -_RESCALE_BITS, 1.0)
                fk = fk * f
                fkp1 = fkp1 * f
                even_sum = even_sum * f
                drops = drops + clip
            bk = min(bk, _RESCALE_LIMIT)
    return (band[::-1], fk, fkp1, even_sum,
            [drops - mark for mark in marks[::-1]])


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
    return spherical_bessel_ratio(n, 0, x)


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
    mant, e, scalar = _sph_ratio_scaled(n, 0, x, prime=True)
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
    mant, e, scalar = _sph_ratio_scaled(n, p, x)
    return _maybe_scalar(np.ldexp(mant, e), scalar)


def _sph_ratio_scaled(n, p, x, prime=False):
    # j_n(x)/x^p, or j_n'(x) where ``prime`` (p = 0), as mant * 2^e with
    # |mant| <= 1, for the kernel's closed forms to fold into.
    if n < 0:
        raise ValueError(f"order must be non-negative (got n={n})")
    if p < 0 or p > n:
        raise ValueError(f"power must satisfy 0 <= p <= n (got n={n}, p={p})")
    arr, scalar = _as_array(x, "spherical_bessel_ratio")
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
    e = [np.zeros(x.shape, dtype=int) for _ in orders]
    up = x >= max(hi, 1)
    if up.any():
        band = _upward(lo, hi, x[up], j0[up], j1[up], 1)
        for row, k in zip(mant, orders):
            row[up] = band[k - lo]
    down = ~up
    if down.any():
        xs, a, b = x[down], j0[down], j1[down]
        vals, f0, f1, _, drops = _backward(lo, hi, xs, 1)
        use1 = np.abs(b) > np.abs(a)
        y = np.where(use1, b, np.where(xs > 0.0, a, 1.0))
        norm = np.where(use1, f1 * xs, f0)
        for row, row_e, k in zip(mant, e, orders):
            md, ed = np.frexp(vals[k - lo] / norm * y)
            row[down] = md
            row_e[down] = ed - _RESCALE_BITS * drops[k - lo]
    return mant, e, up


def _times_power(mant, e, x, q):
    # (mant, e) times x^q: frexp(x)'s mantissa^c and exponent*c, |c| <= 1000
    # per step, so no factor leaves the double range.
    mx, ex = np.frexp(x)
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
    # (n+a)!/(n-a)! = ratio * 2^e: the running product (n-a+1)...(n+a) with
    # its powers of two moved to e whenever it passes 1e300.  They scale
    # exactly, so ratio * 2^e is the plain product's rounding, unbounded.
    ratio, e = 1.0, 0
    for j in range(n - a + 1, n + a + 1):
        ratio *= j
        if ratio > 1e300:
            ratio, de = math.frexp(ratio)
            e += de
    return ratio, e
