"""Fourier-side basis functions for the light-cone profile distributions.

The physical-space profiles are G_lam(nu, s) = [k(nu)^2 - s^2]_+^lam for
lam in {-3,...,2} (negative orders defined distributionally).  After the
rescaling f_lam = k^(-2 lam) G_lam(nu, k*.) their transforms are nu-free:

    fhat_0  = 2 sin(x)/x                fhat_{-1} = cos(x)
    fhat_1  = 4 (sin x/x - cos x)/x^2   fhat_{-2} = (x sin x + cos x)/2
    fhat_2  = 16 (3 sin x/x^2 - 3 cos x/x - sin x)/x^3
    fhat_{-3} = (3 cos x + 3 x sin x - x^2 cos x)/8

and the transform of G_n(nu, .) at xi is k^(1+2n) fhat_n(xi k).  The
trig forms cancel catastrophically near x = 0 for the nonnegative orders,
so evaluation switches to exact-rational Taylor series below |x| = 1/2,
and below |x| = 2 for orders 1 and 2, whose closed forms lose digits
further out (_SERIES_CUT).  First and second derivatives are hand-differentiated
closed forms (never finite differences), with the same series switch.

Every fhat is even in x, so fhat and fhat'' are series in x^2 and fhat'
is x times one.  Only those nonzero coefficients are stored, and a
series is evaluated by Horner's rule in x^2: one multiply and one add
per term on the point array, with one temporary of the size of x.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

ORDERS = (-3, -2, -1, 0, 1, 2)

# |x| below which each order is summed as its series.  The closed forms
# of orders 1 and 2 cancel far above 1/2: against 50-digit values, fhat_2''
# is off by 8e-11 of its size at 1/2, 1.5e-13 at 1.5 and 9e-15 at 2,
# fhat_2' by 5e-12 at 1/2, while the series stay within 6e-16 up to 2
_SERIES_CUT = {-3: 0.5, -2: 0.5, -1: 0.5, 0: 0.5, 1: 2.0, 2: 2.0}
# each series keeps its 18 nonzero coefficients, of (x^2)^0..(x^2)^17:
# powers x^0..x^34 (fhat, fhat'') or x^1..x^35 (fhat'); truncation
# < 1e-20 at every cut
_SERIES_TERMS = 18


def _trig_series(terms: int):
    """Exact Taylor coefficients in x^2 of all six fhat and derivatives.

    Returns {lam: (c0, c1, c2)}, lists of Fractions: fhat = sum c0[i]
    x^(2i), fhat' = x sum c1[i] x^(2i) and fhat'' = sum c2[i] x^(2i).
    """
    n = 2 * terms + 8
    sin = [Fraction(0)] * n
    cos = [Fraction(0)] * n
    fact = Fraction(1)
    for j in range(n):
        if j:
            fact *= j
        if j % 2:
            sin[j] = Fraction((-1) ** (j // 2), 1) / fact
        else:
            cos[j] = Fraction((-1) ** (j // 2), 1) / fact

    def shift_div(poly, p):
        # poly / x^p, requiring the low-order coefficients to vanish
        assert all(c == 0 for c in poly[:p])
        return poly[p:]

    def lin(*pairs):
        out = [Fraction(0)] * n
        for coef, poly, xpow in pairs:
            for j, c in enumerate(poly):
                if j + xpow < n:
                    out[j + xpow] += coef * c
        return out

    f = {}
    f[0] = shift_div(lin((2, sin, 0)), 1)
    f[1] = shift_div(lin((4, sin, 0), (-4, cos, 1)), 3)
    f[2] = shift_div(lin((48, sin, 0), (-48, cos, 1), (-16, sin, 2)), 5)
    f[-1] = lin((1, cos, 0))
    f[-2] = lin((Fraction(1, 2), sin, 1), (Fraction(1, 2), cos, 0))
    f[-3] = lin((Fraction(3, 8), cos, 0), (Fraction(3, 8), sin, 1),
                (Fraction(-1, 8), cos, 2))

    table = {}
    for lam, poly in f.items():
        # an even series: every odd power vanishes
        assert all(c == 0 for c in poly[1::2])
        table[lam] = ([poly[2 * i] for i in range(terms)],
                      [poly[2 * i + 2] * (2 * i + 2) for i in range(terms)],
                      [poly[2 * i + 2] * (2 * i + 1) * (2 * i + 2)
                       for i in range(terms)])
    return table


_SERIES = {lam: tuple(np.array([float(c) for c in cs]) for cs in exact)
           for lam, exact in _trig_series(_SERIES_TERMS).items()}


def _series(coeffs, x, odd: bool):
    """sum_i coeffs[i] x^(2i), times x if odd, on a 1-D array x, by
    Horner's rule in x^2 (highest coefficient first)."""
    x2 = x * x
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x2
        out += c
    if odd:
        out *= x
    return out


def _eval_switch(xi, cut, closed, series_coeffs, odd=False):
    xi = np.asarray(xi, dtype=float)
    small = np.abs(xi) < cut
    n_small = np.count_nonzero(small)
    out = np.empty_like(xi)
    if n_small < small.size:
        big = ~small
        out[big] = closed(xi[big])
    if n_small:
        out[small] = _series(series_coeffs, xi[small], odd)
    return out if out.shape else float(out)


# closed trig forms of fhat and its first two derivatives, by order
_CLOSED = {
    0: lambda x: 2.0 * np.sin(x) / x,
    1: lambda x: 4.0 * (np.sin(x) / x - np.cos(x)) / x ** 2,
    2: lambda x: 16.0 * (3.0 * np.sin(x) / x ** 2 - 3.0 * np.cos(x) / x
                         - np.sin(x)) / x ** 3,
    -1: np.cos,
    -2: lambda x: 0.5 * (x * np.sin(x) + np.cos(x)),
    -3: lambda x: 0.125 * (3.0 * np.cos(x) + 3.0 * x * np.sin(x)
                           - x * x * np.cos(x)),
}
_CLOSED_D1 = {
    0: lambda x: 2.0 * (x * np.cos(x) - np.sin(x)) / x ** 2,
    1: lambda x: 4.0 * (x * x * np.sin(x) + 3.0 * x * np.cos(x)
                        - 3.0 * np.sin(x)) / x ** 4,
    2: lambda x: 16.0 * (6.0 * x * x * np.sin(x) - x ** 3 * np.cos(x)
                         + 15.0 * x * np.cos(x)
                         - 15.0 * np.sin(x)) / x ** 6,
    -1: lambda x: -np.sin(x),
    -2: lambda x: 0.5 * x * np.cos(x),
    -3: lambda x: 0.125 * (x * np.cos(x) + x * x * np.sin(x)),
}
_CLOSED_D2 = {
    0: lambda x: 2.0 * (-x * x * np.sin(x) - 2.0 * x * np.cos(x)
                        + 2.0 * np.sin(x)) / x ** 3,
    1: lambda x: 4.0 * (x ** 3 * np.cos(x) - 5.0 * x * x * np.sin(x)
                        - 12.0 * x * np.cos(x)
                        + 12.0 * np.sin(x)) / x ** 5,
    2: lambda x: 16.0 * (x ** 4 * np.sin(x) + 9.0 * x ** 3 * np.cos(x)
                         - 39.0 * x * x * np.sin(x)
                         - 90.0 * x * np.cos(x)
                         + 90.0 * np.sin(x)) / x ** 7,
    -1: lambda x: -np.cos(x),
    -2: lambda x: 0.5 * (np.cos(x) - x * np.sin(x)),
    -3: lambda x: 0.125 * (np.cos(x) + x * np.sin(x)
                           + x * x * np.cos(x)),
}


def _check_order(lam: int) -> None:
    if lam not in ORDERS:
        raise ValueError(f"order {lam} not in {ORDERS}")


def fhat(lam: int, xi):
    """Transform of the rescaled cone profile of order lam at xi."""
    _check_order(lam)
    return _eval_switch(xi, _SERIES_CUT[lam], _CLOSED[lam], _SERIES[lam][0])


def fhat_d1(lam: int, xi):
    """d/dxi of fhat, closed trig forms."""
    _check_order(lam)
    return _eval_switch(xi, _SERIES_CUT[lam], _CLOSED_D1[lam],
                        _SERIES[lam][1], odd=True)


def fhat_d2(lam: int, xi):
    """d2/dxi2 of fhat, closed trig forms."""
    _check_order(lam)
    return _eval_switch(xi, _SERIES_CUT[lam], _CLOSED_D2[lam],
                        _SERIES[lam][2])


def check_recurrences() -> dict:
    """Max absolute defect of every Fourier-side recurrence relation, on
    300 log-spaced xi in [1e-3, 1] and 700 evenly spaced in [1, 60].

    Covers the derivative ladder between neighbouring orders, the
    harmonic relation at order -1, and the second-derivative identities
    of the cone profiles (as relations between the fhat at z = xi k):

        -z^2 fhat_1 = -2 fhat_0 + 4 fhat_{-1}
        -z^2 fhat_0 =  2 fhat_{-1} - 4 fhat_{-2}
        -z^2 fhat_{-1} = -6 fhat_{-2} + 8 fhat_{-3}

    Returns {"relations": {name: defect}, "max_defect": float,
    "pass": bool, "tolerance": float}.
    """
    xi = np.concatenate([np.geomspace(1e-3, 1.0, 300),
                         np.linspace(1.0, 60.0, 700)])
    f = {lam: fhat(lam, xi) for lam in ORDERS}
    d1 = {lam: fhat_d1(lam, xi) for lam in ORDERS}
    d2 = {lam: fhat_d2(lam, xi) for lam in ORDERS}

    rel = {}

    def put(name, defect):
        rel[name] = float(np.max(np.abs(defect)))

    # second-derivative ladder fhat_l'' + fhat_l = fhat_{l+1}
    for lam in (-3, -2, -1, 0, 1):
        target = 0.0 if lam == -1 else f[lam + 1]
        put(f"dd_ladder[{lam}]", d2[lam] + f[lam] - target)
    # fhat_{l+1} = -(2(l+1)/xi) fhat_l'  for l = 0, 1
    put("step_up[0]", f[1] + (2.0 / xi) * d1[0])
    put("step_up[1]", f[2] + (4.0 / xi) * d1[1])
    # first-derivative relations
    put("d1[1]", d1[1] + (3.0 / xi) * f[1] - (2.0 / xi) * f[0])
    put("d1[2]", d1[2] + (5.0 / xi) * f[2] - (4.0 / xi) * f[1])
    put("d1[0]", d1[0] + (1.0 / xi) * f[0] - (2.0 / xi) * f[-1])
    put("d1[-1]", d1[-1] + (xi / 2.0) * f[0])
    put("d1[-1]_ladder", d1[-1] - (1.0 / xi) * f[-1] + (2.0 / xi) * f[-2])
    put("d1[-2]", d1[-2] - (3.0 / xi) * f[-2] + (4.0 / xi) * f[-3])
    # cone-profile second derivatives, with z = xi k on the same grid
    z2 = xi * xi
    put("ss_G1", -z2 * f[1] + 2.0 * f[0] - 4.0 * f[-1])
    put("ss_G0", -z2 * f[0] - 2.0 * f[-1] + 4.0 * f[-2])
    put("ss_Gm1", -z2 * f[-1] + 6.0 * f[-2] - 8.0 * f[-3])

    tol = 1e-10
    worst = max(rel.values())
    return {"relations": rel, "max_defect": worst, "tolerance": tol,
            "pass": bool(worst < tol),
            "failed": sorted(name for name, v in rel.items() if v >= tol)}
