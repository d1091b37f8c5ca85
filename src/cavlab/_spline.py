"""Not-a-knot cubic spline interpolation along the first axis, numpy only.

The spline's first derivatives at the knots solve one tridiagonal system,
shared by every column of the data.  The end conditions are those of
scipy's ``CubicSpline(x, y, axis=0)`` with its default
``bc_type="not-a-knot"``: the third derivative is continuous across the
second and the second-to-last knot; through 3 knots the spline is the
parabola, through 2 the straight line.  Outside [x[0], x[-1]] the end
pieces are extended as polynomials.

The arithmetic is scipy's in the same order: its system rows, LAPACK
gtsv's elimination where gtsv swaps no rows (on every knot grid cavlab
uses), its Hermite coefficients and its power-sum evaluation.  There the
values are scipy's bit for bit, so kernel tables do not move by a last
bit of their right-hand side.  Elsewhere they agree to rounding.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


def _tridiagonal(lower, diag, upper, rhs):
    """Solve the tridiagonal system with diagonals lower[1:], diag and
    upper[:-1] for every column of rhs (shape (n,) + columns), by
    elimination without pivoting: stable here, as every row but the two
    not-a-knot rows is diagonally dominant."""
    n = len(diag)
    diag = list(diag)
    # one column in Python floats; several as rows of an array
    x = rhs.tolist() if rhs.ndim == 1 else np.array(rhs, dtype=float)
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        x[i] -= w * x[i - 1]
    x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] -= upper[i] * x[i + 1]
        x[i] /= diag[i]
    return np.asarray(x)


class CubicSpline:
    """Cubic spline through (x[i], y[i]) with not-a-knot end conditions.

    y may carry trailing axes (one spline per column, all on the knots x).
    Called on an array of shape S the spline returns shape S + y.shape[1:].
    A 1-D spline called on a float returns a float from one bisection and
    a few operations on Python floats, cheap enough for an ODE right-hand
    side.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if x.ndim != 1 or n < 2 or y.shape[:1] != (n,):
            raise ValueError("need x of length >= 2 and y of shape (len(x), ...)")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("x must be strictly increasing")
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        # row i of the system: lower[i] s[i-1] + diag[i] s[i]
        # + upper[i] s[i+1] = rhs[i]
        lower, upper = np.zeros(n), np.zeros(n)
        diag = np.ones(n)
        rhs = np.empty_like(y)
        lower[1:-1], upper[1:-1] = dx[1:], dx[:-1]
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        rhs[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if n == 2:      # the line: both end slopes are the chord's
            rhs[0] = rhs[1] = slope[0]
        elif n == 3:    # the parabola: s0 + s1 = 2 slope0, s1 + s2 = 2 slope1
            upper[0] = lower[2] = 1.0
            rhs[0], rhs[2] = 2.0 * slope[0], 2.0 * slope[1]
        else:           # not-a-knot at both ends
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            diag[0], upper[0] = dx[1], d0
            rhs[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0]
                      + dxr[0] ** 2 * slope[1]) / d0
            diag[-1], lower[-1] = dx[-2], d1
            rhs[-1] = (dxr[-1] ** 2 * slope[-2]
                       + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        s = _tridiagonal(lower.tolist(), diag.tolist(), upper.tolist(), rhs)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dxr
        # the piece on [x[i], x[i+1]] is sum_j c[j, i] (u - x[i])^(3-j)
        c = np.empty((4, n - 1) + y.shape[1:])
        c[0] = t / dxr
        c[1] = (slope - s[:-1]) / dxr - t
        c[2] = s[:-1]
        c[3] = y[:-1]
        self.x, self.c = x, c
        self._knots = x.tolist()
        # the four coefficients of each piece as floats, for scalar calls
        self._pieces = c.T.tolist() if y.ndim == 1 else None

    def __call__(self, u):
        if self._pieces is not None and isinstance(u, float):
            i = min(max(bisect_right(self._knots, u) - 1, 0),
                    len(self._knots) - 2)
            du = u - self._knots[i]
            du2 = du * du
            c0, c1, c2, c3 = self._pieces[i]
            return c3 + c2 * du + c1 * du2 + c0 * (du2 * du)
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self.x, u, side="right") - 1,
                    0, len(self.x) - 2)
        du = (u - self.x[i]).reshape(u.shape + (1,) * (self.c.ndim - 2))
        du2 = du * du
        c = self.c
        out = c[2][i] * du
        out += c[3][i]
        out += c[1][i] * du2
        du2 *= du
        out += c[0][i] * du2
        return out
