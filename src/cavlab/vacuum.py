"""Asymptotic machinery near the cavitation point nu = 0.

Everything here rests on one structural fact: with w = nu**(1/3), every
quantity built from the characteristic speed k(nu) is an analytic function
of w near w = 0.  The module provides

* ``characteristic_series``, the cube-root series of the density and of k
  itself, from the exact rational coefficients frozen in ``_frozen``
  together with the constants C_FLAT and C_L,
* ``CubeRootSeries``, a small Puiseux-series type in powers of nu**(1/3)
  used to evaluate kernel coefficient functions without cancellation for
  small nu,
* ``TaylorJet``, truncated Taylor arithmetic used to differentiate the
  closed-form coefficient expressions away from the vacuum.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _frozen

# k(nu) = C_SHARP*nu**(1/3) + C_FLAT*nu + C_L*nu**(5/3) + O(nu**(7/3))
C_SHARP = 3.0 ** (1.0 / 3.0)

# Series order of the frozen rational coefficients and of the float series
# (powers of w = nu**(1/3) up to w**(SERIES_ORDER-1)).
SERIES_ORDER = 24

# Below this nu the cube-root series are used instead of the closed forms;
# the closed forms lose digits to cancellation as nu -> 0 while the series
# truncation error at the switch point is ~1e-20.
NU_SERIES_SWITCH = (0.1) ** 3  # w_switch = 0.1


# ----------------------------------------------------------------------
# Float Puiseux series in w = nu**(1/3)
# ----------------------------------------------------------------------

class CubeRootSeries:
    """Finite sum  sum_j c[j] * nu**((lead+j)/3)  with truncation tracking.

    ``lead`` is the power of w = nu**(1/3) of the first coefficient and
    ``hi`` the first power of w NOT represented; arithmetic propagates the
    weakest truncation bound.
    """

    __slots__ = ("lead", "c", "hi")

    def __init__(self, lead: int, c, hi: int | None = None):
        c = np.asarray(c, dtype=float)
        self.lead = int(lead)
        self.c = c
        self.hi = int(hi) if hi is not None else self.lead + len(c)

    def compact(self) -> "CubeRootSeries":
        """Drop leading coefficients that are pure cancellation noise, at
        most 1e-12 of the largest."""
        if not len(self.c):
            return self
        scale = np.max(np.abs(self.c))
        nz = np.nonzero(np.abs(self.c) > 1e-12 * scale)[0]
        if not len(nz) or nz[0] == 0:
            return self
        j = int(nz[0])
        return CubeRootSeries(self.lead + j, self.c[j:].copy(), hi=self.hi)

    def __add__(self, other):
        lead = min(self.lead, other.lead)
        hi = min(self.hi, other.hi)
        n = hi - lead
        c = np.zeros(max(n, 0))
        sa = self.lead - lead
        sb = other.lead - lead
        for src, s in ((self.c, sa), (other.c, sb)):
            m = min(len(src), n - s)
            if m > 0:
                c[s:s + m] += src[:m]
        return CubeRootSeries(lead, c, hi=hi)

    def __mul__(self, other):
        if np.isscalar(other):
            return CubeRootSeries(self.lead, self.c * float(other), hi=self.hi)
        lead = self.lead + other.lead
        hi = min(self.hi + other.lead, other.hi + self.lead)
        n = max(hi - lead, 0)
        c = np.convolve(self.c, other.c)[:n]
        return CubeRootSeries(lead, c, hi=hi)

    __rmul__ = __mul__

    def power(self, a: float) -> "CubeRootSeries":
        """self**a; the leading coefficient must be positive."""
        c0 = self.c[0]
        if c0 <= 0:
            raise ValueError("power() needs a positive leading coefficient")
        lead_out = self.lead * a
        if abs(lead_out - round(lead_out)) > 1e-12:
            raise ValueError("power() would leave the cube-root lattice")
        # (c0 u)**a with u[0] = 1: TaylorJet.power's recurrence on u,
        # zero-padded to the truncation order
        n = self.hi - self.lead
        u = np.zeros(n)
        m = min(len(self.c), n)
        u[:m] = self.c[:m] / c0
        out = TaylorJet(u).power(a).c
        return CubeRootSeries(int(round(lead_out)), (c0 ** a) * out,
                              hi=int(round(lead_out)) + n)

    def dnu(self) -> "CubeRootSeries":
        """d/dnu; each term nu**(p/3) maps to (p/3) nu**(p/3-1)."""
        p = (self.lead + np.arange(len(self.c))) / 3.0
        return CubeRootSeries(self.lead - 3, self.c * p, hi=self.hi - 3)

    def integrate0(self) -> "CubeRootSeries":
        """int_0^nu of the series; nu^(-1) terms must carry zero weight."""
        p = (self.lead + np.arange(len(self.c))) / 3.0 + 1.0
        logterm = np.abs(p) < 1e-12
        if np.any(logterm):
            scale = np.max(np.abs(self.c)) if len(self.c) else 0.0
            if np.any(np.abs(self.c[logterm]) > 1e-9 * scale):
                raise ValueError("logarithmic term in integrate0")
        c = np.where(logterm, 0.0, self.c / np.where(logterm, 1.0, p))
        return CubeRootSeries(self.lead + 3, c, hi=self.hi + 3)

    def __call__(self, nu):
        nu = np.asarray(nu, dtype=float)
        w = np.cbrt(nu)
        acc = np.zeros_like(w)
        for cj in self.c[::-1]:
            acc = acc * w + cj
        if self.lead:
            acc = acc * w ** float(self.lead)
        return acc if acc.shape else float(acc)


# ----------------------------------------------------------------------
# Truncated Taylor jets (value + derivatives/j! at a point)
# ----------------------------------------------------------------------

class TaylorJet:
    """Taylor coefficients f(nu0+h) = sum c[..., j] h**j, truncated.

    The coefficients sit on the last axis of ``c``; any leading axes index
    independent base points, so one jet carries a whole array of nodes and
    every operation acts on all of them at once, looping only over the
    jet order.  A 1-D ``c`` is a single base point.  Operands of
    different order are truncated to the shorter one; plain numbers and
    arrays (one value per base point) act as constant jets.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    @classmethod
    def constant(cls, value, order: int) -> "TaylorJet":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (order + 1,))
        c[..., 0] = value
        return cls(c)

    @property
    def order(self) -> int:
        return self.c.shape[-1] - 1

    def derivative(self, j: int = 1):
        """j-th derivative value at the base point(s)."""
        from math import factorial
        return self.c[..., j] * factorial(j)

    def dnu(self) -> "TaylorJet":
        """Jet of the derivative (loses one order)."""
        return TaylorJet(self.c[..., 1:] * np.arange(1, self.c.shape[-1]))

    def integral(self, value) -> "TaylorJet":
        """Jet of the antiderivative that takes ``value`` at the base
        point(s) (gains one order)."""
        c = np.empty(self.c.shape[:-1] + (self.c.shape[-1] + 1,))
        c[..., 0] = value
        c[..., 1:] = self.c / np.arange(1, self.c.shape[-1] + 1)
        return TaylorJet(c)

    def _operands(self, other):
        o = (other if isinstance(other, TaylorJet)
             else TaylorJet.constant(other, self.order))
        n = min(self.c.shape[-1], o.c.shape[-1])
        a, b = np.broadcast_arrays(self.c[..., :n], o.c[..., :n])
        return a, b, n

    def __add__(self, other):
        a, b, _ = self._operands(other)
        return TaylorJet(a + b)

    __radd__ = __add__

    def __rsub__(self, other):
        return TaylorJet(-self.c) + other

    def __mul__(self, other):
        a, b, n = self._operands(other)
        out = np.empty(a.shape)
        for k in range(n):
            acc = a[..., 0] * b[..., k]
            for j in range(1, k + 1):
                acc = acc + a[..., j] * b[..., k - j]
            out[..., k] = acc
        return TaylorJet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, n = self._operands(other)
        out = np.empty(a.shape)
        for k in range(n):
            acc = a[..., k]
            for j in range(1, k + 1):
                acc = acc - b[..., j] * out[..., k - j]
            out[..., k] = acc / b[..., 0]
        return TaylorJet(out)

    def power(self, a: float) -> "TaylorJet":
        f = self.c
        n = f.shape[-1]
        if np.any(f[..., 0] <= 0):
            raise ValueError("power() needs a positive jet value")
        out = np.empty(f.shape)
        out[..., 0] = f[..., 0] ** a
        for k in range(1, n):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + (a * j - (k - j)) * f[..., j] * out[..., k - j]
            out[..., k] = acc / (k * f[..., 0])
        return TaylorJet(out)


def density_jet(rho0, order: int) -> TaylorJet:
    """Jet of nu -> rho(nu) at the point(s) with density rho0.

    Built from the inverse-function ODE d(rho)/d(nu) = (1-rho^2)/rho^2;
    an array rho0 gives one jet per entry (leading axes of ``c``).
    """
    rho0 = np.asarray(rho0, dtype=float)
    c = np.zeros(rho0.shape + (order + 1,))
    c[..., 0] = rho0
    for m in range(order):
        jet = TaylorJet(c[..., : m + 1])
        d = (1.0 - jet * jet) / (jet * jet)
        c[..., m + 1] = d.c[..., m] / (m + 1)
    return TaylorJet(c)


def speed_coefficient_jets(rho0, k0, order: int):
    """Jets of k and k' at the point(s) with density rho0 and speed k0.

    k'(nu) = sqrt(1-2 rho^2)/rho^2 with rho the density jet; k integrates
    it.  Arrays rho0, k0 of one shape give jets over that shape.
    """
    rj = density_jet(rho0, order)
    kp = (1.0 - 2.0 * rj * rj).power(0.5) / (rj * rj)
    kc = np.empty(kp.c.shape[:-1] + (order + 2,))
    kc[..., 0] = k0
    kc[..., 1:] = kp.c / np.arange(1, order + 2)
    return TaylorJet(kc), kp


# ----------------------------------------------------------------------
# Frozen constants
# ----------------------------------------------------------------------

def characteristic_series():
    """Float cube-root series (in w = nu**(1/3)) of k and rho near vacuum,
    to SERIES_ORDER terms.

    Coefficients come from the frozen rational series; the t-series
    coefficient a_j maps to a_j * 3**(j/3) in w.
    """
    scale = 3.0 ** (np.arange(SERIES_ORDER) / 3.0)

    def series(coeffs_t):
        c = np.array([float(Fraction(n, d))
                      for (n, d) in coeffs_t[:SERIES_ORDER]]) * scale
        # drop the zero constant term so lead reflects the w**1 behaviour
        return CubeRootSeries(1, c[1:], hi=SERIES_ORDER)
    return series(_frozen.K_SERIES_T), series(_frozen.RHO_SERIES_T)
