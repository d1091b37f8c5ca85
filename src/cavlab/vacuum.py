"""Asymptotic machinery near the cavitation point nu = 0.

Everything here rests on one structural fact: with w = nu**(1/3), every
quantity built from the characteristic speed k(nu) is an analytic function
of w near w = 0.  The module provides

* an exact (rational-arithmetic) derivation of the cube-root series of the
  density and of k itself, which is the oracle behind the frozen constants
  C_FLAT and C_L,
* ``CubeRootSeries``, a small Puiseux-series type in powers of nu**(1/3)
  used to evaluate kernel coefficient functions without cancellation for
  small nu,
* ``TaylorJet``, truncated Taylor arithmetic used to differentiate the
  closed-form coefficient expressions away from the vacuum,
* ``fit_asymptotic_constants``, the public check that the frozen constants
  reproduce the closed-form k(nu) to the stated remainder order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# k(nu) = C_SHARP*nu**(1/3) + C_FLAT*nu + C_L*nu**(5/3) + O(nu**(7/3))
C_SHARP = 3.0 ** (1.0 / 3.0)

# Series order kept by the rational oracle and the float series (powers of
# w = nu**(1/3) up to w**(SERIES_ORDER-1)).
SERIES_ORDER = 24

# Below this nu the cube-root series are used instead of the closed forms;
# the closed forms lose digits to cancellation as nu -> 0 while the series
# truncation error at the switch point is ~1e-20.
NU_SERIES_SWITCH = (0.1) ** 3  # w_switch = 0.1


# ----------------------------------------------------------------------
# Exact rational power-series helpers (coefficient lists, ascending).
# ----------------------------------------------------------------------

def _pmul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if i >= n or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def _psqrt_unit(a, n):
    # sqrt(a) with a[0] == 1, Newton iteration on series
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for i in range(1, n):
        acc = a[i] if i < len(a) else Fraction(0)
        for j in range(1, i):
            acc -= out[j] * out[i - j]
        out[i] = acc / 2
    return out


def rational_chart_series(order: int = SERIES_ORDER):
    """Exact series, in t = (3*nu)**(1/3), of the density and of k.

    Returns (rho_t, k_t): coefficient lists of Fractions, ascending powers
    of t, both odd series.  rho solves  sum_{j>=1} rho**(2j+1)/(2j+1) = nu
    = t**3/3;  k is the speed integral  int_0^rho sqrt(1-2s^2)/(1-s^2) ds
    composed with rho(t).
    """
    n = order
    # nu(rho)*3 = rho^3 * (1 + 3/5 rho^2 + 3/7 rho^4 + ...) =: rho^3 * S(rho^2)
    # Solve rho(t) from rho * S(rho^2)^(1/3) = t by Newton on series.
    # Work with the odd series rho(t) = t*(1 + correction in t^2).
    m = n // 2 + 2  # order in the squared variable
    S = [Fraction(3, 2 * j + 3) for j in range(m)]  # S[0]=1, S[1]=3/5, ...
    # cube root of S via Newton: R^3 = S, R[0]=1
    R = [Fraction(0)] * m
    R[0] = Fraction(1)
    for i in range(1, m):
        # (R^3)[i] = S[i]; isolate 3*R[i]
        acc = S[i]
        R3 = _pmul(_pmul(R, R, i + 1), R, i + 1)
        acc -= R3[i]
        R[i] = acc / 3
    # Now t = rho * R(rho^2); invert for rho = t * U(t^2):
    # t/rho = R(rho^2) with rho^2 = t^2*U^2 -> U * R(t^2 U^2) = 1.
    U = [Fraction(0)] * m
    U[0] = Fraction(1)
    for i in range(1, m):
        # coefficient i of U*R(x*U^2) must vanish (x = t^2)
        U2 = _pmul(U, U, m)
        xU2 = [Fraction(0)] + U2[: m - 1]
        # R(y) = 1 + sum_{j>=1} R[j] y^j with y = xU2
        Rfull = [Fraction(1)] + [Fraction(0)] * (m - 1)
        ypow = [Fraction(1)] + [Fraction(0)] * (m - 1)
        for j in range(1, m):
            ypow = _pmul(ypow, xU2, m)
            for idx in range(m):
                Rfull[idx] += R[j] * ypow[idx]
        prod = _pmul(U, Rfull, m)
        # prod must equal [1,0,0,...]; correct U[i] (prod[i] depends on U[i]
        # linearly with unit coefficient at this order)
        U[i] -= prod[i]
    rho_sq = _pmul(U, U, m)
    # k as a function of rho: integrand sqrt(1-2s^2)/(1-s^2), even in s
    A = [Fraction(0)] * m
    A[0] = Fraction(1)
    A[1] = Fraction(-2)  # 1 - 2 s^2  in the squared variable
    B = [Fraction(1)] * m  # 1/(1-s^2) = sum s^(2j)
    integrand_sq = _pmul(_psqrt_unit(A, m), B, m)
    # k(rho) = sum_j integrand_sq[j] * rho^(2j+1) / (2j+1)
    kq = [integrand_sq[j] / (2 * j + 1) for j in range(m)]
    # compose with rho(t) = t*U(t^2):  rho^(2j+1) = t^(2j+1) U^(2j+1)(t^2)
    # k(t) = t*U(t^2) * sum_j kq[j] * (t^2 U(t^2)^2)^j
    xU2 = _pmul([Fraction(0), Fraction(1)] + [Fraction(0)] * (m - 2), rho_sq, m)
    acc = [Fraction(0)] * m
    ypow = [Fraction(1)] + [Fraction(0)] * (m - 1)
    acc[0] = kq[0]
    for j in range(1, m):
        ypow = _pmul(ypow, xU2, m)
        for idx in range(m):
            acc[idx] += kq[j] * ypow[idx]
    k_even = _pmul(U, acc, m)
    # expand back to odd series in t
    rho_t = [Fraction(0)] * n
    k_t = [Fraction(0)] * n
    for j in range(m):
        if 2 * j + 1 < n:
            rho_t[2 * j + 1] = U[j]
            k_t[2 * j + 1] = k_even[j]
    return rho_t, k_t


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

    def _trim(self) -> "CubeRootSeries":
        n = max(self.hi - self.lead, 0)
        if len(self.c) > n:
            self.c = self.c[:n]
        return self

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
        if np.isscalar(other):
            other = CubeRootSeries(0, [float(other)], hi=10**9)
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

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if np.isscalar(other):
            return self + (-float(other))
        return self + other * (-1.0)

    def __rsub__(self, other):
        return (self * (-1.0)) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return CubeRootSeries(self.lead, self.c * float(other), hi=self.hi)
        lead = self.lead + other.lead
        hi = min(self.hi + other.lead, other.hi + self.lead)
        n = max(hi - lead, 0)
        c = np.convolve(self.c, other.c)[:n]
        return CubeRootSeries(lead, c, hi=hi)

    def __rmul__(self, other):
        return self.__mul__(other)

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

    def _coerce(self, other):
        if isinstance(other, TaylorJet):
            return other
        return TaylorJet.constant(other, self.order)

    def _operands(self, other):
        o = self._coerce(other)
        n = min(self.c.shape[-1], o.c.shape[-1])
        a, b = np.broadcast_arrays(self.c[..., :n], o.c[..., :n])
        return a, b, n

    def __add__(self, other):
        a, b, _ = self._operands(other)
        return TaylorJet(a + b)

    __radd__ = __add__

    def __neg__(self):
        return TaylorJet(-self.c)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

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

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

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

    def sqrt(self) -> "TaylorJet":
        return self.power(0.5)


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
    kp = (1.0 - 2.0 * rj * rj).sqrt() / (rj * rj)
    kc = np.empty(kp.c.shape[:-1] + (order + 2,))
    kc[..., 0] = k0
    kc[..., 1:] = kp.c / np.arange(1, order + 2)
    return TaylorJet(kc), kp, rj


# ----------------------------------------------------------------------
# Frozen constants and their oracle
# ----------------------------------------------------------------------

def _load_frozen():
    from . import _frozen
    return _frozen


def characteristic_series():
    """Float cube-root series (in w = nu**(1/3)) of k and rho near vacuum,
    to SERIES_ORDER terms.

    Coefficients come from the frozen rational oracle output; the t-series
    coefficient a_j maps to a_j * 3**(j/3) in w.
    """
    fr = _load_frozen()
    scale = 3.0 ** (np.arange(SERIES_ORDER) / 3.0)
    kc = np.array([float(Fraction(n, d))
                   for (n, d) in fr.K_SERIES_T[:SERIES_ORDER]])
    rc = np.array([float(Fraction(n, d))
                   for (n, d) in fr.RHO_SERIES_T[:SERIES_ORDER]])
    k = CubeRootSeries(0, kc * scale)._trim()
    rho = CubeRootSeries(0, rc * scale)._trim()
    # drop the zero constant term so lead reflects the w**1 behaviour
    k = CubeRootSeries(1, k.c[1:], hi=k.hi)
    rho = CubeRootSeries(1, rho.c[1:], hi=rho.hi)
    return k, rho


@dataclass
class AsymptoticConstants:
    """Leading coefficients of k(nu) = c_sharp nu^(1/3) + c_flat nu + c_l nu^(5/3) + L."""
    c_sharp: float
    c_flat: float
    c_l: float
    fit_c_sharp: float
    fit_c_flat: float
    fit_c_l: float
    max_rel_residual: float
    envelope_C: float


def _chart_highprec(nu, dps: int = 50):
    """(rho, k, k', k'') at one nu via mpmath; test oracle precision."""
    import mpmath as mp
    nu = mp.mpf(repr(float(nu)))
    rho = mp.cbrt(3 * nu) - mp.mpf(3) / 5 * nu
    for _ in range(60):
        f = mp.atanh(rho) - rho - nu
        fp = rho ** 2 / (1 - rho ** 2)
        step = f / fp
        rho -= step
        if abs(step) < mp.mpf(10) ** (-dps + 5) * rho:
            break
    q2 = 1 - rho ** 2
    k = mp.sqrt(2) * mp.acos(mp.sqrt(2 * q2 - 1)) - mp.acos(mp.sqrt(2 - 1 / q2))
    kp = mp.sqrt(1 - 2 * rho ** 2) / rho ** 2
    kpp = -2 * q2 ** 2 / (rho ** 5 * mp.sqrt(1 - 2 * rho ** 2))
    return rho, k, kp, kpp


def _k_highprec(nu_values, dps: int = 50):
    """High-precision k(nu) via mpmath; test oracle for the asymptotics."""
    import mpmath as mp
    with mp.workdps(dps):
        return np.array([float(_chart_highprec(nu, dps)[1])
                         for nu in nu_values])


def _k_remainder_highprec(nu_values, dps: int = 50):
    """L(nu) = k - c_sharp nu^(1/3) - c_flat nu - c_l nu^(5/3), all in mp.

    The subtraction must happen before rounding: near nu = 1e-8 the
    remainder is ~1e-19 while k itself is ~1e-3.
    """
    import mpmath as mp
    fr = _load_frozen()
    out = []
    with mp.workdps(dps):
        c_sharp = mp.cbrt(3)
        c_flat = mp.mpf(Fraction(fr.C_FLAT).numerator) / Fraction(
            fr.C_FLAT).denominator
        num, den = fr.K_SERIES_T[5]
        c_l = mp.mpf(num) / den * mp.cbrt(3) ** 5
        for nu in nu_values:
            nu_m = mp.mpf(repr(float(nu)))
            k = _chart_highprec(nu_m, dps)[1]
            L = k - c_sharp * mp.cbrt(nu_m) - c_flat * nu_m \
                - c_l * mp.cbrt(nu_m) ** 5
            out.append(float(L))
    return np.array(out)


def fit_asymptotic_constants() -> AsymptoticConstants:
    """Frozen series constants cross-checked by a least-squares fit.

    Fits k(nu) against {nu^(1/3), nu, nu^(5/3)} on 40 log-spaced nu in
    [1e-8, 1e-4], from high-precision closed-form samples, and verifies
    the residual stays inside a C*nu^(7/3) envelope.  A violated envelope
    means a wrong frozen constant and raises.
    """
    fr = _load_frozen()
    nus = np.geomspace(1e-8, 1e-4, 40)
    kv = _k_highprec(nus)
    basis = np.stack([nus ** (1 / 3), nus, nus ** (5 / 3)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, kv, rcond=None)
    resid = kv - basis @ coef
    # envelope test against the frozen constants, not the fitted ones
    L = _k_remainder_highprec(nus)
    envelope_C = float(np.max(np.abs(L) / nus ** (7 / 3)))
    # the next series term bounds the envelope constant; allow a safe factor
    c7 = abs(fr.C_SERIES_NEXT)
    if envelope_C > 10.0 * c7 + 1e-6:
        raise ArithmeticError(
            f"remainder envelope violated: C={envelope_C:.3e} vs "
            f"next-order coefficient {c7:.3e}")
    return AsymptoticConstants(
        c_sharp=C_SHARP, c_flat=fr.C_FLAT, c_l=fr.C_L,
        fit_c_sharp=float(coef[0]), fit_c_flat=float(coef[1]),
        fit_c_l=float(coef[2]),
        max_rel_residual=float(np.max(np.abs(resid / kv))),
        envelope_C=envelope_C)


def regenerate_frozen(path: str) -> None:
    """Re-derive the rational series and rewrite the frozen constants file."""
    rho_t, k_t = rational_chart_series(SERIES_ORDER)
    assert k_t[1] == 1, "leading k coefficient must be exactly 1"
    c_flat = 3 * k_t[3]
    c_l = float(k_t[5]) * 3.0 ** (5.0 / 3.0)
    c_next = float(k_t[7]) * 3.0 ** (7.0 / 3.0)
    lines = [
        '"""Frozen near-vacuum series constants (generated; do not edit).',
        "",
        "Derived by cavlab.vacuum.regenerate_frozen from exact rational",
        "series inversion of the renormalized density followed by",
        "term-by-term integration of the characteristic-speed derivative.",
        '"""',
        "",
        f"C_FLAT = {float(c_flat)!r}  # exactly {c_flat}",
        f"C_L = {c_l!r}  # exactly {k_t[5]} * 3**(5/3)",
        f"C_SERIES_NEXT = {c_next!r}  # nu**(7/3) coefficient, exactly {k_t[7]} * 3**(7/3)",
        "",
        "# k(t) = sum_j a_j t**j with t = (3 nu)**(1/3); (numerator, denominator)",
        "K_SERIES_T = [",
    ]
    for a in k_t:
        lines.append(f"    ({a.numerator}, {a.denominator}),")
    lines.append("]")
    lines.append("")
    lines.append("# rho(t) likewise")
    lines.append("RHO_SERIES_T = [")
    for a in rho_t:
        lines.append(f"    ({a.numerator}, {a.denominator}),")
    lines.append("]")
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
