"""Gas-dynamic coordinate charts for the adiabatic exponent gamma = 3.

All closures are algebraic for this exponent:

    rho(q)   = sqrt(1 - q^2)                (Bernoulli)
    c(rho)   = rho,  M = q/rho              (sonic speed, Mach number)
    nu(rho)  = atanh(rho) - rho             (renormalized density)
    sigma(rho) = 2 rho - atanh(rho)         (solver potential, sigma' = 1 - c^2/q^2)
    k(q)     = sqrt(2) acos(sqrt(2q^2-1)) - acos(sqrt(2-1/q^2))
    k'(q)    = -(1/q) sqrt((2q^2-1)/(1-q^2))

The critical (sonic) speed is q_cr = 1/sqrt(2) and cavitation sits at
q_cav = 1.  In the renormalized density the characteristic speed satisfies
k'(nu)^2 = (M^2-1)/rho^2 = (1-2 rho^2)/rho^4 with k(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vacuum import NU_SERIES_SWITCH, characteristic_series


class ChartDomainError(ValueError):
    """Argument outside the valid gamma = 3 chart range."""


Q_CR = math.sqrt(0.5)
Q_CAV = 1.0
RHO_CR = math.sqrt(0.5)
NU_CR = math.atanh(RHO_CR) - RHO_CR
SIGMA_CR = 2.0 * RHO_CR - math.atanh(RHO_CR)
K_AT_QCR = (math.sqrt(2.0) - 1.0) * math.pi / 2.0


_K_SERIES, _RHO_SERIES = characteristic_series()


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ChartDomainError(msg)


def rho_of_q(q):
    """Bernoulli density sqrt(1 - q^2) on 0 <= q <= 1."""
    q = np.asarray(q, dtype=float)
    _check(bool(np.all((q >= 0.0) & (q <= 1.0))), f"speed outside [0,1]: {q}")
    out = np.sqrt(1.0 - q * q)
    return out if out.shape else float(out)


def q_of_rho(rho):
    """Inverse Bernoulli speed sqrt(1 - rho^2) on 0 <= rho <= 1."""
    rho = np.asarray(rho, dtype=float)
    _check(bool(np.all((rho >= 0.0) & (rho <= 1.0))), "density outside [0,1]")
    out = np.sqrt(1.0 - rho * rho)
    return out if out.shape else float(out)


def mach(rho, q=None):
    """Mach number q/rho; +inf at the vacuum rho = 0."""
    rho = np.asarray(rho, dtype=float)
    if q is None:
        q = np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore"):
        out = np.where(rho > 0.0, np.asarray(q) / np.where(rho > 0, rho, 1.0),
                       np.inf)
    return out if out.shape else float(out)


def nu_of_rho(rho):
    """Renormalized density atanh(rho) - rho, series-evaluated for small rho.

    The direct difference loses all digits as rho -> 0 (it is O(rho^3));
    below rho = 0.05 the Taylor series rho^3/3 + rho^5/5 + ... is exact to
    machine precision.
    """
    rho = np.asarray(rho, dtype=float)
    _check(bool(np.all((rho >= 0.0) & (rho < 1.0))), "density outside [0,1)")
    small = rho < 0.05
    out = np.empty_like(rho)
    r = rho[~small]
    out[~small] = np.arctanh(r) - r
    r = rho[small]
    r2 = r * r
    acc = np.zeros_like(r)
    for j in range(12, 0, -1):  # rho^27 term ~ 1e-36 at the branch point
        acc = r2 * (1.0 / (2 * j + 3) + acc)
    out[small] = r2 * r * (1.0 / 3.0 + acc)
    return out if out.shape else float(out)


def _rho_of_nu_newton(nu, seed):
    rho = np.clip(seed, 1e-300, RHO_CR)
    for _ in range(6):
        f = nu_of_rho(rho) - nu
        fp = rho * rho / (1.0 - rho * rho)
        step = np.where(fp > 0, f / np.where(fp > 0, fp, 1.0), 0.0)
        rho = np.clip(rho - step, 0.0, RHO_CR)
    return rho


def rho_of_nu(nu):
    """Invert nu(rho) on [0, nu_cr]; Newton off a cube-root series seed."""
    nu = np.asarray(nu, dtype=float)
    _check(bool(np.all((nu >= 0.0) & (nu <= NU_CR * (1 + 1e-12)))),
           "renormalized density outside [0, nu_cr]")
    out = np.asarray(_RHO_SERIES(nu), dtype=float)
    big = nu > NU_SERIES_SWITCH
    if np.any(big):
        out = np.where(big, _rho_of_nu_newton(nu, np.where(big, out, 0.5)), out)
    out = np.clip(out, 0.0, RHO_CR)
    return out if out.shape else float(out)


def sigma_of_rho(rho):
    """Solver potential 2 rho - atanh(rho); increasing on [0, rho_cr)."""
    rho = np.asarray(rho, dtype=float)
    _check(bool(np.all((rho >= 0.0) & (rho < 1.0))), "density outside [0,1)")
    out = 2.0 * rho - np.arctanh(rho)
    return out if out.shape else float(out)


def rho_of_sigma(sigma):
    """Invert sigma(rho) on [0, sigma(rho_cr)); guarded Newton.

    sigma'(rho) = (1-2rho^2)/(1-rho^2) degenerates at rho_cr, so Newton
    iterates are clamped and finished with bisection when the derivative
    underflows.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check(bool(np.all((sigma >= 0.0) & (sigma <= SIGMA_CR))),
           "sigma outside [0, sigma_cr]")
    rho = np.clip(np.asarray(sigma, dtype=float).copy(), 0.0, RHO_CR - 1e-9)
    for _ in range(60):
        f = (2.0 * rho - np.arctanh(rho)) - sigma
        fp = (1.0 - 2.0 * rho * rho) / (1.0 - rho * rho)
        step = f / np.maximum(fp, 1e-14)
        rho = np.clip(rho - step, 0.0, RHO_CR)
        if np.all(np.abs(step) < 1e-15 + 1e-15 * rho):
            break
    return rho if rho.shape else float(rho)


def k_of_q(q):
    """Characteristic speed, decreasing from k(q_cr)=(sqrt2-1)pi/2 to k(1)=0."""
    q = np.asarray(q, dtype=float)
    _check(bool(np.all((q >= Q_CR * (1 - 1e-12)) & (q <= 1.0 + 1e-15))),
           f"speed outside [q_cr, q_cav]: {q}")
    q2 = np.clip(q * q, 0.5, 1.0)
    a = np.sqrt(np.clip(2.0 * q2 - 1.0, 0.0, 1.0))
    b = np.sqrt(np.clip(2.0 - 1.0 / q2, 0.0, 1.0))
    out = math.sqrt(2.0) * np.arccos(a) - np.arccos(b)
    return out if out.shape else float(out)


def kprime_of_q(q):
    """dk/dq = -(1/q) sqrt((2q^2-1)/(1-q^2)); -0.0 at q_cr, -inf at q_cav."""
    q = np.asarray(q, dtype=float)
    _check(bool(np.all((q >= Q_CR * (1 - 1e-12)) & (q <= 1.0))),
           "speed outside [q_cr, q_cav]")
    num = np.clip(2.0 * q * q - 1.0, 0.0, None)
    den = 1.0 - q * q
    with np.errstate(divide="ignore"):
        out = -np.sqrt(num / np.where(den > 0, den, np.inf)) / q
        out = np.where(den <= 0.0, np.where(num > 0, -np.inf, -0.0), out)
    return out if out.shape else float(out)


def q_of_k(k):
    """Invert k(q) on [q_cr, q_cav]; endpoints resolved exactly."""
    # imported here so that modules using the chart do not load
    # scipy.optimize
    from scipy.optimize import brentq
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    _check(bool(np.all((karr >= -1e-14) & (karr <= K_AT_QCR * (1 + 1e-12)))),
           "characteristic value outside [0, k(q_cr)]")
    out = np.empty_like(karr)
    for i, kv in enumerate(karr):
        if kv <= 1e-15:
            out[i] = Q_CAV
        elif kv >= K_AT_QCR * (1 - 1e-15):
            out[i] = Q_CR
        else:
            out[i] = brentq(lambda q: k_of_q(q) - kv, Q_CR, Q_CAV,
                            xtol=1e-15, rtol=8.9e-16)
    return out if np.asarray(k).shape else float(out[0])


def k_of_nu(nu):
    """k from the cube-root series up to NU_SERIES_SWITCH, where the
    closed-form composition k(q(rho(nu))) loses digits (5e-9 relative at
    nu = 1e-12), and from that composition above it."""
    nu = np.asarray(nu, dtype=float)
    rho = np.asarray(rho_of_nu(nu))
    out = np.asarray(_K_SERIES(nu), dtype=float)
    big = nu > NU_SERIES_SWITCH
    if np.any(big):
        out = np.where(big, k_of_q(np.sqrt(1.0 - rho * rho)), out)
    return out if out.shape else float(out)


def kprime_of_nu(nu):
    """dk/dnu = sqrt(1-2rho^2)/rho^2 > 0 on (0, nu_cr)."""
    nu = np.asarray(nu, dtype=float)
    _check(bool(np.all(nu > 0.0)), "kprime_of_nu needs nu > 0")
    rho = np.asarray(rho_of_nu(nu))
    out = np.sqrt(np.clip(1.0 - 2.0 * rho * rho, 0.0, None)) / rho ** 2
    return out if out.shape else float(out)


def kdoubleprime_of_nu(nu):
    """d2k/dnu2 = -2 (1-rho^2)^2 / (rho^5 sqrt(1-2 rho^2)) < 0."""
    nu = np.asarray(nu, dtype=float)
    _check(bool(np.all(nu > 0.0)), "kdoubleprime_of_nu needs nu > 0")
    rho = np.asarray(rho_of_nu(nu))
    q2 = 1.0 - rho * rho
    with np.errstate(divide="ignore"):
        out = -2.0 * q2 * q2 / (rho ** 5 * np.sqrt(np.clip(1.0 - 2 * rho * rho,
                                                           1e-300, None)))
    return out if out.shape else float(out)


# ----------------------------------------------------------------------
# States
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StatePolar:
    """Flow state in (density, angle) coordinates."""
    rho: float
    theta: float

    @property
    def q(self) -> float:
        return q_of_rho(self.rho)

    @property
    def nu(self) -> float:
        return nu_of_rho(self.rho)

    @property
    def sigma(self) -> float:
        return sigma_of_rho(self.rho)

    @property
    def M(self) -> float:
        return mach(self.rho, self.q)

    @property
    def W_minus(self) -> float:
        return self.theta - k_of_q(self.q)

    @property
    def W_plus(self) -> float:
        return self.theta + k_of_q(self.q)

    @classmethod
    def from_speed(cls, q: float, theta: float) -> "StatePolar":
        return cls(rho=rho_of_q(q), theta=theta)


@dataclass(frozen=True)
class ConservedState:
    """Conservative variables Z = (rho*u, v)."""
    Z1: float
    Z2: float


def riemann_invariants(state: StatePolar):
    """(W_minus, W_plus) = theta -/+ k(q) for supersonic states."""
    k = k_of_q(state.q)
    return state.theta - k, state.theta + k


def state_from_invariants(w_minus: float, w_plus: float) -> StatePolar:
    """Invert the Riemann map: q = k^{-1}((W+-W-)/2), theta = (W++W-)/2."""
    half = 0.5 * (w_plus - w_minus)
    _check(-1e-14 <= half <= K_AT_QCR * (1 + 1e-12),
           "W_+ - W_- outside [0, 2 k(q_cr)]")
    q = q_of_k(max(half, 0.0))
    return StatePolar.from_speed(q, 0.5 * (w_plus + w_minus))


def conserved_of_state(state: StatePolar) -> ConservedState:
    """Z = (rho q cos(theta), q sin(theta))."""
    q = state.q
    return ConservedState(Z1=state.rho * q * math.cos(state.theta),
                          Z2=q * math.sin(state.theta))


def state_of_conserved(z: ConservedState) -> StatePolar:
    """Invert Z -> u for strictly supersonic non-vacuum states.

    rho = sqrt((1-Z2^2) - sqrt((1-Z2^2)^2 - 4 Z1^2)) / sqrt(2); at the
    vacuum the sign of u is unrecoverable and the inversion is rejected.

    The radical picks the root with 2 rho^2 <= 1 - Z2^2.  A second
    supersonic preimage with the larger density exists once
    q^2 (1 + cos^2 theta) < 1 (large flow angles near the sonic speed);
    on that branch this function returns the other preimage of Z.  All
    states with |theta| <= k(q_inf) and q >= q_inf > q_cr produced by the
    viscous solver satisfy the branch condition.
    """
    a = 1.0 - z.Z2 * z.Z2
    disc = a * a - 4.0 * z.Z1 * z.Z1
    _check(disc > 0.0, "conserved state not strictly supersonic/non-vacuum")
    rho = math.sqrt(max(a - math.sqrt(disc), 0.0) / 2.0)
    _check(0.0 < rho < RHO_CR, "recovered density outside (0, rho_cr)")
    u = z.Z1 / rho
    theta = math.atan2(z.Z2, u)
    q = math.hypot(u, z.Z2)
    _check(Q_CR < q < Q_CAV, "recovered speed not strictly supersonic")
    return StatePolar(rho=rho, theta=theta)


def eigenstructure(state: StatePolar):
    """Wave speeds and the genuine-nonlinearity factor of the 2x2 system.

    Returns (lambda_minus, lambda_plus, gn_factor, strictly_hyperbolic).
    The wave slopes are

        lambda_pm = -(cos t pm s/c sin t) / (sin t mp s/c cos t),
        s = sqrt(q^2 - c^2),

    infinite where the denominator vanishes (characteristic aligned with
    the y-axis).  gn_factor = q^3/sqrt((1 + q^2 - c^2)(q^2 - c^2)) is the
    state-dependent factor multiplying the directional derivative of each
    wave speed along its own eigenvector; positivity on the closed
    supersonic region (vacuum included) is genuine nonlinearity.
    """
    rho, theta = state.rho, state.theta
    _check(0.0 <= rho <= RHO_CR, "density outside [0, rho_cr]")
    q = state.q
    c = rho  # gamma = 3
    s = math.sqrt(max(q * q - c * c, 0.0))
    st, ct = math.sin(theta), math.cos(theta)
    lams = []
    for sign in (-1.0, +1.0):
        den = c * st - sign * s * ct
        num = c * ct + sign * s * st
        lams.append(-num / den if den != 0.0 else math.copysign(
            math.inf, -num))
    gn = q ** 3 / math.sqrt((1.0 + s * s) * s * s) if s > 0 else math.inf
    return lams[0], lams[1], gn, rho > 0.0


# ----------------------------------------------------------------------
# Chart front-end
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GasChart:
    """Working range nu_star of the gamma = 3 chart; the closures are the
    module functions.

    The working range defaults to nu_cr/2; all kernel machinery operates on
    (0, nu_star].  Safe for concurrent reads.
    """

    nu_star: float = NU_CR / 2.0

    def __post_init__(self):
        _check(0.0 < self.nu_star < NU_CR, "nu_star must lie in (0, nu_cr)")

    def table(self, nu_values):
        """Chart dump columns for the CLI: nu,rho,q,sigma,k,kprime,kdoubleprime,M."""
        nu = np.asarray(nu_values, dtype=float)
        rho = np.asarray(rho_of_nu(nu))
        q = np.sqrt(1.0 - rho * rho)
        return {
            "nu": nu,
            "rho": rho,
            "q": q,
            "sigma": np.asarray(sigma_of_rho(rho)),
            "k": np.asarray(k_of_nu(nu)),
            "kprime": np.asarray(kprime_of_nu(nu)),
            "kdoubleprime": np.asarray(kdoubleprime_of_nu(nu)),
            "M": np.asarray(mach(rho, q)),
        }
