"""Gas-dynamic coordinate charts for the adiabatic exponent gamma = 3.

All closures are algebraic for this exponent:

    rho(q)   = sqrt(1 - q^2)                (Bernoulli)
    c(rho)   = rho,  M = q/rho              (sonic speed, Mach number)
    nu(rho)  = atanh(rho) - rho             (renormalized density)
    sigma(rho) = 2 rho - atanh(rho)         (solver potential, sigma' = 1 - c^2/q^2)
    k(q)     = sqrt(2) acos(sqrt(2q^2-1)) - acos(sqrt(2-1/q^2))

The critical (sonic) speed is q_cr = 1/sqrt(2) and cavitation sits at
q_cav = 1.  In the renormalized density the characteristic speed satisfies
k'(nu)^2 = (M^2-1)/rho^2 = (1-2 rho^2)/rho^4 with k(0) = 0.  The Riemann
invariants theta -/+ k(q) of a solution are `solver.Solution.W_minus` and
`W_plus`.
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


def mach(rho, q):
    """Mach number q/rho; +inf at the vacuum rho = 0."""
    rho = np.asarray(rho, dtype=float)
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
