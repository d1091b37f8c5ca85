"""Entropy generators and entropy pairs for the supersonic system.

A generator is a scalar function H(nu, theta) solving the degenerate wave
equation H_nunu - k'(nu)^2 H_thetatheta = 0.  `Generator` holds one
function `derivative(i, j, nu, theta)` giving d^i/dnu^i d^j/dtheta^j H
for i <= 1 and j <= 4, and the nu interval where it is valid;
`Generator.d` checks the order and the interval, then calls it.  Every
generator produces an entropy pair through the Loewner-Morawetz matrix
relation

    (Q1, Q2) = [[rho q cos t, -q sin t], [rho q sin t, q cos t]] (H_nu, H_t),

which `loewner_morawetz` applies to arrays of states, evaluating H_nu and
H_t once per state.  Two families are provided: the closed-form
distinguished generator

    H*(nu, t) = t^2/2 - nu/rho_bar + int int k'^2,
    H*_nu = -1/rho + N(rho),    N(rho) = atanh(rho_bar) - atanh(rho),

anchored at a reference state rho_bar (normally the far-field density, so
N vanishes there), whose pair `special_pair` gives in closed form, as one
function of the states returning (Q1, Q2), as the reference for the
assembly; and smoothed-kernel generators H = Hr*phi + Hs*phi, the
`Generator.combination` of one smoothed generator per kernel table, each
evaluated by Fourier quadrature of its table.  `admissibility_terms` owns
the two terms of the admissibility conditions, c1 = H_tt - rho H_ntt and
m = rho H_nt + H_ttt; `admissibility_margins` turns them into the two
margins at every state of a grid and `convexity_check` reports their
minima.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import gaschart as gc

if TYPE_CHECKING:
    from .kernelengine import KernelTransform


MARGIN_TOL = 1e-12  # rounding allowance of the admissibility margins


class GeneratorDomainError(ValueError):
    """Generator evaluated outside its (nu, theta) validity range."""


def N_of_rho(rho, rho_bar: float):
    """Dissipation weight N(rho) = atanh(rho_bar) - atanh(rho); N(rho_bar)=0."""
    rho = np.asarray(rho, dtype=float)
    out = math.atanh(rho_bar) - np.arctanh(rho)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class Generator:
    """A generator as one derivative function and its nu interval.

    ``derivative(i, j, nu, theta)`` returns d^i/dnu^i d^j/dtheta^j H,
    vectorized over broadcast (nu, theta), for i <= 1 and j <= 4; it
    checks nothing, so callers go through `d`.
    """

    derivative: Callable
    nu_range: tuple

    def d(self, i: int, j: int, nu, theta):
        """d^i/dnu^i d^j/dtheta^j H at the states (nu, theta);
        GeneratorDomainError for another order or a nu outside nu_range."""
        if i not in (0, 1) or j not in range(5):
            raise GeneratorDomainError(
                f"generator lacks derivative ({i},{j})")
        nu_arr = np.asarray(nu, dtype=float)
        if np.any(nu_arr < self.nu_range[0] * (1 - 1e-12)) or np.any(
                nu_arr > self.nu_range[1] * (1 + 1e-12)):
            raise GeneratorDomainError(
                f"nu outside generator range {self.nu_range}")
        return self.derivative(i, j, nu, theta)

    @staticmethod
    def combination(terms) -> "Generator":
        """Linear combination sum_i c_i * G_i (generators are a vector space)."""
        terms = [(float(c), g) for c, g in terms]

        def derivative(i, j, nu, theta):
            return sum(c * g.derivative(i, j, nu, theta) for c, g in terms)
        return Generator(derivative, (max(g.nu_range[0] for _, g in terms),
                                      min(g.nu_range[1] for _, g in terms)))


# ----------------------------------------------------------------------
# The distinguished closed-form generator
# ----------------------------------------------------------------------

def _Psi(rho):
    """Antiderivative of 1/rho + atanh(rho) in nu."""
    at = np.arctanh(rho)
    return -np.log1p(-rho * rho) - rho * at + 0.5 * at * at


def special_generator(chart: gc.GasChart, nu_bar: float) -> Generator:
    """Quadratic-in-angle generator with H_thetatheta = 1 exactly.

    All pieces are closed forms; the inner speed integral evaluates to
    -1/rho - atanh(rho) + const, hence H_nu = -1/rho + N(rho).  Every
    other derivative is 0, and the closed forms are valid on the whole
    supersonic chart (0, nu_cr), not just up to nu_star.
    """
    if not 0.0 < nu_bar < gc.NU_CR:
        raise GeneratorDomainError("nu_bar must lie in (0, nu_cr)")
    rho_bar = gc.rho_of_nu(nu_bar)
    at_bar = math.atanh(rho_bar)
    psi_bar = float(_Psi(np.asarray(rho_bar)))
    slope = 1.0 / rho_bar + at_bar

    def derivative(i, j, nu, theta):
        if (i, j) == (0, 0):
            nu = np.asarray(nu, dtype=float)
            W = -(_Psi(np.asarray(gc.rho_of_nu(nu))) - psi_bar) \
                + (nu - nu_bar) * slope
            return np.asarray(theta) ** 2 / 2.0 - nu / rho_bar + W
        if (i, j) == (0, 1):
            return np.zeros(np.shape(nu)) + np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(np.shape(nu), np.shape(theta))
        if (i, j) == (1, 0):
            rho = np.asarray(gc.rho_of_nu(nu))
            return np.broadcast_to(-1.0 / rho + (at_bar - np.arctanh(rho)),
                                   shape).copy()
        return np.full(shape, 1.0 if (i, j) == (0, 2) else 0.0)

    return Generator(derivative, (0.0, gc.NU_CR))


def special_pair(nu_bar: float):
    """Closed-form pair generated by the quadratic generator, as one
    function of the states (rho, theta) returning (Q1, Q2):

    Q1 = -q (t sin t + cos t) + N(rho) rho q cos t,
    Q2 =  q (t cos t - sin t) + N(rho) rho q sin t.
    """
    rho_bar = gc.rho_of_nu(nu_bar)

    def pair(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        q = np.sqrt(1.0 - rho * rho)
        nrq = N_of_rho(rho, rho_bar) * rho * q
        ct, st = np.cos(theta), np.sin(theta)
        return (-q * (theta * st + ct) + nrq * ct,
                q * (theta * ct - st) + nrq * st)
    return pair


# ----------------------------------------------------------------------
# Loewner-Morawetz assembly
# ----------------------------------------------------------------------

def loewner_morawetz(gen: Generator, rho, theta):
    """Entropy pair (Q1, Q2) of a generator at the states (rho, theta).

    rho and theta are broadcast against each other; H_nu and H_theta are
    each evaluated once on the states, and the matrix relation is applied
    to them elementwise.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    nu = gc.nu_of_rho(rho)
    hn = gen.d(1, 0, nu, theta)
    ht = gen.d(0, 1, nu, theta)
    q = np.sqrt(1.0 - rho * rho)
    ct, st = np.cos(theta), np.sin(theta)
    return (rho * q * ct * hn - q * st * ht,
            rho * q * st * hn + q * ct * ht)


# ----------------------------------------------------------------------
# Kernel-generated (smoothed) generators
# ----------------------------------------------------------------------

def kernel_generator(regular: KernelTransform, singular: KernelTransform,
                     weight_regular: float,
                     weight_singular: float) -> Generator:
    """Generator H = w1 Hr*phi + w2 Hs*phi for the Gaussian test function
    `GaussianSmoother.for_kernel` of the regular kernel's nu_star: the
    `Generator.combination` of one smoothed generator per kernel.

    Each smoothed generator's derivative d^i/dnu^i d^j/dtheta^j (i <= 1,
    j <= 4) is one SmoothedKernel.convolved_pairs call on the flattened
    (nu, theta) pairs, theta taking the place of s: a Fourier quadrature
    with the angle derivatives falling on the test function, so
    third-order angle derivatives are as accurate as the tables (never
    differenced).
    """
    # the kernel stack is imported only by the processes that read
    # kernel tables
    from .kernelengine import GaussianSmoother, SmoothedKernel
    phi = GaussianSmoother.for_kernel(regular.nu_star)

    def smoothed(tr):
        sk = SmoothedKernel(tr, phi)

        def derivative(i, j, nu, theta):
            nu_b, th_b = np.broadcast_arrays(nu, theta)
            return sk.convolved_pairs(nu_b, th_b, j, i).reshape(nu_b.shape)
        return Generator(derivative, (tr.nu_min, tr.nu_star))

    return Generator.combination([(weight_regular, smoothed(regular)),
                                  (weight_singular, smoothed(singular))])


# ----------------------------------------------------------------------
# Admissibility and compactness checks
# ----------------------------------------------------------------------

def admissibility_terms(gen: Generator, nu, theta, rho):
    """The two terms of the entropy-admissibility conditions,

    c1 = H_tt - rho H_ntt,    m = rho H_nt + H_ttt,

    at the states (nu, theta) of density rho (broadcast together); the
    conditions are c1 >= 0 and rho c1 >= |m|.
    """
    c1 = gen.d(0, 2, nu, theta) - rho * gen.d(1, 2, nu, theta)
    m = rho * gen.d(1, 1, nu, theta) + gen.d(0, 3, nu, theta)
    return c1, m


def admissibility_margins(gen: Generator, nu_grid, theta_grid):
    """Margins of the entropy-admissibility conditions c1 >= 0, c2 >= 0,

    c1 = H_tt - rho H_ntt,    c2 = rho c1 - |rho H_nt + H_ttt|,

    at every state of nu_grid x theta_grid (arrays indexed [nu, theta]).
    """
    nu = np.asarray(nu_grid, dtype=float)
    NU, TH = np.meshgrid(nu, np.asarray(theta_grid, dtype=float),
                         indexing="ij")
    rho = np.asarray(gc.rho_of_nu(nu))[:, None]
    c1, m = admissibility_terms(gen, NU, TH, rho)
    return c1, rho * c1 - np.abs(m)


def convexity_check(gen: Generator, nu_grid, theta_grid) -> dict:
    """Least `admissibility_margins` on a state grid, and whether both
    conditions hold there to MARGIN_TOL."""
    c1, c2 = admissibility_margins(gen, nu_grid, theta_grid)
    m1, m2 = float(c1.min()), float(c2.min())
    return {"margin_convexity": m1, "margin_cross": m2,
            "admissible": bool(m1 >= -MARGIN_TOL and m2 >= -MARGIN_TOL)}


def compactness_bounds_check(gen: Generator, chart: gc.GasChart, nu_grid,
                             theta_grid) -> dict:
    """Fitted constants of the compactness hypotheses, j = 0, 1, 2:

    |d_t^j (rho H_nu + H_tt)| <= C1 rho,
    |d_t^j (rho H_nu)| + |d_t^j H_t| <= C2,

    reported with their stability under one grid refinement.
    """

    def fit(nu, th):
        NU, TH = np.meshgrid(nu, th, indexing="ij")
        rho = np.asarray(gc.rho_of_nu(np.asarray(nu)))[:, None]
        # each of the 7 distinct derivative grids is evaluated once
        h_nu = [gen.d(1, j, NU, TH) for j in (0, 1, 2)]
        h_th = {j: gen.d(0, j, NU, TH) for j in (1, 2, 3, 4)}
        C1 = 0.0
        C2 = 0.0
        for j in (0, 1, 2):
            comb = rho * h_nu[j] + h_th[j + 2]
            C1 = max(C1, float(np.max(np.abs(comb) / rho)))
            C2 = max(C2, float(np.max(np.abs(rho * h_nu[j])
                                      + np.abs(h_th[j + 1]))))
        return C1, C2

    nu = np.asarray(nu_grid, dtype=float)
    th = np.asarray(theta_grid, dtype=float)
    C1, C2 = fit(nu, th)
    nu_f = np.geomspace(nu[0], nu[-1], 2 * len(nu) - 1)
    th_f = np.linspace(th[0], th[-1], 2 * len(th) - 1)
    C1f, C2f = fit(nu_f, th_f)
    drift1 = abs(C1f - C1) / max(C1f, 1e-300)
    drift2 = abs(C2f - C2) / max(C2f, 1e-300)
    return {"C_combination": C1f, "C_fields": C2f,
            "drift_combination": drift1, "drift_fields": drift2,
            "stable": bool(drift1 < 0.10 and drift2 < 0.10)}


def admissible_kernel_mix(gen_star: Generator, gen_kernel: Generator,
                          nu_grid, theta_grid) -> tuple:
    """Largest safe admixture of a kernel generator into the quadratic one.

    With K the kernel generator and c1, m its `admissibility_terms`,
    H* + c K satisfies both admissibility conditions whenever
    c <= rho_min / (M2 + rho_min M1), where M1 bounds (-c1)_+ and M2
    bounds |m| on the grid; c is half that bound.  Returns (generator, c).
    """
    nu = np.asarray(nu_grid, dtype=float)
    NU, TH = np.meshgrid(nu, np.asarray(theta_grid, dtype=float),
                         indexing="ij")
    rho = np.asarray(gc.rho_of_nu(nu))[:, None]
    c1, m = admissibility_terms(gen_kernel, NU, TH, rho)
    M1 = float(np.max(np.clip(-c1, 0.0, None)))
    M2 = float(np.max(np.abs(m)))
    rho_min = float(rho.min())
    c = 0.5 * rho_min / (M2 + rho_min * M1 + 1e-300)
    return Generator.combination([(1.0, gen_star), (c, gen_kernel)]), c
