"""Entropy generators and entropy pairs for the supersonic system.

A generator is a scalar function H(nu, theta) solving the degenerate wave
equation H_nunu - k'(nu)^2 H_thetatheta = 0; every generator produces an
entropy pair through the Loewner-Morawetz matrix relation

    (Q1, Q2) = [[rho q cos t, -q sin t], [rho q sin t, q cos t]] (H_nu, H_t).

Two families are provided: the closed-form distinguished generator

    H*(nu, t) = t^2/2 - nu/rho_bar + int int k'^2,
    H*_nu = -1/rho + N(rho),    N(rho) = atanh(rho_bar) - atanh(rho),

anchored at a reference state rho_bar (normally the far-field density, so
N vanishes there), and smoothed-kernel generators H = Hr*phi1 + Hs*phi2
evaluated by Fourier quadrature of the kernel tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaschart as gc
from .kernelengine import GaussianSmoother, KernelTransform, SmoothedKernel


class GeneratorDomainError(ValueError):
    """Generator evaluated outside its (nu, theta) validity range."""


def N_of_rho(rho, rho_bar: float):
    """Dissipation weight N(rho) = atanh(rho_bar) - atanh(rho); N(rho_bar)=0."""
    rho = np.asarray(rho, dtype=float)
    out = math.atanh(rho_bar) - np.arctanh(rho)
    return out if out.shape else float(out)


@dataclass
class Generator:
    """Callable bundle of H and the partial derivatives the checks need.

    ``table[(i, j)]`` maps nu-order i (0 or 1) and theta-order j to a
    vectorized callable of (nu, theta).  Immutable and shareable.
    """

    table: dict
    provenance: str
    nu_range: tuple
    theta_range: tuple = (-math.inf, math.inf)

    def _check(self, nu, theta):
        nu = np.asarray(nu, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if np.any(nu < self.nu_range[0] * (1 - 1e-12)) or np.any(
                nu > self.nu_range[1] * (1 + 1e-12)):
            raise GeneratorDomainError(
                f"nu outside generator range {self.nu_range}")
        if np.any(theta < self.theta_range[0]) or np.any(
                theta > self.theta_range[1]):
            raise GeneratorDomainError(
                f"theta outside generator range {self.theta_range}")
        return nu, theta

    def d(self, i: int, j: int):
        """Derivative callable d^i/dnu^i d^j/dtheta^j H."""
        try:
            fn = self.table[(i, j)]
        except KeyError:
            raise GeneratorDomainError(
                f"generator lacks derivative ({i},{j})") from None

        def wrapped(nu, theta):
            self._check(nu, theta)
            return fn(nu, theta)
        return wrapped

    # named accessors for readability
    @property
    def H(self):
        return self.d(0, 0)

    @property
    def H_nu(self):
        return self.d(1, 0)

    @property
    def H_theta(self):
        return self.d(0, 1)

    @property
    def H_thetatheta(self):
        return self.d(0, 2)

    @staticmethod
    def combination(terms, provenance: str | None = None) -> "Generator":
        """Linear combination sum_i c_i * G_i (generators are a vector space)."""
        terms = [(float(c), g) for c, g in terms]
        keys = set.intersection(*(set(g.table) for _, g in terms))
        lo = max(g.nu_range[0] for _, g in terms)
        hi = min(g.nu_range[1] for _, g in terms)
        tlo = max(g.theta_range[0] for _, g in terms)
        thi = min(g.theta_range[1] for _, g in terms)

        def make(key):
            fns = [(c, g.table[key]) for c, g in terms]
            return lambda nu, theta: sum(
                c * fn(nu, theta) for c, fn in fns)
        table = {key: make(key) for key in keys}
        return Generator(table, provenance or "combination", (lo, hi),
                         (tlo, thi))


@dataclass(frozen=True)
class EntropyPair:
    """Entropy/entropy-flux pair as callables of the (rho, theta) state."""

    Q1: object
    Q2: object
    provenance: str = ""

    def __call__(self, rho, theta):
        return self.Q1(rho, theta), self.Q2(rho, theta)


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
    -1/rho - atanh(rho) + const, hence H_nu = -1/rho + N(rho).
    """
    if not 0.0 < nu_bar < gc.NU_CR:
        raise GeneratorDomainError("nu_bar must lie in (0, nu_cr)")
    rho_bar = gc.rho_of_nu(nu_bar)
    at_bar = math.atanh(rho_bar)
    psi_bar = float(_Psi(np.asarray(rho_bar)))
    slope = 1.0 / rho_bar + at_bar

    def rho_of(nu):
        return np.asarray(gc.rho_of_nu(nu))

    def H(nu, theta):
        nu = np.asarray(nu, dtype=float)
        rho = rho_of(nu)
        W = -(_Psi(rho) - psi_bar) + (nu - nu_bar) * slope
        return np.asarray(theta) ** 2 / 2.0 - nu / rho_bar + W

    def H_nu(nu, theta):
        rho = rho_of(nu)
        return np.broadcast_to(-1.0 / rho + (at_bar - np.arctanh(rho)),
                               np.broadcast_shapes(np.shape(nu),
                                                   np.shape(theta))).copy()

    def zero(nu, theta):
        return np.zeros(np.broadcast_shapes(np.shape(nu), np.shape(theta)))

    def one(nu, theta):
        return np.ones(np.broadcast_shapes(np.shape(nu), np.shape(theta)))

    def H_theta(nu, theta):
        return (np.zeros(np.shape(nu)) + np.asarray(theta, dtype=float))

    table = {(0, 0): H, (1, 0): H_nu, (0, 1): H_theta, (0, 2): one,
             (1, 1): zero, (0, 3): zero, (1, 2): zero, (0, 4): zero,
             (1, 3): zero, (1, 4): zero}
    # closed forms are valid on the whole supersonic chart, not just nu_star
    return Generator(table, "special", (0.0, gc.NU_CR))


def special_pair(chart: gc.GasChart, nu_bar: float) -> EntropyPair:
    """Closed-form pair generated by the quadratic generator:

    Q1 = -q (t sin t + cos t) + N(rho) rho q cos t,
    Q2 =  q (t cos t - sin t) + N(rho) rho q sin t.
    """
    rho_bar = gc.rho_of_nu(nu_bar)

    def Q1(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        q = np.sqrt(1.0 - rho * rho)
        n = N_of_rho(rho, rho_bar)
        return -q * (theta * np.sin(theta) + np.cos(theta)) \
            + n * rho * q * np.cos(theta)

    def Q2(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        q = np.sqrt(1.0 - rho * rho)
        n = N_of_rho(rho, rho_bar)
        return q * (theta * np.cos(theta) - np.sin(theta)) \
            + n * rho * q * np.sin(theta)

    return EntropyPair(Q1, Q2, provenance="special")


# ----------------------------------------------------------------------
# Loewner-Morawetz assembly
# ----------------------------------------------------------------------

def loewner_morawetz(gen: Generator, state: gc.StatePolar):
    """Apply the matrix relation to (H_nu, H_theta) at one state."""
    nu = state.nu
    hn = float(np.asarray(gen.H_nu(nu, state.theta)))
    ht = float(np.asarray(gen.H_theta(nu, state.theta)))
    q = state.q
    ct, st = math.cos(state.theta), math.sin(state.theta)
    return (state.rho * q * ct * hn - q * st * ht,
            state.rho * q * st * hn + q * ct * ht)


def pair_from_generator(gen: Generator) -> EntropyPair:
    """Vectorized entropy pair from a generator via the matrix relation."""

    def Q1(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        nu = np.asarray(gc.nu_of_rho(rho))
        q = np.sqrt(1.0 - rho * rho)
        hn = gen.H_nu(nu, theta)
        ht = gen.H_theta(nu, theta)
        return rho * q * np.cos(theta) * hn - q * np.sin(theta) * ht

    def Q2(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        nu = np.asarray(gc.nu_of_rho(rho))
        q = np.sqrt(1.0 - rho * rho)
        hn = gen.H_nu(nu, theta)
        ht = gen.H_theta(nu, theta)
        return rho * q * np.sin(theta) * hn + q * np.cos(theta) * ht

    return EntropyPair(Q1, Q2, provenance=gen.provenance)


# ----------------------------------------------------------------------
# Kernel-generated (smoothed) generators
# ----------------------------------------------------------------------

def kernel_generator(regular: KernelTransform | None = None,
                     singular: KernelTransform | None = None,
                     weight_regular: float = 1.0,
                     weight_singular: float = 1.0,
                     smoothing_width: float | None = None,
                     nu_min: float | None = None) -> Generator:
    """Generator H = w1 Hr*phi + w2 Hs*phi for a Gaussian test function.

    Every derivative d^i/dnu^i d^j/dtheta^j (i <= 1, j <= 4) is one call
    of SmoothedKernel.convolved_pairs per kernel on the flattened
    (nu, theta) pairs, theta taking the place of s: a Fourier quadrature
    with the angle derivatives falling on the test function, so
    third-order angle derivatives are as accurate as the tables (never
    differenced).
    """
    pieces = []
    nu_star = None
    for w, tr in ((weight_regular, regular), (weight_singular, singular)):
        if tr is not None and w != 0.0:
            if smoothing_width is None:
                smoothing_width = gc.k_of_nu(tr.nu_star) / 6.0
            phi = GaussianSmoother(smoothing_width)
            sk = SmoothedKernel(tr, phi, np.zeros(1), np.zeros(1), None)
            pieces.append((float(w), sk))
            nu_star = tr.nu_star if nu_star is None else min(nu_star,
                                                             tr.nu_star)
    if not pieces:
        raise ValueError("at least one kernel transform is required")
    lo = max(p[1].transform.nu_min for p in pieces)
    if nu_min is not None:
        lo = max(lo, nu_min)

    def make(i, j):
        def fn(nu, theta):
            nu_b, th_b = np.broadcast_arrays(np.asarray(nu, dtype=float),
                                             np.asarray(theta, dtype=float))
            shape = nu_b.shape
            out = np.zeros(nu_b.size)
            for w, sk in pieces:
                out += w * sk.convolved_pairs(nu_b.ravel(), th_b.ravel(),
                                              s_deriv=j, nu_deriv=i)
            return out.reshape(shape)
        return fn

    table = {(i, j): make(i, j) for i in (0, 1) for j in range(5)}
    return Generator(table, "kernel", (lo, nu_star))


# ----------------------------------------------------------------------
# Admissibility and compactness checks
# ----------------------------------------------------------------------

def convexity_check(gen: Generator, nu_grid, theta_grid) -> dict:
    """Margins of the entropy-admissibility conditions on a state grid.

    condition 1:  H_tt - rho H_ntt >= 0
    condition 2:  |rho H_nt + H_ttt| <= rho (H_tt - rho H_ntt)
    """
    nu = np.asarray(nu_grid, dtype=float)
    th = np.asarray(theta_grid, dtype=float)
    NU, TH = np.meshgrid(nu, th, indexing="ij")
    rho = np.asarray(gc.rho_of_nu(nu))[:, None]
    Htt = gen.d(0, 2)(NU, TH)
    Hntt = gen.d(1, 2)(NU, TH)
    Hnt = gen.d(1, 1)(NU, TH)
    Httt = gen.d(0, 3)(NU, TH)
    c1 = Htt - rho * Hntt
    c2 = rho * c1 - np.abs(rho * Hnt + Httt)
    m1, m2 = float(c1.min()), float(c2.min())
    return {"margin_convexity": m1, "margin_cross": m2,
            "admissible": bool(m1 >= -1e-12 and m2 >= -1e-12)}


def compactness_bounds_check(gen: Generator, chart: gc.GasChart,
                             nu_grid=None, theta_grid=None) -> dict:
    """Fitted constants of the compactness hypotheses, j = 0, 1, 2:

    |d_t^j (rho H_nu + H_tt)| <= C1 rho,
    |d_t^j (rho H_nu)| + |d_t^j H_t| <= C2,

    reported with their stability under one grid refinement.
    """
    if nu_grid is None:
        nu_grid = np.geomspace(gen.nu_range[0] * 1.001,
                               gen.nu_range[1] * 0.999, 24)
    if theta_grid is None:
        gen_th = gen.theta_range
        lo = gen_th[0] if np.isfinite(gen_th[0]) else -1.0
        hi = gen_th[1] if np.isfinite(gen_th[1]) else 1.0
        theta_grid = np.linspace(lo, hi, 17)

    def fit(nu, th):
        NU, TH = np.meshgrid(nu, th, indexing="ij")
        rho = np.asarray(gc.rho_of_nu(np.asarray(nu)))[:, None]
        # each of the 7 distinct derivative grids is evaluated once
        h_nu = [gen.d(1, j)(NU, TH) for j in (0, 1, 2)]
        h_th = {j: gen.d(0, j)(NU, TH) for j in (1, 2, 3, 4)}
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


def generator_pde_residual(gen: Generator, nu_points, theta_points,
                           rel_step: float = 1e-2) -> float:
    """Sup residual of H_nunu = k'(nu)^2 H_thetatheta at sample points.

    H_nunu comes from Richardson-extrapolated centered differences of
    H_nu (the one derivative not provided analytically); the achievable
    tolerance is the generator evaluation noise divided by the step.
    """
    worst = 0.0
    for nu in np.atleast_1d(nu_points):
        for th in np.atleast_1d(theta_points):
            def D(h):
                return float(gen.H_nu(nu + h, th)
                             - gen.H_nu(nu - h, th)) / (2 * h)
            h = nu * rel_step
            hnn = (4.0 * D(h / 2) - D(h)) / 3.0
            target = gc.kprime_of_nu(nu) ** 2 * gen.H_thetatheta(nu, th)
            scale = max(abs(float(target)), 1.0)
            worst = max(worst, abs(float(hnn - target)) / scale)
    return worst


def admissible_kernel_mix(gen_star: Generator, gen_kernel: Generator,
                          nu_grid, theta_grid,
                          safety: float = 0.5) -> tuple:
    """Largest safe admixture of a kernel generator into the quadratic one.

    With K the kernel generator, H* + c K satisfies both admissibility
    conditions whenever c <= rho_min / (M2 + rho_min M1), where M1 bounds
    (rho K_ntt - K_tt)_+ and M2 bounds |rho K_nt + K_ttt| on the grid.
    Returns (generator, c).
    """
    nu = np.asarray(nu_grid, dtype=float)
    th = np.asarray(theta_grid, dtype=float)
    NU, TH = np.meshgrid(nu, th, indexing="ij")
    rho = np.asarray(gc.rho_of_nu(nu))[:, None]
    M1 = float(np.max(np.clip(rho * gen_kernel.d(1, 2)(NU, TH)
                              - gen_kernel.d(0, 2)(NU, TH), 0.0, None)))
    M2 = float(np.max(np.abs(rho * gen_kernel.d(1, 1)(NU, TH)
                             + gen_kernel.d(0, 3)(NU, TH))))
    rho_min = float(rho.min())
    c = safety * rho_min / (M2 + rho_min * M1 + 1e-300)
    mix = Generator.combination([(1.0, gen_star), (c, gen_kernel)],
                                provenance="special+kernel")
    return mix, c
