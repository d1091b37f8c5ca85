"""Construction of the two fundamental generator kernels in Fourier space.

Both kernels solve  Hhat_nunu + k'(nu)^2 xi^2 Hhat = 0  with delta-type
data at the vacuum and are built as

    regular:   Hhat_r = alpha0 fhat_1(xi k) + alpha1 fhat_2(xi k) + ghat
    singular:  Hhat_s = beta0 fhat_{-2}(xi k) + beta1 k^2 fhat_{-1}(xi k)
                        + beta2 k^4 fhat_0(xi k) + hhat

where the coefficient functions obey first-order ODEs with closed-form or
quadrature solutions,

    alpha0 = c0 k^2 k'^(-1/2)
    alpha1 = -(1/8) k^3 k'^(-1/2) * int_0^nu k^-2 k'^(-1/2) alpha0'' dtau
    beta0  = d0 k^(-1) k'^(-1/2)
    beta1  = (1/4) k^-2 k'^(-1/2) * int_0^nu beta0'' k k'^(-1/2) dtau
    beta2  = -(1/4) k^-3 k'^(-1/2) * int_0^nu ell1 k'^(-1/2) dtau,

and the remainders solve   y'' + k'^2 xi^2 y = forcing(nu, xi)  with zero
data at the vacuum, forcing ell(nu) fhat_2(xi k) (regular) or
ell2(nu) fhat_0(xi k) (singular).

Evaluating the coefficient combinations near nu = 0 in closed form loses
all digits (they are small residues of nu^(-1)-size terms).  So each
kind's chain of formulas (regular_chain, singular_chain) is written once
and evaluated in two truncated-series arithmetics: as cube-root series
below the switch point and as Taylor jets of the closed forms above it.
Just above the switch the two agree to <= 2e-12 for alpha0, alpha1 and
beta0.  The beta2 chain departs by up to 7.7e-8 (beta2'' at nu = 2.2e-3),
because the jets read J between grid nodes through a cubic spline.

The jet branch is evaluated on whole node arrays at once: a TaylorJet
keeps its Taylor coefficients on the last axis of ``c`` and one base
point per entry of the leading axes, so each stage (the Gauss nodes of
all quadrature panels, the grid rows above the switch) is one chart solve
and one batch of jet recurrences, looping over the jet order only.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from . import gaschart as gc
from . import kernelbasis as kb
from .vacuum import (NU_SERIES_SWITCH, characteristic_series,
                     speed_coefficient_jets)

C0_PAPER = 3.0 ** 0.5 / 4.0 * 3.0 ** (-0.5)  # sqrt(3)/4 * c_sharp^(-3/2)
D0_PAPER = 3.0 ** (-0.5) * 3.0 ** 0.5        # 3^(-1/2) * c_sharp^(3/2)
# calibrated so that lim Hhat_s = 1 (the paper value gives 1/2; the
# fhat_{-2}(0) = 1/2 factor is unambiguous, so the delta datum fixes d0)
D0_CALIBRATED = 2.0 * D0_PAPER

_JET_ORDER = 10
# jet order of the pass on the Gauss nodes: the integrands' values need
# at most three derivatives of k', and order 4 leaves every jet nonempty
_NODE_ORDER = 4
_GAUSS_NODES = 16


@dataclass(frozen=True)
class GridSpec:
    """Grids for the kernel tables.

    nu: log-spaced on [nu_min_factor*nu_star, nu_star].  xi >= 0: linear
    up to xi_linear_factor/k(nu_star), then log-spaced up to
    xi_max_factor/k(nu_star); negative xi by evenness.
    """
    n_nu: int = 241
    nu_min_factor: float = 1e-8
    n_xi_linear: int = 49
    n_xi_log: int = 200
    xi_linear_factor: float = 4.0
    xi_max_factor: float = 200.0

    def nu_grid(self, nu_star: float) -> np.ndarray:
        return np.geomspace(self.nu_min_factor * nu_star, nu_star, self.n_nu)

    def xi_grid(self, k_star: float) -> np.ndarray:
        xi_lin = np.linspace(0.0, self.xi_linear_factor / k_star,
                             self.n_xi_linear)
        xi_log = np.geomspace(self.xi_linear_factor / k_star,
                              self.xi_max_factor / k_star,
                              self.n_xi_log + 1)[1:]
        return np.concatenate([xi_lin, xi_log])


# ----------------------------------------------------------------------
# Coefficient chains: one formula per function, in either arithmetic
# ----------------------------------------------------------------------

def _ell(b, k, kp, kpp):
    """The ell operator  b'' k^2 + 6 b' k' k + 6 b k'^2 + 3 b k'' k."""
    bp = b.dnu()
    return (bp.dnu() * k * k + 6.0 * (bp * kp * k) + 6.0 * (b * kp * kp)
            + 3.0 * (b * kpp * k))


def regular_chain(c0, k, kp, integral) -> dict:
    """alpha0, alpha0'', I, alpha1 and ell from k and k'.

    k and k' are CubeRootSeries or TaylorJets, and so is every result;
    integral(name, integrand) returns int_0^nu of the integrand in the
    same arithmetic.
    """
    inv_sqrt_kp = kp.power(-0.5)
    alpha0 = c0 * (k * k * inv_sqrt_kp)
    alpha0pp = alpha0.dnu().dnu()
    I = integral("I", k.power(-2.0) * inv_sqrt_kp * alpha0pp)
    alpha1 = -0.125 * (k * k * k * inv_sqrt_kp) * I
    ell = -1.0 * (alpha1.dnu().dnu() + 1.25 * alpha0pp)
    return {"alpha0": alpha0, "alpha0pp": alpha0pp, "I": I,
            "alpha1": alpha1, "ell": ell}


def singular_chain(d0, k, kp, integral) -> dict:
    """beta0, beta0'', J, beta1, ell1, K, beta2 and ell2 from k and k';
    arithmetic and integral as in regular_chain."""
    inv_sqrt_kp = kp.power(-0.5)
    kpp = kp.dnu()
    beta0 = d0 * (k.power(-1.0) * inv_sqrt_kp)
    beta0pp = beta0.dnu().dnu()
    J = integral("J", beta0pp * k * inv_sqrt_kp)
    beta1 = 0.25 * (k.power(-2.0) * inv_sqrt_kp) * J
    ell1 = _ell(beta1, k, kp, kpp)
    K = integral("K", ell1 * inv_sqrt_kp)
    beta2 = -0.25 * (k.power(-3.0) * inv_sqrt_kp) * K
    ell2 = -1.0 * (k * k) * _ell(beta2, k, kp, kpp)
    return {"beta0": beta0, "beta0pp": beta0pp, "J": J, "beta1": beta1,
            "ell1": ell1, "K": K, "beta2": beta2, "ell2": ell2}


class _Kind(NamedTuple):
    chain: Callable
    columns: tuple   # (name, n): the value and its first n-1 derivatives
    forcing: tuple   # (column, fhat index) of the remainder ODE


KINDS = {
    "regular": _Kind(regular_chain, (("alpha0", 3), ("alpha1", 3), ("ell", 2)),
                     ("ell", 2)),
    "singular": _Kind(singular_chain, (("beta0", 3), ("beta1", 3),
                                       ("beta2", 3), ("ell1", 1), ("ell2", 2)),
                      ("ell2", 0)),
}


def _kind(kind: str) -> _Kind:
    try:
        return KINDS[kind]
    except KeyError:
        raise ValueError(
            f"kind must be 'regular' or 'singular', not {kind!r}") from None


class CoefficientModel:
    """Evaluates all kernel coefficient functions and their nu-derivatives.

    Each kind's chain (regular_chain, singular_chain) is written once and
    evaluated in two arithmetics.  Below the series switch the columns
    come from cube-root series: the chain on the frozen k-series with
    exact term-by-term integrals (cancellation-free).  Above it they come
    from Taylor jets of the same chain at the grid nodes, whose integrals
    start from the series' values at the switch and add Gauss panels.
    Every stage acts on a whole array of nodes: one chart solve and one
    batch of jets per array, never one per node.
    """

    def __init__(self, chart: gc.GasChart, c0: float = C0_PAPER,
                 d0: float = D0_CALIBRATED):
        self.chart = chart
        self.normalization = {"regular": c0, "singular": d0}
        k, _rho = characteristic_series()
        kp = k.dnu()
        s = {"k": k, "kp": kp, "kpp": kp.dnu()}
        for kind, spec in KINDS.items():
            s.update(spec.chain(self.normalization[kind], k, kp,
                                lambda _name, f: f.integrate0()))
            s.update({name + "p": s[name].dnu()
                      for name, n in spec.columns if n > 1})
        self.series = {name: ser.compact() for name, ser in s.items()}
        self._nu_switch = min(NU_SERIES_SWITCH, 0.9 * chart.nu_star)
        self._start = {name: float(s[name](self._nu_switch))
                       for name in ("I", "J", "K")}

    def _jets(self, kind: str, nu) -> dict:
        """The chain's jets at the nodes nu (ascending, above the switch).

        A first pass at order _NODE_ORDER runs on the Gauss nodes of the
        panels [switch, nu_0], [nu_0, nu_1], ...: each integral sums its
        integrand's node values from the series value at the switch.
        Between the nodes it is a cubic spline in w = nu^(1/3) through
        those sums, which the chain's later integrands read (ell1 reads
        J).  The second pass, at _JET_ORDER on nu, takes the sums as the
        integrals' values.
        """
        chain, norm = KINDS[kind].chain, self.normalization[kind]
        starts = np.concatenate([[self._nu_switch], nu[:-1]])
        mid, half = 0.5 * (starts + nu), 0.5 * (nu - starts)
        x, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
        nodes = mid[:, None] + half[:, None] * x
        w_knots, keep = np.unique(
            np.concatenate([[self._nu_switch], nu]) ** (1 / 3),
            return_index=True)
        sums = {}

        def on_nodes(name, integrand):
            panels = half * np.sum(w * integrand.c[..., 0], axis=1)
            vals = np.cumsum(np.concatenate([[self._start[name]], panels]))
            sums[name] = vals[1:]
            spline = CubicSpline(w_knots, vals[keep])
            return integrand.integral(spline(nodes ** (1 / 3)))

        def chart_jets(at, order):
            k, kp, _ = speed_coefficient_jets(gc.rho_of_nu(at),
                                              gc.k_of_nu(at), order)
            return k, kp

        chain(norm, *chart_jets(nodes, _NODE_ORDER), on_nodes)
        return chain(norm, *chart_jets(nu, _JET_ORDER),
                     lambda name, f: f.integral(sums[name]))

    def rows(self, kind: str, nu_grid: np.ndarray) -> dict:
        """The columns of kind's table on an ascending nu grid: each
        tabulated function and its first one or two derivatives, from the
        series below the switch and from the jets above it."""
        spec = _kind(kind)
        nu_grid = np.asarray(nu_grid, dtype=float)
        upper = nu_grid >= self._nu_switch
        jets = self._jets(kind, nu_grid[upper]) if upper.any() else {}
        cols = {}
        for name, n in spec.columns:
            for j, suffix in enumerate(("", "p", "pp")[:n]):
                ser = (self.series[name].dnu().dnu() if j == 2
                       else self.series[name + suffix])
                col = np.empty_like(nu_grid)
                col[~upper] = ser(nu_grid[~upper])
                if jets:
                    col[upper] = jets[name].derivative(j)
                cols[name + suffix] = col
        return cols


# ----------------------------------------------------------------------
# Coefficient tables
# ----------------------------------------------------------------------

@dataclass
class CoefficientTable:
    kind: str
    nu_star: float
    nu_grid: np.ndarray
    columns: dict
    normalization_paper: float
    normalization: float
    calibration: float = 1.0

    def scaled(self, factor: float) -> "CoefficientTable":
        cols = {k: v * factor for k, v in self.columns.items()}
        return CoefficientTable(self.kind, self.nu_star, self.nu_grid, cols,
                                self.normalization_paper,
                                self.normalization * factor,
                                self.calibration * factor)


def build_regular_coeffs(chart: gc.GasChart, nu_star: float | None = None,
                         grid: GridSpec = GridSpec(),
                         c0: float = C0_PAPER) -> CoefficientTable:
    """Regular-kernel coefficient functions on the log nu grid."""
    nu_star = chart.nu_star if nu_star is None else nu_star
    model = CoefficientModel(gc.GasChart(nu_star=nu_star), c0=c0)
    nu_grid = grid.nu_grid(nu_star)
    cols = model.rows("regular", nu_grid)
    return CoefficientTable("regular", nu_star, nu_grid, cols,
                            normalization_paper=C0_PAPER, normalization=c0)


def build_singular_coeffs(chart: gc.GasChart, nu_star: float | None = None,
                          grid: GridSpec = GridSpec(),
                          d0: float = D0_CALIBRATED) -> CoefficientTable:
    """Singular-kernel coefficient functions on the log nu grid."""
    nu_star = chart.nu_star if nu_star is None else nu_star
    model = CoefficientModel(gc.GasChart(nu_star=nu_star), d0=d0)
    nu_grid = grid.nu_grid(nu_star)
    cols = model.rows("singular", nu_grid)
    return CoefficientTable("singular", nu_star, nu_grid, cols,
                            normalization_paper=D0_PAPER, normalization=d0)


# ----------------------------------------------------------------------
# Remainder ODE
# ----------------------------------------------------------------------

class _ChartSplines:
    """Fast smooth interpolants in w = nu^(1/3): k and k' as the two
    columns of one spline on shared knots, and a forcing column."""

    def __init__(self, nu_star: float, forcing_nu, forcing_vals):
        w_hi = nu_star ** (1 / 3)
        w = np.linspace((1e-10 * nu_star) ** (1 / 3), w_hi, 1200)
        nu = w ** 3
        self.k_kp = CubicSpline(w, np.column_stack([gc.k_of_nu(nu),
                                                    gc.kprime_of_nu(nu)]))
        self.forcing = CubicSpline(np.asarray(forcing_nu) ** (1 / 3),
                                   np.asarray(forcing_vals))


def integrate_remainder(kind: str, coeffs: CoefficientTable, xi,
                        rtol: float = 1e-10, atol: float = 1e-14,
                        with_xi_derivative: bool = False):
    """Solve y'' + k'^2 xi^2 y = forcing, y = y' = 0 at nu_grid[0], for all xi.

    forcing = ell(nu) fhat_2(xi k) (regular) or ell2(nu) fhat_0(xi k)
    (singular), as KINDS names it.  The columns share k, k' and the
    forcing profile, so they are integrated together as one stacked
    DOP853 state: each right-hand side makes one spline evaluation for k
    and k', one for the forcing, and evaluates the basis function once on
    the whole vector xi k.  rtol and atol hold for each column, as in a
    solve of its own.  Returns (nu_grid, y, y'), each solution of shape
    (n_nu,) + shape(xi).  Truncating the launch at nu_grid[0] is
    admissible because |y| = O(nu^(7/3)) there.

    with_xi_derivative=True augments the system with u = dy/dxi, which
    solves u'' + k'^2 xi^2 u = d(forcing)/dxi - 2 xi k'^2 y, and returns
    (nu_grid, y, y', u, u').
    """
    name, lam = _kind(kind).forcing
    xi = np.asarray(xi, dtype=float)
    x = xi.ravel()
    n = x.size
    splines = _ChartSplines(coeffs.nu_star, coeffs.nu_grid,
                            coeffs.columns[name])
    n_parts = 4 if with_xi_derivative else 2

    def rhs(nu, Y):
        w = nu ** (1 / 3)
        k, kp = splines.k_kp(w)
        ell = splines.forcing(w)
        om2 = (kp * x) ** 2
        y = Y[:n]
        parts = [Y[n:2 * n], ell * kb.fhat(lam, x * k) - om2 * y]
        if with_xi_derivative:
            fx = ell * k * kb.fhat_d1(lam, x * k)
            parts += [Y[3 * n:],
                      fx - om2 * Y[2 * n:3 * n] - 2.0 * x * kp * kp * y]
        return np.concatenate(parts)

    # scipy bounds the RMS of the scaled error over the whole state, which
    # lets one component reach sqrt(size) times the tolerance; shrinking
    # both tolerances by that factor keeps every column within rtol/atol
    shrink = np.sqrt(n_parts * n)
    nu_grid = coeffs.nu_grid
    sol = solve_ivp(rhs, (nu_grid[0], coeffs.nu_star), np.zeros(n_parts * n),
                    method="DOP853", t_eval=nu_grid, rtol=rtol / shrink,
                    atol=atol / shrink)
    if not sol.success:
        raise RuntimeError(
            "remainder integration failed at xi="
            f"{', '.join(map(repr, x.tolist()))}: {sol.message}")
    shape = (len(sol.t),) + xi.shape
    return (sol.t, *(np.ascontiguousarray(sol.y[i * n:(i + 1) * n].T)
                     .reshape(shape) for i in range(n_parts)))


def build_remainder_table(kind: str, coeffs: CoefficientTable,
                          xi_grid: np.ndarray):
    """Remainder, nu-, xi- and mixed derivatives on (nu_grid, xi_grid >= 0).

    All columns come from one stacked integration (integrate_remainder);
    returns (ghat, ghat_nu, ghat_xi, ghat_nuxi), each (n_nu, n_xi).
    """
    _, *tables = integrate_remainder(kind, coeffs, xi_grid,
                                     with_xi_derivative=True)
    return tuple(tables)


# ----------------------------------------------------------------------
# Assembled transform
# ----------------------------------------------------------------------

MAGIC = b"CAVK1"
_TABLE_VERSION = 1


class KernelTableError(ValueError):
    """A kernel table file that is truncated, padded or not a table."""


@dataclass
class KernelTransform:
    """Callable Fourier-side kernel Hhat(nu, xi) and its nu-derivative.

    The coefficient part is evaluated exactly (splined coefficients times
    closed-form basis functions); the remainder is interpolated cubic in
    log nu along columns and linearly in xi between columns.  Everything
    is even in xi.  Immutable and safe to share.
    """

    kind: str
    coeffs: CoefficientTable
    xi_grid: np.ndarray
    ghat: np.ndarray
    ghat_nu: np.ndarray
    ghat_xi: np.ndarray
    ghat_nuxi: np.ndarray

    def __post_init__(self):
        lognu = np.log(self.coeffs.nu_grid)
        self._cs = {name: CubicSpline(lognu, col)
                    for name, col in self.coeffs.columns.items()}
        self._rem_spl = [CubicSpline(lognu, arr, axis=0) for arr in
                         (self.ghat, self.ghat_nu, self.ghat_xi,
                          self.ghat_nuxi)]

    @property
    def nu_star(self) -> float:
        return self.coeffs.nu_star

    @property
    def nu_min(self) -> float:
        return float(self.coeffs.nu_grid[0])

    def _coef(self, name, nu):
        return self._cs[name](np.log(nu))

    def _remainder(self, nu, xi, deriv=False):
        """Cubic-Hermite interpolation in xi of the stored remainder.

        Stored xi-derivative columns make the interpolation fourth order
        in the inter-column phase step; plain linear lookup leaks visible
        mass outside the light cone after smoothing.  The spline rows
        come from the distinct nu, the column bracket and Hermite weights
        from xi in its own shape; only the gathered values and their sum
        take the broadcast shape.
        """
        val_spl, slope_spl = (self._rem_spl[1], self._rem_spl[3]) if deriv \
            else (self._rem_spl[0], self._rem_spl[2])
        nu = np.asarray(nu, dtype=float)
        xi = np.asarray(xi, dtype=float)
        uniq, inv = np.unique(nu, return_inverse=True)
        inv = inv.reshape(nu.shape)
        loguniq = np.log(uniq)
        rows = val_spl(loguniq)   # (n_unique_nu, n_xi)
        drows = slope_spl(loguniq)
        grid = self.xi_grid
        ax = np.abs(xi)
        axc = np.clip(ax, grid[0], grid[-1])
        j = np.clip(np.searchsorted(grid, axc) - 1, 0, len(grid) - 2)
        x0, x1 = grid[j], grid[j + 1]
        h = x1 - x0
        t = (axc - x0) / h
        t2, t3 = t * t, t * t * t
        vals = (2 * t3 - 3 * t2 + 1) * rows[inv, j]
        vals += (t3 - 2 * t2 + t) * (drows[inv, j] * h)
        vals += (-2 * t3 + 3 * t2) * rows[inv, j + 1]
        vals += (t3 - t2) * (drows[inv, j + 1] * h)
        # beyond the stored band the remainder is negligible by its decay
        return np.where(ax <= grid[-1], vals, 0.0)

    def _check_domain(self, nu):
        nu = np.asarray(nu, dtype=float)
        if np.any(nu < self.nu_min * (1 - 1e-9)) or np.any(
                nu > self.nu_star * (1 + 1e-9)):
            raise ValueError(
                f"nu outside table range [{self.nu_min}, {self.nu_star}]")
        return np.clip(nu, self.nu_min, self.nu_star)

    def Hhat(self, nu, xi):
        nu = self._check_domain(nu)
        xi = np.asarray(xi, dtype=float)
        k = np.asarray(gc.k_of_nu(nu))
        z = xi * k
        if self.kind == "regular":
            out = (self._coef("alpha0", nu) * kb.fhat(1, z)
                   + self._coef("alpha1", nu) * kb.fhat(2, z))
        else:
            k2 = k * k
            out = (self._coef("beta0", nu) * kb.fhat(-2, z)
                   + self._coef("beta1", nu) * k2 * kb.fhat(-1, z)
                   + self._coef("beta2", nu) * k2 * k2 * kb.fhat(0, z))
        return out + self._remainder(nu, xi)

    def Hhat_nu(self, nu, xi):
        """Analytic nu-derivative expansion plus the stored remainder slope."""
        nu = self._check_domain(nu)
        xi = np.asarray(xi, dtype=float)
        k = np.asarray(gc.k_of_nu(nu))
        kp = np.asarray(gc.kprime_of_nu(nu))
        z = xi * k
        if self.kind == "regular":
            a0 = self._coef("alpha0", nu)
            a1 = self._coef("alpha1", nu)
            a0p = self._coef("alpha0p", nu)
            a1p = self._coef("alpha1p", nu)
            r = kp / k
            out = (2.0 * a0 * r * kb.fhat(0, z)
                   + (a0p - 3.0 * a0 * r + 4.0 * a1 * r) * kb.fhat(1, z)
                   + (a1p - 5.0 * a1 * r) * kb.fhat(2, z))
        else:
            b0 = self._coef("beta0", nu)
            b1 = self._coef("beta1", nu)
            b2 = self._coef("beta2", nu)
            b0p = self._coef("beta0p", nu)
            b1p = self._coef("beta1p", nu)
            b2p = self._coef("beta2p", nu)
            k2, k3, k4 = k * k, k ** 3, k ** 4
            xi2 = xi * xi
            c_m1 = b1p * k2 + 2.0 * b1 * kp * k + 2.0 * b2 * k3 * kp
            d_m1 = 0.5 * b0 * kp * k
            c_0 = b2p * k4 + 3.0 * b2 * kp * k3
            d_0 = -0.5 * b1 * kp * k3
            out = (b0p * kb.fhat(-2, z)
                   + (c_m1 + xi2 * d_m1) * kb.fhat(-1, z)
                   + (c_0 + xi2 * d_0) * kb.fhat(0, z))
        return out + self._remainder(nu, xi, deriv=True)

    def limit_estimates(self, nu_base: float = 1e-7, xis=(0.5, 1.0, 5.0)):
        """Richardson estimates (in nu^(2/3)) of the vacuum data at nu_base.

        Corrections to the limits are O(nu^(2/3)) both through the
        coefficient expansions and through (xi k)^2; the two-point
        extrapolation (nu, nu/8) removes that whole leading order.
        Returns per-xi dicts with raw and extrapolated values.
        """
        out = []
        for xi in xis:
            rec = {"xi": xi}
            pair = np.array([nu_base, nu_base / 8.0])
            h = self.Hhat(pair, xi)
            hn = self.Hhat_nu(pair, xi)
            rho = np.asarray(gc.rho_of_nu(pair))
            rec["H_raw"] = float(h[0])
            rec["H_limit"] = float((4.0 * h[1] - h[0]) / 3.0)
            if self.kind == "regular":
                rec["Hnu_raw"] = float(hn[0])
                rec["Hnu_limit"] = float((4.0 * hn[1] - hn[0]) / 3.0)
            else:
                rhn = rho * hn
                rec["rhoHnu_raw"] = float(rhn[0])
                rec["rhoHnu_limit"] = float((4.0 * rhn[1] - rhn[0]) / 3.0)
            out.append(rec)
        return out

    # ---- persistence ---------------------------------------------------

    def save(self, path: str) -> None:
        cols = self.coeffs.columns
        names = sorted(cols)
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<BB", _TABLE_VERSION,
                                 0 if self.kind == "regular" else 1))
            fh.write(struct.pack("<II", len(self.coeffs.nu_grid),
                                 len(self.xi_grid)))
            fh.write(struct.pack("<ddd", self.coeffs.nu_star,
                                 self.coeffs.normalization,
                                 self.coeffs.normalization_paper))
            fh.write(struct.pack("<d", self.coeffs.calibration))
            fh.write(struct.pack("<I", len(names)))
            for name in names:
                b = name.encode()
                fh.write(struct.pack("<I", len(b)))
                fh.write(b)
            self.coeffs.nu_grid.astype("<f8").tofile(fh)
            self.xi_grid.astype("<f8").tofile(fh)
            for name in names:
                cols[name].astype("<f8").tofile(fh)
            for arr in (self.ghat, self.ghat_nu, self.ghat_xi,
                        self.ghat_nuxi):
                arr.astype("<f8").tofile(fh)

    @classmethod
    def load(cls, path: str) -> "KernelTransform":
        """Read a table written by save; a malformed file raises
        KernelTableError naming the file and the section at fault."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def need(n, section):
                # checked before reading, so a corrupt count allocates nothing
                left = size - fh.tell()
                if left < n:
                    raise KernelTableError(
                        f"{path}: truncated in section {section} (needs {n} "
                        f"bytes at offset {fh.tell()}, {left} left)")

            def unpack(fmt, section):
                n = struct.calcsize(fmt)
                need(n, section)
                return struct.unpack(fmt, fh.read(n))

            def floats(n, section):
                need(8 * n, section)
                return np.fromfile(fh, "<f8", n)

            need(len(MAGIC), "magic")
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise KernelTableError(
                    f"{path}: not a kernel table (magic {magic!r})")
            version, kind_id = unpack("<BB", "version/kind")
            if version != _TABLE_VERSION:
                raise KernelTableError(
                    f"{path}: unknown table version {version} in section "
                    f"version/kind")
            if kind_id not in (0, 1):
                raise KernelTableError(
                    f"{path}: unknown kind byte {kind_id} in section "
                    f"version/kind")
            n_nu, n_xi = unpack("<II", "grid sizes")
            nu_star, norm, norm_paper = unpack("<ddd", "normalization")
            calibration, = unpack("<d", "calibration")
            n_names, = unpack("<I", "column names")
            names = []
            for _ in range(n_names):
                ln, = unpack("<I", "column names")
                need(ln, "column names")
                try:
                    names.append(fh.read(ln).decode())
                except UnicodeDecodeError as exc:
                    raise KernelTableError(
                        f"{path}: undecodable name in section column names"
                    ) from exc
            nu_grid = floats(n_nu, "nu grid")
            xi_grid = floats(n_xi, "xi grid")
            cols = {name: floats(n_nu, f"column {name}") for name in names}
            rem = [floats(n_nu * n_xi, f"remainder {name}")
                   for name in ("ghat", "ghat_nu", "ghat_xi", "ghat_nuxi")]
            if fh.tell() != size:
                raise KernelTableError(
                    f"{path}: {size - fh.tell()} trailing bytes after "
                    f"section remainder ghat_nuxi")
        kind = "regular" if kind_id == 0 else "singular"
        coeffs = CoefficientTable(kind, nu_star, nu_grid, cols, norm_paper,
                                  norm, calibration)
        return cls(kind, coeffs, xi_grid,
                   *(r.reshape(n_nu, n_xi) for r in rem))


def assemble(kind: str, coeffs: CoefficientTable, xi_grid: np.ndarray,
             ghat: np.ndarray, ghat_nu: np.ndarray, ghat_xi: np.ndarray,
             ghat_nuxi: np.ndarray) -> KernelTransform:
    """Bundle tables into the callable transform; grids must match."""
    if ghat.shape != (len(coeffs.nu_grid), len(xi_grid)):
        raise ValueError("remainder table shape does not match the grids")
    return KernelTransform(kind, coeffs, xi_grid, ghat, ghat_nu, ghat_xi,
                           ghat_nuxi)


def build_kernel(kind: str, chart: gc.GasChart | None = None,
                 nu_star: float | None = None, grid: GridSpec | None = None,
                 calibrate: bool = True) -> KernelTransform:
    """Full build: coefficients, remainder sweep, assembly, calibration.

    Calibration rescales the whole (linear) construction by one scalar so
    the measured vacuum limit (Hhat_nu -> 1 regular, Hhat -> 1 singular)
    holds exactly at the Richardson estimate; the paper normalization is
    retained in the metadata.
    """
    chart = chart or gc.GasChart()
    if nu_star is None:
        nu_star = chart.nu_star
    if grid is None:
        grid = GridSpec()
    if kind == "regular":
        coeffs = build_regular_coeffs(chart, nu_star, grid)
    elif kind == "singular":
        coeffs = build_singular_coeffs(chart, nu_star, grid)
    else:
        raise ValueError("kind must be 'regular' or 'singular'")
    xi_grid = grid.xi_grid(gc.k_of_nu(nu_star))
    tables = build_remainder_table(kind, coeffs, xi_grid)
    tr = assemble(kind, coeffs, xi_grid, *tables)
    if calibrate:
        est = tr.limit_estimates(xis=(0.5,))[0]
        measured = est["Hnu_limit" if kind == "regular" else "H_limit"]
        factor = 1.0 / measured
        tr = assemble(kind, coeffs.scaled(factor), xi_grid,
                      *(t * factor for t in tables))
    return tr


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

def verify_cancellation(transform: KernelTransform, xi_max: float = 100.0,
                        drift_tol: float = 0.10) -> dict:
    """Fitted constant of the key cancellation estimate, with refinement drift.

    regular:  |rho Hhat_nu - xi^2 Hhat| <= C (1+xi^2) nu^(1/3)
    singular: |rho Hhat_nu - xi^2 Hhat| <= C (1+xi^4) nu^(2/3)

    The constant is the grid supremum; stability is measured against the
    coarse (every-other-sample) sub-grid, which must stay within drift_tol.
    """
    nus = transform.coeffs.nu_grid
    xis = transform.xi_grid[transform.xi_grid <= xi_max]
    NU, XI = np.meshgrid(nus, xis, indexing="ij")
    H = transform.Hhat(NU, XI)
    Hn = transform.Hhat_nu(NU, XI)
    rho = np.asarray(gc.rho_of_nu(nus))[:, None]
    defect = np.abs(rho * Hn - XI ** 2 * H)
    if transform.kind == "regular":
        weight = (1.0 + XI ** 2) * NU ** (1.0 / 3.0)
    else:
        weight = (1.0 + XI ** 4) * NU ** (2.0 / 3.0)
    ratio = defect / weight
    C_fine = float(ratio.max())
    C_coarse = float(ratio[::2, ::2].max())
    drift = abs(C_fine - C_coarse) / C_fine if C_fine > 0 else 0.0
    # fixed-xi decay slope of the defect as nu -> 0 (regular: >= 1/3)
    j1 = int(np.argmin(np.abs(xis - 1.0)))
    lo = nus <= 1e-3
    slope = float(np.polyfit(np.log(nus[lo]),
                             np.log(np.abs(defect[lo, j1]) + 1e-300), 1)[0])
    return {"C": C_fine, "C_coarse": C_coarse, "drift": drift,
            "drift_ok": bool(drift < drift_tol),
            "defect_slope_at_xi1": slope}


def verify_remainder_envelope(transform: KernelTransform,
                              drift_tol: float = 0.10) -> dict:
    """Fitted C in |remainder| <= C nu^p/(1+|xi k|)^q (p,q = 7/3,4 or 2,2)."""
    nus = transform.coeffs.nu_grid
    k = np.asarray(gc.k_of_nu(nus))
    zk = np.abs(np.outer(k, transform.xi_grid))
    if transform.kind == "regular":
        weight = nus[:, None] ** (7.0 / 3.0) / (1.0 + zk) ** 4
    else:
        weight = nus[:, None] ** 2 / (1.0 + zk) ** 2
    ratio = np.abs(transform.ghat) / weight
    C_fine = float(ratio.max())
    C_coarse = float(ratio[::2, ::2].max())
    drift = abs(C_fine - C_coarse) / C_fine if C_fine > 0 else 0.0
    return {"C": C_fine, "C_coarse": C_coarse, "drift": drift,
            "drift_ok": bool(drift < drift_tol)}


def verify_energy_inequality(transform: KernelTransform,
                             xis=(0.5, 3.0, 40.0)) -> dict:
    """E(nu) = y'^2 + k'^2 xi^2 y^2 <= nu * int of forcing^2 along columns.

    atol resolves |y| ~ 1e-17 at the regular grid's small nu, where the
    ratio peaks, so the ratio is measured, not integrator error."""
    coeffs = transform.coeffs
    name, lam = _kind(transform.kind).forcing
    xis = np.asarray(xis, dtype=float)
    nu, y, yp = integrate_remainder(transform.kind, coeffs, xis, atol=1e-22)
    kp = np.asarray(gc.kprime_of_nu(nu))[:, None]
    kv = np.asarray(gc.k_of_nu(nu))[:, None]
    E = yp ** 2 + (kp * xis) ** 2 * y ** 2
    F2 = (coeffs.columns[name][:, None] / coeffs.calibration
          * kb.fhat(lam, xis * kv)) ** 2 * coeffs.calibration ** 2
    cum = np.concatenate([np.zeros((1, len(xis))), np.cumsum(
        0.5 * (F2[1:] + F2[:-1]) * np.diff(nu)[:, None], axis=0)])
    bound = nu[:, None] * cum
    worst = float(np.max(E[1:] / np.maximum(bound[1:], 1e-300)))
    return {"max_ratio": worst, "pass": bool(worst <= 1.0 + 1e-6)}


def verify_pde_residual(transform: KernelTransform,
                        nus=(2e-3, 1e-2, 5e-2), xis=(0.7, 4.0, 25.0)) -> dict:
    """Generator-equation residual of the assembled transform.

    The coefficient part is differentiated analytically (jet rows supply
    alpha/beta second derivatives, the basis derivatives are closed
    forms), so its residual against -forcing isolates formula errors at
    the 1e-12 level.  The remainder column is validated by re-integration
    at 100x tighter tolerance.
    """
    coeffs = transform.coeffs
    model = CoefficientModel(gc.GasChart(nu_star=coeffs.nu_star),
                             c0=C0_PAPER, d0=D0_CALIBRATED)
    nus = np.asarray(nus, dtype=float)
    k = np.asarray(gc.k_of_nu(nus))
    kp = np.asarray(gc.kprime_of_nu(nus))
    kpp = np.asarray(gc.kdoubleprime_of_nu(nus))
    cols = model.rows(transform.kind, nus)
    worst = 0.0

    def second_derivative(A, Ap, App, lam, xi):
        z = xi * k
        f, f1, f2 = kb.fhat(lam, z), kb.fhat_d1(lam, z), kb.fhat_d2(lam, z)
        val = A * f
        dd = App * f + 2.0 * Ap * xi * kp * f1 \
            + A * (xi * kpp * f1 + (xi * kp) ** 2 * f2)
        return val, dd

    if transform.kind == "regular":
        for xi in xis:
            v0, d0_ = second_derivative(cols["alpha0"], cols["alpha0p"],
                                        cols["alpha0pp"], 1, xi)
            v1, d1_ = second_derivative(cols["alpha1"], cols["alpha1p"],
                                        cols["alpha1pp"], 2, xi)
            resid = (d0_ + d1_) + (kp * xi) ** 2 * (v0 + v1) \
                + cols["ell"] * kb.fhat(2, xi * k)
            scale = np.maximum(np.abs((kp * xi) ** 2 * (v0 + v1)), 1.0)
            worst = max(worst, float(np.max(np.abs(resid / scale))))
    else:
        b0, b0p, b0pp = cols["beta0"], cols["beta0p"], cols["beta0pp"]
        b1, b1p, b1pp = cols["beta1"], cols["beta1p"], cols["beta1pp"]
        b2, b2p, b2pp = cols["beta2"], cols["beta2p"], cols["beta2pp"]
        A1 = b1 * k ** 2
        A1p = b1p * k ** 2 + 2 * b1 * kp * k
        A1pp = b1pp * k ** 2 + 4 * b1p * kp * k + 2 * b1 * (kpp * k + kp ** 2)
        A2 = b2 * k ** 4
        A2p = b2p * k ** 4 + 4 * b2 * kp * k ** 3
        A2pp = b2pp * k ** 4 + 8 * b2p * kp * k ** 3 \
            + 4 * b2 * (kpp * k ** 3 + 3 * kp ** 2 * k ** 2)
        for xi in xis:
            v0, d0_ = second_derivative(b0, b0p, b0pp, -2, xi)
            v1, d1_ = second_derivative(A1, A1p, A1pp, -1, xi)
            v2, d2_ = second_derivative(A2, A2p, A2pp, 0, xi)
            resid = (d0_ + d1_ + d2_) + (kp * xi) ** 2 * (v0 + v1 + v2) \
                + cols["ell2"] * kb.fhat(0, xi * k)
            scale = np.maximum(np.abs((kp * xi) ** 2 * (v0 + v1 + v2)), 1.0)
            worst = max(worst, float(np.max(np.abs(resid / scale))))
    # remainder validation by tolerance refinement
    xr = np.asarray(xis[:2], dtype=float)
    _, y, _ = integrate_remainder(transform.kind, coeffs, xr)
    _, y2, _ = integrate_remainder(transform.kind, coeffs, xr,
                                   rtol=1e-12, atol=1e-16)
    rem_drift = float(np.max(np.max(np.abs(y - y2), axis=0)
                             / np.maximum(np.max(np.abs(y2), axis=0), 1e-300)))
    return {"max_relative_residual": worst,
            "remainder_refinement_drift": rem_drift}


def verify_kernel(transform: KernelTransform) -> dict:
    """Full estimate report for a built kernel table."""
    rep = {
        "kind": transform.kind,
        "nu_star": transform.nu_star,
        "calibration": transform.coeffs.calibration,
        "normalization": transform.coeffs.normalization,
        "normalization_paper": transform.coeffs.normalization_paper,
        "initial_data": transform.limit_estimates(),
        "cancellation": verify_cancellation(transform),
        "remainder_envelope": verify_remainder_envelope(transform),
        "energy_inequality": verify_energy_inequality(transform),
    }
    tol = 1e-4
    ok = rep["cancellation"]["drift_ok"] and rep["remainder_envelope"]["drift_ok"]
    for rec in rep["initial_data"]:
        if transform.kind == "regular":
            ok &= abs(rec["H_limit"]) < tol
            ok &= abs(rec["Hnu_limit"] - 1.0) < tol
        else:
            ok &= abs(rec["H_limit"] - 1.0) < tol
            xi2 = rec["xi"] ** 2
            ok &= abs(rec["rhoHnu_limit"] - xi2) < tol * (1.0 + xi2)
    rep["pass"] = bool(ok and rep["energy_inequality"]["pass"])
    return rep


# ----------------------------------------------------------------------
# Smoothing (physical-space evaluation through a mollifier)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSmoother:
    """Gaussian test function of width w (standard deviation w/2).

    phi(s) = N(0, (w/2)^2) density, phi_hat(xi) = exp(-(w/2)^2 xi^2 / 2).
    The criterion window |s| <= k + 3w then sits six standard deviations
    out, where the intrinsic tail mass is ~1e-9.
    """
    width: float

    @property
    def sigma(self) -> float:
        return self.width / 2.0

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        sig = self.sigma
        return np.exp(-0.5 * (s / sig) ** 2) / (sig * np.sqrt(2.0 * np.pi))

    def phi_hat(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-0.5 * (self.sigma * xi) ** 2)

    def xi_cutoff(self, tail: float = 1e-12) -> float:
        return float(np.sqrt(-2.0 * np.log(tail)) / self.sigma)


# Fourier quadrature of the smoothed kernels: composite Simpson on an odd
# number of points.  Pairs are taken in blocks of at most _VALUE_BLOCK
# distinct nu; within a block the trig factor is evaluated for at most
# _VALUE_BLOCK distinct s at a time and pairs are summed _PAIR_BLOCK at a
# time, so memory stays O((2 _VALUE_BLOCK + 2 _PAIR_BLOCK) * _N_XI)
# whatever the number of pairs.
_N_XI = 4097
_VALUE_BLOCK = 32
_PAIR_BLOCK = 64


def _id_blocks(ids, n_ids: int, size: int):
    """Group positions by blocks of `size` consecutive ids in range(n_ids):
    yields (first id of the block, positions of its ids in id order)."""
    order = np.argsort(ids, kind="stable")
    cuts = np.searchsorted(ids[order], np.arange(0, n_ids + size, size))
    for first, lo, hi in zip(range(0, n_ids, size), cuts[:-1], cuts[1:]):
        yield first, order[lo:hi]


@dataclass
class SmoothedKernel:
    """Physical-space samples of the kernel convolved with a test function.

    Every value is a cosine or sine quadrature of the tabulated transform
    against phi_hat (convolved_pairs); extra s-derivatives fall on the
    test function, so derivatives up to any order are exact images of
    the transform.  values holds H*phi on the (nu_grid, s_grid) tensor
    grid.

    Cost model of convolved_pairs: Hhat (or Hhat_nu) is evaluated once
    per distinct nu on the _N_XI quadrature nodes, and the trig factor
    once per distinct s among the pairs of each block of _VALUE_BLOCK
    distinct nu; a tensor grid with at most _VALUE_BLOCK nu values and
    n_s s values costs n_nu transform rows, n_s trig rows and one
    product-and-sum per pair.  The unweighted rows of the last block of
    distinct nu are kept, one set for Hhat and one for Hhat_nu (at most
    _VALUE_BLOCK rows each), for as long as this object lives: later calls
    on the same nu, for any s-derivative order and any s, reuse them
    until a call on other nu replaces them.
    """

    transform: KernelTransform
    phi: GaussianSmoother
    s_grid: np.ndarray
    nu_grid: np.ndarray
    values: np.ndarray        # H*phi on (nu, s)
    # nu_deriv -> (quadrature nodes, distinct nu, unweighted rows)
    _rows_kept: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def _rows(self, nu, xi, nu_deriv: int) -> np.ndarray:
        """Hhat or Hhat_nu at the distinct nu (sorted) on the nodes xi."""
        kept = self._rows_kept.get(nu_deriv)
        if kept is not None and np.array_equal(kept[0], xi) \
                and np.array_equal(kept[1], nu):
            return kept[2]
        tr = self.transform
        transform = tr.Hhat_nu if nu_deriv else tr.Hhat
        rows = transform(nu[:, None], xi[None, :])
        self._rows_kept[nu_deriv] = (xi, nu, rows)
        return rows

    def convolved_pairs(self, nu_flat, s_flat, s_deriv: int = 0,
                        nu_deriv: int = 0):
        """( d^j/ds^j [H or H_nu] * phi )(nu_i, s_i) on matched pairs.

        Hhat is even in xi, so with j = s_deriv

            d^j/ds^j (H*phi)(nu, s)
                = (1/pi) int_0^inf Hhat(nu, xi) phi_hat(xi) xi^j
                  cos(s xi + j pi/2) dxi,

        where cos(x + j pi/2) is one of cos, -sin, -cos, sin.  Each pair's
        value is the sum over the xi nodes of trig(s xi) times the
        weighted row of its nu; rows and trig factors are each evaluated
        once per distinct nu and s (see the class docstring).
        """
        tr = self.transform
        xi_top = min(self.phi.xi_cutoff(), 2.0 * tr.xi_grid[-1])
        xi = np.linspace(0.0, xi_top, _N_XI)
        simpson = np.full(_N_XI, 2.0)
        simpson[1::2] = 4.0
        simpson[0] = simpson[-1] = 1.0
        sign = (1.0, -1.0, -1.0, 1.0)[s_deriv % 4]
        trig = np.sin if s_deriv % 2 else np.cos
        weight = simpson * self.phi.phi_hat(xi) * xi ** s_deriv \
            * (sign * (xi[1] - xi[0]) / (3.0 * np.pi))
        nu_flat = np.asarray(nu_flat, dtype=float).ravel()
        s_flat = np.asarray(s_flat, dtype=float).ravel()
        out = np.empty(nu_flat.size)
        nu_u, nu_inv = np.unique(nu_flat, return_inverse=True)
        for first, idx in _id_blocks(nu_inv, nu_u.size, _VALUE_BLOCK):
            rows = self._rows(nu_u[first:first + _VALUE_BLOCK], xi,
                              nu_deriv) * weight
            s_u, s_inv = np.unique(s_flat[idx], return_inverse=True)
            for s0, sel in _id_blocks(s_inv, s_u.size, _VALUE_BLOCK):
                osc_s = np.multiply.outer(s_u[s0:s0 + _VALUE_BLOCK], xi)
                trig(osc_s, out=osc_s)
                for p in range(0, sel.size, _PAIR_BLOCK):
                    chunk = sel[p:p + _PAIR_BLOCK]
                    osc = osc_s[s_inv[chunk] - s0]
                    osc *= rows[nu_inv[idx[chunk]] - first]
                    out[idx[chunk]] = osc.sum(axis=1)
        return out

    def on_grid(self, s_deriv: int = 0, nu_deriv: int = 0) -> np.ndarray:
        """convolved_pairs on the (nu_grid, s_grid) tensor grid."""
        NU, S = np.meshgrid(self.nu_grid, self.s_grid, indexing="ij")
        return self.convolved_pairs(NU, S, s_deriv, nu_deriv).reshape(
            NU.shape)


def smooth_kernel(transform: KernelTransform,
                  phi: GaussianSmoother | float | None = None,
                  s_grid: np.ndarray | None = None,
                  nu_grid: np.ndarray | None = None) -> SmoothedKernel:
    """Sample H*phi on physical (nu, s) grids."""
    if phi is None:
        phi = GaussianSmoother(gc.k_of_nu(transform.nu_star) / 6.0)
    elif not isinstance(phi, GaussianSmoother):
        phi = GaussianSmoother(float(phi))
    k_star = gc.k_of_nu(transform.nu_star)
    if s_grid is None:
        s_max = k_star + 8.0 * phi.width
        s_grid = np.linspace(-s_max, s_max, 321)
    if nu_grid is None:
        nu_grid = np.geomspace(transform.nu_min * 10, transform.nu_star, 12)
    sk = SmoothedKernel(transform, phi, np.asarray(s_grid),
                        np.asarray(nu_grid), None)
    sk.values = sk.on_grid()
    return sk


def huygens_leakage(sk: SmoothedKernel) -> float:
    """Max over nu of the |H*phi| mass fraction outside |s| <= k(nu) + 3w."""
    worst = 0.0
    for i, nu in enumerate(sk.nu_grid):
        kv = gc.k_of_nu(nu)
        prof = np.abs(sk.values[i])
        total = np.trapezoid(prof, sk.s_grid)
        outside = np.abs(sk.s_grid) > kv + 3.0 * sk.phi.width
        leak = np.trapezoid(np.where(outside, prof, 0.0), sk.s_grid)
        if total > 0:
            worst = max(worst, leak / total)
    return float(worst)


def smoothing_compactness_report(sk: SmoothedKernel) -> dict:
    """Fitted constants of the smoothed compactness estimates.

    sup_s |d^j/ds^j (rho H_nu + H_ss)*phi| <= C phi rho(nu) and
    |d^j/ds^j (rho H_nu)*phi| + |d^j/ds^j H_s*phi| <= C, j = 0,1,2.
    """
    rho = np.asarray(gc.rho_of_nu(sk.nu_grid))[:, None]
    H_s = {d: sk.on_grid(d) for d in (1, 2, 3, 4)}
    out = {}
    for j in (0, 1, 2):
        rho_Hnu = rho * sk.on_grid(j, 1)
        comb = rho_Hnu + H_s[j + 2]
        out[f"C_combination_j{j}"] = float(np.max(np.abs(comb) / rho))
        out[f"C_rho_Hnu_j{j}"] = float(np.abs(rho_Hnu).max())
        out[f"C_Hs_j{j}"] = float(np.abs(H_s[j + 1]).max())
    out["huygens_leakage"] = huygens_leakage(sk)
    return out
