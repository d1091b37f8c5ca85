"""Construction of the two fundamental generator kernels in Fourier space.

Both kernels solve  Hhat_nunu + k'(nu)^2 xi^2 Hhat = 0  with delta-type
data at the vacuum and are built as a short basis expansion plus a
remainder,

    Hhat = sum A(nu) k^p fhat_lam(xi k) + remainder,

    regular:   (alpha0, 0, 1), (alpha1, 0, 2)             + ghat
    singular:  (beta0, 0, -2), (beta1, 2, -1), (beta2, 4, 0) + hhat

as (A, p, lam) triples, where the coefficient functions obey first-order
ODEs with closed-form or quadrature solutions,

    alpha0 = c0 k^2 k'^(-1/2)
    alpha1 = -(1/8) k^3 k'^(-1/2) * int_0^nu k^-2 k'^(-1/2) alpha0'' dtau
    beta0  = d0 k^(-1) k'^(-1/2)
    beta1  = (1/4) k^-2 k'^(-1/2) * int_0^nu beta0'' k k'^(-1/2) dtau
    beta2  = -(1/4) k^-3 k'^(-1/2) * int_0^nu ell1 k'^(-1/2) dtau,

and the remainders solve   y'' + k'^2 xi^2 y = forcing(nu, xi)  with zero
data at the vacuum, forcing ell(nu) fhat_2(xi k) (regular) or
ell2(nu) fhat_0(xi k) (singular).

Everything that differs between the kinds is data in KINDS, these
triples included: Hhat, Hhat_nu and the generator-equation residual
read the one expansion list, differentiated by the product rule and the
basis relations _Z_DFHAT.

Evaluating the coefficient combinations near nu = 0 in closed form loses
all digits (they are small residues of nu^(-1)-size terms).  So each
kind's chain of formulas (regular_chain, singular_chain) is written once
and evaluated in two truncated-series arithmetics: as cube-root series
below the switch point and as Taylor jets of the closed forms above it.
Just above the switch the two agree to <= 2e-12 for alpha0, alpha1 and
beta0.  The beta2 chain departs by up to 4.3e-8 (beta2'' at nu = 2.2e-3
on the default grid; 5.9e-8 on 30 nodes from 1e-3 to 2.3e-3, where
splining J between the nodes gave 5.94e-8 and the panels' own Gauss
integration gives 5.93e-8).  The cause of that departure is not known.

A kernel table stores each fact once: KernelTransform holds the kind,
the xi grid and the remainder tables ghat, ghat_nu, ghat_xi, ghat_nuxi,
its CoefficientTable the nu grid, the columns and the calibration.
nu_star (the last nu node) and both normalizations are derived.  The
constructor is the one check of a table, built, rescaled or loaded: a
known kind, exactly its column names, nu and xi grids of at least 2
finite, strictly increasing values with nu > 0 and xi >= 0, a nu grid
that spans NU_CALIBRATION/8 ... NU_CALIBRATION, shapes that match the
grids, and finite columns, remainders and calibration.  Each breach
raises KernelTableError naming its section.

A `.cavk` file (version 3) is the prefix struct "<5sBBIId" (magic
"CAVK1", version 3, the kind's index in KINDS, n_nu, n_xi, calibration),
then as little-endian doubles the nu grid, the xi grid, the kind's
columns in `_table_columns` order and the remainders in `_REMAINDERS`
order, then the CRC-32 of every byte before it.  The prefix fixes the
file's size, which is checked before anything is read, and the CRC-32
covers every stored number; a file that fails either, or the
constructor, raises KernelTableError naming the file.

Every stored number is checked against the file by the CRC-32, and
every stored array against its equation by verify_kernel.  A table keeps
each expansion coefficient A with A' and A'' (suffixes "p", "pp") and
the forcing column (ell or ell2), nothing else: Hhat reads A and Hhat_nu
reads A', the remainder ODE reads the forcing, and generator_residual,
part of verify_kernel, reads all of them on every nu row;
verify_energy_inequality compares all four remainder tables with the
remainder ODE on three xi columns.  What the chains compute on the way
(the integrals I, J, K and the singular chain's ell1) is not stored.

The jet branch is evaluated on whole node arrays at once: a TaylorJet
keeps its Taylor coefficients on the last axis of ``c`` and one base
point per entry of the leading axes, so each stage (the Gauss nodes of
all quadrature panels, the grid rows above the switch) is one chart solve
and one batch of jet recurrences, looping over the jet order only.

The stack needs numpy only, and so does a whole `cavlab kernel build`
or `kernel verify` process: no module it imports loads scipy.  The
remainder ODE is integrated by cavlab._dop853, a port of the
Dormand-Prince 8(5,3) stepper with its dense output (Hairer, Norsett &
Wanner, Solving ODEs I, Sec. II.10) that takes scipy's
solve_ivp(method="DOP853") steps, and every interpolant (k, k' and the
forcing in the remainder ODE, the table columns in log nu) is a
not-a-knot cavlab._spline.CubicSpline.
"""

from __future__ import annotations

import os
import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _dop853
from . import gaschart as gc
from . import kernelbasis as kb
from ._spline import CubicSpline
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
NU_MIN_FACTOR = 1e-8
XI_LINEAR_FACTOR = 4.0
# upper nu of the Richardson pair (nu, nu/8) at which limit_estimates
# reads the vacuum data for the calibration; a table must reach it
NU_CALIBRATION = 1e-7


@dataclass(frozen=True)
class GridSpec:
    """Grids for the kernel tables.

    nu: log-spaced on [NU_MIN_FACTOR*nu_star, nu_star].  xi >= 0: linear
    up to XI_LINEAR_FACTOR/k(nu_star), then log-spaced up to
    xi_max_factor/k(nu_star); negative xi by evenness.
    """
    n_nu: int = 241
    n_xi_linear: int = 49
    n_xi_log: int = 200
    xi_max_factor: float = 200.0

    def __post_init__(self):
        if np.any(np.diff(self.xi_grid(1.0)) <= 0.0):
            raise ValueError("xi grid is not strictly increasing: it needs "
                             f"XI_LINEAR_FACTOR ({XI_LINEAR_FACTOR:g})"
                             f" < xi_max_factor ({self.xi_max_factor:g})")

    def nu_grid(self, nu_star: float) -> np.ndarray:
        return np.geomspace(NU_MIN_FACTOR * nu_star, nu_star, self.n_nu)

    def xi_grid(self, k_star: float) -> np.ndarray:
        xi_lin = np.linspace(0.0, XI_LINEAR_FACTOR / k_star,
                             self.n_xi_linear)
        xi_log = np.geomspace(XI_LINEAR_FACTOR / k_star,
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
    forcing: tuple    # (column, fhat order) of the remainder ODE
    expansion: tuple  # (column A, p, lam): the terms A k^p fhat_lam(xi k)
    normalization: float  # c0 or d0 of the chain
    normalization_paper: float
    vacuum: tuple     # (H0, key, m): Hhat -> H0, rho^m Hhat_nu -> xi^(2m)
    calibrate_on: str  # the limit_estimates entry calibrated to 1
    cancellation: tuple  # (a, b): weight (1 + xi^a) nu^b
    envelope: tuple      # (p, q): weight nu^p / (1 + |xi k|)^q


# Each kind as data, with the expansion Hhat = sum A k^p fhat_lam(xi k)
# + remainder that every evaluation and verification reads
KINDS = {
    "regular": _Kind(
        regular_chain, ("ell", 2), (("alpha0", 0, 1), ("alpha1", 0, 2)),
        C0_PAPER, C0_PAPER, (0.0, "Hnu", 0), "Hnu_limit", (2, 1.0 / 3.0),
        (7.0 / 3.0, 4)),
    "singular": _Kind(
        singular_chain, ("ell2", 0),
        (("beta0", 0, -2), ("beta1", 2, -1), ("beta2", 4, 0)),
        D0_CALIBRATED, D0_PAPER, (1.0, "rhoHnu", 1), "H_limit",
        (4, 2.0 / 3.0), (2, 2)),
}

# z fhat_lam'(z) = sum c z^j fhat_mu(z) over the (c, mu, j) of order lam:
# first-derivative relations of kernelbasis.check_recurrences that stay
# within the orders {-2, -1, 0} or {0, 1, 2} of one kind
_Z_DFHAT = {
    2: ((4.0, 1, 0), (-5.0, 2, 0)),
    1: ((2.0, 0, 0), (-3.0, 1, 0)),
    0: ((2.0, -1, 0), (-1.0, 0, 0)),
    -1: ((-0.5, 0, 2),),
    -2: ((0.5, -1, 2),),
}


def _table_columns(spec: _Kind) -> list:
    """(column, function, j) for every column of a kind's table: each
    coefficient A of the expansion with its first two nu-derivatives, the
    j-th named with the suffix "", "p" or "pp", and the forcing."""
    name = spec.forcing[0]
    return [(A + suffix, A, j) for A, _, _ in spec.expansion
            for j, suffix in enumerate(("", "p", "pp"))] + [(name, name, 0)]


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

    def __init__(self, chart: gc.GasChart):
        k, _rho = characteristic_series()
        kp = k.dnu()
        s = {"k": k, "kp": kp, "kpp": kp.dnu()}
        for kind, spec in KINDS.items():
            s.update(spec.chain(spec.normalization, k, kp,
                                lambda _name, f: f.integrate0()))
            s.update({name + "p": s[name].dnu()
                      for name, _, _ in spec.expansion})
        self.series = {name: ser.compact() for name, ser in s.items()}
        self._nu_switch = min(NU_SERIES_SWITCH, 0.9 * chart.nu_star)
        self._start = {name: float(s[name](self._nu_switch))
                       for name in ("I", "J", "K")}

    def _jets(self, kind: str, nu) -> dict:
        """The chain's jets at the nodes nu (ascending, above the switch).

        A first pass at order _NODE_ORDER runs on the Gauss nodes of the
        panels [switch, nu_0], [nu_0, nu_1], ...: each integral sums its
        integrand's node values from the series value at the switch, and
        at the Gauss nodes it is the panel's start value plus the
        integral of the integrand's interpolating polynomial on the
        panel (S below), which the chain's later integrands read (ell1
        reads J).  The second pass, at _JET_ORDER on nu, takes the sums
        as the integrals' values.
        """
        chain, norm = KINDS[kind].chain, KINDS[kind].normalization
        starts = np.concatenate([[self._nu_switch], nu[:-1]])
        mid, half = 0.5 * (starts + nu), 0.5 * (nu - starts)
        leg = np.polynomial.legendre
        x, w = leg.leggauss(_GAUSS_NODES)
        nodes = mid[:, None] + half[:, None] * x
        # S f: the integrals from -1 to each x of the polynomial through
        # the values f at the nodes x, S = Q V^-1 with V the Vandermonde
        # matrix and Q the node values of the integrated basis
        vander = leg.legvander(x, _GAUSS_NODES - 1)
        basis_integrals = leg.legvander(x, _GAUSS_NODES) @ leg.legint(
            np.eye(_GAUSS_NODES), lbnd=-1)
        S = np.linalg.solve(vander.T, basis_integrals.T).T
        sums = {}

        def on_nodes(name, integrand):
            f = integrand.c[..., 0]
            panels = half * np.sum(w * f, axis=1)
            vals = np.cumsum(np.concatenate([[self._start[name]], panels]))
            sums[name] = vals[1:]
            return integrand.integral(vals[:-1, None]
                                      + half[:, None] * (f @ S.T))

        def chart_jets(at, order):
            return speed_coefficient_jets(gc.rho_of_nu(at), gc.k_of_nu(at),
                                          order)

        chain(norm, *chart_jets(nodes, _NODE_ORDER), on_nodes)
        return chain(norm, *chart_jets(nu, _JET_ORDER),
                     lambda name, f: f.integral(sums[name]))

    def rows(self, kind: str, nu_grid: np.ndarray) -> dict:
        """The columns of kind's table on an ascending nu grid: each
        expansion coefficient with its first two derivatives, and the
        forcing, from the series below the switch and from the jets above
        it.
        """
        spec = _kind(kind)
        nu_grid = np.asarray(nu_grid, dtype=float)
        upper = nu_grid >= self._nu_switch
        jets = self._jets(kind, nu_grid[upper]) if upper.any() else {}
        cols = {}
        for column, name, j in _table_columns(spec):
            ser = (self.series[name].dnu().dnu() if j == 2
                   else self.series[column])
            col = np.empty_like(nu_grid)
            col[~upper] = ser(nu_grid[~upper])
            if jets:
                col[upper] = jets[name].derivative(j)
            cols[column] = col
        return cols


# ----------------------------------------------------------------------
# Coefficient tables
# ----------------------------------------------------------------------

@dataclass
class CoefficientTable:
    """The columns of a kind's table on its nu grid, and the calibration
    factor they carry; nu_star and the normalization follow from these."""
    nu_grid: np.ndarray
    columns: dict
    calibration: float = 1.0

    def scaled(self, factor: float) -> "CoefficientTable":
        cols = {k: v * factor for k, v in self.columns.items()}
        return CoefficientTable(self.nu_grid, cols, self.calibration * factor)


def _coefficient_table(kind: str, chart: gc.GasChart,
                       grid: GridSpec) -> CoefficientTable:
    nu_grid = grid.nu_grid(chart.nu_star)
    return CoefficientTable(nu_grid,
                            CoefficientModel(chart).rows(kind, nu_grid))


def build_regular_coeffs(chart: gc.GasChart,
                         grid: GridSpec = GridSpec()) -> CoefficientTable:
    """Regular-kernel coefficient functions on the log nu grid."""
    return _coefficient_table("regular", chart, grid)


def build_singular_coeffs(chart: gc.GasChart,
                          grid: GridSpec = GridSpec()) -> CoefficientTable:
    """Singular-kernel coefficient functions on the log nu grid."""
    return _coefficient_table("singular", chart, grid)


# ----------------------------------------------------------------------
# Remainder ODE
# ----------------------------------------------------------------------

def integrate_remainder(kind: str, coeffs: CoefficientTable, xi,
                        rtol: float = 1e-10, atol: float = 1e-14,
                        with_xi_derivative: bool = False):
    """Solve y'' + k'^2 xi^2 y = forcing, y = y' = 0 at nu_grid[0], for all xi.

    forcing = ell(nu) fhat_2(xi k) (regular) or ell2(nu) fhat_0(xi k)
    (singular), as KINDS names it.  The columns share k, k' and the
    forcing profile, so they are integrated together as one stacked
    state by the DOP853 stepper of cavlab._dop853: each right-hand side
    reads k, k' and the forcing from scalar spline evaluations and
    evaluates the basis function once on the whole vector xi k.  rtol and
    atol hold for each column, as in a solve of its own.  Returns
    (nu_grid, y, y'), each solution of shape (n_nu,) + shape(xi).
    Truncating the launch at nu_grid[0] is admissible because
    |y| = O(nu^(7/3)) there.  A failed integration raises RuntimeError
    naming every xi.

    with_xi_derivative=True augments the system with u = dy/dxi, which
    solves u'' + k'^2 xi^2 u = d(forcing)/dxi - 2 xi k'^2 y, and returns
    (nu_grid, y, y', u, u').
    """
    name, lam = _kind(kind).forcing
    xi = np.asarray(xi, dtype=float)
    x = xi.ravel()
    n = x.size
    # smooth interpolants in w = nu^(1/3): k and k' on shared knots, and
    # the forcing column
    nu_grid = coeffs.nu_grid
    w = np.linspace((1e-10 * nu_grid[-1]) ** (1 / 3),
                    nu_grid[-1] ** (1 / 3), 1200)
    k_of_w = CubicSpline(w, gc.k_of_nu(w ** 3))
    kp_of_w = CubicSpline(w, gc.kprime_of_nu(w ** 3))
    forcing = CubicSpline(nu_grid ** (1 / 3), coeffs.columns[name])
    n_parts = 4 if with_xi_derivative else 2

    def rhs(nu, Y):
        w = nu ** (1 / 3)
        k, kp, ell = k_of_w(w), kp_of_w(w), forcing(w)
        om2 = (kp * x) ** 2
        y = Y[:n]
        parts = [Y[n:2 * n], ell * kb.fhat(lam, x * k) - om2 * y]
        if with_xi_derivative:
            fx = ell * k * kb.fhat_d1(lam, x * k)
            parts += [Y[3 * n:],
                      fx - om2 * Y[2 * n:3 * n] - 2.0 * x * kp * kp * y]
        return np.concatenate(parts)

    # the stepper bounds the RMS of the scaled error over the whole state,
    # which lets one component reach sqrt(size) times the tolerance;
    # shrinking both tolerances by that factor keeps every column within
    # rtol/atol
    shrink = np.sqrt(n_parts * n)
    try:
        sol = _dop853.solve(rhs, nu_grid[0], nu_grid[-1],
                            np.zeros(n_parts * n), nu_grid, rtol / shrink,
                            atol / shrink)
    except _dop853.StepSizeError as exc:
        raise RuntimeError(
            "remainder integration failed at xi="
            f"{', '.join(map(repr, x.tolist()))}: {exc}") from exc
    shape = (len(nu_grid),) + xi.shape
    return (nu_grid.copy(), *(np.ascontiguousarray(sol[i * n:(i + 1) * n].T)
                              .reshape(shape) for i in range(n_parts)))


# ----------------------------------------------------------------------
# Assembled transform
# ----------------------------------------------------------------------

MAGIC = b"CAVK1"
_TABLE_VERSION = 3
# magic, version, kind byte (index in KINDS), n_nu, n_xi, calibration
_PREFIX = struct.Struct("<5sBBIId")
_REMAINDERS = ("ghat", "ghat_nu", "ghat_xi", "ghat_nuxi")


class KernelTableError(ValueError):
    """A kernel table, built or read, that breaks the table contract (see
    the module docstring), or a table file that is truncated, padded or
    not a table."""


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
        """The table contract of the module docstring, in section order."""
        if self.kind not in KINDS:
            raise KernelTableError(
                f"section kind names no kind: {self.kind!r}")
        cols = self.coeffs.columns
        expected = sorted(c for c, _, _ in _table_columns(KINDS[self.kind]))
        if sorted(cols) != expected:
            raise KernelTableError(
                f"section columns holds {sorted(cols)}, not the "
                f"{self.kind} table's {expected}")
        nu, xi = self.coeffs.nu_grid, self.xi_grid
        # the splines in log nu and the xi brackets of the remainder read
        # the grids so
        for section, grid, least, lowest_ok in (
                ("nu grid", nu, "> 0", nu[:1] > 0),
                ("xi grid", xi, ">= 0", xi[:1] >= 0)):
            if not (len(grid) >= 2 and lowest_ok.all()
                    and np.all(np.isfinite(grid))
                    and np.all(np.diff(grid) > 0)):
                raise KernelTableError(
                    f"section {section} is not at least 2 finite values "
                    f"{least}, strictly increasing")
        if not nu[0] <= NU_CALIBRATION / 8.0 or not nu[-1] >= NU_CALIBRATION:
            raise KernelTableError(
                f"section nu grid [{nu[0]!r}, {nu[-1]!r}] does not span the "
                f"calibration pair [{NU_CALIBRATION / 8.0!r}, "
                f"{NU_CALIBRATION!r}]")
        shape = (len(nu), len(xi))
        for section, values, want in (
                *((f"column {name}", cols[name], shape[:1]) for name in cols),
                *((f"remainder {name}", getattr(self, name), shape)
                  for name in _REMAINDERS),
                ("calibration", np.asarray(self.coeffs.calibration), ())):
            if values.shape != want:
                raise KernelTableError(
                    f"section {section} has shape {values.shape}, which does "
                    f"not match the grids {want}")
            if not np.isfinite(values).all():
                raise KernelTableError(
                    f"section {section} holds a value that is not finite")
        # cubic splines in log nu, one per group of columns read together:
        # the expansion's coefficients A and their derivatives A', and the
        # remainder's values and slopes, each with its xi-derivative
        lognu = np.log(self.coeffs.nu_grid)
        cols = self.coeffs.columns
        names = [name for name, _, _ in KINDS[self.kind].expansion]
        self._coef_spl = {suffix: CubicSpline(lognu, np.column_stack(
            [cols[name + suffix] for name in names])) for suffix in ("", "p")}
        self._rem_spl = {deriv: CubicSpline(lognu, np.stack(pair, axis=1))
                         for deriv, pair in (
                             (False, (self.ghat, self.ghat_xi)),
                             (True, (self.ghat_nu, self.ghat_nuxi)))}

    @property
    def nu_star(self) -> float:
        return float(self.coeffs.nu_grid[-1])

    @property
    def nu_min(self) -> float:
        return float(self.coeffs.nu_grid[0])

    def _remainder(self, nu, xi, deriv=False):
        """Cubic-Hermite interpolation in xi of the stored remainder.

        Stored xi-derivative columns make the interpolation fourth order
        in the inter-column phase step; plain linear lookup leaks visible
        mass outside the light cone after smoothing.  The spline rows
        come from the distinct nu, the column bracket and Hermite weights
        from xi in its own shape; only the gathered values and their sum
        take the broadcast shape.
        """
        nu = np.asarray(nu, dtype=float)
        xi = np.asarray(xi, dtype=float)
        uniq, inv = np.unique(nu, return_inverse=True)
        inv = inv.reshape(nu.shape)
        both = self._rem_spl[deriv](np.log(uniq))  # (n_unique_nu, 2, n_xi)
        rows, drows = both[:, 0], both[:, 1]
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

    def _expansion(self, nu, xi, deriv: bool):
        """Sum of A k^p fhat_lam(z), z = xi k, over the kind's expansion, or
        its nu-derivative: term by term (A' k^p + p r A k^p) fhat_lam(z)
        + r A k^p z fhat_lam'(z), r = k'/k, with z fhat_lam' from _Z_DFHAT.
        The coefficients of each z^j fhat_mu are summed on nu's shape
        first, so each order's fhat is evaluated and multiplied once."""
        k = np.asarray(gc.k_of_nu(nu))
        r = np.asarray(gc.kprime_of_nu(nu)) / k if deriv else None
        lognu = np.log(nu)
        A = self._coef_spl[""](lognu)
        Ap = self._coef_spl["p"](lognu) if deriv else None
        coef = defaultdict(float)   # (order mu, power j of z) -> coefficient
        for i, (_, p, lam) in enumerate(KINDS[self.kind].expansion):
            a = A[..., i] * k ** p
            if deriv:
                coef[lam, 0] += Ap[..., i] * k ** p + p * r * a
                for c, mu, j in _Z_DFHAT[lam]:
                    coef[mu, j] += c * r * a
            else:
                coef[lam, 0] += a
        z = np.asarray(xi, dtype=float) * k

        def order_term(mu):
            term = kb.fhat(mu, z)
            if (mu, 2) in coef:   # (c0 + c2 z^2) fhat, in place
                z2 = coef[mu, 2] * z
                z2 *= z
                z2 += coef.get((mu, 0), 0.0)
                term *= z2
            else:
                term *= coef[mu, 0]
            return term
        first, *rest = sorted({mu for mu, _ in coef})
        out = order_term(first)
        for mu in rest:
            out += order_term(mu)
        return out

    def Hhat(self, nu, xi):
        nu = self._check_domain(nu)
        return self._expansion(nu, xi, False) + self._remainder(nu, xi)

    def Hhat_nu(self, nu, xi):
        """Analytic nu-derivative expansion plus the stored remainder slope."""
        nu = self._check_domain(nu)
        return (self._expansion(nu, xi, True)
                + self._remainder(nu, xi, deriv=True))

    def limit_estimates(self, xis=(0.5, 1.0, 5.0)):
        """Richardson estimates (in nu^(2/3)) of the vacuum data at
        NU_CALIBRATION.

        Corrections to the limits are O(nu^(2/3)) both through the
        coefficient expansions and through (xi k)^2; the two-point
        extrapolation (nu, nu/8) removes that whole leading order.
        Returns per-xi dicts with raw and extrapolated values of Hhat
        ("H") and of rho^m Hhat_nu (KINDS' vacuum key, "Hnu" or "rhoHnu").
        """
        _, key, m = KINDS[self.kind].vacuum
        pair = np.array([NU_CALIBRATION, NU_CALIBRATION / 8.0])
        rho_m = np.asarray(gc.rho_of_nu(pair)) ** m
        out = []
        for xi in xis:
            rec = {"xi": xi}
            for name, v in (("H", self.Hhat(pair, xi)),
                            (key, rho_m * self.Hhat_nu(pair, xi))):
                rec[name + "_raw"] = float(v[0])
                rec[name + "_limit"] = float((4.0 * v[1] - v[0]) / 3.0)
            out.append(rec)
        return out

    # ---- persistence ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write the table as `.cavk` version 3 (module docstring), one
        array at a time, with the CRC-32 of every byte before it last."""
        import zlib
        cols = self.coeffs.columns
        prefix = _PREFIX.pack(MAGIC, _TABLE_VERSION, list(KINDS).index(
            self.kind), len(self.coeffs.nu_grid), len(self.xi_grid),
            self.coeffs.calibration)
        crc = zlib.crc32(prefix)
        with open(path, "wb") as fh:
            fh.write(prefix)
            for values in (self.coeffs.nu_grid, self.xi_grid,
                           *(cols[name] for name, _, _ in
                             _table_columns(KINDS[self.kind])),
                           *(getattr(self, name) for name in _REMAINDERS)):
                values = np.ascontiguousarray(values, dtype="<f8")
                fh.write(values)
                crc = zlib.crc32(values, crc)
            fh.write(struct.pack("<I", crc))

    @classmethod
    def load(cls, path: str) -> "KernelTransform":
        """Read a table written by save.  A bad magic, version or kind
        byte, a file size other than the prefix implies (checked before
        anything is allocated) or a CRC-32 that does not match raises
        KernelTableError naming the file; the constructor checks the
        contents."""
        import zlib
        with open(path, "rb") as fh:
            prefix = fh.read(_PREFIX.size)
            if prefix[:len(MAGIC)] != MAGIC:
                raise KernelTableError(f"{path}: not a kernel table (magic "
                                       f"{prefix[:len(MAGIC)]!r})")
            if len(prefix) < _PREFIX.size:
                raise KernelTableError(f"{path}: truncated in the prefix")
            _, version, kind_id, n_nu, n_xi, calibration = \
                _PREFIX.unpack(prefix)
            if version != _TABLE_VERSION:
                raise KernelTableError(
                    f"{path}: unknown table version {version} (version "
                    f"{_TABLE_VERSION} is read; rebuild the table)")
            if kind_id >= len(KINDS):
                raise KernelTableError(f"{path}: unknown kind byte {kind_id}")
            kind = list(KINDS)[kind_id]
            columns = [name for name, _, _ in _table_columns(KINDS[kind])]
            sizes = ([n_nu, n_xi] + [n_nu] * len(columns)
                     + [n_nu * n_xi] * len(_REMAINDERS))
            size = os.fstat(fh.fileno()).st_size
            want = _PREFIX.size + 8 * sum(sizes) + 4
            if size != want:
                raise KernelTableError(
                    f"{path}: {size} bytes, not the {want} that a {kind} "
                    f"table of {n_nu} x {n_xi} takes")
            values = np.fromfile(fh, "<f8", sum(sizes))
            crc, = struct.unpack("<I", fh.read(4))
        if zlib.crc32(values, zlib.crc32(prefix)) != crc:
            raise KernelTableError(f"{path}: CRC-32 does not match")
        nu_grid, xi_grid, *rest = np.split(values, np.cumsum(sizes)[:-1])
        coeffs = CoefficientTable(nu_grid, dict(zip(columns, rest)),
                                  calibration)
        try:
            return cls(kind, coeffs, xi_grid, *(r.reshape(n_nu, n_xi)
                                                for r in rest[len(columns):]))
        except KernelTableError as exc:
            raise KernelTableError(f"{path}: {exc}") from None


# the name perfbench's self-tests build a transform by
assemble = KernelTransform


def build_kernel(kind: str, chart: gc.GasChart = gc.GasChart(),
                 grid: GridSpec = GridSpec()) -> KernelTransform:
    """Full build: coefficients, remainder sweep, assembly, calibration.

    Calibration rescales the whole (linear) construction by one scalar so
    the measured vacuum limit (Hhat_nu -> 1 regular, Hhat -> 1 singular)
    holds exactly at the Richardson estimate; the paper normalization is
    retained in the metadata.  Coefficients or a remainder that break the
    table contract raise KernelTableError.
    """
    spec = _kind(kind)
    # looked up by name at call time, so a wrapper set on the module sees it
    coeffs = globals()[f"build_{kind}_coeffs"](chart, grid)
    xi_grid = grid.xi_grid(gc.k_of_nu(chart.nu_star))
    # the remainder and its nu-, xi- and mixed derivatives on
    # (nu_grid, xi_grid), from one stacked integration
    _, *tables = integrate_remainder(kind, coeffs, xi_grid,
                                     with_xi_derivative=True)
    tr = KernelTransform(kind, coeffs, xi_grid, *tables)
    factor = 1.0 / tr.limit_estimates(xis=(0.5,))[0][spec.calibrate_on]
    return KernelTransform(kind, coeffs.scaled(factor), xi_grid,
                           *(t * factor for t in tables))


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

# largest relative drift of a fitted constant from its coarse sub-grid's
_DRIFT_TOL = 0.10


def _fitted_constant(ratio) -> dict:
    """Grid supremum C of ratio and its drift from the every-other-sample
    sub-grid's supremum."""
    C_fine = float(ratio.max())
    C_coarse = float(ratio[::2, ::2].max())
    drift = abs(C_fine - C_coarse) / C_fine if C_fine > 0 else 0.0
    return {"C": C_fine, "C_coarse": C_coarse, "drift": drift,
            "drift_ok": bool(drift < _DRIFT_TOL)}


def verify_cancellation(transform: KernelTransform) -> dict:
    """Fitted constant of the key cancellation estimate, with refinement drift.

    regular:  |rho Hhat_nu - xi^2 Hhat| <= C (1+xi^2) nu^(1/3)
    singular: |rho Hhat_nu - xi^2 Hhat| <= C (1+xi^4) nu^(2/3)

    The constant is the grid supremum over xi <= 100; stability is
    measured against the coarse (every-other-sample) sub-grid, which must
    stay within _DRIFT_TOL.
    """
    nus = transform.coeffs.nu_grid
    xis = transform.xi_grid[transform.xi_grid <= 100.0]
    NU, XI = np.meshgrid(nus, xis, indexing="ij")
    H = transform.Hhat(NU, XI)
    Hn = transform.Hhat_nu(NU, XI)
    rho = np.asarray(gc.rho_of_nu(nus))[:, None]
    defect = np.abs(rho * Hn - XI ** 2 * H)
    a, b = KINDS[transform.kind].cancellation
    # fixed-xi decay slope of the defect as nu -> 0 (regular: >= 1/3)
    j1 = int(np.argmin(np.abs(xis - 1.0)))
    lo = nus <= 1e-3
    slope = float(np.polyfit(np.log(nus[lo]),
                             np.log(np.abs(defect[lo, j1]) + 1e-300), 1)[0])
    return {**_fitted_constant(defect / ((1.0 + XI ** a) * NU ** b)),
            "defect_slope_at_xi1": slope}


def verify_remainder_envelope(transform: KernelTransform) -> dict:
    """Fitted C in |remainder| <= C nu^p/(1+|xi k|)^q (p,q = 7/3,4 or 2,2)."""
    nus = transform.coeffs.nu_grid
    k = np.asarray(gc.k_of_nu(nus))
    zk = np.abs(np.outer(k, transform.xi_grid))
    p, q = KINDS[transform.kind].envelope
    return _fitted_constant(
        np.abs(transform.ghat) / (nus[:, None] ** p / (1.0 + zk) ** q))


def verify_energy_inequality(transform: KernelTransform) -> tuple:
    """(report, remainder_mismatch) of one remainder integration on the
    stored xi columns nearest 0.5, 3 and 40.

    report: "max_ratio" of E(nu) = y'^2 + k'^2 xi^2 y^2 to its bound
    nu * int of forcing^2, and "pass".  atol resolves |y| ~ 1e-17 at the
    regular grid's small nu, where the ratio peaks, so the ratio is
    measured, not integrator error.

    remainder_mismatch: the largest difference of y, y', dy/dxi and
    dy'/dxi from the stored ghat, ghat_nu, ghat_xi and ghat_nuxi there,
    relative to each column's maximum: <= 6.3e-9 on built tables, 1e-4
    with any of the four scaled by 1 + 1e-4."""
    coeffs = transform.coeffs
    name, lam = KINDS[transform.kind].forcing
    idx = [int(np.argmin(np.abs(transform.xi_grid - x)))
           for x in (0.5, 3.0, 40.0)]
    xis = transform.xi_grid[idx]
    nu, *solved = integrate_remainder(transform.kind, coeffs, xis,
                                      atol=1e-22, with_xi_derivative=True)
    y, yp = solved[:2]
    kp = np.asarray(gc.kprime_of_nu(nu))[:, None]
    kv = np.asarray(gc.k_of_nu(nu))[:, None]
    E = yp ** 2 + (kp * xis) ** 2 * y ** 2
    F2 = (coeffs.columns[name][:, None] * kb.fhat(lam, xis * kv)) ** 2
    cum = np.concatenate([np.zeros((1, len(xis))), np.cumsum(
        0.5 * (F2[1:] + F2[:-1]) * np.diff(nu)[:, None], axis=0)])
    bound = nu[:, None] * cum
    worst = float(np.max(E[1:] / np.maximum(bound[1:], 1e-300)))
    mismatch = max(float(np.max(np.max(np.abs(got - stored[:, idx]), axis=0)
                                / np.max(np.abs(stored[:, idx]), axis=0)))
                   for got, stored in zip(solved, (
                       getattr(transform, rem) for rem in _REMAINDERS)))
    return {"max_ratio": worst, "pass": bool(worst <= 1.0 + 1e-6)}, mismatch


def generator_residual(transform: KernelTransform) -> float:
    """Largest relative generator-equation residual of the table's
    coefficient part, on every nu row of the table at xi = 0.7, 4, 25.

    Reads every stored column: A, A', A'' of each term A k^p fhat_lam of
    KINDS' expansion and the forcing column.  With the product rule and
    the closed-form basis derivatives, Hhat_nunu + k'^2 xi^2 Hhat of the
    coefficient part must equal -forcing fhat(xi k); the residual is
    measured against max(|k'^2 xi^2 Hhat|, 1).  Built tables leave
    <= 1.8e-14 (regular) and <= 2.9e-12 (singular), over the series rows
    as over the jet rows.
    """
    coeffs = transform.coeffs
    spec = KINDS[transform.kind]
    cols = {name: col[:, None] for name, col in coeffs.columns.items()}
    nu = coeffs.nu_grid[:, None]
    k, kp, kpp = (np.asarray(f(nu)) for f in (
        gc.k_of_nu, gc.kprime_of_nu, gc.kdoubleprime_of_nu))
    xi = np.array([[0.7, 4.0, 25.0]])
    z = xi * k
    H = H_nunu = 0.0
    for name, p, lam in spec.expansion:
        # B = A k^p and its first two nu-derivatives
        A, Ap, App = cols[name], cols[name + "p"], cols[name + "pp"]
        K0 = k ** p
        K1 = p * k ** (p - 1) * kp
        K2 = p * ((p - 1) * k ** (p - 2) * kp ** 2 + k ** (p - 1) * kpp)
        B, Bp, Bpp = A * K0, Ap * K0 + A * K1, App * K0 + 2 * Ap * K1 + A * K2
        f, f1, f2 = kb.fhat(lam, z), kb.fhat_d1(lam, z), kb.fhat_d2(lam, z)
        H += B * f
        H_nunu += (Bpp * f + 2.0 * Bp * xi * kp * f1
                   + B * (xi * kpp * f1 + (xi * kp) ** 2 * f2))
    name, lam = spec.forcing
    wave = (kp * xi) ** 2 * H
    resid = H_nunu + wave + cols[name] * kb.fhat(lam, z)
    return float(np.max(np.abs(resid) / np.maximum(np.abs(wave), 1.0)))


def verify_kernel(transform: KernelTransform) -> dict:
    """Full estimate report for a built kernel table.  "pass" holds when
    every vacuum limit (initial_data) is met to 1e-4, both fitted constants
    drift by less than _DRIFT_TOL, the energy ratio is at most 1 + 1e-6,
    the stored remainder matches its ODE (remainder_mismatch) to 1e-6,
    the Huygens leakage is below 1e-6 and the generator-equation residual
    (generator_residual) is below 1e-10."""
    spec = KINDS[transform.kind]
    calibration = transform.coeffs.calibration
    energy, mismatch = verify_energy_inequality(transform)
    rep = {
        "kind": transform.kind,
        "nu_star": transform.nu_star,
        "calibration": calibration,
        "normalization": spec.normalization * calibration,
        "normalization_paper": spec.normalization_paper,
        "initial_data": transform.limit_estimates(),
        "cancellation": verify_cancellation(transform),
        "remainder_envelope": verify_remainder_envelope(transform),
        "energy_inequality": energy,
        "remainder_mismatch": mismatch,
        "huygens_leakage": huygens_leakage(transform),
        "generator_residual": generator_residual(transform),
    }
    ok = (rep["cancellation"]["drift_ok"]
          and rep["remainder_envelope"]["drift_ok"]
          and rep["energy_inequality"]["pass"]
          and rep["remainder_mismatch"] <= 1e-6
          and rep["huygens_leakage"] < 1e-6
          and rep["generator_residual"] < 1e-10)
    H0, key, m = spec.vacuum
    for rec in rep["initial_data"]:
        xi2 = rec["xi"] ** 2
        ok &= abs(rec["H_limit"] - H0) < 1e-4
        ok &= abs(rec[key + "_limit"] - xi2 ** m) < 1e-4 * (1.0 + xi2) ** m
    rep["pass"] = bool(ok)
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

    def phi_hat(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-0.5 * (self.sigma * xi) ** 2)

    def xi_cutoff(self) -> float:   # phi_hat is below 1e-12 beyond it
        return float(np.sqrt(-2.0 * np.log(1e-12)) / self.sigma)

    @classmethod
    def for_kernel(cls, nu_star: float) -> GaussianSmoother:
        """The test function of a kernel tabulated up to nu_star: width
        k(nu_star)/6, as `huygens_leakage` and the kernel generators of
        `entropy` use."""
        return cls(gc.k_of_nu(nu_star) / 6.0)


# Fourier quadrature of the smoothed kernels: composite Simpson on _N_XI
# nodes, one matrix product per block of _S_BLOCK distinct s.  Every
# product has _S_BLOCK columns and a multiple of _NU_BLOCK rows (padded),
# so BLAS sums each value by one kernel whatever the size of the call,
# and a pair's value does not depend on the other pairs asked for.
_N_XI = 4097
_S_BLOCK = 32
_NU_BLOCK = 16


@dataclass
class SmoothedKernel:
    """The kernel of a transform convolved in s with a test function phi.

    Every value is a cosine or sine quadrature of the tabulated transform
    against phi_hat (convolved_pairs); extra s-derivatives fall on the
    test function, so derivatives up to any order are exact images of
    the transform.

    Cost of convolved_pairs: Hhat (or Hhat_nu) once per distinct nu on
    the quadrature nodes, the trig factor once per distinct s, and one
    product per block of _S_BLOCK distinct s giving the values of every
    (distinct nu, distinct s) pair, which is what a tensor grid asks
    for.  The block bounds memory, and 32 columns pad the 9- and 17-point
    theta grids of the entropy checks less than 64 do: on the
    kernel-tables benchmark's tables, a `cavlab kernel verify` process
    peaks at 60.6 MB and the read-back process at 64.8 MB, against 61.2
    and 65.9 MB at 64 s to a block and 70.6 and 76.4 MB with one block
    for all 321 s of huygens_leakage.  The unweighted rows of the
    last set of distinct nu are kept, one set for Hhat and one for
    Hhat_nu, for as long as this object lives: later calls on the same
    nu, for any s-derivative order and any s, reuse them until a call on
    other nu replaces them.
    """

    transform: KernelTransform
    phi: GaussianSmoother

    def __post_init__(self):
        self._rows_kept = {}   # nu_deriv -> (distinct nu, unweighted rows)
        xi_top = min(self.phi.xi_cutoff(), 2.0 * self.transform.xi_grid[-1])
        self.xi = np.linspace(0.0, xi_top, _N_XI)
        simpson = np.full(_N_XI, 2.0)
        simpson[1::2] = 4.0
        simpson[0] = simpson[-1] = 1.0
        self._simpson_phi = simpson * self.phi.phi_hat(self.xi)

    def _rows(self, nu, nu_deriv: int) -> np.ndarray:
        """Hhat or Hhat_nu at the distinct nu (sorted) on the nodes xi."""
        kept = self._rows_kept.get(nu_deriv)
        if kept is None or not np.array_equal(kept[0], nu):
            tr = self.transform
            rows = (tr.Hhat_nu if nu_deriv else tr.Hhat)(nu[:, None], self.xi)
            kept = self._rows_kept[nu_deriv] = (nu, rows)
        return kept[1]

    def convolved_pairs(self, nu_flat, s_flat, s_deriv: int = 0,
                        nu_deriv: int = 0):
        """( d^j/ds^j [H or H_nu] * phi )(nu_i, s_i) on matched pairs.

        Hhat is even in xi, so with j = s_deriv

            d^j/ds^j (H*phi)(nu, s)
                = (1/pi) int_0^inf Hhat(nu, xi) phi_hat(xi) xi^j
                  cos(s xi + j pi/2) dxi,

        where cos(x + j pi/2) is one of cos, -sin, -cos, sin.  The weighted
        rows of the distinct nu times the trig factors of the distinct s
        give every distinct pair's value, gathered to the pairs asked for
        (see the class docstring).
        """
        xi = self.xi
        sign = (1.0, -1.0, -1.0, 1.0)[s_deriv % 4]
        trig = np.sin if s_deriv % 2 else np.cos
        weight = self._simpson_phi * xi ** s_deriv \
            * (sign * (xi[1] - xi[0]) / (3.0 * np.pi))
        nu_u, nu_inv = np.unique(np.asarray(nu_flat, dtype=float).ravel(),
                                 return_inverse=True)
        s_u, s_inv = np.unique(np.asarray(s_flat, dtype=float).ravel(),
                               return_inverse=True)
        rows = np.pad(self._rows(nu_u, nu_deriv) * weight,
                      ((0, -nu_u.size % _NU_BLOCK), (0, 0)))
        values = np.empty((rows.shape[0],
                           -(-s_u.size // _S_BLOCK) * _S_BLOCK))
        # trig(s xi), a row per s of the block; rows past the last s unused
        osc = np.zeros((_S_BLOCK, _N_XI))
        for b in range(0, s_u.size, _S_BLOCK):
            s_b = s_u[b:b + _S_BLOCK]
            block = np.multiply.outer(s_b, xi, out=osc[:s_b.size])
            trig(block, out=block)
            np.matmul(rows, osc.T, out=values[:, b:b + _S_BLOCK])
        return values[nu_inv, s_inv]


def huygens_leakage(transform: KernelTransform) -> float:
    """Max over nu of the |H*phi| mass fraction outside |s| <= k(nu) + 3w,
    for the test function phi of `GaussianSmoother.for_kernel` (width
    w = k(nu_star)/6), at 12 nu log-spaced on [10 nu_min, nu_star] and
    321 s evenly spaced on |s| <= k(nu_star) + 8w."""
    phi = GaussianSmoother.for_kernel(transform.nu_star)
    s_max = gc.k_of_nu(transform.nu_star) + 8.0 * phi.width
    s = np.linspace(-s_max, s_max, 321)
    nus = np.geomspace(transform.nu_min * 10, transform.nu_star, 12)
    NU, S = np.meshgrid(nus, s, indexing="ij")
    values = SmoothedKernel(transform, phi).convolved_pairs(NU, S)
    worst = 0.0
    for nu, prof in zip(nus, np.abs(values.reshape(NU.shape))):
        total = np.trapezoid(prof, s)
        outside = np.abs(s) > gc.k_of_nu(nu) + 3.0 * phi.width
        leak = np.trapezoid(np.where(outside, prof, 0.0), s)
        if total > 0:
            worst = max(worst, leak / total)
    return float(worst)
