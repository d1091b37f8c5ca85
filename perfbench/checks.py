"""Independent checks of cavlab outputs.

Nothing here imports cavlab.  The fixed point of a sweep is re-assembled
from the files the sweep writes (mesh.vtk and fields_eps_*.csv) with the
benchmark's own P1 operators, its own inversion of sigma(rho) and the
closed-form gamma = 3 characteristic speed, and the paper's gates are
re-derived from the per-epsilon numbers in report.json with thresholds
fixed here.  A fault in a program layer therefore cannot hide by also
corrupting the code that checks it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

RHO_CR = 1.0 / math.sqrt(2.0)
FIELD_COLUMNS = ["x", "y", "sigma", "theta", "rho", "q", "Wminus", "Wplus"]

# Margin on the solver's own relative residual tolerance; interior rows are
# a subset of the rows the solver tests, so 1 would do but for round-off.
FIXED_POINT_MARGIN = 2.0
FARFIELD_TOL = 1e-12
# RunReport.ok thresholds, fixed here so a change to the program's gates
# cannot change what the benchmark counts as passing.
GATE_RATIO_MAX = 3.0
FIT_EXCESS_MAX = 1.25
TRACE_MIN = -1e-6
# Exact xi = 0 kernel data: H_r = nu, d_nu H_r = 1, H_s = 1, d_nu H_s = 0.
XI0_TOL = 1e-3


class CheckError(ValueError):
    """An output file is missing, truncated or malformed."""


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------

def read_vtk(path):
    """Points (n, 2) and triangles (m, 3) of a legacy ASCII VTK polydata."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        i = next(j for j, ln in enumerate(lines) if ln.startswith("POINTS "))
        n = int(lines[i].split()[1])
        pts = np.array(" ".join(lines[i + 1:i + 1 + n]).split(), dtype=float)
        i += 1 + n
        head = lines[i].split()
        if head[0] != "POLYGONS":
            raise CheckError(f"{path}: expected POLYGONS after {n} points")
        m = int(head[1])
        tri = np.array(" ".join(lines[i + 1:i + 1 + m]).split(), dtype=np.int64)
    except (StopIteration, IndexError, ValueError) as exc:
        raise CheckError(f"{path}: malformed VTK ({exc})") from exc
    if pts.size != 3 * n or tri.size != 4 * m:
        raise CheckError(f"{path}: truncated VTK")
    tri = tri.reshape(m, 4)
    if np.any(tri[:, 0] != 3) or tri[:, 1:].min() < 0 or tri[:, 1:].max() >= n:
        raise CheckError(f"{path}: bad polygon records")
    return pts.reshape(n, 3)[:, :2], tri[:, 1:]


def read_fields(path, n_vertices):
    """Columns of a fields_eps_*.csv; rejects a wrong header or row count."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header.strip().split(",") != FIELD_COLUMNS:
        raise CheckError(f"{path}: unexpected header {header!r}")
    rows = body.strip().split("\n") if body.strip() else []
    if len(rows) != n_vertices:
        raise CheckError(f"{path}: {len(rows)} rows for {n_vertices} vertices")
    try:
        vals = np.array(",".join(rows).split(","), dtype=float)
    except ValueError as exc:
        raise CheckError(f"{path}: non-numeric entry ({exc})") from exc
    if vals.size != n_vertices * len(FIELD_COLUMNS):
        raise CheckError(f"{path}: ragged rows")
    vals = vals.reshape(n_vertices, len(FIELD_COLUMNS))
    return {name: vals[:, j] for j, name in enumerate(FIELD_COLUMNS)}


# ----------------------------------------------------------------------
# gas chart, gamma = 3
# ----------------------------------------------------------------------

def rho_of_sigma(sigma):
    """Invert sigma = 2 rho - atanh(rho) on [0, rho_cr] by bisection.

    sigma is increasing there (sigma' = (1 - 2 rho^2)/(1 - rho^2)), so 64
    halvings of [0, rho_cr] reach the last bit without any derivative.
    """
    s = np.asarray(sigma, dtype=float)
    lo = np.zeros_like(s)
    hi = np.full_like(s, RHO_CR)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = 2.0 * mid - np.arctanh(mid) < s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sigma_of_rho(rho):
    return 2.0 * rho - math.atanh(rho)


def k_of_q(q):
    """k(q) = sqrt(2) acos(sqrt(2q^2 - 1)) - acos(sqrt(2 - 1/q^2)), k(1) = 0."""
    q2 = np.clip(np.asarray(q, dtype=float) ** 2, 0.5, 1.0)
    return (math.sqrt(2.0) * np.arccos(np.sqrt(2.0 * q2 - 1.0))
            - np.arccos(np.sqrt(np.clip(2.0 - 1.0 / q2, 0.0, 1.0))))


# ----------------------------------------------------------------------
# P1 operators
# ----------------------------------------------------------------------

class P1Mesh:
    """Areas, basis gradients, stiffness and boundary of a triangulation."""

    def __init__(self, points, triangles):
        self.points = np.asarray(points, dtype=float)
        self.tri = np.asarray(triangles, dtype=np.int64)
        p = self.points[self.tri]                       # (m, 3, 2)
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise CheckError("mesh has flipped or degenerate triangles")
        self.area = 0.5 * det
        # grad lambda_i = rot90(opposite edge) / (2 area)
        opp = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2],
                        p[:, 1] - p[:, 0]], axis=1)      # (m, 3, 2)
        self.grad = np.stack([-opp[..., 1], opp[..., 0]], axis=2) \
            / det[:, None, None]
        n = len(self.points)
        local = np.einsum("mid,mjd->mij", self.grad, self.grad) \
            * self.area[:, None, None]
        rows = np.repeat(self.tri, 3, axis=1).ravel()
        cols = np.tile(self.tri, (1, 3)).ravel()
        self.K = sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))
        edges = np.sort(np.concatenate([self.tri[:, [0, 1]],
                                        self.tri[:, [1, 2]],
                                        self.tri[:, [2, 0]]]), axis=1)
        uniq, count = np.unique(edges, axis=0, return_counts=True)
        self.boundary_edges = uniq[count == 1]

    def load(self, vec):
        """b_i = int V . grad(lambda_i) for a nodal P1 field V (n, 2)."""
        mean = vec[self.tri].mean(axis=1)                # (m, 2)
        contrib = np.einsum("md,mid->mi", mean, self.grad) * self.area[:, None]
        return np.bincount(self.tri.ravel(), contrib.ravel(),
                           minlength=len(self.points))

    def farfield_nodes(self, chord):
        """Nodes of boundary edges that are not on the obstacle arc.

        The obstacle is the part of the bottom wall strictly inside the
        chord; its end points also lie on far-field edges.
        """
        e = self.boundary_edges
        mid = self.points[e].mean(axis=1)
        top = self.points[:, 1].max()
        on_bump = (np.abs(mid[:, 0]) < chord / 2.0) & (mid[:, 1] < 0.5 * top)
        return np.unique(e[~on_bump].ravel())


# ----------------------------------------------------------------------
# fixed point of one viscosity
# ----------------------------------------------------------------------

def fixed_point_checks(mesh: P1Mesh, fields, eps, q_inf, chord,
                       residual_tol, tol_inv_factor):
    """Independent checks of one converged field; returns {name: (ok, value)}.

    Interior rows of  K sigma = (1/eps) b(F)  and  K theta = (1/eps) b(G),
    F = rho qt e(theta), G = qt e(theta - pi/2), must vanish to the solver's
    relative tolerance; the far-field nodes must hold (sigma_inf, 0); and
    the invariant region q >= q_inf - tol, |theta| <= k(q_inf) + tol holds.
    """
    sigma, theta = fields["sigma"], fields["theta"]
    if np.any(sigma < 0.0) or np.any(sigma > sigma_of_rho(RHO_CR)):
        raise CheckError("sigma outside the invertible range")
    rho = rho_of_sigma(sigma)
    qt = np.sqrt(np.clip(1.0 - rho * rho, 0.0, None))
    F = np.stack([rho * qt * np.cos(theta), rho * qt * np.sin(theta)], axis=1)
    G = np.stack([qt * np.sin(theta), -qt * np.cos(theta)], axis=1)
    far = mesh.farfield_nodes(chord)
    free = np.ones(len(sigma), dtype=bool)
    free[far] = False
    interior = free.copy()
    interior[mesh.boundary_edges.ravel()] = False
    out = {}
    for name, u, V in (("fixed_point.sigma", sigma, F),
                       ("fixed_point.theta", theta, G)):
        b = mesh.load(V) / eps
        r = float(np.linalg.norm((mesh.K @ u - b)[interior]))
        scale = max(float(np.linalg.norm(b[free])), 1.0)
        rel = r / scale
        out[name] = (rel <= FIXED_POINT_MARGIN * residual_tol, rel)
    rho_inf = math.sqrt(1.0 - q_inf * q_inf)
    sig_inf = sigma_of_rho(rho_inf)
    dev = max(float(np.abs(sigma[far] - sig_inf).max()),
              float(np.abs(theta[far]).max()))
    out["farfield"] = (dev <= FARFIELD_TOL, dev)
    k_inf = float(k_of_q(q_inf))
    tol = tol_inv_factor * k_inf
    q = np.sqrt(1.0 - rho * rho)
    margin = min(float(q.min()) - (q_inf - tol),
                 (k_inf + tol) - float(np.abs(theta).max()))
    out["invariant_region"] = (margin >= 0.0, margin)
    return out


# ----------------------------------------------------------------------
# the paper's gates, from report.json
# ----------------------------------------------------------------------

def sqrt_eps_violations(eps, values):
    """Points above FIT_EXCESS_MAX times the least-squares C sqrt(eps)."""
    eps = np.asarray(eps, dtype=float)
    val = np.abs(np.asarray(values, dtype=float))
    root = np.sqrt(eps)
    C = float(np.sum(val * root) / np.sum(eps))
    if C <= 0.0:
        return 0
    return int(np.sum(val > FIT_EXCESS_MAX * C * root))


def _ratio(values):
    return max(values) / max(min(values), 1e-300)


GATE_NAMES = ("gate.invariant_region", "gate.dissipation_ratio",
              "gate.D2_ratio", "gate.D1_ratio", "gate.mass_fit",
              "gate.curl_fit", "gate.entropy_defect_fit",
              "gate.obstacle_trace")


def gates(report):
    """The eight RunReport.ok gates re-derived; {name: (ok, value)}."""
    recs = report["records"]
    eps = [r["epsilon"] for r in recs]
    inv_margin = min(min(r["invariant_region"]["min_q_margin"],
                         r["invariant_region"]["angle_margin"],
                         -r["invariant_region"]["Wplus_excess"],
                         -r["invariant_region"]["Wminus_excess"])
                     + r["invariant_region"]["tol_inv"] for r in recs)
    min_rho = min(r["invariant_region"]["min_rho"] for r in recs)
    diss = _ratio([r["dissipation_integral"] for r in recs])
    d2 = _ratio([r["compactness_star"]["D2_L1"] for r in recs])
    d1 = _ratio([r["compactness_star"]["D1_est"] / math.sqrt(e)
                 for r, e in zip(recs, eps)])
    mass = sqrt_eps_violations(eps, [r["weak_residuals"]["mass"] for r in recs])
    curl = sqrt_eps_violations(eps, [r["weak_residuals"]["curl"] for r in recs])
    defect = sqrt_eps_violations(
        eps, [max(r["entropy_defect_star"], 0.0) for r in recs])
    trace = min(r["obstacle_trace_min"] for r in recs)
    return {
        "gate.invariant_region": (inv_margin >= 0.0 and min_rho > 0.0,
                                  inv_margin),
        "gate.dissipation_ratio": (diss <= GATE_RATIO_MAX, diss),
        "gate.D2_ratio": (d2 <= GATE_RATIO_MAX, d2),
        "gate.D1_ratio": (d1 <= GATE_RATIO_MAX, d1),
        "gate.mass_fit": (mass == 0, mass),
        "gate.curl_fit": (curl == 0, curl),
        "gate.entropy_defect_fit": (defect == 0, defect),
        "gate.obstacle_trace": (trace >= TRACE_MIN, trace),
    }


# ----------------------------------------------------------------------
# kernel tables
# ----------------------------------------------------------------------

def xi0_check(kind, nu, H, H_nu):
    """Largest deviation from the exact xi = 0 solution of
    H_nunu + k'^2 xi^2 H = 0 with the vacuum data: H_r = nu, H_s = 1."""
    nu, H, H_nu = (np.asarray(a, dtype=float) for a in (nu, H, H_nu))
    if kind == "regular":
        exact, slope = nu, np.ones_like(nu)
    else:
        exact, slope = np.ones_like(nu), np.zeros_like(nu)
    err = max(float(np.max(np.abs(H - exact))),
              float(np.max(np.abs(H_nu - slope))))
    return err <= XI0_TOL, err
