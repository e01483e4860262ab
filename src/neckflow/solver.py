"""Minimization of the regularized p-Dirichlet energy over piecewise-linear
fields with floating inclusion potentials.

The discrete energy is sum_T area_T (eta^2 + |grad u|_T^2)^(p/2).  Outer
boundary vertices carry interpolated Dirichlet data; all vertices of an
inclusion share a single free scalar (condensation), so the stationarity of
that scalar is literally the zero-net-flux condition through the inclusion
boundary.  A damped Newton iteration with exact gradient/Hessian and Armijo
backtracking runs inside a continuation loop over decreasing eta; for p >= 2
the energy is already C^2 and eta = 0 is used directly.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .geometry import INC1, INC2, OUTER
from .meshing import TriMesh

# Continuation stages before the last two only supply the next stage's start,
# so they stop at max(newton_tol, LOOSE_STAGE_TOL) and take no polish steps.
LOOSE_STAGE_TOL = 1e-6
# A direct solve with a larger relative residual (max norm) is redone with
# Levenberg damping.
LINEAR_RESIDUAL_TOL = 1e-8
_SPLU_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))


def default_eta_schedule(p):
    """Continuation in the regularization parameter: the Hessian degenerates
    where the gradient vanishes for p < 2, so eta is walked down geometrically;
    for p >= 2 no regularization is needed."""
    if p >= 2.0:
        return (0.0,)
    return (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass
class SolveConfig:
    p: float
    eta_schedule: tuple = None
    newton_tol: float = 1e-10
    max_newton_iters: int = 100
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 60
    inclusion_values: dict = None   # {tag: value} pins an inclusion potential
    warm_start_p2: bool = True
    record_history: bool = True
    polish_iters: int = 2   # extra full Newton steps after the tolerance is met

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("exponent p must exceed 1")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.eta_schedule is None:
            self.eta_schedule = default_eta_schedule(self.p)
        sched = tuple(float(e) for e in self.eta_schedule)
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("eta_schedule must be strictly decreasing")
        if sched[-1] < 0:
            raise ValueError("final eta must be >= 0")
        self.eta_schedule = sched


@dataclass
class Solution:
    """Converged discrete state.

    kkt_residual and flux1/flux2 are reported in energy-scaled units
    (divided by max(1, energy)); flux1/flux2 follow the convention `current
    out of the inclusion into the matrix`.
    """

    nodal_values: np.ndarray
    U1: float
    U2: float
    element_gradients: np.ndarray
    energy: float
    kkt_residual: float
    flux1: float
    flux2: float
    p: float
    eta_final: float
    grad_full: np.ndarray
    energy_history: list = field(default_factory=list)
    eta_sensitivity: float = None
    newton_iters: int = 0
    linear_fallbacks: int = 0   # Newton steps solved with Levenberg damping

    @property
    def ugap(self):
        return self.U1 - self.U2


# ---------------------------------------------------------------------------
# element-level assembly
# ---------------------------------------------------------------------------

class ElementOps:
    """Per-triangle geometry factors reused across assemblies."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        c = mesh.tri_coords()
        x, y = c[..., 0], c[..., 1]
        self.area = mesh.signed_areas()
        # gradients of the three barycentric functions: rows are (d/dx, d/dy)
        b = np.empty((len(c), 2, 3))
        b[:, 0, 0] = y[:, 1] - y[:, 2]
        b[:, 0, 1] = y[:, 2] - y[:, 0]
        b[:, 0, 2] = y[:, 0] - y[:, 1]
        b[:, 1, 0] = x[:, 2] - x[:, 1]
        b[:, 1, 1] = x[:, 0] - x[:, 2]
        b[:, 1, 2] = x[:, 1] - x[:, 0]
        b /= (2.0 * self.area)[:, None, None]
        self.B = b
        t = mesh.triangles
        self._rows = np.repeat(t, 3, axis=1).ravel()
        self._cols = np.tile(t, (1, 3)).ravel()

    def gradients(self, u):
        ue = u[self.mesh.triangles]
        return np.einsum("tij,tj->ti", self.B, ue)

    def energy_grad(self, u, p, eta):
        g = self.gradients(u)
        w = eta * eta + np.einsum("ti,ti->t", g, g)
        energy = float(np.dot(self.area, w ** (p / 2.0)))
        wm = np.where(w > 0, w, 1.0)
        fac = self.area * p * np.where(w > 0, wm ** (p / 2.0 - 1.0), 0.0)
        ge = np.einsum("t,tij,ti->tj", fac, self.B, g)
        nv = self.mesh.n_vertices
        grad = np.zeros(nv)
        t = self.mesh.triangles
        for k in range(3):
            grad += np.bincount(t[:, k], weights=ge[:, k], minlength=nv)
        return energy, grad, g, w

    def hessian(self, g, w, p):
        """Exact Hessian w.r.t. nodal values, as a sparse CSR matrix.

        Where the regularized gradient vanishes the Hessian limit is p*I for
        p = 2 and 0 for p > 2; for p < 2 the point is genuinely degenerate
        (eta keeps w positive there during continuation)."""
        wm = np.where(w > 0, w, 1.0)
        e1 = p / 2.0 - 1.0
        if e1 == 0.0:
            a1 = np.full_like(w, p)
        else:
            a1 = p * np.where(w > 0, wm ** e1, 0.0)
        a2 = p * (p - 2.0) * np.where(w > 0, wm ** (p / 2.0 - 2.0), 0.0)
        # M = a1 I + a2 g g^T, element Hessian = area * B^T M B
        Bg = np.einsum("tij,ti->tj", self.B, g)
        BtB = np.einsum("tik,til->tkl", self.B, self.B)
        blocks = (self.area * a1)[:, None, None] * BtB \
            + (self.area * a2)[:, None, None] * np.einsum("tk,tl->tkl", Bg, Bg)
        nv = self.mesh.n_vertices
        H = sp.coo_matrix((blocks.ravel(), (self._rows, self._cols)),
                          shape=(nv, nv))
        return H.tocsr()


def assemble_energy(mesh, v, p, eta, ops=None):
    """Energy, exact gradient, and exact Hessian of the regularized functional
    at nodal vector v (all in the full nodal space)."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise SolverError("non-finite nodal values passed to assembly")
    ops = ops if ops is not None else ElementOps(mesh)
    energy, grad, g, w = ops.energy_grad(v, p, eta)
    H = ops.hessian(g, w, p)
    if not (np.isfinite(energy) and np.all(np.isfinite(grad))):
        raise SolverError("non-finite assembly output")
    return energy, grad, H


# ---------------------------------------------------------------------------
# constraint condensation
# ---------------------------------------------------------------------------

class Condenser:
    """Maps the reduced unknown vector q to nodal values u = lift + C q.

    Reduced layout: interior vertices first, then one scalar per floating
    inclusion (INC1 before INC2 when both float).
    """

    def __init__(self, mesh, geom, inclusion_values=None):
        inclusion_values = inclusion_values or {}
        nv = mesh.n_vertices
        tag = mesh.vertex_tag
        self.lift = np.zeros(nv)
        outer = tag == OUTER
        self.lift[outer] = geom.phi(mesh.vertices[outer])
        self.free_dofs = {}
        rows, cols = [np.flatnonzero(tag == 0)], []
        interior = rows[0]
        cols.append(np.arange(len(interior)))
        ndof = len(interior)
        self.iU = {}
        for t in (INC1, INC2):
            verts = np.flatnonzero(tag == t)
            if len(verts) == 0:
                continue
            if t in inclusion_values:
                self.lift[verts] = float(inclusion_values[t])
            else:
                rows.append(verts)
                cols.append(np.full(len(verts), ndof))
                self.iU[t] = ndof
                ndof += 1
        self.n_dofs = ndof
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        self.C = sp.csr_matrix((np.ones(len(r)), (r, c)), shape=(nv, ndof))
        self.CT = self.C.T.tocsr()
        self.mesh = mesh
        self.inclusion_values = dict(inclusion_values)

    def nodal(self, q):
        return self.lift + self.C @ q

    def reduce_grad(self, grad):
        return self.CT @ grad

    def reduce_hess(self, H):
        return (self.CT @ H @ self.C).tocsc()

    def initial_q(self):
        return np.zeros(self.n_dofs)

    def potentials(self, q):
        out = {}
        for t in (INC1, INC2):
            if t in self.iU:
                out[t] = float(q[self.iU[t]])
            elif t in self.inclusion_values:
                out[t] = float(self.inclusion_values[t])
            else:
                out[t] = math.nan
        return out


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------

@dataclass
class _Stats:
    """History and counters of one solve, accumulated over its Newton runs."""

    history: list = field(default_factory=list)   # (eta, energy, residual)
    newton_iters: int = 0
    linear_fallbacks: int = 0


def _linear_solve(H, rhs, stats):
    """Solve H d = rhs for the reduced Newton Hessian H (CSC).

    H is symmetric positive semidefinite, so SuperLU runs in symmetric mode:
    the fill-reducing ordering is computed on the pattern of H + H^T and the
    pivots are taken from the diagonal (threshold 0).  That keeps the
    symmetric ordering intact and gives far less fill than the default
    COLAMD ordering with partial pivoting.  A zero diagonal entry still gets
    an off-diagonal pivot.  Without partial pivoting a near-singular H can
    give an inaccurate d, so the residual is checked; a solve that fails the
    check (a non-finite d included) or finds H exactly singular is redone
    with Levenberg damping H + lam I and counted in stats.linear_fallbacks.
    """
    try:
        lu = spla.splu(H, **_SPLU_SYMMETRIC)
        d = lu.solve(rhs)
        tol = LINEAR_RESIDUAL_TOL * np.abs(rhs).max()
        # NaN compares false, so a non-finite d fails this test too
        if np.abs(H @ d - rhs).max() <= tol:
            return d
    except RuntimeError:
        pass
    # Levenberg fallback for semidefinite Hessians (p > 2 with flat spots)
    stats.linear_fallbacks += 1
    diag = H.diagonal()
    scale = max(float(np.abs(diag).max()), 1e-30)
    lam = 1e-10
    n = H.shape[0]
    eye = sp.identity(n, format="csc")
    while lam <= 1e3:
        try:
            lu = spla.splu((H + lam * scale * eye).tocsc(), **_SPLU_SYMMETRIC)
            d = lu.solve(rhs)
            if np.all(np.isfinite(d)):
                return d
        except RuntimeError:
            pass
        lam *= 100.0
    raise SolverError("linear solve failed even with damping")


def _scaled_residual(cond, ops, q, p, eta):
    u = cond.nodal(q)
    energy, grad_full, _, _ = ops.energy_grad(u, p, eta)
    return float(np.abs(cond.reduce_grad(grad_full)).max()) / max(1.0, abs(energy))


def _newton(cond, ops, q, p, eta, cfg, stats):
    """Damped Newton on the reduced energy; returns (q, scaled residual).

    After the tolerance is met, up to cfg.polish_iters extra full steps are
    taken while they keep lowering the residual; downstream flux sums benefit
    from residuals well below the stopping tolerance."""
    polish_left = cfg.polish_iters
    # every pass that does not return takes one step, so `it` counts steps
    for it in range(cfg.max_newton_iters + cfg.polish_iters):
        u = cond.nodal(q)
        energy, grad_full, g, w = ops.energy_grad(u, p, eta)
        grad = cond.reduce_grad(grad_full)
        scale = max(1.0, abs(energy))
        res = float(np.abs(grad).max()) / scale
        if cfg.record_history:
            stats.history.append((eta, energy, res))
        done = res <= cfg.newton_tol and it > 0
        if done and (polish_left <= 0 or res <= 1e-3 * cfg.newton_tol):
            return q, res
        H = ops.hessian(g, w, p)
        Hr = cond.reduce_hess(H)
        d = _linear_solve(Hr, -grad, stats)
        if done:
            polish_left -= 1
            q_try = q + d
            if _scaled_residual(cond, ops, q_try, p, eta) < res:
                q = q_try
                stats.newton_iters += 1
                continue
            return q, res
        slope = float(grad @ d)
        if slope > 0:
            d = -d
            slope = -slope
        t = 1.0
        accepted = False
        for _ in range(cfg.max_backtracks):
            u_try = cond.nodal(q + t * d)
            e_try = ops.energy_grad(u_try, p, eta)[0]
            if e_try <= energy + cfg.armijo_c * t * slope + 1e-15 * scale:
                accepted = True
                break
            t *= cfg.backtrack
        if not accepted:
            if res <= 100 * cfg.newton_tol:
                return q, res   # at the rounding floor; accept
            raise SolverError("line search stagnated", residual=res, eta=eta)
        q = q + t * d
        stats.newton_iters += 1
    res = _scaled_residual(cond, ops, q, p, eta)
    if res > cfg.newton_tol:
        raise SolverError(f"Newton did not converge in {cfg.max_newton_iters} "
                          f"iterations", residual=res, eta=eta)
    return q, res


def _continuation(cond, ops, q, cfg, stats):
    """Newton through cfg.eta_schedule from q; returns (q, eta_sensitivity).

    Stages before the last two run at the looser of newton_tol and
    LOOSE_STAGE_TOL without polish (inexact continuation).  The last two run
    at newton_tol: the solution is the final stage's, and eta_sensitivity,
    the relative change of the gap U1 - U2 between the last two stages, is
    only meaningful when both are converged tightly.
    """
    sched = cfg.eta_schedule
    loose = replace(cfg, newton_tol=max(cfg.newton_tol, LOOSE_STAGE_TOL),
                    polish_iters=0)
    gaps = []
    for stage, eta in enumerate(sched):
        stage_cfg = loose if stage < len(sched) - 2 else cfg
        q, _ = _newton(cond, ops, q, cfg.p, eta, stage_cfg, stats)
        pots = cond.potentials(q)
        gaps.append(pots[INC1] - pots[INC2])
    sensitivity = None
    if len(gaps) > 1 and not math.isnan(gaps[-1]):
        sensitivity = abs(gaps[-1] - gaps[-2]) / max(abs(gaps[-1]), 1e-300)
    return q, sensitivity


def solve(mesh, geom, cfg: SolveConfig) -> Solution:
    """Continuation-Newton solve of the condensed minimization problem."""
    ops = ElementOps(mesh)
    cond = Condenser(mesh, geom, cfg.inclusion_values)
    stats = _Stats()
    q = cond.initial_q()

    if cfg.warm_start_p2 and cfg.p != 2.0:
        cfg2 = SolveConfig(p=2.0, eta_schedule=(0.0,), newton_tol=1e-9,
                           max_newton_iters=10, record_history=False,
                           inclusion_values=cfg.inclusion_values,
                           warm_start_p2=False)
        q, _ = _newton(cond, ops, q, 2.0, 0.0, cfg2, stats)
    q, sensitivity = _continuation(cond, ops, q, cfg, stats)

    eta_final = cfg.eta_schedule[-1]
    u = cond.nodal(q)
    energy, grad_full, g, w = ops.energy_grad(u, cfg.p, eta_final)
    scale = max(1.0, abs(energy))
    res = float(np.abs(cond.reduce_grad(grad_full)).max()) / scale
    pots = cond.potentials(q)

    def inclusion_flux(t):
        verts = np.flatnonzero(mesh.vertex_tag == t)
        if len(verts) == 0:
            return math.nan
        return -float(grad_full[verts].sum()) / cfg.p / scale

    return Solution(
        nodal_values=u,
        U1=pots.get(INC1, math.nan),
        U2=pots.get(INC2, math.nan),
        element_gradients=g,
        energy=energy,
        kkt_residual=res,
        flux1=inclusion_flux(INC1),
        flux2=inclusion_flux(INC2),
        p=cfg.p,
        eta_final=eta_final,
        grad_full=grad_full,
        energy_history=stats.history,
        eta_sensitivity=sensitivity,
        newton_iters=stats.newton_iters,
        linear_fallbacks=stats.linear_fallbacks,
    )


def uniqueness_probe(mesh, geom, cfg, n_starts=3, seed=0):
    """Solve from randomized initial iterates; return the max pairwise
    relative nodal-l2 distance between the converged states.

    The energy is convex, so all starts must land on the same minimizer up
    to solver tolerance.  The distance is relative to the larger nodal norm,
    floored at unit RMS so that zero boundary data (whose minimizer is
    identically zero) reports the absolute RMS difference.
    """
    if n_starts < 2:
        raise ValueError("need at least two starts")
    rng = np.random.default_rng(seed)
    ops = ElementOps(mesh)
    cond = Condenser(mesh, geom, cfg.inclusion_values)
    vals = np.atleast_1d(geom.phi(mesh.vertices[mesh.vertex_tag == OUTER]))
    lo = float(vals.min()) if len(vals) else 0.0
    hi = float(vals.max()) if len(vals) else 0.0
    sols = []
    for k in range(n_starts):
        q = rng.uniform(lo - 0.1, hi + 0.1, cond.n_dofs) if k else cond.initial_q()
        q, _ = _continuation(cond, ops, q, cfg, _Stats())
        sols.append(cond.nodal(q))
    floor = math.sqrt(mesh.n_vertices)
    dist = 0.0
    for a in range(len(sols)):
        for b in range(a + 1, len(sols)):
            denom = max(np.linalg.norm(sols[a]), np.linalg.norm(sols[b]),
                        floor)
            dist = max(dist, float(np.linalg.norm(sols[a] - sols[b])) / denom)
    return dist


def reduced_hessian(mesh, geom, cfg, solution, eta=None):
    """Reduced-space Hessian at a solved state (for spectral probes)."""
    ops = ElementOps(mesh)
    cond = Condenser(mesh, geom, cfg.inclusion_values)
    eta = cfg.eta_schedule[-1] if eta is None else eta
    _, _, g, w = ops.energy_grad(solution.nodal_values, cfg.p, eta)
    return cond.reduce_hess(ops.hessian(g, w, cfg.p))
