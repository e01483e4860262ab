"""Minimization of the regularized p-Dirichlet energy over piecewise-linear
fields with floating inclusion potentials.

The discrete energy is sum_T area_T (eta^2 + |grad u|_T^2)^(p/2).  The
problem is the mesh's: outer boundary vertices carry the Dirichlet data phi
of mesh.geometry, interpolated, and no other geometry is read; all vertices
of an inclusion share a single free scalar (condensation), so the
stationarity of that scalar is literally the zero-net-flux condition through
the inclusion boundary.  A damped Newton iteration with exact
gradient/Hessian and Armijo backtracking runs inside a continuation loop
over decreasing eta; for p >= 2 the energy is already C^2 and eta = 0 is
used directly.  The reduced Newton system's pattern and fill-reducing order
are mesh constants (see Condenser); a Newton step solves it only to a
forcing term, by CG preconditioned with the solve's last factorization (see
Condenser.linear_solve).

When the mesh is its own mirror image under x_n -> -x_n and the outer data
is odd under it, the minimizer is odd, and a Condenser built with odd=True
solves on the upper half's unknowns alone: a signed condensation u = lift +
s q[dof], s in {+1, -1, 0}, with the reduced gradient and Hessian in
full-space units, assembled from one triangle of each mirror pair.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import MeshError, SolverError
from .geometry import INC1, INC2, OUTER
from .meshing import TriMesh

# Newton stops at this scaled residual, within MAX_NEWTON_ITERS steps, and
# then takes up to POLISH_ITERS extra full steps (see _newton).
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 100
POLISH_ITERS = 2
# Continuation stages before the last two only supply the next stage's start,
# so they stop at max(NEWTON_TOL, LOOSE_STAGE_TOL) and take no polish steps.
LOOSE_STAGE_TOL = 1e-6
# A direct solve with a larger relative residual (max norm) is redone with
# Levenberg damping.
LINEAR_RESIDUAL_TOL = 1e-8
# Preconditioned CG gives up after this many iterations and H is factored.
PCG_MAXIT = 8
# Armijo line search: sufficient-decrease constant, step factor, step limit.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
FILL_REDUCING_ORDER = "MMD_AT_PLUS_A"
_SPLU_SYMMETRIC = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def eta_schedule(p):
    """Continuation in the regularization parameter: the Hessian degenerates
    where the gradient vanishes for p < 2, so eta is walked down geometrically;
    for p >= 2 no regularization is needed."""
    if p >= 2.0:
        return (0.0,)
    return (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass
class SolveConfig:
    p: float
    inclusion_values: dict = None   # {tag: value} pins an inclusion potential

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError("exponent p must be finite and exceed 1")


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
    factorizations: int = 0     # sparse LUs, Levenberg retries included
    cg_iters: int = 0           # preconditioned CG iterations
    floor_accepts: int = 0      # stalled line searches accepted at the floor

    @property
    def ugap(self):
        return self.U1 - self.U2


# ---------------------------------------------------------------------------
# element-level assembly
# ---------------------------------------------------------------------------

class ElementOps:
    """Per-triangle geometry factors reused across assemblies, stored
    component-major (one contiguous row of length nt per component) so that
    each kernel product is a whole-row vector op: `tri` is the (3, nt) vertex
    table, `Bx`/`By` the (3, nt) barycentric derivatives, `BtB` the (9, nt)
    entries of B^T B.  Element gradients are (2, nt), gradient contributions
    (3, nt) and Hessian blocks (9, nt), row 3 k + l for vertices (k, l).

    `subset` (triangle indices) restricts every operation to those
    triangles, nt being their number, and `weight` (per triangle) multiplies
    their `area`, the area that the energy and its derivatives integrate
    over; the barycentric derivatives keep the geometric area.  Without a
    subset the ops cover the whole mesh with `area` the mesh's areas."""

    def __init__(self, mesh: TriMesh, subset=None, weight=None):
        area, tri = mesh.areas, mesh.triangles
        if subset is not None:
            area, tri = area[subset], tri[subset]
        self.mesh, self.tri = mesh, np.ascontiguousarray(tri.T)
        # vertex k's is (y[k+1] - y[k+2], x[k+2] - x[k+1]) / (2 area)
        x, y = mesh.vertices.T[:, self.tri]
        self.Bx = (np.roll(y, -1, 0) - np.roll(y, -2, 0)) / (2.0 * area)
        self.By = (np.roll(x, -2, 0) - np.roll(x, -1, 0)) / (2.0 * area)
        self.BtB = (self.Bx[:, None] * self.Bx
                    + self.By[:, None] * self.By).reshape(9, -1)
        self.area = area if weight is None else area * weight

    def gradients(self, u):
        # summed in np.einsum's order, (k=0 + k=2) + k=1, so that energies
        # and gradients equal those of the einsum reference bit for bit
        U = u[self.tri]
        return np.stack([B[0] * U[0] + B[2] * U[2] + B[1] * U[1]
                         for B in (self.Bx, self.By)])

    def state(self, u, eta):
        """Element gradients g and w = eta^2 + |g|^2."""
        g = self.gradients(u)
        return g, eta * eta + (g[0] * g[0] + g[1] * g[1])

    def trial(self, u, p, eta):
        """Energy at u and its `state`, (energy, g, w): a line-search trial,
        which `element_grad` continues from once it is accepted."""
        g, w = self.state(u, eta)
        return float(np.dot(self.area, w ** (p / 2.0))), g, w

    def element_grad(self, u, p, eta, trial=None):
        """Energy, the (3, nt) per-triangle gradient contributions, and the
        state (p, g, w, fac = p area w^(p/2-1), Bg = B^T g) that `hessian`
        reuses.  Given u's `trial`, u is not evaluated again."""
        if trial is None:
            g, w = self.state(u, eta)
            energy = float(np.dot(self.area, w ** (p / 2.0)))
        else:
            energy, g, w = trial
        wm = np.where(w > 0, w, 1.0)
        fac = self.area * p * np.where(w > 0, wm ** (p / 2.0 - 1.0), 0.0)
        Bg = self.Bx * g[0] + self.By * g[1]
        return energy, fac * Bg, (p, g, w, fac, Bg)

    def energy_grad(self, u, p, eta):
        """Energy, full-space exact gradient and `element_grad`'s state."""
        energy, ge, kern = self.element_grad(u, p, eta)
        grad = np.bincount(self.tri.ravel(), ge.ravel(),
                           minlength=self.mesh.n_vertices)
        return energy, grad, kern

    def hessian(self, kern):
        """Exact element Hessian blocks (9, nt) w.r.t. the nodal values from
        `element_grad`'s state: area B^T (a1 I + a2 g g^T) B, area a1 = fac,
        a2 = (p - 2) a1 / w.  Where the regularized gradient vanishes the
        limit is p*I for p = 2 and 0 for p > 2; for p < 2 the point is
        genuinely degenerate (eta keeps w positive there in continuation)."""
        p, _, w, fac, Bg = kern
        if p == 2.0:
            return (p * self.area) * self.BtB
        fac2 = np.divide((p - 2.0) * fac, w, out=np.zeros_like(w), where=w > 0)
        # Bg[k] Bg[l] == Bg[l] Bg[k] in IEEE, so the blocks are symmetric
        blocks = (Bg[:, None] * Bg).reshape(9, -1)
        blocks *= fac2
        blocks += fac * self.BtB
        return blocks


def _csc_structure(keys, n):
    """CSC structure (indptr, indices) of the entries of an (n, n) matrix
    with the sorted distinct column-major keys col * n + row."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, (keys % n).astype(np.int32)


def _block_pattern(te, n, sign=None):
    """CSC structure (indptr, indices) of the (n, n) matrix of the (9, nt)
    element blocks of `ElementOps.hessian`, te being the (3, nt) table of
    triangle DOFs (n for a vertex without one), and the `_summation`
    operator from the raveled blocks, times sign, to the matrix's data."""
    # entry 3 k + l is (row te[k], column te[l]); repeat and tile, as
    # broadcasting (3, 1, nt) against (1, 3, nt) is slower
    row, col = np.repeat(te, 3, axis=0), np.tile(te, (3, 1)).astype(np.int64)
    keys, slot = np.unique(np.where((row < n) & (col < n), col * n + row,
                                    n * n).ravel(), return_inverse=True)
    keys = keys[keys < n * n]
    return (*_csc_structure(keys, n), _summation(slot, len(keys), sign))


def _summation(index, n, sign=None):
    """The (n, len(index)) CSR operator that adds entry k of a vector, times
    sign[k] (+-1, else 1), into row index[k], dropping entries indexed n.
    Each row lists its entries by ascending k (the COO to CSR conversion is
    a stable counting sort), so its product adds the same terms in the same
    order as np.bincount(index, sign * x): bit for bit."""
    index = np.ravel(index)
    k = np.flatnonzero(index < n)
    data = np.ones(len(k)) if sign is None else np.ravel(sign)[k].astype(float)
    return sp.csr_matrix((data, (index[k], k)), shape=(n, len(index)))


def assemble_energy(mesh, v, p, eta, ops=None):
    """Energy, exact gradient, and exact Hessian (CSC) of the regularized
    functional at nodal vector v (all in the full nodal space)."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise SolverError("non-finite nodal values passed to assembly")
    ops = ops if ops is not None else ElementOps(mesh)
    energy, grad, kern = ops.energy_grad(v, p, eta)
    n = mesh.n_vertices
    indptr, indices, op = _block_pattern(ops.tri, n)
    H = sp.csc_matrix((op @ ops.hessian(kern).ravel(), indices, indptr),
                      shape=(n, n))
    if not (np.isfinite(energy) and np.all(np.isfinite(grad))):
        raise SolverError("non-finite assembly output")
    return energy, grad, H


# ---------------------------------------------------------------------------
# constraint condensation
# ---------------------------------------------------------------------------

class Condenser:
    """Maps the reduced unknown vector q to nodal values u = lift + s q[dof],
    with a sign s in {+1, -1, 0} per vertex, and holds the reduced Newton
    system's mesh constants.

    Reduced layout: interior vertices first, then one scalar per floating
    inclusion (INC1 before INC2 when both float); `dof` is -1 (s = 0) at
    Dirichlet and pinned vertices, and s is +1 elsewhere.  With odd=True
    it reduces by the mesh's mirror map (`mirror`, else None) when there is
    one, no inclusion is pinned and the outer data is odd under it bit for
    bit, so that the minimizer is odd (the energy is strictly convex): only
    upper-half interior vertices own DOFs, their mirror images take the
    negated DOF, seam vertices (x_n = 0) are fixed at 0, and INC2 takes
    INC1's scalar with sign -1.  Each DOF then stands for two vertices
    (`copies`); the reduced gradient and Hessian are divided by that,
    exactly, so that they, the residual and the stopping test stay in
    full-space units.  On an odd state a triangle's signed contributions
    equal its mirror image's (mesh.mirror_triangles), so `ops` covers one
    triangle of each pair with weight 2 (a triangle that is its own image
    keeps weight 1): the element work is halved, and the sums are the full
    mesh's up to rounding.  `full_ops`, formed once on first use, covers
    every triangle, for the full-space quantities of a solve's last state.

    The element factors (`ops`), the reduced Hessian's pattern and two
    signed `_summation` operators, from the element contributions to the
    reduced gradient and from the element blocks to the Hessian's entries,
    are computed once, so `reduce_grad` and `reduce_hess` are one sparse
    product each.  The first factorization's fill-reducing order is a mesh
    constant too: the pattern and the Hessian operator's rows are
    renumbered into it, and later Hessians are factored without reordering
    (`linear_solve` permutes the right-hand side and the direction by a
    gather).  The solves on one mesh can share a Condenser.
    """

    def __init__(self, mesh, inclusion_values=None, odd=False):
        inclusion_values = inclusion_values or {}
        tag = mesh.vertex_tag
        self.lift = _outer_lift(mesh)
        mirror = mesh.mirror if odd else None   # derived on first use
        if not (mirror is not None and not inclusion_values
                and np.array_equal(self.lift[mirror], -self.lift)):
            mirror = None
        own = tag == 0
        if mirror is not None:
            own &= mesh.vertices[:, 1] > 0
        self.dof = np.where(own, np.cumsum(own, dtype=np.int32) - 1, -1)
        ndof = int(own.sum())
        self.iU, self._sU = {}, {}
        for t in (INC1, INC2):
            verts = np.flatnonzero(tag == t)
            if len(verts) == 0:
                continue
            if t in inclusion_values:
                self.lift[verts] = float(inclusion_values[t])
            elif mirror is not None and t == INC2:
                self.iU[t], self._sU[t] = self.iU[INC1], -1.0
            else:
                self.dof[verts] = ndof
                self.iU[t], self._sU[t] = ndof, 1.0
                ndof += 1
        self.n_dofs, self.mirror = ndof, mirror
        self.copies = 1
        triangles, rep, weight = mesh.triangles, None, None
        self._vsign = s3 = s9 = None   # signs per vertex, contribution, entry
        if mirror is not None:
            owners = np.flatnonzero(self.dof >= 0)
            self.dof[mirror[owners]] = self.dof[owners]
            vsign = np.ones(mesh.n_vertices, np.int8)
            vsign[mirror[owners]] = -1
            # one triangle of each mirror pair stands for both (weight 2); a
            # triangle that is its own image stands for itself
            partner = mesh.mirror_triangles
            rep = np.flatnonzero(partner >= np.arange(len(partner)))
            weight = np.where(partner[rep] == rep, 1.0, 2.0)
            triangles = mesh.triangles[rep]
            self.copies, self._vsign = 2, vsign
            s3 = vsign[triangles.T]
            s9 = np.repeat(s3, 3, axis=0) * np.tile(s3, (3, 1))
        te = np.where(self.dof < 0, ndof, self.dof)[triangles.T]
        self._grad_sum = _summation(te, ndof, s3)
        indptr, indices, self._hess_sum = _block_pattern(te, ndof, s9)
        self._pattern = indptr, indices
        self._perm = self._inv = None   # factor position of each DOF, inverse
        self.inclusion_values = dict(inclusion_values)
        # after the pattern's sort: a lower peak
        self.ops = ElementOps(mesh, rep, weight)

    @functools.cached_property
    def full_ops(self):
        """ElementOps of the whole mesh, formed on first use (`ops` itself
        without a mirror), for solve's full-space final evaluation."""
        return self.ops if self.mirror is None else ElementOps(self.ops.mesh)

    def nodal(self, q):
        # dof -1 picks the appended zero: u = lift there
        v = np.append(q, 0.0)[self.dof]
        if self._vsign is not None:
            v *= self._vsign
        return self.lift + v

    def reduce_grad(self, ge):
        """Reduced gradient from the (3, nt) element contributions."""
        return (self._grad_sum @ ge.ravel()) / self.copies

    def reduce_hess(self, blocks):
        """Reduced Hessian (CSC) from the (9, nt) element blocks; reduced
        layout until the first `linear_solve`, factor order after."""
        data = self._hess_sum @ blocks.ravel()
        data /= self.copies
        indptr, indices = self._pattern
        # its own structure arrays: no caller can change the pattern through H
        return sp.csc_matrix((data, indices.copy(), indptr.copy()),
                             shape=(self.n_dofs, self.n_dofs))

    def linear_solve(self, H, rhs, stats, forcing=None):
        """Solve H d = rhs for H from `reduce_hess`, rhs in the reduced layout.

        Without forcing the solve is direct.  With it, d need only meet
        max|rhs - H d| <= forcing * max|rhs|: CG preconditioned by the last
        factorization of this solve (stats.precond, in factor order) is tried
        first, and H is factored only when CG fails."""
        if self._perm is None:
            return _linear_solve(H, rhs, stats, on_factor=lambda lu:
                                 self._adopt_order(lu, stats))
        rhs = rhs[self._inv]
        d = None
        if forcing is not None and stats.precond is not None:
            d = _pcg(H, rhs, stats.precond, forcing, stats)
        if d is None:
            # drop the old factorization before making the next, so that
            # two are never in memory at once (about 12 MB more at peak)
            stats.precond = None
            d = _linear_solve(H, rhs, stats, "NATURAL",
                              on_factor=lambda lu: setattr(stats, "precond",
                                                           lu.solve))
        return d[self._perm]

    def _adopt_order(self, lu, stats):
        # perm_c[i] is DOF i's position in factor order (copied: the array is
        # a view that keeps the factorization alive).  Renumber the pattern's
        # entries by it; the Hessian operator's rows, one per entry, move
        # with them (a row permutation keeps each row's order)
        self._perm, (indptr, indices) = lu.perm_c.copy(), self._pattern
        self._inv, n = np.argsort(self._perm), self.n_dofs
        cols = self._perm[np.repeat(np.arange(n), np.diff(indptr))]
        key = cols.astype(np.int64) * n + self._perm[indices]
        order = np.argsort(key)
        self._pattern = _csc_structure(key[order], n)
        self._hess_sum = self._hess_sum[order]
        # lu is in the reduced layout; the preconditioner works in factor order
        perm, inv = self._perm, self._inv
        stats.precond = lambda r: lu.solve(r[perm])[inv]

    def initial_q(self):
        return np.zeros(self.n_dofs)

    def condense(self, u, potentials):
        """The inverse of `nodal`: the reduced vector of nodal values u, with
        the floating inclusions' scalars taken from potentials ({tag: value},
        as `potentials` returns them).  A DOF that stands for two vertices
        (mirror images) takes the mean of their signed values, so an u that
        is not odd gives its odd part."""
        v = u - self.lift
        if self._vsign is not None:
            v *= self._vsign
        own = self.dof >= 0
        n = self.n_dofs
        q = (np.bincount(self.dof[own], v[own], minlength=n)
             / np.bincount(self.dof[own], minlength=n))
        for t, k in self.iU.items():
            q[k] = self._sU[t] * potentials[t]
        return q

    def potentials(self, q):
        return {t: self._sU[t] * float(q[self.iU[t]]) if t in self.iU
                else float(self.inclusion_values.get(t, math.nan))
                for t in (INC1, INC2)}


def _outer_lift(mesh):
    """Nodal vector of the outer data phi of mesh.geometry, zero off the
    outer boundary; a mesh without a geometry raises MeshError."""
    if mesh.geometry is None:
        raise MeshError("the mesh carries no geometry, so no outer data phi")
    lift = np.zeros(mesh.n_vertices)
    outer = mesh.vertex_tag == OUTER
    lift[outer] = mesh.geometry.phi(mesh.vertices[outer])
    return lift


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------

@dataclass
class _Stats:
    """History and counters of one solve, accumulated over its Newton runs."""

    history: list = field(default_factory=list)   # (eta, energy, residual)
    newton_iters: int = 0
    linear_fallbacks: int = 0
    factorizations: int = 0
    cg_iters: int = 0
    floor_accepts: int = 0
    precond: object = None   # the last factorization's solve, in factor order


def _pcg(H, b, precond, tol, stats):
    """Preconditioned CG for H x = b from x = 0, stopping when max|b - H x|
    <= tol * max|b|.  Returns None when that takes more than PCG_MAXIT
    iterations or when H is not positive definite along a search direction.

    The iterate minimizes the quadratic model over the Krylov space, so for
    b = -grad it is a descent direction."""
    x, r = np.zeros_like(b), b.copy()
    bound = tol * np.abs(b).max()
    z = precond(r)
    p, rz = z, float(r @ z)
    for _ in range(PCG_MAXIT):
        Hp = H @ p
        pHp = float(p @ Hp)
        if not (math.isfinite(pHp) and pHp > 0):
            return None
        alpha = rz / pHp
        x += alpha * p
        r -= alpha * Hp
        stats.cg_iters += 1
        if np.abs(r).max() <= bound:
            return x
        z = precond(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return None


def _linear_solve(H, rhs, stats, permc_spec=FILL_REDUCING_ORDER,
                  on_factor=lambda lu: None):
    """Solve H d = rhs for the reduced Newton Hessian H (CSC).

    H is symmetric positive semidefinite, so SuperLU runs in symmetric mode:
    the fill-reducing ordering (permc_spec) is computed on the pattern of
    H + H^T and the pivots are taken from the diagonal (threshold 0).  That
    keeps the symmetric ordering intact and gives far less fill than the
    default COLAMD ordering with partial pivoting.  A zero diagonal entry
    still gets an off-diagonal pivot.  Without partial pivoting a
    near-singular H can give an inaccurate d, so the residual is checked; a
    solve that fails the check (a non-finite d included) or finds H exactly
    singular is redone with Levenberg damping H + lam I (same pattern: the
    diagonal is in it), counted in stats.linear_fallbacks.  on_factor is
    called with the direct factorization.  Every factorization, damped ones
    included, is counted in stats.factorizations.
    """
    try:
        stats.factorizations += 1
        lu = spla.splu(H, permc_spec=permc_spec, **_SPLU_SYMMETRIC)
        on_factor(lu)
        d = lu.solve(rhs)
        tol = LINEAR_RESIDUAL_TOL * np.abs(rhs).max()
        # NaN compares false, so a non-finite d fails this test too
        if np.abs(H @ d - rhs).max() <= tol:
            return d
    except RuntimeError:
        pass
    # Levenberg fallback for semidefinite Hessians (p > 2 with flat spots)
    stats.linear_fallbacks += 1
    scale = max(float(np.abs(H.diagonal()).max()), 1e-30)
    eye = sp.identity(H.shape[0], format="csc")
    lam = 1e-10
    while lam <= 1e3:
        try:
            stats.factorizations += 1
            lu = spla.splu((H + lam * scale * eye).tocsc(),
                           permc_spec=permc_spec, **_SPLU_SYMMETRIC)
            d = lu.solve(rhs)
            if np.all(np.isfinite(d)):
                return d
        except RuntimeError:
            pass
        lam *= 100.0
    raise SolverError("linear solve failed even with damping")


def _evaluate(cond, u, p, eta, trial=None):
    """Energy, reduced gradient, `element_grad`'s state and scaled residual
    at the nodal vector u, continued from u's line-search trial if given."""
    energy, ge, kern = cond.ops.element_grad(u, p, eta, trial)
    grad = cond.reduce_grad(ge)
    res = float(np.abs(grad).max()) / max(1.0, abs(energy))
    return energy, grad, kern, res


def _newton(cond, q, p, eta, stats, tol, max_iters, polish):
    """Damped Newton on the reduced energy to the scaled residual tol within
    max_iters steps; returns (q, scaled residual).

    After the tolerance is met, up to `polish` extra full steps are taken
    while they keep lowering the residual; downstream flux sums benefit from
    residuals well below the stopping tolerance.  Each state is evaluated
    once: the point a step moves to keeps the evaluation its trial made."""
    ops = cond.ops
    polish_left = polish
    at = _evaluate(cond, cond.nodal(q), p, eta)
    # every pass that does not return takes one step, so `it` counts steps
    for it in range(max_iters + polish):
        energy, grad, kern, res = at
        del at
        scale = max(1.0, abs(energy))
        stats.history.append((eta, energy, res))
        done = res <= tol and it > 0
        if done and (polish_left <= 0 or res <= 1e-3 * tol):
            return q, res
        blocks = ops.hessian(kern)
        del kern   # no step intermediate outlives its use: a lower peak
        H = cond.reduce_hess(blocks)
        del blocks
        # a Newton step needs the linear solve only to the forcing term
        # (Eisenstat & Walker); a polish step is solved directly
        d = cond.linear_solve(H, -grad, stats,
                              None if done else min(0.5, math.sqrt(res)))
        if done:
            polish_left -= 1
            q_try = q + d
            at = _evaluate(cond, cond.nodal(q_try), p, eta)
            if at[3] < res:
                q = q_try
                stats.newton_iters += 1
                continue
            return q, res
        # grad is in full-space units: the energy's slope along d is copies
        # times grad . d
        slope = cond.copies * float(grad @ d)
        if slope > 0:
            d = -d
            slope = -slope
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            q_try = q + t * d
            u_try = cond.nodal(q_try)
            trial = ops.trial(u_try, p, eta)
            if trial[0] <= energy + ARMIJO_C * t * slope + 1e-15 * scale:
                break
            t *= BACKTRACK
        else:
            if res <= 100 * tol:
                stats.floor_accepts += 1
                return q, res   # at the rounding floor; accept
            raise SolverError(f"line search stagnated at residual {res:.3e}, "
                              f"eta={eta:g}")
        q = q_try
        at = _evaluate(cond, u_try, p, eta, trial)
        stats.newton_iters += 1
    res = at[3]
    if res > tol:
        raise SolverError(f"Newton did not converge in {max_iters} iterations:"
                          f" residual {res:.3e} at eta={eta:g}")
    return q, res


def _continuation(cond, q, p, stats, sched=None):
    """Newton through the eta stages sched (eta_schedule(p) when None) from
    q; returns (q, scaled residual, eta_sensitivity).

    Stages before the last two run at the looser of NEWTON_TOL and
    LOOSE_STAGE_TOL without polish (inexact continuation).  The last two run
    at NEWTON_TOL: the solution is the final stage's, and eta_sensitivity,
    the relative change of the gap U1 - U2 between the last two stages, is
    only meaningful when both are converged tightly.
    """
    sched = eta_schedule(p) if sched is None else sched
    gaps = []
    for stage, eta in enumerate(sched):
        if stage < len(sched) - 2:
            tol, polish = max(NEWTON_TOL, LOOSE_STAGE_TOL), 0
        else:
            tol, polish = NEWTON_TOL, POLISH_ITERS
        q, res = _newton(cond, q, p, eta, stats, tol, MAX_NEWTON_ITERS, polish)
        pots = cond.potentials(q)
        gaps.append(pots[INC1] - pots[INC2])
    sensitivity = None
    if len(gaps) > 1 and not math.isnan(gaps[-1]):
        sensitivity = abs(gaps[-1] - gaps[-2]) / max(abs(gaps[-1]), 1e-300)
    return q, res, sensitivity


def dual_flux(grad_full, p, w):
    """Current -(1/p) sum_i w_i dE/du_i through the layer where the nodal
    weights w (vertex mask or cutoff field) drop from 1 to 0.  Only nonzero
    weights are gathered, so a mask gives the plain sum of its entries."""
    i = np.flatnonzero(w)
    return -float((w[i] * grad_full[i]).sum()) / p


def solve(mesh, cfg: SolveConfig, cond=None, start=None) -> Solution:
    """Continuation-Newton solve of the condensed minimization problem on
    mesh, whose geometry supplies the domain and the outer data phi.

    Solves on one mesh can share their mesh constants by passing one
    Condenser of it (same cfg.inclusion_values) as cond.

    Without a start, Newton starts from zero (a p != 2 solve from the
    p = 2 solution, itself solved from zero) and runs every stage of
    eta_schedule(p).  A start, a
    pair (nodal values on mesh, inclusion potentials {tag: value}) that is
    close to the solution, is condensed (Condenser.condense) and Newton runs
    from it through the last two eta stages only, the two that
    eta_sensitivity compares (the single eta = 0 stage for p >= 2)."""
    if cond is None:
        cond = Condenser(mesh, cfg.inclusion_values)
    elif cond.ops.mesh is not mesh or \
            cond.inclusion_values != dict(cfg.inclusion_values or {}):
        raise ValueError("cond was built for another mesh or inclusion_values")
    stats = _Stats()
    sched = eta_schedule(cfg.p)
    if start is not None:
        q, sched = cond.condense(*start), sched[-2:]
    else:
        q = cond.initial_q()
        if cfg.p != 2.0:
            # warm start from the p = 2 solution; its steps are not in the
            # history.  It only supplies the start (so 1e-9), and its energy
            # is quadratic (so 10 steps are plenty)
            q, _ = _newton(cond, q, 2.0, 0.0, stats, 1e-9, 10, POLISH_ITERS)
            stats.history.clear()
    q, res, sensitivity = _continuation(cond, q, cfg.p, stats, sched)

    eta_final = sched[-1]
    u = cond.nodal(q)
    energy, grad_full, kern = cond.full_ops.energy_grad(u, cfg.p, eta_final)
    scale = max(1.0, abs(energy))
    pots = cond.potentials(q)

    def inclusion_flux(t):
        mask = mesh.vertex_tag == t
        if not mask.any():
            return math.nan
        return dual_flux(grad_full, cfg.p, mask) / scale

    return Solution(
        nodal_values=u, U1=pots[INC1], U2=pots[INC2], energy=energy,
        element_gradients=kern[1].T.copy(), kkt_residual=res,
        flux1=inclusion_flux(INC1), flux2=inclusion_flux(INC2), p=cfg.p,
        eta_final=eta_final, grad_full=grad_full, energy_history=stats.history,
        eta_sensitivity=sensitivity, newton_iters=stats.newton_iters,
        linear_fallbacks=stats.linear_fallbacks, cg_iters=stats.cg_iters,
        factorizations=stats.factorizations, floor_accepts=stats.floor_accepts)


def uniqueness_probe(mesh, cfg, seed=0):
    """Solve from the zero state and two random ones; return the max
    pairwise relative nodal-l2 distance between the converged states.

    The energy is convex, so all starts must land on the same minimizer up
    to solver tolerance.  The distance is relative to the larger nodal norm,
    floored at unit RMS so that zero boundary data (whose minimizer is
    identically zero) reports the absolute RMS difference.
    """
    rng = np.random.default_rng(seed)
    cond = Condenser(mesh, cfg.inclusion_values)
    vals = cond.lift[mesh.vertex_tag == OUTER]
    lo, hi = (vals.min(), vals.max()) if len(vals) else (0.0, 0.0)
    sols = []
    for k in range(3):
        q = rng.uniform(lo - 0.1, hi + 0.1, cond.n_dofs) if k else cond.initial_q()
        q, _, _ = _continuation(cond, q, cfg.p, _Stats())
        sols.append(cond.nodal(q))
    floor = math.sqrt(mesh.n_vertices)
    return max(float(np.linalg.norm(a - b))
               / max(np.linalg.norm(a), np.linalg.norm(b), floor)
               for a, b in itertools.combinations(sols, 2))
