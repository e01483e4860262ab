import copy
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from neckflow import (INC1, INC2, OUTER, ConstantPotential, LinearPotential,
                      NeckflowError, PolyPotential, SolveConfig,
                      SolverError, TriMesh, assemble_energy, build_annulus,
                      build_symmetric_disc_example, generate, solve,
                      uniqueness_probe)
from neckflow.analysis import cross_section_flux
from neckflow.harness import FLUX_WINDOWS
from neckflow import solver
from neckflow.solver import (MAX_NEWTON_ITERS, NEWTON_TOL, PCG_MAXIT,
                             POLISH_ITERS, Condenser, ElementOps, _continuation,
                             _linear_solve, _newton, _pcg, _scaled_residual,
                             _Stats, eta_schedule)

SYMMETRIC_MMD = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def radial_exact(r, p):
    if p == 2.0:
        return np.log(r) / math.log(2.0)
    a = (p - 2.0) / (p - 1.0)
    return (r**a - 1.0) / (2.0**a - 1.0)


@pytest.fixture(scope="module")
def small_annulus():
    return build_annulus(1.0, 2.0), generate(build_annulus(1.0, 2.0), 0.3)


class TestAssembly:
    def test_constant_field(self, small_annulus):
        g, m = small_annulus
        eta = 0.3
        p = 1.7
        v = np.full(m.n_vertices, 4.2)
        e, grad, _ = assemble_energy(m, v, p, eta)
        area = float(m.areas.sum())
        assert e == pytest.approx(eta**p * area, rel=1e-12)
        # constrained gradient vanishes: interior entries are zero
        interior = m.vertex_tag == 0
        assert np.abs(grad[interior]).max() <= 1e-14

    def test_single_triangle_unit_gradient(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        bed = np.array([[0, 1], [1, 2], [2, 0]])
        m = TriMesh(verts, tris, bed, np.array([OUTER] * 3))
        v = verts[:, 0].copy()   # gradient (1, 0)
        e, _, _ = assemble_energy(m, v, 2.0, 0.0)
        assert e == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    def test_gradient_matches_central_differences(self, p, rng):
        # random ~50-vertex mesh: jittered coarse annulus
        g = build_annulus(1.0, 2.0)
        m = generate(g, 0.45)
        interior = np.flatnonzero(m.vertex_tag == 0)
        verts = m.vertices.copy()
        verts[interior] += rng.uniform(-0.02, 0.02, (len(interior), 2))
        m = TriMesh(verts, m.triangles, m.boundary_edges, m.boundary_tags)
        v = rng.normal(size=m.n_vertices)
        ops = ElementOps(m)
        eta = 0.5
        _, grad, _ = assemble_energy(m, v, p, eta, ops)
        # four-point central stencil at h = 1e-3: its O(h^4) truncation is
        # below the energy's rounding, and that rounding over h stays far
        # below the gate however a kernel orders its sums
        h = 1e-3
        worst = 0.0
        for i in rng.integers(0, m.n_vertices, 10):
            e = []
            for k in (2, 1, -1, -2):
                vk = v.copy()
                vk[i] += k * h
                e.append(ops.energy_grad(vk, p, eta)[0])
            fd = (-e[0] + 8 * e[1] - 8 * e[2] + e[3]) / (12 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), 1e-12))
        assert worst <= 1e-6

    def test_hessian_matches_gradient_differences(self, small_annulus, rng):
        g, m = small_annulus
        v = rng.normal(size=m.n_vertices)
        ops = ElementOps(m)
        _, grad, H = assemble_energy(m, v, 2.6, 0.2, ops)
        h = 1e-6
        for i in rng.integers(0, m.n_vertices, 4):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            col = (ops.energy_grad(vp, 2.6, 0.2)[1]
                   - ops.energy_grad(vm, 2.6, 0.2)[1]) / (2 * h)
            dense = H[:, i].toarray().ravel()
            assert np.abs(col - dense).max() <= 1e-5 * max(1.0,
                                                           np.abs(dense).max())

    def test_nonfinite_rejected(self, small_annulus):
        _, m = small_annulus
        v = np.zeros(m.n_vertices)
        v[0] = np.nan
        with pytest.raises(SolverError):
            assemble_energy(m, v, 2.0, 0.1)


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(p=1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_exponent_must_be_finite(self, p):
        with pytest.raises(ValueError, match="finite"):
            SolveConfig(p=p)

    def test_default_schedules(self):
        assert eta_schedule(2.5) == (0.0,)
        sched = eta_schedule(1.5)
        assert sched[-1] > 0 and all(b < a for a, b in zip(sched, sched[1:]))


class TestConstantData:
    def test_constant_solution(self):
        g = build_symmetric_disc_example(eps=1e-2, phi=ConstantPotential(7.0))
        m = generate(g, 0.18, 6, seed=0)
        for p in (1.3, 2.0):
            sol = solve(m, SolveConfig(p=p))
            assert sol.U1 == pytest.approx(7.0, abs=1e-9)
            assert sol.U2 == pytest.approx(7.0, abs=1e-9)
            assert np.abs(sol.nodal_values - 7.0).max() <= 1e-8
            eta_f = sol.eta_final
            area = float(m.areas.sum())
            assert sol.energy == pytest.approx(eta_f**p * area, abs=1e-10)


class TestDiscFixture:
    def test_odd_symmetry(self, disc_geom, disc_solutions_1e2):
        lo, hi = disc_geom.phi_range()
        osc = hi - lo
        for p, sol in disc_solutions_1e2.items():
            assert abs(sol.U1 + sol.U2) <= 1e-6 * osc

    def test_nodal_values_tied_on_inclusions(self, disc_solutions_1e2,
                                             disc_mesh_1e2):
        from neckflow import INC2
        for sol in disc_solutions_1e2.values():
            u = sol.nodal_values
            assert np.all(u[disc_mesh_1e2.vertex_tag == INC1] == sol.U1)
            assert np.all(u[disc_mesh_1e2.vertex_tag == INC2] == sol.U2)

    def test_kkt_flux_and_residual(self, disc_solutions_1e2):
        for sol in disc_solutions_1e2.values():
            assert sol.kkt_residual <= 1e-10
            assert abs(sol.flux1) <= 1e-8
            assert abs(sol.flux2) <= 1e-8

    def test_potential_bounds(self, disc_solutions_1e2):
        for sol in disc_solutions_1e2.values():
            assert -5.0 - 1e-8 <= sol.U1 <= 5.0 + 1e-8
            assert -5.0 - 1e-8 <= sol.U2 <= 5.0 + 1e-8

    def test_maximum_principle_surrogate(self, disc_solutions_1e2):
        for sol in disc_solutions_1e2.values():
            assert sol.nodal_values.min() >= -5.0 - 1e-8 * 10.0
            assert sol.nodal_values.max() <= 5.0 + 1e-8 * 10.0

    def test_energy_monotone_within_stages(self, disc_solutions_1e2):
        for sol in disc_solutions_1e2.values():
            stages = {}
            for eta, energy, _ in sol.energy_history:
                stages.setdefault(eta, []).append(energy)
            for seq in stages.values():
                diffs = np.diff(seq)
                assert np.all(diffs <= 1e-12 * max(1.0, abs(seq[0])))

    def test_eta_sensitivity_recorded(self, disc_solutions_1e2):
        sol = disc_solutions_1e2[1.3]
        assert sol.eta_sensitivity is not None
        assert sol.eta_sensitivity < 0.01


class TestContinuation:
    def test_loose_early_stages_match_full_tolerance(self, disc_mesh_1e2,
                                                     disc_solutions_1e2):
        # reference: the same p=2 warm start, then every stage at the full
        # tolerance with polish
        cond = Condenser(disc_mesh_1e2)
        stats = _Stats()
        q, _ = _newton(cond, cond.initial_q(), 2.0, 0.0, stats, 1e-9, 10,
                       POLISH_ITERS)
        gaps = []
        for eta in eta_schedule(1.3):
            q, _ = _newton(cond, q, 1.3, eta, stats, NEWTON_TOL,
                           MAX_NEWTON_ITERS, POLISH_ITERS)
            gaps.append(q[cond.iU[INC1]] - q[cond.iU[INC2]])
        sol = disc_solutions_1e2[1.3]
        assert sol.eta_sensitivity == pytest.approx(
            abs(gaps[-1] - gaps[-2]) / abs(gaps[-1]), rel=1e-8)
        assert sol.U1 == pytest.approx(q[cond.iU[INC1]], rel=1e-8)
        assert sol.U2 == pytest.approx(q[cond.iU[INC2]], rel=1e-8)
        assert sol.newton_iters < stats.newton_iters


class TestLinearSolve:
    def test_sparse_spd_matches_dense(self, rng):
        # weighted graph Laplacian of a random sparse graph plus a diagonal
        n = 300
        i = rng.integers(0, n, 4 * n)
        j = rng.integers(0, n, 4 * n)
        keep = i != j
        W = sp.coo_matrix((rng.uniform(0.1, 1.0, keep.sum()),
                           (i[keep], j[keep])), shape=(n, n)).tocsr()
        W = W + W.T
        L = sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W
        H = (L + sp.diags(rng.uniform(1e-3, 1.0, n))).tocsc()
        rhs = rng.normal(size=n)
        stats = _Stats()
        d = _linear_solve(H, rhs, stats)
        ref = np.linalg.solve(H.toarray(), rhs)
        assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
        assert stats.linear_fallbacks == 0

    def test_indefinite_zero_diagonal_block(self):
        H = sp.block_diag([np.array([[0.0, 1.0], [1.0, 0.0]]), [[2.0]]],
                          format="csc")
        stats = _Stats()
        d = _linear_solve(H, np.array([1.0, 2.0, 3.0]), stats)
        assert np.allclose(d, [2.0, 1.0, 1.5], rtol=0, atol=1e-15)
        assert stats.linear_fallbacks == 0

    def test_singular_psd_takes_levenberg(self):
        H = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        rhs = np.array([1.0, 1.0])
        stats = _Stats()
        d = _linear_solve(H, rhs, stats)
        assert stats.linear_fallbacks == 1
        assert np.abs(H @ d - rhs).max() <= 1e-8

    def test_inaccurate_direct_solve_takes_levenberg(self):
        # the ordering puts the 1e-20 entry first, and a diagonal pivot that
        # small loses the solution; the residual check catches it
        H = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1e-20]]))
        rhs = np.array([1.0, 2.0])
        stats = _Stats()
        d = _linear_solve(H, rhs, stats)
        assert stats.linear_fallbacks == 1
        assert np.abs(H @ d - rhs).max() <= 1e-6

    def test_nan_matrix_raises(self):
        H = sp.csc_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(SolverError):
            _linear_solve(H, np.array([1.0, 1.0]), _Stats())


def constraint_matrix(mesh, inclusion_values=None):
    """Reference C of u = lift + C q: interior vertices in order, then one
    column per floating inclusion."""
    tag = mesh.vertex_tag
    interior = np.flatnonzero(tag == 0)
    rows, cols = [interior], [np.arange(len(interior))]
    n = len(interior)
    for t in (INC1, INC2):
        if t not in (inclusion_values or {}):
            verts = np.flatnonzero(tag == t)
            rows.append(verts)
            cols.append(np.full(len(verts), n))
            n += 1
    r, c = np.concatenate(rows), np.concatenate(cols)
    return sp.csr_matrix((np.ones(len(r)), (r, c)),
                         shape=(mesh.n_vertices, n))


def odd_constraint_matrix(mesh):
    """Reference S of u = lift + S q for odd data: one column per upper
    interior vertex (+1 there, -1 at its mirror image), then INC1's scalar
    (+1 on INC1, -1 on INC2); seam vertices have no entry."""
    tag, y = mesh.vertex_tag, mesh.vertices[:, 1]
    upper = np.flatnonzero((tag == 0) & (y > 0))
    cols = np.arange(len(upper))
    inc1, inc2 = np.flatnonzero(tag == INC1), np.flatnonzero(tag == INC2)
    r = np.concatenate([upper, mesh.mirror[upper], inc1, inc2])
    c = np.concatenate([cols, cols, np.full(len(inc1) + len(inc2),
                                            len(upper))])
    v = np.concatenate([np.ones(len(upper)), -np.ones(len(upper)),
                        np.ones(len(inc1)), -np.ones(len(inc2))])
    return sp.csr_matrix((v, (r, c)), shape=(mesh.n_vertices, len(upper) + 1))


def mirrored_grid_mesh():
    """A 4 x 3 cell grid on [0, 4] x [-1.5, 1.5], mirror-symmetric about
    x_n = 0: INC1 along the top, INC2 along the bottom, OUTER on the sides.
    The middle row's cells have a seam vertex at their centre and four
    triangles each: a mirror pair above and below it and two self-mirrored
    ones left and right of it."""
    ys = (-1.5, -0.5, 0.5, 1.5)
    pts = [(x, y) for x in range(5) for y in ys]
    pts += [(i + 0.5, 0.0) for i in range(4)]

    def v(i, r):
        return 4 * i + r

    def mirror(i):
        return i if i >= 20 else 4 * (i // 4) + 3 - i % 4

    tris = []
    for i in range(4):
        c = 20 + i
        for t in ((v(i, 2), v(i + 1, 2), v(i + 1, 3)),
                  (v(i, 2), v(i + 1, 3), v(i, 3)),
                  (v(i, 2), v(i + 1, 2), c)):
            tris += [t, tuple(map(mirror, t))]
        tris += [(v(i, 1), c, v(i, 2)), (v(i + 1, 1), v(i + 1, 2), c)]
    edges, tags = [], []
    for x in (0, 4):
        edges += [(v(x, r), v(x, r + 1)) for r in range(3)]
        tags += [OUTER] * 3
    for r, tag in ((3, INC1), (0, INC2)):
        edges += [(v(i, r), v(i + 1, r)) for i in range(4)]
        tags += [tag] * 4
    mesh = TriMesh(np.array(pts, float), tris, edges, tags,
                   geometry=SimpleNamespace(phi=LinearPotential()))
    assert mesh.mirror.tolist() == [mirror(i) for i in range(len(pts))]
    return mesh


def with_phi(mesh, phi):
    """A shallow copy of mesh whose geometry has the outer data phi."""
    out = copy.copy(mesh)
    out.geometry = replace(mesh.geometry, phi=phi)
    return out


def assert_odd_reduction(cond, mesh, rng):
    """With u = lift + S q, the odd Condenser's energy over its triangles is
    the full mesh's, and its reduced gradient and Hessian are S^T grad / 2
    and S^T H S / 2 of the full-space assembly."""
    S = odd_constraint_matrix(mesh)
    assert (cond.n_dofs, cond.copies) == (S.shape[1], 2)
    q = rng.normal(size=cond.n_dofs)
    u = cond.nodal(q)
    assert np.array_equal(u, cond.lift + S @ q)
    assert np.array_equal(u[mesh.mirror], -u)
    assert cond.potentials(q) == {INC1: q[-1], INC2: -q[-1]}
    for p, eta in ((1.3, 1e-2), (2.0, 0.0), (3.0, 0.0)):
        energy, grad, H = assemble_energy(mesh, u, p, eta)
        e_half, ge, kern = cond.ops.element_grad(u, p, eta)
        assert abs(e_half - energy) <= 1e-12 * abs(energy)
        assert cond.ops.energy(u, p, eta) == e_half
        ref = 0.5 * (S.T @ grad)
        assert np.abs(cond.reduce_grad(ge) - ref).max() \
            <= 1e-12 * np.abs(ref).max()
        assert max_rel(cond.reduce_hess(cond.ops.hessian(kern)),
                       0.5 * (S.T @ H @ S)) <= 1e-12


def block_matrix(mesh, blocks):
    """Reference full-space assembly of (9, nt) element blocks through COO."""
    t = mesh.triangles.T
    rows, cols = np.repeat(t, 3, axis=0).ravel(), np.tile(t, (3, 1)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)),
                         shape=(mesh.n_vertices,) * 2).tocsr()


def max_rel(a, b):
    return abs(a - b).max() / abs(b).max()


class EinsumOps:
    """The element kernels in the (nt, 2, 3) layout with np.einsum: the
    reference for ElementOps' component-major ones."""

    def __init__(self, mesh):
        c = mesh.tri_coords()
        self.triangles, self.area = mesh.triangles, mesh.areas
        d = np.roll(c, -1, axis=1) - np.roll(c, -2, axis=1)
        b = np.stack([d[..., 1], -d[..., 0]], 1)
        self.B = b / (2.0 * self.area)[:, None, None]
        self.BtB = np.einsum("tik,til->tkl", self.B, self.B).reshape(-1, 9)

    def kernels(self, u, p, eta):
        """Energy, (nt, 3) gradient contributions, (nt, 3, 3) Hessian blocks."""
        g = np.einsum("tij,tj->ti", self.B, u[self.triangles])
        w = eta * eta + np.einsum("ti,ti->t", g, g)
        energy = float(np.dot(self.area, w ** (p / 2.0)))
        wm = np.where(w > 0, w, 1.0)
        fac = self.area * p * np.where(w > 0, wm ** (p / 2.0 - 1.0), 0.0)
        Bg = np.einsum("tij,ti->tj", self.B, g)
        a1 = (np.full_like(w, p) if p == 2.0
              else p * np.where(w > 0, wm ** (p / 2.0 - 1.0), 0.0))
        a2 = p * (p - 2.0) * np.where(w > 0, wm ** (p / 2.0 - 2.0), 0.0)
        blocks = np.einsum("tk,tl->tkl", Bg, Bg).reshape(-1, 9)
        blocks *= (self.area * a2)[:, None]
        blocks += (self.area * a1)[:, None] * self.BtB
        return energy, fac[:, None] * Bg, blocks.reshape(-1, 3, 3)


class TestComponentMajorKernels:
    @pytest.mark.parametrize("pinned", [{}, {INC2: 0.5}])
    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    @pytest.mark.parametrize("eta", [0.0, 1e-2])
    def test_match_einsum_reference(self, disc_mesh_1e2, pinned, p, eta):
        m = disc_mesh_1e2
        cond, C = Condenser(m, pinned), constraint_matrix(m, pinned)
        u = cond.nodal(np.random.default_rng(6).normal(size=cond.n_dofs))
        energy, ge, kern = cond.ops.element_grad(u, p, eta)
        blocks = cond.ops.hessian(kern)
        e_ref, ge_ref, b_ref = EinsumOps(m).kernels(u, p, eta)
        b_ref = b_ref.reshape(-1, 9).T
        assert abs(energy - e_ref) <= 1e-13 * abs(e_ref)
        assert max_rel(ge, ge_ref.T) <= 1e-13
        assert max_rel(blocks, b_ref) <= 1e-13
        # the reductions to the floating or pinned layout
        grad_ref = C.T @ np.bincount(m.triangles.ravel(), ge_ref.ravel(),
                                     minlength=m.n_vertices)
        assert max_rel(cond.reduce_grad(ge), grad_ref) <= 1e-13
        assert max_rel(cond.reduce_hess(blocks),
                       C.T @ block_matrix(m, b_ref) @ C) <= 1e-13

    def test_p2_blocks_do_not_depend_on_u(self, disc_mesh_1e2):
        # a zero field included: where the gradient vanishes the p = 2
        # blocks are still 2 area B^T B
        m = disc_mesh_1e2
        ops = ElementOps(m)
        u1, u2 = np.random.default_rng(7).normal(size=(2, m.n_vertices))
        b1 = ops.hessian(ops.element_grad(u1, 2.0, 0.0)[2])
        assert np.array_equal(b1, (2.0 * ops.area) * ops.BtB)
        for u, eta in ((u2, 1e-2), (np.zeros(m.n_vertices), 0.0)):
            assert np.array_equal(
                ops.hessian(ops.element_grad(u, 2.0, eta)[2]), b1)
        ref = EinsumOps(m).kernels(u1, 2.0, 0.0)[2]
        assert np.array_equal(b1, ref.reshape(-1, 9).T)

    def test_flat_triangles_have_zero_blocks_at_p3(self, disc_mesh_1e2):
        # zero interior and inclusion values: only triangles that touch the
        # outer boundary have a nonzero gradient
        cond = Condenser(disc_mesh_1e2)
        ops, u = cond.ops, cond.nodal(cond.initial_q())
        blocks = ops.hessian(ops.element_grad(u, 3.0, 0.0)[2])
        flat = np.all(u[ops.tri] == 0.0, axis=0)
        assert flat.any() and not flat.all()
        assert np.all(blocks[:, flat] == 0.0)
        assert np.all(np.abs(blocks[:, ~flat]).max(axis=0) > 0.0)


class TestFixedPattern:
    @pytest.mark.parametrize("pinned", [{}, {INC2: 0.5}])
    def test_reduction_matches_reference(self, disc_mesh_1e2, rng, pinned):
        m = disc_mesh_1e2
        ops, cond = ElementOps(m), Condenser(m, pinned)
        C = constraint_matrix(m, pinned)
        assert cond.n_dofs == C.shape[1]
        q = rng.normal(size=cond.n_dofs)
        u = cond.nodal(q)
        assert np.array_equal(u, cond.lift + C @ q)
        for p, eta in ((1.3, 1e-2), (2.0, 0.0), (3.0, 0.0)):
            _, grad, H = assemble_energy(m, u, p, eta, ops)
            _, ge, kern = ops.element_grad(u, p, eta)
            blocks = ops.hessian(kern)
            assert max_rel(H, block_matrix(m, blocks)) <= 1e-12
            assert max_rel(cond.reduce_hess(blocks), C.T @ H @ C) <= 1e-12
            ref = C.T @ grad
            assert np.abs(cond.reduce_grad(ge) - ref).max() \
                <= 1e-12 * np.abs(ref).max()

    def test_odd_reduction_matches_reference(self, disc_mesh_1e2, rng):
        m = disc_mesh_1e2
        cond = Condenser(m, odd=True)
        assert cond.mirror is m.mirror
        # one triangle per mirror pair, of twice its area
        assert cond.ops.tri.shape == (3, m.n_triangles // 2)
        assert abs(cond.ops.area.sum() - m.areas.sum()) <= 1e-14
        assert_odd_reduction(cond, m, rng)

    def test_odd_reduction_with_self_mirrored_triangles(self, rng):
        m = mirrored_grid_mesh()
        fixed = np.count_nonzero(m.mirror_triangles == np.arange(m.n_triangles))
        assert (m.n_triangles, fixed) == (32, 8)
        cond = Condenser(m, odd=True)
        assert cond.mirror is m.mirror
        # three upper interior vertices and INC1; one triangle per pair and
        # each self-mirrored one, of its own area
        assert cond.n_dofs == 4
        assert cond.ops.tri.shape == (3, (32 + 8) // 2)
        assert abs(cond.ops.area.sum() - m.areas.sum()) <= 1e-14
        assert_odd_reduction(cond, m, rng)

    @pytest.mark.parametrize("kind", ["full", "odd", "pinned"])
    def test_condense_inverts_nodal(self, disc_mesh_1e2, rng, kind):
        m = disc_mesh_1e2
        cond = Condenser(m, {INC2: 0.5} if kind == "pinned" else None,
                         odd=kind == "odd")
        assert (cond.mirror is not None) == (kind == "odd")
        q = rng.normal(size=cond.n_dofs)
        assert np.array_equal(cond.condense(cond.nodal(q),
                                            cond.potentials(q)), q)
        # nodal values that are not odd condense to their odd part
        if kind == "odd":
            u = rng.normal(size=m.n_vertices)
            v = cond.nodal(cond.condense(u, {INC1: 1.0, INC2: -1.0}))
            inner = (m.vertex_tag == 0) & (m.vertices[:, 1] != 0)
            assert np.allclose(v[inner], (u - u[m.mirror])[inner] / 2,
                               rtol=0, atol=1e-15)
            assert np.all(v[m.vertex_tag == INC1] == 1.0)

    def test_mirror_needs_odd_data(self, disc_mesh_1e2):
        # odd=True reduces only odd data with floating inclusions on a mesh
        # with a mirror map; every other case stays in the full space
        m = disc_mesh_1e2
        full = Condenser(m).n_dofs
        assert Condenser(m).mirror is None
        odd = with_phi(m, PolyPotential([(1.0, 0, 1), (0.5, 2, 1)]))
        assert Condenser(odd, odd=True).mirror is odd.mirror is not None
        for phi in (ConstantPotential(1.0),
                    PolyPotential([(1.0, 0, 1), (0.1, 0, 2)])):
            cond = Condenser(with_phi(m, phi), odd=True)
            assert (cond.mirror, cond.copies, cond.n_dofs) == (None, 1, full)
        pinned = Condenser(m, {INC1: 0.0, INC2: 0.0}, odd=True)
        assert (pinned.mirror, pinned.n_dofs) == (None, full - 2)
        annulus = generate(build_annulus(1.0, 2.0), 0.3)
        cond = Condenser(annulus, odd=True)
        assert cond.mirror is None
        assert cond.n_dofs == int((annulus.vertex_tag == 0).sum()) + 1

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    def test_odd_solve_matches_full_solve(self, disc_mesh_1e2,
                                          disc_solutions_1e2, p):
        m = disc_mesh_1e2
        cfg, full = SolveConfig(p=p), disc_solutions_1e2[p]
        half = solve(m, cfg, Condenser(m, odd=True))
        assert half.U1 == -half.U2
        assert np.array_equal(half.nodal_values[m.mirror], -half.nodal_values)
        assert half.kkt_residual <= NEWTON_TOL
        for a, b in ((half.ugap, full.ugap), (half.energy, full.energy),
                     *((cross_section_flux(half, m, r),
                        cross_section_flux(full, m, r))
                       for r in FLUX_WINDOWS)):
            assert abs(a - b) <= 1e-11 * abs(b)

    def test_ordered_solve_matches_fresh_ordering(self, disc_mesh_1e2, rng,
                                                  monkeypatch):
        m = disc_mesh_1e2
        ops, cond = ElementOps(m), Condenser(m)
        specs, splu = [], spla.splu

        def recording_splu(A, permc_spec=None, **kw):
            specs.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kw)

        monkeypatch.setattr(spla, "splu", recording_splu)

        def blocks(q, p, eta):
            return ops.hessian(ops.element_grad(cond.nodal(q), p, eta)[2])

        stats = _Stats()
        rhs = rng.normal(size=cond.n_dofs)
        # the first factorization picks the order and renumbers the pattern;
        # a matrix reduce_hess returned before keeps its own structure
        H0 = cond.reduce_hess(blocks(cond.initial_q(), 2.0, 0.0))
        H0_ref = H0.copy()
        cond.linear_solve(H0, rhs, stats)
        assert abs(H0 - H0_ref).max() == 0.0
        b = blocks(0.1 * rng.normal(size=cond.n_dofs), 1.3, 1e-2)
        d = cond.linear_solve(cond.reduce_hess(b), rhs, stats)
        assert stats.linear_fallbacks == 0
        assert specs == ["MMD_AT_PLUS_A", "NATURAL"]
        H = Condenser(m).reduce_hess(b)      # reduced layout
        lu = spla.splu(H, **SYMMETRIC_MMD)
        ref = lu.solve(rhs)
        assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
        ordered = spla.splu(cond.reduce_hess(b),
                            **dict(SYMMETRIC_MMD, permc_spec="NATURAL"))
        assert ordered.L.nnz + ordered.U.nnz == lu.L.nnz + lu.U.nnz

    def test_singular_ordered_hessian_takes_levenberg(self, disc_mesh_1e2,
                                                      rng):
        m = disc_mesh_1e2
        ops, cond = ElementOps(m), Condenser(m)
        u = cond.nodal(cond.initial_q())
        rhs = rng.normal(size=cond.n_dofs)
        stats = _Stats()
        cond.linear_solve(cond.reduce_hess(
            ops.hessian(ops.element_grad(u, 2.0, 0.0)[2])), rhs, stats)
        assert stats.linear_fallbacks == 0
        # p = 3 at zero interior data: flat interior triangles have zero
        # blocks, so the Hessian has zero rows and is exactly singular
        b = ops.hessian(ops.element_grad(u, 3.0, 0.0)[2])
        d = cond.linear_solve(cond.reduce_hess(b), rhs, stats)
        assert stats.linear_fallbacks == 1
        ref = _linear_solve(Condenser(m).reduce_hess(b), rhs, _Stats())
        assert np.abs(d - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_shared_condenser_matches_fresh_solves(self, disc_geom,
                                                   disc_mesh_1e2,
                                                   disc_solutions_1e2):
        g, m = disc_geom.with_eps(1e-2), disc_mesh_1e2
        cond = Condenser(m)
        for p in (1.3, 2.0, 3.0):
            sol, ref = solve(m, SolveConfig(p=p), cond), disc_solutions_1e2[p]
            assert sol.newton_iters == ref.newton_iters
            assert np.abs(sol.nodal_values - ref.nodal_values).max() <= 1e-12
        # a Condenser of another mesh or constraint layout is refused
        with pytest.raises(ValueError):
            solve(m, SolveConfig(p=2.0, inclusion_values={INC1: 0.0}), cond)
        other = generate(g, 0.35, 6, seed=0)
        with pytest.raises(ValueError):
            solve(other, SolveConfig(p=2.0), cond)


def random_spd(rng, n):
    """Weighted graph Laplacian of a random sparse graph plus a diagonal."""
    i, j = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    keep = i != j
    W = sp.coo_matrix((rng.uniform(0.1, 1.0, keep.sum()), (i[keep], j[keep])),
                      shape=(n, n)).tocsr()
    L = sp.diags(np.asarray((W + W.T).sum(axis=1)).ravel()) - W - W.T
    return (L + sp.diags(rng.uniform(1e-3, 1.0, n))).tocsc()


class TestPCG:
    def test_exact_factorization_converges_in_one_iteration(self):
        rng = np.random.default_rng(1)
        H = random_spd(rng, 300)
        b, stats = rng.normal(size=300), _Stats()
        x = _pcg(H, b, spla.splu(H, **SYMMETRIC_MMD).solve, 1e-10, stats)
        assert stats.cg_iters == 1
        assert np.abs(b - H @ x).max() <= 1e-10 * np.abs(b).max()

    def test_perturbed_factorization_meets_tol_in_max_norm(self):
        rng = np.random.default_rng(2)
        H = random_spd(rng, 300)
        old = (H + sp.diags(rng.uniform(0.0, 0.5, 300))).tocsc()
        b, stats = rng.normal(size=300), _Stats()
        x = _pcg(H, b, spla.splu(old, **SYMMETRIC_MMD).solve, 1e-6, stats)
        assert 1 < stats.cg_iters <= PCG_MAXIT
        assert np.abs(b - H @ x).max() <= 1e-6 * np.abs(b).max()

    def test_negative_curvature_returns_none(self):
        # with its own exact inverse as the preconditioner, CG would solve
        # -H x = b in one step; p^T (-H) p < 0 must stop it first
        rng = np.random.default_rng(3)
        H = random_spd(rng, 50)
        b, stats = rng.normal(size=50), _Stats()
        assert _pcg(-H, b, spla.splu(-H).solve, 1e-6, stats) is None
        assert stats.cg_iters == 0

    def test_iteration_cap_returns_none(self):
        # unpreconditioned CG on a graph Laplacian needs far more iterations
        rng = np.random.default_rng(4)
        H = random_spd(rng, 300)
        b, stats = rng.normal(size=300), _Stats()
        assert _pcg(H, b, lambda r: r, 1e-10, stats) is None
        assert stats.cg_iters == PCG_MAXIT


class TestInexactNewton:
    def test_fewer_factorizations_same_end_state(self, disc_mesh_1e2,
                                                 disc_solutions_1e2,
                                                 monkeypatch):
        m = disc_mesh_1e2
        sol = disc_solutions_1e2[1.3]
        assert 1 <= sol.factorizations < sol.newton_iters
        assert sol.cg_iters > 0 and sol.linear_fallbacks == 0
        # reference: every Newton step solved directly
        direct = Condenser.linear_solve
        monkeypatch.setattr(Condenser, "linear_solve",
                            lambda self, H, rhs, stats, forcing=None:
                            direct(self, H, rhs, stats))
        ref = solve(m, SolveConfig(p=1.3))
        assert ref.cg_iters == 0 and ref.factorizations >= ref.newton_iters
        assert sol.U1 == pytest.approx(ref.U1, rel=1e-8)
        assert sol.U2 == pytest.approx(ref.U2, rel=1e-8)
        # eta_sensitivity is |gap_3 - gap_4| / |gap_4|, about 2.5e-7 here:
        # gaps that agree to rounding (1e-14) move it by about 5e-8 relative
        assert sol.eta_sensitivity == pytest.approx(ref.eta_sensitivity,
                                                    rel=1e-6)

    def test_old_factorization_dropped_before_the_next(self, disc_mesh_1e2,
                                                       monkeypatch):
        m = disc_mesh_1e2
        cond, stats = Condenser(m), _Stats()
        cleared, splu = [], spla.splu

        def checking_splu(*args, **kw):
            cleared.append(stats.precond is None)
            return splu(*args, **kw)

        monkeypatch.setattr(spla, "splu", checking_splu)
        _continuation(cond, cond.initial_q(), 1.3, stats)
        assert stats.cg_iters > 0
        assert len(cleared) == stats.factorizations > 1 and all(cleared)

    def test_each_solve_starts_without_a_preconditioner(self, disc_mesh_1e2,
                                                        disc_solutions_1e2):
        # a shared Condenser takes the same linear solves as a fresh one
        m = disc_mesh_1e2
        cond = Condenser(m)
        for p in (1.3, 2.0, 3.0):
            sol, ref = solve(m, SolveConfig(p=p), cond), disc_solutions_1e2[p]
            assert (sol.factorizations, sol.cg_iters) == \
                (ref.factorizations, ref.cg_iters)


class TestLinearCase:
    def test_one_newton_step(self, disc_mesh_1e2, monkeypatch):
        monkeypatch.setattr(solver, "POLISH_ITERS", 0)
        sol = solve(disc_mesh_1e2, SolveConfig(p=2.0))
        assert sol.newton_iters == 1
        assert sol.kkt_residual <= 1e-10
        assert sol.linear_fallbacks == 0


class TestManufactured:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_radial_solution(self, p):
        g = build_annulus(1.0, 2.0, phi=ConstantPotential(1.0))
        m = generate(g, 0.05)
        sol = solve(m, SolveConfig(p=p, inclusion_values={INC1: 0.0}))
        r = np.linalg.norm(m.vertices, axis=1)
        err = np.abs(sol.nodal_values - radial_exact(r, p)).max()
        assert err <= 1e-4
        assert sol.U1 == 0.0


class TestUniqueness:
    def test_convex_problem_unique(self, disc_geom):
        g = disc_geom.with_eps(1e-2)
        m = generate(g, 0.2, 6, seed=0)
        for p in (2.0, 3.0):
            d = uniqueness_probe(m, SolveConfig(p=p), seed=1)
            assert d <= 10 * 1e-10

    def test_degenerate_regime(self, disc_geom):
        g = disc_geom.with_eps(1e-2)
        m = generate(g, 0.2, 6, seed=0)
        d = uniqueness_probe(m, SolveConfig(p=1.3), seed=2)
        assert d <= 100 * 1e-10

    def test_zero_data(self):
        g = build_symmetric_disc_example(eps=1e-2, phi=ConstantPotential(0.0))
        m = generate(g, 0.25, 6, seed=0)
        cfg = SolveConfig(p=2.0)
        sol = solve(m, cfg)
        assert np.abs(sol.nodal_values).max() <= 1e-10
        # every randomized start also lands on the zero state
        d = uniqueness_probe(m, cfg, seed=3)
        assert d <= 10 * NEWTON_TOL


class TestHessianSpectrum:
    def test_psd_at_solution(self, disc_geom):
        g = disc_geom.with_eps(1e-2)
        m = generate(g, 0.35, 6, seed=0)
        for p in (1.3, 2.0, 3.0):
            cfg = SolveConfig(p=p)
            sol = solve(m, cfg)
            cond = Condenser(m)
            _, _, state = cond.ops.element_grad(sol.nodal_values, p,
                                                eta_schedule(p)[-1])
            H = cond.reduce_hess(cond.ops.hessian(state)).toarray()
            lam = np.linalg.eigvalsh(H)
            assert lam[0] >= -1e-10 * abs(lam[-1])


def test_stagnation_diagnostic(disc_mesh_1e2, monkeypatch):
    for name, value in (("MAX_NEWTON_ITERS", 1), ("NEWTON_TOL", 1e-14),
                        ("POLISH_ITERS", 0)):
        monkeypatch.setattr(solver, name, value)
    with pytest.raises(SolverError, match=r"residual \d\.\d+e[-+]\d+ at eta=0$"):
        solve(disc_mesh_1e2, SolveConfig(p=3.0))


def test_floor_accept_is_counted(disc_mesh_1e2, disc_solutions_1e2,
                                 monkeypatch):
    # a line search that never finds a decrease: from a residual within
    # 100 NEWTON_TOL the iterate is accepted at the rounding floor, counted
    m = disc_mesh_1e2
    assert all(s.floor_accepts == 0 for s in disc_solutions_1e2.values())
    cond = Condenser(m)
    res0 = _scaled_residual(cond, cond.initial_q(), 2.0, 0.0)
    monkeypatch.setattr(ElementOps, "energy", lambda *args: math.inf)
    monkeypatch.setattr(solver, "NEWTON_TOL", res0 / 50)
    sol = solve(m, SolveConfig(p=2.0), cond)
    assert (sol.floor_accepts, sol.newton_iters) == (1, 0)
    assert sol.kkt_residual == res0
    monkeypatch.setattr(solver, "NEWTON_TOL", res0 / 200)
    with pytest.raises(SolverError, match="stagnated"):
        solve(m, SolveConfig(p=2.0), cond)


def test_a_mesh_without_geometry_is_refused(disc_mesh_1e2):
    # the outer data phi come from the mesh's geometry alone
    m = copy.copy(disc_mesh_1e2)
    m.geometry = None
    for call in (lambda: Condenser(m), lambda: solve(m, SolveConfig(p=2.0)),
                 lambda: uniqueness_probe(m, SolveConfig(p=2.0))):
        with pytest.raises(NeckflowError, match="carries no geometry"):
            call()


def test_condenser_layout(disc_mesh_1e2):
    cond = Condenser(disc_mesh_1e2)
    n_int = int((disc_mesh_1e2.vertex_tag == 0).sum())
    assert cond.n_dofs == n_int + 2
    q = cond.initial_q()
    q[cond.iU[INC1]] = 3.25
    u = cond.nodal(q)
    inc1 = disc_mesh_1e2.vertex_tag == INC1
    assert np.all(u[inc1] == 3.25)
