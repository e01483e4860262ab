import math
from types import SimpleNamespace

import numpy as np
import pytest

from neckflow import (FitError, GeometryError, INC1, INC2, ConstantPotential,
                      SolveConfig, annulus_circle_flux, build_annulus,
                      build_parabola_example, build_symmetric_disc_example,
                      cross_section_flux, generate, gradient_probe,
                      holder_quotient_scan, holder_scan, max_gradient, solve,
                      solve_decay_fixture, write_csv)
from neckflow.analysis import (fit_log_decay, PROBE_CSV_COLUMNS,
                               recovered_vertex_gradients, wall_window)
from neckflow.harness import FLUX_WINDOWS
from neckflow.solver import ElementOps, dual_flux

from conftest import asymmetric_noses


@pytest.fixture(scope="module")
def annulus_p3():
    g = build_annulus(1.0, 2.0, phi=ConstantPotential(1.0))
    m = generate(g, 0.04)
    sol = solve(m, SolveConfig(p=3.0, inclusion_values={INC1: 0.0}))
    return g, m, sol


class TestFluxes:
    def test_annulus_circle_flux_value_and_constancy(self, annulus_p3):
        # radial exact solution carries current 2 pi C^2 through every circle
        _, m, sol = annulus_p3
        c = 1.0 / (2 * (math.sqrt(2.0) - 1.0))
        exact = 2 * math.pi * c * c
        vals = [annulus_circle_flux(sol, m, r) for r in (1.2, 1.5, 1.8)]
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        assert spread <= 1e-8
        assert np.mean(vals) == pytest.approx(exact, rel=1e-3)

    def test_conservation(self, annulus_p3, disc_solutions_1e2,
                          disc_mesh_1e2):
        # the currents out of the domain through its boundary components
        # sum to zero up to the assembly residual
        def total_outflow(sol, m):
            return -sum(dual_flux(sol.grad_full, sol.p, m.vertex_tag == tag)
                        for tag in np.unique(m.boundary_tags))

        _, m, sol = annulus_p3
        assert abs(total_outflow(sol, m)) <= 1e-7
        for p, s in disc_solutions_1e2.items():
            assert abs(total_outflow(s, disc_mesh_1e2)) <= 1e-7, p

    def test_cross_section_positive_for_flux_branch(self, disc_solutions_1e2,
                                                    disc_mesh_1e2):
        for p in (2.0, 3.0):
            sol = disc_solutions_1e2[p]
            for r in (0.1, 0.2, 0.4):
                assert cross_section_flux(sol, disc_mesh_1e2, r) > 0

    def test_window_plus_complement_is_zero(self, disc_solutions_1e2,
                                            disc_mesh_1e2):
        # the window flux plus the flux through the rest of the same
        # boundary, each summed on its own, less the total inclusion flux
        sol, m = disc_solutions_1e2[2.0], disc_mesh_1e2
        s_r = cross_section_flux(sol, m, 0.2)
        rest = (m.vertex_tag == INC2) & ~wall_window(m, 0.2)
        complement = dual_flux(sol.grad_full, sol.p, rest)
        total = dual_flux(sol.grad_full, sol.p, m.vertex_tag == INC2)
        assert abs(s_r + complement - total) <= 1e-12 * max(1.0,
                                                             abs(sol.energy))

    def test_dual_form_equals_volume_integral(self, annulus_p3,
                                              disc_solutions_1e2,
                                              disc_mesh_1e2):
        # -(1/p) sum_i chi_i dE/du_i against the explicit element integral
        # -int (eta^2 + |grad u|^2)^(p/2-1) grad u . grad chi of the same chi
        def volume_integral(sol, mesh, chi):
            ops = ElementOps(mesh)
            g = sol.element_gradients
            w = sol.eta_final**2 + np.einsum("ti,ti->t", g, g)
            gchi = ops.gradients(chi).T
            return -float(np.dot(ops.area, w ** (sol.p / 2 - 1)
                                 * np.einsum("ti,ti->t", g, gchi)))

        _, m, sol = annulus_p3
        rr = np.linalg.norm(m.vertices, axis=1)
        band = 4.0 * m.grading_report.h_max
        for r in (1.2, 1.5, 1.8):
            chi = np.clip((r - rr) / band + 0.5, 0.0, 1.0)
            ref = volume_integral(sol, m, chi)
            assert annulus_circle_flux(sol, m, r) == \
                pytest.approx(ref, rel=1e-12)
        sol = disc_solutions_1e2[3.0]
        chi = (disc_mesh_1e2.vertex_tag == INC1).astype(float)
        ref = volume_integral(sol, disc_mesh_1e2, chi)
        assert dual_flux(sol.grad_full, sol.p, chi) \
            == pytest.approx(ref, abs=1e-12 * max(1.0, abs(sol.energy)))

    def test_mask_fluxes_are_the_plain_vertex_sum(self, disc_solutions_1e2,
                                                  disc_mesh_1e2):
        # a vertex-mask flux is bit for bit the sum of its vertices'
        # gradient entries, in vertex order, over -p
        m = disc_mesh_1e2
        for p, sol in disc_solutions_1e2.items():
            def ref(mask):
                s = float(sol.grad_full[np.flatnonzero(mask)].sum())
                return -s / sol.p

            scale = max(1.0, abs(sol.energy))
            for tag, flux in ((INC1, sol.flux1), (INC2, sol.flux2)):
                mask = m.vertex_tag == tag
                assert dual_flux(sol.grad_full, sol.p, mask) == ref(mask), \
                    (p, tag)
                assert flux == ref(mask) / scale, (p, tag)
            for r in FLUX_WINDOWS:
                mask = wall_window(m, r)
                assert cross_section_flux(sol, m, r) == ref(mask), (p, r)

    @pytest.mark.parametrize("geom", [
        build_symmetric_disc_example(scale=1.0, eps=1e-3),
        asymmetric_noses(1e-3)], ids=["disc", "asymmetric"])
    def test_window_is_the_lower_wall(self, geom):
        # of the INC2 vertices over |x'| <= r, the window takes those on the
        # lower wall's graph and leaves out the far side of the inclusion,
        # which the widest window reaches on both geometries
        m = generate(geom, 0.1, 2, seed=0)
        x, y = m.vertices.T
        for r in FLUX_WINDOWS:
            window = wall_window(m, r)
            near = (m.vertex_tag == INC2) & (np.abs(x) <= r)
            assert np.all(near[window]) and window.any(), r
            wall = geom.lower_wall(x[window])
            assert np.abs(y[window] - wall).max() <= 1e-12, r
            assert np.all(y[near & ~window] < -1.0), r
            if r == max(FLUX_WINDOWS):
                assert np.any(near & (y < -1.0))

    def test_cutoff_fluxes_match_the_weighted_product(self, annulus_p3):
        # a cutoff-field flux gathers the nonzero weights; against the
        # full product -(chi @ dE/du) / p it differs only by rounding,
        # bounded relative to the sum of the terms' magnitudes
        def check(val, sol, chi):
            ref = -float(chi @ sol.grad_full) / sol.p
            size = float(np.abs(chi) @ np.abs(sol.grad_full)) / sol.p
            assert abs(val - ref) <= 1e-12 * size

        _, m, sol = annulus_p3
        rr = np.linalg.norm(m.vertices, axis=1)
        band = 4.0 * m.grading_report.h_max
        for r in (1.2, 1.5, 1.8):
            chi = np.clip((r - rr) / band + 0.5, 0.0, 1.0)
            check(annulus_circle_flux(sol, m, r), sol, chi)

    def test_window_domain_error(self, disc_solutions_1e2, disc_mesh_1e2):
        sol = disc_solutions_1e2[2.0]
        with pytest.raises(GeometryError):
            cross_section_flux(sol, disc_mesh_1e2, 1.5)
        with pytest.raises(GeometryError):
            cross_section_flux(sol, disc_mesh_1e2, 0.0)


class TestMaxGradient:
    def test_constant_data_gives_zero(self):
        g = build_symmetric_disc_example(eps=1e-2, phi=ConstantPotential(3.0))
        m = generate(g, 0.2, 6, seed=0)
        sol = solve(m, SolveConfig(p=2.0))
        val, _ = max_gradient(sol, m, window=0.25)
        assert val <= 1e-9

    def test_mirror_tie_location_is_stable_under_rounding(self):
        # two mirror-image triangles whose gradients tie up to one ulp: the
        # reported location is the upper one whichever of the two is larger
        cent = np.array([[0.1, -0.2], [0.1, 0.2], [0.0, 0.0]])
        mesh = SimpleNamespace(centroids=cent)
        base = np.array([[3.0, 4.0], [3.0, -4.0], [1.0, 1.0]])
        base_val, loc = max_gradient(SimpleNamespace(element_gradients=base),
                                     mesh)
        assert base_val == 5.0 and loc == (0.1, 0.2)
        for direction in (np.inf, -np.inf):
            g = base.copy()
            g[0, 1] = np.nextafter(4.0, direction)
            val, loc = max_gradient(SimpleNamespace(element_gradients=g), mesh)
            assert val == np.linalg.norm(g, axis=1).max()
            assert loc == (0.1, 0.2)
        # among equal heights the larger x wins
        cent[:] = [[-0.3, 0.2], [0.3, 0.2], [0.0, 0.0]]
        _, loc = max_gradient(SimpleNamespace(element_gradients=base), mesh)
        assert loc == (0.3, 0.2)

    def test_blowup_ratio_linear_case(self, disc_geom):
        # between eps = 1e-2 and 1e-3 the max gradient grows like eps^(-1/2)
        vals = {}
        for eps in (1e-2, 1e-3):
            g = disc_geom.with_eps(eps)
            m = generate(g, 0.1, 6, seed=0)
            sol = solve(m, SolveConfig(p=2.0))
            vals[eps], _ = max_gradient(sol, m, window=0.25)
        ratio = vals[1e-3] / vals[1e-2]
        assert 10**0.4 <= ratio <= 10**0.6

    def test_blowup_ratio_sub_branch(self, disc_geom):
        vals = {}
        for eps in (1e-2, 1e-3):
            g = disc_geom.with_eps(eps)
            m = generate(g, 0.1, 6, seed=0)
            sol = solve(m, SolveConfig(p=1.3))
            vals[eps], _ = max_gradient(sol, m, window=0.25)
        ratio = vals[1e-3] / vals[1e-2]
        assert 10**0.9 <= ratio <= 10**1.1

    def test_probe_matches_element_gradient(self, disc_solutions_1e2,
                                            disc_mesh_1e2, disc_geom):
        sol = disc_solutions_1e2[2.0]
        pr = gradient_probe(sol, disc_mesh_1e2, 0.0)
        tri, _ = disc_mesh_1e2.locate(np.array([[pr.xprime, pr.xn]]))
        assert np.allclose(sol.element_gradients[tri[0]],
                           (pr.grad_x, pr.grad_n))
        assert pr.delta == pytest.approx(1e-2)


class TestDecayFit:
    def test_degenerate_samples_rejected(self):
        with pytest.raises(FitError):
            fit_log_decay([0.3, 0.3, 0.3], [1.0, 1.0, 1.0], 1e-3)

    def test_recovers_its_own_model(self):
        eps = 1e-3
        x = np.linspace(0.2, 0.9, 30)
        mag = 0.7 * np.exp(-2.0 / (math.sqrt(eps) + np.abs(x)))
        c2, r2 = fit_log_decay(x, mag, eps)
        assert c2 == pytest.approx(2.0, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_solved_auxiliary_fixture(self):
        c2, r2, _, _ = solve_decay_fixture(eps=1e-3, p=2.0)
        assert c2 > 0
        assert r2 >= 0.98


class TestHolderScan:
    def test_constant_gradient_field(self):
        g = build_parabola_example(a=0.5, eps=1e-2)

        def grad_eval(pts):
            return np.tile([0.3, -0.2], (len(pts), 1))

        mx, res = holder_quotient_scan(grad_eval, g, 0.5, [0.0, 0.05])
        assert mx == pytest.approx(0.0, abs=1e-12)

    def test_model_gap_field_stable(self):
        # field (0, 1/gap): the normalized quotient is scale free
        vals = []
        for eps in (1e-3, 1e-2, 1e-1):
            g = build_parabola_example(a=0.5, eps=eps)

            def grad_eval(pts, g=g):
                d = g.eps + np.asarray(g.gap.diff(pts[:, 0]))
                return np.column_stack([np.zeros(len(pts)), 1.0 / d])

            mx, _ = holder_quotient_scan(grad_eval, g, 0.5, [0.0])
            vals.append(mx)
        assert max(vals) <= 1.2 * min(vals)

    def test_out_of_chart_point_skipped(self):
        g = build_parabola_example(a=0.5, eps=1e-2)

        def grad_eval(pts):
            return np.zeros((len(pts), 2))

        mx, res = holder_quotient_scan(grad_eval, g, 0.5, [0.95])
        assert res[0][1] is None
        assert math.isnan(mx)

    def test_beta_validated(self):
        g = build_parabola_example(a=0.5, eps=1e-2)
        with pytest.raises(ValueError):
            holder_quotient_scan(lambda p: np.zeros((len(p), 2)), g, 1.5,
                                 [0.0])

    def test_recovered_gradients_match_add_at(self, disc_solutions_1e2,
                                              disc_mesh_1e2):
        # the element gradients as criterion 11 forms them from nodal values,
        # recovered at the vertices against the np.add.at loop
        m, sol = disc_mesh_1e2, disc_solutions_1e2[2.0]
        g = ElementOps(m).gradients(sol.nodal_values).T
        assert np.array_equal(g, sol.element_gradients)
        area = m.areas
        acc = np.zeros((m.n_vertices, 2))
        wts = np.zeros(m.n_vertices)
        for k in range(3):
            np.add.at(acc, m.triangles[:, k], g * area[:, None])
            np.add.at(wts, m.triangles[:, k], area)
        assert np.array_equal(recovered_vertex_gradients(m, g),
                              acc / wts[:, None])

    def test_solved_state_bounded(self, disc_geom, disc_solutions_1e2,
                                  disc_mesh_1e2):
        sol = disc_solutions_1e2[2.0]
        pts = [math.sqrt(d - 1e-2) for d in (2e-2, 5e-2, 1e-1)]
        mx, res = holder_scan(disc_mesh_1e2, sol.element_gradients, 0.5, pts)
        vals = [v for _, v in res if v is not None]
        assert len(vals) == 3
        assert max(vals) / min(vals) <= 3.0


def test_probe_csv(tmp_path):
    rows = [{"eps": 1e-3, "p": 2.0, "xprime": 0.0, "xn": 0.0, "delta": 1e-3,
             "grad_x": 0.0, "grad_n": 12.5, "predicted_grad_n": 12.0}]
    path = tmp_path / "probes.csv"
    write_csv(str(path), PROBE_CSV_COLUMNS, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,p,xprime,xn,delta,grad_x,grad_n,predicted_grad_n"
    assert lines[1].startswith("0.001,2,0,0,0.001,0,12.5,12")
    write_csv(str(path), ("p", "eps"), rows, first_line="# note")
    assert path.read_text() == "# note\np,eps\n2,0.001\n"
