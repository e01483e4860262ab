import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neckflow import (GeometryError, build_annulus, build_parabola_example,
                      build_symmetric_disc_example, build_table_example,
                      gap_width, load_geometry_config, model_gap_width)
from neckflow.geometry import (CappedGraphCurve, Circle, ConstantPotential,
                               GapProfile, LinearPotential, MirroredCurve,
                               ParabolaProfile, PolyPotential, TableProfile,
                               curve_offset, curve_polyline)

from conftest import asymmetric_noses


def test_gap_width_touching_discs_is_zero():
    g = build_symmetric_disc_example(scale=1.0, eps=0.0)
    assert gap_width(g, 0.0) == 0.0


def test_gap_width_parabola_direct_substitution():
    # h1 - h2 = x'^2 and eps = 1e-3 at x' = 0.1
    g = build_parabola_example(a=0.5, eps=1e-3)
    assert gap_width(g, 0.1) == pytest.approx(0.011, abs=1e-15)


def test_gap_width_circle_profiles_high_precision():
    # oracle: eps + 2(2 - sqrt(4 - x'^2)) at 50 digits
    import mpmath
    mpmath.mp.dps = 50
    expected = float(mpmath.mpf("0.01")
                     + 2 * (2 - mpmath.sqrt(4 - mpmath.mpf("0.25"))))
    g = build_symmetric_disc_example(scale=1.0, eps=1e-2)
    assert gap_width(g, 0.5) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.137016653792583, rel=1e-12)


def test_gap_width_out_of_chart_raises():
    g = build_symmetric_disc_example(eps=1e-2)
    with pytest.raises(GeometryError):
        gap_width(g, 1.0)
    with pytest.raises(GeometryError):
        model_gap_width(g, -1.2)


def test_model_gap_width():
    g = build_symmetric_disc_example(eps=1e-3)
    assert model_gap_width(g, 0.2) == pytest.approx(1e-3 + 0.04)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-0.85, 0.85), eps=st.floats(0.0, 0.1))
def test_gap_width_sandwich(x, eps):
    g = build_symmetric_disc_example(scale=1.0, eps=eps)
    d = gap_width(g, x)
    dbar = model_gap_width(g, x)
    c1, c2 = g.gap.c1, g.gap.c2
    assert min(c1, 1.0) * dbar <= d + 1e-14
    assert d <= max(c2, 1.0) * dbar + 1e-14


class TestSymmetricDiscExample:
    def test_touching_at_origin(self):
        g = build_symmetric_disc_example(scale=1.0, eps=0.0)
        assert g.upper_wall(0.0) == 0.0
        assert g.lower_wall(0.0) == 0.0

    def test_translation_opens_the_gap(self):
        g = build_symmetric_disc_example(scale=1.0, eps=0.01)
        assert g.upper_wall(0.0) - g.lower_wall(0.0) == pytest.approx(0.01)

    def test_gap_curvature_at_origin(self):
        g = build_symmetric_disc_example(scale=1.0, eps=0.0)
        # finite-difference oracle for (h1 - h2)''(0); radius-2 discs each
        # contribute curvature 1/2
        d = 1e-4
        fd = (g.gap.diff(d) - 2 * g.gap.diff(0.0) + g.gap.diff(-d)) / d**2
        assert fd == pytest.approx(1.0, abs=1e-6)
        assert g.gap.gap_hessian0() == pytest.approx(1.0, rel=1e-12)

    def test_validate_and_symmetry(self):
        g = build_symmetric_disc_example(scale=1.0, eps=1e-3)
        assert g.validate()
        assert g.is_mirror_symmetric()
        lo, hi = g.phi_range()
        assert hi - lo == pytest.approx(10.0, rel=1e-3)
        assert lo == pytest.approx(-hi, rel=1e-12)

    def test_inclusion_touching_outer_rejected(self):
        g = build_symmetric_disc_example(scale=1.0, eps=2.2)
        with pytest.raises(GeometryError):
            g.validate()

    def test_negative_inputs_rejected(self):
        with pytest.raises(GeometryError):
            build_symmetric_disc_example(scale=-1.0)
        with pytest.raises(GeometryError):
            build_symmetric_disc_example(eps=-0.5)


class TestGapProfile:
    def test_disc_and_parabola_profiles_validate(self):
        build_symmetric_disc_example(eps=0.0).gap.validate()
        build_parabola_example(eps=0.0).gap.validate()

    def test_offset_table_rejected(self):
        x = np.linspace(-1.2, 1.2, 60)
        prof = TableProfile(x, 0.3 * x * x)
        shifted = GapProfile(h1=prof, h2=lambda t: -prof(t) - 0.5, c1=0.5,
                             c2=2.0)
        with pytest.raises(GeometryError):
            shifted.validate()

    def test_profile_without_curvature0_rejected(self):
        # gap_hessian0 reads curvature0; a bare function has none
        gap = build_parabola_example(eps=0.0).gap
        with pytest.raises(GeometryError, match="h1 has no curvature0"):
            replace(gap, h1=lambda t: gap.h1(t)).validate()

    def test_too_large_c1_rejected(self):
        g = build_symmetric_disc_example(eps=0.0)
        bad = GapProfile(h1=g.gap.h1, h2=g.gap.h2, c1=5.0, c2=g.gap.c2,
                         chart=g.gap.chart)
        with pytest.raises(GeometryError):
            bad.validate()

    def test_table_profile_roundtrip(self, tmp_path):
        x = np.linspace(-1.3, 1.3, 120)
        path = tmp_path / "prof.txt"
        np.savetxt(path, np.column_stack([x, 0.4 * x * x]))
        g = build_table_example(str(path), eps=1e-3)
        assert gap_width(g, 0.25) == pytest.approx(1e-3 + 0.8 * 0.0625,
                                                   rel=1e-6)
        assert g.gap.gap_hessian0() == pytest.approx(1.6, rel=1e-4)


@pytest.mark.parametrize("curve", [
    Circle((0.0, 2.0), 2.0),
    CappedGraphCurve(ParabolaProfile(0.25), 0.999),
    MirroredCurve(CappedGraphCurve(ParabolaProfile(0.5), 0.6, y_off=0.1)),
], ids=["circle", "capped_graph", "mirrored"])
def test_curve_offset_vanishes_on_the_curve(curve):
    # on the curve (graph and cap alike), then halfway to the centroid
    # (inside the convex curve) and as far again outside
    pts = curve_polyline(curve, 64)
    assert np.abs(curve_offset(curve, pts)).max() <= 1e-12
    centre = pts.mean(axis=0)
    assert np.all(curve_offset(curve, 0.5 * (pts + centre)) < 0)
    assert np.all(curve_offset(curve, 2.0 * pts - centre) > 0)


def _marching_polyline(curve, n):
    """Reference: the capped graph's polyline as the marching loops built
    it, x += dx along the graph and t += dt along the cap, at
    curve_polyline's step."""
    step = 2 * math.pi * curve.cap_radius / n
    dx = max(1e-5, step)
    xs, x = [-curve.xc], -curve.xc
    while not x + dx >= curve.xc - 0.3 * dx:
        x += dx
        xs.append(x)
    xs = np.asarray(xs + [curve.xc])
    a0, a1 = curve._theta_join, math.pi - curve._theta_join
    dt = max(1e-4, step / curve.cap_radius)
    ts, t = [a0], a0
    while not t + dt >= a1 - 0.3 * dt:
        t += dt
        ts.append(t)
    ts = np.asarray(ts + [a1])
    (cx, cy), rad = curve.cap_center, curve.cap_radius
    arc = np.column_stack([cx + rad * np.cos(ts), cy + rad * np.sin(ts)])
    return np.vstack([np.column_stack([xs, curve.graph_y(xs)]), arc[1:-1]])


_TABLE_X = np.linspace(-1.3, 1.3, 120)


@pytest.mark.parametrize("n", [64, 4000])
@pytest.mark.parametrize("xc", [0.5, 0.999])
@pytest.mark.parametrize("profile", [
    ParabolaProfile(0.25), ParabolaProfile(0.3), ParabolaProfile(0.5),
    TableProfile(_TABLE_X, 0.4 * _TABLE_X ** 2 + 0.05 * _TABLE_X ** 4),
], ids=["parabola0.25", "parabola0.3", "parabola0.5", "table"])
def test_capped_graph_polyline_is_the_marching_loop(profile, xc, n):
    curve = CappedGraphCurve(profile, xc, y_off=0.01)
    got, want = curve_polyline(curve, n), _marching_polyline(curve, n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _table_example():
    x = np.linspace(-1.3, 1.3, 120)
    return build_table_example(TableProfile(x, 0.4 * x * x), eps=1e-2)


def _swapped_noses():
    noses = asymmetric_noses(1e-2)
    return replace(noses, inclusion1=noses.inclusion2.base,
                   inclusion2=MirroredCurve(noses.inclusion1))


@pytest.mark.parametrize("build", [
    lambda: build_symmetric_disc_example(eps=1e-2),
    lambda: build_parabola_example(eps=1e-2), _table_example,
    lambda: asymmetric_noses(1e-2),
], ids=["disc", "parabola", "table", "noses"])
def test_walls_on_the_inclusion_curves_validate(build):
    assert build().validate()


@pytest.mark.parametrize("build", [
    lambda: replace(build_symmetric_disc_example(eps=1e-2),
                    gap=build_parabola_example().gap),
    _swapped_noses,
], ids=["disc_with_parabola_gap", "swapped_noses"])
def test_walls_off_the_inclusion_curves_raise(build):
    with pytest.raises(GeometryError, match="gap profile inconsistent"):
        build().validate()


def test_potentials():
    pts = np.array([[0.3, -1.5], [0.0, 2.0]])
    assert np.allclose(LinearPotential()(pts), [-1.5, 2.0])
    assert np.allclose(ConstantPotential(7.0)(pts), [7.0, 7.0])
    poly = PolyPotential([(2.0, 0, 1), (1.0, 2, 0)])
    assert np.allclose(poly(pts), [2 * (-1.5) + 0.09, 4.0])


def test_annulus_geometry():
    g = build_annulus(1.0, 2.0)
    assert g.kind == "annulus"
    assert g.validate()
    with pytest.raises(GeometryError):
        build_annulus(2.0, 1.0)
    with pytest.raises(GeometryError):
        gap_width(g, 0.0)


class TestConfigLoading:
    def test_disc_config(self, tmp_path):
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape = disc\nscale = 1\n"
                       "phi = linear_xn\n# comment\n")
        g = load_geometry_config(str(cfg))
        assert (g.name, g.kind, g.eps) == ("disc_scale1", "two_inclusion", 0.0)

    def test_poly_phi_config(self, tmp_path):
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape = parabola\nphi = custom_poly\n"
                       "phi_poly = 1:0:1 0.5:2:0\n")
        g = load_geometry_config(str(cfg))
        val = g.phi(np.array([[1.0, 2.0]]))
        assert val[0] == pytest.approx(2.0 + 0.5)

    def test_table_config(self, tmp_path):
        x = np.linspace(-1.3, 1.3, 80)
        np.savetxt(tmp_path / "prof.dat", np.column_stack([x, 0.3 * x * x]))
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape = table\ntable = prof.dat\n")
        g = load_geometry_config(str(cfg))
        assert gap_width(g.with_eps(0.002), 0.0) == pytest.approx(0.002)

    def test_annulus_config(self, tmp_path):
        # no command runs an annulus, so a config file cannot load one
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape = annulus\nr_inner = 1\nr_outer = 2\n"
                       "phi = const\nphi_value = 1\n")
        with pytest.raises(GeometryError, match="unknown shape 'annulus'"):
            load_geometry_config(str(cfg))

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape beyond repair\n")
        with pytest.raises(GeometryError):
            load_geometry_config(str(cfg))
        cfg.write_text("shape = dodecahedron\n")
        with pytest.raises(GeometryError):
            load_geometry_config(str(cfg))
        # malformed values and exponents the evaluator cannot represent
        for text, key in (("scale = abc", "scale"),
                          ("phi = custom_poly\nphi_poly = 1:0", "phi_poly"),
                          ("phi = custom_poly\nphi_poly = 1:0:-1", "phi_poly"),
                          ("phi = custom_poly\nphi_poly = 1:0.7:1",
                           "phi_poly")):
            cfg.write_text(text + "\n")
            with pytest.raises(GeometryError, match=f"geom.cfg: bad {key}"):
                load_geometry_config(str(cfg))
        # a typo, keys the chosen shape or phi does not read, and a
        # separation, which commands take from --eps only
        for text, key in (("esp = 0.001\nphi_value = 3", "esp"),
                          ("phi = linear_xn\nphi_value = 3", "phi_value"),
                          ("shape = disc\nparabola_a = 0.5", "parabola_a"),
                          ("shape = parabola\nr_inner = 1", "r_inner"),
                          ("shape = disc\neps = 0.5", "eps")):
            cfg.write_text(text + "\n")
            with pytest.raises(GeometryError,
                               match=f"geom.cfg: key '{key}' is unknown"):
                load_geometry_config(str(cfg))
        for terms in ([(1.0, 0, -1)], [(1.0, 0.7, 0)]):
            with pytest.raises(GeometryError, match="non-negative integers"):
                PolyPotential(terms)


def test_parabola_curvature():
    p = ParabolaProfile(0.25)
    assert p.curvature0() == pytest.approx(0.5)
    g = build_parabola_example(a=0.25, eps=0.0)
    assert g.gap.gap_hessian0() == pytest.approx(1.0)
