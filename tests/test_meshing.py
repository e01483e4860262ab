import hashlib
import io
import logging
import math
import os
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import Delaunay

from neckflow import (INC1, INC2, OUTER, MeshCapacityError, SolveConfig,
                      SweepSpec, acceptance, build_annulus,
                      build_parabola_example, build_symmetric_disc_example,
                      check_mesh, gap_width, generate, generate_neck_strip,
                      harness, load_mesh, meshing, save_mesh,
                      solve)
from neckflow.errors import MeshError
from neckflow.geometry import Circle
from neckflow.solver import Condenser, ElementOps
from neckflow.meshing import (TriMesh, _chain, _check_loop_covered,
                              _mirror_map, _points_in_loops, _RepairFailed,
                              _SegmentField, _signed_areas, _SizeField,
                              _split_quad_rows, _stitch_columns,
                              _strip_columns_x, _StripMesh, check_mirror)

from conftest import asymmetric_noses


@pytest.fixture(scope="module")
def disc_mesh():
    g = build_symmetric_disc_example(scale=1.0, eps=1e-2)
    return g, generate(g, 0.1, 6, seed=0)


class TestInvariants:
    def test_positive_areas(self, disc_mesh):
        _, m = disc_mesh
        assert np.all(m.areas > 0)

    def test_min_angle(self, disc_mesh):
        _, m = disc_mesh
        assert m.grading_report.min_angle_deg >= 20.0

    def test_closed_loops_per_tag(self, disc_mesh):
        _, m = disc_mesh
        assert m.boundary_loops_ok()
        assert set(np.unique(m.boundary_tags)) == {OUTER, INC1, INC2}

    def test_neck_layer_count_by_point_location(self, disc_mesh):
        # at every sampled x' in the window, a vertical traverse of the gap
        # crosses at least 6 distinct triangles
        g, m = disc_mesh
        for xp in (0.0, 0.13, 0.305, 0.5):
            lo, hi = g.lower_wall(xp), g.upper_wall(xp)
            fr = np.linspace(0.02, 0.98, 40)
            pts = np.column_stack([np.full_like(fr, xp),
                                   lo + fr * (hi - lo)])
            tri, _ = m.locate(pts)
            assert np.all(tri >= 0)
            assert len(np.unique(tri)) >= 6, xp

    def test_centroids_formed_once_on_first_use(self):
        g = build_symmetric_disc_example(scale=1.0, eps=1e-2)
        m = generate(g, 0.3, 4, seed=0)
        check_mesh(m)
        # neither meshing nor checking forms them
        assert "centroids" not in vars(m)
        cent = m.centroids
        assert np.array_equal(cent, m.tri_coords().mean(axis=1))
        assert not cent.flags.writeable
        tri, _ = m.locate(cent[:5])
        assert np.array_equal(tri, np.arange(5))
        assert m.centroids is cent

    def test_locate_matches_brute_force(self, disc_mesh):
        # points over the bounding box (outside the domain and inside the
        # inclusions too) and in the neck, where the triangles are smallest
        g, m = disc_mesh
        rng = np.random.default_rng(0)
        half = 0.5 * gap_width(g, 0.0)
        pts = np.vstack([
            rng.uniform(m.vertices.min(0), m.vertices.max(0), (150, 2)),
            np.column_stack([rng.uniform(-0.3, 0.3, 50),
                             rng.uniform(-half, half, 50)])])
        tri, bary = m.locate(pts)
        a, b, d = m.tri_coords().transpose(1, 0, 2)
        tol = 1e-9
        for i, p in enumerate(pts):
            # every triangle's barycentric coordinates, by locate's formula
            det = (b[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1]) - (d[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
            l1 = ((p[0] - a[:, 0]) * (d[:, 1] - a[:, 1]) - (d[:, 0] - a[:, 0]) * (p[1] - a[:, 1])) / det
            l2 = ((b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (p[0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
            l0 = 1.0 - l1 - l2
            inside = np.flatnonzero((l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol))
            if len(inside) == 0:
                assert tri[i] == -1 and np.all(bary[i] == 0.0)
                continue
            t = tri[i]
            assert t in inside
            assert np.array_equal(bary[i], [l0[t], l1[t], l2[t]])
        assert 0 < np.count_nonzero(tri < 0) < len(pts)

    def test_neck_size_bound(self, disc_mesh):
        # strip cells near the center line stay below gap/layers
        g, m = disc_mesh
        cent = m.centroids
        sel = (np.abs(cent[:, 0]) < 0.3) & (np.abs(cent[:, 1])
                                            < 0.5 * gap_width(g, 0.0))
        c = m.tri_coords()[sel]
        heights = c[..., 1].max(axis=1) - c[..., 1].min(axis=1)
        assert heights.max() <= gap_width(g, 0.3) / 6 * 1.001

    def test_mirror_symmetric_vertex_set(self, disc_mesh):
        _, m = disc_mesh
        key = {(x, y) for x, y in map(tuple, m.vertices)}
        assert all((x, -y) in key for x, y in key)

    def test_check_mesh_passes(self, disc_mesh):
        _, m = disc_mesh
        check_mesh(m, min_angle=20.0)

    def test_areas_formed_once(self, disc_mesh):
        # the orientation fix's areas, negated where a triangle was flipped:
        # bit for bit those of the counterclockwise triangles
        _, m = disc_mesh
        assert np.array_equal(m.areas, _signed_areas(m.tri_coords()))
        assert not m.areas.flags.writeable
        assert ElementOps(m).area is m.areas

    def test_mirror_from_the_mesher(self, disc_mesh):
        # TriMesh derived the map from the coordinates; these restate it
        _, m = disc_mesh
        n = m.n_vertices
        assert m.mirror.dtype == np.int64 and not m.mirror.flags.writeable
        assert np.array_equal(m.mirror[m.mirror], np.arange(n))
        assert np.array_equal(m.vertices[m.mirror], m.vertices * (1, -1))
        fixed = m.mirror == np.arange(n)
        assert fixed.any() and np.all(m.vertices[fixed, 1] == 0.0)

    def test_mirror_pairs_the_triangles(self, disc_mesh):
        # an involution sending each triangle to the one with the mirror
        # image of its vertex set; the mesher makes no self-mirrored one
        _, m = disc_mesh
        partner = m.mirror_triangles
        assert partner.dtype == np.intp and not partner.flags.writeable
        assert np.array_equal(partner[partner], np.arange(m.n_triangles))
        assert np.array_equal(np.sort(m.triangles[partner], axis=1),
                              np.sort(m.mirror[m.triangles], axis=1))
        assert not np.any(partner == np.arange(m.n_triangles))
        assert generate(build_annulus(1.0, 2.0), 0.5).mirror_triangles is None


def test_smaller_separations_stay_valid():
    g = build_symmetric_disc_example(scale=1.0)
    for eps in (1e-3, 1e-4):
        m = generate(g.with_eps(eps), 0.1, 6, seed=0)
        check_mesh(m, min_angle=20.0)
        assert m.grading_report.neck_layers >= 6


@pytest.fixture(scope="module")
def canonical_meshes():
    """The canonical sweep's five meshes, built on one shared far field."""
    spec = acceptance.canonical_spec()
    g = spec.geometry
    far = meshing.FarField(g, spec.target_h, spec.neck_layers, spec.seed)
    return {eps: generate(g.with_eps(eps), spec.target_h, spec.neck_layers,
                          spec.seed, far=far) for eps in spec.eps_list}


class TestTwoRowNeck:
    """At NECK_LAYERS = 2 every centre strip column has one vertex on INC1,
    one on the seam x_n = 0 and one on INC2, so the odd-reduced solve,
    which fixes the seam and gives both inclusions one scalar, gains no
    unknowns from the neck."""

    def test_centre_neck_vertices_lie_on_the_seam(self, canonical_meshes):
        for eps, m in canonical_meshes.items():
            g = m.geometry
            x, y = m.vertices.T
            near = (m.vertex_tag == 0) & (np.abs(x) <= 0.5)
            inside = (y[near] < g.upper_wall(x[near])) & \
                (y[near] > g.lower_wall(x[near]))
            assert inside.sum() > 50, eps
            assert np.all(y[near][inside] == 0.0), eps

    def test_odd_dofs_do_not_grow_as_eps_shrinks(self, canonical_meshes):
        conds = [Condenser(m, odd=True) for m in
                 (canonical_meshes[1e-2], canonical_meshes[1e-4])]
        assert all(c.mirror is not None for c in conds)
        assert abs(conds[0].n_dofs - conds[1].n_dofs) <= 2

    def test_meshes_have_a_mirror_and_pass_the_angle_gate(
            self, canonical_meshes):
        # a sweep only warns below 20 degrees; the canonical meshes meet it
        for m in canonical_meshes.values():
            check_mirror(m)
            check_mesh(m, min_angle=20.0)
            assert m.grading_report.neck_layers == meshing.NECK_LAYERS


@pytest.mark.parametrize("target_h,layers", [
    (0.1, 5), (0.1, 7), (0.07, 6), (0.05, 8), (0.1, 10)])
def test_every_setting_meshes_with_a_mirror(target_h, layers):
    # odd layer counts and the stitches of unequal columns used to break the
    # strip's symmetry; an odd count rounds up to the even one built
    m = generate(build_symmetric_disc_example(scale=1.0, eps=1e-2), target_h,
                 layers, seed=0)
    assert m.mirror is not None
    check_mesh(m, min_angle=20.0)
    assert m.grading_report.neck_layers == layers + layers % 2


def test_odd_solve_on_a_stitched_mesh_matches_full_solve():
    # 0.07/6 stitches the strip's walls to its inner columns
    g = build_symmetric_disc_example(scale=1.0, eps=1e-2)
    m = generate(g, 0.07, 6, seed=0)
    strip = _StripMesh(g, 0.07, 6, 0.9 * g.gap.chart)
    k = strip.top_idx - strip.bot_idx
    assert np.count_nonzero(k[:-1] != k[1:]) > 0
    full = solve(m, SolveConfig(p=2.0))
    cond = Condenser(m, odd=True)
    assert cond.mirror is m.mirror is not None
    half = solve(m, SolveConfig(p=2.0), cond)
    for a, b in ((half.ugap, full.ugap), (half.energy, full.energy)):
        assert abs(a - b) <= 1e-12 * abs(b)
    scale = np.abs(full.nodal_values).max()
    assert np.abs(half.nodal_values - full.nodal_values).max() <= 1e-10 * scale


@pytest.mark.parametrize("seed,target_h,eps", [
    (0, 0.2, 1e-2), (1, 0.2, 1e-2), (3, 0.2, 1e-4), (2, 0.08, 1e-3),
])
def test_coarse_far_field_quality(seed, target_h, eps):
    # wall-pocket fans used to drop the min angle below the gate here
    g = build_symmetric_disc_example(scale=1.0, eps=eps)
    m = generate(g, target_h, 6, seed=seed)
    check_mesh(m, min_angle=20.0)


@pytest.mark.parametrize("seed,target_h,eps", [(3, 0.2, 1e-3),
                                               (5, 0.15, 1e-2)])
def test_coarse_parabola_far_field_quality(seed, target_h, eps):
    # a far field relaxed at each eps left a sliver just right of the right
    # wall joint here (18.4 and 16.8 degrees)
    m = generate(build_parabola_example(eps=eps), target_h, 6, seed=seed)
    check_mesh(m, min_angle=20.0)


def test_annulus_topology():
    m = generate(build_annulus(1.0, 2.0), 0.08)
    assert set(np.unique(m.boundary_tags)) == {OUTER, INC1}
    assert m.boundary_loops_ok()
    assert m.grading_report.min_angle_deg >= 30.0


def test_capacity_error_with_suggested_floor(monkeypatch):
    g = build_symmetric_disc_example(scale=1.0, eps=1e-4)
    monkeypatch.setattr(meshing, "VERTEX_CAP", 4000)
    with pytest.raises(MeshCapacityError) as exc:
        generate(g, 0.1, 6)
    floor = re.search(r"try eps >= (\S+)$", str(exc.value))
    assert float(floor.group(1)) > 1e-4


def test_strip_vertex_cap_counts_the_rows_built(monkeypatch):
    # the cap counts k + 1 vertices per half-strip column from x' = 0 up to,
    # not including, the wall, with the k that is built: 0.1/7 builds 8 rows
    g = build_symmetric_disc_example(scale=1.0, eps=1e-2)
    w = 0.9 * g.gap.chart
    xs = _strip_columns_x(g, 0.1, 7, w)
    strip = _StripMesh(g, 0.1, 7, w)
    k = (strip.top_idx - strip.bot_idx)[len(xs) - 1:]   # the columns at x' >= 0
    assert np.all(k == 8)
    n = int(np.sum(k[:-1] + 1))
    monkeypatch.setattr(meshing, "VERTEX_CAP", n)
    assert np.array_equal(_strip_columns_x(g, 0.1, 7, w), xs)
    monkeypatch.setattr(meshing, "VERTEX_CAP", n - 1)
    with pytest.raises(MeshCapacityError):
        _strip_columns_x(g, 0.1, 7, w)


@pytest.mark.parametrize("geom", [build_annulus(1.0, 2.0),
                                  build_symmetric_disc_example(eps=1e-2)],
                         ids=["annulus", "disc"])
@pytest.mark.parametrize("target_h", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_target_h_raises(geom, target_h):
    with pytest.raises(MeshError, match="target_h"):
        generate(geom, target_h)


@pytest.mark.parametrize("target_h", [0.0, -0.1, math.nan, math.inf])
def test_far_field_refuses_target_h(target_h):
    # its wall grading steps by target_h and would never end at 0; only
    # the refusal is tested, the grading is never run
    with pytest.raises(MeshError, match="target_h"):
        meshing.FarField(build_symmetric_disc_example(eps=1e-2), target_h)


def test_touching_domain_never_meshed():
    g = build_symmetric_disc_example(scale=1.0, eps=0.0)
    with pytest.raises(MeshError):
        generate(g, 0.1, 6)


def test_parabola_geometry_meshes():
    g = build_parabola_example(eps=5e-3)
    m = generate(g, 0.12, 6, seed=0)
    check_mesh(m, min_angle=20.0)


def test_asymmetric_geometry_far_field():
    geom = asymmetric_noses(5e-3)
    m = generate(geom, 0.12, 6, seed=0)
    check_mesh(m, min_angle=20.0)
    assert m.mirror is None
    assert m.boundary_edges_conform()
    sol = solve(m, SolveConfig(p=2.0))
    assert sol.kkt_residual <= 1e-10
    assert sol.U1 > sol.U2   # upward data still drives the gap sign


@pytest.mark.parametrize("geom", [
    replace(build_symmetric_disc_example(scale=1.0, eps=1e-2),
            outer=Circle((0.5, 0.0), 5.0)),
    asymmetric_noses(1e-2),
], ids=["off_centre", "asymmetric"])
def test_outer_vertices_lie_on_the_outer_circle(geom):
    # the seams end on geom.outer and the rims follow it, wherever its
    # centre is; an off-centre circle on the axis keeps the mirror
    geom.validate()
    m = generate(geom, 0.2, 6, seed=0)
    check_mesh(m)
    assert (m.mirror is not None) == geom.is_mirror_symmetric()
    outer = m.vertices[m.vertex_tag == OUTER]
    dist = np.linalg.norm(outer - geom.outer.center, axis=1)
    assert np.abs(dist - geom.outer.radius).max() <= 1e-12


def test_a_far_field_serves_only_its_own_key(caplog):
    # a shared far field gives the mesh generate builds alone, and is
    # relaxed only by its first mesh; one of other settings is refused, and
    # a move that folds a triangle raises
    g = build_symmetric_disc_example(scale=1.0, eps=1e-2)
    far = meshing.FarField(g, 0.2, 6, seed=0)
    caplog.set_level(logging.DEBUG, logger="neckflow")
    generate(g.with_eps(3e-3), 0.2, 6, seed=0, far=far)
    shared = generate(g, 0.2, 6, seed=0, far=far)
    records = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("mesh at eps")]
    assert records[0].startswith("mesh at eps=0.003: far field relaxed")
    assert records[0].endswith(", 3 qhull calls"), records
    assert records[1].startswith("mesh at eps=0.01: far field reused")
    assert records[1].endswith(", 1 qhull calls"), records
    alone = generate(g, 0.2, 6, seed=0)
    assert np.array_equal(shared.vertices, alone.vertices)
    assert np.array_equal(shared.triangles, alone.triangles)
    for kwargs in ({"target_h": 0.15}, {"neck_layers": 8}, {"seed": 1}):
        args = {"target_h": 0.2, "neck_layers": 6, "seed": 0, **kwargs}
        with pytest.raises(MeshError, match="another geometry"):
            generate(g, far=far, **args)
    with pytest.raises(MeshError, match="another geometry"):
        generate(build_parabola_example(eps=1e-2), 0.2, 6, seed=0, far=far)
    far.shift = far.shift * 1e3
    with pytest.raises(MeshError, match="inverts a triangle"):
        generate(g, 0.2, 6, seed=0, far=far)


def _interior_triangle(m):
    """The first triangle with no boundary vertex."""
    return int(np.flatnonzero((m.vertex_tag[m.triangles] == 0).all(axis=1))[0])


@pytest.mark.parametrize("damage", ["hole", "overlap"])
def test_check_mesh_sees_holes_and_overlaps(damage):
    # one interior triangle removed, or repeated: the boundary edges, the
    # angles and the loops are those of the whole mesh
    m = generate(build_symmetric_disc_example(scale=1.0, eps=1e-2), 0.2, 6,
                 seed=0)
    t = _interior_triangle(m)
    tris = (np.delete(m.triangles, t, axis=0) if damage == "hole"
            else np.vstack([m.triangles, m.triangles[t]]))
    bad = TriMesh(m.vertices, tris, m.boundary_edges, m.boundary_tags)
    assert bad.grading_report.min_angle_deg >= 20.0 and bad.boundary_loops_ok()
    with pytest.raises(MeshError, match="exactly one triangle"):
        check_mesh(bad)


def test_a_vertex_on_no_triangle_is_refused():
    # row i of a saved solution is vertex i, so a mesh is never renumbered
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (0.0, 1.0)])
    with pytest.raises(MeshError, match="vertex 2 and 0 more are on no"):
        TriMesh(pts, [(0, 1, 3)], [(0, 1), (1, 3), (3, 0)], [OUTER] * 3)


def test_energy_error_drops_3x_per_refinement():
    # manufactured radial state on the annulus: energy converges at second
    # order, so each halving of target_h shrinks the energy error >= 3x
    g = build_annulus(1.0, 2.0)
    e_exact = 2 * math.pi / math.log(2.0)
    errs = []
    for h in (0.2, 0.1, 0.05):
        sol = solve(generate(g, h),
                    SolveConfig(p=2.0, inclusion_values={INC1: 0.0}))
        errs.append(abs(sol.energy - e_exact))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


class TestStripMesh:
    def test_tags_and_walls(self):
        g = build_symmetric_disc_example(eps=1e-3)
        m = generate_neck_strip(g, 0.05, 8)
        tags = set(np.unique(m.boundary_tags))
        assert tags == {OUTER, INC1, INC2}
        assert m.grading_report.neck_layers >= 8
        # walls sit at |x'| = chart
        walls = m.vertices[m.vertex_tag == OUTER]
        assert np.all(np.abs(np.abs(walls[:, 0]) - g.gap.chart) < 1e-12)

    def test_strip_requires_positive_eps(self):
        g = build_symmetric_disc_example(eps=0.0)
        with pytest.raises(MeshError):
            generate_neck_strip(g, 0.05, 6)


def _mesh_arrays(mesh):
    """The arrays save_mesh writes, by name."""
    return {"vertices": mesh.vertices, "triangles": mesh.triangles,
            "boundary_edges": mesh.boundary_edges,
            "boundary_tags": mesh.boundary_tags,
            "neck_layers": np.int64(mesh.grading_report.neck_layers)}


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Tripwire:
    """An object whose unpickling is recorded in _UNPICKLED."""

    def __reduce__(self):
        return _record_unpickling, ()


# an uncompressed zip ends with a 22-byte end-of-central-directory record
# whose last field is the archive comment's length
_ZIP_TRAILER = 22


def _damage(m, data, damage):
    """The bytes of a damaged mesh file: data is save_mesh's output for m;
    array-level damage is written by np.savez."""
    arrays = _mesh_arrays(m)
    if damage == "header_cut":
        return data[:20]            # inside the first member's local header
    if damage == "truncate":
        return data[:len(data) // 2]
    if damage == "tail_cut":
        return data[:-_ZIP_TRAILER]
    if damage == "trailer_number_cut":
        return data[:-1]
    if damage == "flipped_byte":
        at = data.find(m.vertices.tobytes()) + 8 * m.n_vertices + 3
        return data[:at] + bytes([data[at] ^ 0x10]) + data[at + 1:]
    if damage == "empty":
        return b""
    if damage == "npy_file":
        buf = io.BytesIO()
        np.save(buf, m.vertices)
        return buf.getvalue()
    if damage == "text_format":
        return (b"3 1 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n0 1 2\n0 1 OUTER\n"
                b"1 2 OUTER\n2 0 OUTER\nneck_layers 0\n")
    if damage == "no_neck_layers":
        del arrays["neck_layers"]
    elif damage == "no_triangles":
        del arrays["triangles"]
    elif damage == "extra_array":
        arrays["centroids"] = m.centroids
    elif damage == "extra_value":
        arrays["vertices"] = np.hstack([m.vertices, np.zeros((m.n_vertices, 1))])
    elif damage == "float_index":
        arrays["triangles"] = m.triangles + 0.5
    elif damage == "index_high":
        arrays["triangles"] = m.triangles.copy()
        arrays["triangles"][0, 2] = m.n_vertices
    elif damage == "index_negative":
        arrays["triangles"] = m.triangles.copy()
        arrays["triangles"][0, 2] = -1
    elif damage == "unknown_tag":
        arrays["boundary_tags"] = np.where(m.boundary_tags == OUTER, 7,
                                           m.boundary_tags)
    elif damage == "tag_count":
        arrays["boundary_tags"] = m.boundary_tags[:-1]
    elif damage == "negative_neck_layers":
        arrays["neck_layers"] = np.int64(-1)
    elif damage == "object_array":
        arrays["triangles"] = np.array([_Tripwire()] * 3, dtype=object)
    else:
        raise AssertionError(damage)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


class TestMeshIO:
    def test_roundtrip_exact(self, disc_mesh, tmp_path):
        g, m = disc_mesh
        path = tmp_path / "mesh.npz"
        save_mesh(m, str(path))
        m2 = load_mesh(str(path), geometry=g)
        assert np.array_equal(m2.vertices, m.vertices)
        assert np.array_equal(m2.triangles, m.triangles)
        assert np.array_equal(m2.boundary_edges, m.boundary_edges)
        assert np.array_equal(m2.boundary_tags, m.boundary_tags)
        assert m2.grading_report == m.grading_report
        assert m2.grading_report.neck_layers >= 6

    def test_file_layout(self, disc_mesh, tmp_path):
        # the exact name given (np.savez appends .npz to a str path), and
        # the documented arrays with their dtypes
        _, m = disc_mesh
        path = tmp_path / "mesh.tmp123"
        save_mesh(m, str(path))
        assert os.listdir(tmp_path) == ["mesh.tmp123"]
        with np.load(str(path), allow_pickle=False) as npz:
            got = {name: npz[name] for name in npz.files}
        want = _mesh_arrays(m)
        assert sorted(got) == sorted(want)
        for name, a in want.items():
            assert got[name].dtype == a.dtype and got[name].shape == a.shape
            assert np.array_equal(got[name], a)

    @pytest.mark.parametrize("damage", [
        "header_cut", "truncate", "tail_cut", "trailer_number_cut",
        "flipped_byte", "empty", "npy_file", "text_format", "no_neck_layers",
        "no_triangles", "extra_array", "extra_value", "float_index",
        "index_high", "index_negative", "unknown_tag", "tag_count",
        "negative_neck_layers", "object_array"])
    def test_damaged_file_raises_mesh_error(self, disc_mesh, tmp_path,
                                            damage):
        _, m = disc_mesh
        path = tmp_path / "mesh.npz"
        save_mesh(m, str(path))
        data = _damage(m, path.read_bytes(), damage)
        assert data != path.read_bytes()
        path.write_bytes(data)
        _UNPICKLED.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="mesh.npz"):
                load_mesh(str(path))
        assert not _UNPICKLED

    def test_mirror_roundtrip(self, disc_mesh, tmp_path):
        _, m = disc_mesh
        annulus = generate(build_annulus(1.0, 2.0), 0.3)
        assert annulus.mirror is None
        for mesh, name in ((m, "sym.npz"), (annulus, "none.npz")):
            save_mesh(mesh, str(tmp_path / name))
            back = load_mesh(str(tmp_path / name))
            if mesh.mirror is None:
                assert back.mirror is None
            else:
                assert back.mirror.dtype == np.int64
                assert np.array_equal(back.mirror, mesh.mirror)

    @pytest.mark.parametrize("damage", ["unmapped_triangle", "inc2_tagged_outer"])
    def test_corrupt_mirror_raises_mesh_error(self, tmp_path, damage):
        # a cached mesh of the symmetric geometry that has lost its mirror
        spec = SweepSpec(geometry=build_symmetric_disc_example(scale=1.0),
                         target_h=0.2, cache_dir=str(tmp_path))
        m = harness.case_mesh(spec.geometry, spec, 1e-2)
        assert m.mirror is not None
        arrays = _mesh_arrays(m)
        if damage == "unmapped_triangle":
            # an upper triangle repeated in place of another upper one
            up = np.flatnonzero(m.centroids[:, 1] > 0.1)
            arrays["triangles"] = m.triangles.copy()
            arrays["triangles"][up[0]] = m.triangles[up[1]]
        else:
            arrays["boundary_tags"] = np.where(m.boundary_tags == INC2, OUTER,
                                               m.boundary_tags)
        (path,) = tmp_path.glob("mesh_*.npz")
        np.savez(str(path), **arrays)
        with pytest.raises(MeshError, match="has no mirror") as exc:
            harness.case_mesh(spec.geometry, spec, 1e-2)
        assert path.name in str(exc.value)

    def test_holed_cached_mesh_raises_mesh_error(self, tmp_path):
        # an asymmetric geometry's cached mesh has no mirror to check; one
        # interior triangle removed still fails the read
        spec = SweepSpec(geometry=asymmetric_noses(1e-2), target_h=0.2,
                         cache_dir=str(tmp_path))
        m = harness.case_mesh(spec.geometry, spec, 1e-2)
        arrays = _mesh_arrays(m)
        arrays["triangles"] = np.delete(m.triangles, _interior_triangle(m),
                                        axis=0)
        (path,) = tmp_path.glob("mesh_*.npz")
        np.savez(str(path), **arrays)
        with pytest.raises(MeshError, match="exactly one triangle") as exc:
            harness.case_mesh(spec.geometry, spec, 1e-2)
        assert path.name in str(exc.value)

    def test_tripwire_records_unpickling(self):
        # the object_array case above would see an unpickling
        _UNPICKLED.clear()
        pickle.loads(pickle.dumps(_Tripwire()))
        assert _UNPICKLED == [True]


def _angles_deg_reference(m):
    """Every angle by the law of cosines per vertex, one vertex at a time."""
    c = m.vertices[m.triangles]
    ang = np.empty((m.n_triangles, 3))
    for k in range(3):
        u = c[:, (k + 1) % 3] - c[:, k]
        v = c[:, (k + 2) % 3] - c[:, k]
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        ang[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return ang


@pytest.mark.parametrize("kind", ["disc", "strip", "annulus", "asym"])
def test_grading_report_matches_every_angle_and_edge(kind, disc_mesh):
    # the constructor takes the smallest angle from the largest cosine; it
    # must equal the smallest of all angles bit for bit
    m = {"disc": lambda: disc_mesh[1],
         "strip": lambda: generate_neck_strip(
             build_symmetric_disc_example(eps=1e-2), 0.1, 6),
         "annulus": lambda: generate(build_annulus(), 0.3),
         "asym": lambda: generate(asymmetric_noses(1e-2), 0.2, 6)}[kind]()
    ang = _angles_deg_reference(m)
    c = m.vertices[m.triangles]
    edges = np.concatenate([np.linalg.norm(c[:, i] - c[:, j], axis=1)
                            for i, j in ((0, 1), (1, 2), (2, 0))])
    rep = m.grading_report
    assert rep.min_angle_deg == ang.min()
    assert (rep.h_min, rep.h_max) == (edges.min(), edges.max())
    # a copy with every triangle's orientation reversed grades the same
    flipped = TriMesh(m.vertices, m.triangles[:, ::-1], m.boundary_edges,
                      m.boundary_tags, neck_layers=rep.neck_layers)
    assert np.array_equal(flipped.triangles, m.triangles[:, [2, 0, 1]])
    assert flipped.grading_report == rep


def test_determinism_same_seed(disc_mesh):
    g, m = disc_mesh
    m2 = generate(g, 0.1, 6, seed=0)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)


def test_determinism_same_seed_general_far_field():
    g = asymmetric_noses(5e-3)
    m, m2 = (generate(g, 0.2, 6, seed=5) for _ in range(2))
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
        assert np.array_equal(getattr(m, name), getattr(m2, name)), name


# ---------------------------------------------------------------------------
# even-odd test against the brute-force reference
# ---------------------------------------------------------------------------

def _points_in_loops_brute(pts, loops):
    """Reference even-odd test: every point against every loop segment."""
    a = np.vstack(loops)
    b = np.vstack([np.roll(loop, -1, axis=0) for loop in loops])
    x, y = pts[:, 0][None, :], pts[:, 1][None, :]
    x1, y1 = a[:, 0][:, None], a[:, 1][:, None]
    x2, y2 = b[:, 0][:, None], b[:, 1][:, None]
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return np.sum(cond & (x < xc), axis=0) % 2 == 1


def _assert_matches_brute(pts, loops, cap):
    field = _SegmentField(loops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshing, "_PAIR_CAP", cap)
        got = _points_in_loops(pts, field.a, field.b)
    assert np.array_equal(got, _points_in_loops_brute(pts, loops))


# a coarse grid makes shared y values and horizontal segments common
_grid = st.integers(-8, 8).map(lambda k: k / 4)
_caps = st.sampled_from([1, 3, 7, meshing._PAIR_CAP])


@st.composite
def _loops_and_points(draw):
    loops = [np.asarray(loop, dtype=float) for loop in draw(st.lists(
        st.lists(st.tuples(_grid, _grid), min_size=3, max_size=10),
        min_size=1, max_size=3))]
    vertex_y = sorted(set(np.vstack(loops)[:, 1].tolist()))
    xs = st.one_of(_grid, st.floats(-2.5, 2.5))
    ys = st.one_of(st.sampled_from(vertex_y), _grid, st.floats(-2.5, 2.5))
    pts = draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=40))
    return loops, np.asarray(pts, dtype=float)


@settings(max_examples=300, deadline=None)
@given(case=_loops_and_points(), cap=_caps)
def test_points_in_loops_random_polygons(case, cap):
    loops, pts = case
    _assert_matches_brute(pts, loops, cap)


@settings(max_examples=60, deadline=None)
@given(radii=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=40),
       n_out=st.integers(16, 64), seed=st.integers(0, 2**32 - 1), cap=_caps)
def test_points_in_loops_outer_loop_with_hole(radii, n_out, seed, cap):
    # nested loops: a CCW outer circle around a clockwise star hole
    ang = 2 * math.pi * np.arange(n_out) / n_out
    outer = 5.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    ang = 2 * math.pi * np.arange(len(radii)) / len(radii)
    hole = (np.asarray(radii)[:, None]
            * np.column_stack([np.cos(ang), np.sin(ang)]))[::-1]
    loops = [outer, hole]
    rng = np.random.default_rng(seed)
    vertex_y = np.vstack(loops)[:, 1]
    on_vertex_y = np.column_stack([rng.uniform(-6, 6, len(vertex_y)),
                                   vertex_y])
    pts = np.vstack([rng.uniform(-6, 6, (300, 2)), on_vertex_y, hole, outer])
    _assert_matches_brute(pts, loops, cap)


# ---------------------------------------------------------------------------
# far-field relaxation: rebuild rule and boundary clearance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geom", [
    build_symmetric_disc_example(scale=1.0, eps=1e-2), asymmetric_noses(5e-3),
], ids=["symmetric", "general"])
def test_relaxation_reuses_triangulations(geom, monkeypatch):
    # the symmetric far field relaxes its upper region, the general one both
    # regions.  Each rebuild takes the free points' distance bounds
    # (lower_bound); a region's first rebuild calls qhull (D) and every
    # later one repairs the last triangulation by flips (R), falling back to
    # qhull when the repair fails (F, then D).  Each relaxation step and
    # each of the 3 Laplacian passes admits its moves once (A); the passes
    # share one fresh triangulation, so exactly one qhull call follows a
    # region's last relaxation step.  When every region is relaxed, each is
    # moved to the mesh's eps and triangulated once more (D).  Most moves
    # are far from the loops, and admit tests only the others
    events, moves, tested = [], [0], [0]
    delaunay, repair = meshing.Delaunay, meshing._flip_repair
    admit, lower_bound = _SegmentField.admit, _SegmentField.lower_bound

    def counting(pts):
        events.append("D")
        return delaunay(pts)

    def repairing(pts, simp, nbr):
        try:
            rounds = repair(pts, simp, nbr)
        except _RepairFailed:
            events.append("F")
            raise
        events.append("R")
        return rounds

    def admitting(self, pts, r, bound):
        events.append("A")
        moves[0] += len(pts)
        tested[0] += int(np.sum(bound <= r))
        return admit(self, pts, r, bound)

    def rebuilding(self, pts):
        events.append("B")
        return lower_bound(self, pts)

    monkeypatch.setattr(meshing, "Delaunay", counting)
    monkeypatch.setattr(meshing, "_flip_repair", repairing)
    monkeypatch.setattr(_SegmentField, "admit", admitting)
    monkeypatch.setattr(_SegmentField, "lower_bound", rebuilding)
    m = generate(geom, 0.2, 6, seed=0)
    check_mesh(m, min_angle=20.0)
    events = "".join(events)
    n = 1 if geom.is_mirror_symmetric() else 2
    assert events.endswith("A" + "D" * n), events
    # ADAAA ends a region's relaxation, and only there does A precede D
    regions = re.findall(".*?ADAAA", events[:-n])
    assert "".join(regions) == events[:-n], events
    assert len(regions) == n, events
    for region in regions:
        assert region.count("D") == 2 + region.count("F"), region
        assert (region.count("R") + region.count("F")
                == region.count("B") - 1), region
        assert region.count("R") > 0, region
    assert tested[0] < 0.25 * moves[0]


def test_relaxation_logs_its_fallbacks(monkeypatch, caplog):
    # the first and third flip repairs of each general-path region are made
    # to fail; each region's one DEBUG record names each fallback, forced or
    # not, with its reason, and counts a qhull call for it.  The mesh's
    # record adds one qhull call per region for its triangulation at eps
    forced = {1: "inverted triangle", 3: "round cap"}
    regions = []   # per region: each repair call's failure reason, or None
    relax, repair = meshing._relax_region, meshing._flip_repair

    def relaxing(*args, **kwargs):
        regions.append([])
        return relax(*args, **kwargs)

    def repairing(pts, simp, nbr):
        calls = regions[-1]
        calls.append(forced.get(len(calls) + 1))
        if calls[-1]:
            raise _RepairFailed(calls[-1])
        try:
            return repair(pts, simp, nbr)
        except _RepairFailed as exc:
            calls[-1] = str(exc)
            raise

    monkeypatch.setattr(meshing, "_relax_region", relaxing)
    monkeypatch.setattr(meshing, "_flip_repair", repairing)
    caplog.set_level(logging.DEBUG, logger="neckflow")
    check_mesh(generate(asymmetric_noses(5e-3), 0.2, 6, seed=0))
    messages = [r.getMessage() for r in caplog.records]
    records = [m for m in messages if m.startswith("far-field region")]
    assert len(records) == len(regions) == 2, records
    qhull_calls = 2
    for msg, calls in zip(records, regions):
        assert len(calls) >= 3, msg
        failed = [reason for reason in calls if reason]
        assert f"{2 + len(failed)} qhull calls" in msg, msg
        qhull_calls += 2 + len(failed)
        for reason in forced.values():
            assert msg.count(reason) == failed.count(reason) > 0, msg
    (mesh_record,) = [m for m in messages if m.startswith("mesh at eps")]
    assert "far field relaxed" in mesh_record, mesh_record
    assert mesh_record.endswith(f", {qhull_calls} qhull calls"), mesh_record


def _assert_consistent(pts, simp, nbr):
    """Counterclockwise triangles whose neighbour table matches their shared
    edges: nbr[t, k] is the triangle across the edge opposite vertex k of
    t, or -1 when that edge is on no other triangle."""
    c = pts[simp]
    assert np.all(meshing._cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]) > 0)
    sides = {}
    for t, tri in enumerate(simp.tolist()):
        for k in range(3):
            edge = frozenset((tri[(k + 1) % 3], tri[(k + 2) % 3]))
            sides.setdefault(edge, []).append((t, k))
    for pair in sides.values():
        assert len(pair) <= 2
        if len(pair) == 1:
            assert nbr[pair[0]] == -1
        else:
            (t, k), (u, j) = pair
            assert nbr[t, k] == u and nbr[u, j] == t


def _triangle_set(simp):
    return {tuple(sorted(t)) for t in simp.tolist()}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 150), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]))
def test_flip_repair_matches_qhull(n, seed, step):
    # random points in the unit square move by uniform steps of at most
    # `step` per coordinate, five times; a fixed square frame around them
    # keeps the convex hull, as the fixed boundary loops do in _relax_region
    rng = np.random.default_rng(seed)
    frame = np.array([[-1.0, -1.0], [2.0, -1.0], [2.0, 2.0], [-1.0, 2.0]])
    pts = np.vstack([frame, rng.uniform(0.0, 1.0, (n, 2))])
    simp, nbr = meshing._delaunay_state(pts)
    _assert_consistent(pts, simp, nbr)
    for _ in range(5):
        new = pts.copy()
        new[4:] += rng.uniform(-step, step, (n, 2))
        c = new[simp]
        if np.all(meshing._cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]) > 0):
            meshing._flip_repair(new, simp, nbr)
            _assert_consistent(new, simp, nbr)
            assert _triangle_set(simp) == _triangle_set(Delaunay(new).simplices)
        else:
            with pytest.raises(_RepairFailed, match="inverted triangle"):
                meshing._flip_repair(new, simp, nbr)
            simp, nbr = meshing._delaunay_state(new)
        pts = new
        # edge keys of the kept triangles against np.unique over all edges
        keep = rng.uniform(size=len(simp)) < 0.7
        active = np.arange(len(pts)) + 5
        tris = active[simp[keep]]
        want = np.unique(meshing._edge_keys(tris, np.roll(tris, -1, axis=1),
                                            len(pts) + 5))
        got = meshing._kept_edge_keys(simp, nbr, keep, active, len(pts) + 5)
        assert np.array_equal(got, want)


def test_flip_repair_reports_failure(monkeypatch):
    # a kite whose Delaunay diagonal is 0-2; vertex 3 then moves past that
    # diagonal (an inverted triangle), or towards it until 1-3 is the
    # Delaunay edge, which one round flips and a cap of 0 rounds refuses
    kite = np.array([[0.0, 0.0], [1.2, -0.2], [1.0, 1.0], [-0.2, 1.2]])
    for moved, reason, cap in (([0.6, 0.4], "inverted triangle", 32),
                               ([0.4, 0.6], "round cap", 0)):
        pts = kite.copy()
        pts[3] = moved
        simp, nbr = meshing._delaunay_state(kite)
        assert _triangle_set(simp) == {(0, 1, 2), (0, 2, 3)}
        monkeypatch.setattr(meshing, "_FLIP_ROUNDS", cap)
        with pytest.raises(_RepairFailed, match=reason):
            meshing._flip_repair(pts, simp, nbr)
    monkeypatch.setattr(meshing, "_FLIP_ROUNDS", 32)
    simp, nbr = meshing._delaunay_state(kite)
    assert meshing._flip_repair(pts, simp, nbr) == 1
    assert _triangle_set(simp) == {(0, 1, 3), (1, 2, 3)}
    _assert_consistent(pts, simp, nbr)


# sha256 of the mesh of each far-field path at eps 1e-2 and seed 0 (integer
# arrays exact, vertices rounded to 12 digits), by MESHER_VERSION: a change
# that alters the meshes must bump the version, so that mesh-cache files of
# the old meshes are not read as the new ones.  The symmetric mesh reflects
# its upper far-field region and the general ones relax both; at target_h
# 0.1 the general path stitches the strip's walls to its inner columns
_MESH_HASHES = {
    6: {"symmetric": "a3c224f217981d8bf5ddcf3881038cb8"
                     "4b82fd33fb6c750d1d9ce1e56c1e9242",
        "general": "b974c332ddbe8657be37874fd33bb1bd"
                   "cdf1f2eaa8a5f33b60c2149c34a1f15b",
        "general_stitched": "7bf2ae2eac8d6a93f9ae4fb04e7e0861"
                            "6e46a4959478f23352191ca04c711f74"},
    7: {"symmetric": "f266f571f2be0972e27b25dbc220b435"
                     "1fe4c0b5cde23189e23d8ad4d6f052c1",
        "general": "ff9dfa5a6cdb3df5a0690b54c2163a2d"
                   "1717146d76e883e8d012e65cf94bd981",
        "general_stitched": "eecbe72f0eba4f7c2454622a49f07911"
                            "bf6196289f219f46f0344d8eeda4aa78"},
}


@pytest.mark.parametrize("path", ["symmetric", "general", "general_stitched"])
def test_mesher_version_pins_output(path):
    geom = (build_symmetric_disc_example(scale=1.0, eps=1e-2)
            if path == "symmetric" else asymmetric_noses(1e-2))
    m = generate(geom, 0.1 if path == "general_stitched" else 0.2, 6, seed=0)
    h = hashlib.sha256((np.round(m.vertices, 12) + 0.0).tobytes())   # -0.0 is 0.0
    for a in (m.triangles, m.boundary_edges, m.boundary_tags):
        h.update(a.tobytes())
    assert h.hexdigest() == _MESH_HASHES[meshing.MESHER_VERSION][path], (
        "the meshes changed: bump meshing.MESHER_VERSION and record the "
        "new hashes")


def _distance_k_nearest(field, pts, k=8):
    """Reference: distance to the k segments with the nearest midpoints, the
    mesher's clearance measure before the reach pre-test."""
    k = min(k, len(field.a))
    _, idx = field.tree.query(pts, k=k)
    idx = idx.reshape(len(pts), -1)
    best = np.full(len(pts), np.inf)
    for col in range(idx.shape[1]):
        i = idx[:, col]
        pa = field.a[i]
        d = field.b[i] - pa
        t = np.clip(np.einsum("ij,ij->i", pts - pa, d)
                    / np.maximum(np.einsum("ij,ij->i", d, d), 1e-300), 0, 1)
        proj = pa + t[:, None] * d
        best = np.minimum(best, np.linalg.norm(pts - proj, axis=1))
    return best


def _near_boundary(field, rng, n):
    """Points within half a segment length of random points on segments."""
    i = rng.integers(0, len(field.a), n)
    d = field.b[i] - field.a[i]
    on = field.a[i] + rng.uniform(0, 1, (n, 1)) * d
    half = 0.5 * np.linalg.norm(d, axis=1, keepdims=True)
    return on + rng.uniform(-1, 1, (n, 2)) * half


def _assert_clear_of_matches(field, pts, r):
    got = field.clear_of(pts, r)
    assert got.dtype == bool and got.shape == (len(pts),)
    assert np.array_equal(got, _distance_k_nearest(field, pts) > r)


@settings(max_examples=200, deadline=None)
@given(case=_loops_and_points(), seed=st.integers(0, 2**32 - 1),
       r_max=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 3.0]))
def test_clear_of_random_polygons(case, seed, r_max):
    loops, pts = case
    field = _SegmentField(loops)
    rng = np.random.default_rng(seed)
    pts = np.vstack([pts, _near_boundary(field, rng, 30)])
    _assert_clear_of_matches(field, pts, rng.uniform(0, r_max, len(pts)))
    _assert_clear_of_matches(field, pts, r_max)


@settings(max_examples=60, deadline=None)
@given(radii=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=40),
       n_out=st.integers(16, 64), seed=st.integers(0, 2**32 - 1))
def test_clear_of_outer_loop_with_hole(radii, n_out, seed):
    # nested loops (a circle around a star hole), with clearances graded
    # like the size field
    ang = 2 * math.pi * np.arange(n_out) / n_out
    outer = 5.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    ang = 2 * math.pi * np.arange(len(radii)) / len(radii)
    hole = (np.asarray(radii)[:, None]
            * np.column_stack([np.cos(ang), np.sin(ang)]))[::-1]
    field = _SegmentField([outer, hole])
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(-6, 6, (300, 2)),
                     _near_boundary(field, rng, 300), hole, outer])
    r = rng.uniform(0.2, 0.6) * np.minimum(
        0.5, 0.05 + 0.4 * np.linalg.norm(pts, axis=1))
    _assert_clear_of_matches(field, pts, r)
    assert not field.clear_of(np.zeros((0, 2)), np.zeros(0)).size


def _assert_admit_exact(field, pts, rng, scale):
    """Random step sequences from inside the loops, with the bound retaken
    now and then as at a rebuild: every point the bound lets through
    untested also passes the even-odd test and clear_of."""
    pts = pts[_points_in_loops(pts, field.a, field.b)]
    bound = field.lower_bound(pts)
    for _ in range(10):
        if rng.uniform() < 0.3:
            bound = field.lower_bound(pts)
        newpos = pts + rng.normal(0.0, scale, pts.shape)
        r = rng.uniform(0.0, 2.0 * scale, len(pts))
        moved = bound - np.linalg.norm(newpos - pts, axis=1)
        passes = _points_in_loops(newpos, field.a, field.b)
        passes &= field.clear_of(newpos, r)
        assert passes[moved > r].all()
        ok = field.admit(newpos, r, moved)
        assert np.array_equal(ok, passes)
        pts[ok] = newpos[ok]
        bound = np.where(ok, moved, bound)


@settings(max_examples=200, deadline=None)
@given(case=_loops_and_points(), pieces=st.sampled_from([1, 8, 32]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.01, 0.1, 0.5]))
def test_admit_random_polygons(case, pieces, seed, scale):
    # cutting every segment into pieces keeps the loops and shortens the
    # longest half-segment, so that points far from the loops go untested
    loops, pts = case
    t = np.arange(pieces)[None, :, None] / pieces
    loops = [(a[:, None] + t * (np.roll(a, -1, axis=0) - a)[:, None]).reshape(-1, 2)
             for a in loops]
    field = _SegmentField(loops)
    rng = np.random.default_rng(seed)
    pts = np.vstack([pts, _near_boundary(field, rng, 30)])
    _assert_admit_exact(field, pts, rng, scale)


@settings(max_examples=60, deadline=None)
@given(radii=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=40),
       n_out=st.integers(16, 64), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.01, 0.1, 0.5]))
def test_admit_outer_loop_with_hole(radii, n_out, seed, scale):
    # nested loops (a circle around a star hole): most points are far from
    # both
    ang = 2 * math.pi * np.arange(n_out) / n_out
    outer = 5.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    ang = 2 * math.pi * np.arange(len(radii)) / len(radii)
    hole = (np.asarray(radii)[:, None]
            * np.column_stack([np.cos(ang), np.sin(ang)]))[::-1]
    field = _SegmentField([outer, hole])
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(-6, 6, (300, 2)), _near_boundary(field, rng, 100)])
    _assert_admit_exact(field, pts, rng, scale)


_coord = st.floats(-2.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(anchors=st.lists(st.tuples(st.tuples(_coord, _coord),
                                  st.floats(1e-4, 1.0)), max_size=5),
       pts=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30),
       target_h=st.floats(1e-3, 10.0), growth=st.floats(0.0, 2.0))
def test_size_field_matches_norm_reference(anchors, pts, target_h, growth):
    pts = np.asarray(pts)
    ref = np.full(len(pts), target_h)
    for p, s in anchors:
        ref = np.minimum(ref, s + growth * np.linalg.norm(pts - p, axis=1))
    got = _SizeField(target_h, anchors, growth)(pts)
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# neck strip: quad split and mirror map
# ---------------------------------------------------------------------------

def _split_quad_rows_loop(ia, ib, pts):
    """Reference: the quad split one quad at a time."""
    tris = []
    for k in range(len(ia) - 1):
        a0, a1, b0, b1 = ia[k], ia[k + 1], ib[k], ib[k + 1]
        d1 = np.sum((pts[a0] - pts[b1]) ** 2)
        d2 = np.sum((pts[a1] - pts[b0]) ** 2)
        if d1 <= d2:
            tris.append((a0, b0, b1))
            tris.append((a0, b1, a1))
        else:
            tris.append((a0, b0, a1))
            tris.append((a1, b0, b1))
    return np.asarray(tris, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       grid=st.booleans())
def test_split_quad_rows_matches_loop(n, seed, grid):
    # integer coordinates make equal diagonals (the <= tie) common
    rng = np.random.default_rng(seed)
    ya = np.sort(rng.integers(0, 6, n) if grid else rng.uniform(0, 1, n))
    yb = np.sort(rng.integers(0, 6, n) if grid else rng.uniform(0, 1, n))
    pts = np.vstack([np.column_stack([np.zeros(n), ya]),
                     np.column_stack([np.ones(n), yb])]).astype(float)
    ia, ib = np.arange(n), np.arange(n, 2 * n)
    got = _split_quad_rows(ia[:-1], ia[1:], ib[:-1], ib[1:], pts)
    assert got.dtype == np.int64
    assert np.array_equal(got, _split_quad_rows_loop(ia, ib, pts))


def _strip_loop(geom, target_h, layers, w):
    """Reference: the strip built one column and one column pair at a time,
    returning (vertices, triangles, boundary edges, tags, neck_layers).
    Every column has an even row count; unequal neighbours are stitched on
    their lower halves, and the stitch is reflected within each column."""
    xs_half = _strip_columns_x(geom, target_h, layers, w)
    xs = np.concatenate([-xs_half[::-1], xs_half[1:]])
    cols_idx, cols_s, pts = [], [], []
    min_layers = None
    n = 0
    for x in xs:
        delta = geom.eps + float(geom.gap.diff(x))
        k = max(layers, int(math.ceil(delta / target_h)))
        k += k % 2
        s = (2.0 * np.arange(k + 1) - k) / (2.0 * k)
        if abs(x) <= 0.5 + 1e-12:
            min_layers = k if min_layers is None else min(min_layers, k)
        h1 = float(geom.gap.h1(x))
        h2 = float(geom.gap.h2(x))
        y = 0.5 * (h1 + h2) + s * (geom.eps + (h1 - h2))
        pts.append(np.column_stack([np.full(k + 1, x), y]))
        cols_idx.append(np.arange(n, n + k + 1))
        cols_s.append(s)
        n += k + 1
    vertices = np.vstack(pts)
    tris = []
    for a in range(len(xs) - 1):
        ia, ib = cols_idx[a], cols_idx[a + 1]
        if len(ia) == len(ib):
            tris.append(_split_quad_rows_loop(ia, ib, vertices))
        else:
            # the lower halves' stitch, then its reflection in each column
            ha, hb = len(ia) // 2 + 1, len(ib) // 2 + 1
            lower = _stitch_columns(ia[:ha], cols_s[a][:ha] + 0.5,
                                    ib[:hb], cols_s[a + 1][:hb] + 0.5)
            flip = {v: c[0] + c[-1] - v for c in (ia, ib) for v in c}
            upper = [[flip[v] for v in t] for t in lower]
            tris.append(np.vstack([lower, upper]))
    edges, tags = [], []
    for a in range(len(xs) - 1):
        edges.append((cols_idx[a][-1], cols_idx[a + 1][-1]))
        tags.append(INC1)
        edges.append((cols_idx[a][0], cols_idx[a + 1][0]))
        tags.append(INC2)
    for wall in (cols_idx[0], cols_idx[-1]):
        for k in range(len(wall) - 1):
            edges.append((wall[k], wall[k + 1]))
            tags.append(OUTER)
    return (vertices, np.vstack(tris), np.asarray(edges), np.asarray(tags),
            min_layers if min_layers is not None else layers)


def _assert_same_bytes(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(asym=st.booleans(), log_eps=st.floats(-4.0, -1.5),
       target_h=st.floats(0.03, 0.3), layers=st.integers(2, 9),
       chart_frac=st.sampled_from([0.9, 1.0]))
@example(asym=False, log_eps=-3.0, target_h=0.05, layers=8, chart_frac=1.0)
@example(asym=True, log_eps=-3.0, target_h=0.1, layers=6, chart_frac=0.9)
def test_strip_matches_column_loop(asym, log_eps, target_h, layers,
                                   chart_frac):
    # chart_frac 1.0 is generate_neck_strip's strip, 0.9 generate's
    eps = 10.0 ** log_eps
    geom = (asymmetric_noses(eps) if asym
            else build_symmetric_disc_example(eps=eps))
    w = chart_frac * geom.gap.chart
    strip = _StripMesh(geom, target_h, layers, w)
    verts, tris, edges, tags, neck_layers = _strip_loop(geom, target_h,
                                                        layers, w)
    _assert_same_bytes(strip.vertices, verts)
    _assert_same_bytes(strip.triangles, tris)
    got_edges, got_tags = strip.boundary(walls_tag=OUTER)
    _assert_same_bytes(got_edges, edges)
    _assert_same_bytes(got_tags, tags)
    assert strip.neck_layers == neck_layers
    if (asym, log_eps, target_h, layers) in ((False, -3.0, 0.05, 8),
                                             (True, -3.0, 0.1, 6)):
        # the decay strip and the mesh_asym strip stitch unequal columns
        k = strip.top_idx - strip.bot_idx
        assert np.count_nonzero(k[:-1] != k[1:]) == (2 if asym else 4)


def _annulus_loop(r1, r2, target_h):
    """Reference: the annulus grid built one ring, quad and edge at a time."""
    nr = max(3, int(math.ceil((r2 - r1) / target_h)))
    nt = max(12, int(math.ceil(math.pi * (r1 + r2) / target_h)))
    nt += nt % 2
    radii = np.linspace(r1, r2, nr + 1)
    theta_half = np.linspace(0.0, math.pi, nt // 2 + 1)
    ang = np.concatenate([theta_half, -theta_half[1:-1][::-1]])
    pts = np.empty(((nr + 1) * nt, 2))
    for i, r in enumerate(radii):
        pts[i * nt:(i + 1) * nt, 0] = r * np.cos(ang)
        pts[i * nt:(i + 1) * nt, 1] = r * np.sin(ang)
        pts[i * nt, 1] = 0.0
        pts[i * nt + nt // 2, 1] = 0.0
    tris = []
    for i in range(nr):
        for j in range(nt):
            a = i * nt + j
            b = i * nt + (j + 1) % nt
            c = (i + 1) * nt + j
            d = (i + 1) * nt + (j + 1) % nt
            if np.sum((pts[a] - pts[d]) ** 2) <= np.sum((pts[b] - pts[c]) ** 2):
                tris.extend([(a, c, d), (a, d, b)])
            else:
                tris.extend([(a, c, b), (b, c, d)])
    edges, tags = [], []
    for j in range(nt):
        edges.append((j, (j + 1) % nt))
        tags.append(INC1)
        edges.append((nr * nt + j, nr * nt + (j + 1) % nt))
        tags.append(OUTER)
    return pts, np.asarray(tris), np.asarray(edges), np.asarray(tags)


@settings(max_examples=15, deadline=None)
@given(r1=st.floats(0.3, 1.5), width=st.floats(0.2, 2.0),
       target_h=st.floats(0.05, 0.5))
@example(r1=1.0, width=1.0, target_h=0.02)
def test_annulus_matches_quad_loop(r1, width, target_h):
    m = generate(build_annulus(r1, r1 + width), target_h)
    pts, tris, edges, tags = _annulus_loop(r1, r1 + width, target_h)
    # every annulus triangle is built counterclockwise, so TriMesh keeps the
    # arrays as generated
    _assert_same_bytes(m.vertices, pts)
    _assert_same_bytes(m.triangles, tris)
    _assert_same_bytes(m.boundary_edges, edges)
    _assert_same_bytes(m.boundary_tags, tags)


def test_chain_matches_loop():
    idx = np.array([4, 7, 1, 9])
    assert _chain(idx).tolist() == [[4, 7], [7, 1], [1, 9]]
    assert _chain(idx, closed=True).tolist() == [[4, 7], [7, 1], [1, 9],
                                                 [9, 4]]
    # the columns of a 2-D index array interleave edge by edge
    two = np.column_stack([idx, idx + 10])
    assert _chain(two).tolist() == [[4, 7], [14, 17], [7, 1], [17, 11],
                                    [1, 9], [11, 19]]
    assert _chain(idx[:1]).shape == (0, 2)


def test_strip_mirror_map_reflects_each_column():
    # vertex v of a column has its reflection at bot + top - v, and the
    # strip's triangles, stitches included (0.03/7), map onto themselves
    g = build_symmetric_disc_example(scale=1.0, eps=1e-3)
    for target_h, layers, stitches in ((0.1, 6, 0), (0.03, 7, 8)):
        strip = _StripMesh(g, target_h, layers, 0.9 * g.gap.chart)
        k = strip.top_idx - strip.bot_idx
        assert np.all(k % 2 == 0)
        assert np.count_nonzero(k[:-1] != k[1:]) == stitches
        col = np.repeat(np.arange(len(k)), k + 1)
        want = (strip.bot_idx + strip.top_idx)[col] - np.arange(len(col))
        assert np.array_equal(_mirror_map(strip.vertices), want)
        edges, tags = strip.boundary(walls_tag=OUTER)
        m = TriMesh(strip.vertices, strip.triangles, edges, tags)
        assert np.array_equal(m.mirror, want)
        assert m.mirror_triangles is not None


def test_mirror_map_needs_every_reflection():
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [2.0, -0.5],
                    [2.0, 0.5]])
    assert _mirror_map(pts).tolist() == [2, 1, 0, 4, 3]
    pts[3, 1] = -0.5 - 1e-16
    assert _mirror_map(pts) is None


# ---------------------------------------------------------------------------
# edge-key checks: failure paths
# ---------------------------------------------------------------------------

class TestEdgeKeyChecks:
    # the unit square split along its diagonal 0-2
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    TRIS = np.array([[0, 1, 2], [0, 2, 3]])
    RIM = [[0, 1], [1, 2], [2, 3], [3, 0]]

    def _mesh(self, edges):
        return TriMesh(self.SQUARE, self.TRIS, np.asarray(edges),
                       np.full(len(edges), OUTER))

    def test_rim_conforms(self):
        assert self._mesh(self.RIM).boundary_edges_conform()

    def test_interior_edge_does_not_conform(self):
        assert not self._mesh(self.RIM + [[2, 0]]).boundary_edges_conform()

    def test_absent_edge_does_not_conform(self):
        edges = self.RIM[:3] + [[1, 3]]
        assert not self._mesh(edges).boundary_edges_conform()

    def test_loop_covered(self):
        _check_loop_covered(self.TRIS, np.array([0, 1, 2, 3]))

    def test_missing_loop_edge_raises(self):
        with pytest.raises(MeshError):
            _check_loop_covered(self.TRIS[:1], np.array([0, 1, 2, 3]))
        with pytest.raises(MeshError):
            _check_loop_covered(self.TRIS, np.array([0, 1, 3]))


class TestBoundaryLoops:
    # two triangles, apart or sharing vertex 0, every edge a boundary edge
    APART = (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                       [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]]),
             [[0, 1, 2], [3, 4, 5]])
    SHARED = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                        [-1.0, 0.0], [-1.0, -1.0]]),
              [[0, 1, 2], [0, 3, 4]])

    def _mesh(self, case, tags):
        pts, tris = case
        edges = np.vstack([_chain(t, closed=True) for t in tris])
        return TriMesh(pts, np.asarray(tris), edges, np.repeat(tags, 3))

    def test_one_loop_per_tag(self):
        assert self._mesh(self.APART, [OUTER, INC1]).boundary_loops_ok()
        assert self._mesh(self.SHARED, [OUTER, INC1]).boundary_loops_ok()

    def test_two_disjoint_loops_under_one_tag(self):
        assert not self._mesh(self.APART, [OUTER, OUTER]).boundary_loops_ok()

    def test_figure_eight(self):
        # vertex 0 has four edges of the tag
        assert not self._mesh(self.SHARED, [OUTER, OUTER]).boundary_loops_ok()
