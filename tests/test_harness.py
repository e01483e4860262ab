import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from neckflow import (ConstantPotential, MeshError, NeckflowError,
                      PolyPotential, SolverError, SweepSpec, acceptance,
                      build_annulus, build_parabola_example,
                      build_symmetric_disc_example, build_table_example,
                      harness, meshing, run_sweep)
from neckflow import cli
from neckflow.cli import main as cli_main
from neckflow.geometry import (CappedGraphCurve, Circle, GapProfile, Geometry,
                               LinearPotential, MirroredCurve, NegatedProfile,
                               ParabolaProfile, TableProfile, _c2_bound)
from neckflow.analysis import GradientProbe
from neckflow.asymptotics import FluxExtrapolation, UGapFit
from neckflow.harness import (CSV_BASE_COLUMNS, _mesh_key, case_mesh,
                              compare_prediction)

from conftest import asymmetric_noses


def _annulus_config(tmp_path):
    cfg = tmp_path / "annulus.cfg"
    cfg.write_text("shape = annulus\nr_inner = 1\nr_outer = 2\n")
    return cfg


def tiny_spec(out_dir=None, **kw):
    geom = build_symmetric_disc_example(scale=1.0)
    base = dict(geometry=geom, p_list=(2.0,), eps_list=(1e-2,),
                target_h=0.16, out_dir=out_dir)
    base.update(kw)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_validation(self, tmp_path):
        with pytest.raises(NeckflowError):
            tiny_spec(p_list=(0.9,)).validate()
        with pytest.raises(NeckflowError):
            tiny_spec(eps_list=(1e-3, 1e-2)).validate()
        # an empty list once meshed and returned ok with no rows or fits
        for empty in ("p_list", "eps_list"):
            with pytest.raises(NeckflowError, match="must not be empty"):
                tiny_spec(**{empty: ()}).validate()
        tiny_spec(str(tmp_path / "out")).validate()

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.0])
    def test_exponents_must_be_finite_and_above_one(self, p):
        with pytest.raises(NeckflowError, match="must exceed 1 and be finite"):
            tiny_spec(p_list=(2.0, p)).validate()

    @pytest.mark.parametrize("layers", [0, -3, 2.5, 2.0])
    def test_neck_layers_must_be_a_positive_integer(self, layers):
        # 2.0 once reached the strip builder and raised a TypeError there
        with pytest.raises(NeckflowError, match="neck_layers"):
            tiny_spec(neck_layers=layers).validate()

    @pytest.mark.parametrize("eps_list", [(1e-2, 0.0), (1e-2, -1e-3),
                                          (math.nan,), (math.inf,)])
    def test_separations_must_be_finite_and_positive(self, eps_list):
        with pytest.raises(NeckflowError, match="meshed only for eps > 0"):
            tiny_spec(eps_list=eps_list).validate()

    @pytest.mark.parametrize("target_h", [0.0, -0.1, math.nan, math.inf])
    def test_target_h_must_be_finite_and_positive(self, target_h):
        with pytest.raises(NeckflowError, match="target_h"):
            tiny_spec(target_h=target_h).validate()

    def test_geometry_must_be_a_two_inclusion_geometry(self):
        with pytest.raises(NeckflowError, match="must be a Geometry"):
            tiny_spec(geometry="geom.cfg").validate()
        with pytest.raises(NeckflowError, match="two-inclusion"):
            tiny_spec(geometry=build_annulus()).validate()


class TestSingleCaseSweep:
    def test_one_row_insufficient_slope(self, tmp_path):
        spec = tiny_spec(str(tmp_path / "out"))
        report = run_sweep(spec)
        assert report.spec is spec
        assert len(report.rows) == 1
        assert report.rows[0]["linear_fallbacks"] == 0
        assert report.rows[0]["factorizations"] >= 1
        assert report.rows[0]["cg_iters"] >= 0
        assert report.fits[2.0]["slope_fit"]["status"] == "insufficient points"
        assert math.isnan(report.fits[2.0]["slope_fit"]["slope"])
        out = tmp_path / "out"
        assert (out / "rows.csv").exists()
        assert (out / "probes.csv").exists()
        assert (out / "report.json").exists()
        values = np.load(out / "solution_2_0.01.npy", allow_pickle=False)
        assert values.dtype == np.float64
        assert values.shape == (report.rows[0]["nv"],)
        assert values.min() == report.rows[0]["u_min"]
        assert values.max() == report.rows[0]["u_max"]
        # the case's scalars are in its report.json row, not in a file of
        # their own
        assert sorted(p.name for p in out.glob("solution_*")) == \
            ["solution_2_0.01.npy"]
        probe_fields = {f.name for f in fields(GradientProbe)}
        assert [set(pr) for pr in report.rows[0]["probes"]] == \
            [probe_fields] * len(harness.PROBES)
        assert [set(e) for e in report.predictions] == [probe_fields | {
            "p", "eps", "status", "predicted_grad_n", "rel_error"}] * 2

    def test_csv_columns_frozen(self, tmp_path):
        spec = tiny_spec(str(tmp_path / "out"))
        run_sweep(spec)
        header = (tmp_path / "out" / "rows.csv").read_text().splitlines()[1]
        cols = header.split(",")
        assert cols[:len(CSV_BASE_COLUMNS)] == list(CSV_BASE_COLUMNS)
        assert cols[len(CSV_BASE_COLUMNS):] == [
            "winflux_r0.4", "winflux_r0.3", "winflux_r0.25", "winflux_r0.2",
            "winflux_r0.15", "winflux_r0.1", "winflux_r0.07", "winflux_r0.05"]


def test_solution_file_roundtrip_is_bitwise(tmp_path):
    # every bit of every nodal value, rounding-level values included
    values = np.concatenate([
        np.random.default_rng(0).normal(size=40) * 10.0 ** np.arange(-20, 20),
        [0.0, -0.0, 5e-324, 1.0 / 3.0, -1e300, math.inf, math.nan]])
    harness._persist_solution(SimpleNamespace(nodal_values=values),
                              {"p": 2.0, "eps": 0.01}, str(tmp_path))
    back = np.load(tmp_path / "solution_2_0.01.npy", allow_pickle=False)
    assert back.dtype == np.float64 and back.shape == values.shape
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def _npz_arrays(path):
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _report_without_runtimes(out):
    """report.json of the sweep in out without its runtime_s fields and the
    spec's out_dir and cache_dir."""
    data = json.loads((pathlib.Path(out) / "report.json").read_text())
    del data["runtime_s"], data["spec"]["out_dir"], data["spec"]["cache_dir"]
    for row in data["rows"]:
        del row["runtime_s"]
    return data


def test_rerun_is_byte_identical_modulo_timestamp(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        run_sweep(tiny_spec(out, eps_list=(1e-2, 6e-3), seed=3,
                            cache_dir=os.path.join(out, "cache")))
    assert _report_without_runtimes(a) == _report_without_runtimes(b)
    ra = (pathlib.Path(a) / "rows.csv").read_text().splitlines()
    rb = (pathlib.Path(b) / "rows.csv").read_text().splitlines()
    assert ra[0].startswith("#") and rb[0].startswith("#")
    assert ra[1:] == rb[1:]
    # np.save writes no timestamp
    for name in ("probes.csv", "solution_2_0.01.npy", "solution_2_0.006.npy"):
        assert ((pathlib.Path(a) / name).read_bytes()
                == (pathlib.Path(b) / name).read_bytes())
    # zip members carry dates, so mesh cache files are compared by arrays
    names = sorted(os.listdir(os.path.join(a, "cache")))
    assert len(names) == 2 and names == sorted(os.listdir(os.path.join(b, "cache")))
    for name in names:
        ma = _npz_arrays(os.path.join(a, "cache", name))
        mb = _npz_arrays(os.path.join(b, "cache", name))
        assert sorted(ma) == sorted(mb)
        for key, arr in ma.items():
            assert arr.dtype == mb[key].dtype
            assert np.array_equal(arr, mb[key])


def test_mesh_cache_reuse(tmp_path):
    cache = str(tmp_path / "cache")
    spec = tiny_spec(str(tmp_path / "out"), cache_dir=cache)
    run_sweep(spec)
    files = os.listdir(cache)
    assert len(files) == 1
    mtime = os.path.getmtime(os.path.join(cache, files[0]))
    run_sweep(tiny_spec(str(tmp_path / "out2"), cache_dir=cache))
    assert os.path.getmtime(os.path.join(cache, files[0])) == mtime


def test_corrupt_cache_file_fails_only_its_separation(tmp_path):
    cache = str(tmp_path / "cache")
    spec = tiny_spec(str(tmp_path / "out"), eps_list=(1e-2, 6e-3),
                     cache_dir=cache)
    run_sweep(spec)
    path = os.path.join(cache, f"mesh_{_mesh_key(spec.geometry, spec, 6e-3)}.npz")
    data = pathlib.Path(path).read_bytes()
    pathlib.Path(path).write_bytes(data[: len(data) // 2])
    out = tmp_path / "out2"
    report = run_sweep(tiny_spec(str(out), eps_list=(1e-2, 6e-3),
                                 cache_dir=cache))
    assert [r["eps"] for r in report.rows] == [1e-2]
    assert [(f["p"], f["eps"]) for f in report.failures] == [(2.0, 6e-3)]
    assert "MeshError" in report.failures[0]["error"]
    assert path in report.failures[0]["error"]
    rows = (out / "rows.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and rows[1].startswith("2,0.01,")


def test_table_geometries_get_their_own_cache_entries(tmp_path):
    x = np.linspace(-1.3, 1.3, 80)
    g1 = build_table_example(TableProfile(x, 0.3 * x * x))
    g2 = build_table_example(TableProfile(x, 0.5 * x * x))
    cache = str(tmp_path / "cache")
    spec = tiny_spec(cache_dir=cache)
    # the key depends on the table rows, not on their order
    xr = x[::-1]
    assert _mesh_key(build_table_example(TableProfile(xr, 0.3 * xr * xr)),
                     spec, 1e-2) == _mesh_key(g1, spec, 1e-2)
    assert _mesh_key(g1, spec, 1e-2) != _mesh_key(g2, spec, 1e-2)
    m1 = case_mesh(g1, spec, 1e-2)
    m2 = case_mesh(g2, spec, 1e-2)
    assert len(os.listdir(cache)) == 2
    assert (m1.vertices.shape != m2.vertices.shape
            or not np.array_equal(m1.vertices, m2.vertices))
    # a second request for the second table reads its own mesh back
    assert np.array_equal(case_mesh(g2, spec, 1e-2).vertices, m2.vertices)


def _parabola_noses(a):
    """A geometry of two parabola noses h = +/- a x'^2, built by hand, so
    it keeps Geometry's default name."""
    h = ParabolaProfile(a)
    inc = CappedGraphCurve(h, 0.999)
    gap = GapProfile(h1=h, h2=NegatedProfile(h), c1=2 * a,
                     c2=_c2_bound(h, 1.0))
    return Geometry(outer=Circle((0, 0), 5.0), inclusion1=inc,
                    inclusion2=MirroredCurve(inc), eps=0.0, gap=gap,
                    phi=LinearPotential())


def test_default_named_geometries_get_their_own_cache_entries(tmp_path):
    g1, g2 = _parabola_noses(0.3), _parabola_noses(0.6)
    assert g1.name == g2.name
    cache = tmp_path / "cache"
    spec = tiny_spec(cache_dir=str(cache), target_h=0.2)
    m1 = case_mesh(g1, spec, 1e-2)
    m2 = case_mesh(g2, spec, 1e-2)
    assert len(os.listdir(cache)) == 2
    assert m1.n_vertices != m2.n_vertices
    # boundary data and name do not change the mesh, so they share its key
    assert _mesh_key(replace(g1, phi=ConstantPotential(1.0), name="other"),
                     spec, 1e-2) == _mesh_key(g1, spec, 1e-2)


def test_unpicklable_geometry_cannot_key_the_cache(tmp_path):
    g = build_symmetric_disc_example()
    bad = replace(g, gap=replace(g.gap, h1=lambda x: 0.25 * x * x))
    with pytest.raises(MeshError, match="cannot key the mesh cache"):
        _mesh_key(bad, tiny_spec(cache_dir=str(tmp_path)), 1e-2)


def test_cache_key_follows_content_not_sharing():
    # copies that hold equal separate objects where the original shares one
    spec = tiny_spec()
    g = build_parabola_example(a=0.3)
    lower = MirroredCurve(CappedGraphCurve(ParabolaProfile(0.3),
                                           g.inclusion1.xc))
    for copy in (replace(g, inclusion2=lower),
                 replace(g, gap=replace(g.gap, h1=ParabolaProfile(0.3)))):
        assert _mesh_key(copy, spec, 1e-2) == _mesh_key(g, spec, 1e-2)
    assert (_mesh_key(build_parabola_example(a=0.6), spec, 1e-2)
            != _mesh_key(g, spec, 1e-2))


class _SelfReferringProfile(ParabolaProfile):
    def __init__(self, a):
        super().__init__(a)
        self.me = self


def test_cyclic_geometry_cannot_key_the_cache(tmp_path):
    g = build_symmetric_disc_example()
    cyclic = replace(g, gap=replace(g.gap, h1=_SelfReferringProfile(0.5)))
    with pytest.raises(MeshError, match="cannot key the mesh cache"):
        _mesh_key(cyclic, tiny_spec(cache_dir=str(tmp_path)), 1e-2)


def test_canonical_cache_keys_are_pinned():
    # a change to what keys a mesh would turn every cache file into a
    # silent miss; a deliberate one updates these
    spec = acceptance.canonical_spec()
    geom = spec.resolved_geometry()
    assert _mesh_key(geom, spec, 1e-2) == (
        "ca99bd6ea47b4a1e78a01db273a1753060ea76ad77c39e5f5cefc222b1ebcc57")
    assert _mesh_key(geom, spec, 1e-4) == (
        "92e812aef7b1ffe2b3693421784eb9a5d2f71b395c965ff1e7422f9b87213ddd")


def test_sweep_cli_fills_the_env_cache(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NECKFLOW_CACHE", str(cache))
    assert cli_main(["sweep", "--p", "2", "--eps", "1e-2", "--target-h",
                     "0.16", "--out", str(tmp_path / "out")]) == 0
    assert len(os.listdir(cache)) == 1


def test_run_sweep_ignores_the_env_cache(tmp_path, monkeypatch):
    # only the command line reads NECKFLOW_CACHE; a library sweep caches
    # where its spec says, here nowhere
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NECKFLOW_CACHE", str(cache))
    spec = tiny_spec(str(tmp_path / "out"))
    assert spec.cache_dir is None and run_sweep(spec).ok
    assert not cache.exists()


def test_mesher_version_is_part_of_the_cache_key(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    spec = tiny_spec(cache_dir=str(cache))
    geom = spec.resolved_geometry()
    first = case_mesh(geom, spec, 1e-2)
    old_files = set(os.listdir(cache))
    monkeypatch.setattr(meshing, "MESHER_VERSION", meshing.MESHER_VERSION + 1)

    def no_reads(*args, **kwargs):
        raise AssertionError("a mesh of another mesher version was read")

    monkeypatch.setattr(harness, "load_mesh", no_reads)
    second = case_mesh(geom, spec, 1e-2)
    new_files = set(os.listdir(cache)) - old_files
    assert len(old_files) == 1 and len(new_files) == 1
    assert np.array_equal(first.vertices, second.vertices)


def test_failure_isolation(tmp_path, monkeypatch):
    # a vertex cap that only the small-separation mesh exceeds
    monkeypatch.setattr(meshing, "VERTEX_CAP", 4000)    # nv 2,655 and 5,067
    spec = tiny_spec(str(tmp_path / "out"), eps_list=(1e-2, 1e-4))
    report = run_sweep(spec)
    assert len(report.rows) == 1
    assert len(report.failures) == 1
    assert report.failures[0]["eps"] == 1e-4
    assert "MeshCapacityError" in report.failures[0]["error"]
    assert not report.ok
    assert spec.cache_dir is None


def test_report_spec_lists_every_spec_field(tmp_path):
    spec = tiny_spec(str(tmp_path / "out"))
    run_sweep(spec)
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(written["spec"]) == {f.name for f in fields(SweepSpec)}
    assert written["spec"]["geometry"] == spec.geometry.name


@pytest.mark.parametrize("pair", [(1, 2), (3, 4)])
def test_neck_layers_that_build_one_mesh_share_its_key(pair):
    # every strip column gets an even row count of at least 2
    spec = tiny_spec()
    geom = spec.resolved_geometry()
    meshes = [meshing.generate(geom.with_eps(1e-2), spec.target_h, layers)
              for layers in pair]
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
        assert (getattr(meshes[0], name).tobytes()
                == getattr(meshes[1], name).tobytes()), name
    keys = {_mesh_key(geom, replace(spec, neck_layers=layers), 1e-2)
            for layers in pair}
    assert len(keys) == 1


def _sharing_spec(case, out_dir, cache_dir):
    """A two-separation sweep of the tiny disc or the asymmetric noses."""
    geom = {"disc": build_symmetric_disc_example(scale=1.0),
            "asymmetric": asymmetric_noses()}[case]
    return tiny_spec(out_dir, geometry=geom, target_h=0.2,
                     eps_list=(1e-2, 3e-3), cache_dir=cache_dir)


@pytest.mark.parametrize("case", ["disc", "asymmetric"])
def test_sweep_mesh_is_a_function_of_its_key(case, tmp_path):
    # the sweep's separations share one far field; each mesh equals the one
    # generate builds on its own, byte for byte
    cache = tmp_path / "cache"
    spec = _sharing_spec(case, str(tmp_path / "out"), str(cache))
    assert run_sweep(spec).ok
    geom = spec.resolved_geometry()
    for eps in spec.eps_list:
        cached = _npz_arrays(cache / f"mesh_{_mesh_key(geom, spec, eps)}.npz")
        m = meshing.generate(geom.with_eps(eps), spec.target_h,
                             spec.neck_layers, seed=spec.seed)
        for name in ("vertices", "triangles", "boundary_edges",
                     "boundary_tags"):
            assert cached[name].dtype == getattr(m, name).dtype
            assert cached[name].tobytes() == getattr(m, name).tobytes(), name


@pytest.mark.parametrize("case,regions", [("disc", 1), ("asymmetric", 2)])
def test_a_sweep_relaxes_each_region_once(case, regions, tmp_path,
                                          monkeypatch):
    # the symmetric far field relaxes one region and reflects the other;
    # sharing lasts one run_sweep, and a fully cached sweep relaxes nothing
    calls = []
    relax = meshing._relax_region

    def counting(*args, **kwargs):
        calls.append(1)
        return relax(*args, **kwargs)

    monkeypatch.setattr(meshing, "_relax_region", counting)
    cache = str(tmp_path / "cache")
    for out, cache_dir, relaxed in (
            ("cold", cache, regions), ("warm", cache, 0),
            ("cold_again", str(tmp_path / "cache2"), regions)):
        calls.clear()
        spec = _sharing_spec(case, str(tmp_path / out), cache_dir)
        assert run_sweep(spec).ok
        assert len(calls) == relaxed, out
    assert len(os.listdir(cache)) == len(spec.eps_list)


def test_a_failed_relaxation_fails_each_separation_it_stops(tmp_path,
                                                            monkeypatch):
    # no separation gets a far field, so each one tries the relaxation
    # again and records the error for every exponent
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise MeshError("relaxation failed")

    monkeypatch.setattr(meshing, "_relax_region", failing)
    spec = replace(_sharing_spec("disc", str(tmp_path / "out"),
                                 str(tmp_path / "cache")), p_list=(2.0, 3.0))
    report = run_sweep(spec)
    assert not report.ok and not report.rows
    assert [(f["p"], f["eps"]) for f in report.failures] == [
        (p, eps) for p in spec.p_list for eps in spec.eps_list]
    assert all(f["error"] == "MeshError: relaxation failed"
               for f in report.failures)
    assert len(calls) == len(spec.eps_list)


@pytest.mark.parametrize("case", ["disc", "asymmetric"])
def test_the_far_field_relaxes_inside_generate(case, tmp_path, monkeypatch):
    # the relaxation is meshing work, timed in generate's span
    inside, calls = [False], []
    relax, gen = meshing._relax_region, meshing.generate

    def relaxing(*args, **kwargs):
        calls.append(inside[0])
        return relax(*args, **kwargs)

    def generating(*args, **kwargs):
        inside[0] = True
        try:
            return gen(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(meshing, "_relax_region", relaxing)
    monkeypatch.setattr(meshing, "generate", generating)
    monkeypatch.setattr(harness, "generate", generating)
    spec = _sharing_spec(case, str(tmp_path / "out"), str(tmp_path / "cache"))
    assert run_sweep(spec).ok
    assert calls and all(calls)


@pytest.mark.parametrize("case", ["odd", "odd_cubic", "asymmetric",
                                  "constant", "even_term"])
def test_only_odd_problems_are_odd_reduced(case):
    # odd_cubic: x_n^3 must be odd bit for bit, which float ** is not
    disc = build_symmetric_disc_example(scale=1.0)
    geom = {"odd": disc, "asymmetric": asymmetric_noses(),
            "odd_cubic": replace(disc, phi=PolyPotential([(1.0, 0, 3)])),
            "constant": replace(disc, phi=ConstantPotential(1.0)),
            "even_term": replace(disc, phi=PolyPotential([(1.0, 0, 1),
                                                          (0.1, 0, 2)]))}[case]
    spec = tiny_spec(geometry=geom, target_h=0.2)
    rows, failures, _ = harness.run_separation(spec, 1e-2)
    assert not failures and len(rows) == 1
    mesh = case_mesh(geom, spec, 1e-2)
    interior = int((mesh.vertex_tag == 0).sum())
    if case.startswith("odd"):
        upper = int(((mesh.vertex_tag == 0) & (mesh.vertices[:, 1] > 0)).sum())
        assert rows[0]["odd_reduced"] and rows[0]["n_dofs"] == upper + 1
    else:
        assert not rows[0]["odd_reduced"]
        assert rows[0]["n_dofs"] == interior + 2


@pytest.mark.parametrize("case", ["jump", "asymmetric"])
def test_a_case_started_from_the_previous_separation_matches_it_alone(
        case, tmp_path):
    # p != 2 after the first separation starts from the previous solution;
    # it must reach the minimizer that the p = 2 start reaches, across a
    # large jump in eps and on a mesh without a mirror (no odd reduction)
    geom, eps_list = {
        "jump": (build_symmetric_disc_example(scale=1.0), (0.1, 1e-4)),
        "asymmetric": (asymmetric_noses(), (1e-2, 3e-3))}[case]
    spec = tiny_spec(geometry=geom, p_list=(1.3, 3.0), eps_list=eps_list,
                     target_h=0.2, cache_dir=str(tmp_path))
    report = run_sweep(spec)
    assert report.ok
    assert [(r["eps"], r["start"]) for r in report.rows] == [
        (eps_list[0], "p2"), (eps_list[1], "previous separation")] * 2
    for row in report.rows:
        assert row["odd_reduced"] == (case == "jump")
        (alone,), _, _ = harness.run_separation(
            replace(spec, p_list=(row["p"],)), row["eps"])
        assert alone["start"] == "p2"
        assert row["ugap"] == pytest.approx(alone["ugap"], rel=1e-9)
        # a relative change of about 1e-6: rel=1e-9 alone would ask the two
        # stages' gaps to agree to 1e-15, below Newton's tolerance
        assert row["eta_sensitivity"] == pytest.approx(
            alone["eta_sensitivity"], rel=1e-9, abs=1e-12, nan_ok=True)
        # the net inclusion currents are zero to the residual
        for key in ("flux1", "flux2"):
            assert row[key] == pytest.approx(alone[key], abs=1e-12)
        assert row["winflux"] == pytest.approx(alone["winflux"], rel=1e-9)


@pytest.mark.parametrize("fails", ["solve", "mesh"])
def test_a_case_after_a_failure_takes_the_p2_start(fails, monkeypatch):
    # a failed solve gives its p nothing to start from at the next
    # separation, and a failed mesh gives no exponent anything
    eps_list = (1e-2, 6e-3, 3e-3)
    failing = {"solve": (1.3, eps_list[0]), "mesh": (None, eps_list[1])}[fails]
    solve, mesh = harness.solve, harness.case_mesh

    def failing_solve(mesh_, cfg, cond=None, start=None):
        if (cfg.p, mesh_.geometry.eps) == failing:
            raise SolverError("line search stagnated")
        return solve(mesh_, cfg, cond, start)

    def failing_mesh(geom, spec, eps, far=None):
        if failing == (None, eps):
            raise MeshError("no mesh")
        return mesh(geom, spec, eps, far)

    monkeypatch.setattr(harness, "solve", failing_solve)
    monkeypatch.setattr(harness, "case_mesh", failing_mesh)
    report = run_sweep(tiny_spec(p_list=(1.3, 2.0, 3.0), eps_list=eps_list,
                                 target_h=0.2))
    starts = {(r["p"], r["eps"]): r["start"] for r in report.rows}
    after = "previous separation"
    if fails == "solve":
        assert [(f["p"], f["eps"]) for f in report.failures] == [failing]
        assert starts == {(1.3, 6e-3): "p2", (1.3, 3e-3): after,
                          (2.0, 1e-2): "p2", (2.0, 6e-3): "p2",
                          (2.0, 3e-3): "p2", (3.0, 1e-2): "p2",
                          (3.0, 6e-3): after, (3.0, 3e-3): after}
    else:
        assert len(report.failures) == 3
        assert set(starts.values()) == {"p2"}
        assert len(starts) == 6


_NO_OPTIMIZE_PROBE = """
import sys
from neckflow import build_symmetric_disc_example, harness
assert "scipy.optimize" not in sys.modules, "import neckflow loaded it"
spec = harness.SweepSpec(geometry=build_symmetric_disc_example(),
                         p_list=(2.0,), eps_list=(3e-3, 2e-3, 1e-3),
                         target_h=0.2)
report = harness.run_sweep(spec)
assert report.ok and "flux_extrapolation" in report.fits[2.0]
print("scipy.optimize" in sys.modules)
"""


def test_sweep_never_loads_scipy_optimize():
    # a fresh interpreter: neither `import neckflow` nor a sweep whose fits
    # run (three separations qualify for the 0.3 window) imports it
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _NO_OPTIMIZE_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_flux_extrapolation_recorded():
    radii = (0.4, 0.3, 0.2)
    rows = [{"eps": e, "ugap": 1.0 - e, "maxgrad": e ** -0.5,
             "winflux": {r: r * (1 + e**0.4) for r in radii}}
            for e in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)]
    fits = harness.fit_case_family(rows, 2.0, [[1.0]])
    assert set(fits["ugap_fit"]) == {f.name for f in fields(UGapFit)}
    fx = fits["flux_extrapolation"]
    assert set(fx) == {f.name for f in fields(FluxExtrapolation)} | {"rows"}
    assert not fx["fallback"]
    assert fx["loo_range"] is None    # three radii: no leave-one-out refits
    assert [r for r, _ in fx["rows"]] == list(radii)
    for r, s0 in fx["rows"]:
        assert s0 == pytest.approx(r, rel=1e-8)
        assert fx["value"] + fx["amplitude"] * math.exp(-fx["rate"] / r) == \
            pytest.approx(r, rel=1e-8)


def _probe(xprime, grad_n, delta):
    """A sweep row's probe record: vertical gradient grad_n at (xprime, 0)."""
    return asdict(GradientProbe(xprime, 0.0, 0.0, grad_n, delta))


class TestComparePrediction:
    def test_exact_synthetic_is_zero_error(self):
        import neckflow.asymptotics as asy
        K = asy.gap_constant([[1.0]], asy.Regime(2.0, 2))
        F = 4.0
        eps = 1e-4
        delta = eps
        dn = asy.blowup_scale(eps, asy.Regime(2.0, 2)) * (K * F) / delta
        rows = [{"p": 2.0, "eps": eps, "ugap": 0.0,
                 "probes": [_probe(0.0, dn, delta)]}]
        fits = {2.0: {"ugap_fit": {"flux_implied": F}}}
        table = compare_prediction(rows, [[1.0]], fits)
        assert table[0]["status"] == "OK"
        assert table[0]["rel_error"] == pytest.approx(0.0, abs=1e-14)

    def test_probe_outside_region_excluded(self):
        rows = [{"p": 2.0, "eps": 1e-2, "ugap": 0.1,
                 "probes": [_probe(0.5, 1.0, 1e-2), _probe(0.0, 1.0, 1e-2)]}]
        fits = {2.0: {"ugap_fit": {"flux_implied": 1.0}}}
        table = compare_prediction(rows, [[1.0]], fits)
        assert [e["status"] for e in table] == ["EXCLUDED", "OK"]
        # without a gap fit there is no flux to predict from
        assert [e["status"] for e in compare_prediction(rows, [[1.0]], {})] \
            == ["EXCLUDED", "NO_FIT"]

    def test_zero_prediction_reports_absolute(self):
        rows = [{"p": 2.0, "eps": 1e-4, "ugap": 0.0,
                 "probes": [_probe(0.0, 0.25, 1e-4)]}]
        fits = {2.0: {"ugap_fit": {"flux_implied": 0.0}}}
        table = compare_prediction(rows, [[1.0]], fits)
        assert table[0]["status"] == "ABS"
        assert table[0]["rel_error"] == pytest.approx(0.25)

    def test_sub_branch_uses_same_eps_gap(self):
        rows = [{"p": 1.3, "eps": 1e-4, "ugap": 0.3,
                 "probes": [_probe(0.0, 0.3 / 1e-4, 1e-4)]}]
        table = compare_prediction(rows, [[1.0]], {1.3: {}})
        assert table[0]["status"] == "OK"
        assert table[0]["rel_error"] == pytest.approx(0.0, abs=1e-14)


class TestCLI:
    def test_oracle_exit_code(self, capsys):
        assert cli_main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle: ok" in out

    @pytest.mark.parametrize("argv", [["accept", "--config", "x"],
                                      ["sweep", "--workers", "2"],
                                      ["accept", "--workers", "2"]])
    def test_options_a_subcommand_does_not_read_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--p", "0.5"], "all exponents must exceed 1"),
        (["sweep", "--eps", "1e-3,1e-2"], "eps_list must be strictly decreasing"),
        (["solve", "--eps", "0"], "meshed only for eps > 0"),
        (["solve", "--p", "1.3,2"], "takes one --p and one --eps value"),
        (["solve", "--eps", "1e-2,1e-3"], "takes one --p and one --eps value"),
        (["solve", "--config", "{annulus}"], "unknown shape"),
        (["solve", "--p", ","], "must not be empty"),
        (["solve", "--p", "abc"], "--p takes numbers separated by commas"),
        (["sweep", "--eps", "1e-2,x"], "--eps takes numbers"),
    ])
    def test_bad_input_is_one_error_line(self, argv, message, capsys,
                                         tmp_path):
        cfg = str(_annulus_config(tmp_path))
        argv = [cfg if a == "{annulus}" else a for a in argv]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("neckflow: error: ") and err.count("\n") == 1
        assert message in err

    def test_solve_smoke(self, tmp_path, capsys, monkeypatch):
        # `neckflow solve` prints the row a one-case sweep computes
        monkeypatch.delenv("NECKFLOW_CACHE", raising=False)
        rc = cli_main(["solve", "--p", "2", "--eps", "1e-2",
                       "--target-h", "0.2", "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 2.0
        assert abs(payload["U1"] + payload["U2"]) < 1e-8
        (row,) = run_sweep(tiny_spec(target_h=0.2)).rows
        assert [payload[k] for k in ("U1", "U2", "energy")] == \
            [row[k] for k in ("U1", "U2", "energy")]

    def test_bad_geometry_is_refused_before_meshing(self, tmp_path,
                                                    monkeypatch, capsys):
        def no_meshing(*args, **kwargs):
            raise AssertionError("meshed a geometry the spec refuses")

        monkeypatch.setattr(harness, "generate", no_meshing)
        assert cli_main(["solve", "--config",
                         str(_annulus_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown shape 'annulus'" in err

    @pytest.mark.parametrize("argv, message", [
        (["--p", "2", "--eps", "1e-2,0"], "meshed only for eps > 0"),
        (["--p", "2", "--eps", "1e-2", "--target-h", "0"], "target_h"),
        (["--p", "2", "--eps", "1e-2", "--target-h", "-0.1"], "target_h"),
        (["--p", "nan", "--eps", "1e-2"], "exponents must exceed 1"),
        (["--p", "2,inf", "--eps", "1e-2"], "exponents must exceed 1"),
        (["--p", "2", "--eps", "1e-2", "--layers", "-3"], "neck_layers"),
        (["--p", ",", "--eps", "1e-2"], "must not be empty"),
        (["--p", "2", "--eps", ","], "must not be empty"),
    ])
    def test_bad_sweep_is_refused_before_meshing(self, argv, message,
                                                 monkeypatch, capsys):
        # a target_h of 0 once spun in the far field's wall grading, and a
        # NaN exponent ran the whole Levenberg loop; a spec refused here
        # never reaches either
        def no_meshing(*args, **kwargs):
            raise AssertionError("meshed a spec that is refused")

        monkeypatch.setattr(harness, "generate", no_meshing)
        monkeypatch.setattr(meshing, "_grade_spacing", no_meshing)
        assert cli_main(["sweep", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("neckflow: error: ") and err.count("\n") == 1
        assert message in err

    def test_mesh_options_default_to_the_spec(self, monkeypatch):
        # --target-h and --layers read SweepSpec's defaults, not copies
        seen = []

        def record(spec):
            seen.append(spec)
            raise NeckflowError("recorded")

        monkeypatch.setattr(cli, "run_sweep", record)
        assert cli_main(["sweep", "--p", "2"]) == 2
        (spec,) = seen
        assert (spec.target_h, spec.neck_layers) == (SweepSpec.target_h,
                                                     meshing.NECK_LAYERS)

    def test_sweep_cli_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape = disc\nscale = 1\nphi = linear_xn\n")
        rc = cli_main(["sweep", "--config", str(cfg), "--p", "2",
                       "--eps", "1e-2,6e-3", "--target-h", "0.18",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "rows.csv").exists()
        assert "blow-up slope" in capsys.readouterr().out

    def test_accept_prints_and_sets_exit_code(self, monkeypatch, capsys):
        from neckflow import acceptance
        results = [acceptance.CriterionResult(
                       1, "a", [acceptance.Check("x", 1.0, "<=", 2.0)]),
                   acceptance.CriterionResult(
                       2, "b", [acceptance.Check("y", 3.0, "<", 2.0, ".1f")])]
        monkeypatch.setattr(acceptance, "run_acceptance",
                            lambda out, seed: results)
        assert cli_main(["accept", "--out", "unused"]) == 1
        assert capsys.readouterr().out.splitlines() == \
            ["[PASS]  1. a: x 1.000 <= 2.000",
             "[FAIL]  2. b: y 3.0 < 2.0 FAILED"]
