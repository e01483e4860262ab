import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from neckflow import (ConstantPotential, MeshError, NeckflowError, SweepSpec,
                      build_parabola_example, build_symmetric_disc_example,
                      build_table_example, harness, meshing, run_sweep)
from neckflow.cli import main as cli_main
from neckflow.geometry import (CappedGraphCurve, Circle, GapProfile, Geometry,
                               LinearPotential, MirroredCurve, NegatedProfile,
                               ParabolaProfile, TableProfile, _c2_bound)
from neckflow.harness import (CSV_BASE_COLUMNS, _mesh_key, case_mesh,
                              compare_prediction)


def tiny_spec(out_dir=None, **kw):
    geom = build_symmetric_disc_example(scale=1.0)
    base = dict(geometry=geom, p_list=(2.0,), eps_list=(1e-2,),
                target_h=0.16, neck_layers=6, probes=(0.0,),
                flux_windows=(0.3, 0.2, 0.1), out_dir=out_dir)
    base.update(kw)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_validation(self, tmp_path):
        with pytest.raises(NeckflowError):
            tiny_spec(p_list=(0.9,)).validate()
        with pytest.raises(NeckflowError):
            tiny_spec(eps_list=(1e-3, 1e-2)).validate()
        with pytest.raises(NeckflowError):
            tiny_spec(workers=0).validate()
        tiny_spec(str(tmp_path / "out")).validate()


class TestSingleCaseSweep:
    def test_one_row_insufficient_slope(self, tmp_path):
        report = run_sweep(tiny_spec(str(tmp_path / "out")))
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
        assert (out / "solution_2_0.01.txt").exists()
        summary = json.loads((out / "solution_2_0.01.json").read_text())
        assert summary["p"] == 2.0
        assert abs(summary["flux1"]) <= 1e-8

    def test_csv_columns_frozen(self, tmp_path):
        spec = tiny_spec(str(tmp_path / "out"))
        run_sweep(spec)
        header = (tmp_path / "out" / "rows.csv").read_text().splitlines()[1]
        cols = header.split(",")
        assert cols[:len(CSV_BASE_COLUMNS)] == list(CSV_BASE_COLUMNS)
        assert cols[len(CSV_BASE_COLUMNS):] == ["winflux_r0.3", "winflux_r0.2",
                                                "winflux_r0.1"]


def test_rerun_is_byte_identical_modulo_timestamp(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_sweep(tiny_spec(a, eps_list=(1e-2, 6e-3), seed=3))
    run_sweep(tiny_spec(b, eps_list=(1e-2, 6e-3), seed=3))
    ra = open(os.path.join(a, "rows.csv")).read().splitlines()
    rb = open(os.path.join(b, "rows.csv")).read().splitlines()
    assert ra[0].startswith("#") and rb[0].startswith("#")
    assert ra[1:] == rb[1:]
    pa = open(os.path.join(a, "probes.csv")).read()
    pb = open(os.path.join(b, "probes.csv")).read()
    assert pa == pb


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
    path = os.path.join(cache, f"mesh_{_mesh_key(spec.geometry, spec, 6e-3)}.txt")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
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


def test_cache_env_var(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NECKFLOW_CACHE", str(cache))
    run_sweep(tiny_spec(str(tmp_path / "out")))
    assert len(os.listdir(cache)) == 1


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


def test_failure_isolation(tmp_path):
    # a vertex cap that only the small-separation mesh exceeds; the serial
    # and the worker-process sweep isolate it the same way
    for workers in (1, 2):
        spec = tiny_spec(str(tmp_path / f"out{workers}"),
                         eps_list=(1e-2, 1e-4), mesh_vertex_cap=6000,
                         workers=workers)
        report = run_sweep(spec)
        assert len(report.rows) == 1
        assert len(report.failures) == 1
        assert report.failures[0]["eps"] == 1e-4
        assert "MeshCapacityError" in report.failures[0]["error"]
        assert not report.ok
        assert spec.cache_dir is None


def test_workers_parallel_path(tmp_path):
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        spec = tiny_spec(str(out), p_list=(2.0, 3.0), eps_list=(1e-2, 6e-3),
                         workers=workers)
        report = run_sweep(spec)
        assert len(report.rows) == 4
        assert report.ok
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0].startswith("# generated")
        outputs[workers] = (rows[1:], (out / "probes.csv").read_bytes())
    assert outputs[1] == outputs[2]


_FIT_MODULE_PROBE = """
import sys
from neckflow import build_symmetric_disc_example, harness
assert "scipy.optimize" not in sys.modules, "import neckflow loaded it"
seen = []
task = harness._separation_task
def probe(*args):
    seen.append("scipy.optimize" in sys.modules)
    return task(*args)
harness._separation_task = probe
spec = harness.SweepSpec(geometry=build_symmetric_disc_example(),
                         p_list=(2.0,), eps_list=(1e-2,), target_h=0.2,
                         probes=(0.0,), flux_windows=(0.3, 0.2, 0.1))
assert harness.run_sweep(spec).ok
print(seen)
"""


def test_sweep_loads_fit_module_before_solving():
    # a fresh interpreter: the sweep must import scipy.optimize before its
    # first separation, so the import counts in its peak memory every time,
    # and `import neckflow` must not import it
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FIT_MODULE_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[True]"]


def test_window_fit_fallbacks_recorded(monkeypatch):
    radii = (0.4, 0.3, 0.2)
    rows = [{"eps": e, "ugap": 1.0 - e, "maxgrad": e ** -0.5,
             "winflux": {r: r * (1 + e**0.4) for r in radii}}
            for e in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)]
    fit = harness.fit_case_family(rows, 2.0, [[1.0]])
    assert fit["flux_extrapolation"]["window_fallbacks"] == 0
    import scipy.optimize

    def broken_fit(*args, **kwargs):
        raise RuntimeError("curve_fit failed")

    monkeypatch.setattr(scipy.optimize, "curve_fit", broken_fit)
    fit = harness.fit_case_family(rows, 2.0, [[1.0]])
    fx = fit["flux_extrapolation"]
    assert fx["window_fallbacks"] == 3
    assert fx["rows"] == [[r, r * (1 + 1e-4**0.4)] for r in radii]


class TestComparePrediction:
    def test_exact_synthetic_is_zero_error(self):
        import neckflow.asymptotics as asy
        K = asy.gap_constant([[1.0]], asy.Regime(2.0, 2))
        F = 4.0
        eps = 1e-4
        delta = eps
        dn = asy.blowup_scale(eps, asy.Regime(2.0, 2)) * (K * F) / delta
        rows = [{"p": 2.0, "eps": eps, "ugap": 0.0,
                 "probes": [{"xprime": 0.0, "xn": 0.0, "grad_x": 0.0,
                             "grad_n": dn, "delta": delta}]}]
        fits = {2.0: {"ugap_fit": {"flux_implied": F}}}
        table = compare_prediction(rows, [[1.0]], fits)
        assert table[0]["status"] == "OK"
        assert table[0]["rel_error"] == pytest.approx(0.0, abs=1e-14)

    def test_probe_outside_region_excluded(self):
        rows = [{"p": 2.0, "eps": 1e-2, "ugap": 0.1,
                 "probes": [{"xprime": 0.5, "xn": 0.0, "grad_x": 0.0,
                             "grad_n": 1.0, "delta": 1e-2}]}]
        fits = {2.0: {"ugap_fit": {"flux_implied": 1.0}}}
        table = compare_prediction(rows, [[1.0]], fits)
        assert table[0]["status"] == "EXCLUDED"

    def test_zero_prediction_reports_absolute(self):
        rows = [{"p": 2.0, "eps": 1e-4, "ugap": 0.0,
                 "probes": [{"xprime": 0.0, "xn": 0.0, "grad_x": 0.0,
                             "grad_n": 0.25, "delta": 1e-4}]}]
        fits = {2.0: {"ugap_fit": {"flux_implied": 0.0}}}
        table = compare_prediction(rows, [[1.0]], fits)
        assert table[0]["status"] == "ABS"
        assert table[0]["rel_error"] == pytest.approx(0.25)

    def test_sub_branch_uses_same_eps_gap(self):
        rows = [{"p": 1.3, "eps": 1e-4, "ugap": 0.3,
                 "probes": [{"xprime": 0.0, "xn": 0.0, "grad_x": 0.0,
                             "grad_n": 0.3 / 1e-4, "delta": 1e-4}]}]
        table = compare_prediction(rows, [[1.0]], {1.3: {}})
        assert table[0]["status"] == "OK"
        assert table[0]["rel_error"] == pytest.approx(0.0, abs=1e-14)


class TestCLI:
    def test_oracle_exit_code(self, capsys):
        assert cli_main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle: ok" in out

    def test_solve_smoke(self, tmp_path, capsys):
        rc = cli_main(["solve", "--p", "2", "--eps", "1e-2",
                       "--target-h", "0.2", "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 2.0
        assert abs(payload["U1"] + payload["U2"]) < 1e-8

    def test_sweep_cli_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "geom.cfg"
        cfg.write_text("shape = disc\nscale = 1\nphi = linear_xn\n")
        rc = cli_main(["sweep", "--config", str(cfg), "--p", "2",
                       "--eps", "1e-2,6e-3", "--target-h", "0.18",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "rows.csv").exists()
        assert "blow-up slope" in capsys.readouterr().out
