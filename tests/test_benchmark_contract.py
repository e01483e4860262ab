"""The names the benchmark in `perfbench/` wraps, and the calls it makes,
still work.

`perfbench/spans.py` wraps neckflow callables by dotted name and reads some
of their arguments by parameter name, and `perfbench/workloads.py` imports
names from neckflow and calls its public functions.  A renamed target would
only print `absent` in a traced run, and a renamed parameter, a changed
signature or a missing name would break every timed run, so all of them are
checked here.  spans.py is read from its path and executed in memory, and
workloads.py is only parsed; nothing under `perfbench/` is written.  The traced
`solver.hessian_calls` and `solver.reduce_hess_s` also assume that every
Newton step calls `ElementOps.hessian` and `Condenser.reduce_hess` once.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import types
from collections import Counter

import pytest

from neckflow import SolveConfig, acceptance, harness, meshing, solve
from neckflow.geometry import Geometry
from neckflow.solver import Condenser, ElementOps

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_resolves(spans):
    names = [name for name, _ in spans.TARGETS] + list(spans.COUNTING_TARGETS)
    missing = [name for name in names if spans._resolve(name) is None]
    assert not missing


@pytest.mark.parametrize("func, params", [
    (harness.solve, {"cfg"}),
    (harness.case_mesh, {"eps"}),
    (harness.run_case, {"p", "eps"}),
])
def test_wrapped_arguments_keep_their_names(func, params):
    assert params <= set(inspect.signature(func).parameters)


def test_argument_readers_are_the_checked_functions(spans):
    assert set(spans._READS_ARGS) == {"neckflow.harness.solve",
                                      "neckflow.harness.case_mesh",
                                      "neckflow.harness.run_case"}


# each call perfbench/workloads.py makes, with the arguments it passes
# (placeholders stand for its geometries, meshes, specs and reports)
@pytest.mark.parametrize("func, args, kwargs", [
    (acceptance.canonical_spec, (), {"seed": 0}),
    (harness.run_sweep, ("spec",), {}),
    (harness.case_mesh, ("geom", "spec", 1e-2), {}),
    (meshing.generate, ("g", 0.1, 6), {"seed": 0}),
    (meshing.check_mesh, ("mesh",), {"min_angle": 20.0}),
    (Geometry.validate, ("geom",), {"eps_values": (1e-2,)}),
    (Geometry.is_mirror_symmetric, ("geom",), {}),
    (acceptance.criterion_kkt, ("report",), {}),
    (acceptance.criterion_potential_bounds, ("report", "geom"), {}),
    (acceptance.criterion_symmetry, ("report", "geom"), {}),
    (acceptance.criterion_slopes, ("report",), {}),
    (acceptance.criterion_ugap, ("report",), {}),
    (acceptance.criterion_sub_branch, ("report",), {}),
    (acceptance.criterion_expansion, ("report",), {}),
    (harness.SweepSpec.resolved_geometry, ("spec",), {}),
])
def test_workload_calls_bind(func, args, kwargs):
    inspect.signature(func).bind(*args, **kwargs)


def test_workload_imports_resolve():
    # each `from neckflow... import name` of workloads.py, and each
    # attribute it reads off a neckflow module it imported that way
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] \
                == "neckflow":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(owner, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    assert modules and not missing, missing
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert not missing, missing


def test_workloads_replace_existing_spec_fields():
    spec = acceptance.canonical_spec(seed=0)
    dataclasses.replace(spec, out_dir="out", cache_dir="cache")
    assert {"p_list", "eps_list", "neck_layers"} <= {
        f.name for f in dataclasses.fields(spec)}


def _count_assembly(monkeypatch):
    calls = Counter()
    for owner, name in ((ElementOps, "hessian"), (Condenser, "reduce_hess")):
        def counting(*args, _orig=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_each_newton_step_assembles_once(disc_mesh_1e2, monkeypatch):
    # each Newton step, polish steps and the p = 2 warm start included, in
    # the full space and on the odd-reduced system the sweep solves (one
    # Condenser shared by the exponents, as in the sweep)
    calls = _count_assembly(monkeypatch)
    odd = Condenser(disc_mesh_1e2, odd=True)
    assert odd.mirror is not None
    for cond in (None, odd):
        for p in (1.3, 2.0, 3.0):
            calls.clear()
            sol = solve(disc_mesh_1e2, SolveConfig(p=p), cond)
            assert calls["hessian"] == calls["reduce_hess"] \
                == sol.newton_iters > 0


def test_each_newton_step_from_a_transferred_start_assembles_once(
        disc_geom, monkeypatch):
    # the sweep starts p != 2 at its second separation from the first's
    # solution; each of those solves too assembles once per Newton step
    calls = _count_assembly(monkeypatch)
    starts = []

    def checked(mesh, cfg, cond=None, start=None):
        calls.clear()
        sol = harness_solve(mesh, cfg, cond, start)
        assert calls["hessian"] == calls["reduce_hess"] \
            == sol.newton_iters > 0
        starts.append(start is not None)
        return sol

    harness_solve = harness.solve
    monkeypatch.setattr(harness, "solve", checked)
    spec = harness.SweepSpec(geometry=disc_geom, p_list=(1.3, 2.0, 3.0),
                             eps_list=(1e-2, 3e-3), target_h=0.2)
    assert harness.run_sweep(spec).ok
    assert starts == [False] * 3 + [True, False, True]


def test_sweep_results_carry_the_keys_workloads_read(disc_geom):
    # workloads.py reads these through .get(key, default), so a renamed key
    # would read as a pass there, and its work counts read these row keys
    spec = harness.SweepSpec(geometry=disc_geom, p_list=(2.0,),
                             eps_list=(3e-3, 2e-3, 1e-3), target_h=0.2)
    report = harness.run_sweep(spec)
    fit = report.fits[2.0]
    assert isinstance(fit["flux_extrapolation"]["fallback"], bool)
    assert isinstance(fit["ugap_fit"]["warning"], str)
    for row in report.rows:
        assert {"eps", "nv", "nt", "min_angle_deg"} <= set(row)
