"""Per-layer metrics from the spans of one traced repetition.

Each metric names the wrapped targets it is computed from.  If one of them
no longer exists in the program, the metric is absent (None), never 0.
"""

from spans import self_times

H, M, S = "neckflow.harness.", "neckflow.meshing.", "neckflow.solver."
GENERATE = (H + "generate", M + "generate")
SOLVE = H + "solve"
SPLU = "scipy.sparse.linalg.splu"
ENERGY_GRAD, HESSIAN = S + "ElementOps.energy_grad", S + "ElementOps.hessian"
REDUCE_HESS = S + "Condenser.reduce_hess"
ANALYSIS = tuple("neckflow.analysis." + n for n in
                 ("max_gradient", "cross_section_flux", "gradient_probe"))
FITS = tuple("neckflow.asymptotics." + n for n in
             ("fit_ugap_limit", "extrapolated_window_rows", "extrapolate_flux"))
P_VALUES = (1.3, 2.0, 3.0)

# metric -> unit; the meshing totals come from the workload's work counts
UNITS = {
    "meshing.generate_s": "s", "meshing.generate_calls": "count",
    "meshing.delaunay_calls": "count", "meshing.delaunay_s": "s",
    "meshing.check_mesh_s": "s", "meshing.save_mesh_s": "s",
    "meshing.load_mesh_s": "s", "meshing.nv_total": "count",
    "meshing.nt_total": "count", "meshing.min_angle_deg": "deg",
    "meshing.share": "ratio",
    **{f"solver.{m}.p{p:g}": u for p in P_VALUES
       for m, u in (("solve_s", "s"), ("newton_iters", "count"),
                    ("factorizations", "count"))},
    "solver.splu_s": "s", "solver.extra_factorizations": "count",
    "solver.kkt_residual_max": "ratio",
    "solver.energy_grad_calls": "count", "solver.energy_grad_s": "s",
    "solver.hessian_calls": "count", "solver.hessian_s": "s",
    "solver.reduce_hess_s": "s", "solver.share": "ratio",
    "analysis.s": "s", "analysis.calls": "count",
    "asymptotics.fit_s": "s", "asymptotics.flux_fallbacks": "count",
    "asymptotics.ugap_warnings": "count",
    "harness.case_mesh_s": "s", "harness.cache_hits": "count",
    "harness.cache_misses": "count", "harness.run_case_self_s": "s",
    "harness.write_report_s": "s", "harness.sweep_self_s": "s",
    "geometry.validate_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, absent, work, wall_s):
    """Metric name -> value (None when absent) for one repetition."""
    absent = set(absent)
    selft = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(names):
        """Inclusive seconds in calls of `names` that no other such call encloses."""
        names = set(names)

        def nested(s):
            a = s.parent
            while a is not None:
                if a.name in names:
                    return True
                a = a.parent
            return False
        return sum(s.end - s.start for s in pick(names) if not nested(s))

    def children(span, names):
        return any(s.parent is span for s in pick(names))

    def layer_self(layer):
        return sum(selft[id(s)] for s in spans if s.layer == layer)

    solves = by_name.get(SOLVE, [])
    splus = by_name.get(SPLU, [])
    case_meshes = by_name.get(H + "case_mesh", [])
    m = {}

    def put(name, needs, value):
        m[name] = None if absent.intersection(needs) else value

    put("meshing.generate_s", GENERATE, total(GENERATE))
    put("meshing.generate_calls", GENERATE, len(pick(GENERATE)))
    put("meshing.delaunay_calls", (M + "Delaunay",), len(pick((M + "Delaunay",))))
    put("meshing.delaunay_s", (M + "Delaunay",), total((M + "Delaunay",)))
    put("meshing.check_mesh_s", (M + "check_mesh",), total((M + "check_mesh",)))
    put("meshing.save_mesh_s", (H + "save_mesh",), total((H + "save_mesh",)))
    put("meshing.load_mesh_s", (H + "load_mesh",), total((H + "load_mesh",)))
    for k in ("nv_total", "nt_total", "min_angle_deg"):
        m["meshing." + k] = work.get(k)
    put("meshing.share", (), layer_self("meshing") / wall_s)

    for p in P_VALUES:
        at_p = [s for s in solves if s.attrs.get("p") == p]
        put(f"solver.solve_s.p{p:g}", (SOLVE,), sum(s.end - s.start for s in at_p))
        put(f"solver.newton_iters.p{p:g}", (SOLVE,),
            sum(s.attrs.get("newton_iters", 0) for s in at_p))
        put(f"solver.factorizations.p{p:g}", (SOLVE, SPLU),
            sum(s.attrs.get("p") == p for s in splus))
    put("solver.splu_s", (SPLU,), total((SPLU,)))
    put("solver.extra_factorizations", (SPLU, HESSIAN),
        len(splus) - len(by_name.get(HESSIAN, [])))
    put("solver.kkt_residual_max", (SOLVE,),
        max((s.attrs.get("kkt_residual", 0.0) for s in solves), default=0.0))
    put("solver.energy_grad_calls", (ENERGY_GRAD,), len(pick((ENERGY_GRAD,))))
    put("solver.energy_grad_s", (ENERGY_GRAD,), total((ENERGY_GRAD,)))
    put("solver.hessian_calls", (HESSIAN,), len(pick((HESSIAN,))))
    put("solver.hessian_s", (HESSIAN,), total((HESSIAN,)))
    put("solver.reduce_hess_s", (REDUCE_HESS,), total((REDUCE_HESS,)))
    put("solver.share", (), layer_self("solver") / wall_s)

    put("analysis.s", ANALYSIS, total(ANALYSIS))
    put("analysis.calls", ANALYSIS, len(pick(ANALYSIS)))
    put("asymptotics.fit_s", FITS, total(FITS))
    put("asymptotics.flux_fallbacks", (FITS[2],),
        sum(bool(s.attrs.get("fallback")) for s in pick((FITS[2],))))
    put("asymptotics.ugap_warnings", (FITS[0],),
        sum(bool(s.attrs.get("warning")) for s in pick((FITS[0],))))

    put("harness.case_mesh_s", (H + "case_mesh",), total((H + "case_mesh",)))
    put("harness.cache_hits", (H + "case_mesh", H + "load_mesh"),
        sum(children(c, (H + "load_mesh",)) for c in case_meshes))
    put("harness.cache_misses", (H + "case_mesh",) + GENERATE,
        sum(children(c, GENERATE) for c in case_meshes))
    put("harness.run_case_self_s", (H + "run_case",),
        sum(selft[id(s)] for s in by_name.get(H + "run_case", [])))
    put("harness.write_report_s", (H + "write_report",),
        total((H + "write_report",)))
    put("harness.sweep_self_s", (H + "run_sweep",),
        sum(selft[id(s)] for s in by_name.get(H + "run_sweep", [])))
    put("geometry.validate_s", ("neckflow.geometry.Geometry.validate",),
        total(("neckflow.geometry.Geometry.validate",)))
    return m
