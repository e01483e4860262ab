"""Sweep orchestration: run solver + analysis over a (p, eps) matrix, fit
the separation asymptotics, compare measured neck gradients against the
closed-form predictions, and persist deterministic CSV/JSON reports.

Outputs in the chosen directory:

  rows.csv            frozen column order (see CSV_BASE_COLUMNS + one
                      `winflux_r<r>` column per flux window), one row per
                      (p, eps) case, byte-stable for a fixed config and seed
  probes.csv          one row per prediction entry, analysis.PROBE_CSV_COLUMNS
  report.json         everything, including fits and per-case runtimes
  solution_<p>_<eps>.npy   nodal values per case (entry i is vertex i)

Results are stored as computed: a row's `probes` are analysis.GradientProbe
records, a fit's `ugap_fit` and `flux_extrapolation` the fields of the
asymptotics.UGapFit and FluxExtrapolation results (the latter plus the window
`rows`), and a prediction entry is a probe record plus its predicted_grad_n.

A sweep reads nothing but its SweepSpec (no environment variable, no
process-wide setting) and returns everything in its SweepReport, whose
`spec` is the SweepSpec that ran.  The separations run one after another
in the calling process; each is meshed once and solved for every exponent
(run_separation, which `neckflow solve` calls too).

Carried from one separation to the next: the mesh's vertices and, for each
exponent p != 2 solved there, its nodal values and inclusion potentials.
The next separation starts those exponents' solves from them (moved onto
its mesh by nearest vertex); nothing else, not the mesh nor its Condenser,
outlives its separation.  The first separation, an exponent whose solve
failed at the previous one, and every separation after a failed mesh take
solver.solve's own start from the p = 2 solution.

Mesh reuse: set SweepSpec.cache_dir to a directory and meshes are stored
there as `mesh_<key>.npz` (meshing.save_mesh), keyed by meshing.mesh_content
at the separation and the mesher version.  The separations share one
meshing.FarField, relaxed inside `generate` by the first separation that
misses the cache, so a fully cached sweep relaxes nothing.  A relaxation
that fails is tried again, and recorded, by each separation it stops.
Nothing is kept between sweeps, and a mesh is the same as generate's without
a shared far field.
"""

import hashlib
import io
import json
import logging
import math
import numbers
import os
import pickle
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import analysis as fa
from . import asymptotics as asy
from . import meshing
from .errors import MeshError, NeckflowError
from .geometry import (INC1, INC2, ConstantPotential, Geometry,
                       build_symmetric_disc_example)
from .meshing import generate, generate_neck_strip, load_mesh, save_mesh
from .solver import Condenser, SolveConfig, dual_flux, solve

CSV_BASE_COLUMNS = (
    "p", "eps", "U1", "U2", "ugap", "ugap_over_scale", "maxgrad",
    "maxgrad_x", "maxgrad_y", "energy", "kkt_residual", "flux1", "flux2",
    "eta_sensitivity", "u_min", "u_max", "nv", "nt", "min_angle_deg",
    "neck_layers",
)

_log = logging.getLogger("neckflow")

# every case's gradient probe abscissae x' and flux window radii
PROBES = (0.0, 0.05)
FLUX_WINDOWS = (0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.07, 0.05)
# max_gradient looks only at triangles with centroid |x'| <= MAXGRAD_WINDOW
MAXGRAD_WINDOW = 0.25


@dataclass
class SweepSpec:
    geometry: Geometry
    p_list: tuple = (1.3, 2.0, 3.0)
    eps_list: tuple = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    target_h: float = 0.1
    neck_layers: int = meshing.NECK_LAYERS
    out_dir: str = None
    seed: int = 0
    cache_dir: str = None

    def resolved_geometry(self):
        return self.geometry

    def validate(self):
        """Refuse a spec that cannot run, before anything is meshed: the
        geometry must be a two-inclusion Geometry (a config file is loaded
        into one first) that is valid at every separation, p_list and
        eps_list must not be empty, every exponent must be finite and above
        1, every separation and target_h finite and positive, neck_layers
        an integer of at least 1, and out_dir writable."""
        geom = self.geometry
        if not isinstance(geom, Geometry):
            raise NeckflowError(f"SweepSpec.geometry must be a Geometry, "
                                f"not {type(geom).__name__} (load a config "
                                f"file into one first)")
        if geom.kind != "two_inclusion":
            raise NeckflowError("sweeps require a two-inclusion geometry")
        if not (self.p_list and self.eps_list):
            raise NeckflowError("p_list and eps_list must not be empty")
        bad = [p for p in self.p_list if not (math.isfinite(p) and p > 1)]
        if bad:
            raise NeckflowError(f"p={bad[0]:g}: all exponents must exceed 1 "
                                f"and be finite")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise NeckflowError("eps_list must be strictly decreasing")
        bad = [e for e in self.eps_list if not (math.isfinite(e) and e > 0)]
        if bad:
            raise NeckflowError(f"eps={bad[0]:g}: two-inclusion domains are "
                                f"meshed only for eps > 0 and finite")
        meshing.check_target_h(self.target_h)
        if not (isinstance(self.neck_layers, numbers.Integral)
                and self.neck_layers >= 1):
            raise NeckflowError(f"neck_layers must be an integer of at least "
                                f"1, not {self.neck_layers!r}")
        geom.validate(eps_values=self.eps_list)
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            probe = os.path.join(self.out_dir, ".write_probe")
            with open(probe, "w") as fh:
                fh.write("ok")
            os.remove(probe)

    def meta(self):
        """The spec as report.json writes it, the geometry by name."""
        return {**vars(self), "geometry": self.geometry.name}


@dataclass
class SweepReport:
    spec: SweepSpec
    rows: list
    fits: dict
    predictions: list
    failures: list = field(default_factory=list)
    runtime_s: float = 0.0
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


# ---------------------------------------------------------------------------
# mesh cache
# ---------------------------------------------------------------------------

def _mesh_key(geom, spec, eps):
    """sha256 of the pickled meshing.mesh_content at eps and the mesher
    version.  The pickler keeps no memo, so an object reached twice is
    written out twice: the bytes follow the content, not which sub-objects
    happen to be shared.  A geometry that does not pickle, or refers back
    to itself, raises MeshError."""
    content = (*meshing.mesh_content(geom.with_eps(eps), spec.target_h,
                                     spec.neck_layers, spec.seed),
               meshing.MESHER_VERSION)
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    try:
        pickler.dump(content)
    except (pickle.PicklingError, TypeError, AttributeError,
            ValueError) as exc:
        raise MeshError(f"geometry {geom.name!r} cannot key the mesh cache: "
                        f"{exc}") from exc
    return hashlib.sha256(buf.getvalue()).hexdigest()


def case_mesh(geom, spec, eps, far=None):
    """The mesh of one separation, read from the mesh cache when it holds
    one, else generated with the far field `far` (a meshing.FarField of
    geom and spec, or None for generate's own).  A cached mesh must pass
    check_mirror and check_mesh's structural checks (positive areas,
    conforming boundary edges, one loop per tag); its angles are the
    generator's, as for a mesh made here.  A corrupt file raises
    MeshError."""
    g = geom.with_eps(eps)
    path = spec.cache_dir and os.path.join(
        spec.cache_dir, f"mesh_{_mesh_key(geom, spec, eps)}.npz")
    if path and os.path.exists(path):
        mesh = load_mesh(path, geometry=g)
        try:
            meshing.check_mirror(mesh)
            meshing.check_mesh(mesh, min_angle=0.0)
        except MeshError as exc:
            raise MeshError(f"cached mesh {path}: {exc}") from exc
        return mesh
    mesh = generate(g, spec.target_h, spec.neck_layers, seed=spec.seed,
                    far=far)
    if path:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp{os.getpid()}"
        save_mesh(mesh, tmp)
        os.replace(tmp, path)
    return mesh


# ---------------------------------------------------------------------------
# single case
# ---------------------------------------------------------------------------

def neck_sites(mesh):
    """The flux window (analysis.wall_window) of each FLUX_WINDOWS radius,
    by radius, and the probe site (analysis.probe_site) of each PROBES
    abscissa on mesh: mesh constants, formed once per separation."""
    return ({float(r): fa.wall_window(mesh, r) for r in FLUX_WINDOWS},
            [fa.probe_site(mesh, xp) for xp in PROBES])


def run_case(p, eps, spec, mesh, cond, sites, start=None):
    """Solve one (p, eps) case from `start` (solver.solve's) on the
    separation's mesh (which carries the geometry at eps), Condenser and
    neck_sites, see run_separation; returns the row dictionary and the
    Solution.  The row records the reduced system's size (`n_dofs`),
    whether it was odd-reduced (`odd_reduced`), the Newton steps
    (`newton_iters`) and the start taken (`start`): "previous separation",
    or "p2" for solve's own start from the p = 2 solution (at p = 2, the
    solve itself)."""
    t0 = time.time()
    sol = solve(mesh, SolveConfig(p=p), cond, start)
    mg, loc = fa.max_gradient(sol, mesh, window=MAXGRAD_WINDOW)
    regime = asy.Regime(p, 2)
    row = {
        "p": p, "eps": eps,
        "U1": sol.U1, "U2": sol.U2, "ugap": sol.ugap,
        "ugap_over_scale": sol.ugap / asy.blowup_scale(eps, regime),
        "maxgrad": mg, "maxgrad_x": loc[0], "maxgrad_y": loc[1],
        "energy": sol.energy, "kkt_residual": sol.kkt_residual,
        "flux1": sol.flux1, "flux2": sol.flux2,
        "eta_sensitivity": (math.nan if sol.eta_sensitivity is None
                            else sol.eta_sensitivity),
        "u_min": float(sol.nodal_values.min()),
        "u_max": float(sol.nodal_values.max()),
        "nv": mesh.n_vertices, "nt": mesh.n_triangles,
        "min_angle_deg": mesh.grading_report.min_angle_deg,
        "neck_layers": mesh.grading_report.neck_layers,
        "winflux": {r: dual_flux(sol.grad_full, sol.p, window)
                    for r, window in sites[0].items()},
        "probes": [asdict(fa.probe_at(sol, site)) for site in sites[1]],
        "history": sol.energy_history,
        "linear_fallbacks": sol.linear_fallbacks,
        "factorizations": sol.factorizations, "cg_iters": sol.cg_iters,
        "floor_accepts": sol.floor_accepts, "newton_iters": sol.newton_iters,
        "n_dofs": cond.n_dofs, "odd_reduced": cond.mirror is not None,
        "start": "p2" if start is None else "previous separation",
    }
    row["runtime_s"] = time.time() - t0
    if spec.out_dir:
        _persist_solution(sol, row, spec.out_dir)
    return row, sol


def solution_path(out_dir, p, eps):
    """The .npy file of the (p, eps) case's nodal values in a sweep's
    out_dir."""
    return os.path.join(out_dir, f"solution_{p:g}_{eps:g}.npy")


def _persist_solution(sol, row, out_dir):
    np.save(solution_path(out_dir, row["p"], row["eps"]), sol.nodal_values)


def run_separation(spec, eps, far=None, previous=None):
    """Mesh one separation of spec.geometry (case_mesh with the far field
    `far`), build its Condenser (odd=True) and neck_sites once, and solve
    it for every exponent; returns (rows, failures, solved).

    `solved` is what the next separation starts from: the mesh's vertices
    and, for each exponent p != 2 solved here, the nodal values and
    inclusion potentials {tag: value}; None when the mesh failed.  Given
    the previous separation's as `previous`, each p != 2 that it solved
    starts from its values moved onto this mesh by nearest vertex (one
    k-d tree query, shared by the exponents); every other case takes
    solver.solve's own start.  A p = 2 solve is one Newton step from any
    start, so none is kept for it.  A NeckflowError from the mesh or a
    solve becomes a failure entry for the (p, eps) cases it stops."""
    def failure(p, exc):
        return {"p": p, "eps": eps, "error": f"{type(exc).__name__}: {exc}"}

    try:
        mesh = case_mesh(spec.geometry, spec, eps, far)
        cond = Condenser(mesh, odd=True)
        sites = neck_sites(mesh)
    except NeckflowError as exc:
        return [], [failure(p, exc) for p in spec.p_list], None
    starts = previous[1] if previous else {}
    if starts:
        nearest = cKDTree(previous[0]).query(mesh.vertices)[1]
    rows, failures, solved = [], [], {}
    for p in spec.p_list:
        start = None
        if p in starts:
            u, potentials = starts[p]
            start = u[nearest], potentials
        try:
            row, sol = run_case(p, eps, spec, mesh, cond, sites, start)
        except NeckflowError as exc:
            failures.append(failure(p, exc))
            continue
        rows.append(row)
        if p != 2.0:
            solved[p] = sol.nodal_values, {INC1: sol.U1, INC2: sol.U2}
        del sol   # before the next solve, a lower peak: only these outlive it
    return rows, failures, (mesh.vertices, solved)


# ---------------------------------------------------------------------------
# fits over the sweep
# ---------------------------------------------------------------------------

def slope_fit(rows):
    """Log-log slope of max gradient against separation."""
    pts = [(r["eps"], r["maxgrad"]) for r in rows if r["maxgrad"] > 0]
    if len(pts) < 2:
        return {"slope": math.nan, "status": "insufficient points"}
    x = np.log([a for a, _ in pts])
    y = np.log([b for _, b in pts])
    return {"slope": float(np.polyfit(x, y, 1)[0]), "status": "ok",
            "points": len(pts)}


def fit_case_family(rows, p, gap_hessian):
    """Slope, potential-gap limit (asymptotics.UGapFit), and flux
    extrapolation (FluxExtrapolation, plus its window `rows`) for one p."""
    regime = asy.Regime(p, 2)
    out = {"p": p, "branch": regime.branch, "slope_fit": slope_fit(rows)}
    gap_rows = [(r["eps"], r["ugap"]) for r in rows]
    if len(gap_rows) >= 3:
        out["ugap_fit"] = asdict(asy.fit_ugap_limit(gap_rows, regime,
                                                    gap_hessian))
    tables = {r["eps"]: r["winflux"] for r in rows}
    wrows = asy.extrapolated_window_rows(tables, regime)
    if wrows:
        out["flux_extrapolation"] = {**asdict(asy.extrapolate_flux(wrows)),
                                     "rows": wrows}
    return out


def compare_prediction(rows, gap_hessian, fits):
    """Per-probe relative error of the measured vertical neck gradient
    against the leading-order prediction.

    Flux-carrying branches use the flux implied by the potential-gap
    extrapolation (the sharpest desk-scale estimate of the limiting flux);
    the SUB branch prediction is the same-separation potential gap divided
    by the local gap width.  Probes outside the branch's validity window are
    flagged EXCLUDED; a zero prediction switches to absolute error."""
    table = []
    for row in rows:
        p, eps = row["p"], row["eps"]
        regime = asy.Regime(p, 2)
        try:
            region = asy.lower_bound_region(regime, eps)
        except NeckflowError:
            region = 0.0
        value = (row["ugap"] if regime.branch == asy.SUB else
                 fits.get(p, {}).get("ugap_fit", {}).get("flux_implied",
                                                         math.nan))
        for probe in row["probes"]:
            entry = {"p": p, "eps": eps, **probe, "status": "EXCLUDED",
                     "predicted_grad_n": math.nan, "rel_error": math.nan}
            table.append(entry)
            if abs(probe["xprime"]) > region:
                continue
            if not math.isfinite(value) and regime.branch != asy.SUB:
                entry["status"] = "NO_FIT"
                continue
            pval = asy.predicted_grad_n(value, regime, eps, probe["delta"],
                                        gap_hessian)
            if pval == 0.0:    # a zero flux or gap: no relative error
                entry.update(status="ABS", predicted_grad_n=pval,
                             rel_error=abs(probe["grad_n"]))
            else:
                entry.update(status="OK", predicted_grad_n=pval,
                             rel_error=abs(probe["grad_n"] - pval) / abs(pval))
    return table


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def mesh_warnings(rows):
    """One warning per separation whose mesh has a smallest angle below the
    quality gate meshing.MIN_ANGLE_DEG, also logged; its cases still run."""
    out = []
    for eps, angle in sorted({(r["eps"], r["min_angle_deg"]) for r in rows},
                             reverse=True):
        if angle < meshing.MIN_ANGLE_DEG:
            message = (f"mesh at eps={eps:g} has min angle {angle:.2f} deg, "
                       f"below {meshing.MIN_ANGLE_DEG:g}")
            _log.warning(message)
            out.append({"eps": eps, "min_angle_deg": angle,
                        "message": message})
    return out


def run_sweep(spec: SweepSpec) -> SweepReport:
    spec.validate()
    t0 = time.time()
    geom = spec.geometry
    far = meshing.FarField(geom, spec.target_h, spec.neck_layers, spec.seed)
    rows, failures, solved = [], [], None
    for eps in spec.eps_list:
        eps_rows, eps_failures, solved = run_separation(spec, eps, far, solved)
        rows += eps_rows
        failures += eps_failures
    rows.sort(key=lambda r: (r["p"], -r["eps"]))
    failures.sort(key=lambda f: (f["p"], -f["eps"]))

    hess = [[geom.gap.gap_hessian0()]]
    fits = {}
    for p in spec.p_list:
        fam = [r for r in rows if r["p"] == p]
        if fam:
            fits[p] = fit_case_family(fam, p, hess)
    predictions = compare_prediction(rows, hess, fits)

    report = SweepReport(spec=spec, rows=rows, fits=fits,
                         predictions=predictions, failures=failures,
                         runtime_s=time.time() - t0,
                         warnings=mesh_warnings(rows))
    if spec.out_dir:
        write_report(report)
    return report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_report(report: SweepReport):
    out = report.spec.out_dir
    win_cols = {f"winflux_r{r:g}": r for r in FLUX_WINDOWS}
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    fa.write_csv(os.path.join(out, "rows.csv"), [*CSV_BASE_COLUMNS, *win_cols],
                 ({**r, **{c: r["winflux"][w] for c, w in win_cols.items()}}
                  for r in report.rows), first_line=f"# generated {stamp}")
    # prediction entries carry every probes.csv column
    fa.write_csv(os.path.join(out, "probes.csv"), fa.PROBE_CSV_COLUMNS,
                 report.predictions)
    payload = {"spec": report.spec.meta(), "rows": report.rows,
               "fits": {str(k): v for k, v in report.fits.items()},
               "predictions": report.predictions,
               "failures": report.failures,
               "runtime_s": report.runtime_s, "warnings": report.warnings}
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_json_default)


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


# ---------------------------------------------------------------------------
# auxiliary decay fixture
# ---------------------------------------------------------------------------

def solve_decay_fixture(eps=1e-3, p=2.0):
    """Solve the zero-boundary narrow-strip problem of the disc geometry
    (homogeneous data on the two graph walls, unit data on the side walls)
    and fit the interior decay.  Returns (slope estimate, r^2, solution, mesh)."""
    geom = build_symmetric_disc_example(eps=eps, phi=ConstantPotential(1.0))
    mesh = generate_neck_strip(geom, 0.05, 8)
    sol = solve(mesh, SolveConfig(p=p, inclusion_values={INC1: 0.0,
                                                         INC2: 0.0}))
    c2, r2 = fa.decay_fit(sol, mesh, np.linspace(0.25, 0.85, 25))
    return c2, r2, sol, mesh
