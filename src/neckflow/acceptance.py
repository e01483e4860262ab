"""Acceptance matrix: quantitative gates that tie the solver, the analysis
layer, and the closed-form constants together on fixed desk-scale fixtures.

`run_acceptance` executes every criterion, prints one PASS/FAIL line per
criterion, writes acceptance.json next to the sweep outputs, and returns the
result list.  The canonical sweep (symmetric disc fixture, p in {1.3, 2, 3},
eps from 1e-2 down to 1e-4) is run once and shared by every criterion that
needs solved states.
"""

import json
import math
import os
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import analysis as fa
from . import asymptotics as asy
from .geometry import (INC1, ConstantPotential, build_annulus,
                       build_symmetric_disc_example)
from .harness import SweepSpec, run_sweep, solve_decay_fixture, case_mesh
from .meshing import generate
from .solver import ElementOps, SolveConfig, solve, uniqueness_probe


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.index:2d}. {self.name}: {self.detail}"


def canonical_spec(out_dir=None, workers=1, seed=0):
    geom = build_symmetric_disc_example(scale=1.0)
    return SweepSpec(geometry=geom, out_dir=out_dir, workers=workers,
                     seed=seed,
                     cache_dir=os.path.join(out_dir, "mesh_cache")
                     if out_dir else None)


# ---------------------------------------------------------------------------
# individual criteria
# ---------------------------------------------------------------------------

def _radial_exact(r, p):
    if p == 2.0:
        return np.log(r) / math.log(2.0)
    a = (p - 2.0) / (p - 1.0)
    return (r**a - 1.0) / (2.0**a - 1.0)


def criterion_manufactured():
    """Annulus manufactured solution: nodal error, flux constancy, runtime."""
    geom = build_annulus(1.0, 2.0, phi=ConstantPotential(1.0))
    t_mesh = time.time()
    mesh = generate(geom, 0.02)
    t_mesh = time.time() - t_mesh
    details, ok = [], True
    for p in (1.5, 2.0, 3.0):
        t0 = time.time()
        sol = solve(mesh, geom, SolveConfig(p=p, inclusion_values={INC1: 0.0}))
        r = np.linalg.norm(mesh.vertices, axis=1)
        err = float(np.abs(sol.nodal_values - _radial_exact(r, p)).max())
        fluxes = [fa.annulus_circle_flux(sol, mesh, rr).value
                  for rr in (1.2, 1.4, 1.6, 1.8)]
        spread = (max(fluxes) - min(fluxes)) / abs(np.mean(fluxes))
        dt = time.time() - t0 + t_mesh
        case_ok = err <= 5e-4 and spread <= 1e-2 and dt < 30.0
        ok &= case_ok
        details.append(f"p={p:g}: err={err:.1e} flux spread={spread:.1e} "
                       f"t={dt:.1f}s")
    return CriterionResult(1, "manufactured radial solution", ok,
                           "; ".join(details))


def criterion_kkt(report):
    worst = max(max(abs(r["flux1"]), abs(r["flux2"])) for r in report.rows)
    return CriterionResult(2, "zero net inclusion flux (KKT)",
                           worst <= 1e-8,
                           f"max energy-scaled |flux| = {worst:.2e} (gate 1e-8)")


def criterion_potential_bounds(report, geom):
    lo, hi = geom.phi_range()
    ok = all(lo - 1e-8 <= r[k] <= hi + 1e-8
             for r in report.rows for k in ("U1", "U2"))
    worst = max(max(r["U1"] - hi, lo - r["U1"], r["U2"] - hi, lo - r["U2"])
                for r in report.rows)
    return CriterionResult(3, "inclusion potentials inside data range", ok,
                           f"worst overshoot {worst:.2e} (gate 1e-8)")


def criterion_symmetry(report, geom):
    osc = geom.phi_oscillation()
    worst = max(abs(r["U1"] + r["U2"]) for r in report.rows)
    fpos = all(report.fits[p]["flux_extrapolation"]["value"] > 0
               for p in (2.0, 3.0))
    ok = worst <= 1e-6 * osc and fpos
    return CriterionResult(4, "odd symmetry and positive flux", ok,
                           f"max |U1+U2| = {worst:.2e} (gate {1e-6 * osc:.1e}); "
                           f"extrapolated flux positive for p >= 3/2: {fpos}")


def criterion_slopes(report):
    targets = {2.0: (-0.5, 0.07), 3.0: (-0.25, 0.07), 1.3: (-1.0, 0.10)}
    details, ok = [], True
    for p, (tgt, tol) in targets.items():
        s = report.fits[p]["slope_fit"]["slope"]
        good = abs(s - tgt) <= tol
        ok &= good
        details.append(f"p={p:g}: slope {s:.3f} (target {tgt} +/- {tol})")
    timing = report.runtime_s < 1800.0
    ok &= timing
    details.append(f"sweep {report.runtime_s:.0f}s (gate 1800s)")
    return CriterionResult(5, "blow-up slopes", ok, "; ".join(details))


def criterion_ugap(report):
    rows = [r for r in report.rows if r["p"] == 2.0]
    rows.sort(key=lambda r: -r["eps"])
    r_prev, r_last = rows[-2]["ugap_over_scale"], rows[-1]["ugap_over_scale"]
    var = abs(r_last - r_prev) / abs(r_last)
    fit = report.fits[2.0]
    fhat = fit["ugap_fit"]["flux_implied"]
    finf = fit["flux_extrapolation"]["value"]
    cross = abs(fhat - finf) / abs(fhat)
    ok = var < 0.10 and cross <= 0.15
    return CriterionResult(6, "potential-gap scaling (p=2)", ok,
                           f"gap/sqrt(eps) variation {var:.3f} (gate 0.10); "
                           f"implied flux {fhat:.2f} vs extrapolated {finf:.2f}"
                           f" rel {cross:.3f} (gate 0.15)")


def criterion_sub_branch(report):
    rows = [r for r in report.rows if r["p"] == 1.3]
    rows.sort(key=lambda r: -r["eps"])
    g_prev, g_last = rows[-2]["ugap"], rows[-1]["ugap"]
    var = abs(g_last - g_prev) / abs(g_last)
    limit = report.fits[1.3]["ugap_fit"]["limit"]
    f_sub = abs(report.fits[1.3]["flux_extrapolation"]["value"])
    f_ref = abs(report.fits[2.0]["flux_extrapolation"]["value"])
    ok = var < 0.05 and limit > 0 and f_sub <= 0.05 * f_ref
    return CriterionResult(7, "sub-branch gap limit and vanishing flux", ok,
                           f"gap variation {var:.3f} (gate 0.05); "
                           f"limit {limit:.3f}; |F_inf|={f_sub:.3f} vs "
                           f"5% of p=2 flux {0.05 * f_ref:.3f}")


def criterion_oracle():
    t0 = time.time()
    details, ok = [], True
    for n, p in ((2, 2.0), (2, 3.0), (3, 2.0), (4, 2.5)):
        reg = asy.Regime(p, n)
        H = 2.0 * np.eye(n - 1)
        lim = asy.neck_integral_limit(reg, H)
        K = asy.gap_constant(H, reg)
        rel = abs(lim * K - 1.0)
        good = rel <= 1e-2
        if (n, p) == (2, 2.0):
            good &= abs(lim - math.pi) <= 1e-6
            details.append(f"(2,2): |lim-pi|={abs(lim - math.pi):.1e}")
        ok &= good
        details.append(f"(n,p)=({n},{p:g}): rel {rel:.2e}")
    dt = time.time() - t0
    ok &= dt < 60.0
    details.append(f"t={dt:.1f}s (gate 60s)")
    return CriterionResult(8, "neck-integral oracle matches 1/K", ok,
                           "; ".join(details))


def criterion_decay():
    c2, r2, _, _ = solve_decay_fixture(eps=1e-3, p=2.0)
    ok = r2 >= 0.98 and c2 > 0
    return CriterionResult(9, "exponential interior decay", ok,
                           f"slope {c2:.3f} (>0), r^2 {r2:.4f} (gate 0.98)")


def criterion_expansion(report):
    ok, details = True, []
    for p in (2.0, 1.3):
        entry = next(e for e in report.predictions
                     if e["p"] == p and e["eps"] == 1e-4 and e["xprime"] == 0.0)
        rel = entry["rel_error"]
        trans = abs(entry["grad_x"] / entry["grad_n"])
        good = entry["status"] == "OK" and rel <= 0.10 and trans <= 0.10
        ok &= good
        details.append(f"p={p:g}: rel {rel:.4f} (gate 0.10), "
                       f"transverse ratio {trans:.1e}")
    return CriterionResult(10, "pointwise expansion at the neck center", ok,
                           "; ".join(details))


def criterion_holder(spec):
    geom = build_symmetric_disc_example(scale=1.0).with_eps(1e-4)
    mesh = case_mesh(build_symmetric_disc_example(scale=1.0), spec, 1e-4)
    sol = solve(mesh, geom, SolveConfig(p=2.0))
    dbars = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    pts = [math.sqrt(d - 1e-4) for d in dbars]
    _, res = fa.holder_scan_from_solution(sol, mesh, beta=0.5, points=pts)
    vals = [v for _, v in res if v is not None]
    ratio = max(vals) / min(vals)
    ok = len(vals) >= 4 and ratio <= 3.0
    return CriterionResult(11, "Hölder-quotient boundedness", ok,
                           f"normalized quotients {['%.3f' % v for v in vals]}; "
                           f"max/min {ratio:.2f} (gate 3)")


def criterion_properties(report, geom, spec):
    details, ok = [], True
    # assembled gradient vs central differences on a small random mesh
    small = generate(build_annulus(1.0, 2.0), 0.45)
    ops = ElementOps(small)
    rng = np.random.default_rng(7)
    v = rng.normal(size=small.n_vertices)
    worst_fd = 0.0
    for p in (1.3, 2.0, 3.0):
        e0, gr, _ = ops.energy_grad(v, p, 0.5)
        for i in rng.integers(0, small.n_vertices, 8):
            h = 5e-6
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd = (ops.energy_grad(vp, p, 0.5)[0]
                  - ops.energy_grad(vm, p, 0.5)[0]) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - gr[i]) / max(abs(fd), 1e-12))
    ok_fd = worst_fd <= 1e-6
    ok &= ok_fd
    details.append(f"grad vs FD rel {worst_fd:.1e} (gate 1e-6)")
    # energy monotone within each continuation stage
    mono = True
    for r in report.rows:
        stage_vals = {}
        for eta, en, _ in r["history"]:
            stage_vals.setdefault(eta, []).append(en)
        for eta, seq in stage_vals.items():
            diffs = np.diff(seq)
            if np.any(diffs > 1e-12 * max(1.0, abs(seq[0]))):
                mono = False
    ok &= mono
    details.append(f"energy monotone per stage: {mono}")
    # discrete maximum principle surrogate
    lo, hi = geom.phi_range()
    osc = hi - lo
    worst_mp = max(max(r["u_max"] - hi, lo - r["u_min"]) for r in report.rows)
    ok_mp = worst_mp <= 1e-8 * osc
    ok &= ok_mp
    details.append(f"max-principle overshoot {worst_mp:.1e} "
                   f"(gate {1e-8 * osc:.1e})")
    # uniqueness probes on a small fixture
    g = build_symmetric_disc_example(scale=1.0).with_eps(1e-2)
    mesh = generate(g, 0.18, 6, seed=spec.seed)
    d2 = uniqueness_probe(mesh, g, SolveConfig(p=2.0, newton_tol=1e-10),
                          n_starts=3, seed=spec.seed)
    d13 = uniqueness_probe(mesh, g, SolveConfig(p=1.3, newton_tol=1e-10),
                           n_starts=3, seed=spec.seed)
    ok_u = d2 <= 10 * 1e-10 and d13 <= 100 * 1e-10
    ok &= ok_u
    details.append(f"uniqueness dist p=2 {d2:.1e} (gate 1e-9), "
                   f"p=1.3 {d13:.1e} (gate 1e-8)")
    return CriterionResult(12, "property suite", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_acceptance(out_dir, workers=1, seed=0, verbose=True, report=None):
    """Run the full acceptance matrix; returns the list of CriterionResult."""
    os.makedirs(out_dir, exist_ok=True)
    spec = canonical_spec(out_dir=os.path.join(out_dir, "sweep"),
                          workers=workers, seed=seed)
    if report is None:
        report = run_sweep(spec)
    geom = spec.resolved_geometry()

    results = [
        criterion_manufactured(),
        criterion_kkt(report),
        criterion_potential_bounds(report, geom),
        criterion_symmetry(report, geom),
        criterion_slopes(report),
        criterion_ugap(report),
        criterion_sub_branch(report),
        criterion_oracle(),
        criterion_decay(),
        criterion_expansion(report),
        criterion_holder(spec),
        criterion_properties(report, geom, spec),
    ]
    results.sort(key=lambda r: r.index)
    lines = [r.line() for r in results]
    if verbose:
        for ln in lines:
            print(ln)
    with open(os.path.join(out_dir, "acceptance.json"), "w") as fh:
        json.dump([asdict(r) for r in results], fh, indent=1)
    with open(os.path.join(out_dir, "acceptance.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return results
