"""Acceptance matrix: quantitative gates that tie the solver, the analysis
layer, and the closed-form constants together on fixed desk-scale fixtures.

A criterion's pass/fail, printed line and acceptance.json entry come from
its checks (see Check).  `run_acceptance` executes every criterion, writes
acceptance.json and acceptance.txt (one PASS/FAIL line per criterion) next
to the sweep outputs, and returns the result list; it prints nothing
(`neckflow accept` prints the lines).  The canonical sweep (symmetric disc
fixture, p in {1.3, 2, 3}, eps from 1e-2 down to 1e-4) is run once and
shared by every criterion that needs solved states.
"""

import functools
import itertools
import json
import math
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

from . import analysis as fa
from . import asymptotics as asy
from .errors import NeckflowError
from .geometry import (INC1, ConstantPotential, build_annulus,
                       build_symmetric_disc_example)
from .harness import (SweepSpec, run_sweep, solve_decay_fixture, case_mesh,
                      solution_path)
from .meshing import generate
from .solver import (NEWTON_TOL, ElementOps, SolveConfig, solve,
                     uniqueness_probe)

SENSES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
          ">": operator.gt, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One number of a criterion, passing when `value sense gate` holds (never
    for a NaN value: every comparison with NaN is false); one without a gate
    is only shown.  `fmt` formats the value and the gate."""

    name: str
    value: object
    sense: str = None
    gate: object = None
    fmt: str = ".3f"

    @property
    def passed(self):
        return self.gate is None or bool(
            SENSES[self.sense](self.value, self.gate))

    def text(self):
        out = f"{self.name} {self.value:{self.fmt}}"
        if self.gate is not None:
            out += f" {self.sense} {self.gate:{self.fmt}}"
        return out if self.passed else out + " FAILED"


@dataclass
class CriterionResult:
    index: int
    name: str
    checks: list
    error: str = None     # the exception that stopped the criterion

    @property
    def passed(self):
        return self.error is None and all(c.passed for c in self.checks)

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        body = self.error or "; ".join(c.text() for c in self.checks)
        return f"[{tag}] {self.index:2d}. {self.name}: {body}"


CRITERION_ERRORS = (NeckflowError, KeyError, IndexError, StopIteration,
                    ValueError, ZeroDivisionError, FileNotFoundError)


def _criterion(index, name):
    """Criterion `index` from a function returning its checks.  One of
    CRITERION_ERRORS (what a failed case's missing row, fit, prediction or
    solution file raises) fails the criterion, naming the exception."""
    def wrap(checks):
        @functools.wraps(checks)
        def run(*args):
            try:
                return CriterionResult(index, name, checks(*args))
            except CRITERION_ERRORS as exc:
                return CriterionResult(index, name, [],
                                       f"{type(exc).__name__}: {exc}")
        return run
    return wrap


def canonical_spec(out_dir=None, seed=0):
    return SweepSpec(geometry=build_symmetric_disc_example(scale=1.0),
                     out_dir=out_dir, seed=seed,
                     cache_dir=out_dir and os.path.join(out_dir, "mesh_cache"))


def _radial_exact(r, p):
    if p == 2.0:
        return np.log(r) / math.log(2.0)
    a = (p - 2.0) / (p - 1.0)
    return (r**a - 1.0) / (2.0**a - 1.0)


@_criterion(1, "manufactured radial solution")
def criterion_manufactured():
    """Annulus manufactured solution: nodal error, flux constancy, runtime."""
    geom = build_annulus(1.0, 2.0, phi=ConstantPotential(1.0))
    t_mesh = time.time()
    mesh = generate(geom, 0.02)
    t_mesh = time.time() - t_mesh
    r, checks = np.linalg.norm(mesh.vertices, axis=1), []
    for p in (1.5, 2.0, 3.0):
        t0 = time.time()
        sol = solve(mesh, geom, SolveConfig(p=p, inclusion_values={INC1: 0.0}))
        err = np.abs(sol.nodal_values - _radial_exact(r, p)).max()
        fluxes = [fa.annulus_circle_flux(sol, mesh, rr)
                  for rr in (1.2, 1.4, 1.6, 1.8)]
        spread = (max(fluxes) - min(fluxes)) / abs(np.mean(fluxes))
        checks += [Check(f"p={p:g} err", err, "<=", 5e-4, ".1e"),
                   Check(f"p={p:g} flux spread", spread, "<=", 1e-2, ".1e"),
                   Check(f"p={p:g} seconds", time.time() - t0 + t_mesh, "<",
                         30.0, ".1f")]
    return checks


@_criterion(2, "zero net inclusion flux (KKT)")
def criterion_kkt(report):
    worst = np.max([[abs(r["flux1"]), abs(r["flux2"])] for r in report.rows])
    return [Check("max energy-scaled |flux|", worst, "<=", 1e-8, ".2e")]


@_criterion(3, "inclusion potentials inside data range")
def criterion_potential_bounds(report, geom):
    lo, hi = geom.phi_range()
    u = np.array([[r["U1"], r["U2"]] for r in report.rows])
    return [Check("worst overshoot", np.max(np.maximum(u - hi, lo - u)), "<=",
                  1e-8, ".2e")]


# the sweep case criterion 4 solves again in the full space (nonlinear branch)
FULL_SPACE_CASE = (1.3, 1e-2)


@_criterion(4, "odd symmetry and positive flux")
def criterion_symmetry(report, geom):
    """The sweep's odd-reduced rows have U1 = -U2 by construction, so
    FULL_SPACE_CASE is solved again in the full space on the sweep's mesh;
    its |U1+U2| and |U1 - row U1| are gated too.  Positive flux: p >= 3/2."""
    lo, hi = geom.phi_range()
    gate = 1e-6 * (hi - lo)
    p, eps = FULL_SPACE_CASE
    row = next(r for r in report.rows if (r["p"], r["eps"]) == (p, eps))
    full = solve(case_mesh(geom, report.spec, eps), geom.with_eps(eps),
                 SolveConfig(p=p))
    case = f"full-space p={p:g} eps={eps:g}"
    return [Check(name, value, "<=", gate, ".2e") for name, value in (
        ("max |U1+U2|", np.max([abs(r["U1"] + r["U2"]) for r in report.rows])),
        (f"{case} |U1+U2|", abs(full.U1 + full.U2)),
        (f"{case} |U1 - row U1|", abs(full.U1 - row["U1"])))] + [
        Check(f"p={q:g} extrapolated flux",
              report.fits[q]["flux_extrapolation"]["value"], ">", 0.0, ".2f")
        for q in (2.0, 3.0)]


@_criterion(5, "blow-up slopes")
def criterion_slopes(report):
    checks = []
    for p, (target, tol) in {2.0: (-0.5, 0.07), 3.0: (-0.25, 0.07),
                             1.3: (-1.0, 0.10)}.items():
        s = report.fits[p]["slope_fit"]["slope"]
        checks += [Check(f"p={p:g} slope", s),
                   Check(f"p={p:g} |slope - ({target:g})|", abs(s - target),
                         "<=", tol)]
    return checks + [Check("sweep seconds", report.runtime_s, "<", 1800.0,
                           ".0f")]


def _last_variation(report, p, key):
    """Relative change of key between the two smallest separations at p."""
    rows = sorted((r for r in report.rows if r["p"] == p),
                  key=lambda r: -r["eps"])
    return abs(rows[-1][key] - rows[-2][key]) / abs(rows[-1][key])


def _loo_checks(report, p, fmt):
    """The leave-one-radius-out range of F_inf at p (NaN when there is
    none), shown, not gated."""
    lo, hi = (report.fits[p]["flux_extrapolation"]["loo_range"]
              or (math.nan, math.nan))
    return [Check(f"p={p:g} F_inf leave-one-out min", lo, fmt=fmt),
            Check(f"p={p:g} F_inf leave-one-out max", hi, fmt=fmt)]


@_criterion(6, "potential-gap scaling (p=2)")
def criterion_ugap(report):
    fhat = report.fits[2.0]["ugap_fit"]["flux_implied"]
    finf = report.fits[2.0]["flux_extrapolation"]["value"]
    return [Check("gap/sqrt(eps) variation",
                  _last_variation(report, 2.0, "ugap_over_scale"), "<", 0.10),
            Check("implied flux", fhat, fmt=".2f"),
            Check("extrapolated flux", finf, fmt=".2f"),
            Check("implied vs extrapolated rel", abs(fhat - finf) / abs(fhat),
                  "<=", 0.15)] + _loo_checks(report, 2.0, ".2f")


@_criterion(7, "sub-branch gap limit and vanishing flux")
def criterion_sub_branch(report):
    share = 0.05     # of the p=2 flux
    f_sub, f_ref = (abs(report.fits[p]["flux_extrapolation"]["value"])
                    for p in (1.3, 2.0))
    return [Check("gap variation", _last_variation(report, 1.3, "ugap"), "<",
                  0.05),
            Check("limit", report.fits[1.3]["ugap_fit"]["limit"], ">", 0.0),
            Check(f"|F_inf| vs {share:.0%} of p=2 flux", f_sub, "<=",
                  share * f_ref)] + _loo_checks(report, 1.3, ".3f")


@_criterion(8, "neck-integral oracle matches 1/K")
def criterion_oracle():
    t0, checks = time.time(), []
    for n, p in ((2, 2.0), (2, 3.0), (3, 2.0), (4, 2.5)):
        reg, H = asy.Regime(p, n), 2.0 * np.eye(n - 1)
        lim = asy.neck_integral_limit(reg, H)
        if (n, p) == (2, 2.0):
            checks.append(Check("(2,2) |lim-pi|", abs(lim - math.pi), "<=",
                                1e-6, ".1e"))
        checks.append(Check(f"(n,p)=({n},{p:g}) rel",
                            abs(lim * asy.gap_constant(H, reg) - 1.0), "<=",
                            1e-2, ".2e"))
    return checks + [Check("seconds", time.time() - t0, "<", 60.0, ".1f")]


@_criterion(9, "exponential interior decay")
def criterion_decay():
    c2, r2, _, _ = solve_decay_fixture(eps=1e-3, p=2.0)
    return [Check("slope", c2, ">", 0.0), Check("r^2", r2, ">=", 0.98, ".4f")]


@_criterion(10, "pointwise expansion at the neck center")
def criterion_expansion(report):
    checks = []
    for p in (2.0, 1.3):
        e = next(e for e in report.predictions
                 if e["p"] == p and e["eps"] == 1e-4 and e["xprime"] == 0.0)
        checks += [Check(f"p={p:g} status", e["status"], "==", "OK", "s"),
                   Check(f"p={p:g} rel", e["rel_error"], "<=", 0.10, ".4f"),
                   Check(f"p={p:g} transverse ratio",
                         abs(e["grad_x"] / e["grad_n"]), "<=", 0.10, ".1e")]
    # shown, not gated, for the p = 1.3 probe e: the SUB prediction above is
    # built from the gap at the same separation, this one from the
    # extrapolated gap limit
    pred = asy.predict_expansion(report.fits[1.3]["ugap_fit"]["limit"],
                                 asy.Regime(1.3, 2), 1e-4)
    dn = pred.predicted_dn(e["delta"])
    return checks + [Check("p=1.3 rel vs gap limit",
                           abs(e["grad_n"] - dn) / abs(dn))]


@_criterion(11, "Hölder-quotient boundedness")
def criterion_holder(spec):
    u = np.load(solution_path(spec.out_dir, 2.0, 1e-4), allow_pickle=False)
    mesh = case_mesh(spec.geometry, spec, 1e-4)
    dbars = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    _, res = fa.holder_scan(mesh, ElementOps(mesh).gradients(u).T, beta=0.5,
                            points=[math.sqrt(d - 1e-4) for d in dbars])
    vals = [v for _, v in res if v is not None]
    return [Check(f"normalized quotient dbar={d:g}", v)
            for d, (_, v) in zip(dbars, res) if v is not None] + [
        Check("quotients", len(vals), ">=", 4, "d"),
        Check("max/min", max(vals) / min(vals), "<=", 3.0, ".2f")]


@_criterion(12, "property suite")
def criterion_properties(report, geom, spec):
    # assembled gradient vs the four-point central stencil on a small mesh
    small = generate(build_annulus(1.0, 2.0), 0.45)
    ops, rng = ElementOps(small), np.random.default_rng(7)
    v = rng.normal(size=small.n_vertices)
    h, rel = 1e-3, []
    for p in (1.3, 2.0, 3.0):
        grad = ops.energy_grad(v, p, 0.5)[1]
        for i in rng.integers(0, small.n_vertices, 8):
            e = [ops.energy_grad(v + k * h * (np.arange(len(v)) == i), p,
                                 0.5)[0] for k in (2, 1, -1, -2)]
            fd = (-e[0] + 8 * e[1] - 8 * e[2] + e[3]) / (12 * h)
            rel.append(abs(fd - grad[i]) / max(abs(fd), 1e-12))
    # energy rises within each continuation stage, relative to
    # max(1, |the stage's first energy|)
    stages = [[en for _, en, _ in hist] for r in report.rows for _, hist in
              itertools.groupby(r["history"], key=operator.itemgetter(0))]
    rises = [[-math.inf]] + [np.diff(s) / max(1.0, abs(s[0])) for s in stages]
    lo, hi = geom.phi_range()
    g = build_symmetric_disc_example(scale=1.0).with_eps(1e-2)
    mesh = generate(g, 0.18, 6, seed=spec.seed)
    # the probes solve to NEWTON_TOL and are gated at multiples of it
    dist = {p: uniqueness_probe(mesh, g, SolveConfig(p=p), seed=spec.seed)
            for p in (2.0, 1.3)}
    return [Check("grad vs FD rel", np.max(rel), "<=", 1e-6, ".1e"),
            Check("energy rise per stage", np.max(np.concatenate(rises)), "<=",
                  1e-12, ".1e"),
            Check("max-principle overshoot", np.max(
                [[r["u_max"] - hi, lo - r["u_min"]] for r in report.rows]),
                "<=", 1e-8 * (hi - lo), ".1e"),
            Check("uniqueness dist p=2", dist[2.0], "<=", 10 * NEWTON_TOL,
                  ".1e"),
            Check("uniqueness dist p=1.3", dist[1.3], "<=", 100 * NEWTON_TOL,
                  ".1e")]


def run_acceptance(out_dir, seed=0):
    """Run the full acceptance matrix; returns the list of CriterionResult.
    A criterion that raises one of CRITERION_ERRORS fails on its own; the
    others are still run and written."""
    os.makedirs(out_dir, exist_ok=True)
    spec = canonical_spec(out_dir=os.path.join(out_dir, "sweep"), seed=seed)
    report = run_sweep(spec)
    geom = spec.geometry
    results = [
        criterion_manufactured(), criterion_kkt(report),
        criterion_potential_bounds(report, geom),
        criterion_symmetry(report, geom), criterion_slopes(report),
        criterion_ugap(report), criterion_sub_branch(report),
        criterion_oracle(), criterion_decay(), criterion_expansion(report),
        criterion_holder(spec), criterion_properties(report, geom, spec)]
    with open(os.path.join(out_dir, "acceptance.json"), "w") as fh:
        json.dump(results, fh, indent=1,
                  default=lambda r: {**vars(r), "passed": r.passed})
    with open(os.path.join(out_dir, "acceptance.txt"), "w") as fh:
        fh.write("".join(r.line() + "\n" for r in results))
    return results
