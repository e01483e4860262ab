"""The benchmark's workloads: inputs, timed part, correctness checks,
fingerprint and work counts.  See README.md for why each one exists.

Every workload is called through neckflow's public functions only; the
workload seed becomes `SweepSpec.seed` or `generate(seed=)`.
"""

import dataclasses
import hashlib
import os

import numpy as np

from neckflow import acceptance, harness, meshing
from neckflow.errors import MeshError, NeckflowError
from neckflow.geometry import (CappedGraphCurve, Circle, GapProfile, Geometry,
                               LinearPotential, MirroredCurve, NegatedProfile,
                               ParabolaProfile, _c2_bound)


@dataclasses.dataclass
class Check:
    name: str
    passed: bool
    detail: str
    # a defect that is known and left standing; see KNOWN_DEFECTS
    known: str = ""


KNOWN_DEFECTS = {
    "mesh_cache.neck_layers": (
        "load_mesh rebuilds TriMesh with neck_layers=0, so a sweep that reads "
        "the mesh cache writes neck_layers=0 to rows.csv where a cold sweep "
        "writes the generated value (ROADMAP: content-addressed mesh cache)"),
}


def _sha256(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class SweepCold:
    """The canonical 15-case sweep from an empty mesh cache (cache writes)."""

    def __init__(self, out_dir, seed, tracer):
        self.out_dir = out_dir
        self.seed = seed

    def setup(self):
        self.spec = acceptance.canonical_spec(seed=self.seed)
        self.geom = self.spec.resolved_geometry()

    def _spec(self, rep):
        # every repetition gets a fresh output directory and an explicit,
        # fresh cache directory, so the caller's NECKFLOW_CACHE never applies
        d = os.path.join(self.out_dir, f"rep{rep}")
        return dataclasses.replace(self.spec, out_dir=os.path.join(d, "sweep"),
                                   cache_dir=os.path.join(d, "mesh_cache"))

    def run(self, rep):
        spec = self._spec(rep)
        return spec, harness.run_sweep(spec)

    def attempted(self):
        return len(self.spec.p_list) * len(self.spec.eps_list)

    def failed(self, outcome):
        return len(outcome[1].failures)

    def checks(self, outcome):
        spec, report = outcome
        # the report-level acceptance criteria 2-7 and 10
        criteria = (
            (2, lambda: acceptance.criterion_kkt(report)),
            (3, lambda: acceptance.criterion_potential_bounds(report, self.geom)),
            (4, lambda: acceptance.criterion_symmetry(report, self.geom)),
            (5, lambda: acceptance.criterion_slopes(report)),
            (6, lambda: acceptance.criterion_ugap(report)),
            (7, lambda: acceptance.criterion_sub_branch(report)),
            (10, lambda: acceptance.criterion_expansion(report)),
        )
        out = []
        for index, crit in criteria:
            try:
                r = crit()
                out.append(Check(f"criterion_{index:02d}", r.passed, r.line()))
            except (KeyError, IndexError, StopIteration, ValueError,
                    ZeroDivisionError) as exc:
                # a missing row or fit (a failed case) fails the criterion
                out.append(Check(f"criterion_{index:02d}", False,
                                 f"{type(exc).__name__}: {exc}"))
        for p, fit in sorted(report.fits.items()):
            fb = fit.get("flux_extrapolation", {}).get("fallback", False)
            out.append(Check(f"flux_fit_p{p:g}", not fb,
                             "curve_fit fallback taken" if fb else "ok"))
            warn = fit.get("ugap_fit", {}).get("warning", "")
            out.append(Check(f"ugap_fit_p{p:g}", not warn, warn or "ok"))
        return out

    def fingerprint(self, outcome):
        """sha256 of rows.csv without its `# generated` timestamp line."""
        with open(os.path.join(outcome[0].out_dir, "rows.csv"), "rb") as fh:
            lines = [ln for ln in fh if not ln.startswith(b"# generated")]
        return "rows.csv:" + _sha256(lines)

    def work(self, outcome):
        rows = outcome[1].rows
        per_eps = {r["eps"]: r for r in rows}.values()
        return {"nv_total": int(sum(r["nv"] for r in per_eps)),
                "nt_total": int(sum(r["nt"] for r in per_eps)),
                "min_angle_deg": min((r["min_angle_deg"] for r in per_eps),
                                     default=None)}


class SweepWarm(SweepCold):
    """The same sweep reading a mesh cache that set-up filled (cache reads)."""

    def setup(self):
        super().setup()
        self.cache_dir = os.path.join(self.out_dir, "mesh_cache")
        self.spec = dataclasses.replace(self.spec, cache_dir=self.cache_dir)
        # case_mesh generates and saves each mesh, as the first sweep would
        self.generated = {eps: harness.case_mesh(self.geom, self.spec, eps)
                          for eps in self.spec.eps_list}
        self.cache_files = self._cache_listing()
        if len(self.cache_files) != len(self.spec.eps_list):
            raise RuntimeError(f"expected {len(self.spec.eps_list)} cached "
                               f"meshes, found {len(self.cache_files)}")

    def _cache_listing(self):
        return sorted((n, os.stat(os.path.join(self.cache_dir, n)).st_mtime_ns)
                      for n in os.listdir(self.cache_dir))

    def _spec(self, rep):
        d = os.path.join(self.out_dir, f"rep{rep}")
        return dataclasses.replace(self.spec, out_dir=os.path.join(d, "sweep"))

    def checks(self, outcome):
        out = super().checks(outcome)
        spec = outcome[0]
        for eps, gen in self.generated.items():
            loaded = harness.case_mesh(self.geom, spec, eps)
            out.extend(_roundtrip_checks(eps, gen, loaded, spec.neck_layers))
        unchanged = self._cache_listing() == self.cache_files
        out.append(Check("mesh_cache.read_only", unchanged,
                         "cache read without writes" if unchanged
                         else "the warm sweep wrote to the mesh cache"))
        return out


def _roundtrip_checks(eps, gen, loaded, neck_layers):
    """Compare a mesh read back from the cache with the one generated."""
    tag = f"eps={eps:g}"
    fields = ("vertices", "triangles", "boundary_edges", "boundary_tags")
    bad = [f for f in fields
           if not np.array_equal(getattr(gen, f), getattr(loaded, f))]
    out = [Check(f"mesh_cache.arrays.{tag}", not bad,
                 "arrays identical" if not bad
                 else f"differ after reload: {', '.join(bad)}")]
    g, l = gen.grading_report, loaded.grading_report
    other = [f.name for f in dataclasses.fields(g)
             if f.name != "neck_layers" and getattr(g, f.name) != getattr(l, f.name)]
    out.append(Check(f"mesh_cache.grading_report.{tag}", not other,
                     "identical" if not other
                     else f"differ after reload: {', '.join(other)}"))
    same = g.neck_layers == l.neck_layers
    known = ("mesh_cache.neck_layers"
             if not same and g.neck_layers == neck_layers and l.neck_layers == 0
             else "")
    out.append(Check(f"mesh_cache.neck_layers.{tag}", same,
                     f"generated {g.neck_layers}, loaded {l.neck_layers}",
                     known=known))
    return out


def asymmetric_geometry():
    """Two parabolic noses of different curvature (a=0.3 above, a=0.5 below),
    as in tests/test_meshing.py::test_asymmetric_geometry_far_field."""
    h1, h2 = ParabolaProfile(0.3), ParabolaProfile(0.5)
    gap = GapProfile(h1=h1, h2=NegatedProfile(h2), c1=0.79,
                     c2=_c2_bound(h2, 1.0), chart=1.0)
    return Geometry(outer=Circle((0, 0), 5.0),
                    inclusion1=CappedGraphCurve(h1, 0.999),
                    inclusion2=MirroredCurve(CappedGraphCurve(h2, 0.999)),
                    eps=0.0, gap=gap, phi=LinearPotential(), name="asym")


class MeshAsym:
    """generate + check_mesh on the asymmetric geometry (general far field)."""

    EPS = (1e-2, 1e-3, 1e-4)
    TARGET_H = 0.1          # the sweep default
    NECK_LAYERS = 6

    def __init__(self, out_dir, seed, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self):
        self.geom = asymmetric_geometry()
        self.geom.validate(eps_values=self.EPS)
        if self.geom.is_mirror_symmetric():
            raise RuntimeError("mesh_asym must take the general far-field path")
        self.cases = [self.geom.with_eps(eps) for eps in self.EPS]

    def run(self, rep):
        results = []
        for eps, g in zip(self.EPS, self.cases):
            self.tracer.trace_id = f"eps={eps:g}"
            try:
                mesh = meshing.generate(g, self.TARGET_H, self.NECK_LAYERS,
                                        seed=self.seed)
            except NeckflowError as exc:
                results.append((eps, None, f"{type(exc).__name__}: {exc}"))
                continue
            try:
                meshing.check_mesh(mesh, min_angle=20.0)
                results.append((eps, mesh, ""))
            except MeshError as exc:
                results.append((eps, mesh, f"check_mesh: {exc}"))
        return results

    def attempted(self):
        return len(self.EPS)

    def failed(self, outcome):
        return sum(mesh is None for _, mesh, _ in outcome)

    def checks(self, outcome):
        return [Check(f"check_mesh.eps={eps:g}", not err,
                      err or "min angle >= 20, conforming edges, single loops")
                for eps, mesh, err in outcome if mesh is not None]

    def fingerprint(self, outcome):
        """sha256 over every mesh's vertex, triangle and boundary arrays."""
        chunks = []
        for _, mesh, _ in outcome:
            if mesh is not None:
                chunks += [np.ascontiguousarray(a).tobytes() for a in
                           (mesh.vertices, mesh.triangles, mesh.boundary_edges,
                            mesh.boundary_tags)]
        return "meshes:" + _sha256(chunks)

    def work(self, outcome):
        meshes = [m for _, m, _ in outcome if m is not None]
        return {"nv_total": sum(m.n_vertices for m in meshes),
                "nt_total": sum(m.n_triangles for m in meshes),
                "min_angle_deg": min((m.grading_report.min_angle_deg
                                      for m in meshes), default=None)}


WORKLOADS = {"sweep_cold": SweepCold, "sweep_warm": SweepWarm,
             "mesh_asym": MeshAsym}
