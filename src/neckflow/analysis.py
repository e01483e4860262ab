"""Post-processing of solved states: variationally consistent fluxes, neck
gradient probes, blow-up statistics, exponential-decay fits, and empirical
Hölder quotients.

Fluxes are floats, formed by solver.dual_flux in dual-weighted (residual)
form: for a nodal cutoff field chi, the current through the layer where chi
drops from 1 to 0 is -(1/p) sum_i chi_i dE/du_i.  Raw edge quadrature of
piecewise-constant gradients, noisy just where accuracy matters, is not used.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, GeometryError
from .geometry import INC2, gap_width, model_gap_width
from .solver import dual_flux

MAX_TIE_RTOL = 1e-9
ANNULUS_BAND_CELLS = 4.0   # annulus_circle_flux's layer width in h_max


@dataclass(frozen=True)
class GradientProbe:
    """Element gradient (grad_x, grad_n) and gap width delta at the neck
    point (xprime, xn); a sweep row's `probes` are these records as dicts."""

    xprime: float
    xn: float
    grad_x: float
    grad_n: float
    delta: float


# ---------------------------------------------------------------------------
# fluxes
# ---------------------------------------------------------------------------

def cross_section_flux(sol, mesh, r):
    """Current flowing upward through the lower wall over |x'| <= r (the
    window flux whose eps -> 0 limit is the touching-problem flux): the
    dual flux of the vertices of wall_window."""
    return dual_flux(sol.grad_full, sol.p, wall_window(mesh, r))


def wall_window(mesh, r):
    """Mask of the INC2 vertices on the lower wall's graph over |x'| <= r, a
    mesh constant.  The far side of the lower inclusion, which also has
    |x'| <= r, is left out."""
    geom = mesh.geometry
    if geom is None or geom.gap is None:
        raise GeometryError("cross-section flux needs a two-inclusion geometry")
    if not 0 < r < geom.gap.chart:
        raise GeometryError(f"window radius {r} outside (0, {geom.gap.chart})")
    v = mesh.vertices
    near = np.flatnonzero((mesh.vertex_tag == INC2) & (np.abs(v[:, 0]) <= r))
    # the walls are evaluated only inside the chart.  A wall vertex lies on
    # the graph up to rounding, and the far side lies the inclusion's
    # height below it, so half the local gap width tells them apart
    x, y = v[near, 0], v[near, 1]
    lo = geom.lower_wall(x)
    window = np.zeros(len(v), dtype=bool)
    window[near[np.abs(y - lo) < 0.5 * (geom.upper_wall(x) - lo)]] = True
    return window


def annulus_circle_flux(sol, mesh, r):
    """Current flowing outward through the circle |x| = r in an annulus mesh,
    in cutoff-volume (dual) form."""
    rr = np.linalg.norm(mesh.vertices, axis=1)
    band = ANNULUS_BAND_CELLS * mesh.grading_report.h_max
    chi = np.clip((r - rr) / band + 0.5, 0.0, 1.0)
    return dual_flux(sol.grad_full, sol.p, chi)


# ---------------------------------------------------------------------------
# gradient extraction
# ---------------------------------------------------------------------------

def max_gradient(sol, mesh, window=None):
    """Largest element-gradient magnitude among triangles whose centroid has
    |x'| <= window (whole domain when window is None); returns (value,
    centroid location).  Mirror-image triangles tie up to rounding, so the
    location is the centroid with the largest y, then the largest x, among
    those within MAX_TIE_RTOL (relative) of the maximum."""
    g = sol.element_gradients
    mag = np.linalg.norm(g, axis=1)
    cent = mesh.centroids
    if window is not None:
        sel = np.abs(cent[:, 0]) <= window
        if not np.any(sel):
            return 0.0, (math.nan, math.nan)
        mag = mag[sel]
        cent = cent[sel]
    top = float(mag.max())
    near = np.flatnonzero(mag >= top * (1.0 - MAX_TIE_RTOL))
    k = near[np.lexsort((cent[near, 0], cent[near, 1]))[-1]]
    return top, (float(cent[k, 0]), float(cent[k, 1]))


def gradient_probe(sol, mesh, xprime):
    """Element gradient of the triangle containing the neck point midway
    between the two walls at x' = xprime (no recovery smoothing), as a
    GradientProbe."""
    return probe_at(sol, probe_site(mesh, xprime))


def probe_site(mesh, xprime):
    """The neck point midway between the two walls at x' = xprime, the
    triangle containing it and the gap width there, (xprime, xn, triangle,
    delta): a mesh constant."""
    geom = mesh.geometry
    xp = float(xprime)
    y = float(0.5 * geom.lower_wall(xp) + 0.5 * geom.upper_wall(xp))
    tri, _ = mesh.locate(np.array([[xp, y]]))
    if tri[0] < 0:
        raise GeometryError(f"probe point ({xp}, {y}) not inside the mesh")
    return xp, y, tri[0], gap_width(geom, xp)


def probe_at(sol, site):
    """The GradientProbe of sol at a probe_site."""
    xp, y, tri, delta = site
    gx, gy = sol.element_gradients[tri]
    return GradientProbe(xp, y, float(gx), float(gy), delta)


def probe_value_and_gradient(sol, mesh, pts):
    """Nodal-interpolated values and element gradients at arbitrary points."""
    tri, bary = mesh.locate(pts)
    if np.any(tri < 0):
        raise GeometryError("point outside mesh in probe")
    vals = np.einsum("pk,pk->p", sol.nodal_values[mesh.triangles[tri]], bary)
    grads = sol.element_gradients[tri]
    return vals, grads


def recovered_vertex_gradients(mesh, grads):
    """Area-weighted average at the vertices of the (nt, 2) element
    gradients grads, accumulated over every triangle's vertex 0, then 1,
    then 2."""
    area = mesh.areas
    verts = mesh.triangles.T.ravel()
    gx, gy, wts = (np.bincount(verts, np.tile(w, 3), minlength=mesh.n_vertices)
                   for w in (grads[:, 0] * area, grads[:, 1] * area, area))
    return np.column_stack([gx, gy]) / wts[:, None]


# ---------------------------------------------------------------------------
# exponential-decay fit
# ---------------------------------------------------------------------------

def fit_log_decay(xprimes, magnitudes, eps):
    """Linear least squares of log(magnitude) against -1/(sqrt(eps)+|x'|);
    returns (slope, r^2).  A positive slope is an exponential interior decay
    at the modeled rate."""
    x = np.asarray(xprimes, dtype=float)
    mag = np.asarray(magnitudes, dtype=float)
    if len(x) < 3 or np.ptp(x) < 1e-12:
        raise FitError("need >= 3 distinct sample stations for the decay fit")
    if np.any(mag <= 0):
        raise FitError("zero field magnitude at a sample station")
    t = -1.0 / (math.sqrt(eps) + np.abs(x))
    y = np.log(mag)
    A = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    if ss_tot <= 0:
        raise FitError("degenerate sample spread in decay fit")
    return float(coef[1]), float(1.0 - ss_res / ss_tot)


def decay_fit(sol_aux, mesh, samples):
    """Least-squares fit of log(|v| + |Dv|) against -1/(sqrt(eps) + |x'|)
    for the zero-boundary auxiliary state; returns (slope estimate, r^2).

    The slope estimates the decay constant in the interior bound
    exp(-c/(sqrt(eps)+|x'|)); only its positivity and the fit quality are
    meaningful, the constant itself is geometry dependent.
    """
    geom = mesh.geometry
    samples = np.asarray(sorted(samples), dtype=float)
    if len(samples) < 3 or np.ptp(samples) < 1e-12:
        raise FitError("need >= 3 distinct sample stations for the decay fit")
    ys = 0.5 * (np.asarray(geom.upper_wall(samples))
                + np.asarray(geom.lower_wall(samples)))
    pts = np.column_stack([samples, ys])
    vals, grads = probe_value_and_gradient(sol_aux, mesh, pts)
    mag = np.abs(vals) + np.linalg.norm(grads, axis=1)
    return fit_log_decay(samples, mag, geom.eps)


# ---------------------------------------------------------------------------
# empirical Hölder quotients
# ---------------------------------------------------------------------------

def _ball_sample_points(geom, x0, radius, n_x=9, n_t=7):
    """Sample grid inside the neck region {|x' - x0| < radius} between the
    walls (the natural neighborhood used for oscillation estimates)."""
    xs = x0 + np.linspace(-radius, radius, n_x)
    ts = np.linspace(0.08, 0.92, n_t)
    pts = []
    for x in xs:
        lo, hi = geom.lower_wall(x), geom.upper_wall(x)
        for t in ts:
            pts.append((x, (1 - t) * lo + t * hi))
    return np.asarray(pts)


def holder_quotient_scan(grad_eval, geom, beta, points):
    """Empirical Hölder-quotient scan.

    grad_eval maps an (n, 2) point array to gradients.  For each transverse
    coordinate x in points (floats) the scan takes the max over sampled pairs
    y, z within the window of half-width sqrt(model_gap(x))/4 of
    |G(y)-G(z)| / |y-z|^beta, normalized by model_gap(x)^(-beta/2) times the
    sup of |G| over the twice-wider window.
    Returns (max normalized quotient, per-point list); points whose window
    leaves the chart are skipped with a warning entry (value None).
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    results = []
    for pt in points:
        x0 = float(pt)
        dbar = model_gap_width(geom, x0)
        r_small = math.sqrt(dbar) / 4.0
        r_big = math.sqrt(dbar) / 2.0
        if abs(x0) + r_big >= geom.gap.chart:
            results.append((x0, None))
            continue
        sample = _ball_sample_points(geom, x0, r_small)
        G = np.asarray(grad_eval(sample))
        diffs = G[:, None, :] - G[None, :, :]
        dist = np.linalg.norm(sample[:, None, :] - sample[None, :, :], axis=2)
        iu = np.triu_indices(len(sample), k=1)
        quot = np.linalg.norm(diffs[iu], axis=1) / dist[iu] ** beta
        raw = float(np.max(quot))
        sup_pts = _ball_sample_points(geom, x0, r_big, n_x=13, n_t=9)
        sup_grad = float(np.max(np.linalg.norm(np.asarray(grad_eval(sup_pts)), axis=1)))
        if sup_grad <= 0:
            results.append((x0, 0.0))
            continue
        norm = raw / (dbar ** (-beta / 2.0) * sup_grad)
        results.append((x0, norm))
    vals = [v for _, v in results if v is not None]
    return (max(vals) if vals else math.nan), results


def holder_scan(mesh, grads, beta, points):
    """Hölder scan of the (nt, 2) element gradients grads on mesh, through
    their recovery average at the vertices (NaN outside the mesh)."""
    vgrad = recovered_vertex_gradients(mesh, grads)

    def grad_eval(pts):
        tri, bary = mesh.locate(pts)
        ok = tri >= 0
        out = np.full((len(pts), 2), np.nan)
        out[ok] = np.einsum("pk,pkd->pd", bary[ok],
                            vgrad[mesh.triangles[tri[ok]]])
        return out

    return holder_quotient_scan(grad_eval, mesh.geometry, beta, points)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

PROBE_CSV_COLUMNS = ("eps", "p", "xprime", "xn", "delta", "grad_x", "grad_n",
                     "predicted_grad_n")


def write_csv(path, columns, records, first_line=None):
    """first_line (if given), the comma-joined column names, then one line
    per record (a mapping) with csv_field of its value under each column.
    Writes rows.csv and, with PROBE_CSV_COLUMNS, probes.csv."""
    with open(path, "w") as fh:
        if first_line is not None:
            fh.write(first_line + "\n")
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(csv_field(rec[c]) for c in columns) + "\n")


def csv_field(x):
    """How rows.csv and probes.csv print a value: floats (nan included) with
    12 significant digits, everything else with str."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)
