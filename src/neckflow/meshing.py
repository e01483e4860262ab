"""Conforming triangulations of the perforated domain.

Two-inclusion domains are meshed in two parts that share vertices exactly:

* a structured, graded strip across the neck, with column spacing and row
  height both proportional to the local gap width (so the gap always carries
  the requested number of element layers), and
* an unstructured far field produced by a short spring-relaxation loop over
  a Delaunay triangulation (distmesh-style), seeded from a graded lattice.

Mirror-symmetric domains are meshed on the upper half and reflected, so the
vertex set is exactly symmetric under x_n -> -x_n.  Annulus domains use a
structured polar grid.  Meshes are immutable once built.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshCapacityError, MeshError
from .geometry import (INC1, INC2, OUTER, TAG_IDS, TAG_NAMES, Circle,
                       curve_polyline)

_VERTEX_CAP = 2_000_000

# part of every mesh-cache key: bump it whenever a change to this module
# changes the meshes it builds, so that stale cache files are not reused
MESHER_VERSION = 2


@dataclass(frozen=True)
class GradingReport:
    h_min: float
    h_max: float
    min_angle_deg: float
    neck_layers: int


class TriMesh:
    """Triangle mesh with tagged boundary edges.

    vertices: (nv, 2) float; triangles: (nt, 3) int, counterclockwise;
    boundary_edges: (nbe, 2) int; boundary_tags: (nbe,) int in
    {OUTER, INC1, INC2}.  `vertex_tag` is 0 for interior vertices and the
    component tag for boundary vertices (used for curve projection after
    refinement).
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags,
                 geometry=None, neck_layers=0):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        # drop vertices not referenced by any triangle (relaxation leftovers)
        used = np.zeros(len(vertices), dtype=bool)
        used[triangles.ravel()] = True
        if not np.all(used[boundary_edges.ravel()]):
            raise MeshError("boundary edge references an unused vertex")
        if not np.all(used):
            remap = -np.ones(len(vertices), dtype=np.int64)
            remap[used] = np.arange(int(used.sum()))
            vertices = vertices[used]
            triangles = remap[triangles]
            boundary_edges = remap[boundary_edges]
        self.vertices = vertices
        self.triangles = triangles
        self.boundary_edges = boundary_edges
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)
        self.geometry = geometry
        self._fix_orientation()
        self.vertex_tag = np.zeros(len(self.vertices), dtype=np.int64)
        for tag in (OUTER, INC1, INC2):
            sel = self.boundary_edges[self.boundary_tags == tag]
            self.vertex_tag[sel.ravel()] = tag
        self.grading_report = self._grading(neck_layers)
        self._tree = None

    # -- construction helpers ------------------------------------------------

    def _fix_orientation(self):
        a = self.signed_areas()
        flip = a < 0
        if np.any(flip):
            t = self.triangles[flip][:, [0, 2, 1]]
            self.triangles[flip] = t
        if np.any(self.signed_areas() <= 0):
            raise MeshError("degenerate (zero-area) triangle produced")

    def _grading(self, neck_layers):
        e = self.all_edge_lengths()
        return GradingReport(h_min=float(e.min()), h_max=float(e.max()),
                             min_angle_deg=float(self.min_angle_deg()),
                             neck_layers=int(neck_layers))

    # -- basic quantities ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def tri_coords(self):
        return self.vertices[self.triangles]

    def signed_areas(self):
        c = self.tri_coords()
        return 0.5 * ((c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
                      - (c[:, 2, 0] - c[:, 0, 0]) * (c[:, 1, 1] - c[:, 0, 1]))

    def all_edge_lengths(self):
        c = self.tri_coords()
        out = []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            out.append(np.linalg.norm(c[:, i] - c[:, j], axis=1))
        return np.concatenate(out)

    def angles_deg(self):
        c = self.tri_coords()
        ang = np.empty((len(c), 3))
        for k in range(3):
            u = c[:, (k + 1) % 3] - c[:, k]
            v = c[:, (k + 2) % 3] - c[:, k]
            cosang = np.einsum("ij,ij->i", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            ang[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return ang

    def min_angle_deg(self):
        return float(self.angles_deg().min())

    def centroids(self):
        return self.tri_coords().mean(axis=1)

    def boundary_edges_conform(self):
        """Every boundary edge is an edge of exactly one triangle."""
        t, be, n = self.triangles, self.boundary_edges, self.n_vertices
        keys, counts = np.unique(_edge_keys(t, np.roll(t, -1, axis=1), n),
                                 return_counts=True)
        return bool(np.isin(_edge_keys(be[:, 0], be[:, 1], n),
                            keys[counts == 1]).all())

    def boundary_loops_ok(self):
        """Each tag's edges form one closed loop."""
        for tag in np.unique(self.boundary_tags):
            edges = self.boundary_edges[self.boundary_tags == tag]
            verts, counts = np.unique(edges, return_counts=True)
            if np.any(counts != 2):
                return False
            # single cycle: walk it
            nxt = {}
            for a, b in edges:
                nxt.setdefault(a, []).append(b)
                nxt.setdefault(b, []).append(a)
            start = int(edges[0, 0])
            prev, cur, steps = -1, start, 0
            while steps <= len(edges):
                cand = nxt[cur]
                new = cand[0] if cand[0] != prev else cand[1]
                prev, cur = cur, new
                steps += 1
                if cur == start:
                    break
            if steps != len(edges):
                return False
        return True

    # -- point location -------------------------------------------------------

    def locate(self, pts, tol=1e-9):
        """Triangle index containing each point (-1 if none) and barycentric
        coordinates."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self._tree is None:
            self._tree = cKDTree(self.centroids())
        k = min(32, self.n_triangles)
        _, cand = self._tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        c = self.tri_coords()
        tri_idx = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        for row in range(cand.shape[1]):
            undone = tri_idx < 0
            if not np.any(undone):
                break
            t = cand[undone, row]
            p = pts[undone]
            a, b, d = c[t, 0], c[t, 1], c[t, 2]
            det = (b[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1]) - (d[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
            l1 = ((p[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1]) - (d[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])) / det
            l2 = ((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1]) - (p[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
            l0 = 1.0 - l1 - l2
            ok = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
            idx = np.flatnonzero(undone)[ok]
            tri_idx[idx] = t[ok]
            bary[idx, 0], bary[idx, 1], bary[idx, 2] = l0[ok], l1[ok], l2[ok]
        return tri_idx, bary


# ---------------------------------------------------------------------------
# graded neck strip
# ---------------------------------------------------------------------------

def _strip_columns_x(geom, target_h, layers, w, vertex_cap):
    """Column abscissae on [0, w], spacing ~ local gap / layer count."""
    gap = geom.gap
    xs = [0.0]
    count = 0
    x = 0.0
    while x < w:
        delta = geom.eps + float(gap.diff(x))
        k = max(layers, int(math.ceil(delta / target_h)))
        dx = delta / k
        count += k + 1
        if count > vertex_cap:
            # vertices scale like 1/sqrt(eps); suggest a floor with margin
            frac = x / w if x > 0 else 1e-3
            floor = geom.eps * (count / (frac * vertex_cap)) ** 2 * 4.0
            raise MeshCapacityError(
                f"strip exceeds vertex cap {vertex_cap} before x'={w}",
                eps_floor=floor)
        if x + dx >= w - 0.35 * dx:
            break
        x += dx
        xs.append(x)
    xs.append(w)
    return np.asarray(xs)


def _column_rows(geom, x, target_h, layers, force_even=False):
    """Row count K and the exactly antisymmetric fractions s_k = (2k-K)/(2K)."""
    delta = geom.eps + float(geom.gap.diff(x))
    k = max(layers, int(math.ceil(delta / target_h)))
    if force_even and k % 2 == 1:
        k += 1
    s = (2.0 * np.arange(k + 1) - k) / (2.0 * k)
    return k, s


def _stitch_columns(ia, fa, ib, fb):
    """Triangulate the band between two vertical columns of vertex indices
    (bottom to top) with height fractions fa, fb in [0, 1]."""
    tris = []
    i = j = 0
    while i < len(ia) - 1 or j < len(ib) - 1:
        if j == len(ib) - 1:
            adv_a = True
        elif i == len(ia) - 1:
            adv_a = False
        else:
            adv_a = fa[i + 1] <= fb[j + 1]
        if adv_a:
            tris.append((ia[i], ib[j], ia[i + 1]))
            i += 1
        else:
            tris.append((ia[i], ib[j], ib[j + 1]))
            j += 1
    return np.asarray(tris, dtype=np.int64)


def _split_quad_rows(ia, ib, pts):
    """Equal-count columns: split each quad along its shorter diagonal.
    Two triangles per quad, quads bottom to top."""
    a0, a1, b0, b1 = ia[:-1], ia[1:], ib[:-1], ib[1:]
    d1 = np.sum((pts[a0] - pts[b1]) ** 2, axis=1)
    d2 = np.sum((pts[a1] - pts[b0]) ** 2, axis=1)
    short = d1 <= d2
    # (a0, b0, b1), (a0, b1, a1) along a0-b1; else (a0, b0, a1), (a1, b0, b1)
    tris = np.empty((len(a0), 2, 3), dtype=np.int64)
    tris[:, 0, 0], tris[:, 0, 1] = a0, b0
    tris[:, 0, 2] = np.where(short, b1, a1)
    tris[:, 1, 0] = np.where(short, a0, a1)
    tris[:, 1, 1] = np.where(short, b1, b0)
    tris[:, 1, 2] = np.where(short, a1, b1)
    return tris.reshape(-1, 3)


class _StripMesh:
    """Structured graded strip across the neck on |x'| <= w."""

    def __init__(self, geom, target_h, layers, w, vertex_cap=_VERTEX_CAP):
        xs_half = _strip_columns_x(geom, target_h, layers, w, vertex_cap)
        xs = np.concatenate([-xs_half[::-1], xs_half[1:]])
        cols_idx, cols_s = [], []
        pts = []
        min_layers = None
        n = 0
        for x in xs:
            force_even = abs(abs(x) - w) < 1e-15
            k, s = _column_rows(geom, x, target_h, layers, force_even)
            if abs(x) <= 0.5 + 1e-12:
                min_layers = k if min_layers is None else min(min_layers, k)
            h1 = float(geom.gap.h1(x))
            h2 = float(geom.gap.h2(x))
            mid = 0.5 * (h1 + h2)
            delta = geom.eps + (h1 - h2)
            y = mid + s * delta
            pts.append(np.column_stack([np.full(k + 1, x), y]))
            cols_idx.append(np.arange(n, n + k + 1))
            cols_s.append(s)
            n += k + 1
        self.vertices = np.vstack(pts)
        tris = []
        for a in range(len(xs) - 1):
            ia, ib = cols_idx[a], cols_idx[a + 1]
            if len(ia) == len(ib):
                tris.append(_split_quad_rows(ia, ib, self.vertices))
            else:
                tris.append(_stitch_columns(ia, cols_s[a] + 0.5,
                                            ib, cols_s[a + 1] + 0.5))
        self.triangles = np.vstack(tris)
        self.top_idx = np.asarray([c[-1] for c in cols_idx])
        self.bot_idx = np.asarray([c[0] for c in cols_idx])
        self.left_wall = cols_idx[0]
        self.right_wall = cols_idx[-1]
        self.neck_layers = int(min_layers if min_layers is not None else layers)

    def boundary(self, walls_tag=None):
        edges, tags = [], []
        for k in range(len(self.top_idx) - 1):
            edges.append((self.top_idx[k], self.top_idx[k + 1]))
            tags.append(INC1)
            edges.append((self.bot_idx[k], self.bot_idx[k + 1]))
            tags.append(INC2)
        if walls_tag is not None:
            for wall in (self.left_wall, self.right_wall):
                for k in range(len(wall) - 1):
                    edges.append((wall[k], wall[k + 1]))
                    tags.append(walls_tag)
        return edges, tags


# ---------------------------------------------------------------------------
# polyline helpers
# ---------------------------------------------------------------------------

_PAIR_CAP = 1 << 20   # (point, segment) pairs tested at once


def _points_in_loops(pts, a, b):
    """Even-odd test of points against the closed loops with segments a -> b.

    A segment can cross the rightward ray from (x, y) only for y in the
    half-open range [min(y1, y2), max(y1, y2)), where (y1 > y) != (y2 > y);
    horizontal segments have none.  The points are sorted by y once, and each
    segment tests only the points in its range.
    """
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    order = np.argsort(y)
    ys = y[order]
    start = np.searchsorted(ys, np.minimum(a[:, 1], b[:, 1]))
    count = np.searchsorted(ys, np.maximum(a[:, 1], b[:, 1])) - start
    ends = np.cumsum(count)
    crossings = np.zeros(len(pts), dtype=np.int64)
    for k0 in range(0, int(ends[-1]), _PAIR_CAP):
        k = np.arange(k0, min(k0 + _PAIR_CAP, int(ends[-1])))
        s = np.searchsorted(ends, k, side="right")
        p = order[start[s] + k - (ends[s] - count[s])]
        x1, y1, x2, y2 = a[s, 0], a[s, 1], b[s, 0], b[s, 1]
        xc = x1 + (y[p] - y1) * (x2 - x1) / (y2 - y1)
        crossings += np.bincount(p[x[p] < xc], minlength=len(pts))
    return crossings % 2 == 1


class _SegmentField:
    """The segments a[i] -> b[i] of closed loops, and clearance from them."""

    def __init__(self, loops):
        self.a = np.vstack(loops)
        self.b = np.vstack([np.roll(loop, -1, axis=0) for loop in loops])
        self.tree = cKDTree(0.5 * (self.a + self.b))
        self.half_len = 0.5 * float(np.linalg.norm(self.b - self.a, axis=1).max())

    def clear_of(self, pts, r, k=8):
        """Whether each point is farther than r (per point) from the loops.

        The distance is taken to the k segments with the nearest midpoints,
        an upper bound on the true distance.  A point whose nearest midpoint
        lies beyond max(r) + half the longest segment (with a small margin)
        is farther than r from every segment, so it is clear by either
        measure, and only the points within that reach are measured.
        """
        pts = np.atleast_2d(pts)
        r = np.broadcast_to(np.asarray(r, dtype=float), (len(pts),))
        reach = (1.0 + 1e-6) * (r.max(initial=0.0) + self.half_len)
        d0, _ = self.tree.query(pts, k=1, distance_upper_bound=reach)
        near = np.flatnonzero(np.isfinite(d0))
        p = pts[near]
        k = min(k, len(self.a))
        _, idx = self.tree.query(p, k=k)
        idx = idx.reshape(len(p), k)
        best = np.full(len(p), np.inf)
        for col in range(idx.shape[1]):
            i = idx[:, col]
            pa = self.a[i]
            d = self.b[i] - pa
            t = np.clip(np.einsum("ij,ij->i", p - pa, d)
                        / np.maximum(np.einsum("ij,ij->i", d, d), 1e-300), 0, 1)
            proj = pa + t[:, None] * d
            best = np.minimum(best, np.linalg.norm(p - proj, axis=1))
        clear = np.ones(len(pts), dtype=bool)
        clear[near] = best > r[near]
        return clear


class _SizeField:
    """min(target, anchor_size + growth * distance-to-anchor)."""

    def __init__(self, target_h, anchors=(), growth=0.4):
        self.target_h = float(target_h)
        self.anchors = [(np.asarray(p, dtype=float), float(s)) for p, s in anchors]
        self.growth = growth

    def __call__(self, pts):
        """Sizes at an (n, 2) array of points (or one point), as an array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(len(pts), self.target_h)
        for p, s in self.anchors:
            out = np.minimum(out, s + self.growth * np.linalg.norm(pts - p, axis=1))
        return out

    def at(self, point):
        """Size at one point, as a float."""
        return float(self(point)[0])

    def min_size(self):
        if not self.anchors:
            return self.target_h
        return min(self.target_h, min(s for _, s in self.anchors))


# ---------------------------------------------------------------------------
# relaxation mesher for the far field
# ---------------------------------------------------------------------------

_RELAX_ITERS = 30   # spring-relaxation steps per far-field region
# retriangulate once some free point has moved this fraction of its local
# size since the last triangulation (Persson & Strang, SIAM Review 2004)
_REBUILD_MOVE = 0.2


def _grade_spacing(length, s0, s1, target_h, growth=1.25):
    """Node fractions along a segment, spacing s0 at one end, s1 at the other,
    at most target_h in between, geometric growth."""
    steps = []
    pos = 0.0
    s = min(s0, target_h)
    while pos < length:
        steps.append(s)
        pos += s
        # grow, but leave room to shrink back toward s1 at the far end
        remaining = length - pos
        s = min(target_h, s * growth, max(s1, remaining * (growth - 1) + s1))
    arr = np.asarray(steps)
    arr *= length / arr.sum()
    return np.concatenate([[0.0], np.cumsum(arr)])


def _relax_region(pool, loop_indices, size, rng, extra_seeds=None):
    """Mesh the region bounded by the given loops (vertex-index loops into the
    pool).  Returns triangle index triples.  Boundary vertices stay fixed.

    Each relaxation step pushes the free points apart along the edges of the
    last Delaunay triangulation.  That triangulation, and its edge list, are
    rebuilt only once some free point has moved more than _REBUILD_MOVE of
    its local size since it was built.  The Laplacian passes and the final
    triangulation are always fresh, so the returned triangles are a Delaunay
    triangulation of the final points.
    """
    loops_pts = [pool.pts[idx] for idx in loop_indices]
    boundary_idx = np.concatenate(loop_indices)
    segfield = _SegmentField(loops_pts)

    # seed interior points from a jittered hex lattice, rejection-thinned
    h0 = 0.85 * size.min_size()
    allpts = np.vstack(loops_pts)
    lo = allpts.min(axis=0) - h0
    hi = allpts.max(axis=0) + h0
    nx = int((hi[0] - lo[0]) / h0) + 1
    ny = int((hi[1] - lo[1]) / (h0 * math.sqrt(3) / 2)) + 1
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny))
    px = lo[0] + (gx + 0.5 * (gy % 2)) * h0
    py = lo[1] + gy * h0 * math.sqrt(3) / 2
    cand = np.column_stack([px.ravel(), py.ravel()])
    cand += rng.uniform(-0.08 * h0, 0.08 * h0, cand.shape)
    hloc = size(cand)
    keep = rng.uniform(0, 1, len(cand)) < (h0 / hloc) ** 2
    cand = cand[keep]
    if extra_seeds is not None and len(extra_seeds):
        # structured helpers (wall pockets); placed first so the rejection
        # below keeps them rather than nearby lattice candidates
        cand = np.vstack([np.asarray(extra_seeds, dtype=float), cand])
    cand = cand[_points_in_loops(cand, segfield.a, segfield.b)]
    cand = cand[segfield.clear_of(cand, 0.55 * size(cand))]
    # thin mutually close candidates, earliest wins
    order = cKDTree(cand)
    close = order.query_pairs(0.55 * h0, output_type="ndarray")
    drop = np.zeros(len(cand), dtype=bool)
    for a, b in close:
        if not drop[a]:
            drop[max(a, b)] = True
    cand = cand[~drop]

    free = pool.add(cand)
    active = np.concatenate([boundary_idx, free])

    def triangulate():
        pts = pool.pts[active]
        tri = Delaunay(pts)
        cent = pts[tri.simplices].mean(axis=1)
        keep = _points_in_loops(cent, segfield.a, segfield.b)
        return active[tri.simplices[keep]]

    last = None   # free point positions at the last triangulation
    for _ in range(_RELAX_ITERS):
        x = pool.pts[free]
        h = size(x)
        if last is None or np.max(np.linalg.norm(x - last, axis=1) / h,
                                  initial=0.0) > _REBUILD_MOVE:
            tris = triangulate()
            last = x
            keys = np.unique(_edge_keys(tris, np.roll(tris, -1, axis=1), pool.n))
            lo, hi = np.divmod(keys, pool.n)
        pa = pool.pts[lo]
        pb = pool.pts[hi]
        vec = pb - pa
        L = np.linalg.norm(vec, axis=1)
        L0 = 1.18 * size(0.5 * (pa + pb))
        f = np.maximum(L0 - L, 0.0) / np.maximum(L, 1e-300)
        push = vec * f[:, None]
        # one bincount per coordinate adds the -push of every lo end, then
        # the push of every hi end, in the order np.add.at would
        ends = np.concatenate([lo, hi])
        force = np.column_stack([
            np.bincount(ends, np.concatenate([-push[:, c], push[:, c]]),
                        minlength=pool.n) for c in (0, 1)])
        move = 0.25 * force[free]
        norm = np.linalg.norm(move, axis=1)
        scalef = np.minimum(1.0, 0.4 * h / np.maximum(norm, 1e-300))
        move *= scalef[:, None]
        newpos = x + move
        ok = _points_in_loops(newpos, segfield.a, segfield.b)
        ok &= segfield.clear_of(newpos, 0.35 * size(newpos))
        pool.pts[free[ok]] = newpos[ok]
        if norm.size and norm.max() < 0.005 * h0:
            break

    # Laplacian smoothing passes on the free points
    for _ in range(3):
        tris = triangulate()
        nbr_sum = np.zeros((pool.n, 2))
        nbr_cnt = np.zeros(pool.n)
        for a, b in ((0, 1), (1, 2), (2, 0)):
            np.add.at(nbr_sum, tris[:, a], pool.pts[tris[:, b]])
            np.add.at(nbr_cnt, tris[:, a], 1.0)
            np.add.at(nbr_sum, tris[:, b], pool.pts[tris[:, a]])
            np.add.at(nbr_cnt, tris[:, b], 1.0)
        tgt = nbr_sum[free] / np.maximum(nbr_cnt[free], 1.0)[:, None]
        ok = _points_in_loops(tgt, segfield.a, segfield.b)
        ok &= segfield.clear_of(tgt, 0.3 * size(tgt))
        pool.pts[free[ok]] = tgt[ok]

    tris = triangulate()
    _check_loops_covered(tris, loop_indices)
    return tris


def _check_loops_covered(tris, loop_indices):
    n = int(np.concatenate([tris.ravel(), *loop_indices]).max()) + 1
    have = _edge_keys(tris, np.roll(tris, -1, axis=1), n)
    for idx in loop_indices:
        if not np.isin(_edge_keys(idx, np.roll(idx, -1), n), have).all():
            raise MeshError("far-field triangulation missed a boundary edge; "
                            "adjust target_h")


def _edge_keys(i, j, n):
    """int64 keys lo*n + hi of the undirected edges (i, j) among n vertices
    (for triangles t, pass t and np.roll(t, -1, axis=1)).  Sorted keys order
    the edges as np.unique(axis=0) orders (lo, hi) pairs; np.divmod(key, n)
    gives the pair back."""
    return np.minimum(i, j).astype(np.int64) * n + np.maximum(i, j)


class _VertexPool:
    def __init__(self, pts=None):
        self.pts = np.zeros((0, 2)) if pts is None else np.array(pts, dtype=float)

    @property
    def n(self):
        return len(self.pts)

    def add(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        start = self.n
        self.pts = np.vstack([self.pts, pts])
        return np.arange(start, self.n)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate(geom, target_h, neck_layers=6, vertex_cap=_VERTEX_CAP, seed=0):
    """Mesh the perforated domain.

    Two-inclusion geometries require eps > 0 (the touching domain is never
    meshed); element size across the neck is at most gap/neck_layers.  Raises
    MeshCapacityError with a suggested eps floor when the vertex budget would
    be exceeded.
    """
    if geom.kind == "annulus":
        return _generate_annulus(geom, target_h)
    if geom.eps <= 0:
        raise MeshError("two-inclusion domains are meshed only for eps > 0")
    if target_h <= 0:
        raise MeshError("target_h must be positive")

    w = 0.9 * geom.gap.chart
    strip = _StripMesh(geom, target_h, neck_layers, w, vertex_cap)
    pool = _VertexPool(strip.vertices)
    rng = np.random.default_rng(seed)

    wall_sz = {}
    for sgn, wall in ((1, strip.right_wall), (-1, strip.left_wall)):
        ys = pool.pts[wall][:, 1]
        wall_sz[sgn] = float(np.diff(ys).mean())

    anchors = []
    for sgn in (1, -1):
        x = sgn * w
        anchors.append(((x, float(geom.upper_wall(x))), wall_sz[sgn]))
        anchors.append(((x, float(geom.lower_wall(x))), wall_sz[sgn]))
    size = _SizeField(target_h, anchors)

    symmetric = geom.is_mirror_symmetric()
    if symmetric:
        mesh = _far_symmetric(geom, pool, strip, size, rng, w, wall_sz)
    else:
        mesh = _far_general(geom, pool, strip, size, rng, w, wall_sz)
    tris, b_edges, b_tags = mesh

    s_edges, s_tags = strip.boundary(walls_tag=None)
    b_edges = np.vstack([np.asarray(s_edges), b_edges])
    b_tags = np.concatenate([np.asarray(s_tags), b_tags])
    all_tris = np.vstack([strip.triangles, tris])
    if pool.n > vertex_cap:
        raise MeshCapacityError(f"mesh exceeds vertex cap {vertex_cap}",
                                eps_floor=4.0 * geom.eps)
    return TriMesh(pool.pts, all_tris, b_edges, b_tags, geometry=geom,
                   neck_layers=strip.neck_layers)


def _arc_ccw_angles(a0, a1):
    """Ensure a1 > a0 for CCW traversal."""
    while a1 <= a0:
        a1 += 2 * math.pi
    return a0, a1


def _inclusion_arc(geom, size, w, upper=True):
    """Polyline along the (translated) inclusion boundary outside the strip,
    from the x'=+w joint to the x'=-w joint, traversed away from the neck.

    Returned points exclude both joint endpoints.
    """
    curve = geom.inclusion1_eps if upper else geom.inclusion2_eps
    yr = geom.upper_wall(w) if upper else geom.lower_wall(w)
    yl = geom.upper_wall(-w) if upper else geom.lower_wall(-w)

    if isinstance(curve, Circle):
        thr = curve.angle_of((w, yr))
        thl = curve.angle_of((-w, yl))
        if upper:
            # CCW from the right joint passes over the top to the left joint
            a0, a1 = _arc_ccw_angles(thr, thl)
            pts = curve.arc_points(a0, a1, size.at)
        else:
            # CCW from the left joint passes under the bottom; flip to right->left
            a0, a1 = _arc_ccw_angles(thl, thr)
            pts = curve.arc_points(a0, a1, size.at)[::-1]
        return pts[1:-1]
    # generic curve: dense polyline, cut at the joints, resample by size
    poly = curve_polyline(curve, 4000)
    return _cut_and_resample(poly, (w, yr), (-w, yl), size, go_over=upper)


def _cut_and_resample(poly, p_start, p_end, size, go_over):
    """Extract the sub-polyline from p_start to p_end avoiding the neck side,
    resampled at the local size."""
    d_start = np.linalg.norm(poly - np.asarray(p_start), axis=1)
    d_end = np.linalg.norm(poly - np.asarray(p_end), axis=1)
    i0, i1 = int(d_start.argmin()), int(d_end.argmin())
    n = len(poly)
    path_a = [poly[k % n] for k in range(i0, i0 + (i1 - i0) % n + 1)]
    path_b = [poly[k % n] for k in range(i1, i1 + (i0 - i1) % n + 1)][::-1]
    pa, pb = np.asarray(path_a), np.asarray(path_b)
    # pick the branch whose extreme |x_n| is larger (the one over the cap)
    pick = pa if np.abs(pa[:, 1]).max() >= np.abs(pb[:, 1]).max() else pb
    seg = np.linalg.norm(np.diff(pick, axis=0), axis=1)
    s = np.concatenate([[0], np.cumsum(seg)])
    total = s[-1]
    out = [np.asarray(p_start)]
    pos = 0.0
    while True:
        here = out[-1]
        step = size.at(here)
        pos += step
        if pos >= total - 0.4 * step:
            break
        k = int(np.searchsorted(s, pos))
        t = (pos - s[k - 1]) / max(s[k] - s[k - 1], 1e-300)
        out.append(pick[k - 1] * (1 - t) + pick[k] * t)
    return np.asarray(out[1:])


def _pocket_seeds(pool, strip, wall_sz, w, upper_only):
    """Structured helper seeds in the wedge pockets just outside the strip
    walls; without them the coarse far field fans wall nodes onto the first
    seam node and the min-angle gate fails."""
    seeds = []
    for sgn, wall in ((1, strip.right_wall), (-1, strip.left_wall)):
        s = wall_sz[sgn]
        ys = pool.pts[wall][:, 1]
        if upper_only:
            ys = ys[ys >= -1e-15]
        for j in (1, 2, 3):
            yj = ys + (0.5 * s if j % 2 else 0.0)
            seeds.append(np.column_stack([np.full(len(yj), sgn * (w + j * s)),
                                          yj]))
    return np.vstack(seeds)


def _far_symmetric(geom, pool, strip, size, rng, w, wall_sz):
    """Upper-half far region meshed and mirrored; exact mirror symmetry."""
    r_out = geom.outer.radius
    # wall halves (y >= 0), bottom to top; wall node counts are even so y=0 exists
    rw = strip.right_wall
    lw = strip.left_wall
    rw_up = rw[pool.pts[rw][:, 1] >= -1e-15]
    lw_up = lw[pool.pts[lw][:, 1] >= -1e-15]

    # seams y = 0 from wall feet to the outer circle
    def seam(sgn):
        x0, x1 = sgn * w, sgn * r_out
        frac = _grade_spacing(abs(x1 - x0), wall_sz[sgn], size.target_h, size.target_h)
        xs = x0 + np.sign(x1 - x0) * frac
        pts = np.column_stack([xs, np.zeros(len(xs))])
        return pts[1:-1]  # endpoints provided by wall foot / outer node

    seam_r = pool.add(seam(1))
    seam_l = pool.add(seam(-1))

    # outer upper semicircle, angle 0 .. pi, endpoints exactly on y=0
    n_half = max(8, int(math.pi * r_out / size.target_h))
    ang = np.linspace(0, math.pi, n_half + 1)
    outer_pts = np.column_stack([r_out * np.cos(ang), r_out * np.sin(ang)])
    outer_pts[0, 1] = 0.0
    outer_pts[-1, 1] = 0.0
    outer_idx = pool.add(outer_pts)

    arc_pts = _inclusion_arc(geom, size, w, upper=True)
    arc_idx = pool.add(arc_pts)

    joint_r = rw_up[-1:]   # (w, y_plus(w))
    joint_l = lw_up[-1:]
    # closed CCW loop around the upper-half far region
    loop = np.concatenate([
        [rw_up[0]], seam_r, outer_idx, seam_l[::-1], [lw_up[0]],
        lw_up[1:-1], joint_l, arc_idx[::-1], joint_r, rw_up[1:-1][::-1],
    ])
    seeds = _pocket_seeds(pool, strip, wall_sz, w, upper_only=True)
    tris_u = _relax_region(pool, [loop], size, rng, extra_seeds=seeds)

    # mirror: strip vertices already contain their partners; seam is fixed
    n_before = pool.n
    upper_extra = np.arange(len(strip.vertices), n_before)
    ymir = pool.pts[upper_extra].copy()
    ymir[:, 1] = -ymir[:, 1]
    on_seam = np.abs(pool.pts[upper_extra][:, 1]) < 1e-15
    mirror_map = np.arange(pool.n)
    new_idx = pool.add(ymir[~on_seam])
    mirror_map[upper_extra[~on_seam]] = new_idx
    # strip vertices: mirror via structured pairing (columns stored bottom-to-top)
    mirror_map[: len(strip.vertices)] = _strip_mirror_map(strip)

    tris_l = mirror_map[tris_u]
    tris = np.vstack([tris_u, tris_l])

    b_edges, b_tags = [], []
    # arc_idx runs right->left, so the left joint chains to arc_idx[::-1]
    arc_loop = np.concatenate([joint_l, arc_idx[::-1], joint_r])
    for k in range(len(arc_loop) - 1):
        b_edges.append((arc_loop[k], arc_loop[k + 1]))
        b_tags.append(INC1)
        b_edges.append((mirror_map[arc_loop[k]], mirror_map[arc_loop[k + 1]]))
        b_tags.append(INC2)
    for k in range(len(outer_idx) - 1):
        b_edges.append((outer_idx[k], outer_idx[k + 1]))
        b_tags.append(OUTER)
        b_edges.append((mirror_map[outer_idx[k]], mirror_map[outer_idx[k + 1]]))
        b_tags.append(OUTER)
    return tris, np.asarray(b_edges), np.asarray(b_tags)


def _strip_mirror_map(strip):
    """Index map sending each strip vertex to its x_n -> -x_n partner: the
    columns are consecutive runs bot_idx..top_idx, bottom to top, so vertex
    v of a column goes to bot + top - v."""
    col = np.repeat(np.arange(len(strip.bot_idx)),
                    strip.top_idx - strip.bot_idx + 1)
    return (strip.bot_idx + strip.top_idx)[col] - np.arange(len(col))


def _far_general(geom, pool, strip, size, rng, w, wall_sz):
    """Far field for asymmetric domains: one region with a hole."""
    r_out = geom.outer.radius
    n_out = max(16, int(2 * math.pi * r_out / size.target_h))
    ang = 2 * math.pi * np.arange(n_out) / n_out
    outer_idx = pool.add(np.column_stack([r_out * np.cos(ang) + geom.outer.center[0],
                                          r_out * np.sin(ang) + geom.outer.center[1]]))
    arc1 = pool.add(_inclusion_arc(geom, size, w, upper=True))
    arc2 = pool.add(_inclusion_arc(geom, size, w, upper=False))
    rw, lw = strip.right_wall, strip.left_wall
    # envelope of the dumbbell: upper arc (right->left), left wall down,
    # lower arc (left->right reversed), right wall up
    env = np.concatenate([
        [rw[-1]], arc1, [lw[-1]], lw[:-1][::-1],
        arc2[::-1], [rw[0]], rw[1:-1],
    ])
    loops = [outer_idx, env]
    seeds = _pocket_seeds(pool, strip, wall_sz, w, upper_only=False)
    tris = _relax_region(pool, loops, size, rng, extra_seeds=seeds)

    b_edges, b_tags = [], []
    up_loop = np.concatenate([[rw[-1]], arc1, [lw[-1]]])
    lo_loop = np.concatenate([[lw[0]], arc2[::-1], [rw[0]]])
    for k in range(len(up_loop) - 1):
        b_edges.append((up_loop[k], up_loop[k + 1]))
        b_tags.append(INC1)
    for k in range(len(lo_loop) - 1):
        b_edges.append((lo_loop[k], lo_loop[k + 1]))
        b_tags.append(INC2)
    for k in range(len(outer_idx)):
        b_edges.append((outer_idx[k], outer_idx[(k + 1) % len(outer_idx)]))
        b_tags.append(OUTER)
    return tris, np.asarray(b_edges), np.asarray(b_tags)


def _generate_annulus(geom, target_h):
    r1 = geom.inclusion1.radius
    r2 = geom.outer.radius
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
                tris.append((a, c, d))
                tris.append((a, d, b))
            else:
                tris.append((a, c, b))
                tris.append((b, c, d))
    b_edges, b_tags = [], []
    for j in range(nt):
        b_edges.append((j, (j + 1) % nt))
        b_tags.append(INC1)
        base = nr * nt
        b_edges.append((base + j, base + (j + 1) % nt))
        b_tags.append(OUTER)
    return TriMesh(pts, np.asarray(tris), np.asarray(b_edges),
                   np.asarray(b_tags), geometry=geom, neck_layers=0)


def generate_neck_strip(geom, target_h, neck_layers=6, vertex_cap=_VERTEX_CAP):
    """Mesh only the neck strip over the gap chart, side walls tagged OUTER.

    This is the fixture for the zero-boundary auxiliary problem: homogeneous
    data on the two graph boundaries, driving data on the side walls.
    """
    if geom.eps <= 0:
        raise MeshError("strip meshes require eps > 0")
    strip = _StripMesh(geom, target_h, neck_layers, geom.gap.chart, vertex_cap)
    edges, tags = strip.boundary(walls_tag=OUTER)
    return TriMesh(strip.vertices, strip.triangles, np.asarray(edges),
                   np.asarray(tags), geometry=geom,
                   neck_layers=strip.neck_layers)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refine_uniform(mesh):
    """Split every triangle into four; new boundary vertices are projected
    back onto the analytic boundary curves when a geometry is attached."""
    pts = mesh.vertices
    tris = mesh.triangles
    n = len(pts)
    keys, inv = np.unique(_edge_keys(tris, np.roll(tris, -1, axis=1), n).ravel(),
                          return_inverse=True)
    lo, hi = np.divmod(keys, n)
    mid = 0.5 * (pts[lo] + pts[hi])
    mid_idx = n + np.arange(len(keys))

    # which unique edges are boundary edges, and their tags
    be = mesh.boundary_edges
    uniq_of_bedge = np.searchsorted(keys, _edge_keys(be[:, 0], be[:, 1], n))

    mid_tag = np.zeros(len(keys), dtype=np.int64)
    mid_tag[uniq_of_bedge] = mesh.boundary_tags
    if mesh.geometry is not None:
        for tag in (OUTER, INC1, INC2):
            sel = mid_tag == tag
            if np.any(sel):
                curve = mesh.geometry.curve_for_tag(tag)
                if curve is not None:
                    mid[sel] = curve.project(mid[sel])

    new_pts = np.vstack([pts, mid])
    e01, e12, e20 = mid_idx[inv.reshape(-1, 3)].T
    new_tris = np.concatenate([
        np.column_stack([tris[:, 0], e01, e20]),
        np.column_stack([tris[:, 1], e12, e01]),
        np.column_stack([tris[:, 2], e20, e12]),
        np.column_stack([e01, e12, e20]),
    ])
    new_bedges, new_btags = [], []
    for (a, b), tag, ue in zip(mesh.boundary_edges, mesh.boundary_tags,
                               uniq_of_bedge):
        m = mid_idx[ue]
        new_bedges.extend([(a, m), (m, b)])
        new_btags.extend([tag, tag])
    return TriMesh(new_pts, new_tris, np.asarray(new_bedges),
                   np.asarray(new_btags), geometry=mesh.geometry,
                   neck_layers=2 * mesh.grading_report.neck_layers
                   if mesh.grading_report.neck_layers else 0)


# ---------------------------------------------------------------------------
# plain-text mesh format
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    """Header `nv nt nbe`, vertex lines `x y`, triangle lines `i j k`,
    boundary-edge lines `i j tag`, then a `neck_layers k` line."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            fh.write(f"{i} {j} {TAG_NAMES[int(tag)]}\n")
        fh.write(f"neck_layers {mesh.grading_report.neck_layers}\n")


def load_mesh(path, geometry=None):
    """Read a mesh written by save_mesh.  A file that does not hold one
    (truncated, unparsable, or with an index out of range) raises MeshError
    naming the path."""
    try:
        with open(path) as fh:
            nv, nt, nbe = (int(s) for s in fh.readline().split())
            if min(nv, nt, nbe) < 0:
                raise ValueError("negative section size")

            def section(n, cols, dtype):
                # reads exactly n lines, so the next section starts after
                # them; no token list of the whole file is ever held.  Lines
                # missing at the end of the file are reported below, not by
                # loadtxt's "no data" warning
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    a = np.loadtxt(fh, dtype=dtype, max_rows=n, ndmin=2,
                                   comments=None)
                if len(a) != n or a.size != n * cols:
                    raise ValueError(f"expected {n} lines of {cols} values")
                return a.reshape(n, cols)

            verts = section(nv, 2, float)
            tris = section(nt, 3, np.int64)
            edges = section(nbe, 3, str)
            # save_mesh ends every file with this line, so a file whose last
            # line is not it, newline included, was cut short
            tail = fh.readline()
            key, _, k = tail.partition(" ")
            if key != "neck_layers" or not tail.endswith("\n") or fh.read():
                raise ValueError("the last line is not `neck_layers k`")
            neck_layers = int(k)
        bedges = edges[:, :2].astype(np.int64)
        btags = np.array([TAG_IDS[t] if t in TAG_IDS else int(t)
                          for t in edges[:, 2]], dtype=np.int64)
        for idx in (tris, bedges):
            if idx.size and (idx.min() < 0 or idx.max() >= nv):
                raise ValueError(f"vertex index outside [0, {nv})")
        return TriMesh(verts, tris, bedges, btags, geometry=geometry,
                       neck_layers=neck_layers)
    except (ValueError, IndexError, MeshError) as exc:
        raise MeshError(f"unreadable mesh file {path}: {exc}") from exc


def check_mesh(mesh, min_angle=20.0):
    """Raise MeshError when a mesh invariant fails; returns the report."""
    if np.any(mesh.signed_areas() <= 0):
        raise MeshError("non-positive triangle area")
    if mesh.grading_report.min_angle_deg < min_angle:
        raise MeshError(f"min angle {mesh.grading_report.min_angle_deg:.2f} below "
                        f"{min_angle}")
    if not mesh.boundary_edges_conform():
        raise MeshError("a boundary edge is not a (unique) triangle edge")
    if not mesh.boundary_loops_ok():
        raise MeshError("boundary edges of some tag do not form a single loop")
    return mesh.grading_report
