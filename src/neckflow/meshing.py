"""Conforming triangulations of the perforated domain.

Two-inclusion domains are meshed in two parts that share vertices exactly:

* a structured, graded strip across the neck, with column spacing and row
  height both proportional to the local gap width (so the gap always carries
  the requested number of element layers), and
* an unstructured far field produced by a short spring-relaxation loop over
  a Delaunay triangulation (distmesh-style), seeded from a graded lattice.
  Its size field is target_h near the neck and grows away from it
  (_SizeField), and qhull triangulates a region afresh whenever its points
  have moved far enough (_relax_region).

The far field is split into an upper and a lower region by a seam from
each strip wall's mid vertex straight out to the outer circle.  It is
relaxed once per geometry and mesh settings, at eps = 0, and moved to each
separation by a harmonic displacement; each region is then triangulated by
qhull once more (FarField).  The upper region is relaxed.  On
mirror-symmetric domains the lower region is its reflection, so the mesh is
exactly symmetric under x_n -> -x_n (TriMesh.mirror derives the
reflection's vertex map from the coordinates); otherwise it is relaxed the
same way.  Annulus domains use a structured polar grid.  Meshes are
immutable once built.
"""

import functools
import logging
import math
import zipfile
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshCapacityError, MeshError
from .geometry import INC1, INC2, OUTER, Circle, curve_polyline

_log = logging.getLogger("neckflow")

VERTEX_CAP = 2_000_000   # the most vertices a mesh may have

# part of every mesh-cache key: bump it whenever a change to this module
# changes the meshes it builds, so that stale cache files are not reused.
# Version 8 grades the far field's size away from the neck
MESHER_VERSION = 8

# the mesh-quality gate: check_mesh's default, and the angle below which a
# sweep flags a mesh in its report
MIN_ANGLE_DEG = 20.0

# the fewest strip rows across the gap: the leading-order neck gradient
# (U1 - U2)/delta(x') e_n is linear across it, which two P1 rows hold
# exactly, and a two-row centre column (INC1, seam, INC2) adds no unknown
# to the odd-reduced solve
NECK_LAYERS = 2


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
    component tag for boundary vertices (the inclusion masks of the
    condensation and the fluxes).  `areas` are the (positive) triangle
    areas.

    `mirror` is None or the (nv,) vertex map of the reflection x_n -> -x_n
    under which the mesh is invariant: vertices[mirror] == vertices * (1, -1)
    exactly, and the map sends the triangle set onto itself, swaps INC1 and
    INC2 and keeps OUTER.  `mirror_triangles` is then the (nt,) triangle map
    it induces, an involution: the triangle whose vertex set is
    mirror[triangles[t]]; a fixed point is a triangle of two mirror images
    and a seam vertex.  Both are derived from the mesh on first use, and are
    None unless every condition holds.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags,
                 geometry=None, neck_layers=0):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        # row i of a saved solution is vertex i, so vertices are never
        # renumbered: one that no triangle references is refused
        used = np.zeros(len(vertices), dtype=bool)
        used[triangles.ravel()] = True
        if not np.all(used):
            raise MeshError(f"vertex {np.argmin(used)} and "
                            f"{int((~used).sum()) - 1} more are on no triangle")
        self.vertices = vertices
        self.triangles = triangles
        self.boundary_edges = boundary_edges
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)
        self.geometry = geometry
        # one coordinate gather serves the orientation fix and the grading,
        # which does not depend on the order of a triangle's vertices; only
        # (nt, 3) arrays outlive the gather
        c = self.tri_coords()
        self.areas = self._fix_orientation(_signed_areas(c))
        self.areas.flags.writeable = False
        dx, dy, length = _triangle_edges(c)
        del c
        # arccos is non-increasing: the smallest angle has the largest cosine
        cos_max = np.clip(_angle_cosines(dx, dy, length).max(), -1.0, 1.0)
        self.grading_report = GradingReport(
            h_min=float(length.min()), h_max=float(length.max()),
            min_angle_deg=float(np.degrees(np.arccos(cos_max))),
            neck_layers=int(neck_layers))
        self.vertex_tag = np.zeros(len(self.vertices), dtype=np.int8)
        for tag in (OUTER, INC1, INC2):
            sel = self.boundary_edges[self.boundary_tags == tag]
            self.vertex_tag[sel.ravel()] = tag

    def _fix_orientation(self, area):
        """Make every triangle counterclockwise; returns the areas after."""
        flip = area < 0
        if np.any(flip):
            self.triangles[flip] = self.triangles[flip][:, [0, 2, 1]]
            # a flipped triangle's area is exactly -area
            area[flip] = -area[flip]
        if np.any(area == 0):
            raise MeshError("degenerate (zero-area) triangle produced")
        return area

    @functools.cached_property
    def _reflection(self):
        """(mirror, mirror_triangles), read-only, or (None, None)."""
        m, n = _mirror_map(self.vertices), self.n_vertices
        swap = np.arange(max(OUTER, INC1, INC2) + 1)   # indexed by tag
        swap[[INC1, INC2]] = INC2, INC1
        if m is None or not np.array_equal(self.vertex_tag[m],
                                           swap[self.vertex_tag]):
            return None, None

        def keys(t):
            # one int64 per vertex set, exact while n^3 < 2^63 (n < 2.09e6)
            t = np.sort(t, axis=1)
            return (t[:, 0] * n + t[:, 1]) * n + t[:, 2]

        # each triangle's image is found among the sorted vertex-set keys
        key, image = keys(self.triangles), keys(m[self.triangles])
        order = np.argsort(key)
        pos = np.searchsorted(key, image, sorter=order)
        partner = order[np.minimum(pos, len(key) - 1)]
        if not (np.array_equal(key[partner], image)
                and np.array_equal(partner[partner], np.arange(len(key)))):
            return None, None
        m.flags.writeable = partner.flags.writeable = False
        return m, partner

    mirror = property(lambda self: self._reflection[0])
    mirror_triangles = property(lambda self: self._reflection[1])

    # -- basic quantities ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def tri_coords(self):
        return self.vertices[self.triangles]

    @functools.cached_property
    def centroids(self):
        """(nt, 2) triangle centroids, formed once on first use; read-only."""
        c = self.tri_coords().mean(axis=1)
        c.flags.writeable = False
        return c

    def boundary_edges_conform(self):
        """The boundary edges are exactly the edges of one triangle, each
        listed once, and no edge is on more than two triangles: a hole or an
        overlap in the triangulation fails."""
        t, be, n = self.triangles, self.boundary_edges, self.n_vertices
        keys, counts = np.unique(_edge_keys(t, t[:, [1, 2, 0]], n),
                                 return_counts=True)
        return bool(counts.max(initial=0) <= 2 and np.array_equal(
            np.sort(_edge_keys(be[:, 0], be[:, 1], n)), keys[counts == 1]))

    def boundary_loops_ok(self):
        """Each tag's edges form one closed loop: every vertex on them has
        two of them, and they are connected.  One graph holds every tag's
        edges, its nodes (tag, vertex) pairs, so that loops of two tags that
        share a vertex stay apart; it must have one component per tag."""
        tags, tag = np.unique(self.boundary_tags, return_inverse=True)
        node = tag[:, None] * self.n_vertices + self.boundary_edges
        _, ends, counts = np.unique(node.ravel(), return_inverse=True,
                                    return_counts=True)
        if np.any(counts != 2):
            return False
        ends = ends.reshape(-1, 2)
        graph = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                           shape=(len(counts), len(counts)))
        return len(tags) == 0 or connected_components(
            graph, directed=False, return_labels=False) == len(tags)

    # -- point location -------------------------------------------------------

    @functools.cached_property
    def _tree(self):
        return cKDTree(self.centroids)

    def locate(self, pts, tol=1e-9):
        """Triangle index containing each point (-1 if none) and barycentric
        coordinates."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        k = min(32, self.n_triangles)
        _, cand = self._tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        tri_idx = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        for row in range(cand.shape[1]):
            undone = tri_idx < 0
            if not np.any(undone):
                break
            t = cand[undone, row]
            p = pts[undone]
            a, b, d = self.vertices[self.triangles[t]].transpose(1, 0, 2)
            det = (b[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1]) - (d[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
            l1 = ((p[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1]) - (d[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])) / det
            l2 = ((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1]) - (p[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
            l0 = 1.0 - l1 - l2
            ok = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
            idx = np.flatnonzero(undone)[ok]
            tri_idx[idx] = t[ok]
            bary[idx, 0], bary[idx, 1], bary[idx, 2] = l0[ok], l1[ok], l2[ok]
        return tri_idx, bary


def _signed_areas(c):
    """Signed areas of triangles with vertex coordinates c, (nt, 3, 2)."""
    return 0.5 * ((c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
                  - (c[:, 2, 0] - c[:, 0, 0]) * (c[:, 1, 1] - c[:, 0, 1]))


def _triangle_edges(c):
    """x and y components and length, each (nt, 3), of edge k of each
    triangle, from vertex k to vertex k+1."""
    dx = c[:, [1, 2, 0], 0] - c[:, :, 0]
    dy = c[:, [1, 2, 0], 1] - c[:, :, 1]
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _angle_cosines(dx, dy, length):
    """Cosine of each triangle's angle at vertex k, between edge k and the
    reversed edge k-1, from _triangle_edges' output."""
    def prev(a):
        return a[:, [2, 0, 1]]
    return -(dx * prev(dx) + dy * prev(dy)) / (length * prev(length))


def _mirror_map(points):
    """The vertex map m of the reflection x_n -> -x_n, with points[m] ==
    points * (1, -1) exactly, or None when some point has no reflection
    among the points.  Sorting by (x, y) and by (x, -y) lists a symmetric
    point set in the same order as its reflection."""
    x, y = points[:, 0], points[:, 1]
    m = np.empty(len(points), dtype=np.int64)
    m[np.lexsort((y, x))] = np.lexsort((-y, x))
    if not np.array_equal(points[m], points * (1.0, -1.0)):
        return None
    return m


# ---------------------------------------------------------------------------
# graded neck strip
# ---------------------------------------------------------------------------

def _column_rows(delta, target_h, layers):
    """Row count of a strip column over a gap of width delta, at least
    `layers` and even, so that the column has a vertex on its midline."""
    k = np.maximum(layers, np.ceil(delta / target_h).astype(np.int64))
    return k + k % 2


def _strip_columns_x(geom, target_h, layers, w):
    """Column abscissae on [0, w], spacing ~ local gap / row count."""
    gap = geom.gap
    xs = [0.0]
    count = 0
    x = 0.0
    while x < w:
        delta = geom.eps + float(gap.diff(x))
        k = int(_column_rows(delta, target_h, layers))
        dx = delta / k
        count += k + 1
        if count > VERTEX_CAP:
            # vertices scale like 1/sqrt(eps); suggest a floor with margin
            frac = x / w if x > 0 else 1e-3
            floor = geom.eps * (count / (frac * VERTEX_CAP)) ** 2 * 4.0
            raise MeshCapacityError(
                f"strip exceeds vertex cap {VERTEX_CAP} before x'={w}; "
                f"try eps >= {floor:.3g}")
        if x + dx >= w - 0.35 * dx:
            break
        x += dx
        xs.append(x)
    xs.append(w)
    return np.asarray(xs)


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


def _split_quad_rows(a0, a1, b0, b1, pts):
    """Split each quad a0-a1 (one column, bottom to top) / b0-b1 (the next)
    along its shorter diagonal: two triangles per quad, in quad order."""
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


def _runs(lengths):
    """Run number and position within the run of each entry of consecutive
    runs of the given lengths."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]


def _chain(idx, closed=False):
    """Edges (idx[k], idx[k + 1]) along the first axis of idx, and
    (idx[-1], idx[0]) when closed.  For a 2-D idx the columns' edges
    interleave: edge k of every column, then edge k + 1."""
    idx = np.asarray(idx)
    head, tail = (idx, np.roll(idx, -1, axis=0)) if closed else (idx[:-1], idx[1:])
    return np.stack([head, tail], axis=-1).reshape(-1, 2)


def _columns(geom, xs, k):
    """Vertices of the columns at abscissae xs, k[c] + 1 in column c, bottom
    to top, at the exactly antisymmetric fractions s = (2j - k_c) / (2 k_c)
    of the local gap; returns the vertices, s and each vertex's column."""
    h1, h2 = geom.gap.h1(xs), geom.gap.h2(xs)
    delta = geom.eps + (h1 - h2)
    col, j = _runs(k + 1)
    s = (2.0 * j - k[col]) / (2.0 * k[col])
    y = 0.5 * (h1 + h2)[col] + s * delta[col]
    return np.column_stack([xs[col], y]), s, col


class _StripMesh:
    """Structured graded strip across the neck on |x'| <= w.

    Column c at x_c holds k_c + 1 vertices (_columns), where
    k_c = _column_rows(gap, target_h, layers) is even; `wall_rows` (left,
    right), when given, sets k of the two wall columns instead.  Columns are
    stored one after another, so column c is the index run bot_idx[c] ..
    top_idx[c], and vertex v of it has the mirror index bot + top - v.
    Unequal neighbours are stitched on rows 0 .. k/2, and the stitch is
    reflected by that index, so a symmetric geometry's strip is symmetric.
    """

    def __init__(self, geom, target_h, layers, w, wall_rows=None):
        xs_half = _strip_columns_x(geom, target_h, layers, w)
        xs = np.concatenate([-xs_half[::-1], xs_half[1:]])
        k = _column_rows(geom.eps + geom.gap.diff(xs), target_h, layers)
        if wall_rows is not None:
            k[[0, -1]] = wall_rows
        self.neck_layers = int(k[np.abs(xs) <= 0.5 + 1e-12].min())

        self.vertices, s, col = _columns(geom, xs, k)
        self.bot_idx = np.cumsum(k + 1) - (k + 1)
        self.top_idx = self.bot_idx + k
        self.left_wall = np.arange(self.bot_idx[0], self.top_idx[0] + 1)
        self.right_wall = np.arange(self.bot_idx[-1], self.top_idx[-1] + 1)
        flip = (self.bot_idx + self.top_idx)[col] - np.arange(len(col))

        # column pairs with equal row counts are rows of quads; the others
        # are stitched, and a stable sort by pair keeps the pairs in order
        same = np.flatnonzero(k[:-1] == k[1:])
        run, q = _runs(k[same])
        a0 = self.bot_idx[same][run] + q
        b0 = self.bot_idx[same + 1][run] + q
        tris = [_split_quad_rows(a0, a0 + 1, b0, b0 + 1, self.vertices)]
        pair = [np.repeat(same, 2 * k[same])]
        for a in np.flatnonzero(k[:-1] != k[1:]):
            ia, ib = (np.arange(self.bot_idx[c], self.bot_idx[c] + k[c] // 2 + 1)
                      for c in (a, a + 1))
            lower = _stitch_columns(ia, s[ia] + 0.5, ib, s[ib] + 0.5)
            tris.append(np.vstack([lower, flip[lower]]))
            pair.append(np.full(len(tris[-1]), a))
        order = np.argsort(np.concatenate(pair), kind="stable")
        self.triangles = np.vstack(tris)[order]

    def boundary(self, walls_tag=None):
        edges = _chain(np.column_stack([self.top_idx, self.bot_idx]))
        tags = np.tile([INC1, INC2], len(self.top_idx) - 1)
        if walls_tag is not None:
            walls = np.vstack([_chain(self.left_wall), _chain(self.right_wall)])
            edges = np.vstack([edges, walls])
            tags = np.concatenate([tags, np.full(len(walls), walls_tag)])
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
        # covers the rounding of lower_bound and of the steps taken from it
        self._pad = (1.0 + 1e-6) * self.half_len + 1e-9 * float(
            np.abs(self.a).max(initial=1.0))

    def lower_bound(self, pts):
        """A lower bound on each point's distance to the loops: the distance
        to the nearest segment midpoint less half the longest segment (and a
        margin for rounding)."""
        d0, _ = self.tree.query(np.atleast_2d(pts), k=1)
        return d0 - self._pad

    def admit(self, pts, r, bound):
        """Whether each point is inside the loops and clear_of them by r.

        bound holds lower bounds on the points' distances to the loops, for
        points that reached pts along paths which started inside the loops
        at lower_bound and were shortened by each step's length since.  A
        point whose bound exceeds r cannot have crossed a loop and is clear
        by either measure, so only the other points are tested.
        """
        ok = np.ones(len(pts), dtype=bool)
        near = np.flatnonzero(bound <= r)
        p = pts[near]
        ok[near] = _points_in_loops(p, self.a, self.b) & self.clear_of(p, r[near])
        return ok

    def clear_of(self, pts, r, k=8):
        """Whether each point is farther than r (per point) from the loops.

        The distance is taken to the k segments with the nearest midpoints,
        an upper bound on the true distance.  A segment whose midpoint lies
        beyond max(r) + half the longest segment (with a small margin) is
        farther than r, so one k-nearest query bounded by that reach finds
        every segment that can decide the test; a point with none in reach
        is clear.  All k projections are taken in one (n, k, 2) pass.
        """
        pts = np.atleast_2d(pts)
        r = np.broadcast_to(np.asarray(r, dtype=float), (len(pts),))
        reach = (1.0 + 1e-6) * (r.max(initial=0.0) + self.half_len)
        k = min(k, len(self.a))
        _, idx = self.tree.query(pts, k=k, distance_upper_bound=reach)
        idx = idx.reshape(len(pts), k)
        # a neighbour beyond the reach comes back as index len(self.a)
        near = np.flatnonzero(idx[:, 0] < len(self.a))
        idx = idx[near]
        found = idx < len(self.a)
        idx[~found] = 0
        p = pts[near][:, None]
        pa = self.a[idx]
        d = self.b[idx] - pa
        t = np.clip(np.einsum("ijk,ijk->ij", p - pa, d)
                    / np.maximum(np.einsum("ijk,ijk->ij", d, d), 1e-300), 0, 1)
        proj = pa + t[..., None] * d
        dist = np.where(found, np.linalg.norm(p - proj, axis=2), np.inf)
        clear = np.ones(len(pts), dtype=bool)
        clear[near] = dist.min(axis=1, initial=np.inf) > r[near]
        return clear


# the far field's base size grows by _FAR_GROWTH per unit distance from the
# neck beyond _FAR_START chart radii, up to _FAR_H (or target_h when that is
# coarser): away from the neck the solution is close to linear
_FAR_START = 1.5
_FAR_GROWTH = 0.1
_FAR_H = 0.3


class _SizeField:
    """min(base, anchor_size + growth * distance-to-anchor), where base is
    min(max(_FAR_H, target), target + _FAR_GROWTH * max(0, |x| - r0)): the
    target size within r0 of the neck (the origin), graded beyond."""

    def __init__(self, target_h, r0, anchors=(), growth=0.4):
        self.target_h = float(target_h)
        self.r0 = float(r0)
        self.anchors = [((float(p[0]), float(p[1])), float(s)) for p, s in anchors]
        self.growth = growth

    def __call__(self, pts):
        """Sizes at an (n, 2) array of points (or one point), as an array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        far = np.maximum(np.sqrt(x * x + y * y) - self.r0, 0.0)
        out = np.minimum(max(_FAR_H, self.target_h),
                         self.target_h + _FAR_GROWTH * far)
        for (px, py), s in self.anchors:
            # the same rounding as np.linalg.norm(pts - p, axis=1)
            dx, dy = x - px, y - py
            np.minimum(out, s + self.growth * np.sqrt(dx * dx + dy * dy), out=out)
        return out

    def at(self, point):
        """Size at one point, as a float: __call__'s operations in its order
        on math scalars, which round as numpy's do, so the two agree bit
        for bit."""
        x, y = float(point[0]), float(point[1])
        out = min(max(_FAR_H, self.target_h), self.target_h + _FAR_GROWTH
                  * max(math.sqrt(x * x + y * y) - self.r0, 0.0))
        for (px, py), s in self.anchors:
            dx, dy = x - px, y - py
            out = min(out, s + self.growth * math.sqrt(dx * dx + dy * dy))
        return out

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


def _grade_spacing(length, s0, s1, cap, growth=1.25):
    """Node positions along a segment, spacing s0 at one end, s1 at the
    other, at most cap(pos) at distance pos from the first end in between,
    geometric growth."""
    steps = []
    pos = 0.0
    s = min(s0, cap(pos))
    while pos < length:
        steps.append(s)
        pos += s
        # grow, but leave room to shrink back toward s1 at the far end
        remaining = length - pos
        s = min(cap(pos), s * growth, max(s1, remaining * (growth - 1) + s1))
    arr = np.asarray(steps)
    arr *= length / arr.sum()
    return np.concatenate([[0.0], np.cumsum(arr)])


def _triangulate(pts, active, loop_pts):
    """qhull's Delaunay triangulation of pts[active] without the triangles
    whose centroids lie outside the closed loop through loop_pts: index
    triples into pts, in qhull's order."""
    p = pts[active]
    simp = Delaunay(p).simplices
    c = p[simp]
    # the centroids, summed in the order mean(axis=1) sums
    keep = _points_in_loops((c[:, 0] + c[:, 1] + c[:, 2]) / 3, loop_pts,
                            np.roll(loop_pts, -1, axis=0))
    return active[simp[keep]]


def _relax_region(pool, loop, size, rng, extra_seeds):
    """Relax the points of the region bounded by the given loop (a
    vertex-index loop into the pool).  Boundary vertices stay fixed.
    Returns the pool indices of the free points, the triangulation that
    the Laplacian passes used (index triples) and the number of qhull
    calls.  The caller triangulates the final points (_triangulate), after
    moving them to a separation (FarField).

    Each relaxation step pushes the free points apart along the edges of the
    last triangulation (_triangulate).  That triangulation, and its edge
    list, are rebuilt only once some free point has moved more than
    _REBUILD_MOVE of its local size since it was built.  After the last
    step, one fresh triangulation serves all three Laplacian passes (the
    relaxation's last one left slivers on coarse meshes), so a region takes
    one qhull call per rebuild and one more.  One DEBUG record on the
    "neckflow" logger gives the region's qhull calls.

    Each free point keeps a lower bound on its distance to the loop, taken
    at each rebuild and shortened by every step it takes, so that a step is
    tested against the loop (_SegmentField.admit) only near it.
    """
    loop_pts = pool.pts[loop]
    segfield = _SegmentField([loop_pts])

    # seed interior points from a jittered hex lattice, rejection-thinned
    h0 = 0.85 * size.min_size()
    lo = loop_pts.min(axis=0) - h0
    hi = loop_pts.max(axis=0) + h0
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
    active = np.concatenate([loop, free])

    h = size(pool.pts[free])
    last = None   # free point positions at the last triangulation
    qhull_calls = 1   # the Laplacian passes' triangulation
    for step in range(_RELAX_ITERS):
        x = pool.pts[free]
        if last is None or np.max(np.linalg.norm(x - last, axis=1) / h,
                                  initial=0.0) > _REBUILD_MOVE:
            lo, hi = _edges(_triangulate(pool.pts, active, loop_pts),
                            pool.n)
            ends = np.concatenate([lo, hi])
            qhull_calls += 1
            last = x
            bound = segfield.lower_bound(x)
        pa = pool.pts[lo]
        pb = pool.pts[hi]
        vec = pb - pa
        L = np.linalg.norm(vec, axis=1)
        L0 = 1.18 * size(0.5 * (pa + pb))
        f = np.maximum(L0 - L, 0.0) / np.maximum(L, 1e-300)
        push = vec * f[:, None]
        # one bincount per coordinate adds the -push of every lo end, then
        # the push of every hi end, in the order np.add.at would
        move = 0.25 * np.column_stack([
            np.bincount(ends, np.concatenate([-push[:, c], push[:, c]]),
                        minlength=pool.n)[free] for c in (0, 1)])
        norm = np.linalg.norm(move, axis=1)
        scalef = np.minimum(1.0, 0.4 * h / np.maximum(norm, 1e-300))
        move *= scalef[:, None]
        newpos = x + move
        hnew = size(newpos)
        moved = bound - norm * scalef
        ok = segfield.admit(newpos, 0.35 * hnew, moved)
        pool.pts[free[ok]] = newpos[ok]
        h = np.where(ok, hnew, h)
        bound = np.where(ok, moved, bound)
        if norm.size and norm.max() < 0.005 * h0:
            break

    _log.debug("far-field region: %d points, %d relaxation steps, %d qhull "
               "calls", len(active), step + 1, qhull_calls)

    # three Laplacian smoothing passes on the free points, all on one fresh
    # triangulation: every triangle edge adds each end to the other's sum
    tris = _triangulate(pool.pts, active, loop_pts)
    nxt = tris[:, [1, 2, 0]].ravel()
    ends = np.concatenate([tris.ravel(), nxt])
    other = np.concatenate([nxt, tris.ravel()])
    nbr_cnt = np.maximum(np.bincount(ends, minlength=pool.n)[free], 1)
    for _ in range(3):
        sums = [np.bincount(ends, pool.pts[other, c], minlength=pool.n)[free]
                for c in (0, 1)]
        tgt = np.column_stack(sums) / nbr_cnt[:, None]
        moved = bound - np.linalg.norm(tgt - pool.pts[free], axis=1)
        ok = segfield.admit(tgt, 0.3 * size(tgt), moved)
        pool.pts[free[ok]] = tgt[ok]
        bound = np.where(ok, moved, bound)
    return free, tris, qhull_calls


def _harmonic(tris, free, u):
    """u at the free vertices replaced by its graph-harmonic extension over
    the edges of tris: each free vertex takes the mean of its neighbours'
    values (0 when it has none), the others keep theirs."""
    n, nf = len(u), len(free)
    lo, hi = _edges(tris, n)
    pos = np.full(n, -1)
    pos[free] = np.arange(nf)
    # each edge once from each end; rows are the free ends
    row, col = pos[np.concatenate([lo, hi])], np.concatenate([hi, lo])
    col, row = col[row >= 0], row[row >= 0]
    inner = pos[col] >= 0
    deg = np.maximum(np.bincount(row, minlength=nf), 1)
    a = coo_matrix((np.concatenate([deg, -np.ones(int(inner.sum()))]),
                    (np.concatenate([np.arange(nf), row[inner]]),
                     np.concatenate([np.arange(nf), pos[col[inner]]]))),
                   shape=(nf, nf)).tocsc()
    out = u.copy()
    out[free] = spsolve(a, np.bincount(row[~inner], u[col[~inner]],
                                       minlength=nf))
    return out


def _check_loop_covered(tris, loop):
    n = int(max(tris.max(), loop.max())) + 1
    have = _edge_keys(tris, tris[:, [1, 2, 0]], n)
    if not np.isin(_edge_keys(loop, np.roll(loop, -1), n), have).all():
        raise MeshError("far-field triangulation missed a boundary edge; "
                        "adjust target_h")


def _edges(tris, n):
    """The (lo, hi) ends of the edges of triangles tris among n vertices,
    each edge once, in sorted _edge_keys order (a sort and a neighbour
    test, several times faster than np.unique's hashing)."""
    keys = np.sort(_edge_keys(tris, tris[:, [1, 2, 0]], n), axis=None)
    return np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], n)


def _edge_keys(i, j, n):
    """int64 keys lo*n + hi of the undirected edges (i, j) among n vertices
    (for triangles t, pass t and t[:, [1, 2, 0]]).  Sorted keys order
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

def check_target_h(target_h):
    """Raise MeshError unless target_h is finite and positive: the mesher
    steps by it, and a far field's wall grading would never end at 0."""
    if not (math.isfinite(target_h) and target_h > 0):
        raise MeshError("target_h must be finite and positive")


def generate(geom, target_h, neck_layers=NECK_LAYERS, seed=0, far=None):
    """Mesh the perforated domain.

    Two-inclusion geometries require eps > 0 (the touching domain is never
    meshed); element size across the neck is at most gap/neck_layers.  Raises
    MeshCapacityError with a suggested eps floor when the mesh would have
    more than VERTEX_CAP vertices.

    The far field is a FarField of the geometry and the other arguments,
    relaxed at eps = 0 and moved to geom.eps.  `far` passes one to share
    between separations (it is relaxed on its first use); without it, a
    fresh one is built, so a mesh is the same either way.  A far field of
    another geometry or other settings raises MeshError.  One DEBUG record
    on the "neckflow" logger says whether this call relaxed the far field
    or reused it, its largest move over the local size, and the qhull calls
    the call made.
    """
    check_target_h(target_h)
    if geom.kind == "annulus":
        return _generate_annulus(geom, target_h)
    if geom.eps <= 0:
        raise MeshError("two-inclusion domains are meshed only for eps > 0")
    if far is None:
        far = FarField(geom, target_h, neck_layers, seed)
    elif far.key != mesh_content(geom.with_eps(0.0), target_h, neck_layers,
                                 seed):
        raise MeshError("the far field was built for another geometry or "
                        "other mesh settings")

    strip = _StripMesh(geom, target_h, neck_layers, far.w,
                       wall_rows=far.wall_rows[::-1])
    pool = _VertexPool(strip.vertices)
    qhull_calls = far.relax()
    relaxed = qhull_calls > 0
    tris, b_edges, b_tags, move = far.place(geom, pool, strip)
    qhull_calls += len(far.regions)
    _log.debug("mesh at eps=%g: far field %s, largest move %.3g of the local "
               "size, %d qhull calls", geom.eps,
               "relaxed" if relaxed else "reused", move, qhull_calls)

    s_edges, s_tags = strip.boundary(walls_tag=None)
    b_edges = np.vstack([s_edges, b_edges])
    b_tags = np.concatenate([s_tags, b_tags])
    all_tris = np.vstack([strip.triangles, tris])
    if pool.n > VERTEX_CAP:
        raise MeshCapacityError(f"mesh exceeds vertex cap {VERTEX_CAP}; try "
                                f"eps >= {4.0 * geom.eps:.3g}")
    mesh = TriMesh(pool.pts, all_tris, b_edges, b_tags, geometry=geom,
                   neck_layers=strip.neck_layers)
    check_mirror(mesh)
    return mesh


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
    return _cut_and_resample(poly, (w, yr), (-w, yl), size)


def _cut_and_resample(poly, p_start, p_end, size):
    """Extract the sub-polyline from p_start to p_end avoiding the neck side,
    resampled at the local size.  The marks are then scaled so that p_end
    lies one step of its own size past the last of them, which evens out
    the gap at that end."""
    d_start = np.linalg.norm(poly - np.asarray(p_start), axis=1)
    d_end = np.linalg.norm(poly - np.asarray(p_end), axis=1)
    i0, i1 = int(d_start.argmin()), int(d_end.argmin())
    n = len(poly)
    pa = poly[np.arange(i0, i0 + (i1 - i0) % n + 1) % n]
    pb = poly[np.arange(i1, i1 + (i0 - i1) % n + 1) % n][::-1]
    # pick the branch whose extreme |x_n| is larger (the one over the cap)
    pick = pa if np.abs(pa[:, 1]).max() >= np.abs(pb[:, 1]).max() else pb
    seg = np.linalg.norm(np.diff(pick, axis=0), axis=1)
    s = np.concatenate([[0], np.cumsum(seg)])
    total = s[-1]

    def at(pos):
        return np.column_stack([np.interp(pos, s, pick[:, c]) for c in (0, 1)])

    marks = [0.0]
    while True:
        step = size.at(at(marks[-1])[0])
        if marks[-1] + step >= total - 0.4 * step:
            break
        marks.append(marks[-1] + step)
    marks = np.asarray(marks[1:])
    return at(marks * total / (marks[-1] + size.at(p_end)))


def _pocket_seeds(pool, walls, wall_sz, w, upper):
    """Structured helper seeds in the wedge pockets just outside the strip
    walls, beside the given wall halves (right, then left) and offset away
    from the seam; without them the coarse far field fans wall nodes onto
    the first seam node and the min-angle gate fails."""
    seeds = []
    for sgn, wall in zip((1, -1), walls):
        s = wall_sz[sgn]
        ys = pool.pts[wall][:, 1]
        for j in (1, 2, 3):
            yj = ys + ((0.5 if upper else -0.5) * s if j % 2 else 0.0)
            seeds.append(np.column_stack([np.full(len(yj), sgn * (w + j * s)),
                                          yj]))
    return np.vstack(seeds)


def mesh_content(geom, target_h, neck_layers, seed):
    """What a mesh of geom depends on: the geometry at its eps without its
    boundary data and name, and the settings (a FarField's key at eps = 0).
    neck_layers enters as the fewest rows a strip column gets, since
    _column_rows rounds every column up to an even count of at least 2:
    layers 1 and 2 build the same mesh, and so do 3 and 4."""
    layers = int(neck_layers)
    return (replace(geom, phi=None, name=""), float(target_h),
            max(2, layers + layers % 2), int(seed))


class FarField:
    """The far field of one two-inclusion geometry at one target_h,
    neck_layers and seed, relaxed once and moved to each separation.

    The far field is split into an upper and a lower region by a seam from
    each strip wall's mid vertex straight out to the outer circle.  `relax`
    builds it at eps = 0: the far field never meets the neck, and its
    boundary moves little with eps.  The upper region is relaxed
    (_relax_region); the lower one is relaxed the same way unless the
    geometry is mirror-symmetric, in which case `place` reflects the upper
    one.  The wall row counts (`wall_rows`, right then left) and the arc
    points are the relaxed far field's, so every separation has the same
    far-field boundary.

    `place` moves it to a separation eps by a vertical displacement (every
    boundary move below is vertical): rigid by +-eps/2 on the inclusion
    arcs, affine on the strip walls (the wall vertex at fraction s of the
    gap moves by s eps), zero on the seams and the outer rim, and harmonic
    in between, over the edges of the triangulation the Laplacian passes
    used (mesh-velocity smoothing: Loehner & Yang, Commun. Numer. Methods
    Eng. 12, 1996).  The boundary moves are linear in eps, so the harmonic
    extension is solved once, for eps = 1, and scaled.  Each region is then
    triangulated afresh, so every mesh is a Delaunay triangulation of its
    points region by region.  A move that inverts a triangle of that
    triangulation raises MeshError, and so does a bad target_h
    (check_target_h).
    """

    def __init__(self, geom, target_h, neck_layers=NECK_LAYERS, seed=0):
        check_target_h(target_h)
        self.key = mesh_content(geom.with_eps(0.0), target_h, neck_layers,
                                seed)
        g = self.key[0]
        self.w = 0.9 * g.gap.chart
        self.wall_rows = tuple(int(k) for k in _column_rows(
            g.gap.diff(np.array([self.w, -self.w])), target_h, neck_layers))
        self.symmetric = g.is_mirror_symmetric()
        self.regions = None

    def relax(self):
        """Relax the far field unless that is done; returns the number of
        qhull calls made (0 when it was relaxed before)."""
        if self.regions is not None:
            return 0
        g, target_h, _, seed = self.key
        w, (cx, cy), r_out = self.w, g.outer.center, g.outer.radius
        pts, s, col = _columns(g, np.array([w, -w]), np.array(self.wall_rows))
        pool = _VertexPool(pts)
        walls = (np.flatnonzero(col == 0), np.flatnonzero(col == 1))
        wall_sz = {sgn: float(np.diff(pts[wall, 1]).mean())
                   for sgn, wall in zip((1, -1), walls)}
        anchors = []
        for sgn in (1, -1):
            x = sgn * w
            anchors.append(((x, float(g.upper_wall(x))), wall_sz[sgn]))
            anchors.append(((x, float(g.lower_wall(x))), wall_sz[sgn]))
        size = _SizeField(target_h, _FAR_START * g.gap.chart, anchors)
        rng = np.random.default_rng(seed)

        def seam(sgn, wall):
            """Horizontal seam from the wall's mid vertex to the outer
            circle, spaced by the size field along it: its points between
            the two, and its end on the circle."""
            x0, y = pool.pts[wall[len(wall) // 2]]
            x1 = cx + sgn * math.sqrt(r_out ** 2 - (y - cy) ** 2)
            sign = np.sign(x1 - x0)
            pos = _grade_spacing(abs(x1 - x0), wall_sz[sgn], size.at((x1, y)),
                                 lambda d: size.at((x0 + sign * d, y)))
            xs = x0 + sign * pos[1:-1]
            return pool.add(np.column_stack([xs, np.full(len(xs), y)])), (x1, y)

        (seam_r, end_r), (seam_l, end_l) = (seam(sgn, wall)
                                            for sgn, wall in zip((1, -1), walls))
        t_r, t_l = g.outer.angle_of(end_r), g.outer.angle_of(end_l)

        def rim_points(upper):
            """The outer circle from the right seam end to the left one, over
            the top or under the bottom, ends exact, evenly spaced by the
            finer of the sizes at its ends."""
            a0, a1 = (_arc_ccw_angles(t_r, t_l) if upper
                      else _arc_ccw_angles(t_l, t_r)[::-1])
            n = max(8, int(abs(a1 - a0) * r_out
                           / min(size.at(end_r), size.at(end_l))))
            pts = g.outer.points_at(np.linspace(a0, a1, n + 1))
            pts[0], pts[-1] = end_r, end_l
            return pts

        def half(upper, rim):
            """Relax one region; returns (loop, free points, triangulation),
            its inclusion arc (left joint to right joint) and rim as vertex
            chains, and its qhull calls."""
            # wall halves from the mid vertex out to the joint
            rw, lw = (wall[len(wall) // 2:] if upper else wall[len(wall) // 2::-1]
                      for wall in walls)
            arc = pool.add(_inclusion_arc(g, size, w, upper=upper))[::-1]
            loop = np.concatenate([rw[:1], seam_r, rim, seam_l[::-1], lw, arc,
                                   rw[:0:-1]])
            seeds = _pocket_seeds(pool, (rw, lw), wall_sz, w, upper)
            free, tris, calls = _relax_region(pool, loop, size, rng,
                                              extra_seeds=seeds)
            return ((loop, free, tris),
                    np.concatenate([lw[-1:], arc, rw[-1:]]), rim, calls)

        rim_up = pool.add(rim_points(True))
        halves = [half(True, rim_up)]
        if not self.symmetric:
            # the lower rim shares the upper one's end vertices
            halves.append(half(False, np.concatenate([
                rim_up[:1], pool.add(rim_points(False)[1:-1]), rim_up[-1:]])))
        # the move per unit eps: s on the walls, +-1/2 on the arcs
        shift = np.zeros(pool.n)
        shift[:len(s)] = s
        for (_, arc, _, _), sign in zip(halves, (0.5, -0.5)):
            shift[arc[1:-1]] = sign
        for (_, free, tris), *_ in halves:
            shift = _harmonic(tris, free, shift)
        self.pts, self.shift = pool.pts, shift
        self.reach = float(np.max(np.abs(shift) / size(pool.pts)))
        self.regions = [region for region, *_ in halves]
        self.chains = [(arc, rim) for _, arc, rim, _ in halves]
        return sum(calls for *_, calls in halves)

    def place(self, geom, pool, strip):
        """Add the far field at geom.eps to the pool after the strip, whose
        wall vertices it shares.  Returns the far triangles, boundary edges
        and tags, and the largest move over the local size."""
        pts = self.pts.copy()
        pts[:, 1] += geom.eps * self.shift
        walls = np.concatenate([strip.right_wall, strip.left_wall])
        pts[:len(walls)] = strip.vertices[walls]
        # pool index of each far-field point
        index = np.concatenate([walls, pool.add(pts[len(walls):])])
        tris = []
        for loop, free, lap in self.regions:
            if np.any(np.sign(_signed_areas(self.pts[lap]))
                      != np.sign(_signed_areas(pts[lap]))):
                raise MeshError(f"moving the far field to eps={geom.eps:g} "
                                "inverts a triangle")
            t = _triangulate(pts, np.concatenate([loop, free]), pts[loop])
            _check_loop_covered(t, loop)
            tris.append(index[t])
        halves = [(t, *(index[c] for c in chains))
                  for t, chains in zip(tris, self.chains)]
        if self.symmetric:
            # the strip holds its own reflection; the far field's upper
            # points off the seams are reflected
            far = pool.pts[len(strip.vertices):]
            pool.add(far[far[:, 1] != 0.0] * (1.0, -1.0))
            mirror = _mirror_map(pool.pts)
            if mirror is None:
                raise MeshError("the neck strip is not its own mirror image")
            halves.append([mirror[a] for a in halves[0]])
        (up_t, up_arc, up_rim), (lo_t, lo_arc, lo_rim) = halves
        chains = [_chain(c) for c in (up_arc, lo_arc, up_rim, lo_rim)]
        b_tags = np.repeat([INC1, INC2, OUTER, OUTER], [len(c) for c in chains])
        return (np.vstack([up_t, lo_t]), np.vstack(chains), b_tags,
                geom.eps * self.reach)


def _generate_annulus(geom, target_h):
    r1 = geom.inclusion1.radius
    r2 = geom.outer.radius
    nr = max(3, int(math.ceil((r2 - r1) / target_h)))
    nt = max(12, int(math.ceil(math.pi * (r1 + r2) / target_h)))
    nt += nt % 2
    radii = np.linspace(r1, r2, nr + 1)
    theta_half = np.linspace(0.0, math.pi, nt // 2 + 1)
    ang = np.concatenate([theta_half, -theta_half[1:-1][::-1]])
    # ring i holds vertices i*nt .. i*nt + nt - 1; y = 0 exactly on the axis
    y = np.outer(radii, np.sin(ang))
    y[:, [0, nt // 2]] = 0.0
    pts = np.column_stack([np.outer(radii, np.cos(ang)).ravel(), y.ravel()])
    # quad (i, j) spans angles j, j + 1 of rings i, i + 1
    i, j = np.divmod(np.arange(nr * nt), nt)
    a0, a1 = i * nt + j, i * nt + (j + 1) % nt
    tris = _split_quad_rows(a0, a1, a0 + nt, a1 + nt, pts)
    ring = np.arange(nt)
    b_edges = _chain(np.column_stack([ring, nr * nt + ring]), closed=True)
    return TriMesh(pts, tris, b_edges, np.tile([INC1, OUTER], nt),
                   geometry=geom, neck_layers=0)


def generate_neck_strip(geom, target_h, neck_layers=NECK_LAYERS):
    """Mesh only the neck strip over the gap chart, side walls tagged OUTER.

    This is the fixture for the zero-boundary auxiliary problem: homogeneous
    data on the two graph boundaries, driving data on the side walls.
    """
    if geom.eps <= 0:
        raise MeshError("strip meshes require eps > 0")
    strip = _StripMesh(geom, target_h, neck_layers, geom.gap.chart)
    edges, tags = strip.boundary(walls_tag=OUTER)
    return TriMesh(strip.vertices, strip.triangles, edges, tags, geometry=geom,
                   neck_layers=strip.neck_layers)


# ---------------------------------------------------------------------------
# binary mesh format
# ---------------------------------------------------------------------------

# the arrays of a mesh file: dtype kind and shape (None: any length)
_MESH_ARRAYS = {"vertices": ("f", (None, 2)), "triangles": ("i", (None, 3)),
                "boundary_edges": ("i", (None, 2)),
                "boundary_tags": ("i", (None,)), "neck_layers": ("i", ())}


def save_mesh(mesh, path):
    """One uncompressed .npz: `vertices` float64 (nv, 2), `triangles` int64
    (nt, 3), `boundary_edges` int64 (nbe, 2), `boundary_tags` int64 (nbe,)
    and the int64 scalar `neck_layers`.  Written through an open file, so
    the file gets exactly the given name (np.savez appends .npz to a str)."""
    with open(path, "wb") as fh:
        np.savez(fh, vertices=mesh.vertices, triangles=mesh.triangles,
                 boundary_edges=mesh.boundary_edges,
                 boundary_tags=mesh.boundary_tags,
                 neck_layers=np.int64(mesh.grading_report.neck_layers))


def load_mesh(path, geometry=None):
    """Read a mesh written by save_mesh.  A file that does not hold one
    (unreadable, truncated, with a missing, extra, object or misshapen
    array, an index out of range, a boundary tag other than OUTER, INC1,
    INC2 or a negative neck_layers) raises MeshError naming the path.
    Nothing is ever unpickled."""
    try:
        # np.load leaves a path it opened open when it is not a zip file
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if sorted(npz.files) != sorted(_MESH_ARRAYS):
                raise ValueError(f"holds arrays {sorted(npz.files)}, not "
                                 f"{sorted(_MESH_ARRAYS)}")
            a = {name: npz[name] for name in _MESH_ARRAYS}
        for name, (kind, shape) in _MESH_ARRAYS.items():
            x = a[name]
            if x.dtype.kind != kind or len(x.shape) != len(shape) or any(
                    n not in (None, m) for n, m in zip(shape, x.shape)):
                raise ValueError(f"{name} is {x.dtype} {x.shape}")
        if len(a["boundary_tags"]) != len(a["boundary_edges"]):
            raise ValueError("one boundary tag per boundary edge expected")
        nv, neck_layers = len(a["vertices"]), int(a["neck_layers"])
        for name in ("triangles", "boundary_edges"):
            idx = a[name]
            if idx.size and (idx.min() < 0 or idx.max() >= nv):
                raise ValueError(f"{name}: vertex index outside [0, {nv})")
        if not np.isin(a["boundary_tags"], (OUTER, INC1, INC2)).all():
            raise ValueError("boundary tag other than OUTER, INC1, INC2")
        if neck_layers < 0:
            raise ValueError(f"neck_layers {neck_layers} is negative")
        return TriMesh(a["vertices"], a["triangles"], a["boundary_edges"],
                       a["boundary_tags"], geometry=geometry,
                       neck_layers=neck_layers)
    except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError,
            TypeError, MeshError) as exc:
        raise MeshError(f"unreadable mesh file {path}: {exc}") from exc


def check_mirror(mesh):
    """Raise MeshError when the mesh of a two-inclusion geometry that is
    mirror-symmetric is not its own mirror image (TriMesh.mirror is None)."""
    g = mesh.geometry
    if (g is not None and g.kind != "annulus" and g.is_mirror_symmetric()
            and mesh.mirror is None):
        raise MeshError("the mesh of a mirror-symmetric geometry has no mirror")


def check_mesh(mesh, min_angle=MIN_ANGLE_DEG):
    """Raise MeshError when a mesh invariant fails; returns the report."""
    if not np.all(mesh.areas > 0):
        raise MeshError("non-positive triangle area")
    if mesh.grading_report.min_angle_deg < min_angle:
        raise MeshError(f"min angle {mesh.grading_report.min_angle_deg:.2f} below "
                        f"{min_angle}")
    if not mesh.boundary_edges_conform():
        raise MeshError("boundary edges are not the edges of exactly one "
                        "triangle (a hole or an overlap)")
    if not mesh.boundary_loops_ok():
        raise MeshError("boundary edges of some tag do not form a single loop")
    return mesh.grading_report
