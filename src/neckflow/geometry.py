"""Domain geometry: outer boundary, two nearly touching inclusions, and the
local gap description between them.

The computational domain is an outer convex curve minus one or two convex
inclusions.  In the two-inclusion case the inclusions touch at the origin
when the separation is zero, and near the origin their boundaries are graphs
x_n = +/- eps/2 + h_i(x') over the transverse coordinate x'.  Everything a
mesh generator or post-processor needs (gap widths, curve offsets, boundary
data) lives here.  All objects are immutable after construction and
picklable: the mesh cache keys a mesh by its pickled geometry
(harness._mesh_key).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError

# boundary component tags used throughout the package
OUTER, INC1, INC2 = 1, 2, 3


# ---------------------------------------------------------------------------
# gap profiles (the functions h_1, h_2 near the neck)
# ---------------------------------------------------------------------------

class DiscProfile:
    """Height of a circle of radius R above its lowest point: R - sqrt(R^2 - x^2)."""

    def __init__(self, radius):
        self.radius = float(radius)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = self.radius
        return r - np.sqrt(r * r - x * x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        r = self.radius
        return x / np.sqrt(r * r - x * x)

    def curvature0(self):
        return 1.0 / self.radius


class ParabolaProfile:
    """h(x) = a x^2 with a > 0."""

    def __init__(self, a):
        if a <= 0:
            raise GeometryError("parabola coefficient must be positive")
        self.a = float(a)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * x * x

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.a * x

    def curvature0(self):
        return 2.0 * self.a


class TableProfile:
    """Profile interpolated from a sampled (x, h) table with a cubic spline.

    The table must bracket the chart; h is shifted so h(0) = 0.
    """

    def __init__(self, x, h):
        from scipy.interpolate import CubicSpline

        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        if x.ndim != 1 or x.shape != h.shape or len(x) < 4:
            raise GeometryError("profile table needs >= 4 rows of x, h")
        order = np.argsort(x)
        x, h = x[order], h[order]
        if np.any(np.diff(x) <= 0):
            raise GeometryError("profile table has repeated x values")
        self._spline = CubicSpline(x, h)
        self._spline = CubicSpline(x, h - self._spline(0.0))
        self.x_range = (x[0], x[-1])

    @classmethod
    def from_file(cls, path):
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise GeometryError(f"profile table {path!r} must have two columns")
        return cls(data[:, 0], data[:, 1])

    def __call__(self, x):
        return self._spline(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self._spline(np.asarray(x, dtype=float), 1)

    def curvature0(self):
        return float(self._spline(0.0, 2))


class NegatedProfile:
    """h(x) = -base(x); keeps the mirror case exactly antisymmetric."""

    def __init__(self, base):
        self.base = base

    def __call__(self, x):
        return -self.base(x)

    def deriv(self, x):
        return -self.base.deriv(x)

    def curvature0(self):
        return -self.base.curvature0()


@dataclass(frozen=True)
class GapProfile:
    """Local graph description of the two inclusion boundaries near the neck.

    h1 bounds the upper inclusion from below, h2 the lower one from above
    (both before the +/- eps/2 translation).  c1 is the relative-convexity
    constant (c1 |x'|^2 <= h1 - h2) and c2 bounds the C^2 norms; both are
    verified by sampling in `validate`.  A profile provides `__call__` (its
    height), `deriv` (its slope) and `curvature0` (its second derivative at
    0), as DiscProfile, ParabolaProfile, TableProfile and NegatedProfile do.
    """

    h1: object
    h2: object
    c1: float
    c2: float
    chart: float = 1.0

    def diff(self, xprime):
        """h1(x') - h2(x'), the zero-separation gap."""
        return self.h1(xprime) - self.h2(xprime)

    def gap_hessian0(self):
        """(h1 - h2)''(0), the 1x1 gap Hessian at the touching point."""
        return self.h1.curvature0() - self.h2.curvature0()

    def validate(self):
        xc, n_samples, tol = self.chart, 200, 1e-8
        d = 1e-5 * xc
        for h, name in ((self.h1, "h1"), (self.h2, "h2")):
            if abs(float(h(0.0))) > tol:
                raise GeometryError(f"{name}(0) != 0")
            slope = (float(h(d)) - float(h(-d))) / (2 * d)
            if abs(slope) > 1e-4:
                raise GeometryError(f"{name} has nonzero slope at 0")
            if not callable(getattr(h, "curvature0", None)):
                raise GeometryError(f"{name} has no curvature0 method")
        x = np.linspace(-xc, xc, n_samples)
        x = x[np.abs(x) > 1e-12]
        gap = self.diff(x)
        if np.any(gap < self.c1 * x * x - tol):
            raise GeometryError("relative-convexity bound c1 |x'|^2 <= h1 - h2 fails")
        step = xc / n_samples
        xi = np.linspace(-xc + step, xc - step, n_samples)
        for h in (self.h1, self.h2):
            second = (np.asarray(h(xi + step)) - 2 * np.asarray(h(xi))
                      + np.asarray(h(xi - step))) / step**2
            if np.any(np.abs(second) > self.c2 * (1 + 1e-6) + tol):
                raise GeometryError("sampled curvature exceeds the C^2 bound c2")
        return True


# ---------------------------------------------------------------------------
# closed convex curves
# ---------------------------------------------------------------------------

class Circle:
    def __init__(self, center, radius):
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)

    def translated(self, dy):
        return Circle((self.center[0], self.center[1] + dy), self.radius)

    def arc_points(self, a0, a1, spacing_fn):
        """Points along the CCW arc from angle a0 to a1 (a1 > a0), spacing
        graded by spacing_fn; includes both endpoints."""
        cx, cy = self.center
        angles = [a0]
        t = a0
        while True:
            pt = (cx + self.radius * math.cos(t), cy + self.radius * math.sin(t))
            dt = max(1e-4, float(spacing_fn(pt)) / self.radius)
            if t + dt >= a1 - 0.3 * dt:
                break
            t += dt
            angles.append(t)
        angles.append(a1)
        a = np.asarray(angles)
        return np.column_stack([cx + self.radius * np.cos(a),
                                cy + self.radius * np.sin(a)])

    def signed_distance(self, pts):
        """< 0 inside the circle."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.linalg.norm(pts - np.asarray(self.center), axis=1) - self.radius

    def angle_of(self, pt):
        return math.atan2(pt[1] - self.center[1], pt[0] - self.center[0])


class CappedGraphCurve:
    """Convex inclusion bounded below by the graph y = y_off + h(x) on
    |x| <= xc and closed above by a tangent circular cap.

    Used for parabola and table profiles, where only the neck-side boundary
    is prescribed; the cap is an artifact of closing the curve and stays far
    from the neck.
    """

    def __init__(self, profile, xc, y_off=0.0):
        self.profile = profile
        self.xc = float(xc)
        self.y_off = float(y_off)
        hx = float(profile(xc))
        m = float(profile.deriv(xc))
        if m <= 1e-12:
            raise GeometryError("graph must have positive slope at the chart edge")
        yc = hx + xc / m   # tangency: (P - C) . (1, m) = 0
        self.cap_center = (0.0, y_off + yc)
        self.cap_radius = math.hypot(xc, yc - hx)
        self._theta_join = math.atan2(hx - yc, xc)  # angle of right joint, in (-pi/2, 0)

    def translated(self, dy):
        return CappedGraphCurve(self.profile, self.xc, self.y_off + dy)

    def graph_y(self, x):
        return self.y_off + self.profile(x)

    def boundary_polyline(self, spacing_fn):
        """Closed CCW polyline: graph left-to-right, then the cap arc from the
        right joint over the top back toward the left joint."""
        xs = [-self.xc]
        x = -self.xc
        while True:
            pt = (x, float(self.graph_y(x)))
            dx = max(1e-5, float(spacing_fn(pt)))
            if x + dx >= self.xc - 0.3 * dx:
                break
            x += dx
            xs.append(x)
        xs.append(self.xc)
        xs = np.asarray(xs)
        graph = np.column_stack([xs, self.graph_y(xs)])
        cap = Circle(self.cap_center, self.cap_radius)
        arc = cap.arc_points(self._theta_join, math.pi - self._theta_join, spacing_fn)
        # arc[0] is the right joint (= graph[-1]) and arc[-1] the left joint
        return np.vstack([graph, arc[1:-1]])


class MirroredCurve:
    """Reflection of a base curve across the x_n = 0 axis."""

    def __init__(self, base):
        self.base = base

    def translated(self, dy):
        return MirroredCurve(self.base.translated(-dy))

    @staticmethod
    def _flip(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        pts[:, 1] = -pts[:, 1]
        return pts


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

class LinearPotential:
    """phi(x) = x_n."""

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts[..., 1]


class ConstantPotential:
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], self.value)


class PolyPotential:
    """phi(x) = sum over terms (coef, i, j) of coef * x'^i * x_n^j; the
    exponents must be non-negative integers."""

    def __init__(self, terms):
        self.terms = []
        for c, i, j in terms:
            if not all(float(k).is_integer() and k >= 0 for k in (i, j)):
                raise GeometryError(f"polynomial exponents must be "
                                    f"non-negative integers, got ({i}, {j})")
            self.terms.append((float(c), int(i), int(j)))

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        out = np.zeros(pts.shape[:-1])
        for c, i, j in self.terms:
            out = out + c * _power(x, i) * _power(y, j)
        return out


def _power(a, k):
    """a**k by repeated multiplication, whose rounding is sign-symmetric:
    (-a)**k is (-1)**k * a**k bit for bit, so odd data stays odd (numpy's
    float ** does not promise that for k >= 3)."""
    out = np.ones_like(a)
    for _ in range(k):
        out = out * a
    return out


# ---------------------------------------------------------------------------
# geometry container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """Full problem geometry.

    `inclusion1`/`inclusion2` are the curves in touching position (before the
    +/- eps/2 translation).  `inclusion2 = None` selects single-inclusion
    (annulus-type) domains, which carry no gap profile.
    """

    outer: object
    inclusion1: object
    inclusion2: object
    eps: float
    gap: GapProfile
    phi: object
    scale: float = 1.0
    name: str = "geometry"

    @property
    def kind(self):
        return "two_inclusion" if self.inclusion2 is not None else "annulus"

    def with_eps(self, eps):
        return replace(self, eps=float(eps))

    @property
    def inclusion1_eps(self):
        return self.inclusion1.translated(+self.eps / 2.0)

    @property
    def inclusion2_eps(self):
        if self.inclusion2 is None:
            return None
        return self.inclusion2.translated(-self.eps / 2.0)

    def upper_wall(self, xprime):
        """x_n of the upper neck boundary: eps/2 + h1(x')."""
        return self.eps / 2.0 + self.gap.h1(xprime)

    def lower_wall(self, xprime):
        return -self.eps / 2.0 + self.gap.h2(xprime)

    def phi_range(self):
        """(min, max) of the boundary data at 720 points of the outer curve."""
        a = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        # outer curves are circles in every built-in construction
        c, r = self.outer.center, self.outer.radius
        pts = np.column_stack([c[0] + r * np.cos(a), c[1] + r * np.sin(a)])
        vals = self.phi(pts)
        return float(vals.min()), float(vals.max())

    def is_mirror_symmetric(self):
        """Domain symmetry under x_n -> -x_n (not of phi), to tol = 1e-12."""
        tol = 1e-12
        if self.kind == "annulus":
            return abs(self.outer.center[1]) < tol and abs(self.inclusion1.center[1]) < tol
        if abs(self.outer.center[1]) > tol:
            return False
        x = np.linspace(-0.9 * self.gap.chart, 0.9 * self.gap.chart, 50)
        return bool(np.max(np.abs(np.asarray(self.gap.h1(x)) + np.asarray(self.gap.h2(x)))) < tol)

    def validate(self, eps_values=None):
        """Check inclusion disjointness and gap/curve consistency."""
        if self.kind == "annulus":
            return True
        self.gap.validate()
        for eps in (eps_values if eps_values is not None else [self.eps]):
            if eps < 0:
                raise GeometryError("separation must be >= 0")
            if eps == 0:
                continue
            g = self.with_eps(eps)
            x = np.linspace(-0.95 * self.gap.chart, 0.95 * self.gap.chart, 101)
            if np.any(g.upper_wall(x) - g.lower_wall(x) <= 0):
                raise GeometryError(f"inclusions overlap at eps={eps}")
            # inclusions stay away from the outer boundary
            for curve in (g.inclusion1_eps, g.inclusion2_eps):
                pts = curve_polyline(curve, 64)
                if np.any(self.outer.signed_distance(pts) > -1e-9):
                    raise GeometryError("inclusion touches the outer boundary")
        # sampled agreement of the gap profile with the inclusion curves
        x = np.linspace(-0.5 * self.gap.chart, 0.5 * self.gap.chart, 41)
        up = np.column_stack([x, self.upper_wall(x)])
        lo = np.column_stack([x, self.lower_wall(x)])
        d1 = np.abs(curve_offset(self.inclusion1_eps, up))
        d2 = np.abs(curve_offset(self.inclusion2_eps, lo))
        if max(d1.max(), d2.max()) > 1e-9 * max(1.0, self.scale):
            raise GeometryError("gap profile inconsistent with the inclusion curves")
        return True


def curve_polyline(curve, n):
    """Closed counterclockwise polyline around a curve: n points on a circle,
    points about 1/n of the cap circumference apart on a capped graph, and a
    mirrored curve's base points flipped, in reverse order."""
    if isinstance(curve, Circle):
        a = np.linspace(0, 2 * math.pi, n, endpoint=False)
        return np.column_stack([curve.center[0] + curve.radius * np.cos(a),
                                curve.center[1] + curve.radius * np.sin(a)])
    if isinstance(curve, CappedGraphCurve):
        return curve.boundary_polyline(lambda p: 2 * math.pi * curve.cap_radius / n)
    if isinstance(curve, MirroredCurve):
        return MirroredCurve._flip(curve_polyline(curve.base, n))[::-1]
    raise GeometryError(f"unsupported curve type {type(curve)}")


def curve_offset(curve, pts):
    """Exact signed offset of the (n, 2) points pts from a curve, zero on it
    and negative inside: a circle's signed distance; on a capped graph the
    graph height minus y where |x'| <= xc below the joints, and the cap
    circle's signed distance elsewhere; a mirrored curve's base offset at
    the reflected points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(curve, Circle):
        return curve.signed_distance(pts)
    if isinstance(curve, CappedGraphCurve):
        x, y = pts[:, 0], pts[:, 1]
        graph = (np.abs(x) <= curve.xc) & (y <= curve.graph_y(curve.xc))
        cap = Circle(curve.cap_center, curve.cap_radius)
        return np.where(graph, curve.graph_y(x) - y, cap.signed_distance(pts))
    if isinstance(curve, MirroredCurve):
        return curve_offset(curve.base, MirroredCurve._flip(pts))
    raise GeometryError(f"unsupported curve type {type(curve)}")


# ---------------------------------------------------------------------------
# gap widths
# ---------------------------------------------------------------------------

def gap_width(geom, xprime):
    """Vertical neck width eps + h1(x') - h2(x') at the transverse
    coordinate xprime.  Raises outside the gap-profile chart."""
    if geom.gap is None:
        raise GeometryError("geometry has no gap profile")
    xp = float(xprime)
    if abs(xp) >= geom.gap.chart:
        raise GeometryError(f"|x'|={abs(xp)} outside the chart radius {geom.gap.chart}")
    return float(geom.eps + geom.gap.diff(xp))


def model_gap_width(geom, xprime):
    """The comparable model width eps + |x'|^2."""
    xp = float(xprime)
    if geom.gap is not None and abs(xp) >= geom.gap.chart:
        raise GeometryError(f"|x'|={abs(xp)} outside the chart radius {geom.gap.chart}")
    return float(geom.eps + xp * xp)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def build_symmetric_disc_example(scale=1.0, eps=0.0, phi=None):
    """Ball of radius 5*scale containing two radius 2*scale discs that touch
    at the origin when eps = 0; boundary data defaults to x_n.

    The geometry is symmetric under x_n -> -x_n and the default boundary
    data is odd, which pins U1 = -U2.
    """
    if scale <= 0:
        raise GeometryError("scale must be positive")
    if eps < 0:
        raise GeometryError("separation must be >= 0")
    r = 2.0 * scale
    chart = min(1.0, 0.9 * r)
    h1 = DiscProfile(r)
    gap = GapProfile(h1=h1, h2=NegatedProfile(h1), c1=1.0 / r,
                     c2=_c2_bound(h1, chart), chart=chart)
    geom = Geometry(
        outer=Circle((0.0, 0.0), 5.0 * scale),
        inclusion1=Circle((0.0, r), r),
        inclusion2=Circle((0.0, -r), r),
        eps=float(eps),
        gap=gap,
        phi=phi if phi is not None else LinearPotential(),
        scale=float(scale),
        name=f"disc_scale{scale:g}",
    )
    return geom


def build_parabola_example(a=0.25, eps=0.0, scale=1.0, phi=None):
    """Two parabola-nose inclusions h = +/- a x'^2 closed by tangent caps."""
    chart = 1.0
    h1 = ParabolaProfile(a)
    gap = GapProfile(h1=h1, h2=NegatedProfile(h1), c1=2 * a, c2=_c2_bound(h1, chart),
                     chart=chart)
    inc1 = CappedGraphCurve(h1, xc=0.999 * chart)
    geom = Geometry(
        outer=Circle((0.0, 0.0), 5.0 * scale),
        inclusion1=inc1,
        inclusion2=MirroredCurve(inc1),
        eps=float(eps),
        gap=gap,
        phi=phi if phi is not None else LinearPotential(),
        scale=float(scale),
        name=f"parabola_a{a:g}",
    )
    return geom


def build_table_example(table_path_or_profile, eps=0.0, scale=1.0, phi=None):
    """Inclusions built from a sampled symmetric profile table (x', h)."""
    if isinstance(table_path_or_profile, TableProfile):
        prof = table_path_or_profile
    else:
        prof = TableProfile.from_file(table_path_or_profile)
    chart = min(1.0, 0.98 * prof.x_range[1], 0.98 * abs(prof.x_range[0]))
    x = np.linspace(0.05 * chart, chart, 64)
    ratios = prof(x) / (x * x)
    c1_half = float(ratios.min())
    if c1_half <= 0:
        raise GeometryError("table profile is not relatively convex")
    gap = GapProfile(h1=prof, h2=NegatedProfile(prof), c1=2 * 0.99 * c1_half,
                     c2=_c2_bound(prof, chart), chart=chart)
    inc1 = CappedGraphCurve(prof, xc=0.999 * chart)
    return Geometry(
        outer=Circle((0.0, 0.0), 5.0 * scale),
        inclusion1=inc1,
        inclusion2=MirroredCurve(inc1),
        eps=float(eps),
        gap=gap,
        phi=phi if phi is not None else LinearPotential(),
        scale=float(scale),
        name="table",
    )


def build_annulus(r_inner=1.0, r_outer=2.0, phi=None):
    """Single circular inclusion in a concentric disc; used for manufactured
    radial solutions."""
    if not 0 < r_inner < r_outer:
        raise GeometryError("need 0 < r_inner < r_outer")
    return Geometry(
        outer=Circle((0.0, 0.0), r_outer),
        inclusion1=Circle((0.0, 0.0), r_inner),
        inclusion2=None,
        eps=0.0,
        gap=None,
        phi=phi if phi is not None else ConstantPotential(1.0),
        scale=1.0,
        name=f"annulus_{r_inner:g}_{r_outer:g}",
    )


def _c2_bound(profile, chart, n=400):
    x = np.linspace(-chart, chart, n)
    h = np.abs(np.asarray(profile(x)))
    hp = np.abs(np.asarray(profile.deriv(x)))
    step = chart / n
    xi = x[1:-1]
    hpp = np.abs((np.asarray(profile(xi + step)) - 2 * np.asarray(profile(xi))
                  + np.asarray(profile(xi - step))) / step**2)
    return 1.05 * float(max(h.max(), hp.max(), hpp.max()))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def parse_config(path):
    """Parse a `key = value` config file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise GeometryError(f"{path}:{ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def load_geometry_config(path):
    """Build a Geometry from a key-value config file.

    Recognized keys: shape = disc|parabola|table, scale, phi =
    linear_xn|custom_poly|const, phi_poly (triples coef:i:j; custom_poly),
    phi_value (const), table (path to two-column profile; table) and
    parabola_a (parabola).  The geometry is built at eps = 0: separations
    come from the sweep, not from the file.  A key that is unknown (eps
    included), or that the chosen shape and phi do not read, raises
    GeometryError.
    """
    import os

    cfg = parse_config(path)
    read = set()

    def get(key, default=None):
        read.add(key)
        return cfg.get(key, default)

    def value(key, default, cast=float):
        try:
            return cast(get(key, default))
        except (ValueError, GeometryError) as exc:
            raise GeometryError(f"{path}: bad {key} = "
                                f"{cfg.get(key, default)!r}: {exc}") from None

    shape = get("shape", "disc")
    phi_kind = get("phi", "linear_xn")
    if phi_kind == "linear_xn":
        phi = LinearPotential()
    elif phi_kind == "const":
        phi = ConstantPotential(value("phi_value", "1"))
    elif phi_kind == "custom_poly":
        # a chunk that is not coef:i:j fails to unpack in PolyPotential
        phi = value("phi_poly", "1:0:1", lambda text: PolyPotential(
            map(float, chunk.split(":"))
            for chunk in text.replace(",", " ").split()))
    else:
        raise GeometryError(f"unknown phi kind {phi_kind!r}")

    if shape not in ("disc", "parabola", "table"):
        raise GeometryError(f"unknown shape {shape!r}")
    scale = value("scale", "1")
    if shape == "disc":
        geom = build_symmetric_disc_example(scale=scale, phi=phi)
    elif shape == "parabola":
        geom = build_parabola_example(a=value("parabola_a", "0.25"),
                                      scale=scale, phi=phi)
    else:
        table = get("table")
        if table is None:
            raise GeometryError("shape=table requires a 'table' path")
        if not os.path.isabs(table):
            table = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 table)
        geom = build_table_example(table, scale=scale, phi=phi)
    for key in cfg:
        if key not in read:
            raise GeometryError(f"{path}: key {key!r} is unknown or not read "
                                f"with shape = {shape}, phi = {phi_kind}")
    return geom
