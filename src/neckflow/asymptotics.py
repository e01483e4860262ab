"""Closed-form asymptotic layer: the blow-up scale factor, the Gamma-based
neck constant, the quadrature oracle that validates it, expansion
predictions, and the extrapolation fits used by the sweep harness.

Everything here is a pure function of scalars and small matrices; no PDE
state is touched.  The exponent branches split at p = (n+1)/2:

  SUPER     p > (n+1)/2   scale eps^((2p-n-1)/(2(p-1))), nonzero limiting flux
  CRITICAL  p = (n+1)/2   scale |ln eps|^(-1/(p-1))
  SUB       p < (n+1)/2   scale 1, limiting flux zero, potential gap persists
"""

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import BranchError, FitError, GeometryError, QuadratureError

_log = logging.getLogger("neckflow")

SUPER, CRITICAL, SUB = "SUPER", "CRITICAL", "SUB"


@dataclass(frozen=True)
class Regime:
    """Exponent/dimension pair with its branch, decided exactly."""

    p: float
    n: int = 2

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")

    @property
    def branch(self):
        cmp = 2 * Fraction(self.p) - (self.n + 1)
        if cmp > 0:
            return SUPER
        if cmp == 0:
            return CRITICAL
        return SUB

    @property
    def super_exponent(self):
        """(2p - n - 1) / (2(p - 1)), the separation power on the SUPER branch."""
        return (2 * self.p - self.n - 1) / (2 * (self.p - 1))


def blowup_scale(eps, regime: Regime):
    """Branch-exact scale factor of the potential gap (and of the neck
    gradient once divided by the local gap width)."""
    if not 0 < eps < 1:
        raise GeometryError("separation must lie in (0, 1) for the scale factor")
    b = regime.branch
    if b == SUPER:
        return eps ** regime.super_exponent
    if b == CRITICAL:
        return abs(math.log(eps)) ** (-1.0 / (regime.p - 1.0))
    return 1.0


# ---------------------------------------------------------------------------
# the neck constant and its quadrature oracle
# ---------------------------------------------------------------------------

def _gap_hessian_eigs(hessian_gap, n):
    H = np.atleast_2d(np.asarray(hessian_gap, dtype=float))
    if H.shape != (n - 1, n - 1):
        raise GeometryError(f"gap Hessian must be {(n-1, n-1)}, got {H.shape}")
    if not np.allclose(H, H.T):
        raise GeometryError("gap Hessian must be symmetric")
    lam = np.linalg.eigvalsh(H)
    if np.any(lam <= 0):
        raise GeometryError("gap Hessian must be positive definite")
    return lam


def gap_constant(hessian_gap, regime: Regime):
    """The constant K built from the gap Hessian determinant and Gamma
    factors; 1/K is the iterated small-separation limit of the neck integral.
    Defined on the SUPER and CRITICAL branches only."""
    n, p = regime.n, regime.p
    lam = _gap_hessian_eigs(hessian_gap, n)
    det_sqrt = math.sqrt(float(np.prod(lam)))
    b = regime.branch
    if b == SUPER:
        return det_sqrt * math.gamma(p - 1.0) / (
            (2 * math.pi) ** ((n - 1) / 2.0) * math.gamma(p - (n + 1) / 2.0))
    if b == CRITICAL:
        return det_sqrt * math.gamma((n - 1) / 2.0) / (2 * math.pi) ** ((n - 1) / 2.0)
    raise BranchError("the neck constant is undefined on the SUB branch")


# Relative accuracy asked of the neck-integral quadrature.
NECK_INTEGRAL_REL_TOL = 1e-6


def neck_integral(regime: Regime, hessian_gap, radius, eps):
    """Adaptive quadrature of

        int_{|y'| < radius} ( scale(eps) / (eps + y'^T H y' / 2) )^(p-1) dy'

    reduced to a radial integral times an angular average after diagonalizing
    H.  This is the independent oracle whose iterated limit (eps then radius
    to zero) equals 1 / gap_constant."""
    from scipy.integrate import quad

    if regime.branch == SUB:
        raise BranchError("the neck integral oracle applies to SUPER/CRITICAL")
    if radius <= 0 or eps <= 0:
        raise GeometryError("radius and eps must be positive")
    n, p = regime.n, regime.p
    lam = _gap_hessian_eigs(hessian_gap, n)
    theta_pow = blowup_scale(eps, regime) ** (p - 1.0)
    sq = math.sqrt(eps)

    def radial(upper):
        def f(s):
            return s ** (n - 2) * (eps + s * s) ** (1.0 - p)

        pieces = []
        if upper > sq:
            pieces = [(0.0, sq), (sq, upper)]
        else:
            pieces = [(0.0, upper)]
        total = 0.0
        for a, b in pieces:
            val, err = quad(f, a, b, epsrel=NECK_INTEGRAL_REL_TOL * 1e-2,
                            epsabs=0.0, limit=200)
            if not math.isfinite(val):
                raise QuadratureError("radial quadrature failed")
            total += val
        return total

    front = 2.0 ** ((n - 1) / 2.0) / math.sqrt(float(np.prod(lam)))
    if n == 2:
        # zero-dimensional sphere: two directions, both with phi = sqrt(2/lam)
        phi = math.sqrt(2.0 / lam[0])
        return theta_pow * front * 2.0 * radial(radius / phi)
    if n == 3:
        def f1(t1):
            phi = math.sqrt(2.0 / lam[0] * math.cos(t1) ** 2
                            + 2.0 / lam[1] * math.sin(t1) ** 2)
            return radial(radius / phi)

        val, err = quad(f1, 0.0, 2 * math.pi,
                        epsrel=NECK_INTEGRAL_REL_TOL * 1e-1, limit=100)
        return theta_pow * front * val
    if n == 4:
        def inner(t1):
            def f2(t2):
                c1, s1 = math.cos(t1), math.sin(t1)
                phi = math.sqrt(2.0 / lam[0] * c1 * c1
                                + 2.0 / lam[1] * (s1 * math.cos(t2)) ** 2
                                + 2.0 / lam[2] * (s1 * math.sin(t2)) ** 2)
                return radial(radius / phi)

            val2, _ = quad(f2, 0.0, 2 * math.pi,
                           epsrel=NECK_INTEGRAL_REL_TOL, limit=60)
            return math.sin(t1) * val2

        val, err = quad(inner, 0.0, math.pi, epsrel=NECK_INTEGRAL_REL_TOL,
                        limit=60)
        return theta_pow * front * val
    raise QuadratureError(f"neck integral implemented for n <= 4, got n={n}")


def _aitken(seq, floor=1e-12):
    """Aitken delta-squared acceleration with a near-constant guard."""
    x = list(map(float, seq))
    if len(x) < 3:
        return x[-1]
    d1 = x[-2] - x[-3]
    d2 = x[-1] - x[-2]
    denom = d2 - d1
    scale = max(abs(x[-1]), 1e-300)
    if abs(denom) <= floor * scale or abs(d2) <= floor * scale:
        return x[-1]
    return x[-1] - d2 * d2 / denom


def neck_integral_limit(regime: Regime, hessian_gap):
    """Iterated limit of the neck integral over a fixed schedule: for each
    window radius 0.2, 0.1, 0.05, accelerate over eps = 1e-4, 1e-6, 1e-8
    (the inner limit), then accelerate over radius.  The result
    approximates 1 / gap_constant.

    On the CRITICAL branch the inner convergence is O(1/|ln eps|), so the
    inner limit is taken by a linear fit in 1/|ln eps| instead of Aitken."""
    eps_schedule = (1e-4, 1e-6, 1e-8)
    inner_limits = []
    for r in (0.2, 0.1, 0.05):
        vals = [neck_integral(regime, hessian_gap, r, e) for e in eps_schedule]
        if regime.branch == CRITICAL:
            x = np.array([1.0 / abs(math.log(e)) for e in eps_schedule])
            A = np.column_stack([np.ones_like(x), x])
            coef, *_ = np.linalg.lstsq(A, np.asarray(vals), rcond=None)
            inner_limits.append(float(coef[0]))
        else:
            inner_limits.append(_aitken(vals))
    return _aitken(inner_limits)


# ---------------------------------------------------------------------------
# expansion predictions
# ---------------------------------------------------------------------------

def _sgn(x):
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading-order prediction of the vertical neck gradient.

    predicted_dn(delta) returns the predicted vertical derivative at a point
    with local gap width delta; the transverse component is zero at leading
    order.  The error envelope decays like gap^(beta/2) with an unspecified
    beta in (0,1), so no rate is attached here.
    """

    branch: str
    eps: float
    scale_factor: float            # blow-up scale at this eps (1 on SUB)
    neck_constant: float           # K (None on SUB)
    leading_coeff: float           # sgn(F)(K|F|)^(1/(p-1)), or the potential gap
    zero_leading: bool = False

    def predicted_dn(self, delta):
        if delta <= 0:
            raise GeometryError("gap width must be positive")
        return self.scale_factor * self.leading_coeff / delta


def predict_expansion(F_or_gap, regime: Regime, eps, hessian_gap=None):
    """Build the leading-order gradient prediction.

    SUPER/CRITICAL take the limiting flux; SUB takes the potential gap
    (U1 - U2).  A zero flux yields an identically zero leading order, which
    is valid and flagged."""
    b = regime.branch
    if b in (SUPER, CRITICAL):
        if hessian_gap is None:
            raise GeometryError("flux branches need the gap Hessian")
        K = gap_constant(hessian_gap, regime)
        F = float(F_or_gap)
        lead = _sgn(F) * (K * abs(F)) ** (1.0 / (regime.p - 1.0))
        return AsymptoticPrediction(branch=b, eps=float(eps),
                                    scale_factor=blowup_scale(eps, regime),
                                    neck_constant=K, leading_coeff=lead,
                                    zero_leading=(F == 0.0))
    gap = float(F_or_gap)
    return AsymptoticPrediction(branch=b, eps=float(eps), scale_factor=1.0,
                                neck_constant=None, leading_coeff=gap,
                                zero_leading=(gap == 0.0))


# ---------------------------------------------------------------------------
# extrapolation fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UGapFit:
    limit: float
    flux_implied: float
    ratios: tuple
    extrapolated: bool
    warning: str = ""


def fit_ugap_limit(rows, regime: Regime, hessian_gap):
    """Extrapolate (U1 - U2) / scale(eps) over decreasing eps and invert the
    limit into an implied flux.  On the SUB branch (scale 1, zero limiting
    flux) it is the limit of the potential gap and flux_implied is NaN.

    rows: sequence of (eps, potential gap) with strictly decreasing eps,
    at least three entries.  A non-monotone ratio sequence produces no
    extrapolation (the last ratio is reported); the reason is in the
    result's `warning` and is logged once to the "neckflow" logger."""
    rows = list(rows)
    if len(rows) < 3:
        raise FitError("need at least three (eps, gap) rows")
    eps = np.array([r[0] for r in rows], dtype=float)
    gaps = np.array([r[1] for r in rows], dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise FitError("eps values must be strictly decreasing")
    ratios = np.array([g / blowup_scale(e, regime) for e, g in zip(eps, gaps)])

    d = np.diff(ratios)
    span = max(float(np.abs(ratios).max()), 1e-300)
    warning = ""
    if np.all(np.abs(d) <= 1e-12 * span):
        limit, extrapolated = float(ratios[-1]), True
    elif np.all(d >= -1e-12 * span) or np.all(d <= 1e-12 * span):
        limit, extrapolated = float(_aitken(ratios)), True
    else:
        warning = "non-monotone ratio sequence; reporting the last ratio"
        _log.warning("fit_ugap_limit: %s", warning)
        limit, extrapolated = float(ratios[-1]), False

    flux = math.nan
    if regime.branch != SUB:
        K = gap_constant(hessian_gap, regime)
        flux = _sgn(limit) * abs(limit) ** (regime.p - 1.0) / K
    return UGapFit(limit=limit, flux_implied=float(flux),
                   ratios=tuple(float(x) for x in ratios),
                   extrapolated=extrapolated, warning=warning)


_FIT_GRID = 401          # grid points of the nonlinear parameter
_FIT_GOLDEN_STEPS = 60   # golden-section steps inside the grid bracket


def _separable_fit(x, y, column, lo, hi, log):
    """Least-squares fit of y = a + c column(x, t) with t in [lo, hi].

    For fixed t the pair (a, c) is a linear regression with a closed-form
    residual, so only t is searched (variable projection, Golub & Pereyra
    1973): a grid of _FIT_GRID values (log-spaced when `log`), golden
    section inside the bracket around the grid minimum, and one lstsq for
    (a, c).  column(x, t) must broadcast an (m, 1) array t against x.
    Returns (a, c, t, at_end), at_end telling that the grid minimum is an
    end of [lo, hi]: the residual still falls beyond the range, so t is no
    fit."""
    warp, unwarp = (np.log, np.exp) if log else (np.asarray, np.asarray)
    yc = y - y.mean()

    def rss(s):
        # rows scaled to unit max: the same residual, and no underflow
        z = column(x, unwarp(np.reshape(s, (-1, 1))))
        z = z / np.maximum(np.abs(z).max(axis=1, keepdims=True), 1e-300)
        z -= z.mean(axis=1, keepdims=True)
        szz = (z * z).sum(axis=1)
        c = np.divide(z @ yc, szz, out=np.zeros_like(szz), where=szz > 0)
        return ((yc - c[:, None] * z) ** 2).sum(axis=1)

    grid = np.linspace(warp(lo), warp(hi), _FIT_GRID)
    k = int(np.argmin(rss(grid)))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, _FIT_GRID - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(_FIT_GOLDEN_STEPS):
        u, v = b - g * (b - a), a + g * (b - a)
        fu, fv = rss([u, v])
        a, b = (a, v) if fu < fv else (u, b)
    t = float(unwarp((a + b) / 2))
    z = column(x, t)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(z), z]), y,
                               rcond=None)
    return float(coef[0]), float(coef[1]), t, k in (0, _FIT_GRID - 1)


@dataclass(frozen=True)
class FluxExtrapolation:
    value: float
    amplitude: float
    rate: float
    fallback: bool = False
    # (min, max) of value refitted with each radius left out in turn, over
    # the refits that do not fall back; None with fewer than LOO_MIN_ROWS
    # rows or when every refit falls back
    loo_range: tuple = None


# the fewest rows whose leave-one-radius-out refits are fitted
LOO_MIN_ROWS = 4


def extrapolate_flux(rows):
    """Fit F(r) = F_inf + A exp(-B/r), B in [1e-6, 1e3], over window radii
    and return F_inf, with its leave-one-radius-out range (loo_range).

    rows: sequence of (r, windowed flux); radii need not be ordered.  With
    fewer than three rows, when the best B is an end of its range, or when
    the best fit misses a row by more than 0.2 of the largest |flux|, the
    smallest-radius value is returned with the fallback flag."""
    rows = sorted(rows, key=lambda t: -t[0])
    fit = _fit_flux(rows)
    if len(rows) < LOO_MIN_ROWS:
        return fit
    refits = [_fit_flux(rows[:i] + rows[i + 1:]) for i in range(len(rows))]
    values = [f.value for f in refits if not f.fallback]
    return replace(fit, loo_range=(min(values), max(values)) if values
                   else None)


def _fit_flux(rows):
    """extrapolate_flux without the leave-one-out range, on rows sorted by
    decreasing radius."""
    r = np.array([t[0] for t in rows], dtype=float)
    f = np.array([t[1] for t in rows], dtype=float)
    if len(r) < 3 or np.any(r <= 0):
        return FluxExtrapolation(float(f[-1]), 0.0, 0.0, fallback=True)
    f_inf, a, b, at_end = _separable_fit(
        r, f, lambda rr, bb: np.exp(-bb / rr), 1e-6, 1e3, log=True)
    resid = f - f_inf - a * np.exp(-b / r)
    scale = max(float(np.abs(f).max()), 1e-300)
    # at an end of B's range, F_inf and A trade off without bound
    if at_end or not np.abs(resid).max() <= 0.2 * scale:    # NaN too
        return FluxExtrapolation(float(f[-1]), 0.0, 0.0, fallback=True)
    return FluxExtrapolation(f_inf, a, b)


# A separation eps qualifies for window radius r when eps <= r^2 /
# WINDOW_QUALIFY_RATIO; a radius is fitted from WINDOW_MIN_PTS of them.
WINDOW_QUALIFY_RATIO = 25.0
WINDOW_MIN_PTS = 3


def extrapolated_window_rows(tables, regime: Regime):
    """Turn a window-flux table {eps: {r: flux}} into (r, flux) rows suitable
    for `extrapolate_flux`.

    A separation value qualifies for radius r only when eps <= r^2 /
    WINDOW_QUALIFY_RATIO (the window flux is meaningful only for eps well
    below the window scale).  On the flux-carrying branches each radius with
    at least WINDOW_MIN_PTS qualifying separations is extrapolated to
    eps -> 0 by the fit
    s0 + c eps^q, q in [0.1, 1.5]; radii with fewer points are dropped.
    On the SUB branch the raw values at the smallest qualifying separation
    are used: the limit being demonstrated is zero and the slow gap
    convergence makes power-law extrapolation ill-conditioned there."""
    eps_sorted = sorted(tables.keys(), reverse=True)
    radii = sorted({r for t in tables.values() for r in t.keys()}, reverse=True)
    rows = []
    for r in radii:
        qual = [e for e in eps_sorted if e <= r * r / WINDOW_QUALIFY_RATIO]
        if not qual:
            continue
        vals = np.array([tables[e][r] for e in qual], dtype=float)
        if regime.branch == SUB:
            rows.append((r, float(vals[-1])))
        elif len(qual) >= WINDOW_MIN_PTS:
            s0, *_ = _separable_fit(np.array(qual), vals, np.power, 0.1, 1.5,
                                    log=False)
            rows.append((r, s0))
    return rows


REGION_GAMMA = 1.0    # SUPER window |ln eps|^(-gamma)
REGION_KAPPA1 = 0.1   # CRITICAL window kappa1 / ln|ln eps|
REGION_KAPPA2 = 0.1   # SUB window, constant


def lower_bound_region(regime: Regime, eps):
    """Transverse half-width of the window where the leading-order term
    dominates: shrinking logarithmically (SUPER), doubly logarithmically
    (CRITICAL), or constant (SUB)."""
    b = regime.branch
    if b == SUB:
        return REGION_KAPPA2
    if not 0 < eps < 1:
        raise GeometryError("eps must lie in (0, 1)")
    ln_eps = math.log(eps)
    if b == SUPER:
        return abs(ln_eps) ** (-REGION_GAMMA)
    if abs(ln_eps) <= math.e:
        raise GeometryError("critical-branch window needs eps < exp(-e)")
    return REGION_KAPPA1 / math.log(abs(ln_eps))
