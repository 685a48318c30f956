"""Planar region figures for operator classes and their compositions.

Everything is normalized to ``||x - y|| = 1`` with ``x - y`` on the positive
horizontal axis: a descriptor ``(alpha, beta)`` confines the image difference
``Rx - Ry`` to the disk of radius ``beta`` centered at ``(alpha, 0)``.

The composition region sweeps the full first-factor disk (not only its
boundary: interior points matter when the second identity coefficient is
negative).  A pixel center ``p`` belongs to the region iff some ``q`` in the
first disk satisfies ``||p - a2*q|| <= b2*||q||``; for fixed ``p`` that set of
``q`` is a disk, a half-plane or a disk complement, so the test against the
first disk is closed-form and the raster is exact at pixel centers.

The raster evaluates that test once per distinct ``|y|`` row (it depends on
``y`` only through norms) and keeps only the maximal runs of marked pixels
of those rows, with the distinct row of each grid row; the SVG path is
formatted from the runs, and the full grid is built only when it is read.
The distinct rows are cut into ``_TILE`` x
``_TILE`` pixel tiles, and the margin the test signs is evaluated once at
each tile's centre.  Every pixel of a tile lies within the tile's
half-diagonal ``rad`` of its centre,
and across that disk the margin moves by at most the smaller of ``L*rad``,
with ``L`` its Lipschitz constant, and the second-order Taylor bound
``|grad f(centre)|*rad + H*rad**2/2``, with ``H`` a bound on its Hessian
there.  A tile whose centre margin clears that drift, plus twice the
screen's tolerance, takes the centre's sign at every pixel; only tiles near
the region's boundary go on to the screen, all of them in one call as a
stack of ``_TILE`` x ``_TILE`` blocks.  There each pixel is first
screened with ``sqrt(u*u + v*v)`` in place of ``hypot``.  A pixel whose
screened margin is no larger in magnitude than ``1e-12`` times its scale,
plus a floor for underflowing squares, goes to the exact closed-form test,
so every pixel gets the value that test gives.  The tile pass and the
screen form the margin with one helper, :func:`_margin`.  A signed tile is
uniform, so a run can start or end only between two tiles, at an end of a
row or inside a screened block, and :func:`_tile_runs` finds the runs from
the tile signs and the blocks alone, without scanning the distinct rows.

The SVG draws a raster as one path with a rect run per maximal horizontal
run of pixels, five numbers per run, each printed as ``%.4f`` prints it.
:func:`_format_runs` prints them all in one vectorized pass.  Each is a
canvas coordinate in ``(9.8, 590.2)``, with no sign and at most four integer
digits.  ``%.4f`` rounds ``v*10**4`` half-even to an integer, and
``np.frexp`` writes that product exactly as an integer below ``2**63`` over a
power of two, so one uint64 shift, with the remainder deciding the tie, gives
the printed integer exactly.  Ties are common: pixel edges are binary
fractions of the canvas, and at resolution 512, 276 of the 2075 numbers of
the conic-conic-1.7-0.7 path lie exactly halfway between two 4-decimal
values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import (
    INParams,
    ScaledConic,
    compose_conic,
    compose_general,
    compose_scaled_averaged_cocoercive,
)
from .errors import DomainError, _is_integer

__all__ = [
    "Disk",
    "Raster",
    "class_region",
    "composition_region_exact",
    "region_membership",
    "emit_svg",
    "PRESET_NAMES",
    "preset_figure",
]


@dataclass(frozen=True)
class Disk:
    """Disk centered at ``(center_x, 0)``."""

    center_x: float
    radius: float


class Raster:
    """Boolean grid of pixel-center samples over ``[-extent, extent]^2``.

    ``grid[j, i]`` samples the point ``(-extent + i*h, -extent + j*h)`` with
    ``h = 2*extent/resolution``; the grid has ``resolution + 1`` samples per
    axis so the boundary and the origin are sampled exactly.

    The grid is stored as the maximal runs of marked pixels of its distinct
    rows: ``runs`` is a ``(k, 3)`` integer array of ``(row, first, last)``,
    sorted, each run covering the columns ``first`` to ``last`` of its
    distinct row, and ``grid[j]`` is distinct row ``row_of[j]``.
    :func:`composition_region_exact` stores each distinct ``|y|`` row once.
    ``grid`` is built on first use.
    """

    def __init__(self, runs: np.ndarray, row_of: np.ndarray, extent: float, resolution: int):
        self.runs, self.row_of = runs, row_of
        self.extent, self.resolution = extent, resolution

    @cached_property
    def grid(self) -> np.ndarray:
        # Read row after row, the grid alternates unmarked and marked
        # stretches between the ends of its runs.
        j, run = self._grid_runs()
        n = self.resolution + 1
        ends = np.empty(2 * len(j) + 2, np.intp)
        ends[0], ends[-1] = 0, len(self.row_of) * n
        ends[1:-1:2] = j * n + self.runs[run, 1]
        ends[2:-1:2] = j * n + self.runs[run, 2] + 1
        return np.repeat(np.arange(len(ends) - 1) % 2 == 1, np.diff(ends)).reshape(-1, n)

    def _grid_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The runs of the grid, row by row, as ``(j, run)``: grid row
        ``j[t]`` has the run ``runs[run[t]]``."""
        rows = self.runs[:, 0]
        first = np.searchsorted(rows, self.row_of)
        counts = np.searchsorted(rows, self.row_of, side="right") - first
        j = np.repeat(np.arange(len(counts)), counts)
        return j, np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(j))

    @property
    def pixel(self) -> float:
        return 2.0 * self.extent / self.resolution

    def axis(self) -> np.ndarray:
        return -self.extent + self.pixel * np.arange(self.resolution + 1)


def class_region(p: INParams) -> Disk:
    """The reachability disk of a single descriptor."""
    return Disk(p.alpha, p.beta)


def _membership(x: np.ndarray, y: np.ndarray, p1: INParams, p2: INParams) -> np.ndarray:
    """The closed-form test of :func:`region_membership` on broadcastable
    coordinate arrays ``x`` and ``y``."""
    a1, b1 = p1.alpha, p1.beta
    a2, b2 = p2.alpha, p2.beta

    if a2 == 0.0:
        return np.hypot(x, y) <= b2 * (abs(a1) + b1)

    x, y = x / a2, y / a2
    k = b2 / abs(a2)
    nw = np.hypot(x, y)
    s = 1.0 - k * k
    # ||w - s*(a1, 0)|| compared against k*||w|| + s*b1; the comparison
    # direction flips with the sign of s (Apollonius disk vs disk complement).
    lhs = np.hypot(x - s * a1, y)
    if s > 0.0:
        return lhs <= k * nw + s * b1
    if s < 0.0:
        return lhs >= k * nw + s * b1
    return x * a1 + b1 * nw >= 0.5 * nw * nw


def region_membership(points: np.ndarray, p1: INParams, p2: INParams) -> np.ndarray:
    """Exact membership of ``points`` in the composition region of ``p2 . p1``.

    A point ``p`` is reachable iff some ``q`` with ``||q - (a1, 0)|| <= b1``
    satisfies ``||p - a2*q|| <= b2*||q||``.  Points must be finite.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    return _membership(pts[:, 0], pts[:, 1], p1, p2)


# Pixels per side of a raster tile.  The tile pass signs whole tiles, and
# the screen takes the rest as one stack of _TILE x _TILE blocks.
_TILE = 16

# Relative tolerance and underflow floor of the screen in _screened.
_SCREEN_REL = 1e-12
_TINY = 2.0**-530

# The grid has (resolution + 1)**2 samples, and no array holds more than
# sys.maxsize bytes.
_MAX_RESOLUTION = math.isqrt(sys.maxsize) - 1


def _margin(u, norm, p1, p2):
    """The margin that :func:`_membership` signs, as ``(f, scale, inside, k)``.

    ``u`` is ``x/a2`` (``x`` when ``a2 == 0``) and ``norm(t)`` returns a
    fresh array of ``|(t, v)|`` over the pixels, with ``v`` the matching
    ``y/a2`` (or ``y``); the arrays it returns are overwritten.  ``f`` is
    ``nw - b2*(|a1| + b1)`` when ``a2 == 0``, ``b1*nw + u*a1 - nw*nw/2``
    when ``s == 0`` and ``lhs - k*nw - s*b1`` otherwise, with ``nw = |(u, v)|``
    and ``lhs = |(u - s*a1, v)|``; ``scale`` is the sum of the absolute
    values of its terms, and ``inside`` is the sign of ``f`` that puts a
    pixel in the region.
    """
    a1, b1 = p1.alpha, p1.beta
    a2, b2 = p2.alpha, p2.beta
    if a2 == 0.0:
        r = b2 * (abs(a1) + b1)
        nw = norm(u)
        f = nw - r
        return f, np.add(nw, abs(r), out=nw), f < 0.0, 0.0
    k = b2 / abs(a2)
    s = 1.0 - k * k
    nw = norm(u)
    if s == 0.0:
        ua1 = u * a1
        half = 0.5 * nw * nw
        nw *= b1
        f = nw + ua1
        f -= half
        scale = np.add(nw, half, out=nw)
        scale += np.abs(ua1)
        return f, scale, f > 0.0, k
    lhs = norm(u - s * a1)
    nw *= k
    f = lhs - nw
    f -= s * b1
    scale = np.add(lhs, nw, out=lhs)
    scale += abs(s * b1)
    return f, scale, f < 0.0 if s > 0.0 else f > 0.0, k


def _screened(x: np.ndarray, y: np.ndarray, p1: INParams, p2: INParams) -> np.ndarray:
    """``_membership(x, y, p1, p2)`` for broadcastable ``x`` and ``y``.

    ``y`` has length 1 on the last axis, so each ``v*v`` below is formed
    once per row.  A screen decides almost every pixel: each 2-D ``hypot`` of
    :func:`_membership` becomes ``sqrt(u*u + v*v)``, and from those
    :func:`_margin` forms the margin that ``_membership`` signs, with its
    ``scale``.  IEEE ``sqrt`` is correctly rounded and ``hypot`` is within
    about 1 ulp, so away from underflow the two norms differ by a few ulps
    and the two margins by a few dozen ulps of ``scale`` at most, against
    ~4500 ulps in ``1e-12*scale``.  Where the two
    squares underflow they lose up to 2**-1075 each, which moves a norm by
    up to sqrt(2**-1074) = 2**-537 and the margin by up to that times
    ``1 + k`` (``s != 0``) or ``1 + b1`` (``s == 0``); the floor
    ``2**-530*(1 + k + b1)`` covers it.  A pixel whose margin clears
    ``1e-12*scale`` plus the floor takes the screen's sign.  Every other
    pixel, NaN and inf margins from overflow included, is decided by
    ``_membership`` on its own coordinates.
    """
    div = p2.alpha if p2.alpha != 0.0 else 1.0
    with np.errstate(all="ignore"):
        u, v = x / div, y / div
        vv = v * v

        def norm(t):
            q = t * t + vv
            return np.sqrt(q, out=q)

        f, scale, inside, k = _margin(u, norm, p1, p2)
        scale *= _SCREEN_REL
        scale += _TINY * (1.0 + k + p1.beta)
        unsure = ~(np.abs(f, out=f) > scale)
    if unsure.any():
        inside[unsure] = _membership(np.broadcast_to(x, unsure.shape)[unsure],
                                     np.broadcast_to(y, unsure.shape)[unsure], p1, p2)
    return inside


def _tile_sizes(n: int) -> np.ndarray:
    """Lengths of the ``_TILE``-long runs that cut ``range(n)``; the last may
    be shorter."""
    return np.minimum(_TILE, n - np.arange(0, n, _TILE))


def _signed_tiles(x: np.ndarray, y: np.ndarray, p1: INParams, p2: INParams):
    """Sign whole tiles of the grid ``_membership(x[None, :], y[:, None], p1, p2)``.

    ``x`` and ``y`` are sorted.  The grid is cut into tiles of ``_TILE`` rows
    by ``_TILE`` columns, and ``(decided, inside)`` is returned, one entry per
    tile: where ``decided`` holds, ``_membership`` is ``inside`` at every
    pixel of the tile.

    ``_membership`` signs the margin ``f`` of :func:`_margin`, a function of
    ``w = (u, v) = (x/a2, y/a2)`` (``(x, y)`` when ``a2 == 0``) whose
    constants ``k``, ``s*a1`` and ``s*b1`` are the floats both functions use.
    Correctly rounded division is monotone, so the float ``w`` of every pixel
    of a tile lies in the rectangle spanned by the float coordinates of the
    tile's end rows and columns.  ``f`` is evaluated at the float centre
    ``c`` of that rectangle, and ``rad``, its distance to the farthest
    corner, is inflated by a relative 1e-9 to cover the rounding of the
    centre and of ``rad`` itself.  Every pixel lies in the disk ``D`` of
    radius ``rad`` about ``c``, and ``|f(p) - f(c)|`` is at most the drift
    ``min(L*rad, |grad f(c)|*rad + H*rad**2/2)``:

    * ``L`` bounds ``|grad f|`` on ``D``.  Each term of the ``s != 0``
      margin is a norm, so ``L = 1 + k`` (``L = 1`` when ``a2 == 0``); the
      gradient ``b1*w/|w| + (a1, 0) - w`` of the ``s == 0`` margin is at
      most ``|a1| + b1 + nw`` in norm, so ``L = |a1| + b1 + nw(c) + rad``.
    * The second bound is Taylor's theorem with the Lagrange remainder along
      the segment from ``c`` to ``p``, where ``H`` bounds the norm of the
      Hessian of ``f`` on ``D``.  The Hessian of ``|w - q|`` has norm
      ``1/|w - q|``, so ``H = 1/(lhs - rad) + k/(nw - rad)`` for ``s != 0``
      and ``H = 1 + b1/(nw - rad)`` for ``s == 0``, with ``lhs`` and ``nw``
      taken at ``c``.  It is used only where ``lhs`` and ``nw`` (``nw``
      alone when ``s == 0``) exceed ``2*rad``, so ``D`` stays clear of the
      points where ``f`` is not smooth and each denominator is at least half
      its norm.  When ``a2 == 0``, ``|grad f| = L`` everywhere and the
      drift is ``L*rad``.

    Rounding: the differences ``u - s*a1`` are correctly rounded, the norms
    are within a few ulps, and each term of the computed gradient is at most
    ``L`` in magnitude, so ``|grad f(c)|`` is off by a few ulps of ``L`` and
    ``H`` (whose denominators are at least half their norms) by a few ulps
    relative.  Inflating both by a relative 1e-9 and adding ``1e-12*L`` to
    ``|grad f(c)|`` covers that.  ``np.fmin`` takes ``L*rad`` where the
    second bound is NaN or inf, or where the guard fails.

    The ``scale`` of the margin (see :func:`_screened`) is a sum of
    terms with the same Lipschitz bounds, so it grows by at most ``L*rad``
    across ``D``.  ``f`` at the centre is within a few dozen ulps of
    ``scale(c)`` of its exact value, and ``_membership`` signs the exact
    margin of a pixel correctly unless it is within a few dozen ulps of
    ``scale(pixel)`` of zero; where products underflow, both errors grow by
    a few multiples of 2**-1074, far below the screen's underflow floor.  So
    a tile whose centre margin exceeds ``drift + 2e-12*(scale(c) + L*rad)``
    plus that floor in magnitude has the centre's sign at every pixel.  NaN
    and inf margins, scales or radii, from overflow, leave their tile
    undecided.
    """
    a1, b1 = p1.alpha, p1.beta
    a2 = p2.alpha
    div = a2 if a2 != 0.0 else 1.0

    def spans(t):
        # Centres and half-widths of each run's float interval of t/div.
        first = np.arange(0, len(t), _TILE)
        last = first + _tile_sizes(len(t)) - 1
        ends = t[first] / div, t[last] / div
        lo, hi = np.minimum(*ends), np.maximum(*ends)
        mid = 0.5 * (lo + hi)
        return mid, np.maximum(hi - mid, mid - lo)

    (u, hu), (v, hv) = spans(x), spans(y)
    u, v = u[None, :], v[:, None]
    rad = np.hypot(hu[None, :], hv[:, None]) * (1.0 + 1e-9)
    centre = []

    def norm(t):
        # Keeps nw, then lhs, at the tile centres for the Taylor bound.
        centre.append(np.hypot(t, v))
        return centre[-1].copy()

    f, scale, inside, k = _margin(u, norm, p1, p2)
    s = 1.0 - k * k
    nw = centre[0]
    lip = abs(a1) + b1 + nw + rad if s == 0.0 else 1.0 + k
    margin, drift = np.abs(f), lip * rad
    rounding = 2.0 * _SCREEN_REL * (scale + drift)
    floor = _TINY * (1.0 + k + b1)
    decided = margin > drift + rounding + floor
    if a2 == 0.0:
        return decided, inside
    # The Taylor drift is no larger than L*rad, so it can only decide more
    # tiles: it is formed at the tiles that L*rad leaves undecided.
    j, i = np.divmod(np.flatnonzero(~decided), decided.shape[1])
    u, v, nw, rad, drift = u[0, i], v[j, 0], nw[j, i], rad[j, i], drift[j, i]
    if s == 0.0:
        lip = lip[j, i]
        gx, gy = b1 * u / nw + a1 - u, (b1 / nw - 1.0) * v
        curv = 1.0 + b1 / (nw - rad)
        clear = nw > 2.0 * rad
    else:
        du = u - s * a1
        lhs = centre[1][j, i]
        gx, gy = du / lhs - k * u / nw, (1.0 / lhs - k / nw) * v
        curv = 1.0 / (lhs - rad) + k / (nw - rad)
        clear = (lhs > 2.0 * rad) & (nw > 2.0 * rad)
    grad = np.hypot(gx, gy) * (1.0 + 1e-9) + 1e-12 * lip
    taylor = grad * rad + 0.5 * (1.0 + 1e-9) * curv * rad * rad
    drift = np.fmin(drift, np.where(clear, taylor, np.inf))
    decided[j, i] = margin[j, i] > drift + rounding[j, i] + floor
    return decided, inside


def composition_region_exact(
    p1: INParams,
    p2: INParams,
    resolution: int = 512,
    relax_weight: float = 1.0,
) -> Raster:
    """Exact raster of the displacement region of the composition.

    With ``relax_weight = w`` the region of ``(1-w)*Id + w*(second . first)``
    is rasterized instead (an affine image of the base region).  ``p1`` with
    ``beta = 0`` degenerates to a single point and is handled by the same
    closed-form test.
    """
    if not _is_integer(resolution) or resolution < 64:
        raise DomainError(f"resolution must be an integer >= 64, got {resolution!r}")
    if resolution > _MAX_RESOLUTION:
        raise DomainError(f"resolution must be <= {_MAX_RESOLUTION}, got {resolution}")
    if not (relax_weight > 0.0 and math.isfinite(relax_weight)):
        raise DomainError(f"relax weight must be finite and > 0, got {relax_weight}")
    w = relax_weight
    base = (abs(p1.alpha) + p1.beta) * (abs(p2.alpha) + p2.beta)
    extent = abs(1.0 - w) + w * base
    if extent == 0.0:
        extent = 1.0
    if not math.isfinite(2.0 * extent):
        raise DomainError(f"region extent overflows: relax weight {w}, base radius {base}")
    # The n samples of the grid's axis, then _TILE more past its far end.
    n = resolution + 1
    ax = -extent + (2.0 * extent / resolution) * np.arange(n + _TILE)
    # Membership of the relaxed map at p is membership of the base map at
    # (p - (1-w)*e)/w; columns sample x and rows sample y.  _membership sees
    # y only through hypot(., y/a2), and (-y)/a2 is exactly -(y/a2), so rows
    # with equal |y| are equal: each distinct |y| row is evaluated once, and
    # the raster keeps the runs of those rows and the distinct row of each
    # grid row.  Tiles whose centre margin signs every pixel are uniform; the
    # rest go to the screen in one call, as whole _TILE x _TILE blocks.  A
    # block of a short edge tile is filled out with the points past the
    # grid's far edge, so no pixel is screened twice, and the fill is cut off
    # after.
    xs = (ax - (1.0 - w)) / w
    ys, row_of = np.unique(np.abs(ax[:n] / w), return_inverse=True)
    with np.errstate(all="ignore"):
        decided, inside = _signed_tiles(xs[:n], ys, p1, p2)
        nr, nc = decided.shape
        xb = xs[:nc * _TILE].reshape(nc, _TILE)
        yb = np.concatenate((ys, np.abs(ax[n:] / w)))[:nr * _TILE].reshape(nr, _TILE)
        tr, tc = np.divmod(np.flatnonzero(~decided), nc)
        blocks = _screened(xb[tc, None], yb[tr, :, None], p1, p2)
    return Raster(_tile_runs(inside, tr, tc, blocks, len(ys), n), row_of, extent, resolution)


def _tile_runs(inside, tr, tc, blocks, m, n):
    """The sorted ``(row, first, last)`` runs of the ``m`` x ``n`` grid whose
    tile ``(r, c)`` is ``inside[r, c]`` at every pixel, except the tiles
    ``(tr[b], tc[b])``, which are ``blocks[b]`` (past the grid's far edges,
    a block holds fill that is cut off).

    An edge at column ``c`` of a row marks a change between its columns
    ``c - 1`` and ``c``, the row padded with unmarked pixels at both ends,
    so a row's edges alternate start, end.  A uniform tile holds no edge,
    so the edges lie between two tiles, at a grid end or inside a block.
    """
    nr, nc = inside.shape
    # Each row's value at the first and at the last grid column of each tile.
    first = np.repeat(inside, _TILE, axis=0)
    last = first.copy()
    first.reshape(nr, _TILE, nc)[tr, :, tc] = blocks[:, :, 0]
    last.reshape(nr, _TILE, nc)[tr, :, tc] = blocks[np.arange(len(tc)), :, _tile_sizes(n)[tc] - 1]
    first, last = first[:m], last[:m]
    # np.nonzero on a 2-D or 3-D mask is several times slower than
    # np.flatnonzero and divmod.
    r, t = np.divmod(np.flatnonzero(first[:, 1:] != last[:, :-1]), nc - 1)
    b, ij = np.divmod(np.flatnonzero(blocks[..., 1:] != blocks[..., :-1]), _TILE * (_TILE - 1))
    i, j = np.divmod(ij, _TILE - 1)
    ri, ci = tr[b] * _TILE + i, tc[b] * _TILE + j + 1
    keep = (ri < m) & (ci < n)
    keys = np.concatenate((r * (n + 1) + (t + 1) * _TILE, ri[keep] * (n + 1) + ci[keep],
                           np.flatnonzero(first[:, 0]) * (n + 1),
                           np.flatnonzero(last[:, -1]) * (n + 1) + n))
    rows, cols = np.divmod(np.sort(keys), n + 1)
    return np.column_stack((rows[::2], cols[::2], cols[1::2] - 1))


# ---------------------------------------------------------------------------
# SVG emission

CANVAS = 600.0
_GUIDE_STYLE = 'fill="none" stroke="#999999" stroke-dasharray="4,4" stroke-width="1"'
_AXIS_STYLE = 'stroke="#cccccc" stroke-width="1"'


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def emit_svg(regions, markers=(), path=None) -> str:
    """Write a deterministic SVG: fixed 600x600 canvas, unit-circle guide,
    marker at (1, 0).

    ``regions`` is a list of ``(region, style)`` pairs where ``region`` is a
    :class:`Disk` or :class:`Raster` and ``style`` a dict of SVG attributes.
    Returns the SVG text; writes it to ``path`` when given.  Identical inputs
    produce byte-identical output.
    """
    sizes = [1.05]
    for region, _ in regions:
        if isinstance(region, Disk):
            sizes.append(abs(region.center_x) + region.radius)
        else:
            sizes.append(region.extent)
    sizes += [abs(c) for m in markers for c in (m[0], m[1])]
    extent = max(sizes)
    if not all(map(math.isfinite, sizes + [extent * 1.05])):
        raise DomainError(f"figure bounds must be finite, got region and marker sizes {sizes}")
    s = CANVAS / 2.0 / (extent * 1.05)

    def tx(x):
        return CANVAS / 2.0 + x * s

    def ty(y):
        return CANVAS / 2.0 - y * s

    def attrs(style: dict) -> str:
        return " ".join(f'{k}="{style[k]}"' for k in sorted(style))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
        f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="#ffffff"/>',
        f'<line x1="0" y1="{_fmt(ty(0))}" x2="{CANVAS:.0f}" y2="{_fmt(ty(0))}" {_AXIS_STYLE}/>',
        f'<line x1="{_fmt(tx(0))}" y1="0" x2="{_fmt(tx(0))}" y2="{CANVAS:.0f}" {_AXIS_STYLE}/>',
    ]
    for region, style in regions:
        if isinstance(region, Disk):
            lines.append(
                f'<circle cx="{_fmt(tx(region.center_x))}" cy="{_fmt(ty(0))}" '
                f'r="{_fmt(region.radius * s)}" {attrs(style)}/>'
            )
        else:
            lines.append(_raster_path(region, tx, ty, attrs(style)))
    lines.append(
        f'<circle cx="{_fmt(tx(0))}" cy="{_fmt(ty(0))}" r="{_fmt(s)}" {_GUIDE_STYLE}/>'
    )
    lines.append(
        f'<circle cx="{_fmt(tx(1.0))}" cy="{_fmt(ty(0))}" r="3" fill="#000000"/>'
    )
    for m in markers:
        lines.append(
            f'<path d="M {_fmt(tx(m[0]) - 4)} {_fmt(ty(m[1]))} h 8 M {_fmt(tx(m[0]))} '
            f'{_fmt(ty(m[1]) - 4)} v 8" stroke="#000000" stroke-width="1"/>'
        )
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Named presets

_RASTER_STYLE = {"fill": "#b8b8b8", "stroke": "none"}
_CERT_STYLE = {"fill": "none", "stroke": "#cc2222", "stroke-width": "1.5"}
_PALETTE = ("#1f6fb4", "#d9541e", "#2d8f2d", "#8332a8", "#8a6d1f", "#17808a", "#b02456")


def _single_class_regions():
    named = [
        INParams(0.0, 0.8),  # lipschitz 0.8
        INParams(0.7, 0.7),  # cocoercive 1.4
        INParams(0.35, 0.35),  # cocoercive 0.7
        INParams(0.75, 0.25),  # averaged 0.25
        INParams(0.5, 0.5),  # averaged 0.5
        INParams(0.25, 0.75),  # averaged 0.75
        INParams(-0.2, 1.2),  # conic 1.2
        INParams(-0.5, 1.5),  # conic 1.5
    ]
    return [
        (class_region(p), {"fill": "none", "stroke": _PALETTE[i % len(_PALETTE)],
                           "stroke-width": "1.5"})
        for i, p in enumerate(named)
    ]


def _general_disk(p1, p2):
    return compose_general(p1, p2)


# Each composition preset: its factors' descriptors, the weight ``w`` of the
# relaxation ``(1-w)*Id + w*(second . first)`` it draws, and the rule that
# gives the composition's certified disk before relaxation, or None where no
# certified disk exists.  The rules look the calculus functions up when they
# run, so that a patched module attribute (a tracer's) sees each call.
_COMPOSITION_PRESETS = {
    "averaged-averaged-0.5-0.5": (INParams(0.5, 0.5), INParams(0.5, 0.5), 1.0, _general_disk),
    "averaged-averaged-0.7-0.6": (INParams(0.3, 0.7), INParams(0.4, 0.6), 1.0, _general_disk),
    "conic-conic-1.7-0.45": (INParams(-0.7, 1.7), INParams(0.55, 0.45), 1.0, _general_disk),
    # Parameter product above one: no certified disk exists.
    "conic-conic-1.7-0.7": (INParams(-0.7, 1.7), INParams(0.3, 0.7), 1.0, None),
    "scaled-averaged-cocoercive": (
        INParams(0.6, 1.0), INParams(0.3125, 0.3125), 1.0,
        lambda p1, p2: compose_scaled_averaged_cocoercive(ScaledConic(1.6, 0.625), 0.625).to_in(),
    ),
    "fb-relaxed": (
        INParams(-0.95, 1.95), INParams(0.5, 0.5), 0.04,
        lambda p1, p2: compose_conic(ScaledConic(1.0, 1.95), ScaledConic(1.0, 0.5)).to_in(),
    ),
}

PRESET_NAMES = ("single-class", *_COMPOSITION_PRESETS)


def preset_figure(name: str, resolution: int = 512):
    """Return ``(regions, markers)`` for one of the named presets."""
    if name == "single-class":
        return _single_class_regions(), []
    if name not in _COMPOSITION_PRESETS:
        raise DomainError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    p1, p2, w, certified = _COMPOSITION_PRESETS[name]
    regions = [(composition_region_exact(p1, p2, resolution, relax_weight=w), dict(_RASTER_STYLE))]
    if certified is not None:
        # The relaxation maps the disk affinely; at w = 1 it keeps the disk's floats.
        cert = certified(p1, p2)
        cert = INParams((1.0 - w) + w * cert.alpha, w * cert.beta)
        regions.append((class_region(cert), dict(_CERT_STYLE)))
    return regions, []


# One rect run of a raster path; ``%.4f`` formats as ``_fmt`` does.
_RUN = "M %.4f %.4f H %.4f V %.4f H %.4f Z"

# _format_runs writes each number of a run as words of ASCII bytes, with NUL
# for a byte to drop: a run's leading literal before its first number (NUL
# before the others), one word for the integer part (leading zeros NUL), and
# an 8-byte word: "." and four digits, then the literal after the number in
# _RUN, or after the last, " Z" and the " " that joins runs.
_LITERALS = [s.encode() for s in _RUN.split("%.4f")]
_LITERALS[-1] += b" "
_ASCII = np.stack(np.indices((10,) * 4, np.uint8), axis=-1).reshape(-1, 4) + np.uint8(ord("0"))
_LEAD = (_ASCII * (np.arange(10000)[:, None] >= [1000, 100, 10, 0])).view(np.uint32).ravel()
_FRAC = np.concatenate((np.full((10000, 1), ord("."), np.uint8), _ASCII,
                        np.zeros((10000, 3), np.uint8)), axis=1).view(np.uint64).ravel()
_PREFIX = np.frombuffer(_LITERALS[0].ljust(4, b"\0") + bytes(16), np.uint32)
_SUFFIX = np.frombuffer(b"".join(bytes(5) + s.ljust(3, b"\0") for s in _LITERALS[1:]), np.uint64)


def _format_runs(values: np.ndarray) -> str:
    """``" ".join([_RUN] * m) % tuple(values.ravel())`` for an ``(m, 5)``
    array of canvas coordinates, in one vectorized pass.

    Every number of a raster path lies in ``(9.8, 590.2)``.  :func:`emit_svg`
    scales by ``s = 300/(1.05*E)`` about the canvas centre 300, with
    ``E >= max(1.05, raster.extent)``, and a raster of resolution ``r >= 64``
    (the floor :func:`composition_region_exact` enforces) reaches at most
    ``extent*(1 + 1/r)`` from the centre, so every number lies within
    ``300*(1 + 1/64)/1.05 < 290.2`` of 300.  A number outside ``[1, 9999)``
    raises :class:`DomainError`.

    ``%.4f`` prints ``v*10**4`` rounded half-even to an integer.  From
    ``np.frexp``, ``v = mant*2**(e - 53)`` with an integer ``mant < 2**53`` and
    ``1 <= e <= 14`` on ``[1, 9999)``, so ``v*10**4 = p*2**-k`` with
    ``p = 625*mant < 2**63`` and ``35 <= k = 49 - e <= 48``.  In uint64,
    ``(p + 2**(k-1) - 1 + ((p >> k) & 1)) >> k`` is ``p*2**-k`` rounded
    half-even, without overflow.  That integer is at most ``99990000``, so
    the integer part has one to four digits, one word.
    """
    inside = (values >= 1.0) & (values < 9999.0)
    if not inside.all():
        raise DomainError(f"raster path coordinates must be in [1, 9999), got {values[~inside][0]}")
    mant, e = np.frexp(values)
    p = (mant * 2.0**53).astype(np.uint64) * 625
    k = (49 - e).astype(np.uint64)
    whole, frac = np.divmod((p + ((np.uint64(1) << (k - 1)) - 1) + ((p >> k) & 1)) >> k, 10000)
    words = np.empty((len(values), 5, 4), np.uint32)
    words[..., 0] = _PREFIX
    words[..., 1] = _LEAD[whole]
    words.view(np.uint64)[..., 1] = _FRAC[frac] | _SUFFIX
    return words.tobytes().translate(None, b"\0").decode("ascii")[:-1]


def _raster_path(raster: Raster, tx, ty, attr_text: str) -> str:
    """One path element: a rect run per maximal horizontal run of pixels,
    grid row by grid row, left to right."""
    half = raster.pixel / 2.0
    ax = raster.axis()
    j, run = raster._grid_runs()
    _, i0, i1 = raster.runs.T
    x0, x1 = tx(ax[i0] - half)[run], tx(ax[i1] + half)[run]
    y0, y1 = ty(ax + half)[j], ty(ax - half)[j]
    return f'<path d="{_format_runs(np.column_stack((x0, y0, x1, y1, x0)))}" {attr_text}/>'
