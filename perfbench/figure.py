"""Figure ops (``preset_figure`` then ``emit_svg``) and their checks.

A figure is correct when every emission of it is byte-identical, the runs
of its SVG raster path cover exactly the raster's marked pixels, and a
seeded sample of those pixels, each at least two pixel widths from the
region boundary, agrees with a brute-force search over the first disk.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

RESOLUTIONS = (512, 2048)
SAMPLED_PIXELS = 48

# (alpha1, beta1), (alpha2, beta2), relax weight of each composition preset,
# restated here so the check does not read them from the program.
PRESET_PARAMS = {
    "averaged-averaged-0.5-0.5": ((0.5, 0.5), (0.5, 0.5), 1.0),
    "averaged-averaged-0.7-0.6": ((0.3, 0.7), (0.4, 0.6), 1.0),
    "conic-conic-1.7-0.45": ((-0.7, 1.7), (0.55, 0.45), 1.0),
    "conic-conic-1.7-0.7": ((-0.7, 1.7), (0.3, 0.7), 1.0),
    "scaled-averaged-cocoercive": ((0.6, 1.0), (0.3125, 0.3125), 1.0),
    "fb-relaxed": ((-0.95, 1.95), (0.5, 0.5), 0.04),
}


def make_round(rng, presets):
    """Every preset at every resolution, in a fixed order (the order changes
    which allocations are reused, so a shuffled order adds noise); the seed
    picks the pixels each check samples."""
    return ({"type": "figure", "preset": p, "resolution": r,
             "pixel_seed": int(rng.integers(2**31))}
            for p in presets for r in RESOLUTIONS)


def run_figure(job, path):
    from opsplit import figures

    regions, markers = figures.preset_figure(job["preset"], job["resolution"])
    text = figures.emit_svg(regions, markers, path)
    rasters = [r for r, _ in regions if isinstance(r, figures.Raster)]
    return {"svg": text, "raster": rasters[0] if rasters else None}


_ORIGIN_X = re.compile(r'<line x1="(\S+)" y1="0" ')
_UNIT_MARKER = re.compile(r'<circle cx="(\S+)" cy="(\S+)" r="3" fill="#000000"/>')
_RUN = re.compile(r"M (\S+) (\S+) H (\S+) V (\S+) H \S+ Z")


def svg_grid(text, raster):
    """The pixels of ``raster``'s grid that the SVG's run rectangles cover,
    or None when the runs do not sit on whole pixels or overlap.

    The plane-to-canvas map is read from the SVG itself: the vertical axis
    line gives the origin's x, the marker at (1, 0) the origin's y and the
    scale.  A run from ``x0`` to ``x1`` on a row covers the pixels whose
    centres lie between half a pixel inside either end.
    """
    ox = float(_ORIGIN_X.search(text).group(1))
    mx, oy = (float(v) for v in _UNIT_MARKER.search(text).groups())
    scale = mx - ox
    paths = [ln for ln in text.splitlines() if ln.startswith('<path d="M ') and ' Z" ' in ln]
    if len(paths) != 1:
        return None
    runs = np.array(_RUN.findall(paths[0]), float).reshape(-1, 4)
    e, h = raster.extent, raster.pixel
    # fractional pixel indices of each run's first and last column and its row
    first = ((runs[:, 0] - ox) / scale + h / 2 + e) / h
    last = ((runs[:, 2] - ox) / scale - h / 2 + e) / h
    row = ((oy - 0.5 * (runs[:, 1] + runs[:, 3])) / scale + e) / h
    idx = np.rint(np.stack([first, last, row]))
    n = raster.grid.shape[0]
    if len(runs) and (np.abs(idx - np.stack([first, last, row])).max() > 0.25
                      or idx.min() < 0 or idx.max() >= n or (idx[1] < idx[0]).any()):
        return None
    i0, i1, j = idx.astype(int)
    cover = np.zeros((n, n + 1), np.int32)
    np.add.at(cover, (j, i0), 1)
    np.add.at(cover, (j, i1 + 1), -1)
    cover = np.cumsum(cover, axis=1)[:, :n]
    return cover == 1 if cover.max(initial=0) <= 1 else None


def _deep_pixels(grid, rng, count):
    """Pixels whose 5x5 neighbourhood is all inside or all outside."""
    g = np.pad(grid.astype(np.int32), 2)
    c = np.pad(g.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
    win = c[5:, 5:] - c[:-5, 5:] - c[5:, :-5] + c[:-5, :-5]
    picks = []
    for value in (25, 0):
        js, is_ = np.nonzero(win == value)
        take = rng.choice(len(js), size=min(count // 2, len(js)), replace=False)
        picks += [(int(js[k]), int(is_[k])) for k in take]
    return picks


def _brute_member(points, p1, p2, w):
    """Whether some q in the first disk has ||p' - a2 q|| <= b2 ||q||, where
    p' undoes the relaxation; coarse polar grid, then local refinement."""
    (a1, b1), (a2, b2) = p1, p2
    base = (points - np.array([1.0 - w, 0.0])) / w

    def g(q):  # q: (..., 2) candidates per point
        return (np.hypot(base[:, None, 0] - a2 * q[..., 0], base[:, None, 1] - a2 * q[..., 1])
                - b2 * np.hypot(q[..., 0], q[..., 1]))

    def clip(q):
        off = q - np.array([a1, 0.0])
        r = np.hypot(off[..., 0], off[..., 1])
        scale = np.where(r > b1, b1 / np.maximum(r, 1e-300), 1.0)
        return np.array([a1, 0.0]) + off * scale[..., None]

    rad, ang = np.meshgrid(b1 * np.sqrt(np.linspace(0.0, 1.0, 96)),
                           np.linspace(0.0, 2.0 * math.pi, 384, endpoint=False))
    grid = np.stack([a1 + rad * np.cos(ang), rad * np.sin(ang)], -1).reshape(-1, 2)
    vals = g(np.broadcast_to(grid, (len(points),) + grid.shape))
    starts = np.argsort(vals, axis=1)[:, :4]
    best = grid[starts]  # (n, 4, 2)
    step = 2.0 * b1 * math.pi / 384
    offs = np.stack(np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)), -1).reshape(-1, 2)
    for _ in range(24):
        cand = clip(best[:, :, None, :] + step * offs[None, None])  # (n, 4, 81, 2)
        n = len(points)
        v = g(cand.reshape(n, -1, 2)).reshape(n, 4, -1)
        k = np.argmin(v, axis=2)
        best = np.take_along_axis(cand, k[:, :, None, None], axis=2)[:, :, 0, :]
        step *= 0.6
    return g(best).min(axis=1) <= 0.0


class FigureChecker:
    """Stateful check: the first emission of a figure is compared with its
    raster and the brute force, every later one with the first emission's
    digest."""

    def __init__(self):
        self.first = {}
        self.count = {}

    def __call__(self, job, out):
        key = (job["preset"], job["resolution"])
        self.count[key] = self.count.get(key, 0) + 1
        digest = hashlib.sha256(out["svg"].encode()).hexdigest()
        if key in self.first:
            return digest == self.first[key]
        self.first[key] = digest
        raster = out["raster"]
        if job["preset"] not in PRESET_PARAMS:
            return raster is None
        if raster is None:
            return False
        drawn = svg_grid(out["svg"], raster)
        if drawn is None or not np.array_equal(drawn, raster.grid):
            return False
        p1, p2, w = PRESET_PARAMS[job["preset"]]
        picks = _deep_pixels(raster.grid, np.random.default_rng(job["pixel_seed"]),
                             SAMPLED_PIXELS)
        ax = raster.axis()
        pts = np.array([[ax[i], ax[j]] for j, i in picks])
        marked = np.array([raster.grid[j, i] for j, i in picks])
        brute = np.concatenate([_brute_member(pts[k:k + 8], p1, p2, w)
                                for k in range(0, len(pts), 8)])
        return len(picks) > 0 and bool(np.all(brute == marked))

    def unpaired(self):
        """Figures emitted only once, so never compared with a second emission."""
        return sum(1 for k, n in self.count.items() if n < 2)
