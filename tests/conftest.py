import numpy as np
import pytest

from opsplit.operators import Affine


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_monotone_affine(rho, dim, rng, offset_scale=1.0):
    """A random affine spec whose symmetric part is at least rho*I."""
    c = rng.standard_normal((dim, dim))
    psd = c.T @ c / dim
    k = rng.standard_normal((dim, dim))
    m = rho * np.eye(dim) + psd + (k - k.T)
    return Affine(m, offset_scale * rng.standard_normal(dim))


def step_ratios(log) -> list:
    """The ratios ``s[k+1]/s[k]`` of consecutive step norms of an ``IterLog``,
    skipping zero steps."""
    s = log.step_norms
    return [s[i + 1] / s[i] for i in range(len(s) - 1) if s[i] > 0.0]


def marked_points(raster) -> np.ndarray:
    """The ``(x, y)`` sample points of a raster's marked pixels."""
    js, is_ = np.nonzero(raster.grid)
    ax = raster.axis()
    return np.column_stack([ax[is_], ax[js]])


def disk_contains(disk, pts) -> np.ndarray:
    """Whether each ``(x, y)`` row of ``pts`` lies in the disk of the
    descriptor ``disk`` (radius ``beta`` about ``(alpha, 0)``), up to a
    relative 1e-12 of its radius."""
    pts = np.atleast_2d(pts)
    d = np.hypot(pts[:, 0] - disk.alpha, pts[:, 1])
    return d <= disk.beta * (1.0 + 1e-12)


def raster_contains(raster, point, dilate: int = 0) -> bool:
    """Whether ``point`` falls on a marked pixel (within ``dilate`` pixels)."""
    x, y = float(point[0]), float(point[1])
    h = raster.pixel
    u = (x + raster.extent) / h
    v = (y + raster.extent) / h
    n = raster.resolution
    # Far points are outside before rounding, which overflows on infinite u, v.
    if not (-dilate - 1 <= u <= n + dilate + 1 and -dilate - 1 <= v <= n + dilate + 1):
        return False
    i, j = round(u), round(v)
    if not (-dilate <= i <= n + dilate and -dilate <= j <= n + dilate):
        return False
    i0, i1 = max(0, i - dilate), min(n, i + dilate)
    j0, j1 = max(0, j - dilate), min(n, j + dilate)
    return bool(raster.grid[j0 : j1 + 1, i0 : i1 + 1].any())
