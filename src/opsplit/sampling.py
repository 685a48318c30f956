"""Deterministic sampling of vector pairs for empirical checks.

All membership/monotonicity checks in this package draw the same kind of
sample: Gaussian pairs seeded by default with ``0xC0FFEE``, augmented with the
axis-aligned unit pairs (rotation-family worst cases lie on simple
directions).  The returned arrays are read-only, and the last draw is
memoised: consecutive checks with the same ``(pairs, dim, seed)`` share one
sample instead of drawing it again.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_SEED = 0xC0FFEE


def pair_samples(pairs: int, dim: int, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return read-only arrays ``xs, ys`` of shape ``(m, dim)`` with ``x != y``
    rowwise.  ``seed=None`` means :data:`DEFAULT_SEED`; the most recent
    sample is memoised, so copy before writing."""
    if pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs}")
    return _draw(pairs, dim, DEFAULT_SEED if seed is None else seed)


@lru_cache(maxsize=1)
def _draw(pairs: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((pairs, dim))
    ys = rng.standard_normal((pairs, dim))

    eye = np.eye(dim)
    ax_x = np.concatenate([eye, eye, -eye])
    ax_y = np.concatenate([np.zeros((dim, dim)), -eye, np.zeros((dim, dim))])
    xs = np.concatenate([xs, ax_x])
    ys = np.concatenate([ys, ax_y])

    keep = np.linalg.norm(xs - ys, axis=1) > 1e-14
    xs, ys = xs[keep], ys[keep]
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys
