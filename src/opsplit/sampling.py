"""Deterministic sampling of vector pairs for empirical checks.

All membership/monotonicity checks in this package draw the same kind of
sample: Gaussian pairs seeded by default with ``0xC0FFEE``, augmented with the
axis-aligned unit pairs (rotation-family worst cases lie on simple
directions).
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC0FFEE


def pair_samples(pairs: int, dim: int, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return arrays ``xs, ys`` of shape ``(m, dim)`` with ``x != y`` rowwise."""
    if pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs}")
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    xs = rng.standard_normal((pairs, dim))
    ys = rng.standard_normal((pairs, dim))

    eye = np.eye(dim)
    ax_x = np.concatenate([eye, eye, -eye])
    ax_y = np.concatenate([np.zeros((dim, dim)), -eye, np.zeros((dim, dim))])
    xs = np.concatenate([xs, ax_x])
    ys = np.concatenate([ys, ax_y])

    keep = np.linalg.norm(xs - ys, axis=1) > 1e-14
    return xs[keep], ys[keep]
