"""Concrete evaluatable operators on real n-vectors.

An :class:`Op` wraps a deterministic, dimension-preserving map together with
an optional class certificate (an :class:`~opsplit.calculus.INParams` or
:class:`~opsplit.calculus.ScaledConic` descriptor).  Evaluation is batched:
the wrapped function maps arrays of shape ``(..., n)`` to arrays of the same
shape.

Monotone operators enter through :class:`MonotoneSpec` subclasses, each with
a closed-form resolvent ``(Id + gamma*A)^{-1}`` and a monotonicity modulus,
the only property of the operator that the certificates read.  A
:class:`QuadraticGradient` is the gradient of a quadratic ``f``; its resolvent
at step ``gamma`` is the proximal map of ``gamma*f``, the package's one path
to it, single-valued while ``gamma*rho > -1``.

Affine maps carry their form ``x -> matrix @ x + offset`` and the combinators
fold it, so a tree of affine maps evaluates as a single matvec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import calculus
from .calculus import INParams, ScaledConic, resolvent_class
from .errors import BuildError, DomainError, NumericError, _is_integer

__all__ = [
    "Op",
    "identity",
    "matrix_op",
    "build_rotation",
    "build_in_operator",
    "MonotoneSpec",
    "Affine",
    "ScaledIdentity",
    "SubspaceNormalPlusScale",
    "QuadraticGradient",
    "compose",
    "scale",
    "negate",
    "relax",
    "shift",
    "difference",
]

Certificate = calculus.Descriptor


class Op:
    """An evaluatable map on real n-vectors with an optional class certificate.

    An affine ``Op`` also carries its form ``x -> matrix @ x + offset``:
    ``matrix`` is a float for a multiple of the identity (O(d) maps are never
    made dense) or an ``(n, n)`` array, and ``offset`` an ``(n,)`` array or
    ``None`` for zero.  Both are ``None`` for any other map.  ``fn`` is
    read-only, so the form always describes the map.
    """

    __slots__ = ("_fn", "dim", "certificate", "matrix", "offset")

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        dim: int,
        certificate: Certificate | None = None,
    ):
        self._fn = fn
        self.dim = dim
        self.certificate = certificate
        self.matrix = self.offset = None

    @property
    def fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return self._fn

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DomainError(
                f"dimension mismatch: operator expects {self.dim}, got shape {x.shape}"
            )
        return self._fn(x)

    def __repr__(self):
        return f"Op(dim={self.dim}, cert={self.certificate})"


def _affine(dim: int, matrix, offset, certificate=None) -> Op:
    """The :class:`Op` ``x -> matrix @ x + offset`` (batched as ``x @ M.T + b``)."""
    if isinstance(matrix, float):
        fn = (lambda x: matrix * x) if offset is None else (lambda x: matrix * x + offset)
    else:
        mt = matrix.T
        fn = (lambda x: x @ mt) if offset is None else (lambda x: x @ mt + offset)
    op = Op(fn, dim, certificate)
    op.matrix, op.offset = matrix, offset
    return op


def _mix(a: float, m, b: float, n):
    """``a*m + b*n`` for two matrix parts, each a float or an array."""
    if isinstance(m, float):
        if isinstance(n, float):
            return a * m + b * n
        a, m, b, n = b, n, a, m
    out = a * m
    if isinstance(n, float):
        out.flat[:: out.shape[0] + 1] += b * n
    else:
        out += b * n
    return out


# The combinators fold affine maps with numpy's warnings off: an entry that
# overflows is left to the iteration's non-finite check, not warned of.
@np.errstate(all="ignore")
def _lincomb(c0: float, c1: float, op: Op, certificate) -> Op:
    """``x -> c0*x + c1*op(x)``, folded into one affine map when ``op`` is affine."""
    if op.matrix is not None:
        offset = None if op.offset is None else c1 * op.offset
        return _affine(op.dim, _mix(c0, 1.0, c1, op.matrix), offset, certificate)
    if c0 == 0.0:
        return Op(lambda x: c1 * op(x), op.dim, certificate)
    return Op(lambda x: c0 * x + c1 * op(x), op.dim, certificate)


def identity(dim: int) -> Op:
    return _affine(dim, 1.0, None, INParams(1.0, 0.0))


def matrix_op(matrix: np.ndarray, offset=None, certificate=None) -> Op:
    """The affine map ``x -> M x + b`` (batched as ``x @ M.T + b``)."""
    m = np.asarray(matrix, dtype=float)
    n = len(m) if m.ndim else 0
    if m.shape != (n, n):
        raise DomainError(f"matrix must be square, got {m.shape}")
    b = None if offset is None else np.asarray(offset, dtype=float)
    if b is not None and b.shape != (n,):
        raise DomainError(f"offset must have shape ({n},), got {b.shape}")
    return _affine(n, m, b, certificate)


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def build_rotation(theta: float) -> Op:
    """The planar rotation ``x -> R_theta x``; certified nonexpansive."""
    return matrix_op(rotation_matrix(theta), certificate=INParams(0.0, 1.0))


def build_in_operator(alpha: float, beta: float, n: Op) -> Op:
    """The map ``x -> alpha*x + beta*N(x)`` certified as ``INParams(alpha, beta)``.

    ``n`` must carry a nonexpansive certificate.
    """
    cert = INParams(alpha, beta)
    bound = None if n.certificate is None else n.certificate.to_in().lipschitz
    if bound is None or bound > 1.0:
        raise BuildError(
            f"N must carry a nonexpansive certificate, got bound {bound}"
        )
    return _lincomb(alpha, beta, n, cert)


# ---------------------------------------------------------------------------
# Monotone operator specifications with closed-form resolvents


def _positive_dim(dim) -> int:
    if not _is_integer(dim) or dim < 1:
        raise DomainError(f"dim must be a positive integer, got {dim!r}")
    return int(dim)


class MonotoneSpec:
    """Base for operator specifications with a known monotonicity modulus.

    ``rho`` is the modulus: ``<x-y, Ax-Ay> >= rho*||x-y||^2`` on the graph.
    Every certificate derived from a spec (its resolvent's class, the
    splitting plans' modulus checks) reads ``rho`` alone.  ``rho_error``
    bounds how far a computed ``rho`` may sit below the modulus it rounds:
    0 where ``rho`` is given, an eigensolver's error bound where it is not.
    """

    rho: float
    dim: int
    rho_error: float = 0.0

    def _check_gamma(self, gamma: float):
        if not gamma > 0.0:
            raise DomainError(f"step size must be > 0, got {gamma}")
        gamma_rho = gamma * self.rho
        if not np.isfinite(gamma_rho):
            raise DomainError(
                f"resolvent not certified: gamma*rho = {gamma_rho} at gamma={gamma}"
            )
        if not gamma_rho > -1.0:
            raise DomainError(
                f"resolvent not single-valued: gamma*rho = {gamma_rho} <= -1"
            )

    def resolvent(self, gamma: float) -> Op:
        raise NotImplementedError

    def forward(self) -> Op:
        """The operator itself as an evaluatable map; absent for set-valued kinds."""
        raise BuildError(f"{type(self).__name__} is not single-valued")

    def reflected_resolvent(self, gamma: float) -> Op:
        """``2*J - Id`` with ``J = self.resolvent(gamma)``."""
        j = self.resolvent(gamma)
        # ScaledConic(-1, a) keeps the sign structure: the *negated* reflection
        # is a-conic, which is what the sharp composition rules need.
        cert = ScaledConic(-1.0, resolvent_class(gamma * self.rho).reflected.value)
        return _lincomb(-1.0, 2.0, j, cert)

    def _resolvent_cert(self, gamma: float) -> INParams:
        return calculus.from_label(resolvent_class(gamma * self.rho).resolvent)


@dataclass(eq=False)
class Affine(MonotoneSpec):
    """``A x = M x + b``; exactly ``lambda_min((M + M^T)/2)``-monotone."""

    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        form = matrix_op(self.matrix, self.offset)
        n, self.matrix = form.dim, form.matrix
        self.offset = np.zeros(n) if form.offset is None else form.offset
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.offset).all()):
            raise DomainError("matrix and offset must be finite")
        self.dim = _positive_dim(n)
        # Halving first keeps the sum in range; away from the subnormals it
        # gives the bits of 0.5*(M + M^T) wherever that sum does not overflow.
        self.rho = float(np.linalg.eigvalsh(0.5 * self.matrix + 0.5 * self.matrix.T)[0])
        # The eigensolver's error, a small multiple of eps*||M|| <= eps*n*max|M_ij|,
        # with room for an M that is itself the rounding of one of modulus rho.
        self.rho_error = 32.0 * np.finfo(float).eps * n * float(np.abs(self.matrix).max())
        self._last_resolvent = (None, None)

    def forward(self) -> Op:
        return matrix_op(self.matrix, self.offset)

    # An entry of gamma*M may overflow where gamma*rho is finite; as in the
    # folds, the iteration's non-finite check reports it, not a warning.
    @np.errstate(all="ignore")
    def resolvent(self, gamma: float) -> Op:
        """Inverts ``I + gamma*M`` once per ``gamma``: a repeat call at the last
        ``gamma`` returns the same :class:`Op`, which callers must not mutate."""
        self._check_gamma(gamma)
        if self._last_resolvent[0] != gamma:
            n = self.dim
            try:
                inv = np.linalg.inv(np.eye(n) + gamma * self.matrix)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"singular resolvent solve: {exc}") from exc
            j = _affine(n, inv, -(inv @ (gamma * self.offset)), self._resolvent_cert(gamma))
            self._last_resolvent = (gamma, j)
        return self._last_resolvent[1]


@dataclass(eq=False)
class ScaledIdentity(MonotoneSpec):
    """``A = c * Id``; ``c``-monotone with resolvent ``x/(1 + gamma*c)``."""

    c: float
    dim: int = 2

    def __post_init__(self):
        self.dim = _positive_dim(self.dim)
        if not np.isfinite(self.c):
            raise DomainError(f"c must be finite, got {self.c}")
        self.rho = self.c

    def forward(self) -> Op:
        return _affine(self.dim, float(self.c), None)

    def resolvent(self, gamma: float) -> Op:
        self._check_gamma(gamma)
        f = 1.0 / (1.0 + gamma * self.c)
        return _affine(self.dim, float(f), None, self._resolvent_cert(gamma))


@dataclass(eq=False)
class SubspaceNormalPlusScale(MonotoneSpec):
    """Normal cone of a linear subspace ``U`` plus ``mu*Id``.

    ``basis`` holds a spanning set of ``U`` as rows (zero and dependent rows
    allowed); the resolvent is
    ``P_U/(1 + gamma*mu)`` with ``P_U`` the orthogonal projector onto ``U``.
    Set-valued, so there is no forward evaluation.
    """

    basis: np.ndarray
    mu: float = 0.0

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if not (np.isfinite(b).all() and np.isfinite(self.mu)):
            raise DomainError("basis and mu must be finite")
        self.dim = _positive_dim(b.shape[1])
        # rank rule: the singular values above 1e-12 of the largest (none if no rows)
        u, s, _ = np.linalg.svd(b.T, full_matrices=False)
        u = u[:, s > 1e-12 * s.max(initial=0.0)]
        self.projector = u @ u.T
        self.rho = self.mu

    def resolvent(self, gamma: float) -> Op:
        self._check_gamma(gamma)
        p = self.projector / (1.0 + gamma * self.mu)
        return _affine(self.dim, p, None, self._resolvent_cert(gamma))


class QuadraticGradient(Affine):
    """Gradient ``x -> Q x + b`` of the quadratic ``x^T Q x/2 + b^T x``, ``Q`` symmetric."""

    def __post_init__(self):
        super().__post_init__()
        q = self.matrix
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(q).max()))):
            raise DomainError("quadratic matrix must be symmetric")


# ---------------------------------------------------------------------------
# Combinators


@np.errstate(all="ignore")
def compose(outer: Op, inner: Op) -> Op:
    """``x -> outer(inner(x))``, certified by :func:`calculus.certify` or, when
    no rule applies, by the naive Lipschitz product; uncertified if either
    factor is."""
    if outer.dim != inner.dim:
        raise DomainError(
            f"dimension mismatch: {outer.dim} vs {inner.dim}"
        )
    c_in, c_out = inner.certificate, outer.certificate
    cert = None
    if c_in is not None and c_out is not None:
        try:
            cert, _ = calculus.certify(c_in, c_out)
        except DomainError:
            cert = INParams(0.0, calculus.naive_lipschitz(c_in, c_out))
    mo, mi = outer.matrix, inner.matrix
    if mo is None or mi is None:
        return Op(lambda x: outer(inner(x)), inner.dim, cert)
    dense = isinstance(mo, np.ndarray)
    matrix = mo @ mi if dense and isinstance(mi, np.ndarray) else mo * mi
    offset = outer.offset
    if inner.offset is not None:
        moved = mo @ inner.offset if dense else mo * inner.offset
        offset = moved if offset is None else moved + offset
    return _affine(inner.dim, matrix, offset, cert)


def scale(c: float, op: Op) -> Op:
    """``x -> c * op(x)``."""
    cert = op.certificate
    if cert is not None:
        if isinstance(cert, ScaledConic) and c != 0.0:
            cert = ScaledConic(c * cert.delta, cert.alpha)
        else:
            p = cert.to_in()
            cert = INParams(c * p.alpha, abs(c) * p.beta)
    return _lincomb(0.0, c, op, cert)


def negate(op: Op) -> Op:
    """``x -> -op(x)``."""
    return scale(-1.0, op)


def relax(lam: float, op: Op) -> Op:
    """``x -> (1-lam)*x + lam*op(x)``."""
    cert = op.certificate
    if cert is not None:
        p = cert.to_in()
        cert = INParams((1.0 - lam) + lam * p.alpha, abs(lam) * p.beta)
    return _lincomb(1.0 - lam, lam, op, cert)


def shift(c: float, op: Op) -> Op:
    """``x -> op(x) + c*x``."""
    cert = op.certificate
    if cert is not None:
        p = cert.to_in()
        cert = INParams(p.alpha + c, p.beta)
    return _lincomb(c, 1.0, op, cert)


@np.errstate(all="ignore")
def difference(a: Op, b: Op) -> Op:
    """``x -> a(x) - b(x)``, without a certificate."""
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.matrix is None or b.matrix is None:
        return Op(lambda x: a(x) - b(x), a.dim)
    if b.offset is None:
        offset = a.offset
    else:
        offset = -b.offset if a.offset is None else a.offset - b.offset
    return _affine(a.dim, _mix(1.0, a.matrix, -1.0, b.matrix), offset)

