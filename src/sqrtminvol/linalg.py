"""Dense numerical kernels used by every solver in the package.

All matrices are plain 2-D ``numpy.ndarray`` objects in row-major order,
dtype float64.  Problem sizes here are small (a few dozen rows, a few
thousand columns at most), so everything stays dense and there is no
sparse path on purpose.  The only factorization the solvers need is one
Cholesky factor of the r x r shifted Gram ``W^T W + delta I``, and one
kernel, :func:`shifted_gram`, returns both quantities the min-vol model
takes from it: the log-determinant and the inverse.  ``numpy.linalg``
covers it, so the package depends on numpy alone.
"""

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NotPositiveDefiniteError
from .errors import NumericalFaultError

__all__ = [
    "as_matrix",
    "frobenius_norm",
    "shifted_gram",
    "spectral_norm",
]


def as_matrix(M, name="matrix"):
    """``M`` as a non-empty, finite, C-contiguous 2-D float64 array.

    It is a view of ``M`` when ``M`` already is one, else a copy.  A bad
    shape or a NaN or Inf entry raises ``InvalidInputError`` naming ``name``.
    """
    A = np.ascontiguousarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def check_finite(value, name):
    """``value`` if it is finite, else ``NumericalFaultError`` naming ``name``."""
    if not np.isfinite(value):
        raise NumericalFaultError(f"non-finite {name} ({value})")
    return value


def frobenius_norm(M):
    """Frobenius norm, the square root of the sum of squared entries.

    Returns 0 exactly when ``M`` is all zeros.  Non-finite entries raise
    ``InvalidInputError``.
    """
    A = as_matrix(M, "M")
    return float(np.sqrt(np.sum(A * A)))


def shifted_gram(W, delta):
    """``(logdet(Q), Q^{-1})`` for ``Q = W^T W + delta I``, from one Cholesky factor.

    ``W^T W`` is made exactly symmetric before ``delta > 0`` is added to
    its diagonal; the shift keeps ``Q`` positive definite even when ``W``
    is rank-deficient.  With ``Q = L L^T``, the log-determinant (the
    volume penalty) is ``2 * sum(log(diag(L)))`` and the inverse (the
    gradient of the penalty's tangent) is ``solve(L^T, solve(L, I))``,
    made exactly symmetric.  A non-positive pivot means ``delta`` is too
    small for this ``W`` in float64: it raises ``NotPositiveDefiniteError``
    naming ``delta`` and is never masked by ad-hoc regularization.
    """
    if not (float(delta) > 0.0):
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    A = as_matrix(W, "W")
    G = A.T @ A
    # Matrix products are only symmetric up to rounding; make it exact.
    G = 0.5 * (G + G.T)
    G[np.diag_indices_from(G)] += float(delta)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"W^T W + delta I is not numerically positive definite at "
            f"delta={float(delta):.17g}; use a larger delta"
        ) from exc
    logdet = float(2.0 * np.sum(np.log(np.diag(L))))
    Q_inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(L.shape[0])))
    return logdet, 0.5 * (Q_inv + Q_inv.T)


def spectral_norm(M):
    """Largest singular value of ``M``.

    The square root of the top eigenvalue (``numpy.linalg.eigvalsh``) of
    whichever of ``M M^T`` / ``M^T M`` is smaller, clamped at 0 against
    rounding.  For the factors the solvers pass in that Gram is r x r,
    so the exact spectrum is cheap, and a step of 1/L built from it is a
    descent step.

    A zero matrix returns 0; this is not an error.  A finite ``M`` whose Gram
    overflows has no finite top eigenvalue (or none ``eigvalsh`` can find):
    that raises ``NumericalFaultError``.
    """
    A = as_matrix(M, "M")
    B = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    try:
        top = np.linalg.eigvalsh(B)[-1]
    except np.linalg.LinAlgError:
        top = np.inf
    check_finite(top, "top eigenvalue of an overflowing Gram")
    return float(np.sqrt(max(top, 0.0)))
