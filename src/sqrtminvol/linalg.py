"""Dense numerical kernels used by every solver in the package.

All matrices are plain 2-D ``numpy.ndarray`` objects in row-major order,
dtype float64.  Problem sizes here are small (a few dozen rows, a few
thousand columns at most), so everything stays dense and there is no
sparse path on purpose.  The only factorization the solvers need is the
Cholesky factor of an r x r shifted Gram, so ``numpy.linalg`` covers it
and the package depends on numpy alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NotPositiveDefiniteError

__all__ = [
    "SpdFactor",
    "as_matrix",
    "frobenius_norm",
    "gram_shifted",
    "cholesky",
    "cholesky_shifted",
    "logdet_spd",
    "logdet_shifted",
    "solve_spd",
    "spectral_norm",
]


def as_matrix(M, name="matrix", require_finite=True):
    """Coerce ``M`` to a 2-D float64 array, optionally checking finiteness.

    Parameters
    ----------
    M : array_like
        Input data interpreted as a dense matrix.
    name : str
        Label used in error messages.
    require_finite : bool
        When True, any NaN or Inf entry raises ``InvalidInputError``.

    Returns
    -------
    numpy.ndarray
        C-contiguous float64 view or copy of the input.
    """
    A = np.ascontiguousarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {A.shape}")
    if require_finite and not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def frobenius_norm(M):
    """Frobenius norm, the square root of the sum of squared entries.

    Returns 0 exactly when ``M`` is all zeros.  Non-finite entries raise
    ``InvalidInputError``.
    """
    A = as_matrix(M, "M")
    return float(np.sqrt(np.sum(A * A)))


def gram_shifted(W, delta):
    """Shifted Gram matrix ``W^T W + delta * I``.

    The shift keeps the Gram positive definite even when ``W`` is
    rank-deficient, which the volume penalty relies on.

    Parameters
    ----------
    W : array_like, shape (m, r)
    delta : float
        Positive shift added to the diagonal.

    Returns
    -------
    numpy.ndarray, shape (r, r)
        Exactly symmetric output with diagonal entries >= delta.
    """
    if not (float(delta) > 0.0):
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    A = as_matrix(W, "W")
    G = A.T @ A
    # Matrix products are only symmetric up to rounding; make it exact.
    G = 0.5 * (G + G.T)
    G[np.diag_indices_from(G)] += float(delta)
    return G


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor ``L`` with ``L L^T = Q``.

    Attributes
    ----------
    dim : int
        Order of the factored matrix.
    lower : numpy.ndarray, shape (dim, dim)
        Lower-triangular factor; all diagonal entries strictly positive.
    """

    dim: int
    lower: np.ndarray


def cholesky(Q):
    """Cholesky factorization of a symmetric positive definite matrix.

    Parameters
    ----------
    Q : array_like, shape (r, r)
        Must be symmetric to 1e-10 absolute.

    Returns
    -------
    SpdFactor

    Raises
    ------
    NotPositiveDefiniteError
        If a non-positive pivot is encountered.  This signals that the
        diagonal shift was too small or that something upstream broke;
        it is never masked by ad-hoc regularization here.
    """
    A = as_matrix(Q, "Q")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"Q must be square, got shape {A.shape}")
    if np.max(np.abs(A - A.T)) > 1e-10:
        raise InvalidInputError("Q is not symmetric (tolerance 1e-10)")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky failed, matrix is not positive definite: {exc}"
        ) from exc
    return SpdFactor(dim=A.shape[0], lower=L)


def logdet_spd(Q):
    """log-determinant of a symmetric positive definite matrix.

    Computed as ``2 * sum(log(diag(L)))`` from the Cholesky factor,
    which is stable for the well-conditioned shifted Grams used here.
    """
    F = cholesky(Q)
    return float(2.0 * np.sum(np.log(np.diag(F.lower))))


def _delta_too_small(delta):
    return NotPositiveDefiniteError(
        f"W^T W + delta I is not numerically positive definite at "
        f"delta={float(delta):.17g}; use a larger delta"
    )


def cholesky_shifted(W, delta):
    """Cholesky factor of ``W^T W + delta I``; a failure names ``delta``."""
    try:
        return cholesky(gram_shifted(W, delta))
    except NotPositiveDefiniteError as exc:
        raise _delta_too_small(delta) from exc


def logdet_shifted(W, delta):
    """``logdet(W^T W + delta I)``; a failure names ``delta``."""
    try:
        return logdet_spd(gram_shifted(W, delta))
    except NotPositiveDefiniteError as exc:
        raise _delta_too_small(delta) from exc


def solve_spd(F, B):
    """Solve ``Q Y = B`` given the Cholesky factor of ``Q``.

    Two solves against the factor: ``L Z = B``, then ``L^T Y = Z``.

    Parameters
    ----------
    F : SpdFactor
    B : array_like, shape (F.dim, k)

    Returns
    -------
    numpy.ndarray, shape (F.dim, k)
    """
    RHS = as_matrix(B, "B")
    if RHS.shape[0] != F.dim:
        raise InvalidInputError(
            f"dimension mismatch: factor is {F.dim}x{F.dim}, B has {RHS.shape[0]} rows"
        )
    return np.linalg.solve(F.lower.T, np.linalg.solve(F.lower, RHS))


def spectral_norm(M):
    """Largest singular value of ``M``.

    The square root of the top eigenvalue (``numpy.linalg.eigvalsh``) of
    whichever of ``M M^T`` / ``M^T M`` is smaller, clamped at 0 against
    rounding.  For the factors the solvers pass in that Gram is r x r,
    so the exact spectrum is cheap, and a step of 1/L built from it is a
    descent step.

    A zero matrix returns 0; this is not an error.
    """
    A = as_matrix(M, "M")
    B = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.sqrt(max(np.linalg.eigvalsh(B)[-1], 0.0)))
