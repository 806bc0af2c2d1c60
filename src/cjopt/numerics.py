"""Dense complex linear algebra helpers used by every other module.

Complex matrices and vectors are plain ``numpy`` arrays with dtype
``complex128``; these functions add the Hermitian checks and the
conditioning guards that the solvers rely on.
"""

import numpy as np

from .errors import IllConditioned, NotHermitian, NotPSD

HERMITIAN_RTOL = 1e-12
COND_LIMIT = 1e12


def _as_complex(a):
    return np.asarray(a, dtype=np.complex128)


def check_hermitian(A, rtol=HERMITIAN_RTOL):
    """Raise NotHermitian unless max|A - A^H| <= rtol * max|A|."""
    A = _as_complex(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotHermitian(f"expected square matrix, got shape {A.shape}")
    scale = np.abs(A).max() if A.size else 0.0
    dev = np.abs(A - A.conj().T).max() if A.size else 0.0
    if dev > rtol * max(scale, 1e-300):
        raise NotHermitian(f"deviation {dev:.3e} exceeds {rtol:.0e} * {scale:.3e}")
    return A


def hermitian_cond(A):
    """Condition estimate of a Hermitian matrix: ratio of extreme |eigenvalues|."""
    w = np.linalg.eigvalsh(A)
    hi = np.abs(w).max()
    lo = np.abs(w).min()
    if lo == 0.0:
        return np.inf
    return hi / lo


def hermitian_solve(A, B):
    """Solve A X = B for Hermitian positive-definite A.

    Raises NotHermitian or IllConditioned (condition estimate > 1e12,
    signalling a degenerate channel draw).
    """
    A = check_hermitian(A)
    B = _as_complex(B)
    if hermitian_cond(A) > COND_LIMIT:
        raise IllConditioned("Hermitian solve: condition estimate exceeds 1e12")
    return np.linalg.solve(A, B)


def eig_hermitian(A):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted in
    descending order and unitary eigenvector columns, so that
    A = V diag(w) V^H.
    """
    A = check_hermitian(A)
    w, V = np.linalg.eigh(A)
    return w[::-1].copy(), V[:, ::-1].copy()


def psd_sqrt(A):
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-1e-10 * max_eig, 0) are clamped to zero (round-off
    from Gram products); anything lower raises NotPSD.
    """
    w, V = eig_hermitian(A)
    wmax = max(w.max(initial=0.0), 0.0)
    tol = 1e-10 * wmax
    if w.min(initial=0.0) < -tol:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -1e-10 * {wmax:.3e}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T

