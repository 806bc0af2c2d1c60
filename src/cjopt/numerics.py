"""Dense complex linear algebra helpers used by every other module.

Complex matrices and vectors are plain ``numpy`` arrays with dtype
``complex128``; these functions add the Hermitian checks and the
conditioning guards that the solvers rely on.
"""

import numpy as np

from .errors import IllConditioned, NotHermitian, RankDeficient

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


def well_conditioned(M, hermitian=False):
    """True when the 2-norm condition number of M is finite and at most
    COND_LIMIT: the test every solver applies before inverting M. The
    ratio of the extreme singular values (for hermitian=True the absolute
    eigenvalues, which cost less) is np.linalg.cond(M) without its overhead."""
    s = np.linalg.svd(M, compute_uv=False, hermitian=hermitian)
    return bool(s[-1] > 0.0 and s[0] / s[-1] <= COND_LIMIT)


def hermitian_solve(A, B):
    """Solve A X = B for Hermitian positive-definite A.

    Raises NotHermitian, or IllConditioned unless A is well_conditioned
    (a degenerate channel draw).
    """
    A = check_hermitian(A)
    B = _as_complex(B)
    if not well_conditioned(A):
        raise IllConditioned("Hermitian solve: condition number exceeds 1e12")
    return np.linalg.solve(A, B)


def gamma_nullspace_param(G):
    """(particular, basis) for G^H Gamma^H = I: particular = G (G^H G)^{-1}
    meets it, and basis has orthonormal columns spanning null(G^H), so
    Gamma^H = particular diag(x) + basis @ W gives G^H Gamma^H = diag(x)
    for arbitrary W. Raises RankDeficient if G loses full column rank."""
    G = np.asarray(G, dtype=np.complex128)
    Z = G.shape[1]
    U, s, _ = np.linalg.svd(G, full_matrices=True)
    if s.size < Z or s.min() <= 1e-12 * max(s.max(), 1e-300):
        raise RankDeficient("G is not full column rank")
    particular = G @ np.linalg.solve(G.conj().T @ G, np.eye(Z, dtype=np.complex128))
    return particular, U[:, Z:]
