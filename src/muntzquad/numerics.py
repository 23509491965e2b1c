"""Self-contained numerical kernels.

Dense linear solve with partial pivoting.  All functions are pure; nothing
here keeps state between calls.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

_EPS = np.finfo(float).eps


def solve_dense(a, b) -> np.ndarray:
    """Solve the square system ``a @ p = b`` by LU with partial pivoting.

    Raises ``SingularMatrixError`` when an entry is not finite or a pivot
    magnitude falls below ``n * eps * norm_inf(a)``, which is how a
    degenerate Jacobian surfaces to the Newton driver.
    """
    lu = np.array(a, dtype=float, copy=True)
    rhs = np.array(b, dtype=float, copy=True).ravel()
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
        raise ValueError(f"matrix must be square, got shape {lu.shape}")
    n = lu.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix order {n}")
    if not np.all(np.isfinite(lu)) or not np.all(np.isfinite(rhs)):
        raise SingularMatrixError("matrix and rhs entries must be finite")

    norm = float(np.abs(lu).sum(axis=1).max()) if n else 0.0
    threshold = n * _EPS * norm
    perm = np.arange(n)

    for k in range(n - 1):
        pivot_row = k + int(np.argmax(np.abs(lu[k:, k])))
        if pivot_row != k:
            lu[[k, pivot_row]] = lu[[pivot_row, k]]
            perm[[k, pivot_row]] = perm[[pivot_row, k]]
        pivot = lu[k, k]
        if abs(pivot) <= threshold:
            raise SingularMatrixError(f"pivot {pivot:.3e} below threshold {threshold:.3e} at column {k}")
        factors = lu[k + 1 :, k] / pivot
        lu[k + 1 :, k] = factors
        lu[k + 1 :, k + 1 :] -= np.outer(factors, lu[k, k + 1 :])
    if n and abs(lu[n - 1, n - 1]) <= threshold:
        raise SingularMatrixError(f"pivot {lu[n - 1, n - 1]:.3e} below threshold {threshold:.3e} at column {n - 1}")

    x = rhs[perm]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
    return x
