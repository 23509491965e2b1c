"""Self-contained numerical kernels.

Dense linear solve with partial pivoting and a symmetric tridiagonal
eigensolver.  All functions are pure; nothing here keeps state between
calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergenceError, SingularMatrixError

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


def sym_tridiag_eigen(diagonal, off_diagonal, max_sweeps: int = 50):
    """Eigen-decompose a symmetric tridiagonal matrix.

    Implicit-shift QL iteration with first-eigenvector-component tracking
    (the classic Golub-Welsch trick: weights only need the first row of the
    eigenvector matrix, so full accumulation is skipped).

    Returns ``(eigenvalues, first_components)`` with eigenvalues ascending
    and ``first_components[j]`` the first entry of the normalized
    eigenvector for ``eigenvalues[j]``.
    """
    d = np.array(diagonal, dtype=float, copy=True).ravel()
    n = d.shape[0]
    e_in = np.array(off_diagonal, dtype=float, copy=True).ravel()
    if n == 0:
        raise ValueError("empty diagonal")
    if e_in.shape[0] != n - 1:
        raise ValueError(f"off-diagonal length {e_in.shape[0]}, expected {n - 1}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e_in))):
        raise ValueError("tridiagonal entries must be finite")

    e = np.zeros(n)
    e[: n - 1] = e_in
    z = np.zeros(n)
    z[0] = 1.0

    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise NoConvergenceError(f"eigenvalue {l} did not converge in {max_sweeps} sweeps")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0

    order = np.argsort(d, kind="stable")
    return d[order], z[order]
