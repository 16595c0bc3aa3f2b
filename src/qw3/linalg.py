"""Small fixed-size complex linear algebra kernels.

Everything here works on plain numpy arrays of shape (2,), (3,), (2, 2) or
(3, 3) with dtype complex128. No general n x n machinery: the scan loops only
ever need these sizes, and fixed shapes keep them allocation-light.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi

# Relative threshold below which tr^2 - 4 det is treated as zero and the
# 2x2 eigenproblem reported as degenerate.
DEGENERATE_TOL = 1e-12


def angle_dist(a, b):
    """Distance between two phases on the circle, in [0, pi], elementwise on arrays."""
    d = np.abs(a - b) % TAU
    return np.minimum(d, TAU - d)


def branch_sqrt(a):
    """Square root with the argument taken in [0, 2pi), elementwise on arrays.

    Writing a = |a| e^{i theta} with theta in [0, 2pi), returns
    sqrt(|a|) e^{i theta/2}, so the image always lies in the closed upper
    half-plane (argument in [0, pi)).
    """
    theta = np.angle(a)
    theta = np.where(theta < 0.0, theta + TAU, theta)
    return np.sqrt(np.abs(a)) * np.exp(0.5j * theta)


@dataclass(frozen=True)
class Eig2:
    """Eigenpairs of a 2x2 matrix (of a stack of n, as (n,)/(n, 2) arrays)."""

    zeta_plus: complex
    zeta_minus: complex
    v_plus: np.ndarray
    v_minus: np.ndarray
    degenerate: bool


def _norm(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:  # np.linalg.norm's sum order
    return np.sqrt((u0.real * u0.real + u1.real * u1.real)
                   + (u0.imag * u0.imag + u1.imag * u1.imag))


def _eigenvector(m00, m01, m10, m11, zeta, floor):
    # Kernel of (m - zeta I); both candidate rows are tried and the better
    # conditioned one kept. ok is False where even that one is negligible.
    r0, r1 = zeta - m00, zeta - m11
    n1, n2 = _norm(m01, r0), _norm(r1, m10)
    first = n1 >= n2
    n = np.where(first, n1, n2)
    v = np.stack([np.where(first, m01, r1), np.where(first, r0, m10)], axis=-1)
    return v / np.where(n > floor, n, 1.0)[:, None], n > floor


def eig2_batch(m00, m01, m10, m11) -> Eig2:
    """Eigenvalues and unit eigenvectors of a stack of 2x2 complex matrices.

    The matrices are given entry by entry as arrays of shape (n,). zeta_plus
    and zeta_minus use the + and - branch of
    (tr +/- branch_sqrt(tr^2 - 4 det)) / 2. A (numerically) repeated
    eigenvalue sets the degenerate flag; a defective matrix then reports the
    single eigendirection for both vectors.
    """
    tr = m00 + m11
    det = m00 * m11 - m01 * m10
    disc = tr * tr - 4.0 * det
    degenerate = np.abs(disc) <= DEGENERATE_TOL * np.maximum(1.0, np.abs(tr) ** 2)
    s = branch_sqrt(disc)
    zp, zm = 0.5 * (tr + s), 0.5 * (tr - s)
    floor = 1e-14 * np.maximum(1.0, np.abs([m00, m01, m10, m11]).max(axis=0))
    vp, ok_p = _eigenvector(m00, m01, m10, m11, zp, floor)
    vm, ok_m = _eigenvector(m00, m01, m10, m11, zm, floor)
    # Where one vector is missing the other stands in for it; where both are,
    # m is (close to) a multiple of the identity: any orthonormal pair.
    v_plus = np.where(ok_p[:, None], vp, np.where(ok_m[:, None], vm, [1.0, 0.0]))
    v_minus = np.where(ok_m[:, None], vm, np.where(ok_p[:, None], vp, [0.0, 1.0]))
    return Eig2(zp, zm, v_plus, v_minus, degenerate | ~ok_p | ~ok_m)


def eig2(m: np.ndarray) -> Eig2:
    """eig2_batch for a single 2x2 matrix."""
    p = eig2_batch(*np.asarray(m, dtype=complex).reshape(4, 1))
    return Eig2(p.zeta_plus[0], p.zeta_minus[0], p.v_plus[0], p.v_minus[0], bool(p.degenerate[0]))


def cross2(u: np.ndarray, v: np.ndarray) -> complex:
    """Cross product on C^2: [u1 u2] x [v1 v2] = u1 v2 - u2 v1."""
    return u[0] * v[1] - u[1] * v[0]


def phase_fix(v: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Rotate a vector's global phase so its first non-negligible entry is real positive."""
    mx = float(np.abs(v).max(initial=0.0))
    if mx == 0.0:
        return v
    for entry in v.flat:
        if abs(entry) > tol * mx:
            return v * (entry.conjugate() / abs(entry))
    return v
