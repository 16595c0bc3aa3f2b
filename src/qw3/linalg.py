"""Phase arithmetic and 2x2 complex linear algebra kernels.

The eigenpair kernel takes a stack of 2x2 matrices entry by entry, as
arrays of dtype complex128, so one call serves a whole phase grid, and
returns one eigenpair per matrix, that of larger or of smaller modulus, as
the caller asks. No general matrix sizes: the transfer reduction only ever
needs 2x2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TAU = 2.0 * np.pi


def angle_dist(a, b):
    """Distance between two phases on the circle, in [0, pi], elementwise on arrays."""
    d = np.abs(a - b) % TAU
    return np.minimum(d, TAU - d)


def wrap_phase(a):
    """A phase reduced to [0, 2pi), elementwise on arrays.

    a % TAU alone rounds a tiny negative a up to TAU itself; that maps to 0.
    """
    a = a % TAU
    return a - TAU * (a == TAU)


def branch_sqrt(a):
    """Square root with the argument taken in [0, 2pi), elementwise on arrays.

    Writing a = |a| e^{i theta} with theta in [0, 2pi), returns
    sqrt(|a|) e^{i theta/2}, so the image always lies in the closed upper
    half-plane (argument in [0, pi)).
    """
    theta = np.arctan2(a.imag, a.real)  # np.angle, without its Python wrapper
    theta = np.where(theta < 0.0, theta + TAU, theta)
    return np.sqrt(np.abs(a)) * np.exp(0.5j * theta)


class Eig2(NamedTuple):
    """One eigenpair per matrix of a stack of shape s: the eigenvalue zeta (s)
    and its unnormalised eigenvector v (s + (2,))."""

    zeta: np.ndarray
    v: np.ndarray


def _norm(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    return np.sqrt((u0.real * u0.real + u1.real * u1.real)
                   + (u0.imag * u0.imag + u1.imag * u1.imag))


def eig2_batch(m00, m01, m10, m11, greater) -> Eig2:
    """One eigenpair of each of a stack of 2x2 complex matrices.

    The matrices are given entry by entry as arrays of one shape; greater, a
    boolean array broadcasting against them, picks per matrix the eigenvalue
    of larger modulus where true and of smaller modulus where false. The
    eigenvalues are (tr +/- branch_sqrt(tr^2 - 4 det)) / 2; where their moduli
    tie the + branch counts as the smaller. The eigenvector is the kernel of
    (m - zeta I) read off its first row unless the second is more than twice
    as well conditioned, and left unnormalised, so that it is analytic in the
    entries wherever zeta is. (Where the two rows tie, as they do for every
    phase of the Fourier coin, picking the larger one would switch rows on
    rounding noise, and the vector would jump by a unit factor.) The two
    eigenvalues must be distinct, as they are for a transfer matrix on the
    arcs (|tr| > 2 with |det| = 1, so the moduli split); at a repeated one
    the chosen row may vanish, and v with it.
    """
    tr = m00 + m11
    s = branch_sqrt(tr * tr - 4.0 * (m00 * m11 - m01 * m10))
    zp, zm = 0.5 * (tr + s), 0.5 * (tr - s)
    zeta = np.where((np.abs(zp) > np.abs(zm)) == greater, zp, zm)
    r0, r1 = zeta - m00, zeta - m11
    first = 2.0 * _norm(m01, r0) >= _norm(r1, m10)
    v = np.empty((*zeta.shape, 2), dtype=zeta.dtype)
    v[..., 0], v[..., 1] = np.where(first, m01, r1), np.where(first, r0, m10)
    return Eig2(zeta, v)


def norm(v: np.ndarray):
    """np.linalg.norm of a 1-D or C-contiguous complex array, same arithmetic, less overhead."""
    v = v.reshape(-1)
    return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def cross2(u: np.ndarray, v: np.ndarray) -> complex:
    """Cross product on C^2: [u1 u2] x [v1 v2] = u1 v2 - u2 v1."""
    return u[0] * v[1] - u[1] * v[0]


def phase_fix(v: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Rotate the global phase of each vector along v's last axis so its first
    non-negligible entry is real positive. A vector with no such entry (the zero
    vector, or tol >= 1) is kept, and v itself is returned if none has one."""
    a = np.abs(v)
    above = a > tol * a.max(axis=-1, keepdims=True, initial=0.0)
    found = above.any(axis=-1, keepdims=True)
    if not found.any():
        return v
    entry = np.where(found, np.take_along_axis(v, above.argmax(axis=-1)[..., None], -1), 1.0)
    return np.where(found, v * (entry.conj() / np.hypot(entry.real, entry.imag)), v)
