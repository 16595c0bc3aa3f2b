"""Dense-diagonalization reference for the point spectrum of a coin field.

The oracle diagonalizes the walk operator truncated to [-L, L] with hard
walls. It shares no code with the transfer-matrix reduction: a phase counts
as a point-spectrum member when the truncated operator has an eigenvalue of
unit modulus whose eigenvector vanishes at the walls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qw3 import CoinField

TAU = 2.0 * np.pi

UNIT_TOL = 1e-8  # | |z| - 1 | for a resolved eigenvalue
WALL_TOL = 1e-7  # amplitude a resolved eigenvector may keep on the walls
MERGE_TOL = 1e-6  # phases closer than this are one eigenphase
# A nearly unit eigenvalue whose vector reaches the walls but keeps most of
# its weight in the inner half of the box is a slowly decaying localized
# state cut off by the truncation. Such phases are not counted, but a
# reported phase near one is not called spurious either.
CUT_UNIT_TOL = 1e-4
CUT_INNER_WEIGHT = 0.9
CUT_MATCH_TOL = 1e-4
# Sites of free tail on each side of the defect window.
TAIL = 64
# Tails of the larger boxes that `confirm_phase` tries, in order, for a
# reported phase the first box lacks: a localized state that decays over
# hundreds of sites only settles in a box that wide. A 4096-site tail took
# minutes near a dense cluster of eigenvalues, so the search stops at 1024.
CONFIRM_TAILS = (256, 1024)
# Arnoldi iterations per box; the eigenpairs converged by then are used.
CONFIRM_MAXITER = 300


def _walk_entries(field: CoinField, half_width: int):
    """(rows, cols, values) of U = S C on [-L, L]: component 1 moves left,
    3 right, 2 stays."""
    n = 2 * half_width + 1
    rows, cols, vals = [], [], []
    # row (site i, component k) is coin row k of the site j it comes from:
    # i + 1 for k = 0, i for k = 1, i - 1 for k = 2
    for i, x in enumerate(range(-half_width, half_width + 1)):
        for k, j in ((0, i + 1), (1, i), (2, i - 1)):
            if 0 <= j < n:
                rows += [3 * i + k] * 3
                cols += range(3 * j, 3 * j + 3)
                vals += list(field.lookup(x + j - i).mat[k])
    return rows, cols, vals


def walk_operator(field: CoinField, half_width: int) -> np.ndarray:
    """Dense U = S C on [-L, L]."""
    n = 3 * (2 * half_width + 1)
    rows, cols, vals = _walk_entries(field, half_width)
    u = np.zeros((n, n), dtype=complex)
    u[rows, cols] = vals
    return u


def _merge(angles: list[float]) -> list[float]:
    merged: list[float] = []
    for a in sorted(angles):
        if not merged or a - merged[-1] > MERGE_TOL:
            merged.append(a)
    if len(merged) > 1 and merged[0] + TAU - merged[-1] <= MERGE_TOL:
        merged.pop()
    return merged


@dataclass(frozen=True)
class DenseSpectrum:
    """Eigenphases of the truncated operator on [-half_width, half_width].

    resolved: localized eigenphases whose vectors vanish at the walls.
    cut: localized eigenphases whose tails the box cuts off.
    """

    resolved: list[float]
    cut: list[float]
    half_width: int


def _localized(vals: np.ndarray, vecs: np.ndarray, half_width: int):
    """(angles, resolved mask, cut mask) of eigenpairs of the truncated operator."""
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    wall = np.maximum(np.abs(vecs[:3]).max(axis=0), np.abs(vecs[-3:]).max(axis=0))
    off = np.abs(np.abs(vals) - 1.0)
    n_sites = 2 * half_width + 1
    quarter = n_sites // 4
    inner = (np.abs(vecs[3 * quarter : 3 * (n_sites - quarter)]) ** 2).sum(axis=0)
    resolved = (off <= UNIT_TOL) & (wall <= WALL_TOL)
    cut = ~resolved & (off <= CUT_UNIT_TOL) & (inner >= CUT_INNER_WEIGHT)
    return np.angle(vals) % TAU, resolved, cut


def dense_point_spectrum(field: CoinField) -> DenseSpectrum:
    """Dense-diagonalization reference for the point spectrum of a field."""
    half_width = max(-field.x_minus, field.x_plus) + TAIL
    vals, vecs = np.linalg.eig(walk_operator(field, half_width))
    angles, resolved, cut = _localized(vals, vecs, half_width)
    return DenseSpectrum(
        _merge([float(a) for a in angles[resolved]]),
        _merge([float(a) for a in angles[cut]]),
        half_width,
    )


def confirm_phase(field: CoinField, lam: float) -> bool:
    """Whether a larger box has a localized eigenphase at lam.

    For a phase that `dense_point_spectrum` lacks. Each box of
    CONFIRM_TAILS in turn is searched by sparse shift-invert for the
    eigenvalues nearest e^{i lam}; lam is confirmed as soon as one of them is
    resolved within MERGE_TOL or cut within CUT_MATCH_TOL, the same tests as
    in the first box.
    """
    # imported here, so that scipy stays out of the benchmark's set-up and
    # resident memory unless a phase needs confirming
    import scipy.sparse
    import scipy.sparse.linalg

    for tail in CONFIRM_TAILS:
        half_width = max(-field.x_minus, field.x_plus) + tail
        n = 3 * (2 * half_width + 1)
        rows, cols, entries = _walk_entries(field, half_width)
        u = scipy.sparse.csc_matrix((entries, (rows, cols)), shape=(n, n))
        try:
            vals, vecs = scipy.sparse.linalg.eigs(u, k=6, sigma=np.exp(1j * lam),
                                                  maxiter=CONFIRM_MAXITER)
        except scipy.sparse.linalg.ArpackNoConvergence as e:
            vals, vecs = e.eigenvalues, e.eigenvectors
        angles, resolved, cut = _localized(vals, vecs, half_width)
        dist = np.abs((angles - lam + np.pi) % TAU - np.pi)
        if np.any(resolved & (dist <= MERGE_TOL)) or np.any(cut & (dist <= CUT_MATCH_TOL)):
            return True
    return False


def match_phases(found: list[float], reference: list[float], tol: float = MERGE_TOL):
    """(unmatched found, unmatched reference), pairing within circular distance tol."""
    ref_left = list(reference)
    spurious = []
    for lam in found:
        dist = [min(abs(lam - r) % TAU, TAU - abs(lam - r) % TAU) for r in ref_left]
        if dist and min(dist) <= tol:
            ref_left.pop(int(np.argmin(dist)))
        else:
            spurious.append(lam)
    return spurious, ref_left
