"""Point-spectrum analysis: allowed arcs, the chi matching function, root
scanning with refinement, and reconstruction of localized eigenvectors.

An eigenphase candidate lam admits a square-summable eigenvector iff the
reduced state can decay on both half-lines and the interior transfer chain
connects the two decaying directions. chi(lam) measures the mismatch: it is
the cross product of the left-growing direction propagated through the window
against the right-decaying direction, and its zeros on the allowed arcs are
exactly the eigenphases. The finitely many phases where a transfer matrix
cannot be built are adjudicated separately through their rank-one constraint
chains.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .coin import CoinField, CoinMatrix
from .evolution import StateVector, apply_u
from .linalg import TAU, Eig2, angle_dist, cross2, eig2_batch, phase_fix
from .transfer import (
    ReducedState,
    a_zero,
    compact_support_condition,
    iota_inverse,
    lambda0_angle,
    transfer_batch,
    zero_case_vectors,
)

log = logging.getLogger(__name__)

# |tr| must exceed 2 by this margin before a phase counts as inside the
# allowed arcs; the boundary band has measure zero and carries no roots.
TR_TOL = 1e-9

# A converged secant run is a root candidate when it ends this close to the
# real axis (in phase units): a unitary walk has no eigenvalue off the circle.
IM_TOL = 1e-9

# Scan guard radius around the degenerate phases (transfer matrix blows up
# as its leading coefficient vanishes, poisoning refinement).
LAMBDA0_GUARD = 1e-6

# Certification threshold for ||U psi - e^{i lam} psi|| of accepted records.
RESIDUAL_TOL = 1e-8

# Accepted decay rates must be bounded away from the unit circle.
DECAY_MARGIN = 1e-6

# Two unit vectors are considered parallel when |cross| is below this.
PARALLEL_TOL = 1e-10

_SECANT_MAX_ITER = 60
_TAIL_CUTOFF = 1e-12


def asymptotic_spectrum(
    coin: CoinMatrix, el: np.ndarray
) -> tuple[Eig2, np.ndarray, np.ndarray]:
    """Spectra of a coin's transfer matrices at an array of e^{i lam}.

    Returns the eigenpairs ordered by modulus (their eigenvalues' product has
    unit modulus), in_lambda, the open condition |tr| > 2 + TR_TOL under which
    the moduli split strictly and decaying tails exist, and the mask of the
    degenerate phases, where no transfer matrix can be built.
    """
    t, zero = transfer_batch(coin, el)
    pairs = eig2_batch(*t)
    # |tr| > 2 with unit |det| already rules out a repeated eigenvalue; the
    # explicit check keeps a defective pair out of the arcs regardless
    in_lambda = (np.abs(t[0] + t[3]) > 2.0 + TR_TOL) & ~pairs.degenerate & ~zero
    return pairs, in_lambda, zero


def lambda0_set(field: CoinField) -> list[float]:
    """Sorted degenerate phases of all distinct coins (deduplicated)."""
    angles: list[float] = []
    for coin in field.distinct_coins():
        ang = lambda0_angle(coin)
        if ang is None:
            continue
        if not any(angle_dist(ang, seen) <= 1e-12 for seen in angles):
            angles.append(ang)
    return sorted(angles)


def chi_batch(
    field: CoinField, lams: np.ndarray, lambda0_angles: list[float] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi at an array of phases, returned as (values, in_lambda, near_lambda0).

    chi(lam) = (T_{x_plus} ... T_{x_minus} v_greater(-inf)) x v_less(+inf),
    the ordered transfer product over the window (a loop over sites, each
    step applied to all phases at once) applied to the left tail's growing
    eigenvector, crossed against the right tail's decaying one. Its zeros on
    the allowed arcs are the eigenphases. The tail eigenvectors are not
    normalised, and each eigenvalue is picked by modulus, so chi is analytic
    in a complex lam near the arcs; near_lambda0 is decided by Re lam. A
    value is NaN where chi is undefined: off the arcs, or where a transfer
    matrix in the chain cannot be built (which marks the phase near_lambda0).
    """
    if lambda0_angles is None:
        lambda0_angles = lambda0_set(field)
    near = np.zeros(lams.shape, dtype=bool)
    for g in lambda0_angles:
        near |= angle_dist(lams.real, g) < LAMBDA0_GUARD
    el = np.exp(1j * lams)
    left, in_left, zero_left = asymptotic_spectrum(field.c_minus, el)
    right, in_right, zero_right = asymptotic_spectrum(field.c_plus, el)
    near |= zero_left | zero_right
    in_lambda = in_left & in_right
    idx = np.flatnonzero(in_lambda)
    e = el[idx]
    v0, v1 = left.v_greater[idx, 0], left.v_greater[idx, 1]
    hit = np.zeros(idx.shape, dtype=bool)
    for x in range(field.x_minus, field.x_plus + 1):
        (t00, t01, t10, t11), zero = transfer_batch(field.lookup(x), e)
        hit |= zero
        v0, v1 = t00 * v0 + t01 * v1, t10 * v0 + t11 * v1
    w = right.v_less[idx]
    values = np.full(lams.shape, np.nan, dtype=complex)
    values[idx] = np.where(hit, np.nan, v0 * w[:, 1] - v1 * w[:, 0])
    near[idx[hit]] = True
    return values, in_lambda, near


@dataclass(frozen=True)
class EigenvalueRecord:
    """One certified point-spectrum member e^{i lam} with its eigenvector.

    zeta_right is the geometric decay rate for x >= x_plus and zeta_left the
    growth rate governing the left tail; both are 0 for purely compact
    (finitely supported) eigenvectors. chi_residual is |chi_batch| at the
    refined root (0 for records found by the degenerate-phase adjudication,
    where chi is not defined). op_residual is ||U psi - e^{i lam} psi|| with U applied
    by the direct simulator.
    """

    lam: float
    chi_residual: float
    zeta_left: complex
    zeta_right: complex
    eigvec: StateVector
    op_residual: float
    source: str  # "chi-root" or "lambda0-compact"


@dataclass
class RootScan:
    """Outcome of a root scan: certified records plus non-fatal diagnostics."""

    records: list[EigenvalueRecord]
    diagnostics: list[dict]


def operator_residual(field: CoinField, lam: float, psi: StateVector) -> float:
    """||U psi - e^{i lam} psi|| / ||psi||, U applied by the direct simulator."""
    pad = 2
    lo, hi = psi.lo - pad, psi.hi + pad
    amps = np.zeros((hi - lo + 1, 3), dtype=complex)
    amps[pad : pad + psi.amps.shape[0]] = psi.amps
    embedded = StateVector(lo, hi, amps)
    stepped = apply_u(field, embedded)
    diff = stepped.amps - np.exp(1j * lam) * amps
    return float(np.linalg.norm(diff) / np.linalg.norm(amps))


def _tail_length(rate: float) -> int:
    # Sites needed before a geometric tail of modulus ratio rate drops below _TAIL_CUTOFF.
    if rate >= 1.0 - 1e-12:
        return 100_000
    return max(5, min(int(np.ceil(np.log(_TAIL_CUTOFF) / np.log(rate))), 100_000))


def _lift(
    field: CoinField, lam: float, start: int, values: np.ndarray, rate_left: complex,
    rate_right: complex,
) -> StateVector:
    """The unit, phase-fixed eigenvector whose reduced state holds values from start on.

    A side with a nonzero rate gets a geometric tail, rate_left**-j before
    the first value and rate_right**j beyond the last, cut where it falls
    below _TAIL_CUTOFF; a side with a zero rate is compact and gets none.
    The reduced state is then lifted back to three components.
    """
    m_left = _tail_length(1.0 / abs(rate_left)) if rate_left else 0
    m_right = _tail_length(abs(rate_right)) if rate_right else 0
    last = m_left + len(values) - 1
    grid = np.zeros((last + 1 + m_right, 2), dtype=complex)
    grid[m_left : last + 1] = values
    grid[last + 1 :] = rate_right ** np.arange(1, m_right + 1)[:, None] * grid[last]
    grid[:m_left] = rate_left ** -np.arange(m_left, 0, -1)[:, None] * grid[m_left]
    reduced = ReducedState(start - m_left, start - m_left + len(grid) - 1, grid)
    psi = iota_inverse(reduced, field, lam).normalized()
    # anchor the global phase on a non-negligible entry, not a decayed tail
    amps = phase_fix(psi.amps.reshape(-1), tol=1e-6).reshape(-1, 3)
    return StateVector(psi.lo, psi.hi, amps)


def _chains(field: CoinField, lams: np.ndarray):
    """Window chains and tail rates at an array of phases.

    The left tail's growing eigenvector is pushed through the window by the
    transfer chain. Returns the values at sites x_minus..x_plus (stacked on
    the first axis), the left tail's zeta_greater, the right tail's
    zeta_less, and ok: both tails on the allowed arcs and every transfer
    matrix of the chain built.
    """
    el = np.exp(1j * lams)
    left, in_left, _ = asymptotic_spectrum(field.c_minus, el)
    right, in_right, _ = asymptotic_spectrum(field.c_plus, el)
    chains, hit = _propagate(field, el, left.v_greater, field.x_minus, field.x_plus)
    return chains, left.zeta_greater, right.zeta_less, in_left & in_right & ~hit


def build_eigenvector(field: CoinField, lam: float) -> StateVector:
    """Reconstruct the (unit, phase-fixed) eigenvector for an eigenphase lam.

    The reduced state is the left tail's growing eigendirection, decayed
    geometrically for x <= x_minus, pushed through the window by the transfer
    chain, and continued with the right decay rate for x >= x_plus; it is then
    lifted back to three components. This is the construction find_roots
    certifies, so at a record's phase it returns the record's eigenvector.
    """
    chains, zg, zl, ok = _chains(field, np.array([lam]))
    if not ok[0]:
        raise ValueError(f"lam={lam!r} lies outside the allowed arcs or where a "
                         "transfer matrix of the window cannot be built")
    return _lift(field, lam, field.x_minus, chains[:, 0], zg[0], zl[0])


def _secant(f, x0: np.ndarray, x1: np.ndarray, tol: float):
    """Complex secant iterations from every pair (x0_k, x1_k) in lockstep, in place.

    f maps an array of complex points to an array of values, NaN where it is
    undefined. A run converges once its step is at most tol, and fails where
    it meets an undefined value or two equal ones. Returns the end points,
    which runs converged, and which were still running at the cap.
    """
    f0, f1 = np.split(f(np.concatenate([x0, x1])), 2)
    converged = np.zeros(x1.shape, dtype=bool)
    running = ~np.isnan(f0) & ~np.isnan(f1)
    for _ in range(_SECANT_MAX_ITER):
        k = np.flatnonzero(running)
        if not k.size:
            break
        df = f1[k] - f0[k]
        running[k[df == 0]] = False
        k, df = k[df != 0], df[df != 0]
        step = f1[k] * (x1[k] - x0[k]) / df
        x0[k], f0[k] = x1[k], f1[k]
        x1[k] -= step
        done = np.abs(step) <= tol
        converged[k[done]] = True
        running[k[done]] = False
        k = k[~done]
        f1[k] = f(x1[k])
        running[k] = ~np.isnan(f1[k])
    return x1, converged, running


def _make_record(
    field: CoinField, lam: float, chi_abs: float, values: np.ndarray, zg: complex,
    zl: complex, diagnostics: list[dict],
) -> EigenvalueRecord | None:
    """Certify a root from its window values and tail rates, or report why not."""
    if abs(zl) > 1.0 - DECAY_MARGIN or abs(zg) < 1.0 + DECAY_MARGIN:
        diagnostics.append(
            {"kind": "marginal-decay", "lambda": lam,
             "zeta_right_abs": abs(zl), "zeta_left_abs": abs(zg)}
        )
        return None
    psi = _lift(field, lam, field.x_minus, values, zg, zl)
    residual = operator_residual(field, lam, psi)
    if residual > RESIDUAL_TOL:
        diagnostics.append(
            {"kind": "residual-violation", "lambda": lam, "op_residual": residual}
        )
        return None
    return EigenvalueRecord(lam, chi_abs, zg, zl, psi, residual, "chi-root")


def find_roots(
    field: CoinField, grid_n: int = 4000, refine_tol: float = 1e-12
) -> RootScan:
    """Locate all eigenphases on the allowed arcs as the real zeros of chi.

    Samples chi on a uniform grid over [0, 2pi) restricted to the allowed
    arcs (excluding a guard around the degenerate phases) and seeds a complex
    secant run at each local minimum of |chi|, an unusable neighbour counting
    as infinite. A run stops once its step is at most refine_tol; it is a root
    iff it then lies within IM_TOL of the real axis. Runs that meet an
    undefined chi end as non-roots, and roots closer than 1e-9 are merged.
    Each root is certified by reconstructing its eigenvector and checking the
    one-step residual against the direct simulator.
    """
    if grid_n < 1000:
        raise ValueError("grid_n must be at least 1000")
    if refine_tol <= 0:
        raise ValueError("refine_tol must be positive")
    guards = lambda0_set(field)
    lams = np.arange(grid_n) * (TAU / grid_n)
    values, _, near = chi_batch(field, lams, guards)
    y = np.where(~np.isnan(values) & ~near, np.abs(values), np.inf)
    minima = np.flatnonzero((y < np.inf) & (y <= np.roll(y, 1)) & (y <= np.roll(y, -1)))

    def chi_at(z: np.ndarray) -> np.ndarray:
        values, _, near = chi_batch(field, z, guards)
        return np.where(near, np.nan, values)

    x0 = lams[minima].astype(complex)
    xs, converged, stalled = _secant(chi_at, x0, x0 + TAU / grid_n / 4, refine_tol)
    diagnostics: list[dict] = [{"kind": "refine-nonconverged", "lambda": float(x.real % TAU)}
                               for x in xs[stalled]]
    merged: list[float] = []
    for lam in np.sort(xs[converged & (np.abs(xs.imag) <= IM_TOL)].real % TAU):
        if not merged or angle_dist(lam, merged[-1]) > 1e-9:
            merged.append(lam)
    if len(merged) > 1 and angle_dist(merged[0], merged[-1]) <= 1e-9:
        merged.pop()
    # a simple root has |chi| growing linearly off it; an anomalously small
    # slope would hint at a tangential (double) zero
    delta = max(1e-7, 10.0 * refine_tol)
    roots = np.array(merged)
    at, plus, minus = np.split(np.abs(chi_at(np.concatenate([roots, roots + delta,
                                                             roots - delta]))), 3)
    # certify every root whose real part lies on the arcs, the tails and the
    # window chain computed for all of them at once
    keep = ~np.isnan(at)
    roots, at, slopes = roots[keep], at[keep], ((plus + minus) / (2.0 * delta))[keep]
    chains, zg, zl, _ = _chains(field, roots)
    records: list[EigenvalueRecord] = []
    for k, lam in enumerate(roots.tolist()):
        if slopes[k] < 1e-3:
            diagnostics.append({"kind": "shallow-root", "lambda": lam, "slope": float(slopes[k])})
        record = _make_record(field, lam, float(at[k]), chains[:, k], zg[k], zl[k],
                              diagnostics)
        if record is not None:
            records.append(record)
    return RootScan(records, diagnostics)


# --- adjudication of the degenerate phases ---------------------------------


def _tail(coin: CoinMatrix, lam: float, right: bool) -> tuple[np.ndarray | None, complex]:
    """Admissible direction of the reduced state at a window edge, and its rate.

    coin is the asymptotic coin beyond that edge: c_plus seen from the right
    (right=True, direction at x_plus), c_minus seen from the left (at
    x_minus). The rate is 0 for a compact tail. None means only the zero
    tail is square-summable.
    """
    pairs, in_lambda, zero = asymptotic_spectrum(coin, np.exp(1j * np.array([lam])))
    if zero[0]:
        left_vec, right_vec = zero_case_vectors(coin)
        vec = left_vec if right else right_vec
        return (vec if np.linalg.norm(vec) > 0 else None), 0j
    if not in_lambda[0]:
        return None, 0j
    if right:
        vec, rate = pairs.v_less[0], pairs.zeta_less[0]
    else:
        vec, rate = pairs.v_greater[0], pairs.zeta_greater[0]
    return vec / np.linalg.norm(vec), rate


def _propagate(field: CoinField, el, start: np.ndarray, x_from: int, x_to: int):
    """The transfer chain over sites [x_from, x_to) applied to start.

    el is e^{i lam}, a scalar or an array of n phases, and start has shape
    (2,) or (n, 2). Returns the values at sites x_from..x_to stacked on a
    new first axis, and where a transfer matrix could not be built.
    """
    values = [start]
    hit = np.zeros(np.shape(el), dtype=bool)
    for x in range(x_from, x_to):
        (t00, t01, t10, t11), zero = transfer_batch(field.lookup(x), el)
        hit |= zero
        v0, v1 = values[-1][..., 0], values[-1][..., 1]
        values.append(np.stack([t00 * v0 + t01 * v1, t10 * v0 + t11 * v1], axis=-1))
    return np.array(values), hit


def _segment_solutions(
    field: CoinField, lam: float, v_left: np.ndarray | None, v_right: np.ndarray | None
) -> list[tuple[int, np.ndarray]]:
    """Nonzero solutions of the rank-one constraint chain at a degenerate phase.

    The window splits into segments at the sites whose transfer matrix cannot
    be built. Each segment is anchored on a one-dimensional subspace at its
    left end (the boundary tail direction v_left, or the rank-one direction
    handed over by the break on its left) and must land, after the transfer
    chain, on the subspace required at its right end (v_right for the last).
    Every viable segment yields an independent eigenvector; segments are
    returned as (start position, values).
    """
    xm, xp = field.x_minus, field.x_plus
    breaks = [x for x in range(xm, xp) if a_zero(field.lookup(x), lam)]

    segments: list[tuple[int, np.ndarray | None, int, np.ndarray | None]] = []
    start, anchor = xm, v_left
    for b in breaks:
        end_dir, next_anchor = zero_case_vectors(field.lookup(b))
        segments.append((start, anchor,
                         b, end_dir if np.linalg.norm(end_dir) > 0 else None))
        start = b + 1
        anchor = next_anchor if np.linalg.norm(next_anchor) > 0 else None
    segments.append((start, anchor, xp, v_right))

    solutions: list[tuple[int, np.ndarray]] = []
    for start, anchor, end, end_dir in segments:
        if anchor is None or end_dir is None:
            continue
        values, hit = _propagate(field, np.exp(1j * lam), anchor, start, end)
        if hit:
            continue
        final = values[-1]
        n = np.linalg.norm(final)
        if n == 0.0 or abs(cross2(final / n, end_dir)) > PARALLEL_TOL:
            continue
        solutions.append((start, values))
    return solutions


def lambda0_adjudicate(field: CoinField) -> list[EigenvalueRecord]:
    """Decide, for each degenerate phase, whether it carries an eigenvalue.

    At such a phase the transfer recursion is replaced by rank-one constraints
    wherever it degenerates. Three mechanisms can produce a square-summable
    solution: a compactly supported bump inside an asymptotic region whose
    coin admits compact tails, a viable constraint-chain segment through the
    window, or a combination anchored on a geometrically decaying tail. Each
    phase that admits one yields a certified record; phases that admit none
    are dropped.
    """
    records: list[EigenvalueRecord] = []
    for lam in lambda0_set(field):
        solution = _lambda0_solution(field, lam)
        if solution is None:
            continue
        start, values, rate_left, rate_right = solution
        psi = _lift(field, lam, start, values, rate_left, rate_right)
        residual = operator_residual(field, lam, psi)
        if residual > RESIDUAL_TOL:
            log.warning("degenerate-phase candidate at lam=%.12f rejected: "
                        "residual %.3e", lam, residual)
            continue
        records.append(
            EigenvalueRecord(
                lam, 0.0, rate_left, rate_right, psi, residual, "lambda0-compact"
            )
        )
    return records


def _lambda0_solution(
    field: CoinField, lam: float
) -> tuple[int, np.ndarray, complex, complex] | None:
    """A nonzero square-summable reduced state at a degenerate phase, or None.

    Returns it as _lift takes it: the first site, the values from there on,
    and the left/right tail rates (0 on a side where the solution is
    compactly supported).
    """
    xm, xp = field.x_minus, field.x_plus

    # Compact bump strictly inside an asymptotic region: possible only when
    # that region's coin pins both neighbouring constraints to one direction.
    for coin, x in ((field.c_plus, xp + 1), (field.c_minus, xm - 1)):
        if a_zero(coin, lam) and compact_support_condition(coin):
            direction, _ = zero_case_vectors(coin)
            if np.linalg.norm(direction) > 0:
                return x, direction[None, :], 0j, 0j

    v_left, rate_left = _tail(field.c_minus, lam, right=False)
    v_right, rate_right = _tail(field.c_plus, lam, right=True)
    solutions = _segment_solutions(field, lam, v_left, v_right)
    if not solutions:
        return None
    if len(solutions) > 1:
        log.info("degenerate phase lam=%.12f admits %d independent constraint-chain "
                 "solutions; building the leftmost", lam, len(solutions))
    start, values = solutions[0]
    end = start + len(values) - 1
    # a geometric tail continues the solution only where it reaches a window
    # edge; where it ends at a break it stops there (compact on that side)
    if start != xm:
        rate_left = 0j
    if end != xp:
        rate_right = 0j
    return start, values, rate_left, rate_right
