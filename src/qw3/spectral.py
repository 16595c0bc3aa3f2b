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
from .linalg import TAU, angle_dist, cross2, eig2_batch, phase_fix
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

# A refined |chi| minimum at or below this value is accepted as a root.
CHI_ACCEPT = 1e-8

# Scan guard radius around the degenerate phases (transfer matrix blows up
# as its leading coefficient vanishes, poisoning refinement).
LAMBDA0_GUARD = 1e-6

# Certification threshold for ||U psi - e^{i lam} psi|| of accepted records.
RESIDUAL_TOL = 1e-8

# Accepted decay rates must be bounded away from the unit circle.
DECAY_MARGIN = 1e-6

# Two unit vectors are considered parallel when |cross| is below this.
PARALLEL_TOL = 1e-10

_GOLDEN_MAX_ITER = 200
_TAIL_CUTOFF = 1e-12


@dataclass(frozen=True)
class AsymptoticSpectrum:
    """Spectral data of one coin's transfer matrix at one phase.

    zeta_less / zeta_greater are the eigenvalues with modulus <= 1 and >= 1
    (their product has unit modulus); in_lambda reports |tr| > 2 + TR_TOL,
    the open condition under which the moduli split strictly and decaying
    tails exist. _asymptotic_batch fills the fields with arrays over phases.
    """

    zeta_less: complex
    zeta_greater: complex
    v_less: np.ndarray
    v_greater: np.ndarray
    in_lambda: bool


def _asymptotic_batch(
    coin: CoinMatrix, el: np.ndarray
) -> tuple[AsymptoticSpectrum, np.ndarray]:
    """Asymptotic spectra at an array of e^{i lam}, and the degenerate-phase mask."""
    t, zero = transfer_batch(coin, el)
    pairs = eig2_batch(*t)
    # |tr| > 2 with unit |det| already rules out a repeated eigenvalue; the
    # explicit check keeps a defective pair out of the arcs regardless
    in_lambda = (np.abs(t[0] + t[3]) > 2.0 + TR_TOL) & ~pairs.degenerate & ~zero
    swap = np.abs(pairs.zeta_plus) > np.abs(pairs.zeta_minus)
    vswap = swap[:, None]
    return AsymptoticSpectrum(
        np.where(swap, pairs.zeta_minus, pairs.zeta_plus),
        np.where(swap, pairs.zeta_plus, pairs.zeta_minus),
        np.where(vswap, pairs.v_minus, pairs.v_plus),
        np.where(vswap, pairs.v_plus, pairs.v_minus),
        in_lambda,
    ), zero


def asymptotic_spectrum(coin: CoinMatrix, lam: float) -> AsymptoticSpectrum:
    """Eigen-decomposition of the transfer matrix of a homogeneous region."""
    spec, zero = _asymptotic_batch(coin, np.exp(1j * np.array([lam])))
    if zero[0]:
        raise ValueError(
            f"transfer matrix degenerates at lam={lam!r}; this phase belongs to "
            "the exceptional set and must be adjudicated separately"
        )
    return AsymptoticSpectrum(spec.zeta_less[0], spec.zeta_greater[0], spec.v_less[0],
                              spec.v_greater[0], bool(spec.in_lambda[0]))


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


@dataclass(frozen=True)
class ChiSample:
    """chi evaluated at one phase, with validity flags.

    value is None off the allowed arcs, and where a transfer matrix in the
    chain cannot be built (only next to a degenerate phase).
    """

    lam: float
    value: complex | None
    in_lambda: bool
    near_lambda0: bool


def chi_batch(
    field: CoinField, lams: np.ndarray, lambda0_angles: list[float] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi at an array of phases, returned as (values, in_lambda, near_lambda0).

    chi(lam) = (T_{x_plus} ... T_{x_minus} v_greater(-inf)) x v_less(+inf),
    the ordered transfer product over the window (a loop over sites, each
    step applied to all phases at once) applied to the left tail's growing
    eigendirection, crossed against the right tail's decaying one. Its zeros
    on the allowed arcs are the eigenphases. A value is NaN where chi is
    undefined: off the arcs, or where a transfer matrix in the chain cannot
    be built (which marks the phase near_lambda0).
    """
    if lambda0_angles is None:
        lambda0_angles = lambda0_set(field)
    near = np.zeros(lams.shape, dtype=bool)
    for g in lambda0_angles:
        near |= angle_dist(lams, g) < LAMBDA0_GUARD
    el = np.exp(1j * lams)
    spec_minus, zero_minus = _asymptotic_batch(field.c_minus, el)
    spec_plus, zero_plus = _asymptotic_batch(field.c_plus, el)
    near |= zero_minus | zero_plus
    in_lambda = spec_minus.in_lambda & spec_plus.in_lambda
    idx = np.flatnonzero(in_lambda)
    e = el[idx]
    v0, v1 = spec_minus.v_greater[idx, 0], spec_minus.v_greater[idx, 1]
    hit = np.zeros(idx.shape, dtype=bool)
    for x in range(field.x_minus, field.x_plus + 1):
        (t00, t01, t10, t11), zero = transfer_batch(field.lookup(x), e)
        hit |= zero
        v0, v1 = t00 * v0 + t01 * v1, t10 * v0 + t11 * v1
    w = spec_plus.v_less[idx]
    values = np.full(lams.shape, np.nan, dtype=complex)
    values[idx] = np.where(hit, np.nan, v0 * w[:, 1] - v1 * w[:, 0])
    near[idx[hit]] = True
    return values, in_lambda, near


def chi(
    field: CoinField, lam: float, lambda0_angles: list[float] | None = None
) -> ChiSample:
    """chi_batch at one phase."""
    values, in_lambda, near = chi_batch(field, np.array([lam]), lambda0_angles)
    value = None if np.isnan(values[0]) else values[0]
    return ChiSample(lam, value, bool(in_lambda[0]), bool(near[0]))


@dataclass(frozen=True)
class EigenvalueRecord:
    """One certified point-spectrum member e^{i lam} with its eigenvector.

    zeta_right is the geometric decay rate for x >= x_plus and zeta_left the
    growth rate governing the left tail; both are 0 for purely compact
    (finitely supported) eigenvectors. chi_residual is |chi| at the refined
    root (0 for records found by the degenerate-phase adjudication, where chi
    is not defined). op_residual is ||U psi - e^{i lam} psi|| with U applied
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


def _canonical(psi: StateVector) -> StateVector:
    # anchor the global phase on a non-negligible entry, not a decayed tail
    unit = psi.normalized()
    amps = phase_fix(unit.amps.reshape(-1), tol=1e-6).reshape(-1, 3)
    return StateVector(unit.lo, unit.hi, amps)


def _tail_length(rate: float) -> int:
    # Sites needed before a geometric tail of modulus ratio rate drops below _TAIL_CUTOFF.
    if rate <= 0.0 or rate >= 1.0 - 1e-12:
        return 100_000
    return max(5, min(int(np.ceil(np.log(_TAIL_CUTOFF) / np.log(rate))), 100_000))


def _with_tails(
    lo: int, hi: int, start: int, values, rate_left: complex, rate_right: complex
) -> ReducedState:
    """The reduced state on [lo, hi] holding values from site start on.

    Beyond the last value it continues as rate_right**j times that value,
    before the first as rate_left**-j times that one.
    """
    grid = np.zeros((hi - lo + 1, 2), dtype=complex)
    first, last = start - lo, start - lo + len(values) - 1
    grid[first : last + 1] = values
    for j in range(1, hi - lo - last + 1):
        grid[last + j] = (rate_right**j) * grid[last]
    for j in range(1, first + 1):
        grid[first - j] = (rate_left ** (-j)) * grid[first]
    return ReducedState(lo, hi, grid)


def build_eigenvector(
    field: CoinField, lam: float, window: tuple[int, int] | None = None
) -> StateVector:
    """Reconstruct the (unit, phase-fixed) eigenvector for an eigenphase lam.

    The reduced state is the left tail's growing eigendirection, decayed
    geometrically for x <= x_minus, pushed through the window by the transfer
    chain, and continued with the right decay rate for x >= x_plus; it is then
    lifted back to three components. Raises if the supplied window cannot hold
    the tails down to the 1e-12 cutoff.
    """
    spec_minus = asymptotic_spectrum(field.c_minus, lam)
    spec_plus = asymptotic_spectrum(field.c_plus, lam)
    if not (spec_minus.in_lambda and spec_plus.in_lambda):
        raise ValueError(f"lam={lam!r} lies outside the allowed arcs")
    zg = spec_minus.zeta_greater
    zl = spec_plus.zeta_less
    m_left, m_right = _tail_length(1.0 / abs(zg)), _tail_length(abs(zl))
    lo, hi = field.x_minus - m_left, field.x_plus + m_right
    if window is not None:
        if window[0] > lo or window[1] < hi:
            raise ValueError(
                f"window {window} too small: tails need [{lo}, {hi}] "
                f"(m_left={m_left}, m_right={m_right})"
            )
        lo, hi = window
    values = _propagate(field, lam, spec_minus.v_greater, field.x_minus, field.x_plus)
    reduced = _with_tails(lo, hi, field.x_minus, values, zg, zl)
    return _canonical(iota_inverse(reduced, field, lam))


def _golden_min(f, a: np.ndarray, b: np.ndarray, tol: float):
    """Golden-section search on every bracket [a_k, b_k] in lockstep, in place.

    f maps an array of points to an array of values. Each bracket stops once
    narrower than tol, so it visits the same points as a search of its own.
    Returns the midpoints, f there, and which converged within the cap.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    for _ in range(_GOLDEN_MAX_ITER):
        done = b - a <= tol
        if done.all():
            break
        active = np.flatnonzero(~done)
        to_left = fc[active] < fd[active]
        lo, hi = active[to_left], active[~to_left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - (b[lo] - a[lo]) * invphi
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + (b[hi] - a[hi]) * invphi
        fc[lo], fd[hi] = np.split(f(np.concatenate([c[lo], d[hi]])), [len(lo)])
    x = 0.5 * (a + b)
    return x, f(x), done


def grid_samples(field: CoinField, grid_n: int) -> list[ChiSample]:
    """chi on the uniform grid over [0, 2pi)."""
    samples = zip(*_grid_samples(field, grid_n, lambda0_set(field)))
    return [ChiSample(float(lam), None if np.isnan(v) else v, bool(i), bool(n))
            for lam, v, i, n in samples]


def _grid_samples(field: CoinField, grid_n: int, guards: list[float]):
    """(phases, *chi_batch) on the uniform grid of grid_n phases over [0, 2pi)."""
    lams = np.arange(grid_n) * (TAU / grid_n)
    return (lams, *chi_batch(field, lams, guards))


def _make_record(
    field: CoinField, lam: float, chi_abs: float, diagnostics: list[dict]
) -> EigenvalueRecord | None:
    spec_minus = asymptotic_spectrum(field.c_minus, lam)
    spec_plus = asymptotic_spectrum(field.c_plus, lam)
    zl, zg = spec_plus.zeta_less, spec_minus.zeta_greater
    if abs(zl) > 1.0 - DECAY_MARGIN or abs(zg) < 1.0 + DECAY_MARGIN:
        diagnostics.append(
            {"kind": "marginal-decay", "lambda": lam,
             "zeta_right_abs": abs(zl), "zeta_left_abs": abs(zg)}
        )
        return None
    psi = build_eigenvector(field, lam)
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
    """Locate all eigenphases on the allowed arcs by scanning |chi|.

    Samples chi on a uniform grid over [0, 2pi) restricted to the allowed
    arcs (excluding a guard around the degenerate phases), brackets each local
    minimum of |chi|^2, narrows it by golden-section search to width
    refine_tol, and accepts the minimizer as a root iff |chi| <= CHI_ACCEPT
    there. Each accepted root is certified by reconstructing its eigenvector
    and checking the one-step residual against the direct simulator.
    """
    if grid_n < 1000:
        raise ValueError("grid_n must be at least 1000")
    if refine_tol <= 0:
        raise ValueError("refine_tol must be positive")
    guards = lambda0_set(field)
    lams, values, in_lambda, near = _grid_samples(field, grid_n, guards)
    ok = ~np.isnan(values) & in_lambda & ~near
    y = np.where(ok, np.abs(values) ** 2, np.inf)

    def objective(t: np.ndarray) -> np.ndarray:
        values, in_lambda, _ = chi_batch(field, t % TAU, guards)
        return np.where(in_lambda & ~np.isnan(values), np.abs(values) ** 2, np.inf)

    # local minima of |chi|^2 whose grid neighbours are both usable
    minima = np.flatnonzero(
        ok & np.roll(ok, 1) & np.roll(ok, -1) & (y <= np.roll(y, 1)) & (y <= np.roll(y, -1))
    )
    h = TAU / grid_n
    xs, fxs, converged = _golden_min(objective, lams[minima] - h, lams[minima] + h, refine_tol)
    accepted = converged & (np.sqrt(fxs) <= CHI_ACCEPT)
    # a simple root has |chi| growing linearly off the minimum; an
    # anomalously small slope would hint at a tangential (double) zero
    delta = max(1e-7, 10.0 * refine_tol)
    f_plus, f_minus = np.split(
        objective(np.concatenate([xs[accepted] + delta, xs[accepted] - delta])), 2
    )
    slopes = iter((np.sqrt(f_plus) + np.sqrt(f_minus)) / (2.0 * delta))

    diagnostics: list[dict] = []
    found: list[tuple[float, float]] = []
    for x, fx, conv, acc in zip(xs, fxs, converged, accepted):
        if not conv:
            diagnostics.append({"kind": "refine-nonconverged", "lambda": x % TAU})
        elif acc:
            found.append((x % TAU, float(np.sqrt(fx))))
            slope = next(slopes)
            if slope < 1e-3:
                diagnostics.append(
                    {"kind": "shallow-root", "lambda": x % TAU, "slope": float(slope)}
                )

    found.sort()
    records: list[EigenvalueRecord] = []
    for lam, chi_abs in found:
        if records and angle_dist(lam, records[-1].lam) <= 1e-9:
            continue
        record = _make_record(field, lam, chi_abs, diagnostics)
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
    if a_zero(coin, lam):
        left_vec, right_vec = zero_case_vectors(coin)
        vec = left_vec if right else right_vec
        return (vec if np.linalg.norm(vec) > 0 else None), 0j
    spectrum = asymptotic_spectrum(coin, lam)
    if not spectrum.in_lambda:
        return None, 0j
    if right:
        return spectrum.v_less, spectrum.zeta_less
    return spectrum.v_greater, spectrum.zeta_greater


def _propagate(field: CoinField, lam: float, start: np.ndarray, x_from: int, x_to: int):
    """Apply the transfer chain over sites [x_from, x_to); None on a degenerate hit."""
    el = np.exp(1j * lam)
    values = [start]
    for x in range(x_from, x_to):
        (t00, t01, t10, t11), zero = transfer_batch(field.lookup(x), el)
        if zero:
            return None
        values.append(np.array([[t00, t01], [t10, t11]]) @ values[-1])
    return values


def _segment_solutions(
    field: CoinField, lam: float, v_left: np.ndarray | None, v_right: np.ndarray | None
) -> list[tuple[int, list[np.ndarray]]]:
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

    solutions: list[tuple[int, list[np.ndarray]]] = []
    for start, anchor, end, end_dir in segments:
        if anchor is None or end_dir is None:
            continue
        values = _propagate(field, lam, anchor, start, end)
        if values is None:
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
        reduced, rate_left, rate_right = solution
        psi = _canonical(iota_inverse(reduced, field, lam))
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
) -> tuple[ReducedState, complex, complex] | None:
    """A nonzero square-summable reduced state at a degenerate phase, or None.

    Returns the state together with the left/right decay rates actually used
    (0 on a side where the constructed solution is compactly supported).
    """
    xm, xp = field.x_minus, field.x_plus

    # Compact bump strictly inside an asymptotic region: possible only when
    # that region's coin pins both neighbouring constraints to one direction.
    for coin, x in ((field.c_plus, xp + 1), (field.c_minus, xm - 1)):
        if a_zero(coin, lam) and compact_support_condition(coin):
            direction, _ = zero_case_vectors(coin)
            if np.linalg.norm(direction) > 0:
                return ReducedState(x, x, direction[None, :]), 0j, 0j

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
    m_left = _tail_length(1.0 / abs(rate_left)) if rate_left else 0
    m_right = _tail_length(abs(rate_right)) if rate_right else 0
    reduced = _with_tails(start - m_left, end + m_right, start, values, rate_left, rate_right)
    return reduced, rate_left, rate_right
