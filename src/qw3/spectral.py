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

from .coin import CoinField
from .evolution import StateVector, _steps, coin_stack
from .linalg import TAU, angle_dist, cross2, eig2_batch, wrap_phase
from .transfer import MODULUS_TOL, lift_rows, transfer_rows

log = logging.getLogger(__name__)

# |tr| must exceed 2 by this margin before a phase counts as inside the
# allowed arcs; the boundary band has measure zero and carries no roots.
TR_TOL = 1e-9

# A converged secant run is a root candidate when it ends this close to the
# real axis (in phase units): a unitary walk has no eigenvalue off the circle.
IM_TOL = 1e-9

# Certification threshold for ||U psi - e^{i lam} psi|| of accepted records.
RESIDUAL_TOL = 1e-8

# Accepted decay rates lie this far from the unit circle, tails no longer than _TAIL_SITES.
DECAY_MARGIN = 1e-6

# Two unit vectors are considered parallel when |cross| is below this.
PARALLEL_TOL = 1e-10

_SECANT_MAX_ITER = 60
# A secant run stops before chi is asked past this |Im x|. Measured on windows of
# at most 32 sites (chi finite to 16, root runs within 4.9); longer ones are not.
_SECANT_ESCAPE = 8.0
_TAIL_CUTOFF, _TAIL_SITES = 1e-12, 100_000

# Elements (coins x phases) per transfer_rows call: the scan's thousands of
# phases stream a site or two at a time, while a secant step, a chain or a
# degenerate phase gets its whole window in one broadcast. Also about the
# rows (sites) of eigenvectors per operator_residual call.
_BLOCK = 4096


def _blocks(table: np.ndarray, el: np.ndarray):
    """(first column, transfer_rows) of table's columns in blocks of at most _BLOCK elements."""
    step, inv = max(1, _BLOCK // max(len(el), 1)), 1.0 / el[None, :]
    for a in range(0, table.shape[1], step):
        yield a, transfer_rows(table[:, a : a + step], el, inv)


def _chain(field: CoinField, el: np.ndarray, start: np.ndarray, x_from: int, x_to: int,
           backward: bool = False, out: np.ndarray | None = None):
    """The site loop: the transfer chain over sites [x_from, x_to) applied to start.

    start, (n, 2), holds n states at x_from, or at x_to when backward (T_x^-1 = adj(T_x)/det(T_x)
    carries x + 1 to x), el their n values e^{i lam}; out, (sites + 1, n, 2), if given, takes
    the state at every site from x_from to x_to, start included. Returns the end state's
    components and the mask, (sites, n) in step order, of the sites whose transfer matrix could
    not be built. There the rank-one constraint steps: forward, the state beyond the site
    becomes the direction its coin hands on; backward, the state at the site the one it
    requires (field.constraint_table)."""
    lo, hi = x_from - field.x_minus + 1, x_to - field.x_minus + 1
    cols, (required, handed) = field.transfer_table[:, lo:hi], field.constraint_table
    turns = required[lo:hi][::-1] if backward else handed[lo:hi]
    if out is not None:
        out = out[::-1] if backward else out
        out[0] = start
    v0, v1, masks = start[:, 0], start[:, 1], [np.zeros((0, len(el)), dtype=bool)]
    for a, ((t00, t01, t10, t11), zero) in _blocks(cols[:, ::-1].copy() if backward else cols, el):
        if backward:
            det = np.where(zero, 1.0, t00 * t11 - t01 * t10)
            t00, t01, t10, t11 = t11 / det, -t01 / det, -t10 / det, t00 / det
        breaks = zero.any(axis=1).tolist()  # once per block, not a mask test per site
        for k, r00, r01, r10, r11, brk in zip(range(a, a + len(zero)), t00, t01, t10, t11, breaks):
            v0, v1 = r00 * v0 + r01 * v1, r10 * v0 + r11 * v1
            if brk:
                w = turns[k]
                v0, v1 = np.where(zero[k - a], w[0], v0), np.where(zero[k - a], w[1], v1)
            if out is not None:
                out[k + 1, :, 0], out[k + 1, :, 1] = v0, v1
        masks.append(zero)
    return v0, v1, np.concatenate(masks)


def _tail_pairs(field: CoinField, el: np.ndarray, either: bool = False):
    """The tails at an array of e^{i lam}: c_minus's and c_plus's (in_lambda, zero), each
    (n,): the open condition |tr| > 2 + TR_TOL under which the moduli split strictly (as
    eig2_batch requires) and decaying tails exist, and transfer_rows' mask; idx, the phases
    where both tails (or either) are on the arcs; and one eig2_batch call's pairs there,
    (2, len(idx)): c_minus's growing one over c_plus's decaying one."""
    table = field.transfer_table
    same = table[:, 0].tobytes() == table[:, -1].tobytes()  # then one row serves both
    blocks, tails = [], []
    for _, (t, zero) in _blocks(table[:, :1] if same else table[:, [0, -1]], el):
        blocks.append(t)
        tails += zip((np.abs(t[0] + t[3]) > 2.0 + TR_TOL) & ~zero, zero)
    (in_left, _), (in_right, _) = tails[0], tails[-1]
    idx = np.flatnonzero(in_left | in_right if either else in_left & in_right)
    t = [e.take(idx, axis=1) for e in blocks[0]]
    if len(blocks) > 1:  # a block per tail
        t = [np.concatenate((e, f.take(idx, axis=1))) for e, f in zip(t, blocks[1])]
    return tails[0], tails[-1], idx, eig2_batch(*t, np.array([[True], [False]]))


def lambda0_set(field: CoinField) -> list[float]:
    """Sorted degenerate phases of the field's coins, read off transfer_table:
    e^{i lam} = e^{i Delta} conj(a33) / a11 wherever |a11| = |a33| (to
    MODULUS_TOL). Phases within 1e-12 of one another count once, as the first
    seen of c_minus, c_plus, then the defects."""
    n = len(field.defects)
    order = np.array([0, n + 1, *range(1, n + 1)])
    diag = field.coin_table[order][:, [0, 2], [0, 2]]  # a11, a33
    mod = np.hypot(diag.real, diag.imag)  # abs(), bit for bit, unlike np.abs
    level = np.abs(mod[:, 0] - mod[:, 1]) <= MODULUS_TOL
    if (level & (mod[:, 0] <= MODULUS_TOL)).any():
        # a11 ~ a33 ~ 0 would degenerate the recursion at every phase
        log.warning("coin with vanishing (1,1) and (3,3) entries: no isolated "
                    "degenerate phase exists")
    a11, da33 = field.transfer_table[:2, order[level & (mod[:, 0] > MODULUS_TOL)]]
    phases = wrap_phase(np.angle(da33 / a11))
    close = (angle_dist(phases[:, None], phases) <= 1e-12).tolist()
    kept: list[int] = []
    for i, row in enumerate(close):
        if not any(row[j] for j in kept):
            kept.append(i)
    return sorted(phases[kept].tolist())


def chi_batch(field: CoinField, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi at an array of phases, returned as (values, in_lambda, near_lambda0).

    chi(lam) = (T_{x_plus} ... T_{x_minus} v_greater(-inf)) x v_less(+inf),
    the ordered transfer product over the window (the site loop of _chain,
    each step applied to all phases at once) applied to the left tail's growing
    eigenvector, crossed against the right tail's decaying one. Its zeros on
    the allowed arcs are the eigenphases. The tail eigenvectors are not
    normalised, and each eigenvalue is picked by modulus, so chi is analytic
    in a complex lam near the arcs. near_lambda0 is transfer_rows' mask: a
    tail's transfer matrix, or on the arcs a window site's, cannot be built
    at the phase. A value is NaN where chi is undefined: off the arcs, or
    where near_lambda0 holds.
    """
    el = np.exp(1j * lams)
    (in_left, zero_left), (in_right, zero_right), idx, (_, (left, right)) = _tail_pairs(field, el)
    in_lambda, near = in_left & in_right, zero_left | zero_right
    v0, v1, zeros = _chain(field, el[idx], left, field.x_minus, field.x_plus + 1)
    hit = zeros.any(axis=0)
    values = np.full(lams.shape, np.nan, dtype=complex)
    values[idx] = np.where(hit, np.nan, v0 * right[:, 1] - v1 * right[:, 0])
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


def operator_residual(field: CoinField, lam, psi):
    """||U psi - e^{i lam} psi|| / ||psi||, U applied by the direct simulator; an
    array of them for an array of phases and a list of states, stepped as one
    window by one _steps call with two empty sites either side of each: a
    row depends only on its neighbours, so each has the bits of a lone call."""
    psis = [psi] if isinstance(psi, StateVector) else psi
    if not psis:
        return np.zeros(0)
    sizes = np.array([len(p.amps) + 4 for p in psis])
    ends = np.cumsum(sizes)
    amps = np.zeros((ends[-1], 3), dtype=complex)
    for p, end in zip(psis, ends.tolist()):
        amps[end - 2 - len(p.amps) : end - 2] = p.amps
    stepped = next(_steps(coin_stack(field, _runs([p.lo - 2 for p in psis], sizes)), amps,
                          [(0, len(amps) - 1)]))[0]  # the coins go with the generator
    diff = np.repeat(np.exp(1j * np.atleast_1d(lam)), sizes)[:, None] * amps
    np.subtract(stepped.T, diff, out=diff)
    out = np.sqrt(_sq_sums(diff, ends - sizes) / _sq_sums(amps, ends - sizes))
    return float(out[0]) if isinstance(psi, StateVector) else out


def _sq_sums(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum |a|^2 over each run of rows of a (n, 3), from starts[k] to starts[k + 1]
    (the last to the end): a run's sum depends only on its own rows."""
    return np.add.reduceat(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag), starts)


def _runs(starts, counts) -> np.ndarray:
    """The ranges starts[k] .. starts[k] + counts[k] - 1 (counts an array), concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _tail_sites(rates: np.ndarray) -> np.ndarray:
    """Sites of the geometric tails of rates ((2, n): left, right) above _TAIL_CUTOFF, >= 5."""
    mod = np.hypot(rates.real, rates.imag)  # abs(rate), bit for bit, unlike np.abs
    with np.errstate(divide="ignore"):
        sites = np.ceil(np.log(_TAIL_CUTOFF) / np.log([1.0 / mod[0], mod[1]]))
    return np.where(mod > 0.0, np.maximum(sites, 5), 0)


def _lift(field: CoinField, candidates: list) -> list[StateVector]:
    """The unit, phase-fixed eigenvectors of candidates (lam, start, values, rate_left,
    rate_right): values from start on, and a geometric tail, rate_left**-j before them
    and rate_right**j after, on _tail_sites sites, where a rate is not 0. The states
    lie side by side, each followed by a zero row, for one lift_rows call."""
    lams, starts, values, *rates = zip(*candidates)
    rates = np.array(rates, dtype=complex)  # (2, n): left, right
    tails = _tail_sites(rates).astype(int)
    lengths = np.array([len(v) for v in values])
    sizes = tails.sum(axis=0) + lengths + 1
    offsets = np.cumsum(sizes) - sizes
    first = offsets + tails[0]
    grid = np.zeros((sizes.sum(), 2), dtype=complex)
    grid.reshape(-1)[_runs(2 * first, 2 * lengths)] = np.concatenate(values).reshape(-1)
    # each tail: its rows from tail0 on, grown by powers of its rate from the value at its end
    ends, counts = np.concatenate([first, first + lengths - 1]), tails.reshape(-1)
    tail0 = np.concatenate([offsets, first + lengths])
    powers = rates.reshape(-1).repeat(counts) ** (_runs(tail0, counts) - ends.repeat(counts))
    grid.reshape(-1)[_runs(2 * tail0, 2 * counts)] = (
        powers[:, None] * grid[ends].repeat(counts, axis=0)).reshape(-1)
    los = np.array(starts) - tails[0] - 1
    amps = lift_rows(field, _runs(los, sizes), grid, np.repeat(np.exp(1j * np.array(lams)), sizes))
    amps /= np.repeat(np.sqrt(_sq_sums(amps, offsets)), sizes)[:, None]
    # each state's phase: its first entry above 1e-6 of its largest made real positive
    mod = np.abs(amps).reshape(-1)
    above = mod > np.repeat(1e-6 * np.maximum.reduceat(mod, 3 * offsets), 3 * sizes)
    pick = np.minimum.reduceat(np.where(above, np.arange(mod.size), mod.size), 3 * offsets)
    e = np.where(pick < mod.size, amps.reshape(-1)[np.minimum(pick, mod.size - 1)], 1.0)
    amps *= np.repeat(e.conj() / np.abs(e), sizes)[:, None]
    return [StateVector(lo, lo + n - 1, amps[i : i + n])
            for lo, i, n in zip(los.tolist(), offsets.tolist(), sizes.tolist())]


def _chains(field: CoinField, lams: np.ndarray):
    """Window chains and tail rates at an array of phases.

    The left tail's growing eigenvector is pushed forward (F), the right
    tail's decaying one backward (B); each is accurate until rounding noise
    grows in it. A chain is F up to the site j where min(|F_j|/max|F|,
    |B_j|/max|B|) peaks and B scaled by <B_j, F_j>/<B_j, B_j> beyond. Returns
    ok, the phases (indices) where both tails are on the arcs and every
    transfer matrix through x_plus is built, and there the chains at sites
    x_minus..x_plus (first axis), the tails' rates (_tail_pairs' zeta) and
    chi_batch's values, from F pushed through x_plus (the same products).
    """
    *_, idx, (rates, (left, right)) = _tail_pairs(field, np.exp(1j * lams))
    el = np.exp(1j * lams[idx])
    f = np.empty((field.x_plus - field.x_minus + 2, len(idx), 2), dtype=complex)
    v0, v1, zeros = _chain(field, el, left, field.x_minus, field.x_plus + 1, out=f)
    chi, f, b = v0 * right[:, 1] - v1 * right[:, 0], f[:-1], np.empty_like(f[:-1])
    _chain(field, el, right, field.x_minus, field.x_plus, backward=True, out=b)
    nf, nb = np.linalg.norm(f, axis=-1), np.linalg.norm(b, axis=-1)
    j = np.argmax(np.minimum(nf / nf.max(axis=0), nb / nb.max(axis=0)), axis=0)
    fj, bj = f[j, np.arange(len(idx))], b[j, np.arange(len(idx))]
    scale = (bj.conj() * fj).sum(axis=-1) / (bj.conj() * bj).sum(axis=-1)
    chains = np.where((np.arange(len(f))[:, None] > j)[..., None], scale[:, None] * b, f)
    ok = ~zeros.any(axis=0)
    return idx[ok], chains[:, ok], rates[:, ok], chi[ok]


def build_eigenvector(field: CoinField, lam: float) -> StateVector:
    """Reconstruct the (unit, phase-fixed) eigenvector for an eigenphase lam.

    Its reduced state is the window chain of _chains with geometric tails
    beyond both window edges, lifted back to three components. This is the
    construction find_roots certifies, so at a record's phase it returns the
    record's eigenvector.
    """
    ok, chains, rates, _ = _chains(field, np.array([lam]))
    if not ok.size:
        raise ValueError(f"lam={lam!r} lies outside the allowed arcs or where a "
                         "transfer matrix of the window cannot be built")
    return _lift(field, [(lam, field.x_minus, chains[:, 0], *rates[:, 0])])[0]


def _secant(f, x0: np.ndarray, f0: np.ndarray, x1: np.ndarray, tol: float, bound: float):
    """Complex secant iterations from every pair (x0_k, x1_k) in lockstep, in place.

    f maps an array of complex points to an array of values, NaN where it is
    undefined; f0 holds its values at x0. A run converges once its step is at
    most tol, fails where it meets an undefined value or two equal ones, and
    escapes, before f is evaluated there, at a new point with |Im| not <= bound.
    Returns the end points, which runs converged, which still ran at the cap
    and which escaped. f is asked only at a nonempty array of points.
    """
    f1 = f(x1) if x1.size else x1.copy()
    converged, escaped = np.zeros(x1.shape, dtype=bool), np.zeros(x1.shape, dtype=bool)
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
        out = ~done & ~(np.abs(x1[k].imag) <= bound)
        converged[k[done]], escaped[k[out]], running[k[done | out]] = True, True, False
        k = k[~done & ~out]
        if k.size:
            f1[k] = f(x1[k])
            running[k] = ~np.isnan(f1[k])
    return x1, converged, running, escaped


def _certify(field: CoinField, candidates: list, source: str, chis: list | None = None,
             tail_rates: list | None = None) -> tuple[list[EigenvalueRecord], list[dict]]:
    """Certify candidates (lam, start, values, rate_left, rate_right) together: the records
    (abs chi from chis, else 0) and the rejecting diagnostics, each in candidate order;
    marginal-decay for a nonzero tail rate (its own, or its phase's in tail_rates) within
    DECAY_MARGIN of 1 or an own tail longer than _TAIL_SITES, residual-violation for a
    one-step residual not <= RESIDUAL_TOL."""
    own = np.array([c[3:] for c in candidates], dtype=complex).reshape(-1, 2).T
    tails = own if tail_rates is None else np.array(tail_rates, dtype=complex).reshape(-1, 2).T
    mod, sites = np.hypot(tails.real, tails.imag), _tail_sites(own)  # mod: abs(), bit for bit
    marginal = (((mod[1] > 1.0 - DECAY_MARGIN) & (mod[1] > 0.0)) | ((mod[0] < 1.0 + DECAY_MARGIN)
                & (mod[0] > 0.0)) | (np.max(sites, axis=0, initial=0) > _TAIL_SITES))
    out = [{"kind": "marginal-decay", "lambda": c[0], "zeta_right_abs": right,
            "zeta_left_abs": left} if m else None
           for c, m, left, right in zip(candidates, marginal, *mod.tolist())]
    live = [k for k, o in enumerate(out) if o is None]
    rows = np.cumsum(sites.sum(axis=0)[live] + [len(candidates[k][2]) for k in live])
    cut = [0, *(np.flatnonzero(np.diff(rows // _BLOCK)) + 1).tolist(), len(live)]
    for run in (live[a:b] for a, b in zip(cut, cut[1:]) if a < b):  # about _BLOCK rows each
        lams = np.array([candidates[k][0] for k in run])
        psis = _lift(field, [candidates[k] for k in run])
        for k, lam, psi, residual in zip(run, lams.tolist(), psis,
                                         operator_residual(field, lams, psis).tolist()):
            out[k] = (EigenvalueRecord(lam, 0.0 if chis is None else chis[k], *candidates[k][3:],
                                       psi, residual, source)
                      if residual <= RESIDUAL_TOL else  # NaN fails too
                      {"kind": "residual-violation", "lambda": lam, "op_residual": residual})
    return [o for o in out if not isinstance(o, dict)], [o for o in out if isinstance(o, dict)]


def find_roots(
    field: CoinField, grid_n: int = 4000, refine_tol: float = 1e-12
) -> RootScan:
    """Locate all eigenphases on the allowed arcs as the real zeros of chi.

    Samples chi on a uniform grid over [0, 2pi) and seeds a complex secant
    run at each local minimum of |chi|, an undefined neighbour counting as
    infinite. chi is undefined off the arcs and where transfer_rows' mask
    says a transfer matrix cannot be built; no wider band is cut around the
    degenerate phases. A run stops once its step is at most refine_tol; it
    is a root iff it then lies within IM_TOL of the real axis. Runs that
    meet an undefined chi end as non-roots. A run escapes past |Im| =
    _SECANT_ESCAPE, chi unasked there. Roots closer than 1e-9 are merged and
    certified together (_certify), their eigenvectors lifted side by side
    and stepped by the direct simulator in a few passes.
    """
    if grid_n < 1000:
        raise ValueError("grid_n must be at least 1000")
    if not refine_tol > 0:  # NaN too: no secant run could converge
        raise ValueError("refine_tol must be positive")
    lams = np.arange(grid_n) * (TAU / grid_n)
    values = chi_batch(field, lams)[0]
    y = np.where(np.isnan(values), np.inf, np.abs(values))
    minima = np.flatnonzero((y < np.inf) & (y <= np.roll(y, 1)) & (y <= np.roll(y, -1)))
    x0 = lams[minima].astype(complex)
    # the grid's values at x0 are the bits a fresh call would return
    xs, converged, stalled, escaped = _secant(lambda z: chi_batch(field, z)[0], x0, values[minima],
                                              x0 + TAU / grid_n / 4, refine_tol, _SECANT_ESCAPE)
    diagnostics: list[dict] = [{"kind": "refine-nonconverged", "lambda": float(wrap_phase(x.real))}
                               for x in xs[stalled]]
    diagnostics += [{"kind": "refine-escaped", "lambda": float(wrap_phase(x.real)),
                     "lambda_imag": float(x.imag)} for x in xs[escaped]]
    merged: list[float] = []
    for lam in np.sort(wrap_phase(xs[converged & (np.abs(xs.imag) <= IM_TOL)].real)):
        if not merged or angle_dist(lam, merged[-1]) > 1e-9:
            merged.append(lam)
    if len(merged) > 1 and angle_dist(merged[0], merged[-1]) <= 1e-9:
        merged.pop()
    # certify every root where chi_batch is defined (ok, and a value not NaN), the
    # tails, the window chain and |chi| computed for all of them at once
    roots = np.array(merged)
    ok, chains, rates, chi = _chains(field, roots)
    at = np.abs(chi)
    keep = np.flatnonzero(~np.isnan(at))
    candidates = [(lam, field.x_minus, chains[:, k], *rates[:, k])
                  for k, lam in zip(keep.tolist(), roots[ok[keep]].tolist())]
    records, rejected = _certify(field, candidates, "chi-root", at[keep].tolist())
    return RootScan(records, diagnostics + rejected)


# --- adjudication of the degenerate phases ---------------------------------


def _lands(v: np.ndarray, direction: np.ndarray) -> bool:
    """Whether v is nonzero and parallel, within PARALLEL_TOL, to the unit
    vector direction; nothing lands on the zero vector (an absent direction)."""
    n = np.linalg.norm(v)
    return bool(n > 0.0 and direction.any() and abs(cross2(v / n, direction)) <= PARALLEL_TOL)


def lambda0_adjudicate(field: CoinField,
                       diagnostics: list[dict] | None = None) -> list[EigenvalueRecord]:
    """Decide, for each degenerate phase, whether it carries an eigenvalue: there
    rank-one constraints replace the transfer recursion wherever it degenerates.

    One forward push (F) of the left tail's direction holds every chain of every
    phase, as _chain hands on at the breaks: the first ends at the first break,
    each later one starts a site past a break. A chain is viable iff F at its end
    lands on the direction required there (the right tail's, for the last). The
    record is a compact bump beyond the window (c_plus's, then c_minus's), else
    the leftmost viable chain; one _certify call certifies them all. A
    rejection is logged, and appended to diagnostics if given a list.
    """
    lams = np.array(lambda0_set(field))
    if not lams.size:
        return []
    el, xm, xp, n = np.exp(1j * lams), field.x_minus, field.x_plus, len(field.defects)
    required, handed = field.constraint_table
    (in_left, zero_left), (in_right, zero_right), idx, pairs = _tail_pairs(field, el, either=True)

    def edge(k, in_lambda, zero, turn):
        # a tail's unit direction at its window edge and its rate (0: compact, the
        # coin's constraint direction); the zero vector where no tail decays
        on = in_lambda[idx]
        rates, units = np.zeros(len(el), dtype=complex), np.zeros((len(el), 2), dtype=complex)
        rates[idx[on]] = pairs.zeta[k, on]
        units[idx[on]] = (v := pairs.v[k, on]) / np.linalg.norm(v, axis=-1, keepdims=True)
        return np.where(zero[:, None], turn, units), rates

    (start, rate_left), (end, rate_right) = (edge(0, in_left, zero_left, handed[0]),
                                             edge(1, in_right, zero_right, required[-1]))
    f = np.empty((xp - xm + 1, len(el), 2), dtype=complex)
    breaks = _chain(field, el, start, xm, xp, out=f)[2]
    candidates, rates = [], []
    for k, lam in enumerate(lams.tolist()):
        cuts = np.flatnonzero(breaks[:, k]).tolist()  # chains a..b, in sites past x_minus
        bumps = [(x, handed[i][None, :], 0j, 0j) for x, i, zero in
                 ((xp + 1, -1, zero_right), (xm - 1, 0, zero_left))
                 if zero[k] and _lands(handed[i], required[i])]
        solutions = bumps[:1] or [
            (xm + a, f[a : b + 1, k], 0j if a else rate_left[k], 0j if b < n else rate_right[k])
            for a, b in zip([0] + [c + 1 for c in cuts], cuts + [n])
            if _lands(f[b, k], required[b + 1] if b < n else end[k])]
        if len(solutions) > 1:
            log.info("degenerate phase lam=%.12f admits %d independent constraint-chain "
                     "solutions; building the leftmost", lam, len(solutions))
        if solutions:
            candidates.append((lam, *solutions[0]))
            rates.append((rate_left[k], rate_right[k]))
    records, rejected = (_certify(field, candidates, "lambda0-compact", tail_rates=rates)
                         if candidates else ([], []))
    for d in rejected:
        log.warning("degenerate-phase candidate at lam=%.12f rejected: %s", d["lambda"], d)
    if diagnostics is not None:
        diagnostics += rejected
    return records
