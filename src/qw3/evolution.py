"""Direct simulation of the walk operator on a finite lattice window.

One step applies the site coin and then shifts: component 1 moves one site
left, component 3 one site right, component 2 stays. A hard zero boundary
reproduces the infinite lattice exactly while the light cone stays clear of
the edge, so a run refuses up front a window without a cone-sized margin
(SimulationError). A run steps only the forward light cone of the initial
support, cut to the sites that can still reach what is read. apply_u, a
single step of a given state, flags it as leaked when amplitude sits on the
outermost sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coin import CoinField

LEAK_TOL = 1e-10
MARGIN = 5


class SimulationError(ValueError):
    """Raised when a window is too small for the requested evolution."""


@dataclass
class StateVector:
    """Three-component wavefunction on the integer window [lo, hi]."""

    lo: int
    hi: int
    amps: np.ndarray  # shape (hi - lo + 1, 3), complex
    leaked: bool = False

    def __post_init__(self) -> None:
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (self.hi - self.lo + 1, 3):
            raise ValueError(
                f"amps shape {a.shape} does not match window [{self.lo}, {self.hi}]"
            )
        self.amps = a

    def amp(self, x: int) -> np.ndarray:
        if self.lo <= x <= self.hi:
            return self.amps[x - self.lo]
        return np.zeros(3, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def site_norms(self) -> np.ndarray:
        return np.sqrt((np.abs(self.amps) ** 2).sum(axis=1))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.lo, self.hi, self.amps / n, self.leaked)

    def distribution(self, time: int = 0) -> "Distribution":
        return Distribution(self.lo, self.hi, (np.abs(self.amps) ** 2).sum(axis=1), time)


@dataclass(frozen=True)
class Distribution:
    """Site occupation probabilities at one time step."""

    lo: int
    hi: int
    probs: np.ndarray
    time: int

    def prob(self, x: int) -> float:
        if self.lo <= x <= self.hi:
            return float(self.probs[x - self.lo])
        return 0.0


def default_initial_state(half_width: int) -> StateVector:
    """Unit state [1, i, 1]/sqrt(3) at the origin on the window [-L, L]."""
    if half_width < 1:
        raise ValueError("half_width must be at least 1")
    amps = np.zeros((2 * half_width + 1, 3), dtype=complex)
    amps[half_width] = np.array([1.0, 1.0j, 1.0]) / np.sqrt(3.0)
    return StateVector(-half_width, half_width, amps)


def coin_stack(field: CoinField, lo: int, hi: int) -> np.ndarray:
    """The coins of sites lo..hi as one (hi - lo + 1, 3, 3) array."""
    xs = np.arange(lo - field.x_minus + 1, hi - field.x_minus + 2)
    return field.coin_table[np.clip(xs, 0, len(field.defects) + 1)]


def _step(coins: np.ndarray, amps: np.ndarray) -> np.ndarray:
    mixed = np.einsum("xij,xj->xi", coins, amps)
    out = np.zeros_like(amps)
    out[:-1, 0] = mixed[1:, 0]
    out[:, 1] = mixed[:, 1]
    out[1:, 2] = mixed[:-1, 2]
    return out


def apply_u(field: CoinField, psi: StateVector) -> StateVector:
    """One step of the walk. Norm-preserving while nothing reaches the window edge."""
    norms = psi.site_norms()
    edge = max(norms[0], norms[-1]) if norms.size else 0.0
    leaked = psi.leaked or edge > LEAK_TOL
    coins = coin_stack(field, psi.lo, psi.hi)
    return StateVector(psi.lo, psi.hi, _step(coins, psi.amps), leaked)


def _require_margin(psi0: StateVector, steps: int) -> tuple[int, int]:
    """The first and last occupied rows of psi0, once the window clears the cone."""
    occupied = np.nonzero(psi0.site_norms() > 0.0)[0]
    if occupied.size == 0:
        raise ValueError("initial state is identically zero")
    i_lo, i_hi = int(occupied[0]), int(occupied[-1])
    need = steps + MARGIN
    if i_lo < need or psi0.hi - psi0.lo - i_hi < need:
        required = max(abs(psi0.lo + i_lo), abs(psi0.lo + i_hi)) + need
        raise SimulationError(
            f"window [{psi0.lo}, {psi0.hi}] too small for {steps} steps: "
            f"need at least {need} empty sites on each side of the support "
            f"(half-width >= {required} for a symmetric window)"
        )
    return i_lo, i_hi


def _run(field: CoinField, psi0: StateVector, steps: int, horizon: int | None = None):
    """The states at times 1..steps as (amps, a, b), only rows a..b stepped:
    the forward light cone of the initial support, cut, given a horizon, to
    the backward cone |x| <= horizon - t of the origin. Each row is _step's,
    bit for bit; rows outside the forward cone hold exact zeros, those outside
    the backward cone stale values. amps is one of two reused buffers.
    """
    i_lo, i_hi = _require_margin(psi0, steps)
    coins = coin_stack(field, psi0.lo, psi0.hi)
    cur, nxt = psi0.amps.copy(), np.zeros_like(psi0.amps)
    for t in range(1, steps + 1):
        a, b = i_lo - t, i_hi + t
        if horizon is not None:
            a, b = max(a, t - horizon - psi0.lo), min(b, horizon - t - psi0.lo)
        if a <= b:
            nxt[a : b + 1] = _step(coins[a - 1 : b + 2], cur[a - 1 : b + 2])[1:-1]
        cur, nxt = nxt, cur
        yield cur, a, b


def evolve(field: CoinField, psi0: StateVector, steps: int) -> list[Distribution]:
    """Distributions at times 0..steps. The window must clear the light cone."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    out = [psi0.distribution(0)]
    for t, (amps, a, b) in enumerate(_run(field, psi0, steps), start=1):
        probs = np.zeros(len(amps))
        probs[a : b + 1] = (np.abs(amps[a : b + 1]) ** 2).sum(axis=1)
        out.append(Distribution(psi0.lo, psi0.hi, probs, t))
    return out


def time_averaged_origin(field: CoinField, psi0: StateVector, t_max: int) -> float:
    """Mean origin occupation (1/t_max) sum_{t=1..t_max} mu_t(0)."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if not psi0.lo <= 0 <= psi0.hi:
        raise ValueError("window must contain the origin")
    acc = 0.0
    for amps, _, _ in _run(field, psi0, t_max, horizon=t_max):
        acc += float((np.abs(amps[-psi0.lo]) ** 2).sum())
    return acc / t_max
