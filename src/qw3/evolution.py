"""Direct simulation of the walk operator on a finite lattice window.

One step applies the site coin and then shifts: component 1 moves one site
left, component 3 one site right, component 2 stays. A hard zero boundary with
a light-cone-sized margin reproduces the infinite lattice exactly until the
cone touches the edge; amplitude reaching the outermost sites flags the state
as leaked and invalidates the run.
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


def _coin_stack(field: CoinField, lo: int, hi: int) -> np.ndarray:
    return np.array([field.lookup(x).mat for x in range(lo, hi + 1)])


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
    coins = _coin_stack(field, psi.lo, psi.hi)
    return StateVector(psi.lo, psi.hi, _step(coins, psi.amps), leaked)


def _require_margin(psi0: StateVector, steps: int) -> None:
    norms = psi0.site_norms()
    occupied = np.nonzero(norms > 0.0)[0]
    if occupied.size == 0:
        raise ValueError("initial state is identically zero")
    s_lo = psi0.lo + int(occupied[0])
    s_hi = psi0.lo + int(occupied[-1])
    need = steps + MARGIN
    if s_lo - psi0.lo < need or psi0.hi - s_hi < need:
        required = max(abs(s_lo), abs(s_hi)) + need
        raise SimulationError(
            f"window [{psi0.lo}, {psi0.hi}] too small for {steps} steps: "
            f"need at least {need} empty sites on each side of the support "
            f"(half-width >= {required} for a symmetric window)"
        )


def _run(field: CoinField, psi0: StateVector, steps: int):
    """The amplitudes at times 1..steps. The window must clear the light cone."""
    _require_margin(psi0, steps)
    coins = _coin_stack(field, psi0.lo, psi0.hi)
    amps = psi0.amps
    for _ in range(steps):
        amps = _step(coins, amps)
        yield amps


def evolve(field: CoinField, psi0: StateVector, steps: int) -> list[Distribution]:
    """Distributions at times 0..steps. The window must clear the light cone."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    out = [psi0.distribution(0)]
    for t, amps in enumerate(_run(field, psi0, steps), start=1):
        out.append(Distribution(psi0.lo, psi0.hi, (np.abs(amps) ** 2).sum(axis=1), t))
    return out


def time_averaged_origin(field: CoinField, psi0: StateVector, t_max: int) -> float:
    """Mean origin occupation (1/t_max) sum_{t=1..t_max} mu_t(0)."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if not psi0.lo <= 0 <= psi0.hi:
        raise ValueError("window must contain the origin")
    acc = 0.0
    for amps in _run(field, psi0, t_max):
        acc += float((np.abs(amps[-psi0.lo]) ** 2).sum())
    return acc / t_max
