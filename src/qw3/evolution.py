"""Direct simulation of the walk operator on a finite lattice window.

One step applies the site coin and then shifts: component 1 moves one site
left, component 3 one site right, component 2 stays. Runs keep the mixed
state m = C psi component-major, where the shift is one strided view and a
step one einsum into a second buffer. A hard zero boundary reproduces the
infinite lattice exactly while the light cone stays clear of the edge, so a
run refuses up front a window without a cone-sized margin (SimulationError).
A run steps only the forward light cone of the initial support, cut to the
sites that can still reach what is read. apply_u, a single step of a given
state, flags it as leaked when amplitude sits on the outermost sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum's own kernel, minus its dispatch

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


def coin_stack(field: CoinField, xs: np.ndarray, row=slice(None)) -> np.ndarray:
    """The coins of the sites xs (an int array) as (3, 3, len(xs)), or their row `row` only."""
    return np.take(field.coin_table.transpose(1, 2, 0)[row], xs - (field.x_minus - 1), axis=-1,
                   mode="clip")


def _steps(coins: np.ndarray, amps: np.ndarray, cones):
    """Step amps (n, 3) once per cone (a, b), yielding each state as a (3, n)
    view of one of two alternating buffers (valid until the next step but
    one), with a and b. Rows a..b are exact: rows a - 1..b + 1 of the state
    before, cut to the window, are mixed. einsum sums ((0 + c0 psi0) + c1 psi1)
    + c2 psi2 per row, so a row's bits do not depend on the cone. The pads are
    the hard walls; loading amps writes its outer rows there, so beyond one
    step those rows must be empty."""
    n = len(amps)
    bufs = np.zeros((2, 3, n + 2), dtype=complex)
    # m at row x in column x + 1; row x of the view is m_0(x + 1), m_1(x), m_2(x - 1)
    views = [buf.reshape(-1)[2 : 3 * n + 5].reshape(3, n + 1)[:, :n] for buf in bufs]
    views[0][:] = amps.T
    # (source, destination, the destination's state) for odd steps, then even ones
    turns = cycle(((views[0], bufs[1], views[1]), (views[1], bufs[0], views[0])))
    for (a, b), (src, dst, view) in zip(cones, turns):
        if a <= b:
            lo, end = a - 1 if a > 0 else 0, b + 2 if b < n - 1 else n
            c_einsum("ijx,jx->ix", coins[:, :, lo:end], src[:, lo:end],
                     out=dst[:, lo + 1 : end + 1])
        yield view, a, b


def apply_u(field: CoinField, psi: StateVector) -> StateVector:
    """One step of the walk. Norm-preserving while nothing reaches the window edge."""
    n = len(psi.amps)
    edge = np.sqrt((np.abs(psi.amps[[0, -1]]) ** 2).sum(axis=1)).max() if n else 0.0
    leaked = psi.leaked or edge > LEAK_TOL
    stepped = next(_steps(coin_stack(field, psi.lo + np.arange(n)), psi.amps, [(0, n - 1)]))[0]
    return StateVector(psi.lo, psi.hi, stepped.T.copy(), leaked)


def _require_margin(psi0: StateVector, steps: int) -> tuple[int, int]:
    """The first and last occupied rows of psi0, once the window clears the cone."""
    if not np.isfinite(psi0.amps).all():
        raise ValueError("initial state has non-finite amplitudes")
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
    """The states at times 1..steps as ((3, n) amps, a, b), only rows a..b
    stepped: the forward light cone of the initial support, cut, given a
    horizon, to the backward cone |x| <= horizon - t of the origin. Each row
    is the whole-window step's, bit for bit; rows outside the forward cone
    hold exact zeros, those outside the backward cone stale values."""
    i_lo, i_hi = _require_margin(psi0, steps)
    times = range(1, steps + 1)
    cones = ((i_lo - t, i_hi + t) for t in times)
    if horizon is not None:
        o = -psi0.lo  # the origin's row
        cones = ((max(i_lo - t, o - horizon + t), min(i_hi + t, o + horizon - t)) for t in times)
    return _steps(coin_stack(field, np.arange(psi0.lo, psi0.hi + 1)), psi0.amps, cones)


def _distributions(field: CoinField, psi0: StateVector, steps: int):
    """The distributions at times 0..steps, one at a time; checks run before the first."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    run = _run(field, psi0, steps)
    yield psi0.distribution(0)
    moduli = np.empty((3, len(psi0.amps)))  # |amps| of rows a..b in its first columns
    for t, (amps, a, b) in enumerate(run, start=1):
        probs, cone = np.zeros(len(psi0.amps)), moduli[:, : b + 1 - a]
        np.abs(amps[:, a : b + 1], out=cone)
        c_einsum("ix,ix->x", cone, cone, out=probs[a : b + 1])
        yield Distribution(psi0.lo, psi0.hi, probs, t)


def evolve(field: CoinField, psi0: StateVector, steps: int) -> list[Distribution]:
    """Distributions at times 0..steps. The window must clear the light cone."""
    return list(_distributions(field, psi0, steps))


def time_averaged_origin(field: CoinField, psi0: StateVector, t_max: int) -> float:
    """Mean origin occupation (1/t_max) sum_{t=1..t_max} mu_t(0)."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if not psi0.lo <= 0 <= psi0.hi:
        raise ValueError("window must contain the origin")
    origin = np.empty((t_max, 3), dtype=complex)
    for t, (amps, _, _) in enumerate(_run(field, psi0, t_max, horizon=t_max)):
        origin[t] = amps[:, -psi0.lo]
    occupation = np.abs(origin)  # squared in place: one more temporary raised peak RSS
    # cumsum adds the occupations in time order, one at a time
    return float(np.cumsum(np.square(occupation, out=occupation).sum(axis=1))[-1]) / t_max
