"""Coin matrices, presets and the spatial coin field.

A coin field assigns a 3x3 unitary to every lattice site: one fixed coin on
each asymptotic half-line plus an arbitrary finite defect window in between.
Configuration files (JSON) are parsed into validated CoinField objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .linalg import wrap_phase

UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-10
_EYE = np.eye(3)


class ConfigError(ValueError):
    """Raised for malformed, non-unitary or degenerate coin configurations."""


@dataclass(frozen=True, eq=False)
class CoinMatrix:
    """A validated 3x3 unitary coin with its determinant phase.

    det_phase is the angle Delta in [0, 2pi) with e^{i Delta} = det(mat).
    Coins whose (1,3), (2,2) or (3,1) entry has unit modulus collapse the walk
    to an effective two-state model and are rejected.
    """

    mat: np.ndarray
    det_phase: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(np.asarray(self.mat, dtype=complex))
        if m.shape != (3, 3):
            raise ConfigError(f"coin must be 3x3, got shape {m.shape}")
        object.__setattr__(self, "det_phase", check_coins(m[None]).tolist()[0])
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


def check_coins(mats: np.ndarray, places: list[str] | None = None) -> np.ndarray:
    """The det phases of an (n, 3, 3) complex stack of coins, each checked in turn
    for finite entries, unitarity, non-degeneracy and |det| = 1. The first coin to
    fail raises the ConfigError of its first failed check, after its place if given."""
    finite = np.isfinite(mats.view(float)).all(axis=(1, 2))
    m = np.where(finite[:, None, None], mats, _EYE)  # a non-finite coin fails first anyway
    dev = np.abs(m.conj().transpose(0, 2, 1) @ m - _EYE).max(axis=(1, 2))
    corners = np.abs(np.abs(m[:, [0, 1, 2], [2, 1, 0]]) - 1.0) <= DEGENERACY_TOL
    det = np.linalg.det(m)
    faults = [~finite, dev > UNITARY_TOL, corners.any(axis=1),
              np.abs(np.abs(det) - 1.0) > UNITARY_TOL]
    bad = np.logical_or.reduce(faults)
    if not bad.any():
        return wrap_phase(np.angle(det))
    k = int(np.argmax(bad))
    i = int(np.argmax(corners[k]))
    message = ["coin has non-finite entries",
               f"coin is not unitary: max |C^dag C - I| = {dev[k]:.3e} > {UNITARY_TOL:.0e}",
               f"degenerate coin: |entry ({i + 1},{3 - i})| = 1 reduces the walk to two "
               "effective states",
               f"coin determinant has modulus {abs(det[k]):.12f}, expected 1",
               ][[fault[k] for fault in faults].index(True)]
    raise ConfigError(message if places is None else f"{places[k]}: {message}")


@cache  # a coin is immutable: build and check each preset once
def make_fourier() -> CoinMatrix:
    """The 3-point discrete Fourier transform coin, entries omega^{jk}/sqrt(3)."""
    w = np.exp(2j * np.pi / 3.0)
    rows = np.array(
        [[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=complex
    ) / np.sqrt(3.0)
    return CoinMatrix(rows)


@cache
def make_grover() -> CoinMatrix:
    """The Grover diffusion coin (2/3) J - I with J the all-ones matrix."""
    return CoinMatrix((2.0 / 3.0) * np.ones((3, 3)) - np.eye(3))


PRESETS = {"fourier": make_fourier, "grover": make_grover}


def phase_scale(coin: CoinMatrix, theta: float) -> CoinMatrix:
    """Multiply every entry by e^{i theta}; the determinant phase shifts by 3 theta."""
    if not np.isfinite(theta):
        raise ConfigError(f"phase must be finite, got {theta}")
    return CoinMatrix(np.exp(1j * theta) * coin.mat)


@dataclass(frozen=True, eq=False)
class CoinField:
    """Site-dependent coin assignment: two asymptotic coins plus a defect window.

    lookup(x) returns c_plus for x >= x_plus, defects[x - x_minus] for
    x_minus <= x < x_plus and c_minus for x < x_minus. The window satisfies
    x_minus <= 0 <= x_plus and len(defects) == x_plus - x_minus.
    """

    c_minus: CoinMatrix
    c_plus: CoinMatrix
    x_minus: int
    x_plus: int
    defects: tuple[CoinMatrix, ...]

    def __post_init__(self) -> None:
        if not (self.x_minus <= 0 <= self.x_plus):
            raise ConfigError(
                f"defect window must straddle the origin: x_minus={self.x_minus}, "
                f"x_plus={self.x_plus}"
            )
        if len(self.defects) != self.x_plus - self.x_minus:
            raise ConfigError(
                f"expected {self.x_plus - self.x_minus} defect coins for window "
                f"[{self.x_minus}, {self.x_plus}), got {len(self.defects)}"
            )
        object.__setattr__(self, "defects", tuple(self.defects))

    @cached_property
    def coin_table(self) -> np.ndarray:
        """The matrices of c_minus, the defects and c_plus, (n + 2, 3, 3), kept
        on the field like transfer_table. Site x reads row clip(x - x_minus + 1, 0, n + 1)."""
        table = np.array([c.mat for c in (self.c_minus, *self.defects, self.c_plus)])
        table.setflags(write=False)
        return table

    @cached_property
    def transfer_table(self) -> np.ndarray:
        """transfer_coefficients of the same coins, column by column."""
        from .transfer import transfer_coefficients  # transfer imports this module
        return transfer_coefficients(
            self.coin_table, [c.det_phase for c in (self.c_minus, *self.defects, self.c_plus)])

    @cached_property
    def constraint_table(self) -> np.ndarray:
        """zero_case_vectors of the same coins: (required, handed on), (2, n + 2, 2)."""
        from .transfer import zero_case_vectors
        table = np.array(zero_case_vectors(self.coin_table))
        table.setflags(write=False)
        return table

    def lookup(self, x: int) -> CoinMatrix:
        if x >= self.x_plus:
            return self.c_plus
        if x >= self.x_minus:
            return self.defects[x - self.x_minus]
        return self.c_minus


def field_homogeneous(coin: CoinMatrix) -> CoinField:
    """The same coin at every site (empty defect window)."""
    return CoinField(coin, coin, 0, 0, ())


def field_one_defect(bulk: CoinMatrix, origin: CoinMatrix) -> CoinField:
    """bulk everywhere except the origin, where origin applies.

    Encoded with window [0, 1) so position 0 is the sole defect and both
    asymptotic regions are pure bulk.
    """
    return CoinField(bulk, bulk, 0, 1, (origin,))


def field_two_phase(left: CoinMatrix, right: CoinMatrix) -> CoinField:
    """left for x < 0, right for x >= 0."""
    return CoinField(left, right, 0, 0, ())


def _coin_entries(node: object, where: str) -> list:
    """A coin's entries as 18 numbers, re and im row by row: its rows, or its preset's."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: coin must be an object, got {type(node).__name__}")
    if "preset" in node:
        name = node["preset"]
        if not isinstance(name, str) or name not in PRESETS:  # a list is not hashable
            raise ConfigError(f"{where}: unknown preset {name!r} "
                              f"(expected one of {sorted(PRESETS)})")
        coin = PRESETS[name]()
        phase = node.get("phase", 0.0)
        # bool is an int subclass, but a JSON true/false is not a phase
        if isinstance(phase, bool) or not isinstance(phase, (int, float)):
            raise ConfigError(f"{where}: phase must be a number")
        if phase:
            try:
                coin = phase_scale(coin, float(phase))
            except (ConfigError, OverflowError) as exc:  # an int past float's range
                raise ConfigError(f"{where}: {exc}") from None
        return coin.mat.view(float).ravel().tolist()
    if "rows" in node:
        # rows of one length, of [re, im] pairs, of numbers: ints or floats, not bools
        rows, lists = node["rows"], {list, tuple}
        ok = type(rows) in lists and {*map(type, rows)} <= lists and len({*map(len, rows)}) < 2
        pairs = [e for row in rows for e in row] if ok else []
        ok = ok and {*map(type, pairs)} <= lists and {*map(len, pairs)} <= {2}
        flat = [v for e in pairs for v in e] if ok else []
        if not ok or not all(issubclass(t, (int, float)) and t is not bool
                             for t in {*map(type, flat)}):
            raise ConfigError(f"{where}: rows must be a 3x3 nesting of [re, im] pairs")
        if (shape := (len(rows), *map(len, rows[:1]))) != (3, 3):
            raise ConfigError(f"{where}: rows must be 3x3, got {shape}")
        try:
            return [float(v) for v in flat]
        except OverflowError:
            raise ConfigError(f"{where}: rows entry too large for a float") from None
    raise ConfigError(f"{where}: coin needs either 'preset' or 'rows'")


def _parse_coins(nodes: dict[str, object]) -> list[CoinMatrix]:
    """The coins of nodes (place: node), parsed in order and checked as one stack: the
    first coin with a fault of any kind is named, as if each were checked in turn."""
    entries, fault = [], None
    for where, node in nodes.items():
        try:
            entries += _coin_entries(node, where)
        except ConfigError as exc:
            fault = exc
            break
    mats = np.array(entries, dtype=float).view(complex).reshape(-1, 3, 3)
    mats.setflags(write=False)
    coins = [object.__new__(CoinMatrix) for _ in mats]  # checked here, not one by one
    for coin, m, det_phase in zip(coins, mats, check_coins(mats, list(nodes)).tolist()):
        object.__setattr__(coin, "mat", m)
        object.__setattr__(coin, "det_phase", det_phase)
    if fault is not None:
        raise fault
    return coins


def parse_field_config(source: str | dict) -> CoinField:
    """Build a CoinField from a JSON document or an already-decoded dict.

    General form:
        {"c_minus": <coin>, "c_plus": <coin>, "x_minus": int, "x_plus": int,
         "defects": [<coin>, ...]}
    where <coin> is {"preset": "fourier"|"grover", "phase": float} or
    {"rows": [[[re, im] x3] x3]}. Convenience forms:
        {"model": "one-defect", "bulk": <coin>, "origin": <coin>}
        {"model": "two-phase", "left": <coin>, "right": <coin>}
        {"model": "homogeneous", "coin": <coin>}
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except (ValueError, RecursionError) as exc:  # too many digits, or too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    model = doc.get("model")
    if model == "one-defect":
        return field_one_defect(*_parse_coins({"bulk": doc.get("bulk"),
                                               "origin": doc.get("origin")}))
    if model == "two-phase":
        return field_two_phase(*_parse_coins({"left": doc.get("left"),
                                              "right": doc.get("right")}))
    if model == "homogeneous":
        return field_homogeneous(*_parse_coins({"coin": doc.get("coin")}))
    if model is not None:
        raise ConfigError(
            f"unknown model {model!r} (expected one-defect, two-phase or homogeneous)"
        )

    for key in ("c_minus", "c_plus", "x_minus", "x_plus", "defects"):
        if key not in doc:
            raise ConfigError(f"config missing required key {key!r}")
    if any(isinstance(doc[k], bool) or not isinstance(doc[k], int)
           for k in ("x_minus", "x_plus")):
        raise ConfigError("x_minus and x_plus must be integers")
    if not isinstance(doc["defects"], list):
        raise ConfigError("defects must be a list of coins")
    *defects, c_minus, c_plus = _parse_coins({
        **{f"defects[{i}]": node for i, node in enumerate(doc["defects"])},
        "c_minus": doc["c_minus"], "c_plus": doc["c_plus"]})
    return CoinField(c_minus, c_plus, doc["x_minus"], doc["x_plus"], tuple(defects))


def serialize_field(field: CoinField) -> dict:
    """Exact (bit round-trippable) dict form of a field, coins as [re, im] rows."""
    c_minus, *defects, c_plus = field.coin_table.view(float).reshape(-1, 3, 3, 2).tolist()
    return {
        "c_minus": {"rows": c_minus},
        "c_plus": {"rows": c_plus},
        "x_minus": field.x_minus,
        "x_plus": field.x_plus,
        "defects": [{"rows": rows} for rows in defects],
    }
