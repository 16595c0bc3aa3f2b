"""Coin matrices, presets and the spatial coin field.

A coin field assigns a 3x3 unitary to every lattice site: one fixed coin on
each asymptotic half-line plus an arbitrary finite defect window in between.
Configuration files (JSON) are parsed into validated CoinField objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import TAU

UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-10


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
        if not np.all(np.isfinite(m.view(float))):
            raise ConfigError("coin has non-finite entries")
        dev = float(np.abs(m.conj().T @ m - np.eye(3)).max())
        if dev > UNITARY_TOL:
            raise ConfigError(
                f"coin is not unitary: max |C^dag C - I| = {dev:.3e} > {UNITARY_TOL:.0e}"
            )
        for i, j in ((0, 2), (1, 1), (2, 0)):
            if abs(abs(m[i, j]) - 1.0) <= DEGENERACY_TOL:
                raise ConfigError(
                    f"degenerate coin: |entry ({i + 1},{j + 1})| = 1 reduces the walk "
                    "to two effective states"
                )
        det = np.linalg.det(m)
        if abs(abs(det) - 1.0) > UNITARY_TOL:
            raise ConfigError(f"coin determinant has modulus {abs(det):.12f}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "det_phase", float(np.angle(det) % TAU))

    @property
    def det_unit(self) -> complex:
        """The unit-modulus determinant e^{i Delta}."""
        return np.exp(1j * self.det_phase)


def make_fourier() -> CoinMatrix:
    """The 3-point discrete Fourier transform coin, entries omega^{jk}/sqrt(3)."""
    w = np.exp(2j * np.pi / 3.0)
    rows = np.array(
        [[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=complex
    ) / np.sqrt(3.0)
    return CoinMatrix(rows)


def make_grover() -> CoinMatrix:
    """The Grover diffusion coin (2/3) J - I with J the all-ones matrix."""
    return CoinMatrix((2.0 / 3.0) * np.ones((3, 3)) - np.eye(3))


PRESETS = {"fourier": make_fourier, "grover": make_grover}


def phase_scale(coin: CoinMatrix, theta: float) -> CoinMatrix:
    """Multiply every entry by e^{i theta}; the determinant phase shifts by 3 theta."""
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

    def lookup(self, x: int) -> CoinMatrix:
        if x >= self.x_plus:
            return self.c_plus
        if x >= self.x_minus:
            return self.defects[x - self.x_minus]
        return self.c_minus

    def distinct_coins(self) -> list[CoinMatrix]:
        """All distinct coins in the field (exact entrywise comparison), first seen first."""
        # adding 0.0 turns -0.0 into 0.0, so the bytes compare as array_equal does
        out: dict[bytes, CoinMatrix] = {}
        for c in (self.c_minus, self.c_plus, *self.defects):
            out.setdefault((c.mat + 0.0).tobytes(), c)
        return list(out.values())


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


def _parse_coin(node: object, where: str) -> CoinMatrix:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: coin must be an object, got {type(node).__name__}")
    if "preset" in node:
        name = node["preset"]
        if name not in PRESETS:
            raise ConfigError(
                f"{where}: unknown preset {name!r} (expected one of {sorted(PRESETS)})"
            )
        coin = PRESETS[name]()
        phase = node.get("phase", 0.0)
        if not isinstance(phase, (int, float)):
            raise ConfigError(f"{where}: phase must be a number")
        if phase:
            coin = phase_scale(coin, float(phase))
        return coin
    if "rows" in node:
        rows = node["rows"]
        try:
            arr = np.array(
                [[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(
                f"{where}: rows must be a 3x3 nesting of [re, im] pairs ({exc})"
            ) from None
        if arr.shape != (3, 3):
            raise ConfigError(f"{where}: rows must be 3x3, got {arr.shape}")
        try:
            return CoinMatrix(arr)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: coin needs either 'preset' or 'rows'")


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    model = doc.get("model")
    if model == "one-defect":
        return field_one_defect(
            _parse_coin(doc.get("bulk"), "bulk"), _parse_coin(doc.get("origin"), "origin")
        )
    if model == "two-phase":
        return field_two_phase(
            _parse_coin(doc.get("left"), "left"), _parse_coin(doc.get("right"), "right")
        )
    if model == "homogeneous":
        return field_homogeneous(_parse_coin(doc.get("coin"), "coin"))
    if model is not None:
        raise ConfigError(
            f"unknown model {model!r} (expected one-defect, two-phase or homogeneous)"
        )

    for key in ("c_minus", "c_plus", "x_minus", "x_plus", "defects"):
        if key not in doc:
            raise ConfigError(f"config missing required key {key!r}")
    if not isinstance(doc["x_minus"], int) or not isinstance(doc["x_plus"], int):
        raise ConfigError("x_minus and x_plus must be integers")
    if not isinstance(doc["defects"], list):
        raise ConfigError("defects must be a list of coins")
    defects = tuple(
        _parse_coin(node, f"defects[{i}]") for i, node in enumerate(doc["defects"])
    )
    return CoinField(
        _parse_coin(doc["c_minus"], "c_minus"),
        _parse_coin(doc["c_plus"], "c_plus"),
        doc["x_minus"],
        doc["x_plus"],
        defects,
    )


def _coin_to_rows(coin: CoinMatrix) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in coin.mat]


def serialize_field(field: CoinField) -> dict:
    """Exact (bit round-trippable) dict form of a field, coins as [re, im] rows."""
    return {
        "c_minus": {"rows": _coin_to_rows(field.c_minus)},
        "c_plus": {"rows": _coin_to_rows(field.c_plus)},
        "x_minus": field.x_minus,
        "x_plus": field.x_plus,
        "defects": [{"rows": _coin_to_rows(c)} for c in field.defects],
    }
