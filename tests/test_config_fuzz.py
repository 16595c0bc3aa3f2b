"""Property tests: no JSON config, however malformed, ends in anything but a
field or a ConfigError, and `qw3 validate` exits 0 or 2 on every one."""

import contextlib
import io
import json

import pytest

from qw3.cli import main
from qw3.coin import CoinField, ConfigError, make_fourier, parse_field_config

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# bounded and derandomized: the same examples on every run, in well under a second each
FUZZ = hypothesis.settings(max_examples=120, derandomize=True, deadline=None, database=None)

KEYS = st.text(max_size=3) | st.sampled_from([
    "model", "bulk", "origin", "left", "right", "coin", "preset", "phase", "rows", "c_minus",
    "c_plus", "x_minus", "x_plus", "defects"])
NUMBERS = (st.integers(-2, 2) | st.integers() | st.sampled_from([10**400, -10**400, 2**1024])
           | st.floats())  # floats() draws NaN and +-inf too
LEAVES = st.none() | st.booleans() | st.text(max_size=4) | NUMBERS
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(KEYS, inner, max_size=4), max_leaves=10)
FOURIER = make_fourier().mat.view(float).ravel().tolist()  # re and im, row by row


def _fourier_but(k: int, value) -> dict:
    """Fourier's rows with the k-th of their 18 numbers replaced."""
    flat = FOURIER[:k] + [value] + FOURIER[k + 1:]
    return {"rows": [[flat[i : i + 2] for i in range(r, r + 6, 2)] for r in range(0, 18, 6)]}


# mostly well-formed coins, so that the draws reach the deep checks
PRESET_COINS = st.fixed_dictionaries({"preset": st.sampled_from(["fourier", "grover"])},
                                     optional={"phase": NUMBERS})
ALMOST_FOURIER = st.builds(_fourier_but, st.integers(0, 17), NUMBERS | LEAVES)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2) | st.lists(LEAVES, max_size=3) | VALUES
COINS = st.one_of(
    PRESET_COINS, ALMOST_FOURIER,
    st.fixed_dictionaries({"rows": st.lists(st.lists(PAIRS, min_size=2, max_size=4), min_size=2,
                                            max_size=4)}),
    st.fixed_dictionaries({}, optional={"preset": VALUES, "phase": VALUES, "rows": VALUES}),
    VALUES)


def _general(defects: list, left: int, c_minus, c_plus) -> dict:
    return {"c_minus": c_minus, "c_plus": c_plus, "x_minus": -left,
            "x_plus": len(defects) - left, "defects": defects}


CONFIGS = st.one_of(
    st.fixed_dictionaries({"model": st.just("one-defect"), "bulk": COINS, "origin": COINS}),
    st.fixed_dictionaries({"model": st.just("two-phase"), "left": COINS, "right": COINS}),
    st.fixed_dictionaries({"model": st.just("homogeneous") | VALUES, "coin": COINS}),
    st.builds(_general, st.lists(COINS, max_size=3), st.integers(0, 3), COINS, COINS),
    st.fixed_dictionaries({}, optional={k: VALUES for k in (
        "c_minus", "c_plus", "x_minus", "x_plus", "defects")}),
    VALUES)


@FUZZ
@hypothesis.given(CONFIGS)
def test_a_config_parses_to_a_field_or_a_config_error(doc):
    for source in (doc, json.dumps(doc)):  # dumps writes NaN and Infinity as literals
        try:
            assert isinstance(parse_field_config(source), CoinField)
        except ConfigError:
            pass


@FUZZ
@hypothesis.given(CONFIGS)
def test_validate_exits_0_or_2_on_any_config(tmp_path_factory, doc):
    cfg = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", "--config", str(cfg)]) in (0, 2)
