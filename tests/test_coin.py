import json
import re

import numpy as np
import pytest

from qw3.coin import (
    CoinField,
    CoinMatrix,
    ConfigError,
    field_homogeneous,
    field_one_defect,
    field_two_phase,
    make_fourier,
    make_grover,
    parse_field_config,
    phase_scale,
    serialize_field,
)

from conftest import random_coin

OMEGA = np.exp(2j * np.pi / 3)


def test_fourier_entries():
    f = make_fourier().mat
    assert abs(f[0, 0] - 1 / np.sqrt(3)) < 1e-15
    assert abs(f[1, 2] - OMEGA**2 / np.sqrt(3)) < 1e-15
    assert abs(f[2, 1] - OMEGA**2 / np.sqrt(3)) < 1e-15


def test_fourier_unitary_det():
    c = make_fourier()
    assert np.abs(c.mat.conj().T @ c.mat - np.eye(3)).max() < 1e-12
    assert abs(abs(np.linalg.det(c.mat)) - 1) < 1e-12
    # det of the 3-point DFT is -i
    assert abs(np.linalg.det(c.mat) - (-1j)) < 1e-12
    assert abs(c.det_phase - 3 * np.pi / 2) < 1e-12


def test_grover_is_involution():
    g = make_grover().mat
    assert np.abs(g @ g - np.eye(3)).max() < 1e-14
    assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_coin_det_phase_consistent(rng):
    for _ in range(100):
        c = random_coin(rng)
        assert abs(np.exp(1j * c.det_phase) - np.linalg.det(c.mat)) < 1e-10


def test_coin_rejects_non_unitary():
    bad = make_fourier().mat.copy()
    bad[0, 0] *= 2.0
    with pytest.raises(ConfigError, match="not unitary"):
        CoinMatrix(bad)


def test_coin_rejects_degenerate():
    with pytest.raises(ConfigError, match="degenerate"):
        CoinMatrix(np.eye(3, dtype=complex))  # |a22| = 1


def test_phase_scale_identity_and_full_turn():
    f = make_fourier()
    assert np.abs(phase_scale(f, 0.0).mat - f.mat).max() == 0.0
    assert np.abs(phase_scale(f, 2 * np.pi).mat - f.mat).max() < 1e-12


def test_phase_scale_det_cubes_the_phase(rng):
    # determinant is homogeneous of degree 3 in a global entry phase
    for theta in rng.uniform(0, 2 * np.pi, size=20):
        f = make_fourier()
        scaled = phase_scale(f, theta)
        expected = np.exp(3j * theta) * np.linalg.det(f.mat)
        assert abs(np.linalg.det(scaled.mat) - expected) < 1e-12


def test_one_defect_lookup():
    bulk, origin = make_fourier(), phase_scale(make_fourier(), 0.3)
    field = field_one_defect(bulk, origin)
    assert np.array_equal(field.lookup(0).mat, origin.mat)
    assert np.array_equal(field.lookup(5).mat, bulk.mat)
    assert np.array_equal(field.lookup(-3).mat, bulk.mat)
    assert field.x_minus == 0 and field.x_plus == 1


def test_two_phase_lookup():
    left, right = make_fourier(), phase_scale(make_fourier(), 0.3)
    field = field_two_phase(left, right)
    assert np.array_equal(field.lookup(0).mat, right.mat)
    assert np.array_equal(field.lookup(-1).mat, left.mat)
    assert len(field.defects) == 0


def test_two_phase_equal_coins_is_homogeneous():
    f = make_fourier()
    field = field_two_phase(f, f)
    assert len({m.tobytes() for m in field.coin_table}) == 1


def test_lookup_total_far_from_origin():
    field = field_one_defect(make_fourier(), make_grover())
    for x in (-(10**6), -12345, 10**6):
        assert np.array_equal(field.lookup(x).mat, make_fourier().mat)


def test_field_window_invariants():
    f = make_fourier()
    with pytest.raises(ConfigError, match="straddle"):
        CoinField(f, f, 1, 2, (f,))
    with pytest.raises(ConfigError, match="defect coins"):
        CoinField(f, f, -1, 1, (f,))


def test_parse_general_form_roundtrip(rng):
    field = CoinField(
        random_coin(rng), random_coin(rng), -2, 1,
        (random_coin(rng), random_coin(rng), random_coin(rng)),
    )
    doc = serialize_field(field)
    back = parse_field_config(json.dumps(doc))
    for x in range(-4, 4):
        assert np.abs(back.lookup(x).mat - field.lookup(x).mat).max() == 0.0


def test_parse_one_defect_convenience():
    cfg = {
        "model": "one-defect",
        "bulk": {"preset": "fourier"},
        "origin": {"preset": "fourier", "phase": np.pi / 12},
    }
    field = parse_field_config(cfg)
    assert np.abs(field.lookup(0).mat - phase_scale(make_fourier(), np.pi / 12).mat).max() <= 1e-15
    assert np.array_equal(field.lookup(7).mat, make_fourier().mat)


def test_parse_two_phase_convenience():
    cfg = {
        "model": "two-phase",
        "left": {"preset": "fourier"},
        "right": {"preset": "fourier", "phase": 0.2618},
    }
    field = parse_field_config(cfg)
    assert np.array_equal(field.lookup(-1).mat, make_fourier().mat)
    assert not np.array_equal(field.lookup(0).mat, make_fourier().mat)


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError, match="JSON"):
        parse_field_config("{not json")
    with pytest.raises(ConfigError, match="missing required key"):
        parse_field_config({"c_minus": {"preset": "fourier"}})
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_field_config({"model": "homogeneous", "coin": {"preset": "identity"}})


FOURIER = {"preset": "fourier"}


def general_form(**overrides):
    doc = {"c_minus": FOURIER, "c_plus": FOURIER, "x_minus": 0, "x_plus": 0,
           "defects": []}
    return {**doc, **overrides}


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: parse_field_config({"model": "homogeneous", "coin": [1]}),
                 "coin: coin must be an object, got list", id="coin-not-object"),
    pytest.param(lambda: parse_field_config(
        {"model": "homogeneous", "coin": {"preset": "fourier", "phase": "pi"}}),
        "coin: phase must be a number", id="phase-not-numeric"),
    pytest.param(lambda: parse_field_config(
        {"model": "homogeneous", "coin": {"preset": "fourier", "phase": True}}),
        "coin: phase must be a number", id="phase-bool"),
    pytest.param(lambda: parse_field_config(
        {"model": "homogeneous", "coin": {"rows": [[1, 0, 0]] * 3}}),
        "coin: rows must be a 3x3 nesting of [re, im] pairs", id="rows-not-pairs"),
    pytest.param(lambda: parse_field_config(
        {"model": "homogeneous", "coin": {"rows": [[[1, 0], [0, 0]]] * 2}}),
        "coin: rows must be 3x3, got (2, 2)", id="rows-not-3x3"),
    pytest.param(lambda: parse_field_config({"model": "homogeneous", "coin": {}}),
                 "coin: coin needs either 'preset' or 'rows'", id="coin-without-entries"),
    pytest.param(lambda: parse_field_config("[1, 2]"),
                 "config root must be a JSON object", id="root-not-object"),
    pytest.param(lambda: parse_field_config({"model": "ring"}),
                 "unknown model 'ring'", id="unknown-model"),
    pytest.param(lambda: parse_field_config(general_form(x_minus=-0.5)),
                 "x_minus and x_plus must be integers", id="x-minus-not-integer"),
    pytest.param(lambda: parse_field_config(general_form(x_plus="1")),
                 "x_minus and x_plus must be integers", id="x-plus-not-integer"),
    pytest.param(lambda: parse_field_config(json.dumps(general_form(x_minus=False,
                                                                   x_plus=True))),
                 "x_minus and x_plus must be integers", id="x-bounds-bool"),
    pytest.param(lambda: parse_field_config(general_form(x_plus=True)),
                 "x_minus and x_plus must be integers", id="x-plus-bool"),
    pytest.param(lambda: parse_field_config(general_form(defects={})),
                 "defects must be a list of coins", id="defects-not-list"),
    pytest.param(lambda: CoinMatrix(np.eye(2)), "coin must be 3x3, got shape (2, 2)",
                 id="matrix-not-3x3"),
    pytest.param(lambda: CoinMatrix(np.full((3, 3), np.nan)),
                 "coin has non-finite entries", id="matrix-not-finite"),
    pytest.param(lambda: parse_field_config(
        '{"model": "homogeneous", "coin": {"preset": "fourier", "phase": Infinity}}'),
                 "coin: phase must be finite, got inf", id="phase-not-finite"),
    pytest.param(lambda: parse_field_config(
        '{"model": "one-defect", "bulk": {"preset": "grover", "phase": NaN},'
        ' "origin": {"preset": "fourier"}}'),
                 "bulk: phase must be finite, got nan", id="phase-nan"),
    pytest.param(lambda: parse_field_config(general_form(
        defects=[FOURIER] * 3 + [{"preset": "fourier", "phase": -float("inf")}])),
                 "defects[3]: phase must be finite, got -inf", id="defect-phase-not-finite"),
    pytest.param(lambda: parse_field_config(general_form(
        defects=[FOURIER] * 3 + [{"rows": [[[1, 0, 99], [0, 0], [0, 0]]] * 3}])),
                 "defects[3]: rows must be a 3x3 nesting of [re, im] pairs", id="rows-triple"),
    pytest.param(lambda: parse_field_config(json.dumps(general_form(
        c_plus={"rows": [[[True, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                         [[0, 0], [0, 0], [1, 0]]]}))),
                 "c_plus: rows must be a 3x3 nesting of [re, im] pairs", id="rows-bool"),
    pytest.param(lambda: parse_field_config(general_form(
        defects=[{"rows": [[["1.0", "0"], [0, 0], [0, 0]]] * 3}])),
                 "defects[0]: rows must be a 3x3 nesting of [re, im] pairs", id="rows-string"),
    pytest.param(lambda: parse_field_config(general_form(
        defects=[{"rows": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0]] * 3]}])),
                 "defects[0]: rows must be a 3x3 nesting of [re, im] pairs", id="rows-ragged"),
    pytest.param(lambda: parse_field_config(general_form(c_plus={"preset": ["fourier"]})),
                 "c_plus: unknown preset ['fourier']", id="preset-not-a-name"),
    pytest.param(lambda: parse_field_config(general_form(c_minus={"rows": "abc"})),
                 "c_minus: rows must be a 3x3 nesting of [re, im] pairs", id="rows-string-itself"),
    pytest.param(lambda: parse_field_config(general_form(
        defects=[FOURIER, {"rows": [[[10**400, 0], [0, 0], [0, 0]]] * 3}])),
                 "defects[1]: rows entry too large for a float", id="rows-int-past-float"),
    pytest.param(lambda: parse_field_config(json.dumps(general_form(
        c_plus={"rows": [[[0, 0], [0, 0], [-10**400, 0]]] * 3}))),
                 "c_plus: rows entry too large for a float", id="rows-negative-int-past-float"),
    pytest.param(lambda: parse_field_config(
        {"model": "one-defect", "bulk": FOURIER, "origin": {"preset": "grover", "phase": 10**400}}),
                 "origin: int too large to convert to float", id="phase-int-past-float"),
    pytest.param(lambda: parse_field_config('{"model": "homogeneous", "coin": {"preset": '
                                            '"fourier", "phase": ' + "9" * 5000 + "}}"),
                 "config is not valid JSON: Exceeds the limit", id="json-int-too-long"),
    pytest.param(lambda: parse_field_config("[" * 100_000),
                 "config is not valid JSON: maximum recursion depth", id="json-too-deep"),
])
def test_outside_input_errors_name_the_fault(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


def test_parse_rejects_non_unitary_naming_position():
    rows = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3
    cfg = {"model": "homogeneous", "coin": {"rows": rows}}
    with pytest.raises(ConfigError, match=r"coin.*not unitary.*1e-10"):
        parse_field_config(cfg)


def test_parse_rejects_degenerate_coin():
    eye = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    cfg = {"model": "two-phase", "left": {"preset": "fourier"}, "right": {"rows": eye}}
    with pytest.raises(ConfigError, match=r"right.*degenerate"):
        parse_field_config(cfg)


def test_a_config_checked_as_one_stack_keeps_every_coin_bit(rng):
    # each parsed coin is CoinMatrix(arr) byte for byte, and its det_phase is
    # the wrapped angle of np.linalg.det on that coin alone
    from qw3.linalg import wrap_phase

    from conftest import bench_wide_field

    coins = [random_coin(rng) for _ in range(200)]
    for index in range(24):
        field = bench_wide_field(101, index)
        coins += [field.c_minus, *field.defects, field.c_plus]
    parsed = parse_field_config(json.dumps(serialize_field(
        CoinField(coins[0], coins[-1], 0, len(coins) - 2, tuple(coins[1:-1])))))
    for coin, got in zip(coins, [parsed.c_minus, *parsed.defects, parsed.c_plus]):
        alone = CoinMatrix(coin.mat.copy())
        assert got.mat.tobytes() == alone.mat.tobytes() == coin.mat.tobytes()
        det_phase = float(wrap_phase(np.angle(np.linalg.det(coin.mat))))
        assert (np.float64(got.det_phase).tobytes() == np.float64(alone.det_phase).tobytes()
                == np.float64(det_phase).tobytes())


NON_UNITARY = {"rows": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3}
IDENTITY = {"rows": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}


@pytest.mark.parametrize("doc, message", [
    pytest.param(general_form(defects=[FOURIER, FOURIER, NON_UNITARY, FOURIER,
                                       {"rows": [[1, 0, 0]] * 3}]),
                 "defects[2]: coin is not unitary: max |C^dag C - I| = 2.000e+00 > 1e-10",
                 id="non-unitary-before-malformed"),
    pytest.param(general_form(defects=[FOURIER, FOURIER, {"rows": [[1, 0, 0]] * 3}, FOURIER,
                                       NON_UNITARY]),
                 "defects[2]: rows must be a 3x3 nesting of [re, im] pairs",
                 id="malformed-before-non-unitary"),
    pytest.param(general_form(c_minus=IDENTITY, defects=[FOURIER, NON_UNITARY]),
                 "defects[1]: coin is not unitary: max |C^dag C - I| = 2.000e+00 > 1e-10",
                 id="degenerate-c-minus-after-non-unitary-defect"),
    pytest.param(general_form(c_minus=IDENTITY, defects=[FOURIER, {"preset": "nope"}]),
                 "defects[1]: unknown preset 'nope'", id="degenerate-c-minus-after-bad-preset"),
    pytest.param(general_form(defects=[IDENTITY, NON_UNITARY]),
                 "defects[0]: degenerate coin: |entry (2,2)| = 1 reduces the walk to two "
                 "effective states", id="degenerate-before-non-unitary"),
    pytest.param({"model": "two-phase", "left": NON_UNITARY, "right": {"rows": 5}},
                 "left: coin is not unitary: max |C^dag C - I| = 2.000e+00 > 1e-10",
                 id="two-phase-left-first"),
])
def test_a_config_with_two_faulty_coins_names_the_first(doc, message):
    # the messages are those of checking one coin after another, in the order
    # defects, c_minus, c_plus
    with pytest.raises(ConfigError) as exc:
        parse_field_config(json.dumps(doc))
    assert str(exc.value).startswith(message)


def test_unitarity_invariant_on_random_coins(rng):
    for _ in range(200):
        c = random_coin(rng)
        assert np.abs(c.mat.conj().T @ c.mat - np.eye(3)).max() <= 1e-10


def test_homogeneous_field():
    field = field_homogeneous(make_grover())
    assert field.x_minus == field.x_plus == 0
    assert np.array_equal(field.lookup(17).mat, make_grover().mat)
