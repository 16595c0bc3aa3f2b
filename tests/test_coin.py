import json

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
    assert len(field.distinct_coins()) == 1


def test_distinct_coins_keep_first_seen_order_and_equate_signed_zeros():
    f, g = make_fourier(), make_grover()
    # the same Grover coin written with -0.0 imaginary parts
    m = g.mat.copy()
    m.imag = -0.0
    g_neg = CoinMatrix(m)
    assert np.signbit(g_neg.mat.imag).all() and np.array_equal(g_neg.mat, g.mat)
    field = CoinField(g, f, -2, 2, (f, g_neg, phase_scale(f, 0.3), g))
    got = field.distinct_coins()
    assert [c.mat.tobytes() for c in got] == [g.mat.tobytes(), f.mat.tobytes(),
                                              phase_scale(f, 0.3).mat.tobytes()]
    assert got[0] is g and got[1] is f


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


def test_unitarity_invariant_on_random_coins(rng):
    for _ in range(200):
        c = random_coin(rng)
        assert np.abs(c.mat.conj().T @ c.mat - np.eye(3)).max() <= 1e-10


def test_homogeneous_field():
    field = field_homogeneous(make_grover())
    assert field.x_minus == field.x_plus == 0
    assert np.array_equal(field.lookup(17).mat, make_grover().mat)
