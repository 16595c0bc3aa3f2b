import numpy as np
import pytest

from qw3.coin import (
    CoinField,
    CoinMatrix,
    field_homogeneous,
    field_one_defect,
    field_two_phase,
    make_fourier,
    make_grover,
    phase_scale,
)
from qw3.evolution import apply_u
from qw3.linalg import TAU
from qw3.spectral import (
    LAMBDA0_GUARD,
    TR_TOL,
    asymptotic_spectrum,
    build_eigenvector,
    chi_batch,
    find_roots,
    lambda0_adjudicate,
    lambda0_set,
    operator_residual,
)
from qw3.transfer import a_zero, lambda0_angle

from conftest import THETAS, abcd, random_coin, transfer_matrix

OMEGA = np.exp(2j * np.pi / 3)
FOURIER_DELTA = -1j  # determinant of the 3-point DFT coin

# chi-root eigenphases of the eight presets at grid 4000, refine_tol 1e-12
PRESET_EIGENPHASES = {
    ("one-defect", 0): (0.5405655958171292, 2.172793810778921, 3.7052863079839913),
    ("one-defect", 1): (0.6372771231181227, 2.4609101630918397, 3.715517180648835,
                        3.878577791948085),
    ("one-defect", 2): (0.5488601767634314, 0.8930752091178794, 2.101287807828543,
                        3.0362821412885355, 4.2952920476322305, 4.367791867590693),
    ("one-defect", 3): (0.8372504355192842, 1.083515479405079, 2.2458001350679067,
                        3.7931480613430715, 4.715942289977832, 5.103208226138609),
    ("two-phase", 0): (),
    ("two-phase", 1): (3.7548624761308327,),
    ("two-phase", 2): (0.6314823591294982, 4.342706009054389),
    ("two-phase", 3): (0.9854355217967526, 3.975586510727874, 5.035950397583636),
}


def preset_field(model, theta_index):
    shifted = phase_scale(make_fourier(), THETAS[theta_index])
    build = field_one_defect if model == "one-defect" else field_two_phase
    return build(make_fourier(), shifted)


def sample_valid(rng, coin):
    while True:
        lam = rng.uniform(0, TAU)
        if not a_zero(coin, lam):
            return lam


def spectrum_at(coin, lam):
    """asymptotic_spectrum at one phase: the eigenpairs (unit vectors) and in_lambda."""
    pairs, in_lambda, _ = asymptotic_spectrum(coin, np.exp(1j * np.array([lam])))
    unit = [v[0] / np.linalg.norm(v[0]) for v in (pairs.v_less, pairs.v_greater)]
    return pairs.zeta_less[0], pairs.zeta_greater[0], *unit, bool(in_lambda[0])


def test_decay_rate_product_has_unit_modulus(rng):
    for _ in range(1000):
        c = random_coin(rng)
        lam = sample_valid(rng, c)
        z_less, z_greater, _, _, _ = spectrum_at(c, lam)
        assert abs(abs(z_less * z_greater) - 1.0) <= 1e-10
        assert abs(z_less) <= abs(z_greater) + 1e-12


def test_outside_arcs_both_rates_on_unit_circle(rng):
    count = 0
    for _ in range(2000):
        c = random_coin(rng)
        lam = sample_valid(rng, c)
        z_less, z_greater, _, _, in_lambda = spectrum_at(c, lam)
        if not in_lambda:
            count += 1
            assert abs(abs(z_less) - 1.0) <= 1e-8
            assert abs(abs(z_greater) - 1.0) <= 1e-8
    assert count > 50  # the sample actually exercised the branch


def test_eigenpair_certification_inside_arcs(rng):
    seen = 0
    while seen < 1000:
        c = random_coin(rng)
        lam = sample_valid(rng, c)
        z_less, z_greater, v_less, v_greater, in_lambda = spectrum_at(c, lam)
        if not in_lambda:
            continue
        seen += 1
        t = transfer_matrix(c, lam)
        assert np.linalg.norm(t @ v_less - z_less * v_less) <= 1e-9
        assert np.linalg.norm(t @ v_greater - z_greater * v_greater) <= 1e-9


def test_asymptotic_spectrum_rejects_degenerate_phase():
    # no transfer matrix at the degenerate phase: flagged, and kept off the arcs
    _, in_lambda, zero = asymptotic_spectrum(make_grover(), np.array([1.0 + 0j]))
    assert zero[0] and not in_lambda[0]


def test_fourier_arcs_form_finite_union():
    # tabulated |tr| - 2 changes sign finitely often: three arcs for this coin
    coin = make_fourier()
    n = 10_000
    inside = []
    for i in range(n):
        t = transfer_matrix(coin, i * TAU / n)
        if t is None:
            inside.append(inside[-1] if inside else False)
            continue
        tr = t[0, 0] + t[1, 1]
        inside.append(abs(tr) > 2.0)
    changes = sum(1 for i in range(n) if inside[i] != inside[(i + 1) % n])
    assert changes == 6
    assert any(inside) and not all(inside)


def test_chi_homogeneous_never_vanishes_on_arcs():
    field = field_homogeneous(make_fourier())
    values, in_lambda, _ = chi_batch(field, np.arange(2000) * (TAU / 2000))
    defined = ~np.isnan(values) & in_lambda
    assert defined.sum() > 100
    assert np.abs(values[defined]).min() > 1e-2  # no roots anywhere near


def test_chi_flags_outside_arcs():
    field = field_homogeneous(make_fourier())
    values, in_lambda, _ = chi_batch(field, np.array([0.0]))
    assert not in_lambda[0] and np.isnan(values[0])


def test_chi_near_guard_flag():
    field = field_homogeneous(make_fourier())
    lam0 = lambda0_set(field)[0]
    _, _, near = chi_batch(field, np.array([lam0 + 5e-7, lam0 + 5e-3]))
    assert near[0] and not near[1]


def test_find_roots_one_defect_counts_and_certificates():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), np.pi / 12))
    scan = find_roots(field, grid_n=4000, refine_tol=1e-12)
    assert len(scan.records) == 3
    assert scan.diagnostics == []
    guards = lambda0_set(field)
    for r in scan.records:
        assert r.source == "chi-root"
        assert r.chi_residual <= 1e-8
        assert r.op_residual <= 1e-8
        assert abs(r.zeta_right) <= 1.0 - 1e-6
        assert abs(r.zeta_left) >= 1.0 + 1e-6
        # local-minimum certificate
        bumped, _, _ = chi_batch(field, r.lam + np.array([-1e-11, 1e-11]), guards)
        assert (np.abs(bumped) > r.chi_residual).all()
        # records are sorted
    lams = [r.lam for r in scan.records]
    assert lams == sorted(lams)


def test_find_roots_validates_arguments():
    field = field_homogeneous(make_fourier())
    with pytest.raises(ValueError, match="grid_n"):
        find_roots(field, grid_n=100)
    with pytest.raises(ValueError, match="refine_tol"):
        find_roots(field, refine_tol=0.0)


def test_lambda0_sets_fourier_models():
    # one coin contributes the angle of conj(w) e^{i Delta}, the phase-shifted
    # one adds theta; one-defect and two-phase fields share the same pair
    for theta in THETAS:
        shifted = phase_scale(make_fourier(), theta)
        base_angle = np.angle(np.conj(OMEGA) * FOURIER_DELTA) % TAU
        expected = sorted(
            [base_angle, (base_angle + theta) % TAU]
        )
        for field in (
            field_one_defect(make_fourier(), shifted),
            field_two_phase(make_fourier(), shifted),
        ):
            got = lambda0_set(field)
            assert len(got) == 2
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


def test_lambda0_adjudicate_fourier_models_empty():
    for theta in THETAS:
        shifted = phase_scale(make_fourier(), theta)
        assert lambda0_adjudicate(field_one_defect(make_fourier(), shifted)) == []
        assert lambda0_adjudicate(field_two_phase(make_fourier(), shifted)) == []


def test_lambda0_adjudicate_homogeneous_grover():
    records = lambda0_adjudicate(field_homogeneous(make_grover()))
    assert len(records) == 1
    r = records[0]
    assert r.source == "lambda0-compact"
    assert abs(np.exp(1j * r.lam) - 1.0) < 1e-12
    assert r.op_residual <= 1e-8
    assert r.zeta_left == 0 and r.zeta_right == 0  # compactly supported
    # the eigenvector occupies finitely many sites
    occupied = np.nonzero(r.eigvec.site_norms() > 1e-12)[0]
    assert len(occupied) <= 3


def test_lambda0_adjudicate_homogeneous_fourier_empty():
    assert lambda0_adjudicate(field_homogeneous(make_fourier())) == []


def test_build_eigenvector_properties():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 3 * np.pi / 12))
    record = find_roots(field, grid_n=2000).records[0]
    psi = record.eigvec
    assert abs(psi.norm() - 1.0) < 1e-10
    # geometric tails: consecutive site-norm ratios approach the decay rates
    norms = psi.site_norms()
    xs = np.arange(psi.lo, psi.hi + 1)
    right = (xs > field.x_plus + 2) & (norms > 1e-9)
    ratios = norms[1:][right[1:]] / norms[:-1][right[1:]]
    assert np.abs(ratios - abs(record.zeta_right)).max() < 1e-6
    left = (xs < field.x_minus - 2) & (norms > 1e-9)
    ratios_l = norms[1:][left[:-1]] / norms[:-1][left[:-1]]
    assert np.abs(ratios_l - abs(record.zeta_left)).max() < 1e-6


def test_build_eigenvector_rejects_phase_outside_arcs():
    field = field_homogeneous(make_fourier())
    with pytest.raises(ValueError, match="outside the allowed arcs"):
        build_eigenvector(field, 0.0)


def test_build_eigenvector_rejects_window_degenerate_phase():
    # the defect's exceptional phase lies on the bulk's arcs, but the window
    # chain cannot be built there: no chi-root eigenvector exists to return
    defect = phase_scale(make_fourier(), np.pi / 12)
    field = field_one_defect(make_fourier(), defect)
    lam = lambda0_angle(defect)
    assert spectrum_at(field.c_minus, lam)[-1]
    with pytest.raises(ValueError, match="cannot be built"):
        build_eigenvector(field, lam)


def test_build_eigenvector_reproduces_records():
    # find_roots certifies the vector build_eigenvector returns, bit for bit
    for model, i in PRESET_EIGENPHASES:
        field = preset_field(model, i)
        for r in find_roots(field).records:
            psi = build_eigenvector(field, r.lam)
            assert (psi.lo, psi.hi) == (r.eigvec.lo, r.eigvec.hi), (model, i, r.lam)
            assert (psi.amps == r.eigvec.amps).all(), (model, i, r.lam)


def test_eigenvector_satisfies_eigen_equation():
    # independent certification through the direct simulator
    field = field_two_phase(make_fourier(), phase_scale(make_fourier(), 11 * np.pi / 12))
    scan = find_roots(field, grid_n=4000)
    assert len(scan.records) == 3
    for r in scan.records:
        psi = r.eigvec
        stepped = apply_u(field, psi)
        target = np.exp(1j * r.lam) * psi.amps
        assert np.linalg.norm(stepped.amps - target) <= 1e-8


def test_operator_residual_matches_apply_u():
    field = field_homogeneous(make_grover())
    r = lambda0_adjudicate(field)[0]
    assert operator_residual(field, r.lam, r.eigvec) == r.op_residual


def test_lambda0_interior_compact_chain():
    # two adjacent defect sites whose transfer matrices degenerate at the same
    # phase support an eigenvector pinched between them, even though the bulk
    # coin admits no compact tails there
    from qw3.coin import CoinField

    field = CoinField(make_fourier(), make_fourier(), -1, 1,
                      (make_grover(), make_grover()))
    records = lambda0_adjudicate(field)
    assert len(records) == 1
    r = records[0]
    assert abs(np.exp(1j * r.lam) - 1.0) < 1e-12
    assert r.op_residual <= 1e-8
    occupied = np.nonzero(r.eigvec.site_norms() > 1e-12)[0]
    assert len(occupied) <= 3


def test_lambda0_compact_bump_on_either_side():
    # a Grover half-line pins a compact bump just beyond the window on its side
    for field, support in ((field_two_phase(make_fourier(), make_grover()), (0, 1)),
                           (field_two_phase(make_grover(), make_fourier()), (-2, -1))):
        records = lambda0_adjudicate(field)
        assert len(records) == 1
        r = records[0]
        assert abs(np.exp(1j * r.lam) - 1.0) < 1e-12
        assert (r.eigvec.lo, r.eigvec.hi) == support
        assert r.op_residual <= 1e-8


def test_lambda0_interior_chain_between_geometric_tails():
    # at lam = 0 this bulk lies on its arcs, so both tails are geometric, yet
    # the chain pinched between the Grover sites ends inside the window on
    # both sides and the eigenvector stays compact
    bulk = phase_scale(make_fourier(), np.pi / 2)
    assert spectrum_at(bulk, 0.0)[-1]
    field = CoinField(bulk, bulk, -1, 1, (make_grover(), make_grover()))
    records = lambda0_adjudicate(field)
    assert len(records) == 1
    r = records[0]
    assert r.zeta_left == 0 and r.zeta_right == 0
    assert (r.eigvec.lo, r.eigvec.hi) == (-1, 0)
    assert r.op_residual <= 1e-8


def compact_chain_field():
    """Fourier bulk around one dressed-Fourier defect D = P1 F P2 (P1, P2
    diagonal phases). At the bulk's degenerate phase 5pi/6 both tails are
    compact, and D's transfer matrix, which can be built there, carries the
    left tail's constraint direction onto the right one's."""
    a, b, c, d = (5.858085580270765, -1.6891355485845025,
                  5.606373191873271, -0.7964822673645127)
    f = make_fourier().mat
    dressed = np.diag(np.exp(1j * np.array([a, b, 0.0]))) @ f @ np.diag(
        np.exp(1j * np.array([c, d, 0.0])))
    return CoinField(make_fourier(), make_fourier(), 0, 1, (CoinMatrix(dressed),))


def test_lambda0_compact_chain_through_nondegenerate_defect():
    field = compact_chain_field()
    records = lambda0_adjudicate(field)
    assert len(records) == 1
    r = records[0]
    assert r.source == "lambda0-compact"
    assert abs(r.lam - 5 * np.pi / 6) < 1e-12
    assert r.zeta_left == 0 and r.zeta_right == 0
    assert r.op_residual <= 1e-8
    occupied = np.nonzero(r.eigvec.site_norms() > 1e-12)[0]
    assert len(occupied) <= 3
    scan = find_roots(field)
    assert [round(s.lam, 9) for s in scan.records] == [4.865002516]
    mine = sorted([r.lam] + [s.lam for s in scan.records])
    brute = _dense_point_spectrum(field, 60)
    assert len(brute) == 2
    assert max(abs(a - b) for a, b in zip(mine, brute)) < 1e-9


SWAP_13 = np.eye(3)[[2, 1, 0]]


def mirrored(field):
    """The parity image C'(y) = S C(-y) S of a field, S swapping components 1
    and 3: a unitarily equivalent walk, so its point spectrum is the same.
    The tails trade sides, and the window [1 - x_plus, 1 - x_minus) takes
    the new left tail's coin at 0 where it would not contain the origin."""
    def swap(coin):
        return CoinMatrix(SWAP_13 @ coin.mat @ SWAP_13)

    lo, hi = min(0, 1 - field.x_plus), 1 - field.x_minus
    return CoinField(swap(field.c_plus), swap(field.c_minus), lo, hi,
                     tuple(swap(field.lookup(-y)) for y in range(lo, hi)))


def _arc_edge_field():
    rng = np.random.default_rng(20240817)
    return CoinField(random_coin(rng), random_coin(rng), -6, 6,
                     tuple(random_coin(rng) for _ in range(12)))


@pytest.mark.parametrize("field", [
    *(pytest.param(preset_field(m, i), id=f"{m}-theta{i}")
      for m in ("one-defect", "two-phase") for i in range(4)),
    pytest.param(CoinField(make_fourier(), make_fourier(), -1, 1,
                           (make_grover(), make_grover())), id="interior-chain"),
    pytest.param(compact_chain_field(), id="compact-chain"),
    pytest.param(field_two_phase(make_fourier(), make_grover()), id="compact-bump"),
    # 8 roots, all in the dense spectrum; in the mirror the grid minimum of
    # 1.929675 falls on the arc-edge sample next to an off-arc one
    pytest.param(_arc_edge_field(), id="arc-edge-miss"),
])
def test_parity_mirror_has_the_same_spectrum(field):
    image = mirrored(field)
    roots = [r.lam for r in find_roots(field).records]
    image_roots = [r.lam for r in find_roots(image).records]
    assert len(roots) == len(image_roots)
    assert all(abs(a - b) <= 1e-10 for a, b in zip(roots, image_roots))
    phases = [r.lam for r in lambda0_adjudicate(field)]
    image_phases = [r.lam for r in lambda0_adjudicate(image)]
    assert len(phases) == len(image_phases)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(phases, image_phases))


def _dense_walk_operator(field, half_width):
    n = 2 * half_width + 1
    coin_block = np.zeros((3 * n, 3 * n), dtype=complex)
    for i, x in enumerate(range(-half_width, half_width + 1)):
        coin_block[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = field.lookup(x).mat
    shift = np.zeros((3 * n, 3 * n))
    for i in range(n):
        if i + 1 < n:
            shift[3 * i, 3 * (i + 1)] = 1.0
        shift[3 * i + 1, 3 * i + 1] = 1.0
        if i >= 1:
            shift[3 * i + 2, 3 * (i - 1) + 2] = 1.0
    return shift @ coin_block


def _dense_point_spectrum(field, half_width):
    """Localized eigenphases of the truncated operator (brute-force oracle)."""
    vals, vecs = np.linalg.eig(_dense_walk_operator(field, half_width))
    angles = []
    for j in range(len(vals)):
        if abs(abs(vals[j]) - 1.0) > 1e-8:
            continue
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        if max(np.abs(v[:3]).max(), np.abs(v[-3:]).max()) > 1e-7:
            continue  # touches the truncation boundary
        angles.append(float(np.angle(vals[j]) % TAU))
    angles.sort()
    merged = []
    for a in angles:
        if not merged or min(abs(a - merged[-1]), TAU - abs(a - merged[-1])) > 1e-6:
            merged.append(a)
    return merged


def test_roots_match_dense_diagonalization():
    # full point spectrum against an oracle that knows nothing about the
    # transfer reduction: dense diagonalization of the truncated operator
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 3 * np.pi / 12))
    mine = sorted(
        [r.lam for r in find_roots(field).records]
        + [r.lam for r in lambda0_adjudicate(field)]
    )
    brute = _dense_point_spectrum(field, 60)
    assert len(mine) == len(brute) == 4
    assert max(abs(a - b) for a, b in zip(mine, brute)) < 1e-9


def test_mixed_field_matches_dense_diagonalization():
    # same cross-check on the field with an interior compact chain: the
    # degenerate-phase record and all scan roots appear in the dense spectrum
    from qw3.coin import CoinField

    field = CoinField(make_fourier(), make_fourier(), -1, 1,
                      (make_grover(), make_grover()))
    mine = sorted(
        [r.lam for r in find_roots(field).records]
        + [r.lam for r in lambda0_adjudicate(field)]
    )
    brute = _dense_point_spectrum(field, 60)
    assert len(mine) == len(brute) == 5
    assert max(abs(a - b) for a, b in zip(mine, brute)) < 1e-6


def test_preset_eigenphases_pinned():
    for (model, i), expected in PRESET_EIGENPHASES.items():
        scan = find_roots(preset_field(model, i), grid_n=4000, refine_tol=1e-12)
        assert scan.diagnostics == [], (model, i, scan.diagnostics)
        got = [r.lam for r in scan.records]
        assert len(got) == len(expected), (model, i, got)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-12, (model, i, g, e)


def test_wide_field_matches_dense_diagonalization():
    # a 16-site random window whose |chi| grows through the window: the roots
    # are found by their zero, not by how small |chi| gets there
    rng = np.random.default_rng(4)
    field = CoinField(random_coin(rng), random_coin(rng), -8, 8,
                      tuple(random_coin(rng) for _ in range(16)))
    mine = sorted(
        [r.lam for r in find_roots(field).records]
        + [r.lam for r in lambda0_adjudicate(field)]
    )
    brute = _dense_point_spectrum(field, 60)
    assert len(mine) == len(brute) == 28
    assert max(abs(a - b) for a, b in zip(mine, brute)) < 1e-9


def reference_chi(field, lam, angles):
    """|chi|, in_lambda and near_lambda0 at one phase, built independently of
    the batched kernel: transfer matrices from the rational coefficients (the
    criterion-8 construction), np.linalg.eigvals for the tail eigenvalues,
    unnormalised tail vectors from the first row of T - zeta unless the
    second is more than twice as well conditioned, an explicit product over
    the window sites. angles are the coins' exceptional phases; |chi| is None where chi
    is undefined."""
    el = np.exp(1j * lam)

    def transfer(coin):
        A, B, C, D = abcd(coin, lam)
        if abs(A) <= 1e-9:
            return None  # an exceptional phase of this coin
        return np.array([[el, -B], [C, -np.conj(el) * (B * C - A * D)]]) / A

    near = any(min(abs(lam - a) % TAU, TAU - abs(lam - a) % TAU) < LAMBDA0_GUARD
               for a in angles)
    tails = []
    for coin in (field.c_minus, field.c_plus):
        t = transfer(coin)
        if t is None:
            return None, False, True
        inside = abs(t[0, 0] + t[1, 1]) > 2.0 + TR_TOL
        rows = []
        for z in sorted(np.linalg.eigvals(t), key=abs):
            first = np.array([t[0, 1], z - t[0, 0]])
            second = np.array([z - t[1, 1], t[1, 0]])
            rows.append(first if 2 * np.linalg.norm(first) >= np.linalg.norm(second)
                        else second)
        tails.append((inside, *rows))
    (in_minus, _, v), (in_plus, w, _) = tails
    if not (in_minus and in_plus):
        return None, False, near
    for x in range(field.x_minus, field.x_plus + 1):
        t = transfer(field.lookup(x))
        if t is None:
            return None, True, True
        v = t @ v
    return abs(v[0] * w[1] - v[1] * w[0]), True, near


def test_batched_chi_matches_scalar_reference():
    rng = np.random.default_rng(12)
    fields = [preset_field(m, i) for m in ("one-defect", "two-phase") for i in range(4)]
    fields.append(CoinField(random_coin(rng), random_coin(rng), -6, 6,
                            tuple(random_coin(rng) for _ in range(12))))
    for field in fields:
        angles = [lambda0_angle(c) for c in field.distinct_coins()]
        angles = [a for a in angles if a is not None]
        defined = 0
        lams = np.arange(1000) * (TAU / 1000)
        for lam, value, inside, guarded in zip(lams, *chi_batch(field, lams)):
            ref, in_lambda, near = reference_chi(field, lam, angles)
            assert (inside, guarded) == (in_lambda, near)
            assert np.isnan(value) == (ref is None)
            if ref is not None:
                defined += 1
                assert abs(abs(value) - ref) <= 1e-9 * ref
        assert defined > 100
    # without guards, the degenerate-phase mask alone flags a window coin's
    # (one-defect) or a tail coin's (two-phase) exceptional phase
    lam0 = lambda0_angle(phase_scale(make_fourier(), THETAS[0]))
    for model, in_lambda in (("one-defect", True), ("two-phase", False)):
        value, inside, near = chi_batch(preset_field(model, 0), np.array([lam0]), [])
        assert (np.isnan(value[0]), inside[0], near[0]) == (True, in_lambda, True)
