import warnings

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
from qw3.linalg import TAU, angle_dist, eig2_batch
from qw3.spectral import (
    TR_TOL,
    _SECANT_ESCAPE,
    _chain,
    _chains,
    _secant,
    _tail_pairs,
    build_eigenvector,
    chi_batch,
    find_roots,
    lambda0_adjudicate,
    lambda0_set,
    operator_residual,
)
from qw3.transfer import zero_case_vectors

from conftest import (
    THETAS,
    abcd,
    bench_wide_field,
    lambda0_angle,
    parity_hash,
    random_coin,
    transfer_batch,
    transfer_matrix,
)

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
        if not transfer_batch(coin, np.exp(1j * lam))[1]:
            return lam


def tail_at(field, el, k):
    """Tail k (0: c_minus, 1: c_plus) of _tail_pairs(field, el, either=True): its
    masks (in_lambda, zero) and its pair (zeta, v) at the phases where it decays."""
    *tails, idx, pairs = _tail_pairs(field, el, either=True)
    in_lambda, zero = tails[k]
    on = in_lambda[idx]
    return in_lambda, zero, pairs.zeta[k, on], pairs.v[k, on]


def spectrum_at(coin, lam):
    """Both eigenpairs (unit vectors), ordered by modulus, of the coin's transfer
    matrix at one phase, from eig2_batch, and in_lambda from _tail_pairs.
    On the arcs, _tail_pairs' tail pairs are these, bit for bit:
    c_minus's the growing one, c_plus's the decaying one. They are the same
    whether the coin is on both half-lines (one solve for both tails) or
    beside another coin (one solve per tail)."""
    el = np.exp(1j * np.array([lam]))
    less, greater = (eig2_batch(*transfer_batch(coin, el)[0], g) for g in (False, True))
    tails = [tail_at(field_homogeneous(coin), el, k) for k in (0, 1)]
    other = make_fourier()
    beside = (tail_at(field_two_phase(coin, other), el, 0),
              tail_at(field_two_phase(other, coin), el, 1))
    for tail, alone in zip(tails, beside):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(tail, alone))
    in_lambda = bool(tails[0][0][0])
    if in_lambda:
        for (*_, zeta, v), pair in zip(tails, (greater, less)):
            assert zeta.tobytes() == pair.zeta.tobytes() and v.tobytes() == pair.v.tobytes()
    unit = [p.v[0] / np.linalg.norm(p.v[0]) for p in (less, greater)]
    return less.zeta[0], greater.zeta[0], *unit, in_lambda


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
    # 1000 random coins, then 50 phases each of Fourier and Grover phase-scaled at the four theta
    scaled = [phase_scale(make(), t) for make in (make_fourier, make_grover) for t in THETAS]
    seen = 0
    while seen < 1000 + 50 * len(scaled):
        c = random_coin(rng) if seen < 1000 else scaled[(seen - 1000) // 50]
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
    *tails, idx, pairs = _tail_pairs(field_homogeneous(make_grover()), np.array([1.0 + 0j]),
                                     either=True)
    for in_lambda, zero in tails:
        assert zero[0] and not in_lambda[0]
    assert idx.size == 0 and pairs.zeta.shape == (2, 0)  # no pair off the arcs


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
    # near_lambda0 is the degenerate-phase mask itself, with no band around it
    field = field_homogeneous(make_fourier())
    lam0 = lambda0_set(field)[0]
    _, _, near = chi_batch(field, np.array([lam0, lam0 + 5e-7, lam0 + 5e-3]))
    assert near[0] and not near[1] and not near[2]


def test_find_roots_one_defect_counts_and_certificates():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), np.pi / 12))
    scan = find_roots(field, grid_n=4000, refine_tol=1e-12)
    assert len(scan.records) == 3
    assert scan.diagnostics == []
    for r in scan.records:
        assert r.source == "chi-root"
        assert r.chi_residual <= 1e-8
        assert r.op_residual <= 1e-8
        assert abs(r.zeta_right) <= 1.0 - 1e-6
        assert abs(r.zeta_left) >= 1.0 + 1e-6
        # local-minimum certificate
        bumped, _, _ = chi_batch(field, r.lam + np.array([-1e-11, 1e-11]))
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


def test_find_roots_rejects_a_nan_tolerance():
    # with a NaN tolerance no secant run ends, so all three roots would vanish
    # without a diagnostic
    assert len(find_roots(preset_field("one-defect", 0)).records) == 3
    with pytest.raises(ValueError, match="refine_tol"):
        find_roots(preset_field("one-defect", 0), refine_tol=float("nan"))


def test_a_secant_run_far_off_the_axis_escapes_before_chi(monkeypatch):
    # seed-27 wide field 10 (23 sites): one run steps to Im x ~ -30, where the
    # site loop overflows; it stops there, chi unasked, and is reported
    field, asked = bench_wide_field(27, 10), []

    def spy(field, lams):
        asked.append(np.abs(np.imag(lams)).max(initial=0.0))
        return chi_batch(field, lams)

    monkeypatch.setattr("qw3.spectral.chi_batch", spy)
    scan = find_roots(field)
    assert max(asked) <= _SECANT_ESCAPE == 8.0
    (d,) = scan.diagnostics
    assert d["kind"] == "refine-escaped" and abs(d["lambda_imag"]) > _SECANT_ESCAPE
    assert 0.0 <= d["lambda"] < TAU and len(scan.records) == 38


def test_lambda0_set_keeps_the_first_seen_phase_of_a_cluster():
    # F and F e^{i 2pi} share a degenerate phase to within an ulp; of such a
    # cluster the first seen of c_minus, c_plus, then the defects is kept
    f, g = make_fourier(), make_grover()
    turned = phase_scale(f, TAU)
    assert lambda0_set(field_one_defect(f, turned)) == [2.6179938779914944]
    assert lambda0_set(field_one_defect(turned, f)) == [2.617993877991494]
    assert lambda0_set(CoinField(g, f, 0, 1, (turned,))) == [0.0, 2.6179938779914944]
    assert lambda0_set(CoinField(g, turned, 0, 1, (f,))) == [0.0, 2.617993877991494]


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


def test_operator_residual_of_no_states_is_empty():
    # the list form with no states: no residuals, as with any other count
    got = operator_residual(field_homogeneous(make_grover()), np.array([]), [])
    assert got.shape == (0,) and got.dtype == np.float64


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


def first_chain_field():
    """An on-arc bulk at lam = 0 (Fourier times i) with a dressed Fourier
    D = P1 F P2 before a Grover site. At Grover's degenerate phase 0, D carries
    the left tail's growing direction onto the one Grover requires, so the
    eigenvector is a geometric left tail that ends at the break; the direction
    Grover hands on lands on no right tail."""
    a, b, c, d = (4.438801706953552, 1.5895826446822559, -0.52093826782183,
                  0.0007723091275153356)
    f = make_fourier().mat
    dressed = np.diag(np.exp(1j * np.array([a, b, 0.0]))) @ f @ np.diag(
        np.exp(1j * np.array([c, d, 0.0])))
    bulk = phase_scale(make_fourier(), np.pi / 2)
    return CoinField(bulk, bulk, -1, 1, (CoinMatrix(dressed), make_grover()))


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


def test_the_site_loop_takes_the_rank_one_step_at_a_break():
    # a Grover site at 0 in a Fourier window: at Grover's degenerate phase 0 the
    # state past it is the direction it hands on, pushed forward, and the state
    # at it the direction it requires, pushed backward; the batch's other phase
    # meets no break and takes the transfer product
    fourier, grover = make_fourier(), make_grover()
    field = CoinField(fourier, fourier, -2, 2, (fourier, fourier, grover, fourier))
    lams = np.array([0.0, 1.0])
    start = np.array([[1.0, 0.5j], [0.3, 1.0]], dtype=complex)
    f, b = np.full((2, 5, 2, 2), np.nan, dtype=complex)  # sites -2..2, start rows included
    *end, breaks = _chain(field, np.exp(1j * lams), start, -2, 2, out=f)
    *_, back_breaks = _chain(field, np.exp(1j * lams), start, -2, 2, backward=True, out=b)
    assert breaks.tolist() == [[False, False], [False, False], [True, False], [False, False]]
    assert back_breaks.tolist() == breaks[::-1].tolist()
    assert not np.isnan(np.stack((f, b))).any()  # every site written
    assert f[0].tobytes() == b[-1].tobytes() == start.tobytes()  # site -2, site 2
    assert np.stack(end, axis=-1).tobytes() == f[-1].tobytes()
    required, handed = zero_case_vectors(grover.mat)
    assert f[3, 0].tobytes() == handed.tobytes()  # site 1
    assert b[2, 0].tobytes() == required.tobytes()  # site 0
    v = start[1]
    for x in range(-2, 2):
        v = transfer_matrix(field.lookup(x), lams[1]) @ v
    assert np.abs(f[-1, 1] - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("image", [False, True], ids=["first-chain", "last-chain"])
def test_lambda0_chain_between_a_geometric_tail_and_a_break(image):
    # the first chain (left tail to the break) carries the phase's only
    # eigenvector; in the parity image it is the last (the break to the right tail)
    field = mirrored(first_chain_field()) if image else first_chain_field()
    records = lambda0_adjudicate(field)
    assert len(records) == 1
    r = records[0]
    assert r.source == "lambda0-compact"
    assert abs(np.exp(1j * r.lam) - 1.0) < 1e-12
    tail, cut = (r.zeta_right, r.zeta_left) if image else (r.zeta_left, r.zeta_right)
    assert cut == 0 and 0 < abs(tail) != 1
    assert (r.eigvec.lo if image else r.eigvec.hi) == 0
    assert r.op_residual <= 1e-8
    mine = [r.lam] + [s.lam for s in find_roots(field).records]
    brute = _dense_point_spectrum(field, 60)
    assert len(mine) == len(brute) == 7
    assert all(min(angle_dist(a, b) for b in brute) < 1e-9 for a in mine)


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


def _random_window(seed, sites):
    rng = np.random.default_rng(seed)
    return CoinField(random_coin(rng), random_coin(rng), -(sites // 2), sites - sites // 2,
                     tuple(random_coin(rng) for _ in range(sites)))


@pytest.mark.parametrize("field", [
    *(pytest.param(preset_field(m, i), id=f"{m}-theta{i}")
      for m in ("one-defect", "two-phase") for i in range(4)),
    pytest.param(CoinField(make_fourier(), make_fourier(), -1, 1,
                           (make_grover(), make_grover())), id="interior-chain"),
    pytest.param(compact_chain_field(), id="compact-chain"),
    pytest.param(first_chain_field(), id="first-chain"),
    pytest.param(field_two_phase(make_fourier(), make_grover()), id="compact-bump"),
    # 8 roots, all in the dense spectrum; in the mirror the grid minimum of
    # 1.929675 falls on the arc-edge sample next to an off-arc one
    pytest.param(_random_window(20240817, 12), id="arc-edge-miss"),
    # wide windows whose mirror certified a different count while each
    # eigenvector was pushed forward through the whole window only
    *(pytest.param(bench_wide_field(3, i), id=f"wide-seed3-{i}") for i in (2, 4, 9, 15)),
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


def translated(field, k):
    """The field moved k sites to the right: a walk conjugate to it by the
    shift, so the same spectrum, with every eigenvector moved k sites."""
    return CoinField(field.c_minus, field.c_plus, field.x_minus + k, field.x_plus + k,
                     field.defects)


@pytest.mark.parametrize("field, k", [
    pytest.param(preset_field("one-defect", 0), -1, id="one-defect-theta0-by-1"),
    *(pytest.param(bench_wide_field(seed, i), k, id=f"wide-seed{seed}-{i}-by{k}")
      for seed, i in ((101, 0), (101, 7), (3, 4)) for k in (-5, 5)),
    *(pytest.param(_random_window(seed, 6), k, id=f"random-{seed}-by{k}")
      for seed in (1, 2) for k in (-3, 3)),
])
def test_translation_keeps_every_record_bit(field, k):
    def spectrum(f):
        scan = find_roots(f)
        return scan.records + lambda0_adjudicate(f, scan.diagnostics), scan.diagnostics

    records, diagnostics = spectrum(field)
    image_records, image_diagnostics = spectrum(translated(field, k))
    assert repr(image_diagnostics) == repr(diagnostics)  # repr: a NaN equals itself
    assert len(image_records) == len(records) > 0
    for r, s in zip(records, image_records):
        assert (s.lam, s.chi_residual, s.zeta_left, s.zeta_right, s.op_residual, s.source) == (
            r.lam, r.chi_residual, r.zeta_left, r.zeta_right, r.op_residual, r.source)
        assert (s.eigvec.lo, s.eigvec.hi) == (r.eigvec.lo + k, r.eigvec.hi + k)
        assert s.eigvec.amps.tobytes() == r.eigvec.amps.tobytes()


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


def test_wide_window_root_certified_by_the_joined_chain():
    # seed-101 benchmark field 2 (17 sites, Fourier tails): pushed forward
    # through the whole window alone, the eigenvector at 0.7429355 has a
    # residual of 1.6e-7; joined with the backward push, about 3e-13
    field = bench_wide_field(101, 2)
    scan = find_roots(field)
    near = [r for r in scan.records if abs(r.lam - 0.7429355) < 1e-6]
    assert len(near) == 1
    assert near[0].op_residual <= 1e-11
    assert operator_residual(field, near[0].lam, build_eigenvector(field, near[0].lam)) <= 1e-11
    assert [d for d in scan.diagnostics if d["kind"] == "residual-violation"] == []


def test_batched_certificates_match_one_root_at_a_time():
    # seed-101 benchmark field 23 (32 sites): find_roots lifts and steps all
    # its roots together; one root at a time gives every record bit for bit
    field = bench_wide_field(101, 23)
    records = find_roots(field).records
    assert len(records) >= 40
    psis = [build_eigenvector(field, r.lam) for r in records]
    for r, psi in zip(records, psis):
        assert (psi.lo, psi.hi) == (r.eigvec.lo, r.eigvec.hi), r.lam
        assert psi.amps.tobytes() == r.eigvec.amps.tobytes(), r.lam
        assert operator_residual(field, r.lam, psi) == r.op_residual, r.lam
    lams = np.array([r.lam for r in records])
    assert operator_residual(field, lams, psis).tolist() == [r.op_residual for r in records]


def grover_fields():
    """One-defect and two-phase Grover at the four theta, a Fourier bulk with
    a Grover defect at the four theta, and homogeneous Grover."""
    g = make_grover()
    return ([field_one_defect(g, phase_scale(g, t)) for t in THETAS]
            + [field_two_phase(g, phase_scale(g, t)) for t in THETAS]
            + [field_one_defect(make_fourier(), phase_scale(g, t)) for t in THETAS]
            + [field_homogeneous(g)])


def test_grover_degenerate_phase_records_pinned():
    # (phase, eigenvector window) of each degenerate-phase record, in
    # grover_fields() order: compact bumps beyond the window on the Grover
    # sides, none for a lone Grover defect in a Fourier bulk
    expected = ([[(0.0, (1, 2))]] * 4
                + [[(0.0, (-2, -1)), (t, (0, 1))] for t in THETAS]
                + [[]] * 4
                + [[(0.0, (0, 1))]])
    for field, want in zip(grover_fields(), expected, strict=True):
        records = lambda0_adjudicate(field)
        assert len(records) == len(want)
        for r, (lam, window) in zip(records, want):
            assert abs(r.lam - lam) <= 1e-12 and (r.eigvec.lo, r.eigvec.hi) == window
            assert r.source == "lambda0-compact" and r.zeta_left == r.zeta_right == 0
            assert r.op_residual <= 1e-15


def test_every_eigenvector_is_unit_with_its_phase_fixed():
    # the one phase rule: the first amplitude above 1e-6 of a state's largest
    # is real and positive; constraint directions enter with any phase. The
    # fields: the presets, the grover and chains groups of tools/parity_hash.py
    # and seed-5 wide windows 0-5
    fields = ([preset_field(*key) for key in PRESET_EIGENPHASES] + grover_fields()
              + parity_hash._chain_fields() + [bench_wide_field(5, i) for i in range(6)])
    checked = 0
    for field in fields:
        for r in find_roots(field).records + lambda0_adjudicate(field):
            amps = r.eigvec.amps.reshape(-1)
            assert abs(np.linalg.norm(amps) - 1.0) <= 1e-14, r.lam
            mod = np.abs(amps)
            anchor = amps[np.argmax(mod > 1e-6 * mod.max())]
            assert anchor.real > 0 and abs(anchor.imag) <= 1e-15 * abs(anchor), r.lam
            checked += 1
    assert checked == 234


def test_marginal_decay_gates_degenerate_phases(monkeypatch):
    # with a margin this wide every geometric tail is marginal: the compact
    # chain between the geometric tails of the interior-chain field is
    # reported, not certified, while homogeneous Grover, whose tails are
    # compact, keeps its record
    monkeypatch.setattr("qw3.spectral.DECAY_MARGIN", 1.0)
    bulk = phase_scale(make_fourier(), np.pi / 2)
    field = CoinField(bulk, bulk, -1, 1, (make_grover(), make_grover()))
    diagnostics = []
    assert lambda0_adjudicate(field, diagnostics) == []
    (d,) = diagnostics
    assert d["kind"] == "marginal-decay" and abs(d["lambda"]) < 1e-12
    assert 0.0 < d["zeta_right_abs"] < 1.0 < d["zeta_left_abs"]
    assert len(lambda0_adjudicate(field_homogeneous(make_grover()))) == 1


def test_tails_longer_than_the_bound_are_marginal(monkeypatch):
    # a root whose tails would need more sites than _TAIL_SITES to decay is
    # reported as marginal-decay, not built with a tail cut short; every
    # geometric tail has at least 5 sites
    monkeypatch.setattr("qw3.spectral._TAIL_SITES", 4)
    scan = find_roots(preset_field("one-defect", 0))
    assert scan.records == []
    assert [d["kind"] for d in scan.diagnostics] == ["marginal-decay"] * 3


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


def reference_chi(field, lam):
    """|chi|, in_lambda and near_lambda0 at one phase, built independently of
    the batched kernel: transfer matrices from the rational coefficients (the
    criterion-8 construction), np.linalg.eigvals for the tail eigenvalues,
    unnormalised tail vectors from the first row of T - zeta unless the
    second is more than twice as well conditioned, an explicit product over
    the window sites. near_lambda0 holds where a tail's, or on the arcs a
    window site's, transfer matrix cannot be built; |chi| is None where chi
    is undefined."""
    el = np.exp(1j * lam)

    def transfer(coin):
        A, B, C, D = abcd(coin, lam)
        if abs(A) <= 1e-9:
            return None  # an exceptional phase of this coin
        return np.array([[el, -B], [C, -np.conj(el) * (B * C - A * D)]]) / A

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
        return None, False, False
    for x in range(field.x_minus, field.x_plus + 1):
        t = transfer(field.lookup(x))
        if t is None:
            return None, True, True
        v = t @ v
    return abs(v[0] * w[1] - v[1] * w[0]), True, False


def test_batched_chi_matches_scalar_reference():
    rng = np.random.default_rng(12)
    fields = [preset_field(m, i) for m in ("one-defect", "two-phase") for i in range(4)]
    fields.append(CoinField(random_coin(rng), random_coin(rng), -6, 6,
                            tuple(random_coin(rng) for _ in range(12))))
    for field in fields:
        defined = 0
        lams = np.arange(1000) * (TAU / 1000)
        for lam, value, inside, guarded in zip(lams, *chi_batch(field, lams)):
            ref, in_lambda, near = reference_chi(field, lam)
            assert (inside, guarded) == (in_lambda, near)
            assert np.isnan(value) == (ref is None)
            if ref is not None:
                defined += 1
                assert abs(abs(value) - ref) <= 1e-9 * ref
        assert defined > 100
    # the degenerate-phase mask flags a window coin's (one-defect) or a tail
    # coin's (two-phase) exceptional phase
    lam0 = lambda0_angle(phase_scale(make_fourier(), THETAS[0]))
    for model, in_lambda in (("one-defect", True), ("two-phase", False)):
        value, inside, near = chi_batch(preset_field(model, 0), np.array([lam0]))
        assert (np.isnan(value[0]), inside[0], near[0]) == (True, in_lambda, True)
    # but not a window coin's exceptional phase off the arcs, where no window
    # transfer matrix is built: grid row 3500 of 4000 of the one-defect
    # theta=11pi/12 scan, within 1e-6 of that coin's 7pi/4
    lam = 3500 * (TAU / 4000)
    assert abs(lam - lambda0_angle(phase_scale(make_fourier(), THETAS[3]))) < 1e-6
    field = preset_field("one-defect", 3)
    value, inside, near = chi_batch(field, np.array([lam]))
    assert reference_chi(field, lam) == (None, False, False)
    assert (np.isnan(value[0]), inside[0], near[0]) == (True, False, False)


CHI_FIELDS = [
    *(pytest.param(preset_field(model, i), id=f"{model}-{i}")
      for model in ("one-defect", "two-phase") for i in range(4)),  # two-phase: one site
    *(pytest.param(bench_wide_field(seed, i), id=f"wide-seed{seed}-{i}")
      for seed, i in ((101, 23), (101, 2), (3, 9))),
    pytest.param(field_two_phase(make_fourier(), make_grover()), id="grover-two-phase"),
]


@pytest.mark.parametrize("field", CHI_FIELDS)
def test_chi_batch_bits_do_not_depend_on_the_phases_asked(field):
    # the site loop's blocks hold one site of the full grid but the whole
    # window for a few phases, and the tails' eigenpairs are solved only on
    # the arcs: none of this may change a value's bits, at real phases or
    # at complex ones near the axis, as the secant asks them
    rng = np.random.default_rng(5)
    scattered = np.sort(rng.choice(4000, 37, replace=False))
    real = np.arange(4000) * (TAU / 4000)
    for lams in (real, real + 1j * rng.uniform(-1e-3, 1e-3, 4000)):
        full = chi_batch(field, lams)
        *tails, idx, pairs = _tail_pairs(field, np.exp(1j * lams), either=True)
        inside = np.flatnonzero(full[1])
        subsets = [inside[:1], inside[-1:], np.array([0]), inside[::97], inside[10:12],
                   scattered, np.arange(0, 4000, 2), *scattered[:, None]]
        for k in subsets:
            for got, want in zip(chi_batch(field, lams[k]), full):
                assert got.tobytes() == want[k].tobytes(), k
            *got, at, got_pairs = _tail_pairs(field, np.exp(1j * lams[k]), either=True)
            for g, w in zip(got, tails):
                assert all(a.tobytes() == b[k].tobytes() for a, b in zip(g, w)), k
            # the pairs at k's phases where a tail decays: the full call's there
            pos = np.searchsorted(idx, k[at])
            assert np.array_equal(idx[pos], k[at]), k
            for g, w in zip(got_pairs, pairs):
                assert g.tobytes() == w[:, pos].tobytes(), k


@pytest.mark.parametrize("field", CHI_FIELDS)
def test_the_certification_chain_gives_chi_batch_bits(field):
    # find_roots takes |chi| at its roots from _chains' forward push, and keeps
    # the roots where _chains' ok holds: these must be chi_batch's values and
    # chi_batch's defined set, bit for bit, over the grid and at every record
    lams = np.arange(4000) * (TAU / 4000)
    values = chi_batch(field, lams)[0]
    ok, *_, chi = _chains(field, lams)
    assert ok.tobytes() == np.flatnonzero(~np.isnan(values)).tobytes()
    assert chi.tobytes() == values[ok].tobytes()
    records = find_roots(field).records
    ok, *_, chi = _chains(field, np.array([r.lam for r in records]))
    assert ok.tobytes() == np.arange(len(records)).tobytes()
    for r, value in zip(records, chi):
        alone = np.abs(chi_batch(field, np.array([r.lam]))[0])
        assert np.abs(value).tobytes() == alone.tobytes() == np.float64(r.chi_residual).tobytes()


@pytest.mark.parametrize("field, either_differs", [
    pytest.param(preset_field("one-defect", 0), False, id="one-defect-0"),  # one coin, both tails
    pytest.param(preset_field("two-phase", 0), True, id="two-phase-0"),  # two tails, other arcs
    pytest.param(bench_wide_field(101, 23), True, id="wide-seed101-23"),  # random tails
])
def test_both_tails_are_solved_in_one_call_where_both_decay(field, either_differs, monkeypatch):
    # chi_batch and _chains solve the tails' eigenpairs in one eig2_batch call,
    # on exactly the phases where both tails decay, and lambda0_adjudicate on the
    # degenerate phases where either does: c_minus's matrices over c_plus's (or
    # one row for both), c_minus's greater pair over c_plus's less
    import qw3.spectral

    calls = []

    def spy(*args):
        calls.append(args)
        return eig2_batch(*args)

    def tails_at(lams):
        """The tails' transfer matrices at lams, and where each decays."""
        tails = [transfer_batch(coin, np.exp(1j * lams)) for coin in (field.c_minus, field.c_plus)]
        return [t for t, _ in tails], [(np.abs(t[0] + t[3]) > 2.0 + TR_TOL) & ~zero
                                       for t, zero in tails]

    def solved_once(call, lams, matrices, at):
        calls.clear()
        call(field, lams)
        assert len(calls) == 1
        *got, greater = calls[0]
        assert np.broadcast_to(greater, (2, 1)).tolist() == [[True], [False]]
        for g, m, p in zip(got, *matrices):
            w = np.stack((m[at], p[at]))
            assert np.broadcast_to(g, w.shape).tobytes() == w.tobytes()

    monkeypatch.setattr(qw3.spectral, "eig2_batch", spy)
    rng = np.random.default_rng(8)
    grid = np.arange(4000) * (TAU / 4000)
    inside = np.flatnonzero(chi_batch(field, grid)[1])
    assert 0 < len(inside) < 4000
    off_axis = rng.uniform(-1e-3, 1e-3, 16) * 1j
    some = np.concatenate((grid[rng.choice(inside, 8)], grid[rng.choice(4000, 8)])) + off_axis
    for lams in (grid, some, grid[inside[len(inside) // 2]] + off_axis[:1], np.array([])):
        matrices, decays = tails_at(lams)
        both = np.logical_and(*decays)
        for call in (chi_batch, _chains):
            solved_once(call, lams, matrices, both)
        values, in_lambda, near_lambda0 = chi_batch(field, lams)
        assert (in_lambda == both).all()
        if not lams.size:
            assert [a.shape for a in (values, in_lambda, near_lambda0)] == [(0,)] * 3
    lams = np.array(lambda0_set(field))
    matrices, decays = tails_at(lams)
    either = np.logical_or(*decays)
    solved_once(lambda f, _: lambda0_adjudicate(f), lams, matrices, either)
    assert (either != np.logical_and(*decays)).any() == either_differs


@pytest.mark.parametrize("field", [
    pytest.param(preset_field("one-defect", 2), id="one-defect-2"),
    pytest.param(bench_wide_field(101, 23), id="wide-seed101-23"),
])
def test_find_roots_evaluates_no_grid_phase_twice(field, monkeypatch):
    # the secant starts from the grid's own values at the minima, so its first
    # chi_batch call asks only for the second points, a quarter step on
    import qw3.spectral

    calls = []

    def recorded(field, lams):
        calls.append(np.array(lams))
        return chi_batch(field, lams)

    monkeypatch.setattr(qw3.spectral, "chi_batch", recorded)
    assert find_roots(field).records
    grid = calls[0]
    values = chi_batch(field, grid)[0]
    y = np.where(np.isnan(values), np.inf, np.abs(values))
    minima = np.flatnonzero((y < np.inf) & (y <= np.roll(y, 1)) & (y <= np.roll(y, -1)))
    assert len(grid) == 4000 and len(minima) > 0
    assert calls[1].tobytes() == (grid[minima] + TAU / 4000 / 4).astype(complex).tobytes()
    # the values handed on are those a fresh call at the complex minima gives
    fresh = chi_batch(field, grid[minima].astype(complex))[0]
    assert fresh.tobytes() == values[minima].tobytes()


@pytest.mark.parametrize("field", [
    pytest.param(preset_field("one-defect", 2), id="one-defect-2"),
    pytest.param(bench_wide_field(101, 23), id="wide-seed101-23"),
])
def test_find_roots_asks_chi_only_for_secant_steps_with_runs_left(field, monkeypatch):
    # one grid call, then one call per lockstep secant step that some run still
    # takes, never an empty one, and none at the roots: |chi| there comes from
    # the certification chain (test_the_certification_chain_gives_chi_batch_bits)
    import qw3.spectral

    calls = []

    def recorded(field, lams):
        calls.append(len(lams))
        return chi_batch(field, lams)

    monkeypatch.setattr(qw3.spectral, "chi_batch", recorded)
    records = find_roots(field).records
    monkeypatch.undo()
    grid = np.arange(4000) * (TAU / 4000)
    values = chi_batch(field, grid)[0]
    y = np.where(np.isnan(values), np.inf, np.abs(values))
    minima = np.flatnonzero((y < np.inf) & (y <= np.roll(y, 1)) & (y <= np.roll(y, -1)))

    def steps_alone(m):  # the chi calls of the run from minimum m, run by itself
        asked = []
        x0 = grid[m : m + 1].astype(complex)
        _secant(lambda z: asked.append(z) or chi_batch(field, z)[0], x0, values[m : m + 1],
                x0 + TAU / 4000 / 4, 1e-12, _SECANT_ESCAPE)
        return len(asked)

    # a run takes the steps alone that it takes in lockstep: chi's bits do not
    # depend on the phases asked with it
    assert records and calls[0] == 4000 and min(calls) > 0
    assert len(calls) == 1 + max(steps_alone(m) for m in minima)


def test_the_secant_asks_nothing_without_runs():
    def f(z):
        assert z.size
        return z - 0.5

    empty = np.zeros(0, dtype=complex)
    xs, *flags = _secant(f, empty, empty.copy(), empty.copy(), 1e-12, _SECANT_ESCAPE)
    assert xs.size == 0 and all(flag.size == 0 for flag in flags)
    x0 = np.array([0.0, 3.0], dtype=complex)
    xs, converged, stalled, escaped = _secant(f, x0, f(x0), x0 + 0.25, 1e-12, _SECANT_ESCAPE)
    assert converged.all() and np.abs(xs - 0.5).max() <= 1e-15


def test_field_tables_die_with_the_field():
    # the transfer and coin tables are kept on the field, not in a module
    # cache that would keep every field ever scanned alive
    import gc
    import weakref

    field = bench_wide_field(101, 2)
    assert find_roots(field).records
    assert field.transfer_table is field.transfer_table
    assert field.coin_table is field.coin_table
    ref = weakref.ref(field)
    del field
    gc.collect()
    assert ref() is None


def test_phases_just_below_zero_wrap_to_zero():
    # rotating every coin by e^{i theta} shifts the spectrum by theta; here
    # the one-defect root 2.1727938107788... lands a rounding error below 0
    def rot(coin):
        return phase_scale(coin, -2.1727938107788716)

    field = field_one_defect(rot(make_fourier()), rot(phase_scale(make_fourier(), THETAS[0])))
    lams = [r.lam for r in find_roots(field).records]
    assert len(lams) == 3 and lams == sorted(lams)
    assert all(0.0 <= lam < TAU for lam in lams)
    assert lams[0] < 1e-9
    # the degenerate phase of a coin rotated onto 0, and a determinant phase
    angle = lambda0_angle(phase_scale(make_fourier(), -lambda0_angle(make_fourier())))
    assert 0.0 <= angle < 1e-12
    assert phase_scale(make_grover(), -1e-17).det_phase == 0.0


def test_rejected_candidates_are_reported(monkeypatch, caplog):
    # a negative tolerance rejects every certificate, even an exact one
    monkeypatch.setattr("qw3.spectral.RESIDUAL_TOL", -1.0)
    scan = find_roots(preset_field("one-defect", 0))
    assert scan.records == []
    assert [d["kind"] for d in scan.diagnostics] == ["residual-violation"] * 3
    assert all(d["op_residual"] <= 1e-8 for d in scan.diagnostics)
    diagnostics = []
    with caplog.at_level("WARNING", logger="qw3.spectral"):
        assert lambda0_adjudicate(field_homogeneous(make_grover()), diagnostics) == []
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "rejected" in warnings[0].getMessage()
    (d,) = diagnostics
    assert d["kind"] == "residual-violation" and abs(d["lambda"]) < 1e-12
    assert d["op_residual"] <= 1e-8


def test_nan_residual_fails_the_certificate(monkeypatch):
    # one NaN per state, as operator_residual returns for a list of states
    monkeypatch.setattr("qw3.spectral.operator_residual",
                        lambda field, lams, psis: np.full(len(psis), np.nan))
    scan = find_roots(preset_field("one-defect", 0))
    assert scan.records == []
    assert [d["kind"] for d in scan.diagnostics] == ["residual-violation"] * 3
    assert all(np.isnan(d["op_residual"]) for d in scan.diagnostics)
    diagnostics = []
    assert lambda0_adjudicate(field_homogeneous(make_grover()), diagnostics) == []
    assert [d["kind"] for d in diagnostics] == ["residual-violation"]


# the diagnostic kinds the README documents for `qw3 roots`
DIAGNOSTIC_KINDS = {"refine-nonconverged", "refine-escaped", "marginal-decay",
                    "residual-violation"}


def drawn_field(rng):
    """A field of the strategy below: a window of 1-32 sites, a quarter of them
    phase-scaled Grover coins and the rest random, and each tail Fourier, a
    phase-scaled Grover or a random coin."""
    def tail():
        kind = rng.integers(3)
        if kind == 0:
            return make_fourier()
        return phase_scale(make_grover(), rng.uniform(0, TAU)) if kind == 1 else random_coin(rng)

    sites = int(rng.integers(1, 33))
    grover = set(rng.choice(sites, size=sites // 4, replace=False).tolist())
    defects = tuple(phase_scale(make_grover(), rng.uniform(0, TAU)) if x in grover
                    else random_coin(rng) for x in range(sites))
    x_minus = -int(rng.integers(sites + 1))
    return CoinField(tail(), tail(), x_minus, x_minus + sites, defects)


def test_drawn_fields_end_in_certified_records_or_documented_diagnostics():
    rng = np.random.default_rng(18)
    for _ in range(100):
        field = drawn_field(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy warning fails the field
            scan = find_roots(field)
            records = scan.records + lambda0_adjudicate(field, scan.diagnostics)
        assert all(r.op_residual <= 1e-8 for r in records)
        assert {d["kind"] for d in scan.diagnostics} <= DIAGNOSTIC_KINDS
        for part in (scan.records, records[len(scan.records):]):
            assert [r.lam for r in part] == sorted(r.lam for r in part)
        lams = np.sort([r.lam for r in records])
        assert (angle_dist(lams, np.roll(lams, 1)) > 1e-9).all() or len(lams) < 2
