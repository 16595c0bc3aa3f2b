"""End-to-end validation suite.

Each test implements one gate criterion at its stated tolerance and prints a
single PASS line on success (run with -v to see one line per criterion either
way). Expensive scans are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from qw3.coin import (
    CoinMatrix,
    field_homogeneous,
    field_one_defect,
    field_two_phase,
    make_fourier,
    make_grover,
    phase_scale,
)
from qw3.evolution import apply_u, default_initial_state, evolve, time_averaged_origin
from qw3.linalg import TAU, eig2_batch
from qw3.spectral import find_roots, lambda0_adjudicate, lambda0_set
from qw3.transfer import lambda0_angle

from conftest import THETAS, abcd, random_coin, transfer_matrix

OMEGA = np.exp(2j * np.pi / 3)

EXPECTED_COUNTS = {"one-defect": (3, 4, 6, 6), "two-phase": (0, 1, 2, 3)}

# Criterion 10 averages the origin occupation over t = 1..AVERAGE_T. Measured
# scales on the presets (T = 200, 400, 800, 1600), from which the horizon and
# the tolerance follow:
# - the homogeneous Fourier baseline has no eigenvalues (criterion 9) and
#   decays like (0.94 ln T - 0.39)/T: 0.0229 at T = 200, 0.0041 at T = 1600;
# - |average - spectral prediction| is about 0.95/T at most where there are
#   eigenvalues (one-defect, pi/12: 4.7e-3, 2.4e-3, 1.2e-3, 6.1e-4), and
#   2.1/T for the spectrum-free two-phase pi/12 (1.32e-3 at T = 1600);
# - one-defect pi/12 averages 0.0889 at T = 200, still above its limit
#   0.08416, so its ratio to the baseline is 3.9x at T = 200 and first passes
#   5x near T = 300 (6.6x at 400, 20.8x at 1600): no correct program can
#   clear the 5x gate at T = 200;
# - four preset eigenvectors have an origin weight below CESARO_TOL (1.3e-3,
#   1.6e-3, 2.2e-3 and 7.7e-4), so the prediction check cannot detect a miss
#   of those.
AVERAGE_T = 1600
AVERAGE_HALF_WIDTH = AVERAGE_T + 6
CESARO_TOL = 3e-3
# the prediction assumes simple eigenvalues; the presets' smallest gap is 0.072
EIGENPHASE_MIN_GAP = 1e-6


def build_field(model: str, theta: float):
    fourier = make_fourier()
    shifted = phase_scale(fourier, theta)
    if model == "one-defect":
        return field_one_defect(fourier, shifted)
    return field_two_phase(fourier, shifted)


@pytest.fixture(scope="module")
def scans_4000():
    out = {}
    for model in ("one-defect", "two-phase"):
        for i, theta in enumerate(THETAS):
            start = time.perf_counter()
            scan = find_roots(build_field(model, theta), grid_n=4000, refine_tol=1e-12)
            out[(model, i)] = (scan, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def coin_suite():
    # 10^3 random unitary coins x 10 phases each
    rng = np.random.default_rng(7)
    coins = [random_coin(rng) for _ in range(1000)]
    lams = [rng.uniform(0, TAU, size=10) for _ in coins]
    return coins, lams


@pytest.fixture(scope="module")
def homogeneous_baseline():
    field = field_homogeneous(make_fourier())
    psi0 = default_initial_state(AVERAGE_HALF_WIDTH)
    avg = time_averaged_origin(field, psi0, AVERAGE_T)
    mu100 = evolve(field, default_initial_state(106), 100)[-1]
    near_mass = sum(mu100.prob(x) for x in range(-5, 6))
    return avg, near_mass


def test_criterion_01_one_defect_eigenvalue_counts(scans_4000):
    for i, theta in enumerate(THETAS):
        scan, elapsed = scans_4000[("one-defect", i)]
        assert len(scan.records) == EXPECTED_COUNTS["one-defect"][i], (
            f"theta index {i}: got {len(scan.records)} roots"
        )
        assert elapsed < 10.0
    print("criterion 1 PASS: one-defect counts (3, 4, 6, 6) at grid 4000")


def test_criterion_02_two_phase_eigenvalue_counts(scans_4000):
    for i, theta in enumerate(THETAS):
        scan, elapsed = scans_4000[("two-phase", i)]
        assert len(scan.records) == EXPECTED_COUNTS["two-phase"][i], (
            f"theta index {i}: got {len(scan.records)} roots"
        )
        assert elapsed < 10.0
    print("criterion 2 PASS: two-phase counts (0, 1, 2, 3) at grid 4000")


def test_criterion_03_residual_certification(scans_4000):
    checked = 0
    for (model, i), (scan, _) in scans_4000.items():
        field = build_field(model, THETAS[i])
        for r in scan.records:
            # independent re-check through the direct simulator
            psi = r.eigvec
            stepped = apply_u(field, psi)
            residual = np.linalg.norm(stepped.amps - np.exp(1j * r.lam) * psi.amps)
            assert residual <= 1e-8
            assert r.op_residual <= 1e-8
            checked += 1
    assert checked == sum(EXPECTED_COUNTS["one-defect"]) + sum(EXPECTED_COUNTS["two-phase"])
    print(f"criterion 3 PASS: all {checked} eigenvectors certified at 1e-8")


def test_criterion_04_lambda0_exactness():
    base = float(np.angle(np.conj(OMEGA) * (-1j)) % TAU)  # bulk coin's angle
    for theta in THETAS:
        expected = sorted([base, float((base + theta) % TAU)])
        for model in ("one-defect", "two-phase"):
            field = build_field(model, theta)
            got = lambda0_set(field)
            assert len(got) == 2
            assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-12
            assert lambda0_adjudicate(field) == []
    print("criterion 4 PASS: exceptional phase sets exact (1e-12), no eigenvalues there")


def test_criterion_05_unit_determinant_suite(coin_suite):
    coins, lams = coin_suite
    worst = 0.0
    for coin, ls in zip(coins, lams):
        for lam in ls:
            t = transfer_matrix(coin, lam)
            if t is None:
                continue
            worst = max(worst, abs(abs(np.linalg.det(t)) - 1.0))
    assert worst <= 1e-10
    print(f"criterion 5 PASS: |det T| = 1 within 1e-10 (worst {worst:.2e})")


def test_criterion_06_coupling_identities(coin_suite):
    coins, lams = coin_suite
    worst_ad, worst_tr = 0.0, 0.0
    for coin, ls in zip(coins, lams):
        for lam in ls:
            A, _, _, D = abcd(coin, lam)
            worst_ad = max(worst_ad, abs(abs(A) - abs(D)))
            t = transfer_matrix(coin, lam)
            if t is None:
                continue
            tr = t[0, 0] + t[1, 1]
            det = np.linalg.det(t)
            worst_tr = max(worst_tr, abs(tr - det * np.conj(tr)) / max(1.0, abs(tr)))
    assert worst_ad <= 1e-10
    assert worst_tr <= 1e-10
    # joint vanishing at the constructed exceptional angle
    rng = np.random.default_rng(11)
    worst_zero = 0.0
    for base in (make_fourier(), make_grover()):
        for _ in range(100):
            d1 = np.diag(np.exp(1j * rng.uniform(0, TAU, 3)))
            d2 = np.diag(np.exp(1j * rng.uniform(0, TAU, 3)))
            coin = CoinMatrix(d1 @ base.mat @ d2)
            lam0 = lambda0_angle(coin)
            assert lam0 is not None
            A, _, _, D = abcd(coin, lam0)
            worst_zero = max(worst_zero, abs(A), abs(D))
    assert worst_zero <= 1e-10
    print(
        "criterion 6 PASS: |A|=|D| "
        f"(worst {worst_ad:.2e}), trace identity (worst {worst_tr:.2e}), "
        f"joint vanishing at the exceptional angle (worst {worst_zero:.2e})"
    )


def test_criterion_07_arc_membership_equivalence():
    coin = make_fourier()
    n = 10_000
    band = 0
    ts = []
    for i in range(n):
        t = transfer_matrix(coin, i * TAU / n)
        if t is None:
            continue
        tr_abs = abs(t[0, 0] + t[1, 1])
        if abs(tr_abs - 2.0) <= 1e-9:
            band += 1
            continue
        ts.append(t)
    ts = np.array(ts)
    greater = np.abs(eig2_batch(*ts.reshape(-1, 4).T).zeta_greater)
    tr_abs = np.abs(ts[:, 0, 0] + ts[:, 1, 1])
    disagreements = int(((tr_abs > 2.0) != (greater > 1.0 + 1e-8)).sum())
    assert disagreements == 0
    print(f"criterion 7 PASS: trace test == growth test on {n} phases "
          f"({band} band points excluded)")


def test_criterion_08_simplified_form_oracle(coin_suite):
    coins, lams = coin_suite
    worst = 0.0
    for coin, ls in zip(coins, lams):
        for lam in ls:
            t = transfer_matrix(coin, lam)
            A, B, C, D = abcd(coin, lam)
            if t is None or abs(A) <= 1e-6:
                continue
            el = np.exp(1j * lam)
            raw = np.array(
                [[el, -B], [C, -np.conj(el) * (B * C - A * D)]], dtype=complex
            ) / A
            worst = max(worst, float(np.abs(t - raw).max()))
    assert worst <= 1e-10
    print(f"criterion 8 PASS: closed form vs rational construction (worst {worst:.2e})")


def test_criterion_09_homogeneous_models():
    fourier_field = field_homogeneous(make_fourier())
    scan = find_roots(fourier_field, grid_n=4000)
    assert scan.records == []
    assert lambda0_adjudicate(fourier_field) == []

    grover_field = field_homogeneous(make_grover())
    assert find_roots(grover_field, grid_n=4000).records == []
    records = lambda0_adjudicate(grover_field)
    assert len(records) == 1
    r = records[0]
    assert r.source == "lambda0-compact"
    assert abs(np.exp(1j * r.lam) - 1.0) <= 1e-12
    assert r.op_residual <= 1e-8
    print("criterion 9 PASS: homogeneous Fourier empty; homogeneous Grover has the "
          "single compact eigenvalue at phase 0")


def spectral_origin_limit(records, psi0) -> float:
    """Cesaro limit of the origin occupation, sum_k |<psi_k, psi0>|^2 ||psi_k(0)||^2.

    Holds for simple eigenvalues (RAGE theorem); psi0 is supported at the origin.
    """
    s0 = psi0.amp(0)
    total = 0.0
    for r in records:
        a = r.eigvec.amp(0)
        total += abs(np.vdot(a, s0)) ** 2 * float(np.vdot(a, a).real)
    return total


@pytest.mark.parametrize(
    "model,itheta",
    [(m, i) for m in ("one-defect", "two-phase") for i in range(4)],
    ids=[f"{m}-theta{i}" for m in ("one-defect", "two-phase") for i in range(4)],
)
def test_criterion_10_dynamical_crosscheck(
    model, itheta, scans_4000, homogeneous_baseline
):
    # criterion 4 shows that the exceptional phases add no records here
    records = scans_4000[(model, itheta)][0].records
    lams = sorted(r.lam for r in records)
    if len(lams) > 1:
        gap = np.diff(lams + [lams[0] + TAU]).min()
        assert gap > EIGENPHASE_MIN_GAP, (
            f"eigenphases {np.round(lams, 6)} are not pairwise distinct "
            f"(gap {gap:.1e}): the prediction needs simple eigenvalues"
        )
    field = build_field(model, THETAS[itheta])
    base_avg, base_near = homogeneous_baseline
    psi0 = default_initial_state(AVERAGE_HALF_WIDTH)
    start = time.perf_counter()
    mu100 = evolve(field, default_initial_state(106), 100)[-1]
    near = sum(mu100.prob(x) for x in range(-5, 6))
    avg = time_averaged_origin(field, psi0, AVERAGE_T)
    elapsed = time.perf_counter() - start
    predicted = spectral_origin_limit(records, psi0)
    assert elapsed < 5.0
    assert abs(avg - predicted) <= CESARO_TOL, (
        f"time-averaged origin occupation {avg:.5f} misses the spectral prediction "
        f"{predicted:.5f} from {len(records)} eigenvectors by more than {CESARO_TOL}"
    )
    if not records:
        print(f"criterion 10 PASS ({model} theta{itheta}): no eigenvalues, average "
              f"{avg:.5f} within {CESARO_TOL} of the prediction 0")
        return
    assert near >= 2.0 * base_near, (
        f"origin-region mass {near:.4f} not a clear peak over background {base_near:.4f}"
    )
    assert avg >= 5.0 * base_avg, (
        f"time-averaged origin occupation {avg:.5f} is only {avg / base_avg:.2f}x "
        f"the homogeneous baseline {base_avg:.5f} (5x required)"
    )
    print(f"criterion 10 PASS ({model} theta{itheta}): peak {near / base_near:.1f}x, "
          f"average {avg / base_avg:.1f}x baseline, {abs(avg - predicted):.1e} from "
          "the spectral prediction")


def test_criterion_11_count_stability_under_refinement(scans_4000):
    for model in ("one-defect", "two-phase"):
        for i, theta in enumerate(THETAS):
            coarse = len(scans_4000[(model, i)][0].records)
            fine = find_roots(build_field(model, theta), grid_n=8000, refine_tol=1e-13)
            assert len(fine.records) == coarse
    print("criterion 11 PASS: counts stable at grid 8000, refine tolerance 1e-13")
