import numpy as np
import pytest

from qw3.coin import (
    CoinField,
    field_homogeneous,
    field_one_defect,
    field_two_phase,
    make_fourier,
    phase_scale,
)
from qw3.evolution import (
    MARGIN,
    SimulationError,
    StateVector,
    _steps,
    apply_u,
    default_initial_state,
    evolve,
    time_averaged_origin,
)
from qw3.spectral import find_roots

from conftest import THETAS, random_coin, random_unitary


def random_state(rng, half_width=30, spread=10):
    amps = np.zeros((2 * half_width + 1, 3), dtype=complex)
    block = rng.normal(size=(2 * spread + 1, 3)) + 1j * rng.normal(size=(2 * spread + 1, 3))
    amps[half_width - spread : half_width + spread + 1] = block
    psi = StateVector(-half_width, half_width, amps)
    return psi.normalized()


def test_apply_u_preserves_norm(rng):
    for _ in range(50):
        field = field_homogeneous(random_coin(rng))
        psi = random_state(rng)
        out = apply_u(field, psi)
        assert not out.leaked
        assert abs(out.norm() - psi.norm()) <= 1e-12


def test_single_site_spreads_to_light_cone_neighbours():
    field = field_homogeneous(make_fourier())
    psi = default_initial_state(10)
    out = apply_u(field, psi)
    occupied = [x for x in range(out.lo, out.hi + 1) if np.abs(out.amp(x)).max() > 0]
    assert set(occupied) <= {-1, 0, 1}


def test_light_cone_is_exact():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 0.9))
    dists = evolve(field, default_initial_state(40), 30)
    for t, dist in enumerate(dists):
        for x in range(dist.lo, dist.hi + 1):
            if abs(x) > t:
                assert dist.prob(x) == 0.0


def test_norm_conservation_over_long_run():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 1.1))
    psi = default_initial_state(206)
    for t in range(1, 201):
        psi = apply_u(field, psi)
        assert not psi.leaked
        assert abs(psi.norm() - 1.0) <= t * 1e-12


def test_evolve_distributions_are_normalized():
    field = field_homogeneous(make_fourier())
    dists = evolve(field, default_initial_state(46), 40)
    assert len(dists) == 41
    for dist in dists:
        assert dist.probs.min() >= 0.0
        assert abs(dist.probs.sum() - 1.0) <= 1e-9


def test_evolve_time_zero_is_sitewise_norm():
    psi = default_initial_state(8)
    dist = evolve(field_homogeneous(make_fourier()), psi, 0)[0]
    assert abs(dist.prob(0) - 1.0) < 1e-12
    assert dist.time == 0


def test_evolve_window_too_small():
    field = field_homogeneous(make_fourier())
    with pytest.raises(SimulationError, match="half-width >= 25"):
        evolve(field, default_initial_state(10), 20)


def test_leakage_flag_set_at_window_edge():
    field = field_homogeneous(make_fourier())
    amps = np.zeros((5, 3), dtype=complex)
    amps[0, 0] = 1.0  # amplitude parked on the boundary site
    out = apply_u(field, StateVector(-2, 2, amps))
    assert out.leaked


def test_origin_peak_one_defect_t100():
    # the defect traps a visible fraction of the walker near the origin
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 3 * np.pi / 12))
    mu = evolve(field, default_initial_state(106), 100)[-1]
    hom = evolve(field_homogeneous(make_fourier()), default_initial_state(106), 100)[-1]
    near = sum(mu.prob(x) for x in range(-5, 6))
    near_hom = sum(hom.prob(x) for x in range(-5, 6))
    assert near > 0.5  # frozen from the simulation: 0.5906...
    assert near > 4 * near_hom


def test_homogeneous_fourier_spreads_ballistically():
    # no persistent origin peak: the origin mass stays at the background level
    hom = evolve(field_homogeneous(make_fourier()), default_initial_state(106), 100)[-1]
    assert sum(hom.prob(x) for x in range(-5, 6)) < 0.15


def test_time_averaged_origin_localized_case():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 7 * np.pi / 12))
    avg = time_averaged_origin(field, default_initial_state(206), 200)
    assert avg > 0.01  # localized; simulation gives 0.3375
    assert abs(avg - 0.3374936591633165) < 1e-12


def test_time_averaged_origin_homogeneous_baseline():
    # frozen from the simulation; decays with t_max (no point spectrum)
    hom = field_homogeneous(make_fourier())
    avg200 = time_averaged_origin(hom, default_initial_state(206), 200)
    assert abs(avg200 - 0.022900307535816237) < 1e-12
    avg400 = time_averaged_origin(hom, default_initial_state(406), 400)
    assert avg400 < avg200


def test_time_averaged_origin_far_source():
    # a walker launched 50 sites from the defect barely overlaps the
    # localized states: the average stays at the background level
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 7 * np.pi / 12))
    psi = default_initial_state(256)
    psi.amps[:] = 0.0
    psi.amps[50 - psi.lo] = np.array([1.0, 1.0j, 1.0]) / np.sqrt(3.0)
    avg = time_averaged_origin(field, psi, 200)
    assert avg < 0.003  # simulation gives 0.00227


def test_two_phase_without_eigenvalues_stays_at_background():
    # the weakest two-phase setting has empty point spectrum; its origin
    # average sits below even the homogeneous background (frozen value)
    from qw3.coin import field_two_phase

    field = field_two_phase(make_fourier(), phase_scale(make_fourier(), np.pi / 12))
    avg = time_averaged_origin(field, default_initial_state(206), 200)
    assert abs(avg - 0.010572219299526104) < 1e-12


def test_localization_agrees_with_point_spectrum():
    # across all eight inhomogeneous settings, a nonempty point spectrum and
    # a persistent origin occupation come together; 0.05 splits the measured
    # clusters (localized cases >= 0.089, spectrum-free cases <= 0.023) with
    # about a factor two of margin on each side
    from qw3.coin import field_two_phase

    thetas = (np.pi / 12, 3 * np.pi / 12, 7 * np.pi / 12, 11 * np.pi / 12)
    for make_field, counts in (
        (lambda th: field_one_defect(make_fourier(), phase_scale(make_fourier(), th)),
         (3, 4, 6, 6)),
        (lambda th: field_two_phase(make_fourier(), phase_scale(make_fourier(), th)),
         (0, 1, 2, 3)),
    ):
        for theta, count in zip(thetas, counts):
            field = make_field(theta)
            assert len(find_roots(field, grid_n=2000).records) == count
            avg = time_averaged_origin(field, default_initial_state(206), 200)
            assert (count > 0) == (avg > 0.05)


def test_eigenvector_distribution_is_stationary():
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), 3 * np.pi / 12))
    record = find_roots(field, grid_n=2000).records[0]
    psi = record.eigvec
    pad = 55
    amps = np.zeros((psi.hi - psi.lo + 1 + 2 * pad, 3), dtype=complex)
    amps[pad : pad + psi.amps.shape[0]] = psi.amps
    state = StateVector(psi.lo - pad, psi.hi + pad, amps)
    mu0 = state.distribution().probs
    for _ in range(50):
        state = apply_u(field, state)
        assert not state.leaked
        assert np.abs(state.distribution().probs - mu0).max() <= 1e-8


def site_coins(field, lo, hi):
    return np.array([field.lookup(x).mat for x in range(lo, hi + 1)])


def reference_step(coins, amps):
    """One step of site-major amps (n, 3) with site coins (n, 3, 3): mix,
    then shift into a zeroed array. Shares no code with qw3.evolution, whose
    steps must equal it bit for bit."""
    mixed = np.einsum("xij,xj->xi", coins, amps)
    out = np.zeros_like(amps)
    out[:-1, 0] = mixed[1:, 0]
    out[:, 1] = mixed[:, 1]
    out[1:, 2] = mixed[:-1, 2]
    return out


def test_apply_u_matches_reference_step(rng):
    field = CoinField(random_coin(rng), random_coin(rng), -4, 5,
                      tuple(random_coin(rng) for _ in range(9)))
    amps = rng.normal(size=(15, 3)) + 1j * rng.normal(size=(15, 3))
    out = apply_u(field, StateVector(-7, 7, amps))
    assert out.leaked
    assert np.array_equal(out.amps, reference_step(site_coins(field, -7, 7), amps))


def check_evolve_against_whole_window(field, psi0, steps):
    """evolve's distributions equal, bit for bit, those of a run that takes
    every step over the whole window by reference_step."""
    coins, amps = site_coins(field, psi0.lo, psi0.hi), psi0.amps
    got = evolve(field, psi0, steps)
    assert len(got) == steps + 1
    for t, d in enumerate(got):
        if t:
            amps = reference_step(coins, amps)
        assert (d.lo, d.hi, d.time) == (psi0.lo, psi0.hi, t)
        assert np.array_equal(d.probs, (np.abs(amps) ** 2).sum(axis=1)), t


def whole_window_average(field, psi0, steps):
    """The origin's time average over a run of whole-window reference steps."""
    coins, amps, acc = site_coins(field, psi0.lo, psi0.hi), psi0.amps, 0.0
    for _ in range(steps):
        amps = reference_step(coins, amps)
        acc += float((np.abs(amps[-psi0.lo]) ** 2).sum())
    return acc / steps


def state_at(lo, hi, sites, seed=0):
    rng = np.random.default_rng(seed)
    amps = np.zeros((hi - lo + 1, 3), dtype=complex)
    for x in sites:
        amps[x - lo] = rng.normal(size=3) + 1j * rng.normal(size=3)
    return StateVector(lo, hi, amps).normalized()


DEFECT = field_one_defect(make_fourier(), phase_scale(make_fourier(), 7 * np.pi / 12))


# the dynamics benchmark's horizons (bench/workloads.py), each run on a
# window of half-width horizon + 6
EVOLVE_T, AVERAGE_T = 800, 1600


def same(psi0, steps):
    """evolve and time_averaged_origin both run from psi0 for steps."""
    return (psi0, steps), (psi0, steps)


@pytest.mark.parametrize("field, evolve_at, average_at", [
    *(pytest.param(build(make_fourier(), phase_scale(make_fourier(), th)),
                   *same(default_initial_state(206), 200), id=f"{build.__name__}-theta{i}")
      for build in (field_one_defect, field_two_phase) for i, th in enumerate(THETAS)),
    *(pytest.param(build(make_fourier(), phase_scale(make_fourier(), THETAS[i])),
                   (default_initial_state(EVOLVE_T + 6), EVOLVE_T),
                   (default_initial_state(AVERAGE_T + 6), AVERAGE_T),
                   id=f"benchmark-{build.__name__}-theta{i}")
      for build, i in ((field_one_defect, 2), (field_two_phase, 3))),
    pytest.param(DEFECT, *same(state_at(-80, 80, [30]), 40), id="off-origin"),
    pytest.param(DEFECT, *same(state_at(-80, 80, [-3, 4]), 40), id="two-site"),
    pytest.param(DEFECT, *same(state_at(-100, 100, [-45, 2, 3]), 40), id="wide-support"),
    pytest.param(DEFECT, *same(state_at(-200, 200, [150]), 40), id="unreachable-origin"),
    pytest.param(DEFECT, *same(default_initial_state(8), 1), id="one-step"),
    pytest.param(DEFECT, *same(state_at(-36, 99, [10, 11]), 40), id="asymmetric-window"),
    # the support exactly steps + MARGIN sites from both window edges
    pytest.param(DEFECT, *same(state_at(-60, 70, [-20 + MARGIN, 30 - MARGIN]), 40),
                 id="edge-to-edge"),
    pytest.param(DEFECT, *same(state_at(-10, 100, [30 + MARGIN]), 40), id="one-site-left-edge"),
])
def test_light_cone_run_matches_whole_window(field, evolve_at, average_at):
    check_evolve_against_whole_window(field, *evolve_at)
    assert time_averaged_origin(field, *average_at) == whole_window_average(field, *average_at)


def test_each_distribution_owns_a_full_window_array():
    psi0 = state_at(-30, 40, [3, 4])
    dists = evolve(DEFECT, psi0, 20)
    assert all((d.lo, d.hi, d.probs.shape) == (-30, 40, (71,)) for d in dists)
    before = [d.probs.copy() for d in dists]
    for k, d in enumerate(dists):
        d.probs[:] = -1.0
        assert all(np.array_equal(e.probs, b) for e, b in zip(dists[k + 1 :], before[k + 1 :]))


def test_light_cone_run_zero_steps_and_unreachable_origin():
    psi0 = state_at(-200, 200, [150])
    assert time_averaged_origin(DEFECT, psi0, 40) == 0.0
    (d,) = evolve(DEFECT, psi0, 0)
    assert np.array_equal(d.probs, psi0.distribution(0).probs)


@pytest.mark.parametrize("site, spinor", [(25, [np.nan, 0, 0]), (20, [np.nan, 0, 0]),
                                          (20, [np.inf, 0, 0])],
                         ids=["nan-off-support", "nan-on-support", "inf"])
def test_a_non_finite_initial_state_is_refused(site, spinor):
    # whole-window steps (apply_u) carry a NaN anywhere in the window along
    psi0 = default_initial_state(20)
    psi0.amps[site] = spinor
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        evolve(DEFECT, psi0, 3)
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        time_averaged_origin(DEFECT, psi0, 3)


def test_a_step_is_the_public_einsum_bit_for_bit(rng):
    """One _steps step is np.einsum("ijx,jx->ix") of the coins and the state,
    shifted, byte for byte: Haar coins, amplitudes spread over 1e-200..1e200,
    cones of 1..40 rows and of about 1600, inside and at either wall. A step by
    np.matmul, for one, rounds differently."""
    pool = np.stack([random_unitary(rng) for _ in range(64)], axis=-1)
    cases = [(w, a, n) for w in range(1, 41) for a, n in ((6, w + 12), (0, w + 12), (12, w + 12))]
    cases += [(1600, 6, 1612), (1600, 0, 1600), (1598, 12, 1610)]
    for width, a, n in cases:
        b = a + width - 1
        coins = pool[:, :, rng.integers(0, 64, size=n)]
        scale = 10.0 ** rng.uniform(-200, 200, size=(n, 3))
        amps = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) * scale
        got = next(_steps(coins, amps, [(a, b)]))[0]
        lo, hi = max(a - 1, 0), min(b + 1, n - 1)
        m = np.zeros((3, n + 2), dtype=complex)  # m at site x in column x + 1, walls around
        m[:, lo + 1 : hi + 2] = np.einsum("ijx,jx->ix", coins[:, :, lo : hi + 1],
                                          amps.T.copy()[:, lo : hi + 1])
        want = np.stack([m[0, 2:], m[1, 1:-1], m[2, :-2]])  # m_0(x + 1), m_1(x), m_2(x - 1)
        assert np.array_equal(np.ascontiguousarray(got[:, a : b + 1]).view(np.uint64),
                              np.ascontiguousarray(want[:, a : b + 1]).view(np.uint64)), (a, b, n)
