"""Reduced density matrices, entanglement measures, tomography and bootstrap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnonchain import entanglement as ent
from magnonchain.dynamics import StateVector
from magnonchain.entanglement import DensityMatrix, MeasurementRecord

BELL = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)    # (|du> + |ud>)/sqrt(2)


def _state(amps, n):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(amplitudes=amps / np.linalg.norm(amps), n_sites=n)


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _haar_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# algebra and reductions


def test_pauli_algebra_in_down_up_ordering():
    np.testing.assert_allclose(ent.PAULI["x"] @ ent.PAULI["y"], 1j * ent.PAULI["z"],
                               atol=1e-15)
    for p in ent.PAULI.values():
        np.testing.assert_allclose(p @ p, np.eye(2), atol=1e-15)


def test_reduce_product_state_is_pure():
    # |down, up>: site 2 flipped -> index 0b10 = 2
    state = _state([0, 0, 1, 0], 2)
    rho1 = ent.reduced_density_matrix(state, 1)
    rho2 = ent.reduced_density_matrix(state, 2)
    np.testing.assert_allclose(rho1.matrix, [[1, 0], [0, 0]], atol=1e-12)
    np.testing.assert_allclose(rho2.matrix, [[0, 0], [0, 1]], atol=1e-12)


def test_reduce_bell_pair_to_maximally_mixed():
    state = _state(BELL, 2)
    rho = ent.reduced_density_matrix(state, 1)
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
    assert ent.von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_reduce_pair_keeps_lower_site_first():
    # 3-site state |down down up> (site 3 up) -> index 4
    state = _state([0, 0, 0, 0, 1, 0, 0, 0], 3)
    rho = ent.reduced_density_matrix(state, (3, 1))       # unsorted on purpose
    assert rho.subsystem == (1, 3)
    # basis (|dd>, |du>, |ud>, |uu>) with site 1 first: site1 down, site3 up -> |du> = index 1
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_reduce_validates_sites():
    state = _state([1, 0, 0, 0], 2)
    with pytest.raises(ValueError):
        ent.reduced_density_matrix(state, (1, 1))
    with pytest.raises(ValueError, match=r"site 3 outside 1\.\.2"):
        ent.reduced_density_matrix(state, (1, 3))


def test_w_state_pair_concurrence():
    # any pair of a 3-site W state has concurrence 2/3
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1.0
    state = _state(w, 3)
    for pair in ((1, 2), (1, 3), (2, 3)):
        rho = ent.reduced_density_matrix(state, pair)
        assert ent.concurrence(rho) == pytest.approx(2.0 / 3.0, abs=1e-10)


# ---------------------------------------------------------------------------
# measures


def test_entropy_of_maximally_mixed_two_qubits():
    rho = DensityMatrix(matrix=np.eye(4) / 4, subsystem=(1, 2))
    assert ent.von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)


def test_concurrence_extremes():
    bell = DensityMatrix(matrix=np.outer(BELL, BELL), subsystem=(1, 2))
    assert ent.concurrence(bell) == pytest.approx(1.0, abs=1e-10)
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    assert ent.concurrence(DensityMatrix(matrix=product, subsystem=(1, 2))) == 0.0


def test_concurrence_of_werner_state():
    # p |Bell><Bell| + (1-p) I/4 has C = max(0, (3p-1)/2)
    for p, expected in ((0.8, 0.7), (0.5, 0.25), (0.2, 0.0)):
        rho = DensityMatrix(matrix=p * np.outer(BELL, BELL) + (1 - p) * np.eye(4) / 4,
                            subsystem=(1, 2))
        assert ent.concurrence(rho) == pytest.approx(expected, abs=1e-10)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pure_state_concurrence_closed_form(seed):
    # for psi = (a, b, c, d): C = 2 |a d - b c|
    psi = _random_state(4, seed)
    rho = DensityMatrix(matrix=np.outer(psi, psi.conj()), subsystem=(1, 2))
    expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
    # the spin-flip spectrum is {C^2, 0, 0, 0}; taking singular values of
    # sqrt(rho) sqrt(rho~) keeps the zeros from growing to ~sqrt(eps)
    assert ent.concurrence(rho) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("pair", [(3, 4), (3, 5), (4, 6), (2, 6), (1, 7), (1, 2)])
def test_one_excitation_concurrence_is_twice_the_amplitude_product(pair):
    # sum_k psi_k |k> with one spin up: every pair (i, j) holds the pure
    # component psi_i |ud> + psi_j |du> plus |dd> weight, so C = 2 |psi_i psi_j|
    n = 7
    rng = np.random.default_rng(sum(pair))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[1 << np.arange(n)] = psi / np.linalg.norm(psi)
    state = _state(amps, n)
    i, j = pair
    expected = 2.0 * abs(state.amplitudes[1 << (i - 1)] * state.amplitudes[1 << (j - 1)])
    rho = ent.reduced_density_matrix(state, pair)
    assert ent.concurrence(rho) == pytest.approx(expected, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_measures_invariant_under_local_unitaries(seed):
    psi = _random_state(4, seed)
    rho = np.outer(psi, psi.conj())
    u = np.kron(_haar_unitary(seed + 1), _haar_unitary(seed + 2))
    rotated = u @ rho @ u.conj().T
    a = DensityMatrix(matrix=rho, subsystem=(1, 2))
    b = DensityMatrix(matrix=rotated, subsystem=(1, 2))
    assert ent.concurrence(a) == pytest.approx(ent.concurrence(b), abs=1e-6)
    assert ent.von_neumann_entropy(a) == pytest.approx(ent.von_neumann_entropy(b),
                                                       abs=1e-9)


def test_fidelity_pure_targets():
    rho = DensityMatrix(matrix=np.outer(BELL, BELL), subsystem=(1, 2))
    assert ent.fidelity(rho, BELL) == pytest.approx(1.0, abs=1e-12)
    orth = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert ent.fidelity(rho, orth) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ent.fidelity(rho, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# tomography


def test_bell_measurement_probabilities():
    # the triplet Bell state is perfectly correlated in x and y,
    # perfectly anti-correlated in z
    np.testing.assert_allclose(ent.measurement_probabilities(BELL, ("z", "z")),
                               [0.0, 0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(ent.measurement_probabilities(BELL, ("x", "x")),
                               [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(ent.measurement_probabilities(BELL, ("x", "y")),
                               [0.25, 0.25, 0.25, 0.25], atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_probabilities_normalized_for_random_states(seed):
    psi = _random_state(4, seed)
    for basis in ent.TOMOGRAPHY_BASES:
        p = ent.measurement_probabilities(psi, basis)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic_per_seed_and_basis():
    a = ent.sample_measurements(BELL, ("x", "y"), shots=500, seed=42)
    b = ent.sample_measurements(BELL, ("x", "y"), shots=500, seed=42)
    c = ent.sample_measurements(BELL, ("x", "y"), shots=500, seed=43)
    assert a.counts == b.counts
    assert a.counts != c.counts     # astronomically unlikely to collide


def test_record_streams_differ_between_bases():
    records = ent.simulate_tomography(_random_state(4, 7), shots=300, seed=5)
    assert len(records) == 9
    assert len({r.counts for r in records}) > 1


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(basis=("x", "q"), shots=4, counts=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        MeasurementRecord(basis=("x", "y"), shots=5, counts=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        MeasurementRecord(basis=("x", "y"), shots=2, counts=(3, -1, 0, 0))


def test_reconstruction_from_exact_counts_is_exact():
    """Records holding the exact expected counts must reproduce the state."""
    psi = _random_state(4, 99)
    shots = 10_000
    records = []
    for basis in ent.TOMOGRAPHY_BASES:
        probs = ent.measurement_probabilities(psi, basis)
        counts = np.round(probs * shots).astype(int)
        counts[0] += shots - counts.sum()       # rounding slack, <= a few shots
        records.append(MeasurementRecord(basis=basis, shots=shots,
                                         counts=tuple(counts)))
    rho = ent.tomography_reconstruct(records, subsystem=(2, 4))
    assert rho.subsystem == (2, 4)
    assert ent.fidelity(rho, psi) > 0.999


def test_reconstruction_requires_all_bases():
    records = ent.simulate_tomography(BELL, shots=100, seed=1)
    with pytest.raises(ValueError, match="missing"):
        ent.tomography_reconstruct(records[:-1])


def test_reconstructed_matrix_is_physical():
    # heavy projection noise: the raw linear inversion is far from PSD,
    # the projected result must still pass the DensityMatrix checks
    records = ent.simulate_tomography(BELL, shots=20, seed=8)
    rho = ent.tomography_reconstruct(records)
    lam = np.linalg.eigvalsh(rho.matrix)
    assert lam.min() >= -1e-12
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_nearest_psd_projection_by_hand():
    # eigenvalues (0.7, 0.5, -0.1, -0.1): the Euclidean simplex projection
    # keeps the top two shifted by the lost mass, tau = 0.1
    out = ent._project_physical(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
    np.testing.assert_allclose(np.sort(np.diag(out).real)[::-1],
                               [0.6, 0.4, 0.0, 0.0], atol=1e-12)


def test_projection_fixes_physical_states():
    rho = np.outer(BELL, BELL)
    np.testing.assert_allclose(ent._project_physical(rho), rho, atol=1e-12)


def _simplex_projection_oracle(rho):
    """Nearest PSD unit-trace matrix by the sort-and-threshold simplex projection."""
    rho = 0.5 * (rho + rho.conj().T)
    lam, vec = np.linalg.eigh(rho / np.trace(rho).real)
    mu = np.sort(lam)[::-1]
    cum = np.cumsum(mu) - 1.0
    k = np.nonzero(mu - cum / np.arange(1, mu.size + 1) > 0)[0][-1]
    out = np.clip(lam - cum[k] / (k + 1), 0.0, None)
    return (vec * out) @ vec.conj().T


def _indefinite_hermitian(seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    lam = rng.uniform(-0.4, 0.8, size=4)
    lam[0] = abs(lam[0]) + 1.3           # a positive trace to normalize by
    lam[1] = -abs(lam[1]) - 0.01         # and at least one negative eigenvalue
    return (u * lam) @ u.conj().T


def test_stacked_projection_matches_loop_over_indefinite_matrices():
    stack = np.array([_indefinite_hermitian(seed) for seed in range(200)])
    assert (np.linalg.eigvalsh(stack).min(axis=1) < 0).all()
    out = ent._project_stack(stack)
    for rho, got in zip(stack, out):
        np.testing.assert_allclose(got, _simplex_projection_oracle(rho), atol=1e-12)
        np.testing.assert_allclose(got, ent._project_physical(rho), atol=1e-15)
    hand = np.array([np.diag([0.7, 0.5, -0.1, -0.1]), np.outer(BELL, BELL)]).astype(complex)
    out = ent._project_stack(hand)
    np.testing.assert_allclose(np.sort(np.diag(out[0]).real)[::-1], [0.6, 0.4, 0.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(out[1], hand[1], atol=1e-12)


def test_reconstruction_matches_term_by_term_inversion():
    """Linear inversion written out one Pauli product at a time, then projected."""
    for seed in range(20):
        records = ent.simulate_tomography(_random_state(4, seed), shots=50, seed=seed)
        by_basis = {r.basis: np.array(r.counts) / r.shots for r in records}
        rho = np.eye(4, dtype=complex) / 4
        for a in ent.AXES:
            first = np.mean([(p[0] + p[1] - p[2] - p[3])
                             for b, p in by_basis.items() if b[0] == a])
            second = np.mean([(p[0] - p[1] + p[2] - p[3])
                              for b, p in by_basis.items() if b[1] == a])
            rho += first * np.kron(ent.PAULI[a], np.eye(2)) / 4
            rho += second * np.kron(np.eye(2), ent.PAULI[a]) / 4
        for (a, b), p in by_basis.items():
            rho += (p[0] - p[1] - p[2] + p[3]) * np.kron(ent.PAULI[a], ent.PAULI[b]) / 4
        got = ent.tomography_reconstruct(records).matrix
        np.testing.assert_allclose(got, _simplex_projection_oracle(rho), atol=1e-12)


def test_stacked_physicality_check_names_the_fault():
    good = np.outer(BELL, BELL).astype(complex)
    checks = {
        "Hermitian": good + np.triu(np.full((4, 4), 1e-9), 1),
        "trace": good * 1.001,
        "eigenvalue": np.diag([1.0 + 1e-6, 0.0, 0.0, -1e-6]).astype(complex),
    }
    ent._check_physical(np.array([good, good]))
    for fault, bad in checks.items():
        with pytest.raises(ValueError, match=fault):
            ent._check_physical(np.array([good, bad, good]))
        with pytest.raises(ValueError, match=fault):
            DensityMatrix(matrix=bad, subsystem=(1, 2))


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_is_deterministic():
    records = ent.simulate_tomography(BELL, shots=400, seed=3)
    a = ent.bootstrap(records, resamples=120, statistic="concurrence", seed=17)
    b = ent.bootstrap(records, resamples=120, statistic="concurrence", seed=17)
    assert a == b
    c = ent.bootstrap(records, resamples=120, statistic="concurrence", seed=18)
    assert a != c


def test_bootstrap_validates_inputs():
    records = ent.simulate_tomography(BELL, shots=100, seed=0)
    with pytest.raises(ValueError, match="resamples"):
        ent.bootstrap(records, resamples=50, statistic="concurrence", seed=0)
    with pytest.raises(ValueError, match="statistic"):
        ent.bootstrap(records, resamples=100, statistic="purity", seed=0)
    with pytest.raises(ValueError, match="target"):
        ent.bootstrap(records, resamples=100, statistic="fidelity", seed=0)


def test_bootstrap_tracks_the_statistic():
    records = ent.simulate_tomography(BELL, shots=2000, seed=5)
    point = ent.concurrence(ent.tomography_reconstruct(records))
    mean, std = ent.bootstrap(records, resamples=200, statistic="concurrence", seed=6)
    assert std > 0.0
    assert abs(mean - point) < 5.0 * std + 0.02


def _bootstrap_loop(records, resamples, statistic, seed, target=None):
    """Per-resample oracle: nine redrawn records and one reconstruction at a time."""
    evaluate = {"concurrence": ent.concurrence, "entropy": ent.von_neumann_entropy,
                "fidelity": lambda rho: ent.fidelity(rho, target)}[statistic]
    values = []
    for r in range(resamples):
        rng = ent._rng(seed, 1000 + r)
        redrawn = [MeasurementRecord(basis=rec.basis, shots=rec.shots,
                                     counts=tuple(rng.multinomial(
                                         rec.shots, np.array(rec.counts) / rec.shots)))
                   for rec in records]
        values.append(evaluate(ent.tomography_reconstruct(redrawn)))
    return np.mean(values), np.std(values, ddof=1)


@pytest.mark.parametrize("case", ["bell", "random", "noisy", "shuffled"])
@pytest.mark.parametrize("statistic", ["concurrence", "entropy", "fidelity"])
def test_bootstrap_equals_per_resample_loop(case, statistic):
    psi = BELL if case in ("bell", "noisy") else _random_state(4, 31)
    shots = 20 if case == "noisy" else 500
    records = ent.simulate_tomography(psi, shots=shots, seed=12)
    if case == "shuffled":
        records = [records[k] for k in np.random.default_rng(4).permutation(9)]
    got = ent.bootstrap(records, resamples=150, statistic=statistic, seed=21, target=psi)
    expected = _bootstrap_loop(records, 150, statistic, seed=21, target=psi)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_bootstrap_uses_the_last_record_of_a_repeated_basis():
    records = ent.simulate_tomography(BELL, shots=200, seed=2)
    extra = ent.sample_measurements(_random_state(4, 3), ("z", "z"), shots=200, seed=9)
    got = ent.bootstrap(records + [extra], resamples=100, statistic="concurrence", seed=3)
    expected = _bootstrap_loop(records + [extra], 100, "concurrence", seed=3)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
