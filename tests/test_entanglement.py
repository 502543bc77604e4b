"""Reduced density matrices, entanglement measures, tomography and bootstrap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fidelity, full_space
from magnonchain import dynamics, ionchain, magnon
from magnonchain import entanglement as ent
from magnonchain.dynamics import StateVector
from magnonchain.entanglement import DensityMatrix

BELL = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)    # (|du> + |ud>)/sqrt(2)


def _pure(psi):
    """The two-qubit DensityMatrix |psi><psi| that tomography takes."""
    return DensityMatrix(np.outer(psi, psi.conj()), (1, 2))


def _state(amps, n):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(amplitudes=amps / np.linalg.norm(amps), n_sites=n,
                       basis=np.arange(amps.size))


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


def _reshape_reduction(amps, n, sites):
    """The partial trace as a reshape of the whole 2^N vector (axis n - s
    of the tensor is site s), blind to the basis bits."""
    tensor = np.moveaxis(amps.reshape((2,) * n), [n - s for s in sites], range(len(sites)))
    flat = tensor.reshape(2 ** len(sites), -1)
    return flat @ flat.conj().T


@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize("model,spec", [("xy", ((2,),)),     # prepare_state's sites
                                        ("xy", ((1, 2, 4),)),
                                        ("ising", ((3,),)),
                                        ("xy", ()),
                                        ("ising", ())])
def test_reduction_on_the_basis_equals_the_full_space_reshape(n, model, spec):
    J = ionchain.power_law_coupling(n, 1.3, 2 * np.pi * 30.0)
    H = dynamics.build_hamiltonian(J, transverse_field=300.0, model=model)
    traj = dynamics.evolve(dynamics.prepare_state(n, *spec), H,
                           np.linspace(0.0, 0.01, 4))
    for k in range(traj.times.size):
        state = traj.state(k)
        for sites in ((1,), (n,), (1, 2), (2, n), (1, n)):
            rho = ent.reduced_density_matrix(state, sites)
            np.testing.assert_allclose(rho.matrix,
                                       _reshape_reduction(full_space(state), n, sites),
                                       rtol=0, atol=1e-14)


def test_one_excitation_concurrence_of_30_sites_from_the_magnon_amplitudes():
    """Concurrence 2 |a_i a_j| with a_i from the single-excitation propagator."""
    n, flip, t = 30, 12, 0.004
    J = ionchain.power_law_coupling(n, 1.3, 2 * np.pi * 30.0)
    H = dynamics.build_hamiltonian(J, model="xy")
    traj = dynamics.evolve(dynamics.prepare_state(n, (flip,)),
                           H, np.array([t]))
    assert traj.basis.size == n
    (a,) = magnon.evolve_single_excitation(J, flip, np.array([t]))
    for i, j in ((11, 13), (12, 20), (1, 30), (5, 6)):
        rho = ent.reduced_density_matrix(traj.state(0), (i, j))
        expected = 2.0 * abs(a.amplitudes[i - 1] * a.amplitudes[j - 1])
        assert ent.concurrence(rho) == pytest.approx(expected, abs=1e-10)


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
    """The fidelity oracle is 1 against the state itself and 0 against an
    orthogonal one."""
    rho = _pure(BELL)
    assert fidelity(rho, BELL) == pytest.approx(1.0, abs=1e-12)
    orth = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert fidelity(rho, orth) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# tomography


def test_bell_measurement_probabilities():
    # the triplet Bell state is perfectly correlated in x and y,
    # perfectly anti-correlated in z
    probs = ent.measurement_probabilities(_pure(BELL))
    assert probs.shape == (9, 4)
    row = {basis: p for basis, p in zip(ent.TOMOGRAPHY_BASES, probs)}
    np.testing.assert_allclose(row["z", "z"], [0.0, 0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(row["x", "x"], [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(row["x", "y"], [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def _per_setting_probabilities(rho):
    """The (9, 4) outcome table as it was built before the projector table:
    two krons and a trace per outcome, row by row."""
    eye = np.eye(2)
    table = []
    for basis in ent.TOMOGRAPHY_BASES:
        probs = []
        for s1 in (1.0, -1.0):
            proj1 = 0.5 * (eye + s1 * ent.PAULI[basis[0]])
            for s2 in (1.0, -1.0):
                proj2 = 0.5 * (eye + s2 * ent.PAULI[basis[1]])
                probs.append(np.real(np.trace(rho.matrix @ np.kron(proj1, proj2))))
        probs = np.clip(np.array(probs), 0.0, None)
        table.append(probs / probs.sum())
    return np.array(table)


def test_outcome_projector_table_gives_the_bits_of_the_per_setting_loop():
    """One stacked product and trace over the (9, 4, 4, 4) projectors gives
    every probability of the loop bit for bit: on random pure states, on
    mirror-symmetric ones (a amplitude on |dd> and |uu>, b on |du> and
    |ud>), on mixtures and on reduced states of a chain."""
    rng = np.random.default_rng(11)
    rhos = [_pure(BELL), _pure(np.array([1.0, 0.0, 0.0, 0.0]))]
    for seed in range(60):
        rhos.append(_pure(_random_state(4, seed)))
        a, b = _random_state(2, 1000 + seed)
        rhos.append(_pure(np.array([a, b, b, a]) / np.sqrt(2.0)))
        weights = rng.dirichlet(np.ones(3))
        mixed = sum(w * np.outer(psi, psi.conj()) for w, psi in
                    zip(weights, (_random_state(4, 2000 + 3 * seed + k) for k in range(3))))
        rhos.append(DensityMatrix(mixed, (1, 2)))
    J = ionchain.power_law_coupling(7, 1.5, 2 * np.pi * 30.0)
    H = dynamics.build_hamiltonian(J, model="xy")
    traj = dynamics.evolve(dynamics.prepare_state(7, (4,)), H,
                           np.linspace(0.0, 0.01, 11))
    rhos += [ent.reduced_density_matrix(traj.state(k), pair)
             for k in range(traj.times.size) for pair in ((3, 5), (2, 6), (1, 4))]
    for rho in rhos:
        assert (ent.measurement_probabilities(rho).view(np.uint64).tolist()
                == _per_setting_probabilities(rho).view(np.uint64).tolist())


def test_tomography_needs_a_two_qubit_state():
    single = DensityMatrix(np.eye(2) / 2, (1,))
    with pytest.raises(ValueError, match="two-qubit"):
        ent.measurement_probabilities(single)
    with pytest.raises(ValueError, match="two-qubit"):
        ent.simulate_tomography(single, shots=10, seed=0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_probabilities_normalized_for_random_states(seed):
    p = ent.measurement_probabilities(_pure(_random_state(4, seed)))
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_sampling_is_deterministic_per_seed_and_basis():
    a = ent.simulate_tomography(_pure(BELL), shots=500, seed=42)
    b = ent.simulate_tomography(_pure(BELL), shots=500, seed=42)
    c = ent.simulate_tomography(_pure(BELL), shots=500, seed=43)
    assert a.shape == (9, 4) and a.dtype.kind == "i"
    np.testing.assert_array_equal(a.sum(axis=1), 500)
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()           # astronomically unlikely to collide


def test_record_streams_differ_between_bases():
    counts = ent.simulate_tomography(_pure(_random_state(4, 7)), shots=300, seed=5)
    assert len({tuple(row) for row in counts}) > 1


@pytest.mark.parametrize("move", [1e-15, -1e-15])
def test_counts_do_not_jump_when_a_tie_moves_by_roundoff(move, monkeypatch):
    """Every setting of the triplet Bell state has its two likeliest
    outcomes tied, at 1/2 or 1/4.  Moving 1e-15 of probability from one to
    the other leaves every count of every seed as it was: an inverted
    uniform changes its outcome only where it falls within 1e-15 of the
    edge between them."""
    moved = ent.measurement_probabilities(_pure(BELL))
    for row in moved:
        first, second = np.sort(np.argsort(row)[-2:])
        assert abs(row[first] - row[second]) < 1e-15
        row[first] -= move
        row[second] += move
    rho = _pure(BELL)
    before = [ent.simulate_tomography(rho, shots=2000, seed=seed) for seed in range(10)]
    monkeypatch.setattr(ent, "measurement_probabilities", lambda rho: moved)
    for seed, counts in enumerate(before):
        np.testing.assert_array_equal(ent.simulate_tomography(rho, shots=2000, seed=seed), counts)


def test_counts_are_the_inverted_uniforms_of_each_row_stream_in_any_chunks(monkeypatch):
    """Row b counts the outcomes at which ``shots`` uniforms of stream
    (seed, b) fall in the cumulative probabilities; drawing them 7 at a
    time gives the same counts as one draw."""
    rho = _pure(_random_state(4, 48))
    edges = np.cumsum(ent.measurement_probabilities(rho), axis=1)[:, :-1]
    direct = [np.bincount(np.searchsorted(row, ent._stream(3, b).random(1000), side="right"),
                          minlength=4) for b, row in enumerate(edges)]
    np.testing.assert_array_equal(ent.simulate_tomography(rho, shots=1000, seed=3), direct)
    monkeypatch.setattr(ent, "_SHOT_CHUNK", 7)
    np.testing.assert_array_equal(ent.simulate_tomography(rho, shots=1000, seed=3), direct)


#: The counts that inversion draws at seed 2024 from a random state with no
#: two outcomes of one setting within 0.02 in probability (see
#: _random_state(4, 48)).
_PINNED_COUNTS = [[331, 604, 59, 6], [700, 231, 27, 42], [869, 74, 9, 48],
                  [41, 420, 307, 232], [341, 130, 368, 161], [345, 101, 538, 16],
                  [214, 308, 146, 332], [481, 45, 208, 266], [366, 131, 475, 28]]


def test_the_rng_layout_is_pinned():
    """Row b of the counts draws from stream (seed, b), and the bootstrap
    draws resample after resample from the one stream (seed, 1000).  The
    counts are compared exactly; the bootstrap mean and std to 1e-12, since
    a redrawn resample would move them by far more, while another LAPACK
    build may move their last bits."""
    rho = _pure(_random_state(4, 48))
    probs = ent.measurement_probabilities(rho)
    assert np.diff(np.sort(probs, axis=1), axis=1).min() > 0.02
    counts = ent.simulate_tomography(rho, shots=1000, seed=2024)
    np.testing.assert_array_equal(counts, _PINNED_COUNTS)
    mean, std = ent.bootstrap(counts, resamples=200, seed=2025)
    assert mean == pytest.approx(0.5159131999207113, rel=1e-12, abs=0)
    assert std == pytest.approx(0.018237349442705716, rel=1e-12, abs=0)


#: (counts, bootstrap mean, bootstrap std) of the pinned state at 1000
#: shots and 200 resamples, both drawn at the seed; 2^64 - 1 is the top of
#: the --seed range, so the uint64 edge of the (seed, stream) key.
_PINNED_DRAWS = {
    0: ([[297, 625, 62, 16], [667, 255, 29, 49], [843, 84, 10, 63],
         [58, 415, 318, 209], [320, 130, 381, 169], [347, 130, 499, 24],
         [196, 310, 144, 350], [460, 40, 242, 258], [363, 139, 476, 22]],
        0.498184834057292, 0.021167722327683224),
    2024: (_PINNED_COUNTS, 0.5157048209036068, 0.017460225523137758),
    2 ** 64 - 1: ([[301, 623, 63, 13], [686, 246, 17, 51], [832, 86, 14, 68],
                   [42, 435, 304, 219], [291, 137, 394, 178], [333, 124, 521, 22],
                   [218, 292, 153, 337], [498, 32, 210, 260], [374, 123, 483, 20]],
                  0.5412846872698683, 0.019043845382138644),
}


@pytest.mark.parametrize("seed", list(_PINNED_DRAWS))
def test_tomography_draws_are_pinned_across_the_seed_range(seed):
    """The counts and the bootstrap of a seed are those recorded when each
    stream's Philox was re-keyed in place (counter 0, empty buffer), at
    the low end, in the middle and at the top of the seed range; the
    counts exactly, the bootstrap mean and std to 1e-12."""
    counts_pinned, mean_pinned, std_pinned = _PINNED_DRAWS[seed]
    counts = ent.simulate_tomography(_pure(_random_state(4, 48)), shots=1000, seed=seed)
    np.testing.assert_array_equal(counts, counts_pinned)
    mean, std = ent.bootstrap(counts, resamples=200, seed=seed)
    assert mean == pytest.approx(mean_pinned, rel=1e-12, abs=0)
    assert std == pytest.approx(std_pinned, rel=1e-12, abs=0)


@pytest.mark.parametrize("counts,fault", [
    (np.ones((8, 4), dtype=int), r"shape \(9, 4\).*got \(8, 4\)"),
    (np.ones((9, 3), dtype=int), r"shape \(9, 4\).*got \(9, 3\)"),
    (np.ones(36, dtype=int), r"shape \(9, 4\).*got \(36,\)"),
    (np.where(np.arange(36).reshape(9, 4) == 5, -1, 3), "non-negative"),
    (np.full((9, 4), 2.0), "integers, got dtype float64"),
    (np.where(np.arange(9)[:, None] == 4, 0, np.ones((9, 4), dtype=int)),
     "setting yy has no shots"),
], ids=["8-rows", "3-columns", "flat", "negative", "float", "empty-row"])
def test_counts_validation_names_the_fault(counts, fault):
    with pytest.raises(ValueError, match=fault):
        ent.tomography_reconstruct(counts, (1, 2))
    with pytest.raises(ValueError, match=fault):
        ent.bootstrap(counts, resamples=100, seed=0)


def test_reconstruction_from_exact_counts_is_exact():
    """The exact expected counts must reproduce the state."""
    psi = _random_state(4, 99)
    shots = 10_000
    counts = np.round(ent.measurement_probabilities(_pure(psi)) * shots).astype(int)
    counts[:, 0] += shots - counts.sum(axis=1)      # rounding slack, <= a few shots
    rho = ent.tomography_reconstruct(counts, subsystem=(2, 4))
    assert rho.subsystem == (2, 4)
    assert fidelity(rho, psi) > 0.999


def test_reconstruction_requires_all_bases():
    counts = ent.simulate_tomography(_pure(BELL), shots=100, seed=1)
    with pytest.raises(ValueError, match=r"shape \(9, 4\)"):
        ent.tomography_reconstruct(counts[:-1], (1, 2))


def test_reconstructed_matrix_is_physical():
    # heavy projection noise: the raw linear inversion is far from PSD,
    # the projected result must still pass the DensityMatrix checks
    counts = ent.simulate_tomography(_pure(BELL), shots=20, seed=8)
    rho = ent.tomography_reconstruct(counts, (1, 2))
    lam = np.linalg.eigvalsh(rho.matrix)
    assert lam.min() >= -1e-12
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_nearest_psd_projection_by_hand():
    # eigenvalues (0.7, 0.5, -0.1, -0.1): the Euclidean simplex projection
    # keeps the top two shifted by the lost mass, tau = 0.1
    out = ent._project_stack(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)[None])[0]
    np.testing.assert_allclose(np.sort(np.diag(out).real)[::-1],
                               [0.6, 0.4, 0.0, 0.0], atol=1e-12)


def test_projection_fixes_physical_states():
    rho = np.outer(BELL, BELL)
    np.testing.assert_allclose(ent._project_stack(rho[None])[0], rho, atol=1e-12)


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
        np.testing.assert_allclose(got, ent._project_stack(rho[None])[0], atol=1e-15)
    hand = np.array([np.diag([0.7, 0.5, -0.1, -0.1]), np.outer(BELL, BELL)]).astype(complex)
    out = ent._project_stack(hand)
    np.testing.assert_allclose(np.sort(np.diag(out[0]).real)[::-1], [0.6, 0.4, 0.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(out[1], hand[1], atol=1e-12)


def test_reconstruction_matches_term_by_term_inversion():
    """Linear inversion written out one Pauli product at a time, then projected."""
    for seed in range(20):
        counts = ent.simulate_tomography(_pure(_random_state(4, seed)), shots=50, seed=seed)
        by_basis = {basis: row / row.sum() for basis, row in zip(ent.TOMOGRAPHY_BASES, counts)}
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
        got = ent.tomography_reconstruct(counts, (1, 2)).matrix
        np.testing.assert_allclose(got, _simplex_projection_oracle(rho), atol=1e-12)


def test_physicality_check_names_the_fault():
    good = np.outer(BELL, BELL).astype(complex)
    checks = {
        "not Hermitian to 1e-10": good + np.triu(np.full((4, 4), 1e-9), 1),
        r"^density matrix trace 1\.00(09|10)\d* != 1$": good * 1.001,    # no scalar repr
        "eigenvalue below -1e-8": np.diag([1.0 + 1e-6, 0.0, 0.0, -1e-6]).astype(complex),
    }
    DensityMatrix(matrix=good, subsystem=(1, 2))
    for fault, bad in checks.items():
        with pytest.raises(ValueError, match=fault):
            DensityMatrix(matrix=bad, subsystem=(1, 2))


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_is_deterministic():
    counts = ent.simulate_tomography(_pure(BELL), shots=400, seed=3)
    a = ent.bootstrap(counts, resamples=120, seed=17)
    b = ent.bootstrap(counts, resamples=120, seed=17)
    assert a == b
    c = ent.bootstrap(counts, resamples=120, seed=18)
    assert a != c


def test_bootstrap_validates_inputs():
    counts = ent.simulate_tomography(_pure(BELL), shots=100, seed=0)
    with pytest.raises(ValueError, match="resamples"):
        ent.bootstrap(counts, resamples=50, seed=0)


def test_bootstrap_tracks_the_statistic():
    counts = ent.simulate_tomography(_pure(BELL), shots=2000, seed=5)
    point = ent.concurrence(ent.tomography_reconstruct(counts, (1, 2)))
    mean, std = ent.bootstrap(counts, resamples=200, seed=6)
    assert std > 0.0
    assert abs(mean - point) < 5.0 * std + 0.02


def _bootstrap_loop(counts, resamples, seed):
    """Per-resample oracle: nine redrawn rows and one reconstruction at a time,
    every row of every resample drawn in turn from one fresh
    ``Generator(Philox(key=[seed, 1000]))``, which is what the one call on the
    bootstrap's stream must draw."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1000]))
    values = []
    for _ in range(resamples):
        redrawn = np.array([rng.multinomial(row.sum(), row / row.sum()) for row in counts])
        values.append(ent.concurrence(ent.tomography_reconstruct(redrawn, (1, 2))))
    return np.mean(values), np.std(values, ddof=1)


@pytest.mark.parametrize("case", ["bell", "random", "noisy"],
                         ids=lambda case: f"concurrence-{case}")
def test_bootstrap_equals_per_resample_loop(case):
    psi = BELL if case in ("bell", "noisy") else _random_state(4, 31)
    shots = 20 if case == "noisy" else 500
    counts = ent.simulate_tomography(_pure(psi), shots=shots, seed=12)
    got = ent.bootstrap(counts, resamples=150, seed=21)
    expected = _bootstrap_loop(counts, 150, seed=21)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_bootstrap_draws_of_fewer_resamples_are_a_prefix(monkeypatch):
    """The R resamples of a run are the first R of a run of 2R: adding
    resamples never disturbs the draws already made."""
    counts = ent.simulate_tomography(_pure(_random_state(4, 9)), shots=300, seed=4)
    drawn, inversion = [], ent._linear_inversion

    def recording_inversion(redrawn, shots):
        drawn.append(redrawn)
        return inversion(redrawn, shots)

    monkeypatch.setattr(ent, "_linear_inversion", recording_inversion)
    for resamples in (100, 200):
        ent.bootstrap(counts, resamples=resamples, seed=8)
    short, long = drawn
    assert short.shape == (100, 9, 4) and long.shape == (200, 9, 4)
    np.testing.assert_array_equal(short, long[:100])
    np.testing.assert_array_equal(long.sum(axis=2), np.broadcast_to(counts.sum(axis=1),
                                                                    (200, 9)))
    assert (long[:100] != long[100:]).any()


def test_concurrence_from_the_projection_spectrum():
    """Concurrences built from the projection's own eigendecomposition match
    ``_concurrences`` of the projected matrices to 1e-14, also where the
    projection zeroes eigenvalues (rank 1 to 3) and for pure inputs."""
    stack = np.array([_indefinite_hermitian(seed) for seed in range(200)]
                     + [np.outer(psi, psi.conj()) for psi in
                        (BELL, _random_state(4, 3), _random_state(4, 5))]
                     + [np.diag(lam).astype(complex) for lam in
                        ([0.5, 0.5, 0.0, 0.0], [0.7, 0.5, -0.1, -0.1], [1.0, 0.0, 0.0, 0.0])])
    w, v = ent._projected_spectra(stack)
    assert set((w > 0).sum(axis=1)) == {1, 2, 3}
    np.testing.assert_allclose(ent._spectral_concurrences(w, v),
                               ent._concurrences(ent._project_stack(stack)),
                               rtol=0, atol=1e-14)
