"""Magnon diagonalization, node-count labelling, and spectral evolution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnonchain import ionchain, magnon

J0 = 2 * np.pi * 30.0      # experiment-scale nearest-neighbour coupling, rad/s


def nn_dispersion(n, j0):
    """Analytic open-chain NN dispersion omega_n = 2 j0 cos(n pi/(N+1))."""
    return 2 * j0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def test_nn_chain_reproduces_cosine_dispersion():
    n = 7
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(n, J0))
    np.testing.assert_allclose(spec.energies, nn_dispersion(n, J0), atol=1e-10)
    assert list(spec.node_counts) == list(range(n))
    np.testing.assert_allclose(spec.pseudo_momenta,
                               np.arange(1, n + 1) * np.pi / (n + 1), atol=1e-12)


def test_nn_chain_reproduces_sine_modes():
    n = 7
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(n, J0))
    i = np.arange(1, n + 1)
    for k in range(n):
        expected = np.sqrt(2.0 / (n + 1)) * np.sin(i * (k + 1) * np.pi / (n + 1))
        c = spec.mode_functions[:, k]
        sign = np.sign(c @ expected)        # gauge-free comparison
        np.testing.assert_allclose(c, sign * expected, atol=1e-10)


def test_count_nodes_basic():
    assert magnon.count_nodes(np.array([1.0, 2.0, 3.0])) == 0
    assert magnon.count_nodes(np.array([1.0, -1.0, 1.0])) == 2
    # an exact zero on a site is one node, not two
    assert magnon.count_nodes(np.array([1.0, 0.0, -1.0])) == 1
    assert magnon.count_nodes(np.array([1.0, 1e-12, -1.0])) == 1


def _reference_node_counts(vectors, threshold=magnon.NODE_THRESHOLD):
    """The per-column loop that the vectorised count replaced."""
    counts = []
    for k in range(vectors.shape[1]):
        c = vectors[:, k]
        keep = c[np.abs(c) > threshold * np.abs(c).max()]
        counts.append(int(np.sum(np.signbit(keep[1:]) != np.signbit(keep[:-1]))))
    return np.array(counts)


def _trap_coupling(n):
    # weaker axial confinement for longer chains keeps them linear
    axial = 0.219e6 if n <= 25 else (0.1e6 if n <= 51 else 0.05e6)
    trap = ionchain.TrapConfig(n_ions=n, axial_freq=axial, transverse_freq_x=2.655e6,
                               transverse_freq_y=2.628e6, detuning=0.0,
                               transverse_field=0.0)
    beam = ionchain.BeamProfile(peak_rabi=100e3, waist_along_chain=380e-6,
                                waist_transverse=40e-6)
    return ionchain.build_coupling_matrix(ionchain.with_detuning_above_top(trap, 30e3), beam)


def _node_count_cases():
    """Power law at every N = 2..201 (each N with one of the four exponents,
    in turn), nearest-neighbour, random symmetric, and trap N = 7..100."""
    for n in range(2, 202):
        alpha = (0.0, 0.01, 1.0, 3.0)[n % 4]
        yield f"power-law a={alpha} N={n}", ionchain.power_law_coupling(n, alpha, J0).values
    for n in (2, 3, 10, 57, 201):
        yield f"nearest-neighbour N={n}", ionchain.nearest_neighbour_coupling(n, J0).values
    rng = np.random.default_rng(5)
    for n in (2, 5, 31, 120):
        J = rng.normal(size=(n, n))
        yield f"random N={n}", J + J.T
    for n in range(7, 101, 3):
        yield f"trap N={n}", _trap_coupling(n).values


def test_vectorised_node_counts_equal_the_per_column_loop():
    for name, J in _node_count_cases():
        _, vectors = np.linalg.eigh(J)
        vectors = ionchain._fix_gauge(vectors)
        expected = _reference_node_counts(vectors)
        assert np.array_equal(magnon._node_counts(vectors), expected), name
        assert magnon.count_nodes(vectors[:, -1]) == expected[-1], name


def test_node_counts_skip_small_entries_per_column():
    # exact zeros, entries just below / above the threshold, an all-zero
    # column and a column with a single kept entry
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(40, 12))
    vectors[rng.random(vectors.shape) < 0.3] = 0.0
    vectors[5, 1] = 0.9e-8 * np.abs(vectors[:, 1]).max()
    vectors[6, 2] = -1.1e-8 * np.abs(vectors[:, 2]).max()
    vectors[:, 3] = 0.0
    vectors[:, 4] = 0.0
    vectors[17, 4] = -2.0
    assert np.array_equal(magnon._node_counts(vectors), _reference_node_counts(vectors))
    for threshold in (0.0, 0.5):
        assert np.array_equal(magnon._node_counts(vectors, threshold),
                              _reference_node_counts(vectors, threshold))


def test_diagonalize_labels_by_the_vectorised_counts():
    for n in (25, 100):
        J = _trap_coupling(n)
        _, vectors = np.linalg.eigh(J.values)
        expected = np.sort(_reference_node_counts(ionchain._fix_gauge(vectors)))
        # both trap chains are near-degenerate: duplicate counts still warn
        with pytest.warns(RuntimeWarning, match="ambiguous node labelling"):
            spec = magnon.diagonalize_magnons(J)
        assert np.array_equal(spec.node_counts, expected)


def test_degenerate_spectrum_warns_about_node_labels():
    # alpha = 0 makes every coupling equal: one bright mode plus an
    # (N-1)-fold degenerate subspace whose node counts collide
    J = ionchain.power_law_coupling(6, 0.0, J0)
    with pytest.warns(RuntimeWarning, match="node"):
        magnon.diagonalize_magnons(J)


def test_energy_shift_is_carried():
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(3, J0),
                                      energy_shift=12.5)
    assert spec.energy_shift == 12.5


def test_max_group_velocity_nn_analytic():
    n = 15
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(n, J0))
    w = nn_dispersion(n, J0)
    expected = np.abs(np.diff(w)).max() * (n + 1) / np.pi
    assert magnon.max_group_velocity(spec) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral evolution


def test_two_site_exchange_analytic():
    """For two sites, |a_2(t)|^2 = sin^2(J t) exactly."""
    J = ionchain.nearest_neighbour_coupling(2, J0)
    times = np.linspace(0.0, 0.05, 40)
    states = magnon.evolve_single_excitation(J, 1, times)
    p2 = np.array([np.abs(s.amplitudes[1]) ** 2 for s in states])
    np.testing.assert_allclose(p2, np.sin(J0 * times) ** 2, atol=1e-12)


def test_initial_state_is_the_flipped_site():
    J = ionchain.power_law_coupling(5, 1.5, J0)
    (state,) = magnon.evolve_single_excitation(J, 3, np.array([0.0]))
    expected = np.zeros(5)
    expected[2] = 1.0
    np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, expected, atol=1e-12)


@settings(deadline=None)
@given(site=st.integers(min_value=1, max_value=6),
       alpha=st.floats(min_value=0.3, max_value=3.0),
       t=st.floats(min_value=0.0, max_value=0.1))
def test_evolution_is_unitary(site, alpha, t):
    J = ionchain.power_law_coupling(6, alpha, J0)
    (state,) = magnon.evolve_single_excitation(J, site, np.array([t]))
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_magnetisation_sums_to_one_excitation():
    # sum_i <sigma_i^z> = 2 - N whenever exactly one excitation is present
    J = ionchain.power_law_coupling(6, 1.2, J0)
    for s in magnon.evolve_single_excitation(J, 2, np.linspace(0, 0.03, 7)):
        assert magnon.magnetisation_single(s).sum() == pytest.approx(2.0 - 6)


def test_time_reversal_conjugates_amplitudes():
    # real symmetric J: a_i(-t) = conj(a_i(t))
    J = ionchain.power_law_coupling(5, 1.7, J0)
    fwd, back = magnon.evolve_single_excitation(J, 3, np.array([0.012, -0.012]))
    np.testing.assert_allclose(back.amplitudes, fwd.amplitudes.conj(), atol=1e-12)


def test_evolve_checks_site_range():
    J = ionchain.nearest_neighbour_coupling(4, J0)
    with pytest.raises(ValueError):
        magnon.evolve_single_excitation(J, 5, np.array([0.0]))


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        magnon.SingleExcitationState(amplitudes=np.array([1.0, 1.0]), time=0.0)
