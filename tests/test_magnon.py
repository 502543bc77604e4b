"""Magnon diagonalization, node-count labelling, and spectral evolution."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnonchain import dynamics, ionchain, magnon

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


def _count_nodes(mode_function):
    return magnon._node_counts(np.asarray(mode_function, dtype=float)[:, None])[0]


def test_count_nodes_basic():
    assert _count_nodes([1.0, 2.0, 3.0]) == 0
    assert _count_nodes([1.0, -1.0, 1.0]) == 2
    # an exact zero on a site is one node, not two
    assert _count_nodes([1.0, 0.0, -1.0]) == 1
    assert _count_nodes([1.0, 1e-12, -1.0]) == 1


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
                               ion_mass=ionchain.MASS_CA40,
                               laser_wavelength=ionchain.WAVELENGTH_CA40)
    beam = ionchain.BeamProfile(peak_rabi=100e3, waist_along_chain=380e-6, center_offset=0.0)
    modes = ionchain.transverse_mode_spectrum(trap)
    return ionchain.build_coupling_matrix(ionchain.with_detuning_above_top(trap, 30e3, modes),
                                          beam, modes)


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
        assert _count_nodes(vectors[:, -1]) == expected[-1], name


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


def test_max_group_velocity_nn_analytic():
    n = 15
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(n, J0))
    w = nn_dispersion(n, J0)
    expected = np.abs(np.diff(w)).max() * (n + 1) / np.pi
    assert magnon.max_group_velocity(spec.energies) == pytest.approx(expected, rel=1e-12)


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
        assert (2.0 * np.abs(s.amplitudes) ** 2 - 1.0).sum() == pytest.approx(2.0 - 6)


def test_time_reversal_conjugates_amplitudes():
    # real symmetric J: a_i(-t) = conj(a_i(t))
    J = ionchain.power_law_coupling(5, 1.7, J0)
    fwd, back = magnon.evolve_single_excitation(J, 3, np.array([0.012, -0.012]))
    np.testing.assert_allclose(back.amplitudes, fwd.amplitudes.conj(), atol=1e-12)


def test_evolve_checks_site_range():
    J = ionchain.nearest_neighbour_coupling(4, J0)
    with pytest.raises(ValueError):
        magnon.evolve_single_excitation(J, 5, np.array([0.0]))


def test_phases_without_digits_are_refused_as_by_evolve(monkeypatch):
    """The one-excitation propagator keeps the phase rule of
    ``dynamics.evolve``: a one-flip quench whose phases pass ``MAX_PHASE``
    is refused by both with the same message, and the limit its bound
    reaches is accepted, one ulp below refused."""
    J = ionchain.power_law_coupling(7, 1.5, J0)
    times = np.array([1e300])
    with pytest.raises(ValueError, match=r"the phases \|\|H\|\| max\|t\| reach") as mine:
        magnon.evolve_single_excitation(J, 4, times)
    with pytest.raises(ValueError) as full:
        dynamics.evolve(dynamics.prepare_state(7, [4]),
                        dynamics.build_hamiltonian(J, model="xy"), times)
    assert str(mine.value) == str(full.value)
    bound = np.abs(np.triu(J.values, 1)).sum() * 0.005
    monkeypatch.setattr(dynamics, "MAX_PHASE", bound)
    magnon.evolve_single_excitation(J, 4, np.array([0.0, -0.005]))
    monkeypatch.setattr(dynamics, "MAX_PHASE", np.nextafter(bound, 0.0))
    with pytest.raises(ValueError, match="the phases"):
        magnon.evolve_single_excitation(J, 4, np.array([0.0, -0.005]))


def _full_space_amplitudes(J, times):
    """a_i(t) of every source, shape (N sources, T, N), from the
    eigendecomposition of the whole N x N matrix."""
    energies, c = np.linalg.eigh(J.values)
    return (np.exp(-1j * np.outer(times, energies)) * c[:, None, :]) @ c.T


def _eigh_sizes(monkeypatch):
    """The sizes of the matrices ``np.linalg.eigh`` is given, as a list."""
    eigh, sizes = np.linalg.eigh, []

    def recording(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


@pytest.mark.parametrize("n", [2, 3, 8, 9, 200, 201])
@pytest.mark.parametrize("chain", ["power-law", "nearest-neighbour"])
def test_mirror_blocks_give_the_full_space_amplitudes(n, chain, monkeypatch):
    """On a reflection-symmetric chain the amplitudes come from the two
    half-size blocks, and agree with the whole matrix's eigendecomposition
    for every source."""
    J = (ionchain.power_law_coupling(n, 1.3, J0) if chain == "power-law"
         else ionchain.nearest_neighbour_coupling(n, J0))
    times = np.linspace(-0.01, 0.05, 23)
    oracle = _full_space_amplitudes(J, times)
    sizes = _eigh_sizes(monkeypatch)
    for site in range(1, n + 1):
        sizes.clear()
        amps = magnon._single_excitation_amplitudes(J, site, times)
        on_axis = n % 2 == 1 and site == (n + 1) // 2
        assert sizes == ([(n + 1) // 2] if on_axis else [(n + 1) // 2, n // 2])
        np.testing.assert_allclose(amps, oracle[site - 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 9, 201])
def test_a_centre_source_builds_the_symmetric_block_only(n, monkeypatch):
    """A source on the mirror axis has no antisymmetric weight: only the
    ceil(N/2) symmetric block is diagonalized, and each site's amplitude is
    its mirror site's, bit for bit.  The (T, N) array is C-ordered, as the
    observables' summation order, and so the artifacts' bytes, assume."""
    sizes = _eigh_sizes(monkeypatch)
    amps = magnon._single_excitation_amplitudes(
        ionchain.power_law_coupling(n, 1.1, J0), (n + 1) // 2, np.linspace(0.0, 0.04, 81))
    assert sizes == [(n + 1) // 2]
    assert np.array_equal(amps, amps[:, ::-1])
    assert amps.flags.c_contiguous


def test_couplings_not_mirror_symmetric_bit_for_bit_take_the_whole_matrix(monkeypatch,
                                                                          reference_trap,
                                                                          reference_beam):
    """A trap's couplings are reflection symmetric only to roundoff, and a
    power law with one coupling (and its transpose) moved by one ulp not at
    all: both diagonalize the whole N x N matrix, as before."""
    trap = ionchain.build_coupling_matrix(reference_trap, reference_beam,
                                          ionchain.transverse_mode_spectrum(reference_trap))
    values = ionchain.power_law_coupling(9, 1.3, J0).values.copy()
    values[1, 3] = values[3, 1] = np.nextafter(values[1, 3], np.inf)
    nudged = ionchain.CouplingMatrix(values)
    assert not ionchain._mirror_symmetric(trap.values)
    assert not ionchain._mirror_symmetric(nudged.values)
    times = np.linspace(0.0, 0.05, 11)
    for J in (trap, nudged):
        sizes = _eigh_sizes(monkeypatch)
        oracle = _full_space_amplitudes(J, times)
        for site in range(1, J.n_ions + 1):
            sizes.clear()
            amps = magnon._single_excitation_amplitudes(J, site, times)
            assert sizes == [J.n_ions]
            np.testing.assert_allclose(amps, oracle[site - 1], rtol=0, atol=1e-12)


def test_amplitude_array_checks_the_norm_of_its_rows(monkeypatch):
    """Mode functions 1e-8 too long fail the check, whichever blocks are
    diagonalized: here the two mirror blocks of a symmetric chain."""
    J = ionchain.power_law_coupling(6, 1.3, J0)
    eigh = np.linalg.eigh

    def stretched(a):
        energies, vectors = eigh(a)
        return energies, vectors * (1 + 1e-8)

    monkeypatch.setattr(np.linalg, "eigh", stretched)
    with pytest.raises(ValueError, match="not normalized"):
        magnon._single_excitation_amplitudes(J, 3, np.linspace(0.0, 0.03, 7))


def test_state_normalization_enforced(monkeypatch):
    """The states of ``evolve_single_excitation`` are refused unless
    normalized: the one check, of the amplitude array, reaches them."""
    J = ionchain.power_law_coupling(5, 1.3, J0)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: (eigh(a)[0], eigh(a)[1] * (1 + 1e-8)))
    with pytest.raises(ValueError, match="not normalized"):
        magnon.evolve_single_excitation(J, 2, np.linspace(0.0, 0.03, 4))
