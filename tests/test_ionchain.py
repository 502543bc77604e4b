"""Equilibrium positions, transverse modes, and the mode-sum coupling matrix."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants

from magnonchain import dynamics, entanglement, ionchain, magnon
from magnonchain.ionchain import (
    BeamProfile, ChainUnstableError, CouplingMatrix, ResonanceError, TrapConfig,
)

# Coulomb length scale of the reference trap (0.219 MHz axial, Ca-40),
# frozen from (e^2 / (4 pi eps0 m omega_ax^2))^(1/3).
REFERENCE_LENGTH_SCALE = 1.2245330106539682e-05


# ---------------------------------------------------------------------------
# equilibrium positions


def test_two_ion_positions_analytic():
    # force balance a = 1/(2a)^2 gives a = (1/4)^(1/3)
    u = ionchain.equilibrium_positions(2)
    a = 0.25 ** (1.0 / 3.0)
    np.testing.assert_allclose(u, [-a, a], atol=1e-12)


def test_three_ion_positions_analytic():
    # outer ions at a with a^3 = 1/4 + 1, middle ion at 0
    u = ionchain.equilibrium_positions(3)
    a = 1.25 ** (1.0 / 3.0)
    np.testing.assert_allclose(u, [-a, 0.0, a], atol=1e-12)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=25))
def test_positions_are_sorted_symmetric_force_free(n):
    u = ionchain.equilibrium_positions(n)
    assert np.all(np.diff(u) > 0)
    np.testing.assert_allclose(u, -u[::-1], atol=1e-10)
    # residual force straight from the definition
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    force = u - np.sum(np.sign(d) / d ** 2, axis=1)
    assert np.abs(force).max() < 1e-12


def test_positions_converge_up_to_160_ions():
    # past N ~ 53 the force sum cannot be evaluated below 1e-13; the
    # solver stops at its roundoff floor N eps max_i(|u_i| + sum_j d_ij^-2)
    for n in range(2, 161):
        u = ionchain.equilibrium_positions(n)
        assert np.all(np.diff(u) > 0), n
        np.testing.assert_allclose(u, -u[::-1], atol=1e-12, err_msg=f"n={n}")
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, np.inf)
        force = u - np.sum(np.sign(d) / d ** 2, axis=1)
        floor = n * np.finfo(float).eps * np.max(np.abs(u) + np.sum(d ** -2.0, axis=1))
        assert np.abs(force).max() < max(1e-13, floor), n
        assert floor < 1e-11, n


def test_positions_still_report_non_convergence(monkeypatch):
    monkeypatch.setattr(ionchain, "MAX_NEWTON_ITERATIONS", 2)
    with pytest.raises(ionchain.ConvergenceError, match="n=100"):
        ionchain.equilibrium_positions(100)


@pytest.mark.parametrize("n", [7, 25, 51, 54, 100, 160, 200])
def test_positions_evaluate_the_force_once_per_point(n, monkeypatch):
    """The force of an accepted line-search trial serves the next Newton
    step, and a trial that rounds to the current positions, or to the last
    rejected trial (as at N = 54 and 200), is not evaluated: no position
    vector is evaluated twice."""
    force, points = ionchain._chain_force, []
    monkeypatch.setattr(ionchain, "_chain_force",
                        lambda u: points.append(u.tobytes()) or force(u))
    ionchain.equilibrium_positions(n)
    assert len(points) == len(set(points)) > 1


def _halving_positions(n_ions):
    """The equilibrium solve with a line search that evaluates every trial
    down to a step of 1e-8, also those that round to the current
    positions."""
    spacing = 2.018 / n_ions ** 0.559
    u = spacing * (np.arange(1, n_ions + 1) - (n_ions + 1) / 2)
    force = ionchain._chain_force(u)
    fmax = np.max(np.abs(force))
    for _ in range(ionchain.MAX_NEWTON_ITERATIONS):
        if fmax < ionchain.FORCE_TOL:
            return u
        step = np.linalg.solve(ionchain._chain_hessian(u), force)
        lam = 1.0
        while lam > 1e-8:
            trial = u - lam * step
            ftrial = ionchain._chain_force(trial)
            if np.max(np.abs(ftrial)) < fmax:
                break
            lam /= 2
        else:
            if fmax < ionchain._force_roundoff(u):
                return u
            trial = u - lam * step
            ftrial = ionchain._chain_force(trial)
        u, force = trial, ftrial
        fmax = np.max(np.abs(force))
    raise AssertionError("no convergence")


@pytest.mark.parametrize("n", [7, 25, 51, 100, 160])
def test_a_trial_that_rounds_to_the_positions_goes_straight_to_the_roundoff_check(
        n, monkeypatch):
    """Every shorter step rounds to the same positions, so skipping those
    trials leaves the positions bit for bit; at the roundoff floor of
    N = 100 and 160 the solve takes at most 20 force evaluations, where
    halving down to 1e-8 took 37."""
    reference = _halving_positions(n)
    force, calls = ionchain._chain_force, []
    monkeypatch.setattr(ionchain, "_chain_force", lambda u: calls.append(1) or force(u))
    assert ionchain.equilibrium_positions(n).tobytes() == reference.tobytes()
    if n >= 100:
        assert len(calls) <= 20, len(calls)


def test_one_separation_table_gives_the_bits_of_the_four_inline_ones():
    """The force, its roundoff floor, the Hessian and the transverse mode
    matrix built from ``_separations`` equal the inline tables of old."""
    for n in range(2, 161):
        u = ionchain.equilibrium_positions(n)
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, np.inf)
        force = u - np.sum(np.sign(d) / d ** 2, axis=1)
        terms = np.abs(u) + np.sum(1.0 / d ** 2, axis=1)
        roundoff = u.size * np.finfo(float).eps * float(terms.max())
        a = np.abs(u[:, None] - u[None, :])
        np.fill_diagonal(a, np.inf)
        hessian = -2.0 / a ** 3
        np.fill_diagonal(hessian, 1.0 + 2.0 * np.sum(1.0 / a ** 3, axis=1))
        assert ionchain._chain_force(u).tobytes() == force.tobytes(), n
        assert ionchain._force_roundoff(u) == roundoff, n
        assert ionchain._chain_hessian(u).tobytes() == hessian.tobytes(), n
    for n, axial in ((2, 0.219e6), (7, 0.219e6), (25, 0.219e6), (100, 0.05e6),
                     (160, 0.03e6)):
        trap = TrapConfig(n_ions=n, axial_freq=axial, transverse_freq_x=2.655e6,
                          transverse_freq_y=2.628e6, detuning=0.0,
                          ion_mass=ionchain.MASS_CA40, laser_wavelength=ionchain.WAVELENGTH_CA40)
        modes = ionchain.transverse_mode_spectrum(trap)
        u = ionchain.equilibrium_positions(n)
        a = np.abs(u[:, None] - u[None, :])
        np.fill_diagonal(a, np.inf)
        inv_cube = 1.0 / a ** 3
        for branch, nu_t in enumerate((trap.transverse_freq_x, trap.transverse_freq_y)):
            A = inv_cube.copy()
            np.fill_diagonal(A, (nu_t / axial) ** 2 - inv_cube.sum(axis=1))
            lam, b = np.linalg.eigh(A)
            lam, b = lam[::-1], ionchain._fix_gauge(b[:, ::-1])
            rows = slice(branch * n, (branch + 1) * n)
            assert modes.frequencies[rows].tobytes() == (axial * np.sqrt(lam)).tobytes(), n
            assert modes.mode_vectors[:, rows].tobytes() == np.ascontiguousarray(b).tobytes()


def test_frozen_arrays_copy_a_writable_input_and_share_a_read_only_one():
    """One rule for every frozen dataclass: a writable input array is
    copied and the copy made read-only, so later writes leave the object
    alone; a read-only input is kept as it is."""
    vec = np.array([1.0, 0.0, 0.0, 0.0])
    makers = {
        "CouplingMatrix.values": (lambda a: CouplingMatrix(a).values, np.zeros((3, 3))),
        "ModeSpectrum.positions": (lambda a: ionchain.ModeSpectrum(
            np.ones(4), np.eye(2, 4), ("x", "x", "y", "y"), a, a).positions, np.zeros(2)),
        "MagnonSpectrum.energies": (lambda a: magnon.MagnonSpectrum(
            a, np.eye(3), a, np.arange(3)).energies, np.arange(3.0)),
        "DensityMatrix.matrix": (lambda a: entanglement.DensityMatrix(a, (1, 2)).matrix,
                                 np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)),
        "SingleExcitationState.amplitudes": (lambda a: magnon.SingleExcitationState(
            a, 0.0).amplitudes, vec.astype(complex)),
        "StateVector.amplitudes": (lambda a: dynamics.StateVector(
            a, 2, np.arange(4)).amplitudes, vec.astype(complex)),
    }
    for name, (field_of, value) in makers.items():
        writable = value.copy()
        kept = field_of(writable)
        assert not kept.flags.writeable and not np.shares_memory(kept, writable), name
        frozen = value.copy()
        frozen.setflags(write=False)
        assert field_of(frozen) is frozen, name


def test_every_normalisation_path_has_one_tolerance_and_message(monkeypatch):
    """A StateVector and the (T, N) propagated one-excitation amplitudes
    are refused alike: off by more than 1e-9, with the same message, naming
    the sum of the first row that is off."""
    def refused(norm):
        return f"^{re.escape(f'state not normalized: sum |a|^2 = {float(norm)!r}')}$"

    for off in (1.5e-9, -1.5e-9, 0.5e-9, -0.5e-9):
        amps = np.array([np.sqrt(1.0 + off), 0.0], dtype=complex)
        norm = np.sum(np.abs(amps) ** 2)
        if abs(off) < 1e-9:
            dynamics.StateVector(amps, 1, [0, 1])
        else:
            with pytest.raises(ValueError, match=refused(norm)):
                dynamics.StateVector(amps, 1, [0, 1])
    values = ionchain.power_law_coupling(6, 1.3, 2 * np.pi * 30.0).values.copy()
    values[0, 1] = values[1, 0] = 1.1 * values[0, 1]     # no mirror symmetry: one eigh
    times = np.linspace(0.0, 0.01, 4)
    spectral = dynamics._spectral
    scale = np.sqrt([[1.0], [1.0 + 0.5e-9], [1.0 + 2e-9], [1.0 - 3e-9]])
    monkeypatch.setattr(magnon, "_spectral", lambda *args: spectral(*args) * scale)
    start = np.eye(1, 6, 0, dtype=complex)[0]
    norms = np.sum(np.abs(spectral(*np.linalg.eigh(values), start, times) * scale) ** 2, axis=1)
    with pytest.raises(ValueError, match=refused(norms[2])):
        magnon._single_excitation_amplitudes(CouplingMatrix(values), 1, times)


def test_positions_need_two_ions():
    with pytest.raises(ValueError):
        ionchain.equilibrium_positions(1)


def test_si_constants_are_the_codata_2022_doubles_of_scipy():
    """The module's constants are scipy's CODATA 2022 values, exactly;
    an installed scipy with another CODATA release has nothing to pin."""
    codata = getattr(constants._codata, "_current_codata", None)
    if codata != "CODATA 2022":
        pytest.skip(f"the installed scipy carries {codata}")
    assert ionchain.ATOMIC_MASS == constants.atomic_mass
    assert ionchain.ELEMENTARY_CHARGE == constants.e
    assert ionchain.EPSILON_0 == constants.epsilon_0
    assert ionchain.HBAR == constants.hbar
    assert ionchain.MASS_CA40 == 39.9625909 * constants.atomic_mass


def test_length_scale_reference_value(reference_trap):
    assert ionchain.length_scale(reference_trap) == pytest.approx(
        REFERENCE_LENGTH_SCALE, rel=1e-12)


def test_length_scale_mass_scaling(reference_trap):
    # l ~ m^(-1/3)
    heavy = dataclasses.replace(reference_trap, ion_mass=8 * reference_trap.ion_mass)
    ratio = ionchain.length_scale(heavy) / ionchain.length_scale(reference_trap)
    assert ratio == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# config validation


def test_trap_config_rejects_soft_transverse_confinement():
    with pytest.raises(ValueError):
        TrapConfig(n_ions=5, axial_freq=1e6, transverse_freq_x=0.5e6,
                   transverse_freq_y=2e6, detuning=0.0, ion_mass=ionchain.MASS_CA40,
                   laser_wavelength=ionchain.WAVELENGTH_CA40)


def test_beam_profile_rejects_zero_waist():
    with pytest.raises(ValueError):
        BeamProfile(peak_rabi=1e5, waist_along_chain=0.0, center_offset=0.0)


def _fix_gauge_loop(vectors):
    """Column-by-column sign convention, the reference for ``_fix_gauge``."""
    vectors = vectors.copy()
    for k in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, k]))
        if vectors[lead, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return vectors


def test_fix_gauge_matches_column_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    cases = [np.linalg.eigh(a + a.T)[1] for a in rng.normal(size=(20, 9, 9))]
    cases.append(np.array([[0.0, -0.5, 0.0], [-0.0, 0.5, -2.0], [0.0, -0.5, 2.0]]))
    for vectors in cases:
        fixed = ionchain._fix_gauge(vectors)
        expected = _fix_gauge_loop(vectors)
        assert fixed.tobytes() == expected.tobytes()
        assert np.all(fixed[np.argmax(np.abs(fixed), axis=0), np.arange(fixed.shape[1])] >= 0)


def test_coupling_matrix_rejects_asymmetry():
    J = np.array([[0.0, 1.0], [1.1, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        CouplingMatrix(values=J)


def test_coupling_matrix_rejects_nonzero_diagonal():
    J = np.array([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        CouplingMatrix(values=J)


def test_coupling_matrix_nn_mean():
    J = np.array([[0.0, 2.0, 0.5],
                  [2.0, 0.0, 4.0],
                  [0.5, 4.0, 0.0]])
    assert CouplingMatrix(values=J).nn_mean == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# transverse modes


def test_mode_spectrum_shapes_and_branches(reference_trap):
    modes = ionchain.transverse_mode_spectrum(reference_trap)
    n = reference_trap.n_ions
    assert modes.frequencies.shape == (2 * n,)
    assert modes.mode_vectors.shape == (n, 2 * n)
    assert modes.branches[:n] == ("x",) * n
    assert modes.branches[n:] == ("y",) * n
    # descending within each branch
    assert np.all(np.diff(modes.frequencies[:n]) < 0)
    assert np.all(np.diff(modes.frequencies[n:]) < 0)


def _branch(modes, label):
    """(frequencies, mode_vectors) of the modes of one branch."""
    sel = np.array(modes.branches) == label
    return modes.frequencies[sel], modes.mode_vectors[:, sel]


def test_com_mode_at_bare_transverse_frequency(reference_trap):
    """The top mode of each branch is the center-of-mass mode: every ion
    moves identically and the frequency is the bare transverse frequency."""
    modes = ionchain.transverse_mode_spectrum(reference_trap)
    n = reference_trap.n_ions
    for label, nu_t in (("x", reference_trap.transverse_freq_x),
                        ("y", reference_trap.transverse_freq_y)):
        freqs, vecs = _branch(modes, label)
        assert freqs[0] == pytest.approx(nu_t, rel=1e-12)
        np.testing.assert_allclose(vecs[:, 0], np.full(n, 1.0 / np.sqrt(n)), atol=1e-10)


def test_mode_vectors_orthonormal(reference_trap):
    modes = ionchain.transverse_mode_spectrum(reference_trap)
    for label in ("x", "y"):
        _, vecs = _branch(modes, label)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(reference_trap.n_ions),
                                   atol=1e-12)


def test_zigzag_instability_raises():
    # nu_t/nu_ax = 3 is far below the linear-chain threshold for 7 ions
    trap = TrapConfig(n_ions=7, axial_freq=0.219e6, transverse_freq_x=3 * 0.219e6,
                      transverse_freq_y=2.628e6, detuning=0.0, ion_mass=ionchain.MASS_CA40,
                      laser_wavelength=ionchain.WAVELENGTH_CA40)
    with pytest.raises(ChainUnstableError, match="zig-zag"):
        ionchain.transverse_mode_spectrum(trap)


def test_detuning_gap_round_trip(reference_trap):
    modes = ionchain.transverse_mode_spectrum(reference_trap)
    trap = ionchain.with_detuning_above_top(reference_trap, 55e3, modes)
    assert ionchain.detuning_above_top_mode(trap, modes) == pytest.approx(55e3)


# ---------------------------------------------------------------------------
# beam and couplings


def test_rabi_profile_peak_and_falloff():
    beam = BeamProfile(peak_rabi=2e5, waist_along_chain=100e-6, center_offset=0.0)
    x = np.array([0.0, 100e-6])
    omega = ionchain.rabi_profile(beam, x)
    assert omega[0] == pytest.approx(2e5)
    assert omega[1] == pytest.approx(2e5 * np.exp(-1.0))


def test_rabi_profile_center_offset():
    beam = BeamProfile(peak_rabi=1e5, waist_along_chain=50e-6, center_offset=20e-6)
    omega = ionchain.rabi_profile(beam, np.array([20e-6, 0.0]))
    assert omega[0] == pytest.approx(1e5)
    assert omega[1] < omega[0]


def test_coupling_matrix_against_plain_loop(reference_trap, reference_beam):
    """The vectorized mode sum must agree with a literal double loop over
    J_ij = Omega_i Omega_j (hbar k^2 / 2m) sum_n b_in b_jn / (D^2 - nu_n^2)."""
    modes = ionchain.transverse_mode_spectrum(reference_trap)
    rabi = ionchain.rabi_profile(reference_beam, modes.positions_m)
    J = ionchain.coupling_matrix(reference_trap, modes, rabi)

    k = 2 * np.pi / reference_trap.laser_wavelength
    recoil = constants.hbar * k ** 2 / (2 * reference_trap.ion_mass)
    delta = 2 * np.pi * reference_trap.detuning
    nu = 2 * np.pi * modes.frequencies
    omega = 2 * np.pi * rabi
    n = reference_trap.n_ions
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            acc = 0.0
            for m in range(2 * n):
                acc += (modes.mode_vectors[i, m] * modes.mode_vectors[j, m]
                        / (delta ** 2 - nu[m] ** 2))
            expected[i, j] = omega[i] * omega[j] * recoil * acc
    np.testing.assert_allclose(J.values, expected, rtol=1e-12)


def test_couplings_share_one_sign_above_top_mode(reference_trap, reference_beam):
    # detuning above every transverse mode -> anti-ferromagnetic regime
    J = ionchain.build_coupling_matrix(reference_trap, reference_beam,
                                       ionchain.transverse_mode_spectrum(reference_trap))
    off = J.values[~np.eye(J.n_ions, dtype=bool)]
    assert np.all(off > 0) or np.all(off < 0)


def test_resonant_detuning_raises(reference_trap, reference_beam):
    modes = ionchain.transverse_mode_spectrum(reference_trap)
    near = dataclasses.replace(reference_trap, detuning=modes.top_mode_freq + 200.0)
    rabi = ionchain.rabi_profile(reference_beam, modes.positions_m)
    with pytest.raises(ResonanceError):
        ionchain.coupling_matrix(near, modes, rabi)


# ---------------------------------------------------------------------------
# synthetic matrices


def test_power_law_values():
    J = ionchain.power_law_coupling(4, 2.0, 8.0)
    assert J.values[0, 1] == pytest.approx(8.0)
    assert J.values[0, 2] == pytest.approx(2.0)
    assert J.values[0, 3] == pytest.approx(8.0 / 9.0)


def test_power_law_alpha_zero_keeps_diagonal_clear():
    # regression: inf**0 == 1 used to leak nn_strength onto the diagonal
    J = ionchain.power_law_coupling(5, 0.0, 3.0)
    assert np.all(np.diag(J.values) == 0.0)
    off = J.values[~np.eye(5, dtype=bool)]
    np.testing.assert_allclose(off, 3.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.07, 1.5, 2.0, 3.0, 4.0])
def test_power_law_has_the_bits_of_the_infinite_diagonal_formula(alpha):
    """A unit diagonal placeholder changes no entry for alpha >= 0."""
    d = np.abs(np.subtract.outer(np.arange(9), np.arange(9))).astype(float)
    np.fill_diagonal(d, np.inf)
    expected = 30.0 / d ** alpha
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_array_equal(ionchain.power_law_coupling(9, alpha, 30.0).values, expected)


@pytest.mark.parametrize("n", [2, 2001])
@pytest.mark.parametrize("alpha", [-400.0, 0.0, 1.5, 1e308])
def test_power_law_from_its_distinct_values_has_the_bits_of_every_cell(n, alpha):
    """J is Toeplitz, so its N - 1 distinct couplings are computed once and
    laid out by |i - j|: the same bits as the power of every cell, also
    where d^alpha underflows to 0 (J = inf at alpha = -400) or overflows to
    inf (J = 0 at alpha = 1e308)."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    np.fill_diagonal(d, 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        expected = 30.0 / d ** alpha
    np.fill_diagonal(expected, 0.0)
    got = ionchain._power_law_values(n, alpha, 30.0)
    np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))


def test_power_law_with_negative_alpha_builds_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = ionchain.power_law_coupling(5, -1.0, 3.0)
    np.testing.assert_array_equal(
        J.values, 3.0 * np.abs(np.subtract.outer(np.arange(5), np.arange(5))))


@settings(deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       alpha=st.floats(min_value=0.0, max_value=4.0),
       strength=st.floats(min_value=1e-3, max_value=1e6))
def test_power_law_matrix_is_valid(n, alpha, strength):
    J = ionchain.power_law_coupling(n, alpha, strength)
    # CouplingMatrix construction already enforces symmetry + zero diagonal;
    # check the power law itself on the first row
    for j in range(1, n):
        assert J.values[0, j] == pytest.approx(strength / j ** alpha)


def test_nearest_neighbour_structure():
    J = ionchain.nearest_neighbour_coupling(5, 7.0)
    expected = np.diag(np.full(4, 7.0), 1) + np.diag(np.full(4, 7.0), -1)
    np.testing.assert_array_equal(J.values, expected)
    assert J.nn_mean == pytest.approx(7.0)
