"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL verdict line (run with ``pytest -s`` to see
them).  Everything runs from scratch — no cached artifacts — and each
check carries a wall-clock budget so performance regressions surface
here too.
"""

import math
import time

import numpy as np
import pytest

from conftest import fidelity, lr_bound_bessel, lr_bound_series, sector_weights
from magnonchain import analysis, bounds, cli, dynamics, entanglement, ionchain, magnon

J0 = 2 * np.pi * 30.0       # experiment-scale NN coupling, rad/s (30 Hz)

_t0 = None


def _start():
    global _t0
    _t0 = time.perf_counter()


def _verdict(num, title, ok, detail, budget_s):
    elapsed = time.perf_counter() - _t0
    line = (f"criterion {num:2d} {title}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget"


def test_criterion_01_nn_dispersion_analytic():
    """Uniform NN chain: cosine dispersion and sine standing waves to 1e-10."""
    _start()
    n = 7
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(n, J0))
    modes = np.arange(1, n + 1)
    expected_w = 2 * J0 * np.cos(modes * np.pi / (n + 1))
    err_w = np.abs(spec.energies - expected_w).max()
    err_c = 0.0
    i = np.arange(1, n + 1)
    for k in range(n):
        expected = np.sqrt(2.0 / (n + 1)) * np.sin(i * (k + 1) * np.pi / (n + 1))
        c = spec.mode_functions[:, k]
        sign = np.sign(c @ expected)
        err_c = max(err_c, np.abs(c - sign * expected).max())
    _verdict(1, "analytic NN dispersion", err_w < 1e-10 and err_c < 1e-10,
             f"energy err {err_w:.1e}, mode err {err_c:.1e}", budget_s=1.0)


def test_criterion_02_bessel_equals_series():
    """Path-counting series vs closed-form Bessel to 1e-10 relative, for
    d <= 60 and 4g|t| up to 700, where the series still converges
    (I_d overflows past ~709)."""
    _start()
    grid = [(d, x) for d in range(0, 11) for x in np.linspace(0.0, 8.0, 17)]
    grid += [(d, x) for d in (0, 15, 20, 30, 45, 60)
             for x in (25.0, 50.0, 101.0, 150.0, 300.0, 500.0, 700.0)]
    ok = True
    worst = 0.0
    for d, x in grid:
        t = x / 4.0
        s = lr_bound_series(d, t, 1.0, m_max=2000, rtol=1e-14)
        b = float(lr_bound_bessel(d, t, 1.0))
        if not math.isclose(s, b, rel_tol=1e-10, abs_tol=1e-300):
            ok = False
        if b > 0:
            worst = max(worst, abs(s - b) / b)
    _verdict(2, "series/Bessel equivalence", ok,
             f"worst rel diff {worst:.1e} over d 0..60, 4g|t| 0..700", budget_s=1.0)


def test_criterion_03_full_xy_matches_magnon_sector():
    """2^N XY propagation vs single-excitation spectral evolution to 1e-8."""
    _start()
    n = 7
    J = ionchain.power_law_coupling(n, 1.5, J0)
    times = np.linspace(0.0, 0.02, 50)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(n, (4,))
    traj = dynamics.evolve(psi0, H, times)
    mag_full = np.vstack([dynamics.magnetisation(traj.state(k))
                          for k in range(traj.times.size)])
    mag_single = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                            for s in magnon.evolve_single_excitation(J, 4, times)])
    err = np.abs(mag_full - mag_single).max()
    _verdict(3, "full XY vs magnon sector", err < 1e-8,
             f"max magnetisation err {err:.1e} at 50 points", budget_s=10.0)


def test_criterion_04_ising_at_large_field_conserves_excitations():
    """B = 50 max|J|: leakage out of the one-excitation sector < 1e-2."""
    _start()
    n = 7
    J = ionchain.power_law_coupling(n, 1.5, J0)
    B = 50.0 * np.abs(J.values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model="ising")
    psi0 = dynamics.prepare_state(n, (4,))
    times = np.linspace(0.0, 10.0 / J.nn_mean, 101)
    traj = dynamics.evolve(psi0, H, times)
    leak = max(1.0 - sector_weights(traj.state(k))[1]
               for k in range(traj.times.size))
    _verdict(4, "XY regime of the Ising model", leak < 1e-2,
             f"max sector leakage {leak:.1e} over t <= 10/Jbar", budget_s=30.0)


def test_criterion_05_alpha_fit_self_consistency():
    """fit_alpha_dispersion recovers synthetic exponents to +-0.02."""
    _start()
    errs = {}
    for alpha in (0.75, 1.36, 3.0):
        spec = magnon.diagonalize_magnons(ionchain.power_law_coupling(9, alpha, J0))
        fit = analysis.fit_alpha_dispersion(
            np.column_stack([spec.pseudo_momenta, spec.energies]), 9)
        errs[alpha] = abs(fit.alpha - alpha)
    worst = max(errs.values())
    _verdict(5, "exponent fit self-consistency", worst < 0.02,
             f"worst |alpha error| {worst:.1e}", budget_s=10.0)


def test_criterion_06_detuning_sweep_brackets_intermediate_alpha():
    """Reference trap, detuning 15-120 kHz above the top mode: the fitted
    exponent range brackets 1.36."""
    _start()
    beam = ionchain.BeamProfile(peak_rabi=100e3, waist_along_chain=380e-6, center_offset=0.0)
    trap = ionchain.TrapConfig(n_ions=7, axial_freq=0.219e6, transverse_freq_x=2.655e6,
                               transverse_freq_y=2.628e6, detuning=0.0,
                               ion_mass=ionchain.MASS_CA40,
                               laser_wavelength=ionchain.WAVELENGTH_CA40)
    modes = ionchain.transverse_mode_spectrum(trap)
    alphas = []
    for gap in (15e3, 30e3, 60e3, 120e3):
        J = ionchain.build_coupling_matrix(ionchain.with_detuning_above_top(trap, gap, modes),
                                           beam, modes)
        spec = magnon.diagonalize_magnons(J)
        fit = analysis.fit_alpha_dispersion(
            np.column_stack([spec.pseudo_momenta, spec.energies]), 7)
        alphas.append(fit.alpha)
    lo, hi = min(alphas), max(alphas)
    _verdict(6, "detuning sweep alpha range", lo < 1.36 < hi,
             f"alpha spans [{lo:.3f}, {hi:.3f}] over 15-120 kHz", budget_s=60.0)


def _first_concurrence_peak(times, values, floor=0.05):
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] >= values[i + 1] and values[i] > floor:
            return times[i], values[i]
    return None, 0.0


def test_criterion_07_entanglement_front_ordering():
    """Concurrence peaks move outward: t(3,5) < t(2,6) < t(1,7), each > 0.05."""
    _start()
    n = 7
    J = ionchain.power_law_coupling(n, 1.75, J0)
    times = np.linspace(0.0, 0.015, 301)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(n, (4,))
    traj = dynamics.evolve(psi0, H, times)
    peaks = {}
    for pair in ((3, 5), (2, 6), (1, 7)):
        conc = np.array([
            entanglement.concurrence(
                entanglement.reduced_density_matrix(traj.state(k), pair))
            for k in range(traj.times.size)])
        peaks[pair] = _first_concurrence_peak(times, conc)
    t35, c35 = peaks[(3, 5)]
    t26, c26 = peaks[(2, 6)]
    t17, c17 = peaks[(1, 7)]
    ok = (t35 is not None and t26 is not None and t17 is not None
          and t35 < t26 < t17 and min(c35, c26, c17) > 0.05)
    detail = (f"t(3,5)={t35 * 1e3:.2f}ms C={c35:.2f}, "
              f"t(2,6)={t26 * 1e3:.2f}ms C={c26:.2f}, "
              f"t(1,7)={t17 * 1e3:.2f}ms C={c17:.2f}")
    _verdict(7, "entanglement front ordering", ok, detail, budget_s=60.0)


def test_criterion_08_front_velocity_grows_as_alpha_shrinks():
    """N=15 single-excitation quenches: fitted velocities increase as the
    interactions get longer-ranged, exceeding the NN cone at alpha 0.75."""
    _start()
    times = np.linspace(0.0, 0.04, 801)
    velocity = {}
    for alpha in (1.41, 1.07, 0.75):
        J = ionchain.power_law_coupling(15, alpha, J0)
        mag = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                         for s in magnon.evolve_single_excitation(J, 8, times)])
        fits, _ = analysis.arrival_times(times, mag, 8)
        front = analysis.fit_front_velocity([(d, f.t0) for d, f in fits])
        velocity[alpha] = front.velocity
    cone = bounds.nn_lightcone(ionchain.power_law_coupling(15, 0.75, J0))
    ok = (velocity[1.41] < velocity[1.07] < velocity[0.75]
          and velocity[0.75] > cone.v)
    detail = (f"v(1.41)={velocity[1.41]:.0f} < v(1.07)={velocity[1.07]:.0f} "
              f"< v(0.75)={velocity[0.75]:.0f} sites/s, NN cone {cone.v:.0f}")
    _verdict(8, "light-cone violation trend", ok, detail, budget_s=120.0)


def test_criterion_09_lr_bound_holds_for_nn_chain():
    """|change in <sigma_z>| never exceeds 2 F(d,t) = 4 I_d(4 J0 t)."""
    _start()
    n = 9
    J = ionchain.nearest_neighbour_coupling(n, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(n, (5,))
    times = np.linspace(0.0, 0.02, 101)
    traj = dynamics.evolve(psi0, H, times)
    mag = np.vstack([dynamics.magnetisation(traj.state(k)) for k in range(traj.times.size)])
    worst = 0.0
    ok = True
    for k, t in enumerate(times):
        for site in range(1, n + 1):
            d = abs(site - 5)
            if d == 0:
                continue
            delta = abs(mag[k, site - 1] - (-1.0))
            bound = 2.0 * lr_bound_bessel(d, t, J0)
            # 1e-12 absolute slack: at t = 0 the bound is exactly zero while
            # the reconstructed magnetisation sits at -1 +- machine epsilon
            if delta > bound + 1e-12:
                ok = False
            if bound > 0:
                worst = max(worst, delta / bound)
    _verdict(9, "Lieb-Robinson bound validity", ok,
             f"worst |dSz| / 2F ratio {worst:.3f}", budget_s=30.0)


def test_criterion_10_tomography_pipeline():
    """Noiseless fidelity > 0.999; 1000-shot Bell fidelity > 0.97 in >= 95%
    of 100 seeds; the concurrence's bootstrap sigma halves (+-50%) when
    shots quadruple."""
    _start()
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)

    # exact expected counts: all nine bases give integer counts at 1000 shots
    bell_rho = entanglement.DensityMatrix(np.outer(bell, bell), (1, 2))
    counts = np.round(entanglement.measurement_probabilities(bell_rho) * 1000).astype(int)
    noiseless = fidelity(entanglement.tomography_reconstruct(counts, (1, 2)), bell)

    fids = []
    for seed in range(100):
        counts = entanglement.simulate_tomography(bell_rho, shots=1000, seed=seed)
        fids.append(fidelity(entanglement.tomography_reconstruct(counts, (1, 2)), bell))
    fraction = float(np.mean(np.array(fids) > 0.97))

    counts_1 = entanglement.simulate_tomography(bell_rho, shots=500, seed=7)
    counts_4 = entanglement.simulate_tomography(bell_rho, shots=2000, seed=7)
    _, sigma_1 = entanglement.bootstrap(counts_1, resamples=300, seed=11)
    _, sigma_4 = entanglement.bootstrap(counts_4, resamples=300, seed=11)
    ratio = sigma_4 / sigma_1

    ok = noiseless > 0.999 and fraction >= 0.95 and 0.25 <= ratio <= 0.75
    detail = (f"noiseless F {noiseless:.4f}, Bell>0.97 in {fraction:.0%} of seeds, "
              f"sigma ratio {ratio:.2f}")
    _verdict(10, "tomography pipeline", ok, detail, budget_s=60.0)


def test_criterion_11_cli_reruns_are_byte_identical(tmp_path, capsys):
    """Identical config and seed reproduce every artifact byte for byte,
    Monte Carlo outputs included."""
    _start()
    ok = True
    mismatches = []
    jobs = (
        ["tomo", "--n", "7", "--shots", "400", "--resamples", "100",
         "--seed", "5"],
        ["quench", "--n", "5", "--flip", "3", "--t-end", "0.01",
         "--n-points", "11", "--correlations"],
    )
    for idx, args in enumerate(jobs):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        assert cli.main(args + ["-o", str(a)]) == 0
        assert cli.main(args + ["-o", str(b)]) == 0
        for path in sorted(a.iterdir()):
            if path.read_bytes() != (b / path.name).read_bytes():
                ok = False
                mismatches.append(path.name)
    capsys.readouterr()      # swallow the artifact lines before the verdict
    detail = "tomo + quench artifacts identical" if ok else f"mismatch: {mismatches}"
    _verdict(11, "byte-identical reruns", ok, detail, budget_s=60.0)
