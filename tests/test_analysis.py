"""Exponent fits, Gaussian arrival fits, and front-velocity regression."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import curve_fit
from scipy.optimize._numdiff import approx_derivative

from magnonchain import analysis, cli, ionchain, magnon
from magnonchain.analysis import FitError

J0 = 2 * np.pi * 30.0


def _dispersion_pairs(n, alpha, scale=J0):
    spec = magnon.diagonalize_magnons(ionchain.power_law_coupling(n, alpha, scale))
    return np.column_stack([spec.pseudo_momenta, spec.energies])


# ---------------------------------------------------------------------------
# dispersion-based alpha fit


@pytest.mark.parametrize("alpha", [0.6, 1.36, 2.2, 3.0])
def test_dispersion_fit_recovers_synthetic_exponent(alpha):
    fit = analysis.fit_alpha_dispersion(_dispersion_pairs(9, alpha), 9)
    assert fit.method == "dispersion"
    assert fit.alpha == pytest.approx(alpha, abs=2e-3)
    assert fit.scale == pytest.approx(J0, rel=1e-3)
    assert fit.residual < 1e-3 * J0
    assert fit.note == ""


def test_dispersion_fit_accepts_subset_of_modes():
    pairs = _dispersion_pairs(9, 1.5)[::2]      # every other mode
    fit = analysis.fit_alpha_dispersion(pairs, 9)
    assert fit.alpha == pytest.approx(1.5, abs=0.01)


@settings(deadline=None, max_examples=15)
@given(factor=st.floats(min_value=1e-3, max_value=1e3))
def test_dispersion_fit_scale_invariance(factor):
    """Rescaling all energies moves only the scale, not the exponent."""
    pairs = _dispersion_pairs(7, 1.7)
    base = analysis.fit_alpha_dispersion(pairs, 7)
    scaled = pairs * np.array([1.0, factor])
    fit = analysis.fit_alpha_dispersion(scaled, 7)
    assert fit.alpha == pytest.approx(base.alpha, abs=1e-6)
    assert fit.scale == pytest.approx(base.scale * factor, rel=1e-9)


def test_dispersion_fit_flags_boundary_on_nn_input():
    # a uniform NN chain is steeper than any alpha <= 4 power law,
    # so the search pins to the upper boundary and says so
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(9, J0))
    fit = analysis.fit_alpha_dispersion(
        np.column_stack([spec.pseudo_momenta, spec.energies]), 9)
    assert fit.alpha > 3.5
    assert "boundary" in fit.note


def test_dispersion_fit_flags_flat_objective():
    pairs = np.column_stack([np.linspace(0.3, 3.0, 6), np.zeros(6)])
    fit = analysis.fit_alpha_dispersion(pairs, 6)
    assert "flat" in fit.note


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=2, max_value=201),
       alpha=st.floats(min_value=1e-6, max_value=4.0))
def test_power_law_energy_rank_is_node_count(n, alpha):
    """The alpha scan labels power-law modes by descending energy: the mode
    with the n-th highest energy has n - 1 nodes.  (Below alpha ~ 1e-9 the
    couplings are so close to uniform that float64 no longer resolves the
    nearly degenerate modes.)"""
    spec = magnon.diagonalize_magnons(ionchain.power_law_coupling(n, alpha, J0))
    np.testing.assert_array_equal(spec.node_counts, np.arange(n))
    assert np.all(np.diff(spec.energies) < 0.0)


def _node_count_mismatch(alpha, k_meas, w_meas, n_ions):
    """The alpha-scan objective as it was: the full node-counted spectrum."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = magnon.diagonalize_magnons(ionchain.power_law_coupling(n_ions, alpha, 1.0))
    idx = np.abs(model.pseudo_momenta[None, :] - k_meas[:, None]).argmin(axis=1)
    w_model = model.energies[idx]
    denom = float(w_model @ w_model)
    scale = float(w_model @ w_meas) / denom if denom > 0 else 0.0
    resid = w_meas - scale * w_model
    return float(np.sqrt(np.mean(resid ** 2))), scale


@pytest.mark.filterwarnings("ignore:ambiguous node labelling")
@pytest.mark.parametrize("n, axial", [(7, 0.219e6), (25, 0.219e6), (51, 0.1e6),
                                      (100, 0.05e6)])
def test_trap_alpha_fit_matches_node_count_objective(n, axial, monkeypatch):
    """On trap couplings the eigenvalue-only scan finds the exponent the
    eigenvector-based objective found, and scale and residual to 1e-14."""
    trap = ionchain.TrapConfig(n_ions=n, detuning=0.0,
                               **{**cli.DEFAULT_TRAP, "axial_freq": axial})
    trap = ionchain.with_detuning_above_top(trap, 30e3)
    J = ionchain.build_coupling_matrix(trap, ionchain.BeamProfile(**cli.DEFAULT_BEAM))
    spec = magnon.diagonalize_magnons(J)
    pairs = np.column_stack([spec.pseudo_momenta, spec.energies])
    fit = analysis.fit_alpha_dispersion(pairs, n)
    monkeypatch.setattr(analysis, "_dispersion_mismatch", _node_count_mismatch)
    expected = analysis.fit_alpha_dispersion(pairs, n)
    assert fit.alpha == expected.alpha
    assert fit.scale == pytest.approx(expected.scale, rel=1e-14)
    assert fit.residual == pytest.approx(expected.residual, rel=1e-14)
    assert fit.note == expected.note


def test_dispersion_fit_input_validation():
    with pytest.raises(ValueError, match="at least 4"):
        analysis.fit_alpha_dispersion(np.zeros((3, 2)), 7)
    with pytest.raises(ValueError, match="pairs"):
        analysis.fit_alpha_dispersion(np.zeros((5, 3)), 7)


# ---------------------------------------------------------------------------
# real-space alpha fit


def test_realspace_fit_on_exact_power_law():
    fit = analysis.fit_alpha_realspace(ionchain.power_law_coupling(8, 1.9, J0))
    assert fit.method == "realspace"
    assert fit.alpha == pytest.approx(1.9, abs=1e-10)
    assert fit.scale == pytest.approx(J0, rel=1e-10)
    assert fit.residual < 1e-12


def test_realspace_fit_excludes_zeros_then_fails_on_nn():
    # NN chain: zero couplings beyond distance 1 are dropped with a warning,
    # leaving a single distance -> no slope to fit
    J = ionchain.nearest_neighbour_coupling(6, J0)
    with pytest.warns(UserWarning, match="excluding"):
        with pytest.raises(FitError, match="distinct distances"):
            analysis.fit_alpha_realspace(J)


def test_realspace_fit_needs_three_ions():
    with pytest.raises(ValueError):
        analysis.fit_alpha_realspace(ionchain.nearest_neighbour_coupling(2, J0))


# ---------------------------------------------------------------------------
# Gaussian arrival fit


def _pulse(t, t0, w, b=0.6, a=-1.0):
    return a + b * np.exp(-((t - t0) ** 2) / (2 * w ** 2))


def test_arrival_fit_recovers_synthetic_pulse():
    t = np.linspace(0.0, 0.02, 401)
    fit = analysis.fit_gaussian_arrival(t, _pulse(t, 0.008, 0.0012), site=4)
    assert fit.site == 4
    assert fit.t0 == pytest.approx(0.008, abs=1e-5)
    assert fit.width == pytest.approx(0.0012, rel=0.05)
    assert fit.amplitude == pytest.approx(0.6, rel=0.05)
    assert fit.goodness < 1e-3


def test_gauss_jacobian_matches_numerical_derivative():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 0.02, 61)
    for _ in range(20):
        params = np.array([rng.uniform(-1.0, 0.0), rng.uniform(0.01, 2.0),
                           rng.uniform(0.0, 0.02), rng.uniform(2e-4, 5e-3)])
        analytic = analysis._gauss_jacobian(t, *params)
        numeric = approx_derivative(lambda p: analysis._gauss(t, *p), params,
                                    method="cs")
        assert analytic.shape == (t.size, 4)
        scale = np.abs(numeric).max(axis=0)           # per column
        np.testing.assert_allclose(analytic / scale, numeric / scale,
                                   rtol=1e-6, atol=1e-6)


CONE_ALPHAS = (1.07, 1.41, 1.75, 2.0)


@pytest.fixture(scope="module")
def cones():
    """<sigma_z> of the N = 201 single-excitation light cones, centre source."""
    times = np.linspace(0.0, 0.04, 801)
    out = {}
    for alpha in CONE_ALPHAS:
        J = ionchain.power_law_coupling(201, alpha, J0)
        out[alpha] = np.vstack([magnon.magnetisation_single(s)
                                for s in magnon.evolve_single_excitation(J, 101, times)])
    return times, out


def _tight_curve_fit(t_fit, v_fit, p0, lower, upper):
    """Bounded curve_fit run to its tightest tolerances: the reference fit."""
    popt, _ = curve_fit(analysis._gauss, t_fit, v_fit, p0=p0, bounds=(lower, upper),
                        jac=analysis._gauss_jacobian, ftol=1e-15, xtol=1e-15,
                        gtol=1e-15, maxfev=100000)
    return popt


@pytest.mark.filterwarnings("ignore:site")
@pytest.mark.parametrize("alpha", CONE_ALPHAS)
def test_arrival_fits_match_tight_curve_fit_reference(alpha, cones):
    """On the N = 201 light cones the batched fits land where scipy's
    bounded curve_fit, run to ftol = xtol = gtol = 1e-15 on the same
    segments, puts them: same sites, t0 and front velocity to 1e-7."""
    times, mags = cones
    mag = mags[alpha]
    fits = analysis.arrival_times(times, mag, 101)
    reference = []
    for dist in range(1, 100):
        try:
            segment = analysis._arrival_segment(times, mag[:, 100 + dist])
        except FitError:
            continue
        reference.append((dist, _tight_curve_fit(*segment)[2]))
    assert len(fits) >= 18
    assert [d for d, _ in fits] == [d for d, _ in reference]
    np.testing.assert_allclose([f.t0 for _, f in fits], [t0 for _, t0 in reference],
                               rtol=1e-7, atol=0.0)
    velocity = analysis.fit_front_velocity([(d, f.t0) for d, f in fits]).velocity
    expected = analysis.fit_front_velocity(reference).velocity
    assert velocity == pytest.approx(expected, rel=1e-7)


@pytest.mark.filterwarnings("ignore:site")
def test_single_site_fit_is_bit_identical_to_batch(cones):
    """fit_gaussian_arrival is the one-site call of the batched solver: every
    site of a light cone gets the same fit alone as in arrival_times."""
    times, mags = cones
    for alpha in (1.41, 2.0):
        mag = mags[alpha]
        for dist, fit in analysis.arrival_times(times, mag, 101):
            alone = analysis.fit_gaussian_arrival(times, mag[:, 100 + dist], site=fit.site)
            assert alone == fit


def test_arrival_fit_with_t0_on_segment_bound_matches_curve_fit():
    """A pulse switched on after its centre: the segment starts at the last
    baseline sample, the best centre lies before it, and t0 is held on the
    lower bound where bounded curve_fit also ends."""
    t = np.linspace(0.0, 0.02, 201)
    v = _pulse(t, 0.0, 0.004)
    v[t < 0.004] = -1.0
    segment = analysis._arrival_segment(t, v)
    reference = _tight_curve_fit(*segment)
    fit = analysis.fit_gaussian_arrival(t, v)
    assert fit.t0 == segment[3][2]                      # the segment's first time
    np.testing.assert_allclose([fit.amplitude, fit.t0, fit.width], reference[1:],
                               rtol=1e-7)


def test_one_sample_spike_fits_with_width_on_its_bound():
    """A three-sample segment puts the initial width (a sixth of the span)
    below its lower bound of half a sample step; the guess is clipped into
    the bounds, so the spike is fitted instead of raising ValueError."""
    t = np.linspace(0.0, 0.01, 21)
    v = np.full(21, -1.0)
    v[10] = 0.5
    fit = analysis.fit_gaussian_arrival(t, v)
    assert fit.t0 == t[10]
    assert fit.width == 0.5 * (t[10] - t[9])
    assert fit.goodness == pytest.approx(0.0, abs=1e-12)


def test_iteration_cap_gives_fit_error_and_skipped_record(monkeypatch):
    """A fit still moving at FIT_MAX_ITERATIONS fails with FitError, and
    arrival_times turns that into a warning and an ArrivalSkipped record."""
    monkeypatch.setattr(analysis, "FIT_MAX_ITERATIONS", 2)
    t = np.linspace(0.0, 0.02, 201)
    with pytest.raises(FitError, match="arrival fit for site 3 did not converge"):
        analysis.fit_gaussian_arrival(t, _pulse(t, 0.008, 0.0012), site=3)
    mag = np.full((201, 4), -1.0)
    mag[:, 1] = _pulse(t, 0.008, 0.0012)
    skipped = []
    with pytest.warns(UserWarning, match="site 2: arrival fit for site 2 did not converge"):
        fits = analysis.arrival_times(t, mag, 1, max_distance=1, skipped=skipped)
    assert fits == []
    assert skipped == [analysis.ArrivalSkipped(
        site=2, distance=1, reason="arrival fit for site 2 did not converge")]


def test_arrival_fit_picks_first_peak_not_largest():
    """A later, larger boundary reflection must not displace the arrival."""
    t = np.linspace(0.0, 0.02, 801)
    v = _pulse(t, 0.006, 0.001, b=0.4) + _pulse(t, 0.015, 0.001, b=0.9, a=0.0)
    fit = analysis.fit_gaussian_arrival(t, v)
    assert fit.t0 == pytest.approx(0.006, abs=2e-4)


def test_arrival_fit_honors_window():
    t = np.linspace(0.0, 0.02, 801)
    v = _pulse(t, 0.006, 0.001, b=0.4) + _pulse(t, 0.015, 0.001, b=0.9, a=0.0)
    fit = analysis.fit_gaussian_arrival(t, v, window=(0.010, 0.020))
    assert fit.t0 == pytest.approx(0.015, abs=2e-4)


def test_arrival_fit_rejects_flat_and_monotone_signals():
    t = np.linspace(0.0, 0.01, 50)
    with pytest.raises(FitError):
        analysis.fit_gaussian_arrival(t, np.full(50, -1.0))
    with pytest.raises(FitError):
        analysis.fit_gaussian_arrival(t, np.linspace(-1.0, 0.0, 50))


def test_arrival_fit_input_validation():
    with pytest.raises(ValueError):
        analysis.fit_gaussian_arrival(np.zeros(10), np.zeros(9))
    with pytest.raises(ValueError):
        analysis.fit_gaussian_arrival(np.linspace(0, 1, 3), np.zeros(3))


# ---------------------------------------------------------------------------
# front velocity


def test_front_velocity_exact_line():
    d = np.array([1.0, 2.0, 3.0, 4.0])
    fit = analysis.fit_front_velocity(np.column_stack([d, d / 500.0 + 0.002]))
    assert fit.velocity == pytest.approx(500.0, rel=1e-9)
    assert fit.intercept == pytest.approx(0.002, abs=1e-12)
    assert fit.velocity_stderr == pytest.approx(0.0, abs=1e-6)
    assert fit.sites_used == [1.0, 2.0, 3.0, 4.0]


def test_front_velocity_reports_scatter():
    rng = np.random.default_rng(3)
    d = np.arange(1.0, 9.0)
    t0 = d / 800.0 + 0.001 + rng.normal(scale=2e-4, size=d.size)
    fit = analysis.fit_front_velocity(np.column_stack([d, t0]))
    assert fit.velocity_stderr > 0.0
    assert fit.velocity == pytest.approx(800.0, rel=0.25)


@settings(deadline=None, max_examples=20)
@given(shift=st.floats(min_value=-0.01, max_value=0.01))
def test_front_velocity_time_translation(shift):
    """Shifting every arrival time moves the intercept, not the velocity."""
    d = np.array([1.0, 2.0, 3.0, 5.0])
    base = np.column_stack([d, d / 900.0 + 0.004])
    a = analysis.fit_front_velocity(base)
    b = analysis.fit_front_velocity(base + np.array([0.0, shift]))
    assert b.velocity == pytest.approx(a.velocity, rel=1e-9)
    assert b.intercept == pytest.approx(a.intercept + shift, abs=1e-9)


def test_front_velocity_error_paths():
    with pytest.raises(ValueError, match="3 arrival"):
        analysis.fit_front_velocity([(1.0, 0.1), (2.0, 0.2)])
    with pytest.raises(FitError, match="degenerate"):
        analysis.fit_front_velocity([(2.0, 0.1), (2.0, 0.2), (2.0, 0.3)])
    with pytest.raises(FitError, match="backwards"):
        analysis.fit_front_velocity([(1.0, 0.3), (2.0, 0.2), (3.0, 0.1)])


# ---------------------------------------------------------------------------
# pipeline


def test_arrival_times_excludes_outermost_site():
    J = ionchain.power_law_coupling(9, 1.4, J0)
    times = np.linspace(0.0, 0.04, 801)
    mag = np.vstack([magnon.magnetisation_single(s)
                     for s in magnon.evolve_single_excitation(J, 5, times)])
    fits = analysis.arrival_times(times, mag, 5)
    distances = [d for d, _ in fits]
    assert max(distances) == 3          # site 8; site 9 is the excluded edge
    sites = [f.site for _, f in fits]
    assert sites == [6, 7, 8]
    # arrivals are ordered outward
    t0s = [f.t0 for _, f in fits]
    assert t0s == sorted(t0s)


def test_arrival_times_skips_failing_sites_with_warning():
    times = np.linspace(0.0, 0.02, 201)
    mag = np.full((201, 5), -1.0)
    mag[:, 1] = _pulse(times, 0.005, 0.001)     # site 2 arrives
    mag[:, 2] = _pulse(times, 0.010, 0.001)     # site 3 arrives
    # site 4 stays flat -> FitError -> skipped
    skipped = []
    with pytest.warns(UserWarning, match="site 4") as record:
        fits = analysis.arrival_times(times, mag, 1, skipped=skipped)
    assert [d for d, _ in fits] == [1, 2]
    assert skipped == [analysis.ArrivalSkipped(
        site=4, distance=3, reason="signal never rises above its baseline")]
    assert [str(w.message) for w in record] == ["site 4: signal never rises above its baseline"]


def test_arrival_times_validates_source():
    mag = np.zeros((10, 5))
    for source in (0, 6):
        with pytest.raises(ValueError, match=f"site {source} outside 1..5"):
            analysis.arrival_times(np.linspace(0, 1, 10), mag, source)
    with pytest.raises(ValueError, match="edge"):
        analysis.arrival_times(np.linspace(0, 1, 10), mag, 4)
