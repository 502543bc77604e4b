"""Exponent fits, Gaussian arrival fits, and front-velocity regression."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import curve_fit
from scipy.optimize._numdiff import approx_derivative

from conftest import arrival_segment, gauss_jacobian, polished_arrival
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


def test_alpha_scan_spectrum_from_the_mirror_blocks():
    """The scan's energies, from the two half-size blocks of the Toeplitz
    model, are the whole matrix's eigenvalues in descending order, to 1e-14
    of the largest, for odd and even N and down to uniform couplings."""
    for n in range(4, 202):
        for alpha in (0.0, 1e-6, 1.5, 4.0):
            full = np.linalg.eigvalsh(ionchain._power_law_values(n, alpha, 1.0))[::-1]
            split = analysis._power_law_energies(n, alpha)
            np.testing.assert_allclose(split, full, rtol=0,
                                       atol=1e-14 * np.abs(full).max(), err_msg=f"{n} {alpha}")


def test_dispersion_fit_of_energies_near_the_largest_double(tmp_path, capsys):
    """Energies whose squares overflow are fitted in units of a power of two:
    the exponent is that of the same chain at 30 Hz, the residual finite,
    and no numpy warning is raised, through the library and the CLI."""
    fits = []
    for jbar in ("30", "1e300"):
        argv = ["dispersion", "-o", str(tmp_path / jbar), "--n", "7",
                "--source", "power-law", "--jbar", jbar]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 0
        capsys.readouterr()
        lines = (tmp_path / jbar / "alpha_fit.ndjson").read_text().splitlines()
        fits.append(next(r for r in map(json.loads, lines) if r.get("fit") == "AlphaFit"))
    assert fits[1]["alpha"] == pytest.approx(fits[0]["alpha"], abs=analysis.ALPHA_BRACKET_TOL)
    assert math.isfinite(fits[1]["residual"]) and math.isfinite(fits[1]["scale"])
    pairs = _dispersion_pairs(9, 1.5)
    base = analysis.fit_alpha_dispersion(pairs, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        huge = analysis.fit_alpha_dispersion(pairs * np.array([1.0, 2.0 ** 1000]), 9)
    assert huge.alpha == base.alpha
    assert (huge.scale, huge.residual) == (base.scale * 2.0 ** 1000, base.residual * 2.0 ** 1000)


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
    defaults = {s.name: s.default for s in cli.SETTINGS}
    trap = ionchain.TrapConfig(**{**cli._fields(ionchain.TrapConfig, defaults), "n_ions": n,
                                  "detuning": 0.0, "axial_freq": axial})
    modes = ionchain.transverse_mode_spectrum(trap)
    J = ionchain.build_coupling_matrix(
        ionchain.with_detuning_above_top(trap, 30e3, modes),
        ionchain.BeamProfile(**cli._fields(ionchain.BeamProfile, defaults)), modes)
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


def _fit_one(times, signal, site=2):
    """The arrival fit of one trace alone: ``arrival_times`` on a chain
    whose one fitted site is ``site``; raises FitError with its reason if
    it is skipped."""
    mag = np.zeros((len(signal), site + 1))
    mag[:, site - 1] = signal
    fits, skipped = analysis.arrival_times(times, mag, site - 1)
    if skipped:
        raise FitError(skipped[0].reason)
    return fits[0][1]


def test_arrival_fit_recovers_synthetic_pulse():
    t = np.linspace(0.0, 0.02, 401)
    fit = _fit_one(t, _pulse(t, 0.008, 0.0012), site=4)
    assert fit.site == 4
    assert fit.t0 == pytest.approx(0.008, abs=1e-5)
    assert fit.width == pytest.approx(0.0012, rel=0.05)
    assert fit.amplitude == pytest.approx(0.6, rel=0.05)
    assert fit.goodness < 1e-3


def _gauss(t, a, b, t0, w):
    """The arrival model a + b exp(-(t - t0)^2 / 2 w^2), as the oracle of the fits."""
    return a + b * np.exp(-((t - t0) ** 2) / (2.0 * w ** 2))


def test_gauss_jacobian_matches_numerical_derivative():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 0.02, 61)
    for _ in range(20):
        params = np.array([rng.uniform(-1.0, 0.0), rng.uniform(0.01, 2.0),
                           rng.uniform(0.0, 0.02), rng.uniform(2e-4, 5e-3)])
        analytic = gauss_jacobian(t, *params)
        numeric = approx_derivative(lambda p: _gauss(t, *p), params,
                                    method="cs")
        assert analytic.shape == (t.size, 4)
        scale = np.abs(numeric).max(axis=0)           # per column
        np.testing.assert_allclose(analytic / scale, numeric / scale,
                                   rtol=1e-6, atol=1e-6)


def test_normal_equations_match_the_jacobian_and_its_derivative():
    """From the moments of a noisy pulse's masked blocks, J^T J and J^T r
    are those of the model's Jacobian, and the Hessian is the derivative of
    J^T r, taken by complex step: J^T J + sum r grad^2 f."""
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 0.02, 150)
    for _ in range(10):
        params = np.array([rng.uniform(-1.0, 0.0), rng.uniform(0.01, 2.0),
                           rng.uniform(0.005, 0.015), rng.uniform(1e-3, 5e-3)])
        y = _gauss(t, *(params * rng.uniform(0.9, 1.1, size=4))) + rng.normal(0, 1e-3, t.size)
        padded = np.zeros((2, analysis._BLOCK))
        padded.flat[:t.size] = t
        data = np.zeros_like(padded)
        data.flat[:t.size] = y
        mask = (np.arange(padded.size) < t.size).astype(float).reshape(padded.shape)
        sums = analysis._moments(params[None, :], padded, data, mask, np.array([2]),
                                 np.empty((16,) + padded.shape))
        gram, grad, hess = (m[0] for m in analysis._normal_equations(
            params[None, :], sums, np.array([float(t.size)])))

        def gradient(p):
            return gauss_jacobian(t, *p).T @ (_gauss(t, *p) - y)

        jac = gauss_jacobian(t, *params)
        scale = np.sqrt(np.outer(np.diag(jac.T @ jac), np.diag(jac.T @ jac)))
        np.testing.assert_allclose(gram / scale, jac.T @ jac / scale, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, gradient(params), rtol=1e-9, atol=1e-12)
        second = approx_derivative(gradient, params, method="cs")
        np.testing.assert_allclose(hess / scale, second / scale, rtol=0, atol=1e-9)


CONE_ALPHAS = (1.07, 1.41, 1.75, 2.0)


@pytest.fixture(scope="module")
def cones():
    """<sigma_z> of the N = 201 single-excitation light cones, centre source."""
    times = np.linspace(0.0, 0.04, 801)
    out = {}
    for alpha in CONE_ALPHAS:
        J = ionchain.power_law_coupling(201, alpha, J0)
        out[alpha] = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                                for s in magnon.evolve_single_excitation(J, 101, times)])
    return times, out


def _tight_curve_fit(t_fit, v_fit, p0, lower, upper):
    """Bounded curve_fit run to its tightest tolerances: the reference fit."""
    popt, _ = curve_fit(_gauss, t_fit, v_fit, p0=p0, bounds=(lower, upper),
                        jac=gauss_jacobian, ftol=1e-15, xtol=1e-15,
                        gtol=1e-15, maxfev=100000)
    return popt


@pytest.mark.parametrize("alpha", CONE_ALPHAS)
def test_arrival_fits_match_tight_curve_fit_reference(alpha, cones):
    """On the N = 201 light cones the batched fits land where scipy's
    bounded curve_fit, run to ftol = xtol = gtol = 1e-15 on the same
    segments, puts them: same sites, t0 and front velocity to 1e-7."""
    times, mags = cones
    mag = mags[alpha]
    fits, _ = analysis.arrival_times(times, mag, 101)
    reference = []
    for dist in range(1, 100):
        try:
            segment = arrival_segment(times, mag[:, 100 + dist])
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


def _scanned_minima(v, peak):
    """The closest local minima before and after ``peak`` by a scalar scan
    outward from it: the reference for the one-pass lookup."""
    start = next((i for i in range(peak - 1, 0, -1)
                  if v[i] <= v[i - 1] and v[i] <= v[i + 1]), 0)
    stop = next((i for i in range(peak + 1, v.size - 1)
                 if v[i] <= v[i - 1] and v[i] <= v[i + 1]), v.size - 1)
    return start, stop


def _scanned_segment(v):
    """(start, stop, peak, baseline, height) of one trace's first maximum,
    found by scalar scans over that trace alone, or the FitError of a trace
    without one: the reference for the one pass of ``_segments``."""
    baseline = float(v[0])
    excursion = float(v.max() - baseline)
    if excursion <= 0.0:
        return FitError("signal never rises above its baseline")
    floor = baseline + 0.05 * excursion
    rise = next(i for i in range(v.size) if v[i] > floor)
    sigma = float(np.std(v[:rise])) if rise >= 2 else 0.0
    threshold = baseline + max(3.0 * sigma, 0.05 * excursion)
    peak = next((i for i in range(1, v.size - 1)
                 if v[i] >= v[i - 1] and v[i] >= v[i + 1] and v[i] > threshold), None)
    if peak is None:
        return FitError("no interior maximum above the detection threshold")
    start, stop = _scanned_minima(v, peak)
    baseline = float(v[start: stop + 1].min())
    return start, stop, peak, baseline, float(v[peak] - baseline)


def _same_segment(found, expected):
    """Whether one row of ``_segments``, (start, stop, peak, baseline,
    height, reason), is the scanned segment or FitError, bit for bit."""
    *segment, reason = found
    if isinstance(expected, FitError):
        return reason == str(expected)
    return (reason == "" and np.array(segment, dtype=float).tobytes()
            == np.array(expected, dtype=float).tobytes())


def test_flanking_minima_match_the_scalar_scan(cones):
    """One pass over the traces finds, bit for bit, the segments that scalar
    scans of each trace alone find: every trace of the four N = 201 light
    cones, and random, rounded (so with ties), flat and monotone traces.
    The minima flanking every interior sample of those traces, taken as
    the peak, are the closest ones the scans find too."""
    times, mags = cones
    fitted = 0
    for mag in mags.values():
        traces = np.ascontiguousarray(mag.T)
        for found, v in zip(zip(*analysis._segments(traces)), mag.T):
            assert _same_segment(found, _scanned_segment(v))
            fitted += not found[-1]
    assert fitted >= 4 * 99
    rng = np.random.default_rng(5)
    traces = [rng.normal(size=size) for size in (3, 4, 5, 17, 200)]
    traces += [np.round(rng.normal(size=60), 0), np.zeros(9), np.arange(9.0), -np.arange(9.0)]
    for v in traces:
        found, = zip(*analysis._segments(v[None, :]))
        assert _same_segment(found, _scanned_segment(v))
        peaks = np.arange(1, v.size - 1)
        start, stop = analysis._flanking_minima(np.tile(v, (peaks.size, 1)), peaks)
        assert list(zip(start, stop)) == [_scanned_minima(v, peak) for peak in peaks]
    tied = np.tile(np.round(rng.normal(size=60), 0), (40, 1))
    tied[:, 0] = rng.integers(-2, 3, size=40)
    for found, v in zip(zip(*analysis._segments(tied)), tied):
        assert _same_segment(found, _scanned_segment(v))


def test_segment_height_is_its_excursion(cones):
    """A segment rises to its peak and falls after it, so the peak is its
    maximum and ``height``, the peak above ``baseline``, is its max - min,
    bit for bit: the scale of a and b in the fit's step test.  On every
    trace of the four N = 201 light cones, and on random and rounded (so
    tied) traces."""
    times, mags = cones
    rng = np.random.default_rng(37)
    batches = [np.ascontiguousarray(mag.T) for mag in mags.values()]
    batches += [rng.normal(size=(500, 60)), np.round(rng.normal(size=(500, 60)), 0),
                np.cumsum(rng.normal(size=(500, 200)), axis=1)]
    checked = 0
    for traces in batches:
        for v, start, stop, peak, baseline, height, reason in zip(traces,
                                                                   *analysis._segments(traces)):
            if reason:
                continue
            segment = v[start: stop + 1]
            assert v[peak] == segment.max() and baseline == segment.min()
            assert height == segment.max() - segment.min()
            checked += 1
    assert checked > 1500


def test_single_site_fit_is_bit_identical_to_batch(cones):
    """The batched solver gives every site of a light cone the same fit
    alone as in arrival_times."""
    times, mags = cones
    for alpha in (1.41, 2.0):
        mag = mags[alpha]
        for dist, fit in analysis.arrival_times(times, mag, 101)[0]:
            alone = _fit_one(times, mag[:, 100 + dist], site=fit.site)
            assert alone == fit


ARRIVAL_FITS = {1.07: 99, 1.41: 81, 1.75: 23, 2.0: 18}


def _off_bounds(fit, segment):
    """Whether an ArrivalFit's amplitude, t0 and width all lie strictly
    inside the bounds of its segment."""
    lower, upper = segment[3], segment[4]
    return all(lo < x < hi for x, lo, hi in
               zip((fit.amplitude, fit.t0, fit.width), lower[1:], upper[1:]))


@pytest.mark.parametrize("alpha", CONE_ALPHAS)
def test_arrival_fits_land_on_the_polished_minimum(alpha, cones):
    """Each arrival fit of the N = 201 light cones that is off its bounds
    lies where Newton's method, polished in extended precision on the same
    segment, puts the least-squares minimum: t0 within 1e-9 relative and
    the width within 1e-8.  The fitted sites are those of the benchmark."""
    times, mags = cones
    mag = mags[alpha]
    fits, _ = analysis.arrival_times(times, mag, 101)
    assert len(fits) == ARRIVAL_FITS[alpha]
    polished = 0
    for dist, fit in fits:
        segment = arrival_segment(times, mag[:, 100 + dist])
        if not _off_bounds(fit, segment):
            continue
        a, b, t0, w = polished_arrival(*segment[:2], fit.t0, fit.width)
        assert fit.t0 == pytest.approx(t0, rel=1e-9, abs=0.0), fit.site
        assert fit.width == pytest.approx(w, rel=1e-8, abs=0.0), fit.site
        polished += 1
    assert polished >= ARRIVAL_FITS[alpha] - 11


@pytest.mark.parametrize("alpha", [1.07, 1.41])
def test_arrival_fits_do_not_follow_roundoff(alpha, cones):
    """Moving every sz of a light cone by one ulp, up or down at random,
    moves no fitted t0 by more than 1e-9 relative: the fits stop at the
    minimum, not where roundoff in the residuals steers them."""
    times, mags = cones
    mag = mags[alpha]
    rng = np.random.default_rng(35)
    nudged = np.nextafter(mag, np.where(rng.random(mag.shape) < 0.5, -np.inf, np.inf))
    fits, _ = analysis.arrival_times(times, mag, 101)
    moved, _ = analysis.arrival_times(times, nudged, 101)
    assert [d for d, _ in moved] == [d for d, _ in fits]
    np.testing.assert_allclose([f.t0 for _, f in moved], [f.t0 for _, f in fits],
                               rtol=1e-9, atol=0.0)


def test_arrival_fit_with_t0_on_segment_bound_matches_curve_fit():
    """A pulse switched on after its centre: the segment starts at the last
    baseline sample, the best centre lies before it, and t0 is held on the
    lower bound where bounded curve_fit also ends."""
    t = np.linspace(0.0, 0.02, 201)
    v = _pulse(t, 0.0, 0.004)
    v[t < 0.004] = -1.0
    segment = arrival_segment(t, v)
    reference = _tight_curve_fit(*segment)
    fit = _fit_one(t, v)
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
    fit = _fit_one(t, v)
    assert fit.t0 == t[10]
    assert fit.width == 0.5 * (t[10] - t[9])
    assert fit.goodness == pytest.approx(0.0, abs=1e-12)


def test_iteration_cap_gives_fit_error_and_skipped_record(monkeypatch):
    """A fit still moving at FIT_MAX_ITERATIONS is skipped: arrival_times
    returns it as an ArrivalSkipped record with the whole reason, even when
    every other reason is empty, and warns nothing."""
    monkeypatch.setattr(analysis, "FIT_MAX_ITERATIONS", 2)
    t = np.linspace(0.0, 0.02, 201)
    with pytest.raises(FitError, match="arrival fit for site 3 did not converge"):
        _fit_one(t, _pulse(t, 0.008, 0.0012), site=3)
    mag = np.full((201, 3), -1.0)
    mag[:, 1] = _pulse(t, 0.008, 0.0012)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits, skipped = analysis.arrival_times(t, mag, 1)
    assert fits == []
    assert skipped == [analysis.ArrivalSkipped(
        site=2, distance=1, reason="arrival fit for site 2 did not converge")]


def test_arrival_fit_picks_first_peak_not_largest():
    """A later, larger boundary reflection must not displace the arrival."""
    t = np.linspace(0.0, 0.02, 801)
    v = _pulse(t, 0.006, 0.001, b=0.4) + _pulse(t, 0.015, 0.001, b=0.9, a=0.0)
    fit = _fit_one(t, v)
    assert fit.t0 == pytest.approx(0.006, abs=2e-4)


def test_arrival_fit_honors_window():
    """A trace cut to a window is fitted on the pulse inside it."""
    t = np.linspace(0.0, 0.02, 801)
    v = _pulse(t, 0.006, 0.001, b=0.4) + _pulse(t, 0.015, 0.001, b=0.9, a=0.0)
    window = t >= 0.010
    fit = _fit_one(t[window], v[window])
    assert fit.t0 == pytest.approx(0.015, abs=2e-4)


def test_arrival_fit_rejects_flat_and_monotone_signals():
    t = np.linspace(0.0, 0.01, 50)
    with pytest.raises(FitError):
        _fit_one(t, np.full(50, -1.0))
    with pytest.raises(FitError):
        _fit_one(t, np.linspace(-1.0, 0.0, 50))


def test_arrival_fit_input_validation():
    """arrival_times checks the shared time axis once, against the rows of
    the magnetisation, before any trace is cut into a segment."""
    for times, mag in ((np.zeros(10), np.zeros((9, 3))), (np.zeros((9, 1)), np.zeros((9, 3))),
                       (np.zeros(9), np.zeros((9, 3, 1)))):
        with pytest.raises(ValueError, match="matching"):
            analysis.arrival_times(times, mag, 1)
    with pytest.raises(ValueError, match=f"at least {analysis.MIN_ARRIVAL_SAMPLES} samples"):
        analysis.arrival_times(np.linspace(0, 1, 4), np.zeros((4, 3)), 1)


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
    mag = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                     for s in magnon.evolve_single_excitation(J, 5, times)])
    fits, skipped = analysis.arrival_times(times, mag, 5)
    distances = [d for d, _ in fits]
    assert max(distances) == 3          # site 8; site 9 is the excluded edge
    sites = [f.site for _, f in fits]
    assert sites == [6, 7, 8] and skipped == []
    # arrivals are ordered outward
    t0s = [f.t0 for _, f in fits]
    assert t0s == sorted(t0s)


def test_arrival_times_skips_failing_sites_with_warning():
    """A site that fails is returned as skipped, not warned about."""
    times = np.linspace(0.0, 0.02, 201)
    mag = np.full((201, 5), -1.0)
    mag[:, 1] = _pulse(times, 0.005, 0.001)     # site 2 arrives
    mag[:, 2] = _pulse(times, 0.010, 0.001)     # site 3 arrives
    # site 4 stays flat -> skipped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits, skipped = analysis.arrival_times(times, mag, 1)
    assert [d for d, _ in fits] == [1, 2]
    assert skipped == [analysis.ArrivalSkipped(
        site=4, distance=3, reason="signal never rises above its baseline")]


def test_arrival_times_returns_skipped_sites_in_distance_order(monkeypatch):
    """Sites that fail, for any reason, come back in distance order, each
    with its whole reason, and nothing is warned: between fitted sites, and
    when an iteration cap of 1 stops every fit, mixed with sites that have
    no maximum or no rise at all."""
    times = np.linspace(0.0, 0.02, 201)
    mag = np.full((201, 9), -1.0)
    mag[:, 2] = _pulse(times, 0.008, 0.0012)                  # site 3
    mag[:, 3] = np.linspace(-1.0, 0.0, 201)                   # site 4: no maximum
    mag[100, 4] = 0.5                                         # site 5: a spike
    mag[:, 6] = _pulse(times, 0.012, 0.0012)                  # site 7
    no_maximum = analysis.ArrivalSkipped(4, 2, "no interior maximum above the detection "
                                               "threshold")
    flat = [analysis.ArrivalSkipped(site, site - 2, "signal never rises above its baseline")
            for site in (6, 8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits, skipped = analysis.arrival_times(times, mag, 2)
        assert [f.site for _, f in fits] == [3, 5, 7]
        assert skipped == [no_maximum, flat[0], flat[1]]
        monkeypatch.setattr(analysis, "FIT_MAX_ITERATIONS", 1)
        fits, skipped = analysis.arrival_times(times, mag, 2)
    capped = [analysis.ArrivalSkipped(site, site - 2, f"arrival fit for site {site} did not "
                                                      "converge") for site in (3, 5, 7)]
    assert fits == []
    assert skipped == [capped[0], no_maximum, capped[1], flat[0], capped[2], flat[1]]


def test_arrival_times_validates_source():
    mag = np.zeros((10, 5))
    for source in (0, 6):
        with pytest.raises(ValueError, match=f"site {source} outside 1..5"):
            analysis.arrival_times(np.linspace(0, 1, 10), mag, source)
    with pytest.raises(ValueError, match="edge"):
        analysis.arrival_times(np.linspace(0, 1, 10), mag, 4)
