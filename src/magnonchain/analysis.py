"""Fitting layer: power-law exponents, magnon arrival times, front velocities.

Three families of estimators:

* ``fit_alpha_dispersion`` infers the interaction-range exponent alpha by
  matching a measured magnon dispersion against the dispersion of synthetic
  open-chain power-law couplings J_ij = scale / |i-j|^alpha.  This is the
  preferred estimator; the couplings themselves are not a perfect power law,
  so the real-space log-log fit (``fit_alpha_realspace``) is provided for
  comparison only.
* ``fit_gaussian_arrival`` fits a + b exp(-(t-t0)^2 / 2 w^2) to the first
  magnetisation maximum of one site, giving the magnon arrival time t0.
  "First maximum" means the earliest local maximum exceeding the
  pre-arrival baseline by three standard deviations; boundary reflections
  produce later, larger maxima that must not be picked up.
* ``fit_front_velocity`` turns (distance, arrival-time) pairs into a cone
  velocity by ordinary least squares t0 = d / v + intercept.

``arrival_times`` chains the last two into the standard light-cone
pipeline, excluding the outermost site to reduce finite-size effects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit

from .ionchain import CouplingMatrix, _check_site, power_law_coupling
from .magnon import diagonalize_magnons

ALPHA_SEARCH_RANGE = (0.0, 4.0)
ALPHA_BRACKET_TOL = 1e-4


class FitError(RuntimeError):
    """Raised when a fit cannot be performed or does not converge."""


@dataclass(frozen=True)
class AlphaFit:
    """Power-law exponent estimate.

    ``residual`` is the rms mismatch in the fitted space (mode energies,
    rad/s, for the dispersion method; log-couplings for the real-space
    method).  ``note`` flags a search-boundary hit or a flat objective;
    empty for a clean interior minimum.
    """

    alpha: float
    scale: float
    residual: float
    method: str
    note: str = ""

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.residual < 0:
            raise ValueError("residual must be non-negative")
        if self.method not in ("dispersion", "realspace"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class ArrivalFit:
    """Gaussian fit to one site's first magnetisation maximum."""

    site: int
    t0: float
    width: float
    amplitude: float
    goodness: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class ArrivalSkipped:
    """A site left out of the light cone because its arrival fit failed.

    ``reason`` is the :class:`FitError` text, as in the warning.
    """

    site: int
    distance: int
    reason: str


@dataclass(frozen=True)
class FrontFit:
    """Straight-line fit t0 = d / velocity + intercept."""

    velocity: float
    intercept: float
    velocity_stderr: float
    sites_used: list = field(default_factory=list)

    def __post_init__(self):
        if not math.isfinite(self.velocity):
            raise ValueError("velocity must be finite")


# ---------------------------------------------------------------------------
# alpha estimation


def fit_alpha_dispersion(dispersion, n_ions: int) -> AlphaFit:
    """Fit the power-law exponent to a measured dispersion relation.

    Parameters
    ----------
    dispersion:
        Sequence of (k, omega) pairs, k in rad/site and omega in rad/s.
        Points are matched to the synthetic model's modes by nearest
        pseudo-momentum, so a subset of the N modes is acceptable.
    n_ions:
        Chain length of the synthetic open-chain model.

    The exponent is found by golden-section search on [0, 4] (bracket
    tolerance 1e-4); for each candidate alpha the overall coupling scale
    is eliminated in closed form, which also makes the argmin invariant
    under uniform rescaling of the input energies.  A minimum pinned to
    the search boundary or a flat objective is reported through ``note``
    with the best point still returned.
    """
    pairs = np.atleast_2d(np.asarray(dispersion, dtype=float))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("dispersion must be (k, omega) pairs")
    if pairs.shape[0] < 4:
        raise ValueError("need at least 4 dispersion points")
    order = np.argsort(pairs[:, 0])
    k_meas = pairs[order, 0]
    w_meas = pairs[order, 1]

    def objective(alpha):
        return _dispersion_mismatch(alpha, k_meas, w_meas, n_ions)[0]

    note = ""
    lo, hi = ALPHA_SEARCH_RANGE
    coarse = [objective(a) for a in np.linspace(lo, hi, 9)]
    if max(coarse) - min(coarse) <= 1e-12 * max(1.0, max(coarse)):
        note = "flat objective; exponent not constrained by the data"
    alpha = _golden_section(objective, lo, hi, ALPHA_BRACKET_TOL)
    if not note and min(alpha - lo, hi - alpha) < 2.0 * ALPHA_BRACKET_TOL:
        note = (f"minimum at the alpha={alpha:.3f} search boundary; "
                "true exponent may lie outside [0, 4]")
    residual, scale = _dispersion_mismatch(alpha, k_meas, w_meas, n_ions)
    return AlphaFit(alpha=alpha, scale=scale, residual=residual,
                    method="dispersion", note=note)


def _dispersion_mismatch(alpha, k_meas, w_meas, n_ions):
    """(rms residual, best scale) for J_ij = scale/|i-j|^alpha, given data."""
    with warnings.catch_warnings():
        # alpha -> 0 makes the synthetic spectrum degenerate; the node-count
        # relabeling warning is irrelevant to the scan
        warnings.simplefilter("ignore", RuntimeWarning)
        model = diagonalize_magnons(power_law_coupling(n_ions, alpha, 1.0))
    idx = np.abs(model.pseudo_momenta[None, :] - k_meas[:, None]).argmin(axis=1)
    w_model = model.energies[idx]
    denom = float(w_model @ w_model)
    scale = float(w_model @ w_meas) / denom if denom > 0 else 0.0
    resid = w_meas - scale * w_model
    return float(np.sqrt(np.mean(resid ** 2))), scale


def _golden_section(f, a, b, tol):
    """Minimize f on [a, b]; converges to an endpoint if f is monotone."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_alpha_realspace(J: CouplingMatrix) -> AlphaFit:
    """Log-log least squares of |J_ij| against |i - j| over all pairs.

    The physical coupling matrix does not follow a perfect power law, so
    this real-space exponent generally differs from the dispersion-fit
    one; it is kept as the quick-look comparison estimator.  Non-positive
    entries are excluded with a warning.  ``residual`` is the rms misfit
    of log|J|.
    """
    n = J.n_ions
    if n < 3:
        raise ValueError("need at least 3 ions")
    iu, ju = np.triu_indices(n, k=1)
    dist = (ju - iu).astype(float)
    mag = np.abs(J.values[iu, ju])
    keep = mag > 0.0
    if not keep.all():
        warnings.warn(f"excluding {int((~keep).sum())} non-positive couplings "
                      "from the log-log fit", stacklevel=2)
    dist, mag = dist[keep], mag[keep]
    if np.unique(dist).size < 2:
        raise FitError("need couplings at two distinct distances")
    slope, intercept = np.polyfit(np.log(dist), np.log(mag), 1)
    resid = np.log(mag) - (slope * np.log(dist) + intercept)
    return AlphaFit(alpha=float(max(-slope, 0.0)), scale=float(np.exp(intercept)),
                    residual=float(np.sqrt(np.mean(resid ** 2))),
                    method="realspace")


# ---------------------------------------------------------------------------
# arrival-time and front-velocity fits


def fit_gaussian_arrival(times, signal, window=None, site: int = 0) -> ArrivalFit:
    """Fit a Gaussian to the first magnetisation maximum of one site.

    Parameters
    ----------
    times, signal:
        Sampled <sigma_z(t)> trace for a single site.
    window:
        Optional (t_min, t_max) restriction; the whole trace by default.
    site:
        Site label carried through to the result.

    The model a + b exp(-(t - t0)^2 / 2 w^2) is fitted to the pulse
    segment between the local minima flanking the first qualifying
    maximum, so neither the initial transient nor later interference
    revivals bias the arrival time.  Initial guesses: t0 at the detected
    peak, w a sixth of the segment, b the peak height; the amplitude is
    constrained non-negative and the center to the segment, which keeps
    the optimizer from inverting the pulse on weak precursor bumps.  The
    optimizer is given the analytic Jacobian (:func:`_gauss_jacobian`),
    so no iteration spends model calls on finite differences.

    Raises
    ------
    FitError
        If no interior maximum rises above the detection threshold, or
        the nonlinear fit does not converge.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(signal, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and signal must be matching 1-D arrays")
    if window is not None:
        sel = (t >= window[0]) & (t <= window[1])
        t, v = t[sel], v[sel]
    if t.size < 5:
        raise ValueError("need at least 5 samples in the window")

    peak = _first_maximum(v)
    start = _prev_minimum(v, peak)
    stop = _next_minimum(v, peak)
    t_fit, v_fit = t[start: stop + 1], v[start: stop + 1]

    baseline = float(v_fit.min())
    span = float(t_fit[-1] - t_fit[0])
    p0 = (baseline, float(v[peak] - baseline), float(t[peak]), span / 6.0)
    lower = (-np.inf, 0.0, t_fit[0], 0.5 * (t_fit[1] - t_fit[0]))
    upper = (np.inf, np.inf, t_fit[-1], 10.0 * span)
    try:
        popt, _ = curve_fit(_gauss, t_fit, v_fit, p0=p0, bounds=(lower, upper),
                            jac=_gauss_jacobian, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"arrival fit for site {site} did not converge") from exc
    a, b, t0, w = popt
    resid = v_fit - _gauss(t_fit, *popt)
    return ArrivalFit(site=site, t0=float(t0), width=float(abs(w)),
                      amplitude=float(b),
                      goodness=float(np.sqrt(np.mean(resid ** 2))))


def _gauss(t, a, b, t0, w):
    """Arrival model a + b exp(-(t - t0)^2 / 2 w^2)."""
    return a + b * np.exp(-((t - t0) ** 2) / (2.0 * w ** 2))


def _gauss_jacobian(t, a, b, t0, w):
    """Columns d/da, d/db, d/dt0, d/dw of :func:`_gauss`, shape (len(t), 4).

    With x = t - t0 and e = exp(-x^2 / 2 w^2): 1, e, b e x / w^2, b e x^2 / w^3.
    """
    x = t - t0
    e = np.exp(-(x ** 2) / (2.0 * w ** 2))
    be_x = b * e * x / w ** 2
    return np.column_stack((np.ones_like(t), e, be_x, be_x * x / w))


def _first_maximum(v: np.ndarray) -> int:
    """Index of the earliest interior local maximum above the noise floor.

    Threshold: the pre-arrival baseline (the trace start) plus three
    standard deviations of the samples preceding the first rise, with a
    floor of 5% of the total excursion.  The floor keeps a noiseless
    lead-in from declaring every ripple an arrival; estimating sigma only
    before the first crossing keeps the arrival itself from inflating it,
    which matters for sites right next to the source.
    """
    baseline = float(v[0])
    excursion = float(v.max() - baseline)
    if excursion <= 0.0:
        raise FitError("signal never rises above its baseline")
    floor = baseline + 0.05 * excursion
    rise = int(np.argmax(v > floor))            # first crossing of the floor
    sigma = float(np.std(v[:rise])) if rise >= 2 else 0.0
    threshold = baseline + max(3.0 * sigma, 0.05 * excursion)
    interior = np.flatnonzero(
        (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] > threshold)) + 1
    if interior.size == 0:
        raise FitError("no interior maximum above the detection threshold")
    return int(interior[0])


def _next_minimum(v: np.ndarray, start: int) -> int:
    """Index of the first local minimum after ``start`` (or the last sample)."""
    for i in range(start + 1, v.size - 1):
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
            return i
    return v.size - 1


def _prev_minimum(v: np.ndarray, start: int) -> int:
    """Index of the closest local minimum before ``start`` (or the first sample)."""
    for i in range(start - 1, 0, -1):
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
            return i
    return 0


def fit_front_velocity(arrivals) -> FrontFit:
    """Ordinary least squares of arrival time against distance.

    ``arrivals`` is a sequence of (distance, t0) pairs; the model is
    t0 = d / velocity + intercept.  The velocity standard error follows
    from the slope standard error by error propagation.
    """
    pairs = np.atleast_2d(np.asarray(arrivals, dtype=float))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("arrivals must be (distance, t0) pairs")
    if pairs.shape[0] < 3:
        raise ValueError("need at least 3 arrival points")
    d, t0 = pairs[:, 0], pairs[:, 1]
    if np.ptp(d) == 0.0:
        raise FitError("degenerate distances: all arrivals at the same site")
    (slope, intercept), cov = np.polyfit(d, t0, 1, cov=True)
    if slope <= 0.0:
        raise FitError(f"non-positive slope {slope:.3g}: front moves backwards")
    slope_err = float(np.sqrt(cov[0, 0]))
    return FrontFit(velocity=float(1.0 / slope), intercept=float(intercept),
                    velocity_stderr=float(slope_err / slope ** 2),
                    sites_used=[float(x) for x in d])


def arrival_times(times, magnetisation, source: int, max_distance=None,
                  skipped: list | None = None):
    """Per-distance Gaussian arrival fits for a single-source quench.

    Parameters
    ----------
    times:
        Sample times, shape (T,).
    magnetisation:
        <sigma_z> trace per site, shape (T, N).
    source:
        1-based site where the excitation started.
    max_distance:
        Largest distance to fit; defaults to one short of the chain edge
        (the outermost site is excluded to reduce finite-size effects).
    skipped:
        Optional list; an :class:`ArrivalSkipped` is appended to it for
        every site whose fit fails.

    Returns a list of (distance, ArrivalFit) pairs following the front to
    the right of the source.  Sites whose arrival fit fails are skipped
    with a warning.
    """
    mag = np.asarray(magnetisation, dtype=float)
    n = mag.shape[1]
    _check_site(n, source)
    edge = (n - 1) - source          # distance to the second-to-last site
    if max_distance is None:
        max_distance = edge
    max_distance = min(max_distance, edge)
    if max_distance < 1:
        raise ValueError("no sites between the source and the excluded edge")
    fits = []
    for dist in range(1, max_distance + 1):
        s = source + dist
        try:
            fits.append((dist, fit_gaussian_arrival(times, mag[:, s - 1], site=s)))
        except FitError as exc:
            warnings.warn(f"site {s}: {exc}", stacklevel=2)
            if skipped is not None:
                skipped.append(ArrivalSkipped(site=s, distance=dist, reason=str(exc)))
    return fits
