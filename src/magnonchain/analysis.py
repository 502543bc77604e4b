"""Fitting layer: power-law exponents, magnon arrival times, front velocities.

Three families of estimators:

* ``fit_alpha_dispersion`` infers the interaction-range exponent alpha by
  matching a measured magnon dispersion against the dispersion of synthetic
  open-chain power-law couplings J_ij = scale / |i-j|^alpha.  The scan
  needs only the model's eigenvalues: a power-law mode's node count equals
  its descending-energy rank, so the labels k_n = n pi / (N+1) follow from
  the sorted energies, which the model's two half-size mirror blocks
  give.  This is the preferred estimator; the couplings themselves are
  not a perfect power law, so the real-space log-log fit
  (``fit_alpha_realspace``) is provided for comparison only.
* ``arrival_times`` fits a + b exp(-(t-t0)^2 / 2 w^2) to the first
  magnetisation maximum of each site right of a single-excitation source,
  giving the magnon arrival times t0; the outermost site is excluded to
  reduce finite-size effects.  "First maximum" means the earliest local
  maximum exceeding the pre-arrival baseline by three standard
  deviations; boundary reflections produce later, larger maxima that must
  not be picked up.  Every site's pulse segment is detected first
  (``_arrival_segment``), then all segments are fitted in one batched,
  bounded Levenberg-Marquardt solve (``_fit_pulses``), which stops a site
  once no parameter steps by more than ``FIT_STEP_RTOL`` relative.
* ``fit_front_velocity`` turns (distance, arrival-time) pairs into a cone
  velocity by ordinary least squares t0 = d / v + intercept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ionchain import CouplingMatrix, _check_site, _power_law_values
from .magnon import _mirror_blocks

ALPHA_SEARCH_RANGE = (0.0, 4.0)
ALPHA_BRACKET_TOL = 1e-4

#: An arrival fit has converged once no parameter's step exceeds this
#: fraction of the parameter (or of its scale, when that is larger).
FIT_STEP_RTOL = 1e-10
#: Levenberg-Marquardt iterations after which an arrival fit has failed.
FIT_MAX_ITERATIONS = 500
#: Fewest samples of a trace an arrival fit accepts.
MIN_ARRIVAL_SAMPLES = 5
_INITIAL_DAMPING = 1e-3
_DAMPING_FLOOR = 1e-12
_BLOCK = 128


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
    under uniform rescaling of the input energies.  So the energies are
    fitted in units of the power of two 2^e at or below their largest
    magnitude, an exact rescaling that keeps the squares of energies near
    the largest double finite, and ``scale`` and ``residual`` are scaled
    back.  A minimum pinned to the search boundary or a flat objective is
    reported through ``note`` with the best point still returned; the
    objective counts as flat when every value the search evaluated lies
    within 1e-12 of the largest (or of 1 rad/s, if that is more).
    """
    pairs = np.atleast_2d(np.asarray(dispersion, dtype=float))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("dispersion must be (k, omega) pairs")
    if pairs.shape[0] < 4:
        raise ValueError("need at least 4 dispersion points")
    order = np.argsort(pairs[:, 0])
    k_meas = pairs[order, 0]
    unit = math.ldexp(1.0, math.frexp(float(np.abs(pairs[:, 1]).max()))[1] - 1)
    w_meas = pairs[order, 1] / unit

    seen = []                                       # every objective value the search takes

    def objective(alpha):
        seen.append(_dispersion_mismatch(alpha, k_meas, w_meas, n_ions)[0])
        return seen[-1]

    note = ""
    lo, hi = ALPHA_SEARCH_RANGE
    alpha = _golden_section(objective, lo, hi, ALPHA_BRACKET_TOL)
    # flat within 1e-12 of max(1 rad/s, the largest mismatch), in fitted units
    if max(seen) - min(seen) <= 1e-12 * max(1.0 / unit, max(seen)):
        note = "flat objective; exponent not constrained by the data"
    elif min(alpha - lo, hi - alpha) < 2.0 * ALPHA_BRACKET_TOL:
        note = (f"minimum at the alpha={alpha:.3f} search boundary; "
                "true exponent may lie outside [0, 4]")
    residual, scale = _dispersion_mismatch(alpha, k_meas, w_meas, n_ions)
    return AlphaFit(alpha=alpha, scale=scale * unit, residual=residual * unit,
                    method="dispersion", note=note)


def _dispersion_mismatch(alpha, k_meas, w_meas, n_ions):
    """(rms residual, best scale) for J_ij = scale/|i-j|^alpha, given data.

    Only the model's energies are needed: for a power-law chain the mode
    with the n-th highest energy has n - 1 nodes, so its pseudo-momentum
    is n pi / (N + 1) without looking at the mode functions.  They come
    from the model's two half-size mirror blocks (:func:`_power_law_energies`).
    ``w_meas`` is in the units :func:`fit_alpha_dispersion` fits in, so that
    its squares stay finite.
    """
    energies = _power_law_energies(n_ions, alpha)
    k_model = np.arange(1, n_ions + 1) * np.pi / (n_ions + 1)
    idx = np.abs(k_model[None, :] - k_meas[:, None]).argmin(axis=1)
    w_model = energies[idx]
    denom = float(w_model @ w_model)
    scale = float(w_model @ w_meas) / denom if denom > 0 else 0.0
    resid = w_meas - scale * w_model
    return float(np.sqrt(np.mean(resid ** 2))), scale


def _power_law_energies(n_ions, alpha):
    """Descending eigenvalues of J_ij = |i-j|^-alpha.  The matrix is Toeplitz,
    so reflection symmetric by construction: they are the eigenvalues of its
    two half-size mirror blocks (:func:`magnon._mirror_blocks`), merged."""
    blocks = _mirror_blocks(_power_law_values(n_ions, alpha, 1.0))
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[::-1]


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


def _arrival_segment(t, v):
    """(t_fit, v_fit, p0, lower, upper) of the first maximum of one trace.

    The segment runs between the local minima flanking the first
    qualifying maximum, so neither the initial transient nor later
    interference revivals bias the arrival time.  Initial guesses p0, to
    be clipped into the bounds: t0 at the detected peak, w a sixth of the
    segment (at least half a sample step), b the peak height; the
    amplitude is constrained non-negative and the center to the segment,
    which keeps the optimizer from inverting the pulse on weak precursor
    bumps.

    Raises
    ------
    FitError
        If no interior maximum rises above the detection threshold.
    """
    peak = _first_maximum(v)
    start, stop = _flanking_minima(v, peak)
    t_fit, v_fit = t[start: stop + 1], v[start: stop + 1]

    baseline = float(v_fit.min())
    span = float(t_fit[-1] - t_fit[0])
    p0 = (baseline, float(v[peak] - baseline), float(t[peak]), span / 6.0)
    lower = (-np.inf, 0.0, t_fit[0], 0.5 * (t_fit[1] - t_fit[0]))
    upper = (np.inf, np.inf, t_fit[-1], 10.0 * span)
    return t_fit, v_fit, p0, lower, upper


def _fit_pulses(sites, segments) -> list:
    """Fit the arrival model a + b exp(-(t - t0)^2 / 2 w^2) to every segment
    at once; an ArrivalFit or FitError each.

    Each segment is padded to whole blocks of ``_BLOCK`` samples, masked,
    and the blocks of all segments are stacked.  One Levenberg-Marquardt
    iteration advances every unconverged site: the normal equations come
    from the augmented Jacobian [J | r] (:func:`_normal_equations`), the
    damping is Marquardt scaled (lambda times the diagonal of J^T J) and
    updated per site by Nielsen's rule.  Bounds are kept by an active
    set: a parameter on a bound whose gradient points outward is held,
    the other steps are clipped to the bounds.  A site leaves the batch
    once every parameter's step is at most ``FIT_STEP_RTOL`` of the
    larger of the parameter and its scale (the segment's signal excursion
    for a and b, its time span for t0 and w).  Each site's arithmetic
    depends only on its own blocks, so its fit does not depend on the
    batch it is in.
    """
    count = len(segments)
    sizes = np.array([seg[0].size for seg in segments], dtype=int)
    blocks = -(-sizes // _BLOCK)
    t = np.empty((int(blocks.sum()), _BLOCK))
    y = np.zeros_like(t)
    mask = np.zeros_like(t)
    p = np.empty((count, 4))
    lower, upper, scale = np.empty((3, count, 4))
    first = np.cumsum(blocks) - blocks
    for j, (t_fit, v_fit, p0, lo, hi) in enumerate(segments):
        rows = slice(first[j], first[j] + blocks[j])
        n = t_fit.size
        t_site, y_site, mask_site = (a[rows].reshape(-1) for a in (t, y, mask))
        t_site[:n], t_site[n:] = t_fit, t_fit[-1]
        y_site[:n] = v_fit
        mask_site[:n] = 1.0
        lower[j], upper[j] = lo, hi
        p[j] = np.clip(p0, lo, hi)
        excursion = float(np.ptp(v_fit))
        span = float(t_fit[-1] - t_fit[0])
        scale[j] = (excursion, excursion, span, span)

    work = np.empty((5,) + t.shape)
    normal = _normal_equations(p, t, y, mask, blocks, work)
    damping = np.full(count, _INITIAL_DAMPING)
    growth = np.full(count, 2.0)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    eye = np.eye(4)
    with np.errstate(all="ignore"):
        for _ in range(FIT_MAX_ITERATIONS):
            if active.size == 0:
                break
            pa, na, lo, hi = p[active], normal[active], lower[active], upper[active]
            hess, grad = na[:, :4, :4], na[:, :4, 4]
            held = ((pa <= lo) & (grad > 0.0)) | ((pa >= hi) & (grad < 0.0))
            diag = np.diagonal(hess, axis1=1, axis2=2)
            free = ~held & (diag > 0.0)
            inv = np.where(free, 1.0 / np.sqrt(np.where(free, diag, 1.0)), 0.0)
            system = hess * inv[:, :, None] * inv[:, None, :]
            system += eye * np.where(free, damping[active, None], 1.0)[:, :, None]
            step = np.linalg.solve(system, (-grad * inv)[..., None])[..., 0] * inv
            trial = np.clip(pa + step, lo, hi)
            step = trial - pa
            trial_normal = _normal_equations(trial, t, y, mask, blocks[active], work)
            actual = 0.5 * (na[:, 4, 4] - trial_normal[:, 4, 4])
            predicted = -((grad * step).sum(axis=1) + 0.5 * (
                step[:, :, None] * hess * step[:, None, :]).sum(axis=(1, 2)))
            better = (actual > 0.0) & (predicted > 0.0)
            rho = actual / predicted
            damping[active] = np.maximum(_DAMPING_FLOOR, damping[active] * np.where(
                better, np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), growth[active]))
            growth[active] = np.where(better, 2.0, 2.0 * growth[active])
            p[active] = pa = np.where(better[:, None], trial, pa)
            normal[active] = np.where(better[:, None, None], trial_normal, na)
            done = np.all(np.abs(step) <= FIT_STEP_RTOL
                          * np.maximum(np.abs(pa), scale[active]), axis=1)
            if done.any():
                converged[active[done]] = True
                keep = np.repeat(~done, blocks[active])
                t, y, mask = t[keep], y[keep], mask[keep]
                active = active[~done]

    fits = []
    for j, site in enumerate(sites):
        if not converged[j]:
            fits.append(FitError(f"arrival fit for site {site} did not converge"))
            continue
        a, b, t0, w = p[j]
        fits.append(ArrivalFit(site=site, t0=float(t0), width=float(w),
                               amplitude=float(b),
                               goodness=float(np.sqrt(normal[j, 4, 4] / sizes[j]))))
    return fits


def _normal_equations(p, t, y, mask, blocks, work):
    """[J | r]^T [J | r] per site, shape (sites, 5, 5), for params p (sites, 4).

    ``t``, ``y`` and ``mask`` are (total blocks, ``_BLOCK``); site j's
    samples fill ``blocks[j]`` consecutive rows and masked samples add
    exact zeros.  ``work`` is a (5, at least total blocks, ``_BLOCK``)
    buffer, reused so that no evaluation allocates it afresh.  Each block
    is one small matrix product, and a site's blocks are summed in order,
    so its sums do not depend on the other sites' blocks.
    """
    owner = np.repeat(np.arange(blocks.size), blocks)
    a, b, t0, w = p[owner].T[..., None]
    aug = work[:, :owner.size]
    _gauss_jacobian(t, a, b, t0, w, axis=0, out=aug[:4])
    np.subtract(a + b * aug[1], y, out=aug[4])       # the model's residual
    aug *= mask
    per_block = aug.transpose(1, 0, 2) @ aug.transpose(1, 2, 0)
    stacked = np.zeros((blocks.size, blocks.max(initial=0), 5, 5))
    stacked[owner, np.arange(owner.size) - np.repeat(np.cumsum(blocks) - blocks, blocks)] = per_block
    return stacked.sum(axis=1)


def _gauss_jacobian(t, a, b, t0, w, axis=-1, out=None):
    """Columns d/da, d/db, d/dt0, d/dw of the arrival model a + b exp(-(t -
    t0)^2 / 2 w^2), shape (len(t), 4).

    With x = t - t0 and e = exp(-x^2 / 2 w^2): 1, e, b e x / w^2, b e x^2 / w^3.
    The parameters broadcast against ``t``; the four derivatives are
    stacked on ``axis`` of the result, or written into ``out``.
    """
    x = t - t0
    e = np.exp(-(x ** 2) / (2.0 * w ** 2))
    be_x = b * e * x / w ** 2
    return np.stack(np.broadcast_arrays(1.0, e, be_x, be_x * x / w), axis=axis, out=out)


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


def _flanking_minima(v: np.ndarray, peak: int) -> tuple[int, int]:
    """Indices of the closest interior local minima before and after
    ``peak``, or the first and the last sample where there is none; both
    are looked up in one sorted list of the trace's local minima."""
    minima = np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
    before = np.searchsorted(minima, peak)
    after = np.searchsorted(minima, peak, side="right")
    start = minima[before - 1] if before > 0 else 0
    stop = minima[after] if after < minima.size else v.size - 1
    return int(start), int(stop)


def fit_front_velocity(arrivals) -> FrontFit:
    """Ordinary least squares of arrival time against distance.

    ``arrivals`` is a sequence of (distance, t0) pairs; the model is
    t0 = d / velocity + intercept.  The velocity standard error follows
    from the slope standard error by error propagation.  Raises FitError
    if the front moves backwards, or if the arrival times rise over the
    distances by no more than the arrival fits resolve (10
    ``FIT_STEP_RTOL`` of the latest), as under all-to-all equal couplings.
    """
    pairs = np.atleast_2d(np.asarray(arrivals, dtype=float))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("arrivals must be (distance, t0) pairs")
    if pairs.shape[0] < 3:
        raise ValueError("need at least 3 arrival points")
    d, t0 = pairs[:, 0], pairs[:, 1]
    span = np.ptp(d)
    if span == 0.0:
        raise FitError("degenerate distances: all arrivals at the same site")
    (slope, intercept), cov = np.polyfit(d, t0, 1, cov=True)
    if abs(slope) * span <= 10 * FIT_STEP_RTOL * np.abs(t0).max():
        raise FitError("the arrival times do not change with distance: their rise over "
                       f"the fitted sites, {slope * span:.3g} s, is within the "
                       "arrival fits' tolerance")
    if slope <= 0.0:
        raise FitError(f"non-positive slope {slope:.3g}: front moves backwards")
    slope_err = float(np.sqrt(cov[0, 0]))
    return FrontFit(velocity=float(1.0 / slope), intercept=float(intercept),
                    velocity_stderr=float(slope_err / slope ** 2),
                    sites_used=[float(x) for x in d])


def arrival_times(times, magnetisation, source: int, skipped: list | None = None):
    """Per-distance Gaussian arrival fits for a single-source quench.

    Parameters
    ----------
    times:
        Sample times, shape (T,).
    magnetisation:
        <sigma_z> trace per site, shape (T, N).
    source:
        1-based site where the excitation started.
    skipped:
        Optional list; an :class:`ArrivalSkipped` is appended to it for
        every site whose fit fails.

    Returns a list of (distance, ArrivalFit) pairs following the front to
    the right of the source, up to the second-to-last site.  All sites are
    fitted in one batched solve, and a site's fit does not depend on the
    others.  Sites whose arrival fit fails are skipped with a warning.
    """
    mag = np.asarray(magnetisation, dtype=float)
    n = mag.shape[1]
    _check_site(n, source)
    edge = (n - 1) - source          # distance to the second-to-last site
    if edge < 1:
        raise ValueError("no sites between the source and the excluded edge")
    t = np.asarray(times, dtype=float)
    if mag.ndim != 2 or t.shape != mag.shape[:1]:
        raise ValueError(f"times must be a 1-D array matching the {mag.shape[0]} rows of "
                         f"magnetisation, got shape {t.shape}")
    if t.size < MIN_ARRIVAL_SAMPLES:
        raise ValueError(f"need at least {MIN_ARRIVAL_SAMPLES} samples per trace")
    outcome = {}                     # distance -> segment, then fit or FitError
    for dist in range(1, edge + 1):
        try:
            outcome[dist] = _arrival_segment(t, mag[:, source + dist - 1])
        except FitError as exc:
            outcome[dist] = exc
    found = [d for d, seg in outcome.items() if not isinstance(seg, FitError)]
    outcome.update(zip(found, _fit_pulses([source + d for d in found],
                                          [outcome[d] for d in found])))
    fits = []
    for dist, fit in outcome.items():
        if isinstance(fit, FitError):
            s = source + dist
            warnings.warn(f"site {s}: {fit}", stacklevel=2)
            if skipped is not None:
                skipped.append(ArrivalSkipped(site=s, distance=dist, reason=str(fit)))
        else:
            fits.append((dist, fit))
    return fits
