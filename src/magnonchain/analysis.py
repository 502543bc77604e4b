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
  not be picked up.  Every site's pulse segment is detected in one pass
  over all traces (``_segments``), then all segments are fitted in one
  batched, bounded Levenberg-Marquardt solve (``_fit_pulses``) that takes
  Newton steps on the exact Hessian where it is positive definite, and
  stops a site on an accepted step in which no parameter moves by more
  than ``FIT_STEP_RTOL`` relative.
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


def _segments(t, traces) -> list:
    """The segment of each trace's first maximum: (t_fit, v_fit, p0, lower,
    upper) for each row of ``traces`` (traces, T), or the FitError of a
    trace that has none.

    The segment runs between the local minima flanking the first
    qualifying maximum (:func:`_first_maxima`, :func:`_flanking_minima`),
    so neither the initial transient nor later interference revivals bias
    the arrival time.  Initial guesses p0, to be clipped into the bounds:
    t0 at the detected peak, w a sixth of the segment (at least half a
    sample step), b the peak height; the amplitude is constrained
    non-negative and the center to the segment, which keeps the optimizer
    from inverting the pulse on weak precursor bumps.  Each step is one
    pass over all traces.
    """
    peak, failure = _first_maxima(traces)
    start, stop = _flanking_minima(traces, peak)
    index = np.arange(traces.shape[1])
    inside = (index >= start[:, None]) & (index <= stop[:, None])
    baseline = np.where(inside, traces, np.inf).min(axis=1)
    height = traces[np.arange(len(traces)), peak] - baseline
    segments = []
    for j, (s, e, top, reason) in enumerate(zip(start.tolist(), stop.tolist(),
                                                 peak.tolist(), failure)):
        if reason:
            segments.append(FitError(reason))
            continue
        t_fit = t[s: e + 1]
        span = float(t_fit[-1] - t_fit[0])
        segments.append((t_fit, traces[j, s: e + 1],
                         (float(baseline[j]), float(height[j]), float(t[top]), span / 6.0),
                         (-np.inf, 0.0, t_fit[0], 0.5 * (t_fit[1] - t_fit[0])),
                         (np.inf, np.inf, t_fit[-1], 10.0 * span)))
    return segments


def _arrival_segment(t, v):
    """The segment of :func:`_segments` of the one trace ``v``.

    Raises
    ------
    FitError
        If no interior maximum rises above the detection threshold.
    """
    segment, = _segments(t, np.asarray(v)[None, :])
    if isinstance(segment, FitError):
        raise segment
    return segment


def _fit_pulses(sites, segments) -> list:
    """Fit the arrival model a + b exp(-(t - t0)^2 / 2 w^2) to every segment
    at once; an ArrivalFit or FitError each.

    Each segment is padded to whole blocks of ``_BLOCK`` samples, masked,
    and the blocks of all segments are stacked.  One Levenberg-Marquardt
    iteration advances every unconverged site.  Its step is Newton's, on
    the exact Hessian J^T J + sum r grad^2 f of the sum of squares SS
    (:func:`_normal_equations`): Marquardt scaled by the diagonal of J^T J,
    damped by lambda on that diagonal, and taken wherever this damped,
    scaled system is positive definite (:func:`_positive_definite`, all
    sites at once).  A site where it is not takes the Gauss-Newton step of
    J^T J for that iteration.  The damping is updated per site by Nielsen's
    rule on the ratio of the actual to the predicted reduction of SS.  A
    trial whose predicted reduction is within the rounding error of the
    site's SS is accepted, since its actual reduction is noise; over n
    samples that error is 2^-52 (n SS + 2 (|a| + |b|) sqrt(n SS)), the
    second term from residuals that cancel data of size |a| + |b|.  Bounds
    are kept by an active set: a parameter on a bound whose gradient
    points outward is held, the other steps are clipped to the bounds.  A
    site leaves the batch on an accepted step in which no parameter moves
    by more than ``FIT_STEP_RTOL`` of the larger of the parameter and its
    scale (the segment's signal excursion for a and b, its time span for
    t0 and w).  Each site's arithmetic depends only on its own blocks, so
    its fit does not depend on the batch it is in.
    """
    if not segments:
        return []
    sizes = np.array([seg[0].size for seg in segments], dtype=int)
    blocks = -(-sizes // _BLOCK)
    t_all = np.concatenate([seg[0] for seg in segments])
    v_all = np.concatenate([seg[1] for seg in segments])
    offsets = np.cumsum(sizes) - sizes
    # each padded sample's index within its segment; pads repeat the last sample
    within = np.arange(int(blocks.sum()) * _BLOCK) - np.repeat(
        (np.cumsum(blocks) - blocks) * _BLOCK, blocks * _BLOCK)
    n_rep = np.repeat(sizes, blocks * _BLOCK)
    taken = np.repeat(offsets, blocks * _BLOCK) + np.minimum(within, n_rep - 1)
    t = t_all[taken].reshape(-1, _BLOCK)
    y = v_all[taken].reshape(-1, _BLOCK)
    mask = (within < n_rep).astype(float).reshape(-1, _BLOCK)
    lower, upper = (np.array([seg[k] for seg in segments], dtype=float) for k in (3, 4))
    p = np.clip(np.array([seg[2] for seg in segments], dtype=float), lower, upper)
    excursion = np.maximum.reduceat(v_all, offsets) - np.minimum.reduceat(v_all, offsets)
    span = t_all[offsets + sizes - 1] - t_all[offsets]
    scale = np.column_stack([excursion, excursion, span, span])

    fitted, final, final_ss = np.zeros(len(sites), dtype=bool), p.copy(), np.zeros(len(sites))
    active, n = np.arange(len(sites)), sizes.astype(float)
    damping = np.full(len(sites), _INITIAL_DAMPING)
    growth = np.full(len(sites), 2.0)
    work = np.empty((16,) + t.shape)
    sums = _moments(p, t, y, mask, blocks, work)
    eye = np.eye(4)
    with np.errstate(all="ignore"):
        for _ in range(FIT_MAX_ITERATIONS):
            if active.size == 0:
                break
            gram, grad, hess = _normal_equations(p, sums, n)
            held = ((p <= lower) & (grad > 0.0)) | ((p >= upper) & (grad < 0.0))
            diag = np.diagonal(gram, axis1=1, axis2=2)
            free = ~held & (diag > 0.0)
            inv = np.where(free, 1.0 / np.sqrt(np.where(free, diag, 1.0)), 0.0)
            outer = inv[:, :, None] * inv[:, None, :]
            damped = eye * np.where(free, damping[:, None], 1.0)[:, :, None]
            system = hess * outer + damped
            newton = _positive_definite(system)
            if not newton.all():                # these sites take the Gauss-Newton step
                gauss = ~newton[:, None, None]
                hess = np.where(gauss, gram, hess)
                system = np.where(gauss, gram * outer + damped, system)
            step = np.linalg.solve(system, (-grad * inv)[..., None])[..., 0] * inv
            trial = np.clip(p + step, lower, upper)
            step = trial - p
            trial_sums = _moments(trial, t, y, mask, blocks, work)
            predicted = -((2.0 * grad + (hess @ step[..., None])[..., 0]) * step).sum(axis=1)
            ss = sums[:, -1]
            noise = 2.0 ** -52 * (n * ss + 2.0 * np.abs(p[:, :2]).sum(axis=1) * np.sqrt(n * ss))
            actual = ss - trial_sums[:, -1]
            settled = np.abs(predicted) <= noise
            better = settled | (actual > 0.0) & (predicted > 0.0)
            rho = np.where(settled, 1.0, actual / predicted)
            damping = np.maximum(_DAMPING_FLOOR, damping * np.where(
                better, np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), growth))
            growth = np.where(better, 2.0, 2.0 * growth)
            p = np.where(better[:, None], trial, p)
            sums = np.where(better[:, None], trial_sums, sums)
            done = better & np.all(np.abs(step) <= FIT_STEP_RTOL
                                   * np.maximum(np.abs(p), scale), axis=1)
            if done.any():
                fitted[active[done]] = True
                final[active[done]], final_ss[active[done]] = p[done], sums[done, -1]
                keep = np.repeat(~done, blocks)
                t, y, mask = t[keep], y[keep], mask[keep]
                active, p, sums, lower, upper, scale, n, blocks, damping, growth = (
                    a[~done] for a in
                    (active, p, sums, lower, upper, scale, n, blocks, damping, growth))

    fits = []
    for j, site in enumerate(sites):
        if not fitted[j]:
            fits.append(FitError(f"arrival fit for site {site} did not converge"))
            continue
        a, b, t0, w = final[j]
        fits.append(ArrivalFit(site=site, t0=float(t0), width=float(w), amplitude=float(b),
                               goodness=float(np.sqrt(final_ss[j] / sizes[j]))))
    return fits


#: Entry (i, j) of the Gram matrix of the columns (1, e, e z, e z^2): its
#: index in the sample count followed by the sums of :func:`_moments`.
_GRAM = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 6, 7], [3, 6, 7, 8]])


def _moments(p, t, y, mask, blocks, work):
    """The sums over each site's samples that its normal equations and
    second-order term take, shape (sites, 15), for params p (sites, 4).

    With z = (t - t0) / w, e = exp(-z^2 / 2) and the residual r = a + b e - y,
    the columns are the sums of e, e z, e z^2, e^2, e^2 z, e^2 z^2, e^2 z^3,
    e^2 z^4, r, r e, r e z, r e z^2, r e z^3, r e z^4 and r^2.  ``t``,
    ``y`` and ``mask`` are (total blocks, ``_BLOCK``); site j's samples
    fill ``blocks[j]`` consecutive rows and masked samples add exact zeros.
    ``work`` is a (16, at least total blocks, ``_BLOCK``) buffer, reused so
    that no evaluation allocates it afresh.  Each block's samples are summed on
    their own and a site's blocks in order, so its sums do not depend on
    the other sites' blocks.
    """
    a, b, t0, w = np.repeat(p, blocks, axis=0).T[..., None]
    rows = work[:, :t.shape[0]]
    z, e, ez, ez2, e2, e2z, e2z2, e2z3, e2z4, r, re, rez, rez2, rez3, rez4, r2 = rows
    np.subtract(t, t0, out=z)
    z /= w
    np.multiply(z, z, out=e)
    e *= -0.5
    np.exp(e, out=e)
    e *= mask
    np.multiply(e, z, out=ez)
    np.multiply(ez, z, out=ez2)
    np.multiply(e, b, out=r)
    r += a
    r -= y
    r *= mask
    for out, left, right in ((e2, e, e), (e2z, e, ez), (e2z2, ez, ez), (e2z3, ez, ez2),
                             (e2z4, ez2, ez2), (re, r, e), (rez, r, ez), (rez2, r, ez2),
                             (rez3, rez2, z), (rez4, rez3, z), (r2, r, r)):
        np.multiply(left, right, out=out)
    first = np.cumsum(blocks) - blocks
    return np.add.reduceat(rows[1:].sum(axis=-1), first, axis=1).T


def _normal_equations(p, sums, n):
    """(J^T J, J^T r, J^T J + sum r grad^2 f) per site, shapes (sites, 4, 4),
    (sites, 4) and (sites, 4, 4), from the :func:`_moments` ``sums`` at the
    params p of sites with ``n`` samples each.

    The Jacobian columns are (1, e, e z, e z^2) times d = (1, 1, b / w,
    b / w) (:func:`_gauss_jacobian`).  The second-order term is
    sum r d^2 f / dp_i dp_j: (1 / w) sum r e z and (1 / w) sum r e z^2 in
    the (b, t0) and (b, w) entries, and b / w^2 times sum r e (z^2 - 1),
    sum r e (z^3 - 2 z) and sum r e (z^4 - 3 z^2) in the (t0, t0), (t0, w)
    and (w, w) entries.
    """
    moments = np.column_stack([n, sums])
    b, w = p[:, 1], p[:, 3]
    d = np.ones_like(p)
    d[:, 2:] = (b / w)[:, None]
    gram = moments[:, _GRAM] * (d[:, :, None] * d[:, None, :])
    grad = moments[:, 9:13] * d
    r_e, r_ez, r_ez2, r_ez3, r_ez4 = moments[:, 10:15].T
    c = b / w ** 2
    hess = gram.copy()
    hess[:, 1, 2] += r_ez / w
    hess[:, 1, 3] += r_ez2 / w
    hess[:, 2, 2] += c * (r_ez2 - r_e)
    hess[:, 2, 3] += c * (r_ez3 - 2.0 * r_ez)
    hess[:, 3, 3] += c * (r_ez4 - 3.0 * r_ez2)
    hess[:, 2, 1], hess[:, 3, 1], hess[:, 3, 2] = hess[:, 1, 2], hess[:, 1, 3], hess[:, 2, 3]
    return gram, grad, hess


def _positive_definite(m):
    """Whether each symmetric matrix of the stack m (..., k, k) is positive
    definite: every pivot of its elimination without exchanges is positive."""
    a = m.copy()
    for k in range(m.shape[-1] - 1):
        a[..., k + 1:, k + 1:] -= a[..., k + 1:, k, None] * (
            a[..., None, k, k + 1:] / a[..., k, k, None, None])
    return np.all(np.diagonal(a, axis1=-2, axis2=-1) > 0.0, axis=-1)


def _gauss_jacobian(t, a, b, t0, w):
    """Columns d/da, d/db, d/dt0, d/dw of the arrival model a + b exp(-(t -
    t0)^2 / 2 w^2), shape (len(t), 4).

    With x = t - t0 and e = exp(-x^2 / 2 w^2): 1, e, b e x / w^2, b e x^2 / w^3.
    """
    x = t - t0
    e = np.exp(-(x ** 2) / (2.0 * w ** 2))
    be_x = b * e * x / w ** 2
    return np.stack(np.broadcast_arrays(1.0, e, be_x, be_x * x / w), axis=-1)


def _first_maxima(v):
    """Index of each trace's earliest interior local maximum above its
    noise floor, and for each trace ``v`` (traces, T) the reason it has
    none, or "".

    Threshold: the pre-arrival baseline (the trace start) plus three
    standard deviations of the samples preceding the first rise, with a
    floor of 5% of the total excursion.  The floor keeps a noiseless
    lead-in from declaring every ripple an arrival; estimating sigma only
    before the first crossing keeps the arrival itself from inflating it,
    which matters for sites right next to the source.
    """
    baseline = v[:, 0]
    excursion = v.max(axis=1) - baseline
    floor = baseline + 0.05 * excursion
    rise = np.argmax(v > floor[:, None], axis=1)        # first crossing of the floor
    lead = np.arange(v.shape[1]) < np.maximum(rise, 1)[:, None]
    sigma = np.where(rise >= 2, np.std(v, axis=1, where=lead), 0.0)
    threshold = baseline + np.maximum(3.0 * sigma, 0.05 * excursion)
    inner = v[:, 1:-1]
    peaks = (inner >= v[:, :-2]) & (inner >= v[:, 2:]) & (inner > threshold[:, None])
    failure = np.where(excursion <= 0.0, "signal never rises above its baseline",
                       np.where(peaks.any(axis=1), "",
                                "no interior maximum above the detection threshold"))
    return np.argmax(peaks, axis=1) + 1, failure.tolist()


def _flanking_minima(v, peak):
    """Indices of the closest interior local minima before and after each
    trace's ``peak``, or its first and last sample where there is none, for
    the traces ``v`` (traces, T)."""
    inner = v[:, 1:-1]
    minima = (inner <= v[:, :-2]) & (inner <= v[:, 2:])
    index = np.arange(1, v.shape[1] - 1)
    start = np.where(minima & (index < peak[:, None]), index, 0).max(axis=1, initial=0)
    stop = np.where(minima & (index > peak[:, None]), index, v.shape[1] - 1).min(
        axis=1, initial=v.shape[1] - 1)
    return start, stop


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
    traces = np.ascontiguousarray(mag[:, source: source + edge].T)
    outcome = dict(enumerate(_segments(t, traces), start=1))   # distance -> segment, then fit
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
