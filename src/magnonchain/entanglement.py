"""Reduced density matrices, entanglement measures, and simulated tomography.

Two-qubit density matrices use the product basis ordered
(|dd>, |du>, |ud>, |uu>) where the first symbol is the lower site index
and d/u mean spin down/up.  Because index 0 is "down", the Pauli matrices
in this ordering read

    sigma_x = [[0, 1], [1, 0]]
    sigma_y = [[0, 1j], [-1j, 0]]
    sigma_z = [[-1, 0], [0, 1]]

(sigma_y and sigma_z pick up a sign relative to the usual |up>-first
convention so that the algebra sigma_x sigma_y = i sigma_z still holds).

Tomography data is one (9, 4) integer counts array: row b counts the
outcomes (++, +-, -+, --) of setting TOMOGRAPHY_BASES[b], where +/- are
the eigenvalues of the two measured Pauli operators, and the shots of a
setting are its row sum.  Simulated tomography draws multinomial
projection noise by inversion, one uniform per shot, from the
counter-based bit generator Philox, keyed (seed, stream): stream b draws
row b, so each row has its own reproducible stream regardless of
evaluation order.  Inversion moves a shot only when its uniform falls
between the old and new cumulative probabilities, so a change of p in
its last bits moves a count with a chance of about shots times that
change, where ``multinomial``'s binomial steps branch at a conditional
probability of 1/2 and can swap two tied outcomes' counts whole.  The
bootstrap draws all its resamples, one after another, from the one
stream 1000, so the first R resamples of a longer run are those of a run
of R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import StateVector
from .ionchain import _check_site, _frozen

#: Pauli matrices in the (|down>, |up>) basis ordering used throughout.
PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

#: Axis order of the settings: (AXES[i], AXES[j]) is row 3 i + j of the counts.
AXES = ("x", "y", "z")

#: All nine two-qubit measurement settings {x,y,z} x {x,y,z}, one per row
#: of the tomography counts.
TOMOGRAPHY_BASES = tuple((a, b) for a in AXES for b in AXES)

#: Two-qubit spin flip sigma_y x sigma_y of the concurrence.
_YY = np.kron(PAULI["y"], PAULI["y"])

_EYE = np.eye(2, dtype=complex)
#: The 16 two-qubit Pauli products: 1 x 1, P x 1 and 1 x P for P in AXES,
#: then P x Q over TOMOGRAPHY_BASES.
_PAULI_PRODUCTS = np.array([np.kron(_EYE, _EYE)]
                           + [np.kron(PAULI[a], _EYE) for a in AXES]
                           + [np.kron(_EYE, PAULI[a]) for a in AXES]
                           + [np.kron(PAULI[a], PAULI[b]) for a, b in TOMOGRAPHY_BASES])

#: The (9, 4, 4, 4) outcome projectors: entry [b, k] projects on outcome k
#: (++, +-, -+, --) of setting TOMOGRAPHY_BASES[b].
_OUTCOME_PROJECTORS = np.array([[np.kron(0.5 * (np.eye(2) + s1 * PAULI[a]),
                                         0.5 * (np.eye(2) + s2 * PAULI[b]))
                                 for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
                                for a, b in TOMOGRAPHY_BASES])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (up to noise floor) density matrix.

    ``subsystem`` tags which sites of the chain the matrix describes.
    """

    matrix: np.ndarray
    subsystem: tuple[int, ...]

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", _frozen(rho))
        object.__setattr__(self, "subsystem", tuple(int(s) for s in self.subsystem))
        if rho.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"density matrix must be 2x2 or 4x4, got {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("density matrix not Hermitian to 1e-10")
        trace = np.trace(rho).real
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {float(trace)!r} != 1")
        if np.linalg.eigvalsh(rho).min() < -1e-8:
            raise ValueError("density matrix has eigenvalue below -1e-8")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# exact reductions and measures


def reduced_density_matrix(state: StateVector, sites) -> DensityMatrix:
    """Partial trace of a pure chain state onto one or two sites.

    For a site pair (i, j), i < j, the first factor of the product basis
    is site i (see module docstring for the ordering).  The kept spins and
    the rest of each basis state are read from its bits, so only the
    states the StateVector holds enter: rho = A A^dagger, with one column
    of A per distinct rest, in increasing order.
    """
    if np.isscalar(sites):
        sites = (int(sites),)
    sites = tuple(int(s) for s in sites)
    if len(sites) not in (1, 2) or len(set(sites)) != len(sites):
        raise ValueError("sites must be one index or a pair of distinct indices")
    n = state.n_sites
    for s in sites:
        _check_site(n, s)
    sites = tuple(sorted(sites))
    basis = state.basis
    kept = np.zeros(basis.size, dtype=np.int64)
    for s in sites:                                 # the first site is the high bit
        kept = 2 * kept + ((basis >> (s - 1)) & 1)
    rest, column = np.unique(basis & ~sum(1 << (s - 1) for s in sites), return_inverse=True)
    flat = np.zeros((2 ** len(sites), rest.size), dtype=complex)
    flat[kept, column] = state.amplitudes
    rho = flat @ flat.conj().T
    return DensityMatrix(matrix=rho, subsystem=sites)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum lambda log2 lambda in bits (0 log 0 := 0).

    A single-spin value therefore lies in [0, 1].  The eigenvalues are
    those :class:`DensityMatrix` checked, none below -1e-8.
    """
    lam = np.linalg.eigvalsh(rho.matrix)
    lam = np.where(lam > 1e-15, lam, 1.0)          # 1 log 1 = 0 stands in for 0 log 0
    return float(-np.sum(lam * np.log2(lam)))


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho rho~, rho~ = (sy x sy) rho* (sy x sy).  They are
    taken as the singular values of sqrt(rho) sqrt(rho~), with sqrt(rho)
    from ``eigh`` and sqrt(rho~) = (sy x sy) sqrt(rho)* (sy x sy): unlike
    square roots of the eigenvalues of the non-Hermitian rho rho~, this
    does not turn roundoff in vanishing eigenvalues into sqrt(eps) errors.
    """
    if rho.dim != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    return float(_concurrences(rho.matrix[None])[0])


def _concurrences(rhos: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rhos)
    return _spectral_concurrences(np.clip(w, 0.0, None), v)


def _spectral_concurrences(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrences of the stack v diag(w) v^H, from its non-negative
    eigenvalues w (R, 4) and eigenvectors v (R, 4, 4)."""
    root = _compose(np.sqrt(w), v)
    lam = np.linalg.svd(root @ _YY @ root.conj() @ _YY, compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def _compose(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (R, d, d) stack v diag(w) v^H of eigenvalues w and eigenvectors v."""
    return (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# simulated tomography


def measurement_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Exact outcome probabilities of the nine settings as a (9, 4) table.

    Row b is setting TOMOGRAPHY_BASES[b], and the columns are the outcomes
    (++, +-, -+, --).
    """
    if rho.dim != 4:
        raise ValueError("tomography operates on two-qubit states")
    probs = np.real(np.trace(rho.matrix @ _OUTCOME_PROJECTORS, axis1=-2, axis2=-1))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


#: Uniforms :func:`simulate_tomography` draws at once for a row: 8 MB,
#: whatever the shots.  The stream gives the same uniforms in any chunks.
_SHOT_CHUNK = 1 << 20


def _stream(seed: int, stream: int) -> np.random.Generator:
    """The generator of stream ``stream`` of ``seed``: Philox keyed (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def simulate_tomography(rho: DensityMatrix, shots: int, seed: int) -> np.ndarray:
    """Multinomial projection noise on all nine settings: (9, 4) counts.

    Row b draws ``shots`` outcomes of setting TOMOGRAPHY_BASES[b] by
    inversion: ``shots`` uniforms from its own stream (seed, b), drawn
    ``_SHOT_CHUNK`` at a time, each counted for the first outcome whose
    cumulative probability exceeds it.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    edges = np.cumsum(measurement_probabilities(rho), axis=1)[:, :-1]
    counts = np.zeros((len(TOMOGRAPHY_BASES), 4), dtype=np.int64)
    for b, row in enumerate(edges):
        rng = _stream(seed, b)
        for start in range(0, shots, _SHOT_CHUNK):
            u = rng.random(min(_SHOT_CHUNK, shots - start))
            counts[b] += np.bincount(np.searchsorted(row, u, side="right"), minlength=4)
    return counts


def _checked_counts(counts) -> tuple[np.ndarray, np.ndarray]:
    """(counts, shots per setting) of a (9, 4) counts array; a ValueError
    names what is wrong with it."""
    counts = np.asarray(counts)
    if counts.shape != (len(TOMOGRAPHY_BASES), 4):
        raise ValueError(f"tomography counts must have shape (9, 4), one row per setting "
                         f"and one column per outcome, got {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"tomography counts must be integers, got dtype {counts.dtype}")
    if (counts < 0).any():
        raise ValueError("tomography counts must be non-negative")
    shots = counts.sum(axis=1)
    if not shots.all():
        empty = TOMOGRAPHY_BASES[int(np.argmin(shots))]
        raise ValueError(f"tomography setting {''.join(empty)} has no shots")
    return counts, shots


def tomography_reconstruct(counts: np.ndarray, subsystem: tuple[int, int]) -> DensityMatrix:
    """Linear-inversion reconstruction from (9, 4) counts.

    The 15 Pauli expectations are estimated from the counts (single-qubit
    expectations are averaged over the three settings that share the
    axis), assembled into rho = (1/4) sum <P x Q> P x Q, and the result is
    projected to the nearest PSD unit-trace matrix (Frobenius norm); see
    :func:`_projected_spectra`.
    """
    counts, shots = _checked_counts(counts)
    rho = _project_stack(_linear_inversion(counts[None], shots))
    return DensityMatrix(matrix=rho[0], subsystem=subsystem)


def _linear_inversion(counts: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Raw (R, 4, 4) estimates from (R, 9, 4) counts and the (9,) shots per setting."""
    pp, pm, mp, mm = np.moveaxis(counts / shots[:, None], -1, 0)
    # coefficients of _PAULI_PRODUCTS; a single-qubit expectation is the
    # mean over the three settings that measure that qubit along the axis
    coeffs = np.concatenate([np.ones((counts.shape[0], 1)),
                             (pp + pm - mp - mm).reshape(-1, 3, 3).mean(axis=2),
                             (pp - pm + mp - mm).reshape(-1, 3, 3).mean(axis=1),
                             pp - pm - mp + mm], axis=1)
    return 0.25 * np.einsum("rk,kij->rij", coeffs, _PAULI_PRODUCTS)


def _project_stack(rhos: np.ndarray) -> np.ndarray:
    """Project each of a (R, d, d) stack onto the nearest PSD unit-trace
    matrix; see :func:`_projected_spectra`."""
    return _compose(*_projected_spectra(rhos))


def _projected_spectra(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (R, d) and eigenvectors (R, d, d) of the nearest PSD
    unit-trace matrix to each of a (R, d, d) stack.

    Hermitize, then replace the eigenvalue vector by its Euclidean
    projection onto the probability simplex (Smolin, Gambetta & Smith,
    PRL 108, 070502, 2012): walk the spectrum from the bottom, zeroing
    negative eigenvalues and spreading their mass uniformly over the ones
    that remain.  This is the water-filling solution of the constrained
    least-squares problem and keeps the trace exactly 1 (up to the
    normalization of the input).
    """
    rhos = 0.5 * (rhos + rhos.conj().swapaxes(-1, -2))
    rhos = rhos / np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
    lam, vec = np.linalg.eigh(rhos)
    lam = lam[:, ::-1]
    vec = vec[:, :, ::-1]
    d = lam.shape[1]
    # acc[:, i]: mass of the eigenvalues below i, summed from the bottom up
    acc = np.zeros_like(lam)
    for i in range(d - 2, -1, -1):
        acc[:, i] = acc[:, i + 1] + lam[:, i + 1]
    shift = acc / np.arange(1, d + 1)
    # keep the top k + 1: k is the first index, from the bottom, that
    # stays non-negative after taking the mass below it
    k = d - 1 - np.argmax(~(lam + shift < 0.0)[:, ::-1], axis=1)
    out = np.where(np.arange(d) <= k[:, None],
                   lam + np.take_along_axis(shift, k[:, None], axis=1), 0.0)
    return out, vec


# ---------------------------------------------------------------------------
# bootstrap error bars

#: Stream of the bootstrap resamples, apart from the measurement streams 0..8.
_BOOTSTRAP_STREAM = 1000


def bootstrap(counts: np.ndarray, resamples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo bootstrap of the concurrence of tomography counts.

    Each resample redraws every row of the (9, 4) ``counts`` from a
    multinomial with the row's shots and empirical frequencies,
    reconstructs the density matrix and takes its concurrence.  Returns
    (sample mean, sample standard deviation).  All resamples are drawn by
    one call from the one RNG stream (seed, 1000), resample by resample
    and row by row, so the R resamples of a run are the first R of any
    longer run; they are then reconstructed as one stack, and each
    concurrence takes sqrt(rho) from the eigendecomposition the
    projection onto density matrices already made.
    """
    if resamples < 100:
        raise ValueError("need at least 100 resamples for a stable error bar")
    counts, shots = _checked_counts(counts)
    rng = _stream(seed, _BOOTSTRAP_STREAM)
    redrawn = rng.multinomial(np.broadcast_to(shots, (resamples, shots.size)),
                              counts / shots[:, None])
    values = _spectral_concurrences(*_projected_spectra(_linear_inversion(redrawn, shots)))
    return float(values.mean()), float(values.std(ddof=1))
