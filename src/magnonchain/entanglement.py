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

Simulated tomography draws multinomial projection noise with a
counter-based RNG (Philox) keyed by (seed, record stream), so every
measurement record and bootstrap resample has its own reproducible
stream regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import StateVector
from .ionchain import _check_site, _readonly

#: Pauli matrices in the (|down>, |up>) basis ordering used throughout.
PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

#: Axis order fixing the stream index of each tomography basis.
AXES = ("x", "y", "z")

#: All nine two-qubit measurement bases {x,y,z} x {x,y,z}.
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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (up to noise floor) density matrix.

    ``subsystem`` tags which sites of the chain the matrix describes.
    """

    matrix: np.ndarray
    subsystem: tuple[int, ...]

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", _readonly(rho))
        object.__setattr__(self, "subsystem", tuple(int(s) for s in self.subsystem))
        if rho.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"density matrix must be 2x2 or 4x4, got {rho.shape}")
        _check_physical(rho[None])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_physical(rhos: np.ndarray) -> None:
    """The :class:`DensityMatrix` checks on a (R, d, d) stack at once."""
    if np.abs(rhos - rhos.conj().swapaxes(-1, -2)).max() > 1e-10:
        raise ValueError("density matrix not Hermitian to 1e-10")
    trace = np.trace(rhos, axis1=-2, axis2=-1).real
    off = np.abs(trace - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"density matrix trace {trace[off][0]!r} != 1")
    if np.linalg.eigvalsh(rhos).min() < -1e-8:
        raise ValueError("density matrix has eigenvalue below -1e-8")


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of one two-qubit measurement setting.

    ``counts`` tallies the outcomes (++, +-, -+, --) of measuring the two
    qubits along ``basis``; +/- are the eigenvalues of the chosen Pauli
    operators.
    """

    basis: tuple[str, str]
    shots: int
    counts: tuple[int, int, int, int]

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(basis) != 2 or any(a not in AXES for a in basis):
            raise ValueError(f"basis must be a pair from {AXES}, got {basis!r}")
        if len(self.counts) != 4 or any(c < 0 for c in self.counts):
            raise ValueError("counts must be 4 non-negative tallies")
        if sum(self.counts) != self.shots:
            raise ValueError(f"counts sum {sum(self.counts)} != shots {self.shots}")


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

    A single-spin value therefore lies in [0, 1].
    """
    return float(_entropies(rho.matrix[None])[0])


def _entropies(rhos: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(rhos)
    if lam.min() < -1e-8:
        raise ValueError(f"invalid state: eigenvalue {lam.min():.3e} < -1e-8")
    lam = np.where(lam > 1e-15, lam, 1.0)          # 1 log 1 = 0 stands in for 0 log 0
    return -np.sum(lam * np.log2(lam), axis=-1)


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
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _YY @ root.conj() @ _YY, compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def fidelity(rho: DensityMatrix, target: np.ndarray) -> float:
    """Overlap fidelity Tr(rho |psi><psi|) with a pure target state."""
    return float(_fidelities(rho.matrix[None], target)[0])


def _fidelities(rhos: np.ndarray, target) -> np.ndarray:
    psi = np.asarray(target, dtype=complex).ravel()
    if psi.size != rhos.shape[-1]:
        raise ValueError(f"target dimension {psi.size} != {rhos.shape[-1]}")
    psi = psi / np.linalg.norm(psi)
    # one (1, d) @ (d, 1) product per matrix, as for a single psi^H rho psi
    return np.real((psi.conj() @ rhos)[:, None, :] @ psi[:, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# simulated tomography


def _as_pair_density(rho_or_state) -> np.ndarray:
    if isinstance(rho_or_state, DensityMatrix):
        if rho_or_state.dim != 4:
            raise ValueError("tomography operates on two-qubit states")
        return rho_or_state.matrix
    psi = np.asarray(rho_or_state, dtype=complex).ravel()
    if psi.size != 4:
        raise ValueError("expected a two-qubit pure state or DensityMatrix")
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def measurement_probabilities(rho_or_state, basis: tuple[str, str]) -> np.ndarray:
    """Exact outcome probabilities (++, +-, -+, --) for one basis setting."""
    rho = _as_pair_density(rho_or_state)
    eye = np.eye(2)
    probs = []
    for s1 in (1.0, -1.0):
        proj1 = 0.5 * (eye + s1 * PAULI[basis[0]])
        for s2 in (1.0, -1.0):
            proj2 = 0.5 * (eye + s2 * PAULI[basis[1]])
            probs.append(np.real(np.trace(rho @ np.kron(proj1, proj2))))
    probs = np.clip(np.array(probs), 0.0, None)
    return probs / probs.sum()


def _record_stream(basis: tuple[str, str]) -> int:
    return 3 * AXES.index(basis[0]) + AXES.index(basis[1])


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator with an independent stream per (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def sample_measurements(rho_or_state, basis: tuple[str, str], shots: int,
                        seed: int) -> MeasurementRecord:
    """Draw multinomial projection noise for one measurement setting.

    Deterministic for a given (seed, basis): each of the nine settings has
    its own RNG stream derived from the seed, so records may be produced
    in any order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    basis = tuple(basis)
    probs = measurement_probabilities(rho_or_state, basis)
    counts = _rng(seed, _record_stream(basis)).multinomial(shots, probs)
    return MeasurementRecord(basis=basis, shots=shots, counts=tuple(counts))


def simulate_tomography(rho_or_state, shots: int, seed: int) -> list[MeasurementRecord]:
    """Sample all nine basis settings of the two-qubit tomography."""
    return [sample_measurements(rho_or_state, basis, shots, seed)
            for basis in TOMOGRAPHY_BASES]


def tomography_reconstruct(records, subsystem: tuple[int, int] = (1, 2)) -> DensityMatrix:
    """Linear-inversion reconstruction from the nine basis settings.

    The 15 Pauli expectations are estimated from the counts (single-qubit
    expectations are averaged over the three settings that share the
    axis), assembled into rho = (1/4) sum <P x Q> P x Q, and the result is
    projected to the nearest PSD unit-trace matrix (Frobenius norm); see
    :func:`_project_stack`.  Where a basis occurs more than once, its
    last record is used.
    """
    records = list(records)
    index = _setting_index(records)
    counts = np.array([rec.counts for rec in records])[index]
    shots = np.array([rec.shots for rec in records])[index]
    rho = _project_stack(_linear_inversion(counts[None], shots))
    return DensityMatrix(matrix=rho[0], subsystem=subsystem)


def _setting_index(records) -> np.ndarray:
    """Position in ``records`` of the record used for each of TOMOGRAPHY_BASES."""
    position = {tuple(rec.basis): k for k, rec in enumerate(records)}
    missing = [b for b in TOMOGRAPHY_BASES if b not in position]
    if missing:
        raise ValueError(f"missing tomography bases: {missing}")
    index = np.array([position[b] for b in TOMOGRAPHY_BASES])
    if any(records[k].shots == 0 for k in index):
        raise ValueError("tomography record with zero shots")
    return index


def _linear_inversion(counts: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Raw (R, 4, 4) estimates from (R, 9, 4) counts in TOMOGRAPHY_BASES order."""
    pp, pm, mp, mm = np.moveaxis(counts / shots[:, None], -1, 0)
    # coefficients of _PAULI_PRODUCTS; a single-qubit expectation is the
    # mean over the three settings that measure that qubit along the axis
    coeffs = np.concatenate([np.ones((counts.shape[0], 1)),
                             (pp + pm - mp - mm).reshape(-1, 3, 3).mean(axis=2),
                             (pp - pm + mp - mm).reshape(-1, 3, 3).mean(axis=1),
                             pp - pm - mp + mm], axis=1)
    return 0.25 * np.einsum("rk,kij->rij", coeffs, _PAULI_PRODUCTS)


def _project_stack(rhos: np.ndarray) -> np.ndarray:
    """Project each of a (R, d, d) stack onto the nearest PSD unit-trace matrix.

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
    return (vec * out[:, None, :]) @ vec.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# bootstrap error bars

#: Stream offset separating bootstrap resampling from measurement sampling.
_BOOTSTRAP_STREAM_BASE = 1000


def bootstrap(records, resamples: int, statistic: str, seed: int,
              target: np.ndarray | None = None) -> tuple[float, float]:
    """Monte-Carlo bootstrap of a tomography-derived statistic.

    Each resample redraws every record's counts from a multinomial with
    the record's empirical frequencies, reconstructs the density matrix,
    and evaluates the statistic ('concurrence', 'entropy', or 'fidelity'
    against ``target``).  Returns (sample mean, sample standard deviation).
    Resample r draws the records in the given order from its own RNG
    stream (seed, 1000 + r), so the result does not depend on evaluation
    order; all resamples are then reconstructed and evaluated as one stack.
    """
    if resamples < 100:
        raise ValueError("need at least 100 resamples for a stable error bar")
    records = list(records)
    evaluate = _statistic_fn(statistic, target)
    index = _setting_index(records)
    shots = np.array([rec.shots for rec in records])
    freqs = np.array([rec.counts for rec in records]) / shots[:, None]
    counts = np.stack([_rng(seed, _BOOTSTRAP_STREAM_BASE + r).multinomial(shots, freqs)
                       for r in range(resamples)])
    rhos = _project_stack(_linear_inversion(counts[:, index], shots[index]))
    _check_physical(rhos)
    values = evaluate(rhos)
    return float(values.mean()), float(values.std(ddof=1))


def _statistic_fn(statistic: str, target):
    if statistic == "concurrence":
        return _concurrences
    if statistic == "entropy":
        return _entropies
    if statistic == "fidelity":
        if target is None:
            raise ValueError("fidelity statistic needs a target state")
        return lambda rhos: _fidelities(rhos, target)
    raise ValueError(f"unknown statistic {statistic!r}")
