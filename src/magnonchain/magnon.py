"""Single-excitation (magnon) sector: dispersion, group velocity, evolution.

One flipped spin on the all-down background delocalises into N magnon
modes.  Diagonalising the bosonic hopping Hamiltonian is equivalent to
diagonalising the N x N coupling matrix J itself: eigenvalues omega_k are
the mode energies (rad/s, on top of the bookkeeping shift hbar*B) and the
real orthonormal eigenvectors c_{i,k} are standing-wave mode functions.
Open boundaries make true momentum ill-defined, but the number of nodes of
c_{.,k} is well defined and assigns each mode a pseudo-momentum
k_n = n pi / (N+1) with n-1 nodes.  The node counts of all N mode functions
are taken in one vectorised pass over the eigenvector matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ionchain import CouplingMatrix, _check_site, _fix_gauge, _readonly

#: Relative magnitude below which a mode-function entry is ignored when
#: counting sign changes.
NODE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class MagnonSpectrum:
    """Eigenmodes of the coupling matrix, ordered by increasing node count.

    ``energies[k]`` (rad/s) and mode function ``mode_functions[:, k]``
    belong to pseudo-momentum ``pseudo_momenta[k] = (node_counts[k]+1) *
    pi/(N+1)``.  ``energy_shift`` records the transverse-field offset
    hbar*B (rad/s) of the dispersion; it is bookkeeping only and enters no
    dynamics here.
    """

    energies: np.ndarray
    mode_functions: np.ndarray
    pseudo_momenta: np.ndarray
    node_counts: np.ndarray
    energy_shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "energies", _readonly(np.asarray(self.energies, float)))
        object.__setattr__(self, "mode_functions", _readonly(np.asarray(self.mode_functions, float)))
        object.__setattr__(self, "pseudo_momenta", _readonly(np.asarray(self.pseudo_momenta, float)))
        object.__setattr__(self, "node_counts", _readonly(np.asarray(self.node_counts, int)))

    @property
    def n_ions(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class SingleExcitationState:
    """Amplitudes a_i(t) of the excitation on each site at one time."""

    amplitudes: np.ndarray
    time: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", _readonly(amps))
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"single-excitation state not normalized: sum |a|^2 = {norm!r}")


def count_nodes(mode_function: np.ndarray, threshold: float = NODE_THRESHOLD) -> int:
    """Number of sign changes of a mode function.

    Entries smaller than ``threshold * max|c|`` are treated as exact zeros
    and skipped, so a node sitting on a site is counted once.  This is the
    one-column case of the count that labels every mode in
    :func:`diagonalize_magnons`.
    """
    return int(_node_counts(np.asarray(mode_function, dtype=float)[:, None], threshold)[0])


def _node_counts(vectors: np.ndarray, threshold: float = NODE_THRESHOLD) -> np.ndarray:
    """Sign changes of every column of ``vectors`` (sites x modes), at once.

    Per column, entries at most ``threshold`` times the column's largest
    magnitude are dropped; each kept entry is compared with the previous
    kept entry of the same column.
    """
    c = vectors.T
    mag = np.abs(c)
    keep = mag > threshold * mag.max(axis=1, keepdims=True)
    column = np.nonzero(keep)[0]                 # column of each kept entry, in order
    negative = np.signbit(c[keep])
    change = (negative[1:] != negative[:-1]) & (column[1:] == column[:-1])
    return np.bincount(column[1:][change], minlength=c.shape[0])


def diagonalize_magnons(J: CouplingMatrix, energy_shift: float = 0.0) -> MagnonSpectrum:
    """Diagonalize the coupling matrix and label modes by node count.

    Modes are sorted by increasing node count, i.e. by pseudo-momentum
    k = n pi/(N+1).  If two modes receive the same node count (possible
    for near-degenerate long-range spectra) a warning is emitted and ties
    are broken by energy; the labels are still assigned by node count.
    """
    energies, vectors = np.linalg.eigh(J.values)
    n = J.n_ions
    vectors = _fix_gauge(vectors)
    nodes = _node_counts(vectors)
    if len(set(nodes.tolist())) != n:
        counts = np.bincount(nodes, minlength=n)
        dup = [int(c) for c in np.nonzero(counts > 1)[0]]
        warnings.warn(
            f"ambiguous node labelling: node counts {dup} occur more than once "
            "(near-degenerate modes); ties broken by energy", RuntimeWarning)
    order = np.lexsort((energies, nodes))
    return MagnonSpectrum(
        energies=energies[order],
        mode_functions=vectors[:, order],
        pseudo_momenta=(nodes[order] + 1) * np.pi / (n + 1),
        node_counts=nodes[order],
        energy_shift=energy_shift,
    )


def max_group_velocity(spectrum: MagnonSpectrum) -> float:
    """Maximal group velocity in sites/s.

    Largest magnitude of the forward finite difference of the dispersion
    over adjacent pseudo-momenta:
    v_g^max = max_k |omega_{k + pi/(N+1)} - omega_k| * (N+1)/pi.
    """
    n = spectrum.n_ions
    if n < 2:
        raise ValueError("need at least 2 modes")
    domega = np.diff(spectrum.energies)
    return float(np.abs(domega).max() * (n + 1) / np.pi)


def evolve_single_excitation(J: CouplingMatrix, quench_site: int,
                             times: np.ndarray) -> list[SingleExcitationState]:
    """Exact spectral evolution of one excitation created at ``quench_site``.

    a_i(t) = sum_k c_{i,k} c_{l,k} exp(-i omega_k t); no step error, any
    time grid.  Sites are 1-based.
    """
    _check_site(J.n_ions, quench_site)
    spectrum = diagonalize_magnons(J)
    c = spectrum.mode_functions
    weights = c[quench_site - 1, :]                       # c_{l,k}
    times = np.atleast_1d(np.asarray(times, dtype=float))
    phases = np.exp(-1j * np.outer(times, spectrum.energies))   # (T, N)
    amps = (phases * weights) @ c.T                             # (T, N sites)
    return [SingleExcitationState(amplitudes=a, time=t) for a, t in zip(amps, times)]


def magnetisation_single(state: SingleExcitationState) -> np.ndarray:
    """Site-resolved magnetisation <sigma_i^z> = 2|a_i|^2 - 1."""
    return 2.0 * np.abs(state.amplitudes) ** 2 - 1.0
