"""Single-excitation (magnon) sector: dispersion, group velocity, evolution.

One flipped spin on the all-down background delocalises into N magnon
modes.  Diagonalising the bosonic hopping Hamiltonian is equivalent to
diagonalising the N x N coupling matrix J itself: eigenvalues omega_k are
the mode energies (rad/s) and the
real orthonormal eigenvectors c_{i,k} are standing-wave mode functions.
Open boundaries make true momentum ill-defined, but the number of nodes of
c_{.,k} is well defined and assigns each mode a pseudo-momentum
k_n = n pi / (N+1) with n-1 nodes.  The node counts of all N mode functions
are taken in one vectorised pass over the eigenvector matrix.  Only the
dispersion needs these labels: the propagator sums over the modes of
``eigh`` directly, as no amplitude depends on how the modes are named.
A chain whose couplings are reflection symmetric bit for bit (a power law
or a nearest-neighbour chain, not a trap's mode sum) splits into a
symmetric and an antisymmetric block of about N/2 states each
(:func:`_mirror_blocks`), which the propagator diagonalizes instead of J;
a source on the mirror axis reaches the symmetric block alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import check_phases
from .ionchain import (CouplingMatrix, _check_normalized, _check_site, _fix_gauge, _frozen,
                       _mirror_symmetric)

#: Relative magnitude below which a mode-function entry is ignored when
#: counting sign changes.
NODE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class MagnonSpectrum:
    """Eigenmodes of the coupling matrix, ordered by increasing node count.

    ``energies[k]`` (rad/s) and mode function ``mode_functions[:, k]``
    belong to pseudo-momentum ``pseudo_momenta[k] = (node_counts[k]+1) *
    pi/(N+1)``.
    """

    energies: np.ndarray
    mode_functions: np.ndarray
    pseudo_momenta: np.ndarray
    node_counts: np.ndarray

    def __post_init__(self):
        for name, dtype in (("energies", float), ("mode_functions", float),
                            ("pseudo_momenta", float), ("node_counts", int)):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype)))


@dataclass(frozen=True)
class SingleExcitationState:
    """Amplitudes a_i(t) of the excitation on each site at one time: a row
    of :func:`_single_excitation_amplitudes`, whose norm that checked."""

    amplitudes: np.ndarray
    time: float

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(np.asarray(self.amplitudes, dtype=complex)))


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


def diagonalize_magnons(J: CouplingMatrix) -> MagnonSpectrum:
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
    )


def max_group_velocity(energies: np.ndarray) -> float:
    """Maximal group velocity in sites/s of the mode ``energies`` (rad/s) in
    node order, e.g. ``MagnonSpectrum.energies``.

    Largest magnitude of the forward finite difference of the dispersion
    over adjacent pseudo-momenta:
    v_g^max = max_k |omega_{k + pi/(N+1)} - omega_k| * (N+1)/pi.
    """
    n = len(energies)
    if n < 2:
        raise ValueError("need at least 2 modes")
    return float(np.abs(np.diff(energies)).max() * (n + 1) / np.pi)


def evolve_single_excitation(J: CouplingMatrix, quench_site: int,
                             times: np.ndarray) -> list[SingleExcitationState]:
    """Exact spectral evolution of one excitation created at ``quench_site``.

    a_i(t) = sum_k c_{i,k} c_{l,k} exp(-i omega_k t); no step error, any
    time grid whose phases keep their digits (:func:`dynamics.check_phases`,
    as for :func:`dynamics.evolve`).  Sites are 1-based.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    amps = _single_excitation_amplitudes(J, quench_site, times)
    return [SingleExcitationState(amplitudes=a, time=t) for a, t in zip(amps, times)]


def _single_excitation_amplitudes(J: CouplingMatrix, quench_site: int,
                                  times: np.ndarray) -> np.ndarray:
    """The (T, N) amplitudes a_i(t) of :func:`evolve_single_excitation`, as
    one array; the phases are checked first, with no field
    (:func:`dynamics.check_phases`), and every row is checked to be
    normalized to 1e-9.

    When J is reflection symmetric (:func:`ionchain._mirror_symmetric`),
    the two half-size blocks of :func:`_mirror_blocks` are propagated on
    their own and their amplitudes laid out on both halves of the chain; a
    source on the mirror axis (the centre of an odd chain) has no weight in
    the antisymmetric block, which is then skipped, and the mirrored half
    of each row is a copy of the first, a_i = a_{N+1-i} bit for bit.  Any
    other J takes the eigendecomposition of the whole N x N matrix.  The
    sum over modes needs neither their node labels nor a sign convention:
    each term c_{i,k} c_{l,k} is the same for -c_{.,k}.  A time equal to 0
    returns the initial state itself, as :func:`dynamics.evolve` does."""
    n = J.n_ions
    _check_site(n, quench_site)
    check_phases(J, 0.0, float(np.abs(times).max(initial=0.0)))
    source = quench_site - 1
    if not _mirror_symmetric(J.values):
        amps = _spread(*np.linalg.eigh(J.values), source, times)
    else:
        h = n // 2
        symmetric, antisymmetric = _mirror_blocks(J.values)
        mirrored = min(source, n - 1 - source)
        amps = np.empty((times.size, n), dtype=complex)
        # the symmetric block's state j < h is (|j> + |N-1-j>) / sqrt(2)
        energies, c = np.linalg.eigh(symmetric)
        c[:h] *= np.sqrt(0.5)                           # a mode's value on site j
        amps[:, :n - h] = _spread(energies, c, mirrored, times)
        amps[:, n - h:] = amps[:, :h][:, ::-1]
        if mirrored != n - 1 - mirrored:                # off the mirror axis
            # (|j> - |N-1-j>) / sqrt(2): the source on the right half sees -c
            energies, c = np.linalg.eigh(antisymmetric)
            c *= np.sqrt(0.5)
            anti = _spread(energies, c, mirrored, times)
            if source != mirrored:
                anti *= -1.0
            amps[:, n - h:] -= anti[:, ::-1]
            amps[:, :h] += anti
    _check_normalized(amps)
    amps[times == 0.0] = np.eye(1, n, source)          # the initial state itself
    return amps


def _spread(energies: np.ndarray, c: np.ndarray, source: int,
            times: np.ndarray) -> np.ndarray:
    """(T, sites) sum_k c_{i,k} c_{source,k} exp(-i omega_k t) over the modes
    (columns) of ``c`` of the ``energies``, taken in descending energy."""
    energies, c = energies[::-1], c[:, ::-1]
    phases = np.exp(-1j * np.outer(times, energies))      # (T, modes)
    return (phases * c[source, :]) @ c.T


def _mirror_blocks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-excitation block J of a reflection-symmetric chain split into
    its (symmetric, antisymmetric) blocks under i -> N+1-i.

    With h = floor(N/2), A the top-left h x h block of J and BR its
    top-right block with the columns reversed, the antisymmetric block is
    A - BR on the states (|j> - |N-1-j>) / sqrt(2), j < h (0-based), and
    the symmetric block is A + BR on (|j> + |N-1-j>) / sqrt(2), bordered
    for odd N by the centre state |h>: [[A + BR, sqrt(2) c], [sqrt(2) c^T,
    J_hh]], with c the centre column's first h entries.  Their ceil(N/2)
    and floor(N/2) eigenvalues are together those of J.
    """
    n = values.shape[0]
    h = n // 2
    top, reversed_right = values[:h, :h], values[:h, ::-1][:, :h]
    symmetric = np.empty((n - h, n - h))
    np.add(top, reversed_right, out=symmetric[:h, :h])
    if n % 2:
        symmetric[:h, h] = symmetric[h, :h] = np.sqrt(2.0) * values[:h, h]
        symmetric[h, h] = values[h, h]
    return symmetric, top - reversed_right
