"""Sector-native state-vector dynamics under H_Ising or H_XY.

Hamiltonians (hbar = 1, everything in rad/s):

    H_Ising = sum_{i<j} J_ij sigma_i^x sigma_j^x + B sum_i sigma_i^z
    H_XY    = sum_{i<j} J_ij (sigma_i^+ sigma_j^- + sigma_i^- sigma_j^+)

For B >> max|J| the Ising model conserves the excitation number and its
one-excitation dynamics reduces to the XY model; the propagator here
is exact and lets that reduction be audited.

Basis convention: product sigma^z basis indexed by an integer b whose bit
(i-1) is the state of site i (site 1 = least significant bit); bit 1 means
spin up.  |down...down> is index 0.

H_XY conserves the excitation number (popcount of b) and H_Ising its
parity, so a quench from product states never leaves the conserved
blocks it starts in.  States and trajectories are sector-native: a
:class:`StateVector` or :class:`Trajectory` holds a sorted int64
``basis`` of product states and amplitudes on those states only.
``prepare_state`` holds a local quench on its one product state and a
global quench on all 2^N.  ``evolve`` widens the state to the conserved
blocks of H it reaches (the k-flip block for XY, the parity half for
Ising), so the Hamiltonian alone decides them, and refuses a quench that
reaches more than ``MAX_STATES`` states; an XY quench of 2 flips at
N = 40 reaches 780.  Basis states are int64 bit strings, so a chain has
at most ``MAX_BASIS_SITES`` = 63 sites.  When J is exactly symmetric
under the reflection i -> N+1-i, as for a power law or a nearest-neighbour
chain, H also commutes with reversing the bits of b, and each block
splits again into a + and a - mirror sector of about half its size.
``evolve`` assembles H directly on each sector the initial state reaches,
in the symmetry-adapted basis of its mirror representatives (Sandvik,
AIP Conf. Proc. 1297, 135 (2010)), and adds every propagated sector into
one (T, dim) array on the union of the reached blocks; observables read
spin values from the bits of the basis.  A global quench, or a flip of
the centre site of an odd chain, lies wholly in the + sector.  So a
one-flip XY quench is an N x N problem or smaller, a global XY quench a
set of about C(N, k)/2-state sectors, and an Ising quench one or two
sectors of about 2^(N-2) states (cf. the symmetry blocks of QuSpin,
Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).  Each sector is
assembled directly as CSR arrays, one row per representative, with
numpy alone.  Each sector then takes the propagator that a cost model
(``PROPAGATOR_COSTS``) expects to be cheaper, from its size, its stored
elements, a bound on its norm and the window: the dense
eigendecomposition of the array those fill, which is exact and costs
about d^3, or a Lanczos (Krylov) propagator on a scipy CSR matrix that
wraps the same arrays, whose order grows with ||H|| t (Hochbruck &
Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)).  So short windows on a
few hundred states or more go to Krylov, long windows on a few hundred
states to dense, and scipy is imported only when a sector goes to
Krylov; the paper's N = 7 quenches stay dense.  A Krylov propagation
grows one subspace of at most ``KRYLOV_ORDERS`` orders from the state
at the time reached so far; it serves every later output time it
converges for, and the next subspace starts from the last of them.  H
is real, so a real start (as every local quench has) spans a real
Krylov space, and its subspace runs in real arithmetic.  The order-m
Lanczos approximation leaves a defect (residual) of norm
delta(s) = beta_m |e_m^T exp(-i s T_m) e_1|, a rate in rad/s, and its
error after a step dt is at most the integral of delta over [0, dt], so
at most |dt| max_{s <= |dt|} delta(s) (Jawecki, Auzinger & Koch, BIT
Numer. Math. 60, 157 (2020); cf. Expokit, Sidje, ACM TOMS 24, 130
(1998)).  A subspace serves a time once that estimate, with the maximum
taken over the steps it evaluates, is below ``step_tol / 4``.  So the
error at an output time is at most the sum of the estimates of the
subspaces chained up to it: about ``step_tol / 4`` times their number,
which is smaller the more times each subspace serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

import numpy as np

from .ionchain import (CouplingMatrix, _check_normalized, _check_site, _frozen,
                       _mirror_symmetric)

#: Most basis states a quench may reach: 2^16, the full space of 16 sites.
#: A local XY quench of k flips reaches C(N, k) states, a local Ising quench
#: the 2^(N-1) states of one parity, a global quench all 2^N.
MAX_STATES = 1 << 16

#: Most bytes the complex (T, dim) amplitudes of one trajectory may take:
#: 1 GiB.  The largest quench of the size ladder, N = 16 Ising with site 8
#: flipped, holds 100 MB at 201 points, and its observables about twice
#: that on top; a window of 10^8 points on the 7 states of one flip at
#: N = 7 would take 10.4 GiB.
MAX_TRAJECTORY_BYTES = 1 << 30

#: Largest bound ||H|| max|t| on the phases of a quench, in rad: 2^32.  A
#: phase E t is computed to about 2^-52 of itself, so here its roundoff
#: reaches 2^-20 rad, about 1e-6; the 1e300 rad of a 1e300 Hz coupling
#: would keep no digit at all.  A global quench at N = 7 (B = 50 max|J|,
#: 5 ms) reaches about 340 rad, a local one at N = 16 over 20 ms 3 100.
MAX_PHASE = 2.0 ** 32

#: Basis states are int64 bit strings, so a chain has at most 63 sites.
MAX_BASIS_SITES = 63

#: The cost model by which :func:`_propagator` picks each sector's
#: propagator, in seconds per unit of work, measured with one BLAS thread
#: on a 2-core Xeon VM (numpy 2.4, scipy 1.17):
#:
#: ``eigh``     per d^3 of ``np.linalg.eigh`` on d states (2.0e-10 at
#:              d = 2080 to 2.9e-10 at d = 528)
#: ``product``  per multiply-add of the real (d x k) @ (k x T) products
#:              that lay out T times, k = d eigenvectors or m orders
#: ``phase``    per complex exponential of a phase
#: ``matvec``   per stored element of H in one real CSR product
#: ``order``    per Lanczos order, the Python of one step
#: ``reorth``   per order and row of the subspace, its reorthogonalization
#: ``test``     per order and row of the subspace, the ``eigh_tridiagonal``
#:              of a convergence test every 4 orders from order 4; the
#:              tests now start near the predicted order
#:              (``FIRST_TEST_FRACTION``), so this term over-counts them
#:              until it is refitted on the benchmark's size ladder
#: ``orders``   a count: m = orders (G t)^0.3 d^0.15 Lanczos orders for
#:              the longest time t of a sector whose largest absolute row
#:              sum is G, fitted within 15% to 28 sectors of Ising quenches
#:              at B = 50 max|J| (N = 9 to 13, G t = 106 to 2 119 rad, 56 to
#:              176 orders) and of XY quenches (N = 12, 13, 16, 24 to 52)
#:
#: Dense costs eigh d^3 + T d (phase + product d).  A subspace of m orders
#: costs m (matvec nnz + order) + (reorth d + test) m^2 / 2, and its times
#: T m (phase + product d).  Where m passes ``KRYLOV_ORDERS``, the window
#: is split into s equal subspaces, the s - 1 after the first in complex
#: arithmetic at about twice the cost.  Dense against Krylov for both
#: sectors of a global quench, ``evolve`` alone (best of 3, alpha = 1.5,
#: B = 50 max|J|, 201 points unless stated): N = 9 to 5 ms 0.009 against
#: 0.018 s; N = 10 to 5 ms 0.025 against 0.025 s; N = 11 to 5 ms (G t =
#: 530) 0.099 against 0.058 s, to 50 ms 0.121 against 0.350 s; N = 10,
#: alpha = 1.0, 801 points to 50 ms 0.059 against 0.176 s; N = 12 to 5 ms
#: 0.65 against 0.083 s.  The model takes the faster side of each, and
#: dense at the tie.
PROPAGATOR_COSTS = {"eigh": 2.2e-10, "product": 1e-10, "phase": 4e-8, "matvec": 1e-9,
                    "order": 1.5e-5, "reorth": 6e-10, "test": 1.25e-6, "orders": 6.0}

#: Most Lanczos orders one Krylov subspace grows to before the interval
#: it has to cover is halved.  Measured with one BLAS thread on a 2-core
#: Xeon VM, Ising at B = 50 max|J|, centre flip, matvecs per quench and
#: evolve time summed over the exponents, at caps 96 / 200 / 256:
#: N = 13, 51 points to 10 ms, the 11 exponents of the benchmark's
#: ``ALPHA_GRID`` (1.0 to 2.0): 268-288 / 160-176 / 160-176 matvecs (one
#: subspace from 176 orders on), 2.56 / 2.05 / 2.05 s; N = 15, same window
#: and exponents: 432-552 / 272-316 / 216-256 matvecs, 18.9 / 13.7 /
#: 12.4 s; N = 16, flip 8, 201 points to 20 ms, alpha = 1.0, 1.3, 1.6,
#: 2.0: 1920-2448 / 1068-1352 / 916-1196 matvecs, 56.5 / 45.9 / 54.6 s
#: (a cap of 320 took 55.1 s): past about 200 orders the full
#: reorthogonalization, quadratic in the order, costs more than the
#: matvecs it saves.  N = 17, 3 points to 1 ms, takes 80-88 matvecs at any
#: cap.  The (KRYLOV_ORDERS + 1, dim) buffer is touched only as far as a
#: subspace grows.
KRYLOV_ORDERS = 200


#: Where a Lanczos subspace first tests its convergence, as a fraction of
#: the orders :func:`_lanczos_orders` predicts for its longest step: about
#: the lower envelope of the orders accepted.  Over 83 subspaces (Ising at
#: B = 50 max|J|, N = 9 to 13, global to 5 ms and centre flip to 10 ms,
#: N = 12 to 20 ms; XY, N = 16 and 24, 2 and 3 flips to 20 ms; alpha = 1.0,
#: 1.5, 2.0) the accepted order was 0.70 to 1.22 times the predicted one,
#: median 0.99, and 0.95 to 1.09 in the benchmark's two Ising jobs at every
#: exponent.  With the first test at 0.85 of the prediction, rounded up to a
#: multiple of 4, 72 of the 83 first tests lie at or below the accepted
#: order; the other 11 (N = 9 and 12, accepting 0.70 to 0.83) step back
#: with no matvec and grow 4 to 12 orders past the one they accept.  At
#: 0.8, a pass of the benchmark's Ising jobs took up to 22 decompositions
#: (18 at 0.85); from order 4, 88 to 94.
FIRST_TEST_FRACTION = 0.85


class PropagatorError(RuntimeError):
    """Raised when the Krylov propagator cannot meet its error target."""


@dataclass(frozen=True)
class StateVector:
    """Pure state on the sorted product-basis states ``basis`` (site 1 =
    least significant bit); ``amplitudes[k]`` belongs to ``basis[k]`` and
    every state outside ``basis`` has amplitude 0.  Both arrays are kept
    read-only: a writable input is copied, a read-only one (a row of a
    :class:`Trajectory`) is shared."""

    amplitudes: np.ndarray
    n_sites: int
    basis: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex))
        if amps.ndim != 1:
            raise ValueError(f"expected one row of amplitudes, got shape {amps.shape}")
        _check_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "basis", _checked_basis(self.basis, self.n_sites, amps.size))


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a time grid; row t of ``states`` holds the
    amplitudes of |psi(times[t])> on the sorted product states ``basis``,
    as in :class:`StateVector`.  ``states`` is kept as a read-only view,
    not copied."""

    times: np.ndarray
    states: np.ndarray
    n_sites: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _read_only_view(np.array(self.times, float)))
        states = _read_only_view(np.asarray(self.states, dtype=complex))
        if states.ndim != 2 or states.shape[0] != self.times.size:
            raise ValueError(f"expected {self.times.size} rows of amplitudes, got shape "
                             f"{states.shape}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "basis", _checked_basis(self.basis, self.n_sites,
                                                         states.shape[1]))

    def state(self, index: int) -> StateVector:
        """Row ``index`` as a StateVector sharing this trajectory's
        read-only arrays (nothing is copied)."""
        return StateVector(self.states[index], self.n_sites, self.basis)


def _read_only_view(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _checked_basis(basis, n: int, dim: int) -> np.ndarray:
    """``basis`` as a read-only int64 array (copied if it was writable);
    raises ValueError unless it is ``dim`` strictly increasing states of n
    sites, one per amplitude."""
    _check_sites_fit(n)
    basis = _frozen(np.asarray(basis, dtype=np.int64))
    if basis.shape != (dim,):
        raise ValueError(f"expected one amplitude per basis state, got {dim} "
                         f"amplitudes for a basis of shape {basis.shape}")
    if dim and (basis[0] < 0 or basis[-1] >> n) or np.any(basis[1:] <= basis[:-1]):
        raise ValueError(f"basis must be strictly increasing states of {n} sites")
    return basis


def _check_sites_fit(n: int) -> None:
    if n > MAX_BASIS_SITES:
        raise ValueError(f"N={n} is above the {MAX_BASIS_SITES} sites an int64 basis "
                         f"state holds")


def _check_states(n: int, count: int) -> None:
    """The one size guard: ValueError if ``count`` basis states of an
    N = ``n`` chain are more than ``MAX_STATES``, or if N is more than
    ``MAX_BASIS_SITES``."""
    _check_sites_fit(n)
    if count > MAX_STATES:
        raise ValueError(f"N={n} reaches {count} basis states, above the limit of "
                         f"{MAX_STATES} states")


class Hamiltonian:
    """Immutable operator handle for H_Ising or H_XY.

    Holds the ingredients (couplings, field, model) and the real matrix
    elements (rad/s) as CSR arrays ``(data, indices, indptr)`` (see
    :func:`_assemble`), either of one mirror sector (built by
    :func:`evolve`) or of the full 2^N space.  The full-space arrays are
    assembled only when first used, and only up to ``MAX_STATES`` states;
    ``evolve`` never needs them.  :meth:`eigensystem` fills a dense array
    from them; :meth:`matvec` wraps them, unsorted and uncopied, in a scipy
    CSR matrix on first use, and only then is ``scipy.sparse`` imported.
    """

    def __init__(self, csr: tuple | None, n_sites: int, model: str,
                 transverse_field: float, coupling: CouplingMatrix):
        self._arrays = csr
        self._csr = None
        self.n_sites = n_sites
        self.model = model
        self.transverse_field = transverse_field
        self.coupling = coupling

    @property
    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            _check_states(self.n_sites, 1 << self.n_sites)
            self._arrays = _assemble(self, np.arange(1 << self.n_sites))
        return self._arrays

    @property
    def _matrix(self):
        """The scipy CSR matrix of the arrays, built on first use."""
        if self._csr is None:
            import scipy.sparse as sp
            self._csr = sp.csr_matrix(self._csr_arrays, shape=(self.dim, self.dim))
        return self._csr

    @property
    def dim(self) -> int:
        return 1 << self.n_sites if self._arrays is None else self._arrays[2].size - 1

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """H @ psi, a complex psi as two real products (:func:`_real_matmul`)."""
        if not np.iscomplexobj(psi):
            return self._matrix @ psi
        return _real_matmul(self._matrix, psi)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense eigendecomposition (energies, eigenvectors)."""
        data, indices, indptr = self._csr_arrays
        dense = np.zeros((self.dim, self.dim))
        dense[np.repeat(np.arange(self.dim), np.diff(indptr)), indices] = data
        return np.linalg.eigh(dense)


def build_hamiltonian(J: CouplingMatrix, transverse_field: float = 0.0,
                      model: str = "ising") -> Hamiltonian:
    """The Hamiltonian handle; matrices are assembled on first use, so
    any N is accepted (the size guard acts on the states a quench reaches,
    see :func:`evolve`).

    Parameters
    ----------
    J : CouplingMatrix
        Couplings in rad/s.
    transverse_field : float
        B in rad/s; only the Ising model uses it.
    model : {'ising', 'xy'}
    """
    if model not in ("ising", "xy"):
        raise ValueError(f"model must be 'ising' or 'xy', got {model!r}")
    return Hamiltonian(None, J.n_ions, model, transverse_field, J)


#: Coupling targets computed at once per block of rows in :func:`_assemble`,
#: which bounds its temporaries to a few MB whatever the sector size.
_ASSEMBLY_CHUNK = 1 << 16


def _assemble(H: Hamiltonian, basis: np.ndarray, partner: np.ndarray | None = None,
              rep: np.ndarray | None = None, sign: float = 1.0
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(data, indices, indptr)`` of H on the sorted basis
    states ``basis``, or on the mirror sector (``partner``, ``rep``,
    ``sign``) of them (see :func:`_mirror_sectors`); without a sector, on
    ``basis`` itself.  Row m belongs to the representative ``rep[m]``; the
    columns of a row are sorted and distinct, and the index arrays int32
    (``MAX_STATES`` keeps every index and count below 2^31).

    Row m takes the targets of every coupling J_ij at once: the
    representative with bits i and j flipped (only antiparallel ones for
    XY).  A target's index in ``basis`` is ``b >> 1`` in an Ising parity
    half, ``b`` in the full space, and found by binary search otherwise;
    the index is mapped on to the representative of its pair.  The element
    is J_ij, times ``sign`` if the target is the mirror image of that
    representative, times sqrt(orbit[rep[m]] / orbit[target]), the orbit
    being 2 for a pair and 1 for a palindrome; a palindrome has no state
    in the - sector, so targets there are dropped.  This is the column of
    ``rep[m]``, which equals its row bit for bit: H is symmetric, an
    element sums at most two terms, and a palindrome row's two halves of
    sqrt(2) J sum exactly.  Entries are sorted within the row by column,
    ties in coupling-pair order (one sort of the column and the term's
    slot packed in one key, which is a stable argsort), and duplicates
    summed in that order, the Ising field last, so the arrays equal
    scipy's ``coo_matrix(...).tocsr()`` of the same terms.  The rows are
    built a block at a time (``_ASSEMBLY_CHUNK`` terms).  Raises
    ValueError if a target is not in ``basis``.
    """
    n, J = H.n_sites, H.coupling.values
    every = np.arange(basis.size)
    if partner is None:
        partner = rep = every
    orbit = np.where(partner == every, 1.0, 2.0)
    row_of = np.full(basis.size, -1)
    row_of[rep] = np.arange(rep.size)
    i, j = np.nonzero(np.triu(J, 1))                   # pair order: by i, then j
    masks, couplings = (1 << i) | (1 << j), J[i, j]
    index = _index_of(basis, n)
    field = int(H.model == "ising" and H.transverse_field != 0.0)
    width = masks.size + field
    shift = max(width - 1, 1).bit_length()             # a column and its slot in one key
    slots = np.arange(width)
    data = np.empty(rep.size * width)                  # at most width terms per row
    indices = np.empty(rep.size * width, dtype=np.int32)
    indptr = np.zeros(rep.size + 1, dtype=np.int32)
    step = max(1, _ASSEMBLY_CHUNK // max(width, 1))
    for start in range(0, rep.size, step):
        rows = rep[start:start + step]
        states = basis[rows][:, None]
        target = states ^ masks
        if H.model == "xy":                             # antiparallel pairs only
            flips = (((states >> i) ^ (states >> j)) & 1).astype(bool)
            target = np.where(flips, target, states)    # dropped below
        dst = index(target)
        if np.any(basis[dst] != target):
            raise ValueError("the Hamiltonian couples the block to states outside it")
        own = np.minimum(dst, partner[dst])
        col = np.empty((rows.size, width), dtype=np.int64)
        value = np.empty((rows.size, width))
        col[:, :masks.size] = row_of[own]
        value[:, :masks.size] = (couplings * np.where(own == dst, 1.0, sign)
                                 * np.sqrt(orbit[rows][:, None] / orbit[own]))
        if H.model == "xy":
            col[:, :masks.size][~flips] = -1
        if field:
            col[:, -1] = np.arange(start, start + rows.size)
            value[:, -1] = H.transverse_field * (2 * _popcount(states[:, 0], n) - n)
        col[col < 0] = rep.size                         # dropped: sorts last
        key = (col << shift) | slots                    # distinct keys: a stable order
        key.sort(axis=1)
        col = key >> shift
        value = np.take_along_axis(value, key & ((1 << shift) - 1), axis=1)
        kept = col < rep.size
        first = kept.copy()
        first[:, 1:] &= col[:, 1:] != col[:, :-1]
        sums = value[first]
        repeat = kept & ~first                          # a column two terms reach
        if repeat.any():
            np.add.at(sums, np.cumsum(first)[repeat.ravel()] - 1, value[repeat])
        nnz = indptr[start]
        data[nnz:nnz + sums.size] = sums
        indices[nnz:nnz + sums.size] = col[first]
        indptr[start + 1:start + rows.size + 1] = nnz + np.cumsum(np.count_nonzero(first, 1))
    data.resize(indptr[-1], refcheck=False)            # in place, no view is alive
    indices.resize(indptr[-1], refcheck=False)
    return data, indices, indptr


def _index_of(basis: np.ndarray, n: int):
    """The map from states of n sites to their index in the sorted
    ``basis``: ``b`` if it holds all 2^n states, ``b >> 1`` if it is a
    parity half (one state of each pair 2k, 2k + 1, all of one parity, so
    a two-bit flip stays in it), else a binary search (clipped; the caller
    checks what it finds)."""
    if basis.size == 1 << n:
        return lambda b: b
    if basis.size << 1 == 1 << n and basis[0] < 2 and np.array_equal(
            basis, _parity_half(n, int(basis[0]))):
        return lambda b: b >> 1
    return lambda b: np.searchsorted(basis, b).clip(max=basis.size - 1)


def prepare_state(n: int, flipped_sites=None) -> StateVector:
    """Initial state of a quench of n sites on its own support.  With no
    ``flipped_sites`` it is a global quench, every spin in
    (|down> + |up>)/sqrt(2): all 2^n basis states.  Otherwise it is a local
    quench, the listed 1-based sites flipped up on the all-down background:
    one basis state.  :func:`evolve` widens it to the conserved blocks the
    Hamiltonian takes it through.  Raises ValueError if the sites are none,
    repeated or outside 1..n, or, naming n, the number of states and the
    limit, if a global quench has more than ``MAX_STATES`` states; nothing
    of that size is allocated first."""
    if flipped_sites is None:
        _check_states(n, 1 << n)
        return StateVector(np.full(1 << n, 2.0 ** (-n / 2), dtype=complex), n,
                           np.arange(1 << n))
    sites = tuple(int(s) for s in flipped_sites)
    if not sites or len(set(sites)) != len(sites):
        raise ValueError(f"a local quench needs one or more distinct flipped sites, got {sites}")
    for s in sites:
        _check_site(n, s)
    return StateVector(np.ones(1, dtype=complex), n, [sum(1 << (s - 1) for s in sites)])


def _block_labels(basis: np.ndarray, H: Hamiltonian) -> np.ndarray:
    """The conserved block of each basis state: its excitation number
    under H_XY, its parity under H_Ising."""
    labels = _popcount(basis, H.n_sites)
    return labels if H.model == "xy" else labels & 1


def _block_basis(H: Hamiltonian, label: int) -> np.ndarray:
    """The sorted states of conserved block ``label`` (see
    :func:`_block_labels`): the C(N, k)-state k-flip block of H_XY or the
    2^(N-1)-state parity half of H_Ising."""
    if H.model == "xy":
        return _excitation_block(H.n_sites, label)
    return _parity_half(H.n_sites, label)


def _parity_half(n: int, parity: int) -> np.ndarray:
    """The sorted 2^(n-1) states of n sites with ``parity`` spins up mod 2:
    state k is 2k or 2k + 1, whichever has that parity."""
    half = np.arange(1 << (n - 1))
    return (half << 1) | ((_popcount(half, n - 1) & 1) ^ parity)


def _excitation_block(n: int, k: int) -> np.ndarray:
    """The sorted states of n sites with k spins up, by the recurrence
    S(m, j) = S(m-1, j) U (S(m-1, j-1) + 2^(m-1)), whose second part lies
    wholly above the first."""
    blocks = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * k
    for m in range(n):
        for j in range(min(k, m + 1), 0, -1):
            blocks[j] = np.concatenate([blocks[j], blocks[j - 1] + (1 << m)])
    return blocks[k]


def reached_blocks(state: StateVector, H: Hamiltonian) -> tuple[np.ndarray, int]:
    """(labels, size): the conserved blocks of H that ``state`` reaches
    (see :func:`_block_labels`) and their number of basis states, the
    width of the trajectory :func:`evolve` returns.  Raises ValueError,
    naming N, the number of states and the limit, if that is more than
    ``MAX_STATES``."""
    n = H.n_sites
    labels = np.unique(_block_labels(state.basis[state.amplitudes != 0], H))
    size = (sum(comb(n, int(k)) for k in labels) if H.model == "xy"
            else labels.size << (n - 1))
    _check_states(n, size)
    return labels, size


def check_trajectory(n_times: int, n_states: int, correlated_sites: int = 0) -> None:
    """Raises ValueError, naming both counts, the size and the limit, if the
    complex amplitudes of ``n_times`` states on ``n_states`` basis states,
    with the real N x N correlations of each state where N =
    ``correlated_sites`` is given, take more than ``MAX_TRAJECTORY_BYTES``."""
    size = n_times * (16 * n_states + 8 * correlated_sites ** 2)
    if size > MAX_TRAJECTORY_BYTES:
        raise ValueError(f"{n_times} times on {n_states} basis states take {size / 2 ** 30:.3g} "
                         f"GiB of amplitudes{' and correlations' if correlated_sites else ''}, "
                         f"above the limit of {MAX_TRAJECTORY_BYTES / 2 ** 30:.3g} GiB")


def check_phases(coupling: CouplingMatrix, transverse_field: float, span: float) -> None:
    """Raises ValueError, naming the bound and the limit, if the phases of
    the Hamiltonian of ``coupling`` and ``transverse_field`` (rad/s) over
    times up to ``span`` (s) from the start can pass ``MAX_PHASE``: their
    bound is sum_{i<j} |J_ij| + N |B| times ``span``, taken from the
    couplings before anything is assembled.  For H_Ising this is its norm
    bound, the largest absolute row sum of the whole space, which bounds
    every sector; H_XY and its one-excitation block take B = 0."""
    with np.errstate(over="ignore", invalid="ignore"):      # an infinite bound is refused
        upper = np.abs(np.triu(coupling.values, 1)).sum() + coupling.n_ions * abs(transverse_field)
        phase = upper * abs(span)
    if span and not phase <= MAX_PHASE:
        raise ValueError(f"the phases ||H|| max|t| reach {phase:.3g} rad, above the "
                         f"{MAX_PHASE:.3g} rad at which their roundoff, 2^-52 of "
                         f"themselves, passes 1e-6 rad")


def _on_reached_blocks(state: StateVector, H: Hamiltonian):
    """(labels, basis, amplitudes): the conserved blocks of H that ``state``
    reaches, the sorted union of their states and the state on it.
    Raises ValueError, naming N, the number of states and the limit,
    before enumerating more than ``MAX_STATES`` states."""
    labels = reached_blocks(state, H)[0]
    nonzero = state.amplitudes != 0
    basis = np.sort(np.concatenate([_block_basis(H, int(k)) for k in labels]))
    amps = np.zeros(basis.size, dtype=complex)
    amps[np.searchsorted(basis, state.basis[nonzero])] = state.amplitudes[nonzero]
    return labels, basis, amps


def evolve(state: StateVector, H: Hamiltonian, times: np.ndarray,
           method: str = "auto", step_tol: float = 1e-9) -> Trajectory:
    """Propagate |psi(t)> = exp(-i H t) |psi(0)> onto the output times.

    The state is widened to the conserved blocks of H it reaches
    (excitation number for H_XY, parity for H_Ising), which H decides, so
    a state from :func:`prepare_state` suits either model.  Each block is
    split into its mirror sectors when J is reflection symmetric
    (:func:`_mirror_sectors`).  Each sector the state reaches is assembled
    on its representatives, propagated on its own and added back, as the
    two halves of its symmetric or antisymmetric pairs, into the rows of
    one (dim, T) array on the sorted union of the reached blocks, whose
    (T, dim) transpose the returned :class:`Trajectory` shares.  The
    phases are checked first (:func:`check_phases`).  ``method='dense'``
    uses the sector's exact eigendecomposition (no propagation error).
    ``method='krylov'`` uses
    Lanczos subspaces, each serving the output times whose error bound
    estimate, the step |dt| times the largest Lanczos defect over the
    steps up to it, is below ``step_tol / 4``, and handing its last state
    to the next one; the error at an output time is at most the sum of
    these estimates over the subspaces chained up to it, so fewer
    subspaces give a smaller sum.  ``'auto'`` picks, per sector, the one
    the cost model of ``PROPAGATOR_COSTS`` expects to be cheaper
    (:func:`_propagator`), so the same sector and window always take the
    same path.  Either way a time equal to 0 returns the initial state
    itself.

    Raises ValueError, naming N, the number of states and the limit, if
    the reached blocks hold more than ``MAX_STATES`` states, or naming
    the bound and the limit if the phases pass ``MAX_PHASE``, and
    PropagatorError if a Krylov subspace cannot meet ``step_tol`` even
    after repeated halving of the interval to the next output time.
    """
    if state.n_sites != H.n_sites:
        raise ValueError(f"state of {state.n_sites} sites, Hamiltonian of {H.n_sites}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    check_phases(H.coupling, H.transverse_field if H.model == "ising" else 0.0,
                 float(np.abs(times).max(initial=0.0)))

    reached, basis, amps = _on_reached_blocks(state, H)
    check_trajectory(times.size, basis.size)
    basis.flags.writeable = False
    labels = _block_labels(basis, H)
    states = np.zeros((basis.size, times.size), dtype=complex)     # a row per state
    for label in reached:
        block = np.flatnonzero(labels == label)
        for partner, rep, sign in _mirror_sectors(H, basis[block]):
            # a palindrome is its own partner, so both terms fall on it
            half = np.where(partner[rep] == rep, 0.5, np.sqrt(0.5))
            mine, theirs = block[rep], block[partner[rep]]
            psi = half * (amps[mine] + sign * amps[theirs])
            if not psi.any():
                continue
            sector = Hamiltonian(_assemble(H, basis[block], partner, rep, sign), H.n_sites,
                                 H.model, H.transverse_field, H.coupling)
            propagated = _propagate_block(sector, psi, times, method, step_tol).T
            propagated *= half[:, None]
            states[mine] += propagated
            states[theirs] += sign * propagated
            del sector, propagated                  # before the next sector is built
    states[:, times == 0.0] = amps[:, None]
    return Trajectory(times=times, states=states.T, n_sites=H.n_sites, basis=basis)


def _mirror_sectors(H: Hamiltonian,
                    basis: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The mirror sectors of a conserved block, each as index arrays
    (partner, rep, sign).

    If the couplings H reads, J_ij for i < j, are exactly symmetric under
    the reflection i -> N+1-i (the field is uniform), H commutes with
    reversing the N bits of every basis state.  ``partner[k]`` is then the
    index of the reversed ``basis[k]``, and sector state m is
    (|basis[rep[m]]> + sign |basis[partner[rep[m]]]>) / sqrt(2), or
    |basis[rep[m]]> for a palindrome: the + sector (sign 1) holds every
    palindrome and the smaller state of every reversed pair, the - sector
    (sign -1) the smaller state of every pair.  Otherwise the only sector
    is the block itself, with ``partner = rep = arange``.
    ``basis`` must be closed under reflection, as every conserved block is.
    """
    every = np.arange(basis.size)
    if not _mirror_symmetric(H.coupling.values):
        return [(every, every, 1.0)]
    mirror = np.zeros_like(basis)
    for i in range(H.n_sites):
        mirror |= ((basis >> i) & 1) << (H.n_sites - 1 - i)
    partner = np.searchsorted(basis, mirror)
    return [(partner, np.flatnonzero(partner >= every), 1.0),
            (partner, np.flatnonzero(partner > every), -1.0)]


def _propagate_block(H: Hamiltonian, psi: np.ndarray, times: np.ndarray,
                     method: str, step_tol: float) -> np.ndarray:
    """(T, dim) amplitudes of exp(-i H t) psi within one block or sector;
    ``method='auto'`` takes :func:`_propagator`'s choice."""
    data, _, indptr = H._csr_arrays
    norm = _row_sum_bound(data, indptr)
    if method == "auto":
        method = _propagator(H.dim, data.size, norm, float(np.abs(times).max(initial=0.0)),
                             times.size)[0]
    if method == "dense":
        energies, vectors = H.eigensystem()
        modes = _real_matmul(vectors.T, psi)
        return _real_matmul(vectors, np.exp(-1j * np.outer(energies, times))
                            * modes[:, None]).T
    return _krylov_trajectory(H.matvec, psi, times, step_tol, norm=norm)


def _propagator(dim: int, nnz: int, norm: float, span: float,
                n_times: int) -> tuple[str, str]:
    """("dense" or "krylov", reason): the cheaper propagator of a sector of
    ``dim`` states and ``nnz`` stored elements whose norm is at most
    ``norm`` (rad/s), over ``n_times`` output times up to ``span`` (s)
    from the start, by the cost model of :data:`PROPAGATOR_COSTS`."""
    c = PROPAGATOR_COSTS
    dense = c["eigh"] * dim ** 3 + n_times * dim * (c["phase"] + c["product"] * dim)
    reach = norm * span
    orders = _lanczos_orders(reach, dim)
    subspaces = max(1, ceil((orders / KRYLOV_ORDERS) ** (1 / 0.3)))
    orders /= subspaces ** 0.3                      # each covers 1/subspaces of the window
    subspace = (orders * (c["matvec"] * nnz + c["order"])
                + (c["reorth"] * dim + c["test"]) * orders ** 2 / 2)
    krylov = ((2 * subspaces - 1) * subspace
              + n_times * orders * (c["phase"] + c["product"] * dim))
    choice, other = ("dense", "krylov") if dense <= krylov else ("krylov", "dense")
    return choice, (f"{choice}: about {min(dense, krylov):.2g} s, against "
                    f"{max(dense, krylov):.2g} s for {other}; {subspaces} Lanczos "
                    f"subspace(s) of about {orders:.0f} orders for ||H|| t <= {reach:.3g} rad")


def _lanczos_orders(reach: float, dim: int) -> float:
    """The Lanczos orders a subspace of ``dim`` states needs to reach
    ``reach`` = G t rad, by the fit of :data:`PROPAGATOR_COSTS`: at least
    4, else orders (G t)^0.3 d^0.15."""
    return max(4.0, PROPAGATOR_COSTS["orders"] * reach ** 0.3 * dim ** 0.15)


def _row_sum_bound(data: np.ndarray, indptr: np.ndarray) -> float:
    """The largest absolute row sum of CSR arrays, a bound on the norm of
    the symmetric matrix they hold (Gershgorin); 0 if nothing is stored.
    Empty rows at the end are left out, and an empty row before a stored
    element sums to that element, at most its own row's sum, so the
    largest is exact."""
    starts = indptr[:-1][indptr[:-1] < data.size]
    return float(np.add.reduceat(np.abs(data), starts).max()) if data.size else 0.0


def _real_matmul(a, b: np.ndarray) -> np.ndarray:
    """a @ b for a real (dense or sparse) matrix a and a complex array b,
    as two real products: letting numpy or scipy upcast a to complex
    copies it and about doubles the cost."""
    out = np.empty(a.shape[:1] + b.shape[1:], dtype=complex)
    out.real = a @ b.real
    out.imag = a @ b.imag
    return out


def _krylov_trajectory(matvec, psi: np.ndarray, times: np.ndarray, tol: float,
                       m_max: int = KRYLOV_ORDERS, max_splits: int = 40,
                       norm: float | None = None) -> np.ndarray:
    """(T, dim) amplitudes of exp(-i H t) psi for real symmetric H, from t = 0.

    One Lanczos subspace of at most ``m_max`` orders (``KRYLOV_ORDERS``),
    grown from the state at the time reached so far, serves every pending
    output time it converges for (:func:`_lanczos_subspace`); the next
    subspace starts from the last of them.  Given ``norm``, a bound G on
    the norm of H (rad/s), each subspace tests its convergence first at
    ``FIRST_TEST_FRACTION`` of the orders :func:`_lanczos_orders` predicts
    for G times its longest step; without it, from order 4.  Either way the
    orders and states are the same wherever passing the test is monotone in
    the order.  A subspace runs in the dtype of
    its start state: one with no imaginary part, as a local quench starts,
    spans a real Krylov space, so it is built in real arithmetic (one real
    matvec and real reorthogonalization per order); a complex one as
    complex.  When no time converges within ``m_max`` orders, the first
    interval is halved: from then on the subspaces also try stops at h, 2h,
    4h, ... short of the next output time, h being the last step that
    converged, and restart from the furthest time that converges.  The
    subspace that stalled is kept and its convergence test replayed for
    the shorter stops, so a halving costs no matvec.  Every subspace is
    built in one (m_max + 1, dim) buffer of its dtype, whose rows are
    touched only as the subspace grows; a complex buffer replaces the real
    one, never joins it.
    """
    states = np.empty((times.size, psi.size), dtype=complex)
    buffer = subspace = None
    t_now, k, h, splits = 0.0, 0, np.inf, 0
    while k < times.size:
        gap = times[k] - t_now
        stops = []
        while h * 2 ** len(stops) < abs(gap):
            stops.append(np.copysign(h * 2 ** len(stops), gap))
        dts = np.concatenate([stops, times[k:] - t_now])
        if subspace is None:
            start = psi if psi.imag.any() else psi.real
            if buffer is None or buffer.dtype != start.dtype:
                buffer = None                   # freed before its successor is allocated
                buffer = np.empty((m_max + 1, psi.size), dtype=start.dtype)
            subspace = _Lanczos(matvec, start, buffer)
        first_test = 4 if norm is None else ceil(
            FIRST_TEST_FRACTION * _lanczos_orders(norm * np.abs(dts).max(), psi.size))
        Y, V, _ = _lanczos_subspace(subspace, dts, tol, first_test)
        done = Y.shape[1]
        if done == 0:                           # the same subspace, tested for shorter stops
            splits += 1
            if splits > max_splits:
                raise PropagatorError(
                    f"Krylov propagation of a {psi.size}-state sector stalled at "
                    f"t = {t_now:.6g} s, short of the output time {times[k]:.6g} s: "
                    f"error target {tol:g} not met at subspace dimension {m_max} "
                    f"after {max_splits} step halvings")
            h = min(h, abs(gap)) / 2
            continue
        subspace = None
        if dts[done - 1] != 0.0:                # a repeated time sets no step
            h = abs(dts[done - 1])
        reached = done - len(stops)
        if reached > 0:
            states[k:k + reached] = _combine(Y[:, len(stops):], V)
            k += reached
            t_now, psi = times[k - 1], states[k - 1]
        else:
            t_now, psi = t_now + dts[done - 1], _combine(Y[:, -1], V)
    return states


def _combine(Y: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``Y.T @ V``: the states whose coefficients on the Lanczos basis
    ``V`` are the columns of Y; a real V as two real products
    (:func:`_real_matmul`), not as a complex copy of it."""
    return Y.T @ V if np.iscomplexobj(V) else _real_matmul(V.T, Y).T


class _Lanczos:
    """The Lanczos basis of one start state, grown an order at a time
    (:meth:`grow`) in the rows of the buffer ``V``, whose dtype the start
    shares: a real start under a real H has a real Krylov space.  For each
    of the ``orders`` built so far, ``alpha`` holds the diagonal of the
    Lanczos matrix and ``beta`` the norm of the residual (the off-diagonal,
    and for the last order the scale of the defect); ``norm`` is the norm
    of the start.  ``tested`` maps each order whose convergence was tested
    to the eigenvalues of its Lanczos matrix and the first and last rows of
    its eigenvectors, all a replayed test reads."""

    def __init__(self, matvec, psi: np.ndarray, V: np.ndarray):
        self.matvec, self.V, self.orders, self.tested = matvec, V, 0, {}
        self.norm = np.linalg.norm(psi)
        V[0] = psi / self.norm
        self.alpha = np.empty(V.shape[0] - 1)
        self.beta = np.empty(V.shape[0] - 1)

    def grow(self) -> None:
        """Builds order ``orders``: one matvec, fully reorthogonalized
        against the rows so far (the subspace is small).  The residual goes
        to the next row and is normalized only when the order after it is
        built: a breakdown (beta about 0) ends the subspace first."""
        m, V, alpha, beta = self.orders, self.V, self.alpha, self.beta
        if m > 0:
            V[m] /= beta[m - 1]
        w = self.matvec(V[m])
        alpha[m] = np.real(np.vdot(V[m], w))
        w = w - alpha[m] * V[m]
        if m > 0:
            w = w - beta[m - 1] * V[m - 1]
        w -= V[:m + 1].T @ (V[:m + 1] @ w.conj()).conj()    # reorthogonalize
        beta[m] = np.linalg.norm(w)
        V[m + 1] = w
        self.orders = m + 1


def _lanczos_subspace(lanczos: _Lanczos, dts: np.ndarray, tol: float,
                      start: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lanczos approximations of exp(-i dt H) psi, psi the start of
    ``lanczos``, for the leading ``dts`` that converge in its subspace,
    grown as far as the test needs (``m_max`` is its buffer's row count
    minus one).

    Returns (Y, V[:m + 1], estimates) at the final order m: the
    propagated states are the rows of ``Y.T @ V[:m + 1]``, one per
    converged time, so Y has 0 columns if none converged, and
    ``estimates`` bounds the error of each of them.  The order-m
    approximation leaves the defect delta(s) = beta_m |last component of
    exp(-i s T_m) e_1| (a rate), whose integral over the step bounds the
    error, so the estimate at dt is |dt| times the largest delta among
    the steps of ``dts`` no longer than |dt|; a time converges when that
    is below tol / 4.  The defects of all steps come from one
    eigendecomposition of T_m, taken only at orders that are multiples of
    4, at a breakdown (then the subspace is invariant and exact) and at
    ``m_max``.  A test passes when every time converges; a breakdown
    always passes, and ``m_max`` returns the times that converge there.
    The subspace grows an order at a time and checks every order for a
    breakdown, but it tests convergence first at ``start`` (rounded up to
    a multiple of 4, at least 4, at most ``m_max``), then every 4 orders
    up until a test passes.  If that first test passes, it tests again 4
    orders lower, with no matvec, until a test fails, and accepts the
    lowest order that passed.  So wherever passing is monotone in the
    order, the order, states and estimates are those of testing every 4
    orders from order 4, bit for bit, with fewer decompositions.  Orders
    already built are not built again, nor tested orders decomposed again:
    on a subspace that stalled, the test is replayed at the same orders for
    other ``dts`` from ``lanczos.tested``, and only an order that returns
    a state is decomposed once more, for its whole eigenvectors; the result
    is what a rebuilt subspace would give, bit for bit.  An order that
    certainly fails at the longest step (:func:`_fails_at`) skips the
    (orders x steps) phases of the full test, which would fail too.
    """
    from scipy.linalg import eigh_tridiagonal     # on first use: dense sectors need no scipy

    V, alpha, beta = lanczos.V, lanczos.alpha, lanczos.beta
    m_max = V.shape[0] - 1
    steps = np.abs(dts)
    order = np.argsort(steps, kind="stable")
    longest = order[-1]

    def test(m: int, breakdown: bool = False):
        """(m, converged times, phases, estimates, first eigenvector row,
        eigenvectors or None if not decomposed here) of the test at order
        m + 1 if every time converges or the test is the last; else None."""
        final = breakdown or m == m_max - 1
        evecs = None
        if m not in lanczos.tested:
            evals, evecs = eigh_tridiagonal(alpha[:m + 1], beta[:m])
            lanczos.tested[m] = evals, evecs[0].copy(), evecs[m].copy()
        evals, first, last = lanczos.tested[m]
        weights = last * first
        if not final and _fails_at(weights, evals, dts[longest], beta[m] * steps[longest], tol):
            return None
        phases = np.exp(-1j * np.outer(evals, dts))
        defect = beta[m] * np.abs(weights @ phases)
        err = np.empty_like(defect)
        err[order] = steps[order] * np.maximum.accumulate(defect[order])
        ok = (err < tol / 4) | breakdown
        if not (ok.all() or final):
            return None
        return m, dts.size if ok.all() else int(np.argmin(ok)), phases, err, first, evecs

    begin = min(max(4, -(-start // 4) * 4), m_max) - 1    # m of the first test (order m + 1)
    climbed = False
    for m in range(m_max):
        if m == lanczos.orders:
            lanczos.grow()
        breakdown = beta[m] < 1e-14
        if breakdown or m == m_max - 1 or m >= begin and (m + 1) % 4 == 0:
            found = test(m, breakdown)
            if found is not None:
                break
            climbed = True
    if not climbed and found[1] == dts.size:      # the first test passed: step back
        for m in range(found[0] // 4 * 4 - 1, 0, -4):
            lower = test(m)
            if lower is None:
                break
            found = lower
    m, done, phases, err, first, evecs = found
    if evecs is None and done:                  # a replay that returns states
        evecs = eigh_tridiagonal(alpha[:m + 1], beta[:m])[1]
    Y = evecs @ (phases[:, :done] * first[:, None]) if done else np.zeros((m + 1, 0))
    return Y * lanczos.norm, V[:m + 1], err[:done] * lanczos.norm


def _fails_at(weights: np.ndarray, evals: np.ndarray, dt: float, scale: float,
              tol: float) -> bool:
    """True if a Lanczos test certainly fails at step ``dt``: its error
    there is at least ``scale`` = beta_m |dt| times the defect
    |sum_k weights_k exp(-i dt evals_k)|, the weights being the first times
    the last eigenvector components.  That sum, summed in any order, is
    within (m + 2) 2^-52 sum |weights| of the one computed here, so the
    test fails whenever the bound less twice that, and less a few ulps of
    the products, reaches ``tol / 4``: one length-m sum instead of the
    full test's (m x steps) phases."""
    slack = (weights.size + 2) * 2.0 ** -51 * np.abs(weights).sum()
    defect = abs(weights @ np.exp(-1j * evals * dt)) - slack
    return scale * defect * (1.0 - 2.0 ** -50) >= tol / 4


# ---------------------------------------------------------------------------
# observables


def _popcount(basis: np.ndarray, n: int) -> np.ndarray:
    """Number of up spins of each of the product states ``basis`` of n sites
    (one pass per site: numpy before 2.0 has no ``bitwise_count``)."""
    counts = np.zeros(basis.shape, dtype=np.int64)
    for i in range(n):
        counts += (basis >> i) & 1
    return counts


def _populations(state: StateVector | Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """|amplitude|^2 on the basis states, shape (dim,) for a StateVector or
    (T, dim) for a Trajectory, and the matching (dim, N) table of sigma^z
    eigenvalues."""
    amps = state.states if isinstance(state, Trajectory) else state.amplitudes
    z = 2.0 * ((state.basis[:, None] >> np.arange(state.n_sites)) & 1) - 1.0
    return np.abs(amps) ** 2, z


def magnetisation(state: StateVector | Trajectory) -> np.ndarray:
    """<sigma_i^z> for every site, in [-1, 1]; shape (N,), or (T, N) for a
    whole Trajectory."""
    p, z = _populations(state)
    return p @ z


#: Entries of the sign table z_i z_j (i <= j, one row per basis state) that
#: :func:`two_point_correlations` builds at once: 2 MB, where the whole table
#: of N = 16 would take 71 MB.
_CORRELATION_CHUNK = 1 << 18


def two_point_correlations(state: StateVector | Trajectory) -> np.ndarray:
    """Connected correlations C_ij = <sigma_i^z sigma_j^z> - <sigma_i^z><sigma_j^z>;
    shape (N, N), or (T, N, N) for a whole Trajectory.  Every <z_i z_j>,
    i <= j, comes from one product of the populations with the sign table
    z_i z_j, summed over blocks of basis rows (``_CORRELATION_CHUNK``)."""
    p, z = _populations(state)
    m = p @ z
    i, j = np.triu_indices(state.n_sites)
    step = max(1, _CORRELATION_CHUNK // i.size)
    for start in range(0, z.shape[0], step):        # the sign table a block of rows at a time
        signs = z[start:start + step]
        part = p[..., start:start + step] @ (signs[:, i] * signs[:, j])
        upper = part if start == 0 else upper + part
    zz = np.empty(m.shape + (state.n_sites,))
    zz[..., i, j] = zz[..., j, i] = upper
    return zz - m[..., :, None] * m[..., None, :]


def averaged_correlations(C: np.ndarray) -> np.ndarray:
    """Distance-averaged correlations Cbar_n = (1/(N-n)) sum_i C_{i,i+n}, n = 1..N-1;
    shape (N-1,), or (..., N-1) for a stack of shape (..., N, N)."""
    C = np.asarray(C)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2]:
        raise ValueError("need square correlation matrices")
    n = C.shape[-1]
    means = [np.diagonal(C, k, axis1=-2, axis2=-1).mean(axis=-1) for k in range(1, n)]
    return np.stack(means, axis=-1) if means else np.zeros(C.shape[:-2] + (0,))
