"""Full 2^N state-vector dynamics under H_Ising or H_XY.

Hamiltonians (hbar = 1, everything in rad/s):

    H_Ising = sum_{i<j} J_ij sigma_i^x sigma_j^x + B sum_i sigma_i^z
    H_XY    = sum_{i<j} J_ij (sigma_i^+ sigma_j^- + sigma_i^- sigma_j^+)

For B >> max|J| the Ising model conserves the excitation number and its
one-excitation dynamics reduces to the XY model; the full propagator here
is exact and lets that reduction be audited.

Basis convention: product sigma^z basis indexed by an integer b whose bit
(i-1) is the state of site i (site 1 = least significant bit); bit 1 means
spin up.  |down...down> is index 0.

H_XY conserves the excitation number (popcount of b) and H_Ising its
parity, so ``evolve`` splits the initial state's support into these
conserved blocks and propagates each block on its own: a one-flip XY
quench is an N x N problem, a global XY quench a set of C(N, k) blocks,
an Ising quench one or two 2^(N-1) blocks (cf. the symmetry blocks of
QuSpin, Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).  Blocks up to
``DENSE_LIMIT`` states use a dense eigendecomposition, larger ones an
adaptive Lanczos (Krylov) propagator with per-step error control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .ionchain import CouplingMatrix, _check_site, _readonly

#: Largest chain the full propagator accepts (2^16 basis states).
MAX_SITES = 16

#: Dense eigendecomposition for conserved blocks up to this many basis
#: states, Krylov stepping above.  Measured with one BLAS thread on a
#: 2-core Xeon VM, Ising at B = 50 max|J|: two 1024-state blocks (N = 11,
#: global, 201 points) take 0.78 s dense vs 3.0 s Krylov; one 2048-state
#: block (N = 12, global, 201 points) 2.2 s dense vs 1.8 s Krylov; one
#: 4096-state block (N = 13, local, 51 points) 16.7 s dense vs 3.3 s
#: Krylov.  Krylov cost grows with spectral width times time span, so the
#: narrow XY spectrum crosses over sooner: a 1001-state block (N = 14,
#: global, 51 points to 20 ms) takes 0.23 s dense vs 0.09 s Krylov, a
#: 1716-state block (N = 13) 1.09 s vs 0.19 s.  The limit follows Ising.
DENSE_LIMIT = 1024


class PropagatorError(RuntimeError):
    """Raised when the Krylov propagator cannot meet its error target."""


@dataclass(frozen=True)
class QuenchSpec:
    """Initial-state recipe: ``local`` flips listed sites on the all-down
    background; ``global`` prepares every spin in (|down> + |up>)/sqrt(2)."""

    kind: str
    flipped_sites: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("local", "global"):
            raise ValueError(f"quench kind must be 'local' or 'global', got {self.kind!r}")
        sites = tuple(int(s) for s in self.flipped_sites)
        object.__setattr__(self, "flipped_sites", sites)
        if self.kind == "global" and sites:
            raise ValueError("global quench takes no flipped sites")
        if self.kind == "local":
            if not sites:
                raise ValueError("local quench needs at least one flipped site")
            if len(set(sites)) != len(sites):
                raise ValueError("flipped sites must be distinct")
            if min(sites) < 1:
                raise ValueError("site indices are 1-based")


@dataclass(frozen=True)
class StateVector:
    """State in the 2^N product basis (site 1 = least significant bit)."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", _readonly(amps))
        if amps.shape != (2 ** self.n_sites,):
            raise ValueError(f"expected {2 ** self.n_sites} amplitudes, got {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |psi|^2 = {norm!r}")


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a time grid; row t of ``states`` is |psi(times[t])>."""

    times: np.ndarray
    states: np.ndarray
    n_sites: int

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(np.asarray(self.times, float)))
        states = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "states", _readonly(states))
        if states.shape != (self.times.size, 2 ** self.n_sites):
            raise ValueError("trajectory shape mismatch")

    def state(self, index: int) -> StateVector:
        return StateVector(amplitudes=self.states[index], n_sites=self.n_sites)

    def __len__(self) -> int:
        return self.times.size


class Hamiltonian:
    """Immutable sparse operator handle for H_Ising or H_XY.

    Holds the real CSR matrix (rad/s) plus the ingredients it was built
    from, on the full 2^N space or on one conserved block (:meth:`block`).
    The dense eigendecomposition is computed lazily and cached; the handle
    is safe to share across threads after construction.
    """

    def __init__(self, matrix: sp.csr_matrix, n_sites: int, model: str,
                 transverse_field: float, coupling: CouplingMatrix):
        self._matrix = matrix
        self.n_sites = n_sites
        self.model = model
        self.transverse_field = transverse_field
        self.coupling = coupling
        self._eig = None

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """H @ psi.  A complex psi is applied as two real products, about
        twice as fast as letting the real CSR upcast to complex."""
        if not np.iscomplexobj(psi):
            return self._matrix @ psi
        out = np.empty(psi.shape, dtype=complex)
        out.real = self._matrix @ psi.real
        out.imag = self._matrix @ psi.imag
        return out

    def block(self, basis: np.ndarray) -> Hamiltonian:
        """H restricted to the sorted basis indices ``basis``; row and
        column k of the block belong to basis state ``basis[k]``.

        Raises ValueError if H couples those states to any other state,
        i.e. if ``basis`` is not a union of conserved blocks.
        """
        rows = self._matrix[basis]
        inside = np.zeros(self.dim, dtype=bool)
        inside[basis] = True
        if np.any(rows.data[~inside[rows.indices]]):
            raise ValueError("the Hamiltonian couples the block to states outside it")
        return Hamiltonian(rows[:, basis], self.n_sites, self.model,
                           self.transverse_field, self.coupling)

    def dense(self) -> np.ndarray:
        return self._matrix.toarray()

    def expectation(self, psi: np.ndarray) -> float:
        return float(np.real(np.vdot(psi, self._matrix @ psi)))

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached dense eigendecomposition (energies, eigenvectors)."""
        if self._eig is None:
            energies, vectors = np.linalg.eigh(self.dense())
            self._eig = (energies, vectors)
        return self._eig


def build_hamiltonian(J: CouplingMatrix, transverse_field: float = 0.0,
                      model: str = "ising", max_sites: int = MAX_SITES) -> Hamiltonian:
    """Assemble the sparse Hamiltonian.

    Parameters
    ----------
    J : CouplingMatrix
        Couplings in rad/s.
    transverse_field : float
        B in rad/s; only the Ising model uses it.
    model : {'ising', 'xy'}
    max_sites : int
        Memory guard; 2^N amplitudes must stay affordable.
    """
    if model not in ("ising", "xy"):
        raise ValueError(f"model must be 'ising' or 'xy', got {model!r}")
    n = J.n_ions
    if n > max_sites:
        raise ValueError(f"N={n} exceeds the {max_sites}-site limit of the full propagator")
    dim = 1 << n
    basis = np.arange(dim)

    rows, cols, vals = [], [], []
    for i in range(n - 1):
        for j in range(i + 1, n):
            if J.values[i, j] == 0.0:
                continue
            mask = (1 << i) | (1 << j)
            if model == "xy":
                src = basis[((basis >> i) ^ (basis >> j)) & 1 == 1]
            else:
                src = basis
            rows.append(src ^ mask)
            cols.append(src)
            vals.append(np.full(src.size, J.values[i, j]))
    if model == "ising" and transverse_field != 0.0:
        mz = 2 * _popcount(n) - n
        rows.append(basis)
        cols.append(basis)
        vals.append(transverse_field * mz)

    if rows:
        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim)).tocsr()
    else:
        matrix = sp.csr_matrix((dim, dim))
    return Hamiltonian(matrix, n, model, transverse_field, J)


def prepare_state(spec: QuenchSpec, n: int) -> StateVector:
    """Initial state of a quench (see :class:`QuenchSpec`)."""
    if spec.kind == "local":
        for s in spec.flipped_sites:
            _check_site(n, s)
        index = 0
        for s in spec.flipped_sites:
            index |= 1 << (s - 1)
        amps = np.zeros(2 ** n, dtype=complex)
        amps[index] = 1.0
    else:
        amps = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    return StateVector(amplitudes=amps, n_sites=n)


def evolve(state: StateVector, H: Hamiltonian, times: np.ndarray,
           method: str = "auto", step_tol: float = 1e-9) -> Trajectory:
    """Propagate |psi(t)> = exp(-i H t) |psi(0)> onto the output times.

    The initial state's support is split into conserved blocks
    (excitation number for H_XY, parity for H_Ising) and each block is
    propagated on its own; amplitudes outside those blocks stay exactly 0.
    ``method='dense'`` uses the block's exact eigendecomposition (no step
    error); ``method='krylov'`` steps between output times with an
    adaptive Lanczos propagator holding each step's error below
    ``step_tol``.  ``'auto'`` picks dense for blocks of at most
    ``DENSE_LIMIT`` states.
    """
    if state.n_sites != H.n_sites or H.dim != state.amplitudes.size:
        raise ValueError("state and Hamiltonian sizes differ")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")

    amps = state.amplitudes
    labels = _popcount(H.n_sites)
    if H.model != "xy":
        labels &= 1
    states = np.zeros((times.size, H.dim), dtype=complex)
    for label in np.unique(labels[amps != 0]):
        basis = np.flatnonzero(labels == label)
        states[:, basis] = _propagate_block(H.block(basis), amps[basis], times,
                                            method, step_tol)
    return Trajectory(times=times, states=states, n_sites=H.n_sites)


def _propagate_block(H: Hamiltonian, psi: np.ndarray, times: np.ndarray,
                     method: str, step_tol: float) -> np.ndarray:
    """(T, dim) amplitudes of exp(-i H t) psi within one conserved block."""
    if method == "dense" or (method == "auto" and H.dim <= DENSE_LIMIT):
        energies, vectors = H.eigensystem()
        modes = vectors.T @ psi
        return (vectors @ (np.exp(-1j * np.outer(energies, times)) * modes[:, None])).T
    states = np.empty((times.size, H.dim), dtype=complex)
    t_now = 0.0
    for k, t in enumerate(times):
        psi = _krylov_propagate(H.matvec, psi, t - t_now, step_tol)
        t_now = t
        states[k] = psi
    return states


def _krylov_propagate(matvec, psi: np.ndarray, dt: float, tol: float,
                      m_max: int = 96, max_splits: int = 40) -> np.ndarray:
    """exp(-i dt H) psi for Hermitian H, splitting the step as needed."""
    if dt == 0.0:
        return psi.copy()
    pieces = [dt]
    splits = 0
    while pieces:
        step = pieces.pop()
        result = _lanczos_expm(matvec, psi, step, tol, m_max)
        if result is None:
            if splits >= max_splits:
                raise PropagatorError(
                    f"Krylov step error target {tol:g} unreachable at subspace "
                    f"dimension {m_max} after {max_splits} step splits")
            pieces.extend([step / 2, step / 2])
            splits += 1
        else:
            psi = result
    return psi


def _lanczos_expm(matvec, psi, dt, tol, m_max):
    """One Lanczos approximation of exp(-i dt H) psi, or None if not converged.

    Standard a-posteriori estimate: the error of the order-m approximation
    is ~ beta_m * |last component of exp(-i dt T_m) e_1|.  Full
    reorthogonalization keeps the basis clean (subspace is small).
    """
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        return psi.copy()
    V = np.empty((m_max + 1, psi.size), dtype=complex)
    V[0] = psi / norm
    alpha = np.empty(m_max)
    beta = np.empty(m_max)
    for m in range(m_max):
        w = matvec(V[m])
        alpha[m] = np.real(np.vdot(V[m], w))
        w = w - alpha[m] * V[m]
        if m > 0:
            w = w - beta[m - 1] * V[m - 1]
        w -= V[:m + 1].T @ (V[:m + 1] @ w.conj()).conj()    # reorthogonalize
        beta[m] = np.linalg.norm(w)
        evals, evecs = eigh_tridiagonal(alpha[:m + 1], beta[:m])
        y = evecs @ (np.exp(-1j * dt * evals) * evecs[0])
        err = beta[m] * abs(y[m])
        if err < tol / 4 or beta[m] < 1e-14:
            return (y @ V[:m + 1]) * norm
        V[m + 1] = w / beta[m]
    return None


# ---------------------------------------------------------------------------
# observables


def _popcount(n: int) -> np.ndarray:
    """Number of up spins in every product-basis state 0..2^n - 1."""
    counts = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        counts[1 << i:2 << i] = counts[:1 << i] + 1
    return counts


def _populations(state: StateVector | Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """|amplitude|^2 on the basis states that carry weight at some time, shape (s,)
    for a StateVector or (T, s) for a Trajectory, and the matching (s, N)
    table of sigma^z eigenvalues."""
    amps = state.states if isinstance(state, Trajectory) else state.amplitudes
    support = np.flatnonzero((amps.reshape(-1, amps.shape[-1]) != 0).any(axis=0))
    z = 2.0 * ((support[:, None] >> np.arange(state.n_sites)) & 1) - 1.0
    return np.abs(amps[..., support]) ** 2, z


def magnetisation(state: StateVector | Trajectory) -> np.ndarray:
    """<sigma_i^z> for every site, in [-1, 1]; shape (N,), or (T, N) for a
    whole Trajectory."""
    p, z = _populations(state)
    return p @ z


def two_point_correlations(state: StateVector | Trajectory) -> np.ndarray:
    """Connected correlations C_ij = <sigma_i^z sigma_j^z> - <sigma_i^z><sigma_j^z>;
    shape (N, N), or (T, N, N) for a whole Trajectory."""
    p, z = _populations(state)
    m = p @ z
    zz = np.array([(z * q[:, None]).T @ z for q in p.reshape(-1, p.shape[-1])])
    return zz.reshape(m.shape + m.shape[-1:]) - m[..., :, None] * m[..., None, :]


def averaged_correlations(C: np.ndarray) -> np.ndarray:
    """Distance-averaged correlations Cbar_n = (1/(N-n)) sum_i C_{i,i+n}, n = 1..N-1."""
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("need a square correlation matrix")
    n = C.shape[0]
    return np.array([np.mean(np.diag(C, k)) for k in range(1, n)])


def excitation_sector_weights(state: StateVector) -> np.ndarray:
    """Probability weight in each total-excitation sector 0..N.

    Entry n is the summed |amplitude|^2 over basis states with n spins up;
    useful for auditing excitation-number conservation of the Ising model
    at large B.
    """
    p = np.abs(state.amplitudes) ** 2
    return np.bincount(_popcount(state.n_sites), weights=p, minlength=state.n_sites + 1)
