"""Ion-chain physics: equilibrium positions, transverse modes, and J_ij.

The chain of N ions in a linear Paul trap is characterised by its axial
confinement frequency nu_ax and the two transverse frequencies nu_x, nu_y.
A bichromatic laser field detuned by +-Delta from the spin transition
couples the spins to all 2N transverse motional modes and generates the
effective spin-spin interaction

    J_ij = Omega_i Omega_j (hbar k^2 / 2m) sum_n b_in b_jn / (Delta^2 - nu_n^2)

where Omega_i is the Rabi frequency at ion i, k = 2 pi / lambda the laser
wavevector, b_in the normal-mode vectors, and the sum runs over all 2N
transverse modes of both branches.  With Delta above the highest transverse
mode all J_ij share one sign (anti-ferromagnetic regime) and J_ij decays
approximately as 1/|i-j|^alpha with alpha tunable between 0 and 3.

Unit conventions: dataclass fields carry Hz and meters; coupling matrices
and everything downstream are angular frequencies (rad/s) with hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: SI constants of CODATA 2022, the doubles ``scipy.constants`` holds for
#: them (kept here so that importing the package needs no scipy): atomic
#: mass constant in kg, elementary charge in C, vacuum permittivity in F/m
#: and the reduced Planck constant in J s.
ATOMIC_MASS = 1.66053906892e-27
ELEMENTARY_CHARGE = 1.602176634e-19
EPSILON_0 = 8.8541878188e-12
HBAR = 1.0545718176461565e-34

#: Mass of a calcium-40 ion in kg (the species used for the reference traps).
MASS_CA40 = 39.9625909 * ATOMIC_MASS

#: Wavelength of the S-D quadrupole transition of Ca-40 in meters.
WAVELENGTH_CA40 = 729e-9

#: Convergence threshold on the largest force residual of the equilibrium
#: positions.  Where the roundoff floor of the force sum, N eps max_i(|u_i| +
#: sum_j 1/d_ij^2), lies above it (most N >= 54), the iteration also stops
#: once the residual is below that floor and no damped Newton step lowers it
#: further.
FORCE_TOL = 1e-13

#: Most damped Newton iterations of the equilibrium-position solve.
MAX_NEWTON_ITERATIONS = 200

#: Smallest allowed |Delta - nu_n| in Hz between the detuning and any mode.
MIN_MODE_GAP = 1e3


class ConvergenceError(RuntimeError):
    """Raised when the equilibrium-position root solve does not converge."""


class ChainUnstableError(ValueError):
    """Raised when a transverse branch has a non-positive mode (zig-zag onset)."""


class ResonanceError(ValueError):
    """Raised when the drive detuning sits too close to a motional mode."""


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class TrapConfig:
    """Trap and drive parameters defining the spin system.

    All frequencies are plain frequencies in Hz.  ``detuning`` is the
    Moelmer-Soerensen symmetric detuning Delta measured from the spin
    transition; the anti-ferromagnetic regime requires it to lie above the
    highest transverse mode (checked when the coupling matrix is built,
    see :func:`detuning_above_top_mode`).  ``ion_mass`` is in kg and
    ``laser_wavelength`` in meters (``MASS_CA40`` and ``WAVELENGTH_CA40``
    for calcium-40).
    """

    n_ions: int
    axial_freq: float
    transverse_freq_x: float
    transverse_freq_y: float
    detuning: float
    ion_mass: float
    laser_wavelength: float

    def __post_init__(self):
        if self.n_ions < 2:
            raise ValueError(f"need at least 2 ions, got {self.n_ions}")
        _check_positive(self, "axial_freq", "transverse_freq_x", "transverse_freq_y",
                        "ion_mass", "laser_wavelength")
        if self.transverse_freq_x <= self.axial_freq or self.transverse_freq_y <= self.axial_freq:
            raise ValueError(f"transverse_freq_x and transverse_freq_y must exceed axial_freq "
                             f"for a stable linear chain, got {self.transverse_freq_x}, "
                             f"{self.transverse_freq_y} and {self.axial_freq}")


@dataclass(frozen=True)
class BeamProfile:
    """Elliptical Gaussian beam addressing the chain from the side.

    ``peak_rabi`` is the Rabi frequency (Hz) of one bichromatic component at
    the beam center; ``waist_along_chain`` (w_par) sets the field-amplitude
    falloff along the chain axis (the transverse waist does not vary across
    the chain, so it plays no part).  ``center_offset`` displaces the beam
    center from the trap center along the chain.
    """

    peak_rabi: float
    waist_along_chain: float
    center_offset: float

    def __post_init__(self):
        _check_positive(self, "peak_rabi", "waist_along_chain")


def _check_positive(config, *names: str) -> None:
    """ValueError naming the first of the fields ``names`` of ``config`` that is not > 0."""
    for name in names:
        if getattr(config, name) <= 0:
            raise ValueError(f"{name} must be > 0, got {getattr(config, name)}")


@dataclass(frozen=True)
class ModeSpectrum:
    """Transverse normal modes of the ion crystal.

    ``frequencies`` holds all 2N mode frequencies in Hz, x branch first,
    each branch sorted descending (the center-of-mass mode at the bare
    transverse frequency leads its branch).  Column n of ``mode_vectors``
    is the normalized vector b_{.,n}; ``branches`` labels each mode 'x' or
    'y'.  Positions are the equilibrium positions, dimensionless (units of
    the Coulomb length scale) and in meters.
    """

    frequencies: np.ndarray
    mode_vectors: np.ndarray
    branches: tuple[str, ...]
    positions: np.ndarray
    positions_m: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "mode_vectors", "positions", "positions_m"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=float)))
        n = self.positions.size
        if self.frequencies.shape != (2 * n,) or self.mode_vectors.shape != (n, 2 * n):
            raise ValueError("inconsistent mode-spectrum shapes")
        if len(self.branches) != 2 * n:
            raise ValueError("need one branch label per mode")

    @property
    def top_mode_freq(self) -> float:
        """Highest transverse mode frequency (Hz)."""
        return float(self.frequencies.max())


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric spin-spin coupling matrix J_ij in rad/s with zero diagonal."""

    values: np.ndarray
    meta: str = "externally supplied"

    def __post_init__(self):
        J = _frozen(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", J)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {J.shape}")
        if not np.all(np.isfinite(J)):
            raise ValueError("coupling matrix has non-finite entries")
        scale = max(np.abs(J).max(), 1.0)
        if np.abs(J - J.T).max() > 1e-12 * scale:
            raise ValueError("coupling matrix not symmetric to 1e-12 relative")
        if np.abs(np.diag(J)).max() > 1e-12 * scale:
            raise ValueError("coupling matrix diagonal must be zero")

    @property
    def n_ions(self) -> int:
        return self.values.shape[0]

    @property
    def nn_mean(self) -> float:
        """Mean nearest-neighbour coupling Jbar = (1/(N-1)) sum_i J_{i,i+1} (rad/s)."""
        return float(np.mean(np.diag(self.values, 1)))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only, else a read-only copy of it: the rule
    by which the frozen dataclasses of the package keep their arrays (only
    a ``Trajectory`` keeps a read-only view of its input instead)."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _check_normalized(amplitudes: np.ndarray) -> None:
    """ValueError unless each row of ``amplitudes`` (one state, or a (T, dim)
    stack of them) has sum |a|^2 within 1e-9 of 1; it names the first that
    does not."""
    norms = np.sum(np.abs(amplitudes) ** 2, axis=-1)
    off = np.abs(norms - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"state not normalized: sum |a|^2 = {float(norms[off][0])!r}")


def _mirror_symmetric(values: np.ndarray) -> bool:
    """Whether the couplings J_ij, i < j, of the (N, N) ``values`` are
    unchanged bit for bit by the reflection i -> N+1-i, so that both the
    full-space and the one-excitation Hamiltonians split into mirror
    sectors.  A trap's mode sum is reflection symmetric only to roundoff,
    and fails this test."""
    upper = np.triu(values, 1)
    return np.array_equal(upper, upper[::-1, ::-1].T)


# ---------------------------------------------------------------------------
# equilibrium positions


def equilibrium_positions(n_ions: int) -> np.ndarray:
    """Equilibrium positions of a linear Coulomb chain, dimensionless.

    Positions are expressed in units of the Coulomb length scale
    l = (e^2 / (4 pi eps0 m omega_ax^2))^(1/3) and satisfy the force
    balance u_i = sum_{j<i} (u_i-u_j)^-2 - sum_{j>i} (u_i-u_j)^-2,
    solved by damped Newton steps to ``FORCE_TOL`` (or the roundoff floor)
    within ``MAX_NEWTON_ITERATIONS``.

    Parameters
    ----------
    n_ions : int
        Number of ions (>= 2).

    Returns
    -------
    ndarray
        Positions sorted ascending, symmetric about 0.
    """
    if n_ions < 2:
        raise ValueError("need at least 2 ions")
    # quasi-uniform starting guess at the known minimum spacing scale
    spacing = 2.018 / n_ions ** 0.559
    u = spacing * (np.arange(1, n_ions + 1) - (n_ions + 1) / 2)
    force = _chain_force(u)
    fmax = np.max(np.abs(force))
    for iteration in range(MAX_NEWTON_ITERATIONS):
        if fmax < FORCE_TOL:
            return u
        step = np.linalg.solve(_chain_hessian(u), force)
        lam, rejected = 1.0, None
        trial = u - lam * step
        # a trial that rounds to u ends the search: so does every shorter step;
        # one that rounds to the last rejected trial is rejected unevaluated
        while lam > 1e-8 and trial.tobytes() != u.tobytes():
            if trial.tobytes() != rejected:
                ftrial = _chain_force(trial)
                if np.max(np.abs(ftrial)) < fmax:
                    break
                rejected = trial.tobytes()
            lam /= 2
            trial = u - lam * step
        else:
            if fmax < _force_roundoff(u):       # no step helps: roundoff floor reached
                return u
            ftrial = _chain_force(trial)        # the smallest step, taken anyway
        u, force = trial, ftrial
        fmax = np.max(np.abs(force))
    raise ConvergenceError(
        f"equilibrium positions for n={n_ions} did not converge after "
        f"{MAX_NEWTON_ITERATIONS} iterations (residual {fmax:.3e})")


def _separations(u: np.ndarray) -> np.ndarray:
    """The (N, N) table u_i - u_j, with inf on the diagonal: an ion exerts
    no force on itself, and every inverse power of it is 0 there."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return d


def _chain_force(u: np.ndarray) -> np.ndarray:
    """Gradient of the dimensionless chain potential (zero at equilibrium)."""
    d = _separations(u)
    return u - np.sum(np.sign(d) / d ** 2, axis=1)


def _force_roundoff(u: np.ndarray) -> float:
    """Roundoff floor of :func:`_chain_force`: N eps times its largest term sum."""
    terms = np.abs(u) + np.sum(1.0 / _separations(u) ** 2, axis=1)
    return u.size * np.finfo(float).eps * float(terms.max())


def _chain_hessian(u: np.ndarray) -> np.ndarray:
    d = np.abs(_separations(u))
    h = -2.0 / d ** 3
    np.fill_diagonal(h, 1.0 + 2.0 * np.sum(1.0 / d ** 3, axis=1))
    return h


def length_scale(trap: TrapConfig) -> float:
    """Coulomb length scale l = (e^2/(4 pi eps0 m omega_ax^2))^(1/3) in meters."""
    omega_ax = 2 * np.pi * trap.axial_freq
    coulomb = ELEMENTARY_CHARGE ** 2 / (4 * np.pi * EPSILON_0)
    return (coulomb / (trap.ion_mass * omega_ax ** 2)) ** (1 / 3)


# ---------------------------------------------------------------------------
# transverse normal modes


def transverse_mode_spectrum(trap: TrapConfig) -> ModeSpectrum:
    """Transverse normal modes of both branches for the given trap.

    For each branch the mode matrix (in units of nu_ax^2) is

        A_ii = (nu_t/nu_ax)^2 - sum_{j != i} |u_i-u_j|^-3,
        A_ij = |u_i-u_j|^-3            (i != j),

    whose eigenvalues lambda give mode frequencies nu_n = nu_ax sqrt(lambda).
    The highest mode of each branch is the center-of-mass mode at the bare
    transverse frequency.

    Raises
    ------
    ChainUnstableError
        If any eigenvalue is non-positive (zig-zag transition at these
        parameters).
    """
    u = equilibrium_positions(trap.n_ions)
    inv_cube = 1.0 / np.abs(_separations(u)) ** 3

    freqs, vecs, branches = [], [], []
    for label, nu_t in (("x", trap.transverse_freq_x), ("y", trap.transverse_freq_y)):
        A = inv_cube.copy()
        np.fill_diagonal(A, (nu_t / trap.axial_freq) ** 2 - inv_cube.sum(axis=1))
        lam, b = np.linalg.eigh(A)
        if lam[0] <= 0:
            raise ChainUnstableError(
                f"branch {label}: lowest squared mode frequency "
                f"{lam[0]:.4g} (nu_ax^2 units) is not positive; the linear chain "
                f"is unstable (zig-zag) at nu_t/nu_ax = {nu_t / trap.axial_freq:.3f}, "
                f"N = {trap.n_ions}")
        lam, b = lam[::-1], b[:, ::-1]          # descending: COM first
        b = _fix_gauge(b)
        freqs.append(trap.axial_freq * np.sqrt(lam))
        vecs.append(b)
        branches.extend([label] * trap.n_ions)

    return ModeSpectrum(
        frequencies=np.concatenate(freqs),
        mode_vectors=np.hstack(vecs),
        branches=tuple(branches),
        positions=u,
        positions_m=u * length_scale(trap),
    )


def _fix_gauge(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention for the columns of ``vectors``: the
    largest-|entry| component of each (the first on ties) is positive."""
    lead = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=0)[None, :], axis=0)
    return np.where(lead < 0, -vectors, vectors)


def detuning_above_top_mode(trap: TrapConfig, modes: ModeSpectrum) -> float:
    """Detuning minus the highest transverse mode frequency, in Hz.

    Positive in the anti-ferromagnetic regime.  Provided because quoted
    detunings are often given relative to the highest transverse mode
    while ``TrapConfig.detuning`` is measured from the spin transition.
    ``modes`` is the mode spectrum of ``trap``.
    """
    return trap.detuning - modes.top_mode_freq


def with_detuning_above_top(trap: TrapConfig, gap: float, modes: ModeSpectrum) -> TrapConfig:
    """Copy of ``trap`` with the detuning placed ``gap`` Hz above the top
    mode of its mode spectrum ``modes``."""
    return replace(trap, detuning=modes.top_mode_freq + gap)


# ---------------------------------------------------------------------------
# beam profile and coupling matrix


def rabi_profile(beam: BeamProfile, positions_m: np.ndarray) -> np.ndarray:
    """Per-ion Rabi frequencies Omega_i (Hz) along the chain.

    Field-amplitude Gaussian along the chain axis:
    Omega_i = peak_rabi * exp(-(x_i - center_offset)^2 / w_par^2).
    """
    x = np.asarray(positions_m, dtype=float) - beam.center_offset
    return beam.peak_rabi * np.exp(-(x / beam.waist_along_chain) ** 2)


def coupling_matrix(trap: TrapConfig, modes: ModeSpectrum, rabi: np.ndarray) -> CouplingMatrix:
    """Spin-spin coupling matrix J_ij (rad/s) from the 2N-mode sum.

    Parameters
    ----------
    trap : TrapConfig
        Supplies the detuning, mass and wavelength.
    modes : ModeSpectrum
        Transverse modes of both branches.
    rabi : ndarray
        Per-ion Rabi frequencies Omega_i in Hz (see :func:`rabi_profile`).

    Raises
    ------
    ResonanceError
        If the detuning lies within ``MIN_MODE_GAP`` Hz of a mode.

    Notes
    -----
    All Hz inputs are converted to angular frequencies here, and the
    recoil prefactor hbar k^2 / 2m is itself a rate, so J comes out in
    rad/s directly.
    """
    omega = 2 * np.pi * np.asarray(rabi, dtype=float)
    if omega.shape != (trap.n_ions,):
        raise ValueError(f"need {trap.n_ions} Rabi frequencies, got shape {omega.shape}")
    gaps = np.abs(trap.detuning - modes.frequencies)
    if gaps.min() < MIN_MODE_GAP:
        n_bad = int(np.argmin(gaps))
        raise ResonanceError(
            f"detuning {trap.detuning:.6g} Hz is within {gaps.min():.3g} Hz of mode "
            f"{n_bad} at {modes.frequencies[n_bad]:.6g} Hz (minimum gap {MIN_MODE_GAP:.3g} Hz)")

    delta = 2 * np.pi * trap.detuning
    nu = 2 * np.pi * modes.frequencies
    k = 2 * np.pi / trap.laser_wavelength
    recoil = HBAR * k ** 2 / (2 * trap.ion_mass)

    weights = 1.0 / (delta ** 2 - nu ** 2)                      # (2N,)
    b = modes.mode_vectors                                      # (N, 2N)
    J = (b * weights) @ b.T
    J *= recoil * np.outer(omega, omega)
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    meta = (f"mode-sum couplings: N={trap.n_ions}, detuning={trap.detuning:.6g} Hz "
            f"({detuning_above_top_mode(trap, modes):+.6g} Hz from top mode)")
    return CouplingMatrix(values=J, meta=meta)


def build_coupling_matrix(trap: TrapConfig, beam: BeamProfile,
                          modes: ModeSpectrum) -> CouplingMatrix:
    """Convenience pipeline: Rabi profile -> coupling matrix, on the mode
    spectrum ``modes`` of ``trap`` (the detuning plays no part in it)."""
    rabi = rabi_profile(beam, modes.positions_m)
    return coupling_matrix(trap, modes, rabi)


def _check_site(n: int, site: int) -> None:
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside 1..{n}")


# ---------------------------------------------------------------------------
# synthetic coupling matrices


def power_law_coupling(n_ions: int, alpha: float, nn_strength: float) -> CouplingMatrix:
    """Ideal open-chain power law J_ij = nn_strength / |i-j|^alpha (rad/s)."""
    return CouplingMatrix(values=_power_law_values(n_ions, alpha, nn_strength),
                          meta=f"synthetic power law alpha={alpha:g}")


def _power_law_values(n_ions: int, alpha: float, nn_strength: float) -> np.ndarray:
    """The bare (N, N) array of :func:`power_law_coupling`, unchecked and writable."""
    if n_ions < 2:
        raise ValueError("need at least 2 ions")
    by_distance = np.zeros(n_ions)      # J is Toeplitz: one value per distance |i - j|
    with np.errstate(over="ignore", divide="ignore"):   # overflows give inf, for the caller
        by_distance[1:] = nn_strength / np.arange(1.0, n_ions) ** alpha
    site = np.arange(n_ions)
    return by_distance[np.abs(site[:, None] - site[None, :])]


def nearest_neighbour_coupling(n_ions: int, strength: float) -> CouplingMatrix:
    """Uniform nearest-neighbour chain J_{i,i+1} = strength (rad/s)."""
    if n_ions < 2:
        raise ValueError("need at least 2 ions")
    J = np.zeros((n_ions, n_ions))
    idx = np.arange(n_ions - 1)
    J[idx, idx + 1] = J[idx + 1, idx] = strength
    return CouplingMatrix(values=J, meta="synthetic nearest-neighbour chain")
