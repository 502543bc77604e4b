"""Shared oracles for the test suite.

The Hamiltonian builders here use explicit Kronecker products — the slow,
obvious construction — precisely so they share no code with the bit-mask
assembly in magnonchain.dynamics.  Basis convention matches the package:
index 0 is spin down, site 1 is the least significant bit, so the operator
for site s sits between identities of dimension 2^(n-s) and 2^(s-1).

The Lieb-Robinson bound of a nearest-neighbour XY chain with bond strength
g (rad/s) lives here too, as the package never evaluates it: the signal a
local perturbation can deposit at distance d after time t is bounded by a
sum over hopping paths,

    F(d, t) = 2 sum_{m >= d} N(m) (2 g |t|)^m / m!,

where N(m) = C(m, (m-d)/2) counts the m-step walks covering a net distance
d (zero when m and d differ in parity).  The sum has the closed form
F(d, t) = 2 I_d(4 g |t|), with I_d the modified Bessel function of the
first kind.  :func:`lr_bound_series` sums the paths and
:func:`lr_bound_bessel` takes the closed form from scipy; the overall
factor 2 is part of the bound's normalization and both carry it.
"""

import math

import numpy as np
import pytest
from scipy import special

# Pauli matrices in the (|down>, |up>) ordering
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SPLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |up><down|
SMINUS = SPLUS.T.conj()


def op_on_site(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at a 1-based site of an n-site chain."""
    return np.kron(np.eye(2 ** (n - site)), np.kron(op, np.eye(2 ** (site - 1))))


def ising_oracle(J: np.ndarray, field: float, n: int) -> np.ndarray:
    """H = sum_{i<j} J_ij sx_i sx_j + B sum_i sz_i, built term by term."""
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            H += J[i - 1, j - 1] * op_on_site(SX, i, n) @ op_on_site(SX, j, n)
        H += field * op_on_site(SZ, i, n)
    return H


def xy_oracle(J: np.ndarray, n: int) -> np.ndarray:
    """H = sum_{i<j} J_ij (s+_i s-_j + s-_i s+_j), built term by term."""
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            H += J[i - 1, j - 1] * (op_on_site(SPLUS, i, n) @ op_on_site(SMINUS, j, n)
                                    + op_on_site(SMINUS, i, n) @ op_on_site(SPLUS, j, n))
    return H


def sector_weights(state) -> np.ndarray:
    """Probability in each total-excitation sector 0..N of a StateVector:
    entry k sums |amplitude|^2 over the basis states with k spins up, whose
    bits are counted one state at a time."""
    ups = [int(b).bit_count() for b in state.basis]
    return np.bincount(ups, weights=np.abs(state.amplitudes) ** 2, minlength=state.n_sites + 1)


def fidelity(rho, target) -> float:
    """<psi|rho|psi> / <psi|psi> of a DensityMatrix and a pure target psi."""
    psi = np.asarray(target, dtype=complex)
    return float(np.vdot(psi, rho.matrix @ psi).real / np.vdot(psi, psi).real)


def path_count(m: int, d: int) -> int:
    """Number of m-step nearest-neighbour walks with net displacement d:
    C(m, (m-d)/2) when m >= d and m, d share parity, else 0 (exact at any
    size, as Python integers)."""
    if m < d or (m - d) % 2:
        return 0
    return math.comb(m, (m - d) // 2)


def lr_bound_series(d: int, t: float, g: float, m_max: int = 2000, rtol: float = 1e-14) -> float:
    """The bound F(d, t) summed over paths: terms 2 N(m) x^m / m!, x = 2 g |t|,
    over m = d, d+2, ... until the next term falls below ``rtol`` of the
    sum; RuntimeError if that takes terms past ``m_max``."""
    x = 2.0 * g * abs(t)
    xm_over_mfact = x ** d / math.factorial(d)      # x^m / m!, advanced two orders a step
    total = 0.0
    for m in range(d, m_max + 1, 2):
        total += 2.0 * path_count(m, d) * xm_over_mfact
        xm_over_mfact *= x * x / ((m + 1) * (m + 2))
        if 2.0 * path_count(m + 2, d) * xm_over_mfact <= rtol * total:
            return total
    raise RuntimeError(f"series for d={d}, 2g|t|={x:.4g} not converged at m_max={m_max}")


def lr_bound_bessel(d, t, g):
    """The closed form F(d, t) = 2 I_d(4 g |t|), as 2 e^x times scipy's
    exponentially scaled ``ive`` at x = 4 g |t|: ``iv`` itself underflows at
    tiny x and high order.  Broadcasts over arrays of d and t."""
    x = 4.0 * g * np.abs(t)
    return 2.0 * np.exp(x) * special.ive(d, x)


def polished_arrival(t, v, t0, width, iterations=30) -> np.ndarray:
    """The least-squares minimum (a, b, t0, w) of the arrival model
    a + b exp(-(t - t0)^2 / 2 w^2) on the samples (t, v), polished by
    Newton's method from a fit's ``t0`` and ``width``, with a and b first
    solved for linearly there.  Residuals, gradient and the exact Hessian
    are summed in extended precision (``np.longdouble``) over x = t - t0;
    only the 4 x 4 step is solved in double."""
    t, v = np.asarray(t, dtype=np.longdouble), np.asarray(v, dtype=np.longdouble)
    e = np.exp(-((t - t0) ** 2) / (2 * np.longdouble(width) ** 2))
    basis = np.column_stack([np.ones_like(e), e]).astype(float)
    a, b = np.linalg.lstsq(basis, v.astype(float), rcond=None)[0]
    p = np.array([a, b, t0, width], dtype=np.longdouble)
    for _ in range(iterations):
        a, b, t0, w = p
        x = t - t0
        e = np.exp(-x * x / (2 * w * w))
        r = a + b * e - v
        jac = np.stack([np.ones_like(x), e, b * e * x / w ** 2, b * e * x ** 2 / w ** 3], axis=1)
        hess = jac.T @ jac
        hess[1, 2] += np.sum(r * e * x) / w ** 2                       # d2f / db dt0
        hess[1, 3] += np.sum(r * e * x ** 2) / w ** 3                  # d2f / db dw
        hess[2, 2] += b * np.sum(r * e * (x ** 2 / w ** 4 - 1 / w ** 2))
        hess[2, 3] += b * np.sum(r * e * (x ** 3 / w ** 5 - 2 * x / w ** 3))
        hess[3, 3] += b * np.sum(r * e * (x ** 4 / w ** 6 - 3 * x ** 2 / w ** 4))
        hess[2, 1], hess[3, 1], hess[3, 2] = hess[1, 2], hess[1, 3], hess[2, 3]
        p = p + np.linalg.solve(hess.astype(float), -(jac.T @ r).astype(float))
    return p.astype(float)


def gauss_jacobian(t, a, b, t0, w) -> np.ndarray:
    """Columns d/da, d/db, d/dt0, d/dw of the arrival model a + b exp(-(t -
    t0)^2 / 2 w^2), shape (len(t), 4).

    With x = t - t0 and e = exp(-x^2 / 2 w^2): 1, e, b e x / w^2, b e x^2 / w^3.
    """
    x = t - t0
    e = np.exp(-(x ** 2) / (2.0 * w ** 2))
    be_x = b * e * x / w ** 2
    return np.stack(np.broadcast_arrays(1.0, e, be_x, be_x * x / w), axis=-1)


def arrival_segment(t, v):
    """The segment that ``analysis._segments`` cuts from the one trace
    ``v``, bounded as ``analysis._fit_pulses`` bounds it: (times, values,
    start, lower bounds, upper bounds); raises FitError if the trace has
    none."""
    from magnonchain import analysis
    v = np.asarray(v)
    *segment, (reason,) = analysis._segments(v[None, :])
    if reason:
        raise analysis.FitError(reason)
    start, stop, peak, baseline, height = (x[0] for x in segment)
    t_fit = t[start: stop + 1]
    span = float(t_fit[-1] - t_fit[0])
    return (t_fit, v[start: stop + 1],
            (float(baseline), float(height), float(t[peak]), span / 6.0),
            (-np.inf, 0.0, t_fit[0], 0.5 * (t_fit[1] - t_fit[0])),
            (np.inf, np.inf, t_fit[-1], 10.0 * span))


def full_space(x) -> np.ndarray:
    """Amplitudes of a StateVector, shape (2^N,), or of a Trajectory,
    shape (T, 2^N), scattered from their basis into the whole product
    space, for the full-space oracles (N <= 12)."""
    assert x.n_sites <= 12, "full-space oracles stop at N = 12"
    values = x.states if hasattr(x, "states") else x.amplitudes
    out = np.zeros(values.shape[:-1] + (2 ** x.n_sites,), dtype=complex)
    out[..., x.basis] = values
    return out


def random_coupling(n: int, seed: int, scale: float = 100.0) -> np.ndarray:
    """Random symmetric zero-diagonal matrix for oracle comparisons."""
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(n, n)) * scale
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return J


def reference_csv(names, rows, meta=None) -> str:
    """CSV text as the row-at-a-time writer formats it: strings verbatim,
    integral cells with str(int(x)), everything else with repr(float(x))."""
    from magnonchain.io import header_lines

    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    lines = header_lines(meta) + [",".join(names)]
    lines += [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture
def pin_propagator(monkeypatch):
    """``pin_propagator(method, step_tol)``: every sector ``dynamics.evolve``
    propagates from then on takes ``method`` ('dense' or 'krylov') instead
    of the cost model's choice, if given, and the Krylov error target
    ``dynamics.STEP_TOL`` is ``step_tol``, if given; both are restored at
    the end of the test.  A later call replaces what it names."""
    from magnonchain import dynamics

    def pin(method=None, step_tol=None):
        if method is not None:
            monkeypatch.setattr(dynamics, "_propagator",
                                lambda *sector: (method, f"{method}: pinned by the test"))
        if step_tol is not None:
            monkeypatch.setattr(dynamics, "STEP_TOL", step_tol)

    return pin


@pytest.fixture
def reference_trap():
    """The reference trap used throughout: (0.219, 2.655, 2.628) MHz, N=7."""
    from magnonchain import ionchain
    trap = ionchain.TrapConfig(n_ions=7, axial_freq=0.219e6,
                               transverse_freq_x=2.655e6, transverse_freq_y=2.628e6,
                               detuning=0.0, ion_mass=ionchain.MASS_CA40,
                               laser_wavelength=ionchain.WAVELENGTH_CA40)
    return ionchain.with_detuning_above_top(trap, 30e3, ionchain.transverse_mode_spectrum(trap))


@pytest.fixture
def reference_beam():
    from magnonchain import ionchain
    return ionchain.BeamProfile(peak_rabi=100e3, waist_along_chain=380e-6, center_offset=0.0)
