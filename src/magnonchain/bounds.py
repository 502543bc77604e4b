"""Lieb-Robinson bound evaluation and nearest-neighbour light-cone references.

For a nearest-neighbour XY chain with bond strength g (rad/s), the signal
that a local perturbation can deposit at distance d after time t is bounded
by a sum over hopping paths:

    F(d, t) = 2 sum_{m >= d} N(m) (2 g |t|)^m / m!

where N(m) = C(m, (m-d)/2) counts the m-step walks covering a net distance
d (zero when m and d differ in parity).  The sum has the closed form
F(d, t) = 2 I_d(4 g |t|) with I_d the modified Bessel function of the
first kind; series and closed form are implemented independently and
cross-validated (the overall factor 2 is part of the bound's
normalization and is carried by both routes).

The nearest-neighbour cone velocity comes from the uniform chain's
closed-form dispersion; no matrix is built or diagonalized.

Everything uses hbar = 1; g and 1/t are angular frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ionchain import CouplingMatrix
from .magnon import max_group_velocity


class TruncationError(RuntimeError):
    """Raised when a series cannot reach the requested truncation error."""


@dataclass(frozen=True)
class LightConeParams:
    """Nearest-neighbour light-cone reference parameters.

    ``g`` (rad/s) is the largest nearest-neighbour bond and feeds the
    Bessel bound; ``v`` (sites/s) is the cone velocity of the uniform
    nearest-neighbour model at the mean bond strength ``jbar``.
    """

    g: float
    v: float
    jbar: float

    def __post_init__(self):
        if self.g < 0 or self.v < 0:
            raise ValueError("g and v must be non-negative")


@dataclass(frozen=True)
class SeriesSum:
    """Truncated series value with its next-term remainder estimate."""

    value: float
    remainder: float
    terms_used: int


def path_count(m: int, d: int) -> int:
    """Number of m-step nearest-neighbour walks with net displacement d.

    Exact integer C(m, (m-d)/2) when m >= d and m, d share parity, else 0.
    Python integers keep this exact at any size.
    """
    if m < 0 or d < 0:
        raise ValueError("m and d must be non-negative")
    if m < d or (m - d) % 2:
        return 0
    return math.comb(m, (m - d) // 2)


def lr_bound_series(d: int, t: float, g: float, m_max: int = 200,
                    rtol: float = 1e-12) -> SeriesSum:
    """Path-counting evaluation of the bound F(d, t), truncated at m_max.

    Terms 2 N(m) x^m / m! with x = 2 g |t| are accumulated over
    m = d, d+2, ... until the next term falls below ``rtol`` of the
    running sum or ``m_max`` is passed.  The returned ``remainder`` is the
    ratio of the first omitted term to the sum.

    Raises
    ------
    TruncationError
        If the truncation target is still unmet at m_max.
    """
    if d < 0:
        raise ValueError("distance must be non-negative")
    if m_max < d:
        raise ValueError(f"m_max {m_max} below leading order {d}")
    x = 2.0 * g * abs(t)
    # x^m/m! maintained iteratively in steps of two
    xm_over_mfact = x ** d / math.factorial(d)
    total = 0.0
    m = d
    while m <= m_max:
        term = 2.0 * path_count(m, d) * xm_over_mfact
        total += term
        xm_over_mfact *= x * x / ((m + 1) * (m + 2))
        next_term = 2.0 * path_count(m + 2, d) * xm_over_mfact
        if next_term <= rtol * total:
            return SeriesSum(value=total, remainder=_ratio(next_term, total), terms_used=m)
        m += 2
    raise TruncationError(
        f"series for d={d}, 2g|t|={x:.4g} not converged to rtol={rtol:g} at "
        f"m_max={m_max} (remainder estimate {_ratio(next_term, total):.3g})")


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0.0 else 0.0


def lr_bound_bessel(d: int, t: float, g: float) -> float:
    """Closed-form bound F(d, t) = 2 I_d(4 g |t|)."""
    if d < 0:
        raise ValueError("distance must be non-negative")
    return 2.0 * modified_bessel_i(d, 4.0 * g * abs(t))


def modified_bessel_i(order: int, x: float, scaled: bool = False) -> float:
    """Modified Bessel function I_order(x) for x >= 0, integer order.

    Evaluated as e^x times scipy's exponentially scaled ``ive``, which
    stays accurate where the unscaled ``iv`` underflows (tiny x, high
    order).  With ``scaled`` the numerically safe e^-x I_order(x) is
    returned; unscaled values overflow to inf for x beyond ~709 as they
    must.  scipy.special is imported here, on first use: no command-line
    entry point evaluates the bound, and the import costs every start.
    """
    from scipy import special

    if order < 0:
        raise ValueError("order must be non-negative")
    if x < 0:
        raise ValueError("argument must be non-negative")
    value = float(special.ive(order, x))
    if scaled or value == 0.0:          # 0 * e^x would be nan once e^x overflows
        return value
    with np.errstate(over="ignore"):
        return float(np.exp(np.float64(x)) * value)


def nn_lightcone(J: CouplingMatrix) -> LightConeParams:
    """Nearest-neighbour light-cone reference for a given coupling matrix.

    The mean first-off-diagonal coupling Jbar defines a uniform
    nearest-neighbour chain of the same length whose maximal magnon group
    velocity is the cone velocity; g = max_i |J_{i,i+1}| feeds the Bessel
    bound.  That chain's energies 2 Jbar cos(k pi/(N+1)), k = 1..N, are in
    node order: mode k has k-1 nodes.
    """
    n, jbar = J.n_ions, J.nn_mean
    g = float(np.abs(np.diag(J.values, 1)).max())
    energies = 2.0 * jbar * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    return LightConeParams(g=g, v=max_group_velocity(energies), jbar=jbar)


def cone_arrival_times(params: LightConeParams, distances) -> np.ndarray:
    """Cone line t = d / v for the given distances (inf when v = 0)."""
    d = np.asarray(distances, dtype=float)
    if params.v == 0.0:
        return np.full(d.shape, np.inf)
    return d / params.v
