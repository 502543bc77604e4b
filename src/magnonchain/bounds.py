"""Nearest-neighbour light-cone references.

A run's light cone is compared against that of the uniform
nearest-neighbour XY chain of the same length, whose mean bond is the
chain's.  Its cone velocity is the largest magnon group velocity of the
closed-form dispersion 2 Jbar cos(k pi/(N+1)); no matrix is built or
diagonalized.  The largest nearest-neighbour bond g is reported with it:
it sets the Lieb-Robinson bound 2 I_d(4 g |t|) of a nearest-neighbour
chain, with I_d the modified Bessel function of the first kind.

Everything uses hbar = 1; g and Jbar are angular frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ionchain import CouplingMatrix
from .magnon import max_group_velocity


@dataclass(frozen=True)
class LightConeParams:
    """Nearest-neighbour light-cone reference parameters.

    ``g`` (rad/s) is the largest nearest-neighbour bond, the rate of the
    Lieb-Robinson bound; ``v`` (sites/s) is the cone velocity of the uniform
    nearest-neighbour model at the mean bond strength ``jbar``.
    """

    g: float
    v: float
    jbar: float


def nn_lightcone(J: CouplingMatrix) -> LightConeParams:
    """Nearest-neighbour light-cone reference for a given coupling matrix.

    The mean first-off-diagonal coupling Jbar defines a uniform
    nearest-neighbour chain of the same length whose maximal magnon group
    velocity is the cone velocity; g = max_i |J_{i,i+1}|.  That chain's
    energies 2 Jbar cos(k pi/(N+1)), k = 1..N, are in node order: mode k
    has k-1 nodes.
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
