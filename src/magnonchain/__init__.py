"""Quasiparticle (magnon) dynamics in long-range interacting spin chains.

The package models the effective spin system realised in linear ion-trap
experiments: a chain of N spin-1/2 particles coupled through laser-mediated
interactions J_ij with an approximately power-law decay J_ij ~ 1/|i-j|^alpha.

Modules
-------
ionchain
    Ion-crystal equilibrium positions, transverse normal modes, and the
    spin-spin coupling matrix J_ij built from trap and beam parameters.
magnon
    Single-excitation sector: dispersion relation, group velocities, exact
    spectral quench evolution.
dynamics
    State-vector evolution under the transverse-field Ising or XY
    Hamiltonian on the conserved blocks a quench reaches (sector-native
    states and trajectories), with quench preparation and observables.
entanglement
    Reduced density matrices, entropy and concurrence, simulated
    finite-shot two-qubit tomography with bootstrap error bars.
bounds
    Nearest-neighbour light-cone references: the cone velocity of the
    uniform chain at the mean bond, and the largest bond.
analysis
    Fitting layer: power-law exponent fits, Gaussian arrival-time fits,
    front-velocity extraction.
cli
    Command-line front end (``magnonchain`` entry point).

Conventions
-----------
* Configuration values (trap frequencies, Rabi frequencies, detunings,
  transverse field) are plain frequencies in Hz; lengths are in meters.
* All internal dynamical quantities (J_ij, B, mode energies omega_k) are
  angular frequencies in rad/s, with hbar = 1.
* Sites are numbered 1..N in every public interface.  In the 2^N product
  basis, site 1 is the least significant bit and bit=1 means spin up.
"""

__version__ = "0.1.0"

from . import analysis, bounds, dynamics, entanglement, ionchain, io, magnon

__all__ = [
    "__version__",
    "analysis",
    "bounds",
    "dynamics",
    "entanglement",
    "ionchain",
    "io",
    "magnon",
]
