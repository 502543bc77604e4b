"""Quench a single excitation at the center of a power-law chain and measure
how fast the magnetisation front outruns the nearest-neighbour light cone.

For each exponent alpha the excitation spreads under the exact magnon
propagator, arrival times come from Gaussian fits to the first maximum at
each site, and a straight-line fit through (distance, t0) gives the front
velocity.  The nearest-neighbour cone velocity of a uniform chain with the
same Jbar is the reference; ratios > 1 quantify the long-range speed-up.

Writes front_velocities.csv plus one arrivals CSV per alpha.
"""

import sys
from pathlib import Path

import numpy as np

from magnonchain import analysis, bounds, io, ionchain, magnon

# --- configuration ---------------------------------------------------------
N_IONS = 15
SOURCE = 8                       # center site, 1-based
JBAR = 2 * np.pi * 30.0          # rad/s, nearest-neighbour coupling scale
ALPHAS = (0.75, 1.07, 1.41, 1.75, 2.50)
T_MAX = 0.04                     # s
N_TIMES = 801
OUTDIR = Path("runs/lightcone")  # overridable via argv[1]
# ---------------------------------------------------------------------------


def front_for_alpha(alpha, times):
    J = ionchain.power_law_coupling(N_IONS, alpha, JBAR)
    states = magnon.evolve_single_excitation(J, SOURCE, times)
    sz = np.array([2.0 * np.abs(s.amplitudes) ** 2 - 1.0 for s in states])
    arrivals, skipped = analysis.arrival_times(times, sz, source=SOURCE)
    front = analysis.fit_front_velocity([(d, fit.t0) for d, fit in arrivals])
    return arrivals, skipped, front


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else OUTDIR
    times = np.linspace(0.0, T_MAX, N_TIMES)

    # one uniform-chain cone as the common reference (same Jbar throughout)
    cone = bounds.nn_lightcone(ionchain.nearest_neighbour_coupling(N_IONS, JBAR))
    print(f"N={N_IONS}, Jbar/2pi = {JBAR / (2 * np.pi):.1f} Hz, source site {SOURCE}")
    print(f"nearest-neighbour cone velocity: {cone.v:.2f} sites/s\n")
    print(f"{'alpha':>6} {'v (sites/s)':>12} {'stderr':>8} {'v/v_cone':>9} {'sites':>6} "
          f"{'skipped':>8}")

    table = []
    for alpha in ALPHAS:
        arrivals, skipped, front = front_for_alpha(alpha, times)
        ratio = front.velocity / cone.v
        print(f"{alpha:6.2f} {front.velocity:12.1f} {front.velocity_stderr:8.2f} "
              f"{ratio:9.3f} {len(front.sites_used):6d} {len(skipped):8d}")
        table.append((alpha, front.velocity, front.velocity_stderr, ratio))
        rows = [(fit.site, d, fit.t0, fit.width, fit.goodness) for d, fit in arrivals]
        io.write_columns(outdir / f"arrivals_alpha_{alpha:.2f}.csv",
                         ["site", "distance", "t0", "width", "goodness"],
                         [list(column) for column in zip(*rows)],
                         meta={"alpha": alpha, "jbar_rad_s": JBAR, "source": SOURCE})

    path = io.write_columns(outdir / "front_velocities.csv",
                            ["alpha", "velocity", "velocity_stderr", "ratio_to_cone"],
                            [list(column) for column in zip(*table)],
                            meta={"n_ions": N_IONS, "jbar_rad_s": JBAR,
                                  "cone_velocity": cone.v})
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
