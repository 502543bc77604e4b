"""Track pairwise entanglement rippling outward after a central spin flip.

A 7-site XY chain with power-law couplings starts with only the center spin
up.  Concurrence between site pairs placed symmetrically around the center
peaks later the farther out the pair sits -- the entangled quasiparticle
pair travels to the edges.  At the first peak the script also runs the
finite-shot tomography pipeline on the innermost pair and reports the
reconstructed concurrence with a bootstrap error bar.

Writes concurrence_front.csv (time traces) and peaks.csv.
"""

import sys
from pathlib import Path

import numpy as np

from magnonchain import dynamics, entanglement, io, ionchain

# --- configuration ---------------------------------------------------------
N_IONS = 7
ALPHA = 1.75
JBAR = 2 * np.pi * 30.0          # rad/s
FLIP_SITE = 4
PAIRS = ((3, 5), (2, 6), (1, 7))
T_MAX = 0.015                    # s
N_TIMES = 301
PEAK_FLOOR = 0.05                # ignore wiggles below this concurrence
TOMO_SHOTS = 2000
TOMO_SEED = 7
BOOT_RESAMPLES = 300
OUTDIR = Path("runs/entanglement_front")
# ---------------------------------------------------------------------------


def first_peak(times, trace):
    """Index of the first interior local maximum above PEAK_FLOOR."""
    for i in range(1, len(trace) - 1):
        if trace[i] >= PEAK_FLOOR and trace[i] >= trace[i - 1] and trace[i] > trace[i + 1]:
            return i
    return int(np.argmax(trace))


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else OUTDIR
    times = np.linspace(0.0, T_MAX, N_TIMES)

    J = ionchain.power_law_coupling(N_IONS, ALPHA, JBAR)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(N_IONS, (FLIP_SITE,))
    traj = dynamics.evolve(psi0, H, times)

    traces = {}
    for pair in PAIRS:
        traces[pair] = np.array([
            entanglement.concurrence(
                entanglement.reduced_density_matrix(traj.state(k), pair))
            for k in range(traj.times.size)])

    print(f"N={N_IONS}, alpha={ALPHA}, Jbar/2pi = {JBAR / (2 * np.pi):.1f} Hz, "
          f"flip site {FLIP_SITE}")
    print(f"{'pair':>8} {'t_peak/ms':>10} {'C_peak':>8}")
    peak_rows = []
    for pair in PAIRS:
        k = first_peak(times, traces[pair])
        print(f"{str(pair):>8} {times[k] * 1e3:10.2f} {traces[pair][k]:8.3f}")
        peak_rows.append((pair[0], pair[1], times[k], traces[pair][k]))

    # finite-shot check on the innermost pair at its peak
    pair = PAIRS[0]
    k = first_peak(times, traces[pair])
    rho = entanglement.reduced_density_matrix(traj.state(k), pair)
    counts = entanglement.simulate_tomography(rho, shots=TOMO_SHOTS, seed=TOMO_SEED)
    rec = entanglement.tomography_reconstruct(counts, subsystem=pair)
    est, err = entanglement.bootstrap(counts, BOOT_RESAMPLES, seed=TOMO_SEED + 1)
    print(f"\npair {pair} at t = {times[k] * 1e3:.2f} ms, {TOMO_SHOTS} shots/basis:")
    print(f"  exact concurrence          {traces[pair][k]:.4f}")
    print(f"  reconstructed concurrence  {entanglement.concurrence(rec):.4f}")
    print(f"  bootstrap                  {est:.4f} +- {err:.4f}")

    io.write_columns(outdir / "concurrence_front.csv",
                     ["time"] + [f"C_{a}_{b}" for a, b in PAIRS],
                     [times] + [traces[p] for p in PAIRS],
                     meta={"alpha": ALPHA, "jbar_rad_s": JBAR, "flip_site": FLIP_SITE})
    path = io.write_columns(outdir / "peaks.csv",
                            ["site_a", "site_b", "t_peak", "c_peak"],
                            [list(column) for column in zip(*peak_rows)],
                            meta={"alpha": ALPHA, "peak_floor": PEAK_FLOOR})
    print(f"\nwrote {path.parent}/")


if __name__ == "__main__":
    main()
