"""Sweep the drive detuning above the top transverse mode and track the
interaction-range exponent alpha of the resulting coupling matrix.

For each detuning gap the spin-spin couplings are rebuilt from the beam and
the trap's mode spectrum, which is solved once (the detuning plays no part in
it), the magnon dispersion is diagonalized and refit with the
power-law model, and the exponent is compared against the direct real-space
fit of J_ij vs distance.  Output: a table on stdout and alpha_vs_gap.csv.
"""

import argparse
from pathlib import Path

import numpy as np

from magnonchain import analysis, ionchain, io, magnon

# --- configuration ---------------------------------------------------------
N_IONS = 7
AXIAL_FREQ = 0.219e6           # Hz
TRANSVERSE_FREQ_X = 2.655e6    # Hz
TRANSVERSE_FREQ_Y = 2.628e6    # Hz
PEAK_RABI = 100e3              # Hz, one bichromatic component
WAIST_ALONG_CHAIN = 380e-6     # m
GAP_MIN = 15e3                 # Hz above the top mode
GAP_MAX = 120e3
# ---------------------------------------------------------------------------


def scan(gaps_hz):
    trap = ionchain.TrapConfig(
        n_ions=N_IONS, axial_freq=AXIAL_FREQ,
        transverse_freq_x=TRANSVERSE_FREQ_X, transverse_freq_y=TRANSVERSE_FREQ_Y,
        detuning=TRANSVERSE_FREQ_X, ion_mass=ionchain.MASS_CA40,
        laser_wavelength=ionchain.WAVELENGTH_CA40)
    beam = ionchain.BeamProfile(peak_rabi=PEAK_RABI,
                                waist_along_chain=WAIST_ALONG_CHAIN, center_offset=0.0)
    modes = ionchain.transverse_mode_spectrum(trap)

    rows = []
    for gap in gaps_hz:
        t = ionchain.with_detuning_above_top(trap, gap, modes)
        J = ionchain.build_coupling_matrix(t, beam, modes)
        spectrum = magnon.diagonalize_magnons(J)
        disp = analysis.fit_alpha_dispersion(
            np.column_stack([spectrum.pseudo_momenta, spectrum.energies]),
            n_ions=J.n_ions)
        real = analysis.fit_alpha_realspace(J)
        rows.append((gap, J.nn_mean / (2 * np.pi), disp.alpha, real.alpha,
                     disp.residual, disp.note or "-"))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=13,
                    help="number of gap values (log-spaced)")
    ap.add_argument("--outdir", type=Path, default=Path("runs/detuning_scan"))
    args = ap.parse_args()

    gaps = np.geomspace(GAP_MIN, GAP_MAX, args.points)
    rows = scan(gaps)

    print(f"{N_IONS}-ion chain, gaps {GAP_MIN / 1e3:.0f}-{GAP_MAX / 1e3:.0f} kHz "
          f"above the top transverse mode")
    print(f"{'gap/kHz':>9} {'Jbar/Hz':>9} {'alpha(disp)':>12} {'alpha(real)':>12} "
          f"{'residual':>10}  note")
    for gap, jbar, a_disp, a_real, res, note in rows:
        print(f"{gap / 1e3:9.2f} {jbar:9.2f} {a_disp:12.4f} {a_real:12.4f} "
              f"{res:10.3e}  {note}")

    path = io.write_columns(
        args.outdir / "alpha_vs_gap.csv",
        ["gap_hz", "jbar_hz", "alpha_dispersion", "alpha_realspace",
         "residual", "note"],
        [list(column) for column in zip(*rows)],
        meta={"n_ions": N_IONS, "peak_rabi_hz": PEAK_RABI,
              "config": io.config_hash({"gaps": list(gaps), "n_ions": N_IONS})})
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
