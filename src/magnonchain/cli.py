"""Command-line front end: orchestration, reproducible seeds, data export.

Subcommands
-----------
modes          transverse mode spectrum and ion positions of a trap
couplings      build (or re-export) a coupling matrix as CSV
dispersion     magnon dispersion of a coupling matrix + exponent fit
quench         local quench: flip sites, propagate, export magnetisation
global-quench  all spins along +x under the Ising model with field
tomo           simulated two-qubit tomography with projection noise
lightcone      arrival-time fits, front velocity, and NN cone overlay
fit            exponent / cone report for an existing coupling file

Option precedence: command-line flag > config file ([trap]/[beam]/
[couplings]/[quench]/[run]/[output] INI sections) > built-in default.
The output directory additionally falls back to $MAGNONCHAIN_OUTDIR
before defaulting to the working directory.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
Every run prints one JSON line per artifact written; identical
configuration and seed reproduce every artifact byte for byte.

Unit conventions at this boundary: flags and config files carry plain
frequencies in Hz (and seconds/meters); conversion to angular
frequencies happens on entry, as everywhere else in the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import __version__, analysis, bounds, dynamics, entanglement, ionchain, magnon
from . import io as mio
from .io import ConfigError, load_couplings as import_couplings

OUTDIR_ENV = "MAGNONCHAIN_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: Reference trap used when no config file overrides it (Hz).
DEFAULT_TRAP = {
    "axial_freq": 0.219e6,
    "transverse_freq_x": 2.655e6,
    "transverse_freq_y": 2.628e6,
    "transverse_field": 0.0,
}
#: Reference addressing beam (Hz / meters).
DEFAULT_BEAM = {
    "peak_rabi": 100e3,
    "waist_along_chain": 380e-6,
    "waist_transverse": 40e-6,
    "center_offset": 0.0,
}
DEFAULT_GAP = 30e3          # detuning above the top mode, Hz
DEFAULT_ALPHA = 1.5
DEFAULT_JBAR = 30.0         # nearest-neighbour coupling scale, Hz (ms-scale dynamics)

_MODELS = ("ising", "xy", "single_excitation")
_SOURCES = ("trap", "power_law", "nearest_neighbour", "file")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI run.

    This is the object that gets hashed into every artifact header
    (minus the output location), so any field change shows up in the
    provenance.  ``nn_strength`` is already angular (rad/s);
    ``field_hz`` stays in Hz with None meaning "auto": B = 50 max|J|
    for Ising runs.
    """

    command: str
    n_ions: int
    trap: ionchain.TrapConfig | None
    beam: ionchain.BeamProfile | None
    source: str
    alpha: float
    nn_strength: float
    coupling_file: str | None
    kind: str
    flip: tuple[int, ...]
    model: str
    field_hz: float | None
    t_start: float
    t_end: float
    n_points: int
    observables: tuple[str, ...]
    sites: tuple[int, int]
    sample_time: float
    unit: str
    seed: int
    shots: int
    resamples: int
    outdir: Path
    format: str

    def __post_init__(self):
        if self.n_ions < 2:
            raise ConfigError("need at least 2 ions")
        if self.source not in _SOURCES:
            raise ConfigError(f"unknown coupling source {self.source!r}")
        if self.model not in _MODELS:
            raise ConfigError(f"unknown model {self.model!r} (expected {_MODELS})")
        if self.kind not in ("local", "global"):
            raise ConfigError(f"unknown quench kind {self.kind!r}")
        if self.n_points < 2:
            raise ConfigError("n_points must be >= 2")
        if not (self.t_end > self.t_start >= 0.0):
            raise ConfigError("need t_end > t_start >= 0")
        self._check_sites(self.flip)
        if self.command == "tomo":
            if len(set(self.sites)) != 2:
                raise ConfigError("tomography sites must be two distinct sites")
            self._check_sites(self.sites)
        if self.format not in ("csv", "ndjson"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.unit not in mio.UNIT_FACTORS:
            raise ConfigError(f"unknown unit {self.unit!r}")
        if self.shots < 1 or self.resamples < 100:
            raise ConfigError("need shots >= 1 and resamples >= 100")
        if self.sample_time < 0:
            raise ConfigError("sample time must be >= 0")

    def _check_sites(self, sites) -> None:
        try:
            for s in sites:
                ionchain._check_site(self.n_ions, s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @cached_property
    def hash(self) -> str:
        d = asdict(self)
        d.pop("outdir")             # where artifacts land is not physics
        return mio.config_hash(d)

    def meta(self, **extra) -> dict:
        return {"config_hash": self.hash, "seed": self.seed,
                "command": self.command, "n_ions": self.n_ions, **extra}


# ---------------------------------------------------------------------------
# argument parsing and resolution


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``magnonchain`` argument parser, built on first use and then reused.

    Parsing never changes the parser, and every ``parse_args`` call fills
    a fresh namespace, so one instance serves every ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="magnonchain",
        description="Magnon dynamics in long-range interacting trapped-ion spin chains.",
        epilog=f"Default output directory: --outdir, else [output] directory, "
               f"else ${OUTDIR_ENV}, else '.'")
    parser.add_argument("--version", action="version", version=f"magnonchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", metavar="FILE", help="INI run configuration")
    common.add_argument("--outdir", "-o", metavar="DIR", help="artifact directory")
    common.add_argument("--seed", "-s", type=int, help="RNG seed (default 0)")
    common.add_argument("--format", "-f", choices=("csv", "ndjson"),
                        help="trajectory export format (default csv)")
    common.add_argument("--n", "--n-ions", dest="n_ions", type=int, metavar="N",
                        help="chain length")
    common.add_argument("--source", choices=[s.replace("_", "-") for s in _SOURCES],
                        help="coupling matrix source")
    common.add_argument("--alpha", "-a", type=float,
                        help=f"power-law exponent for synthetic couplings "
                             f"(default {DEFAULT_ALPHA})")
    common.add_argument("--jbar", "-j", type=float, metavar="HZ",
                        help=f"nearest-neighbour coupling scale in Hz "
                             f"(default {DEFAULT_JBAR:g})")
    common.add_argument("--couplings", metavar="FILE",
                        help="coupling CSV for --source file")
    common.add_argument("--gap", "-g", type=float, metavar="HZ",
                        help=f"detuning above the top transverse mode "
                             f"(default {DEFAULT_GAP:g})")
    common.add_argument("--detuning", type=float, metavar="HZ",
                        help="absolute detuning from the spin transition "
                             "(overrides --gap)")

    quenchy = argparse.ArgumentParser(add_help=False)
    quenchy.add_argument("--flip", type=int, nargs="+", metavar="SITE",
                         help="1-based sites to flip (default: center site)")
    quenchy.add_argument("--model", "-m",
                         choices=[m.replace("_", "-") for m in _MODELS],
                         help="propagation model")
    quenchy.add_argument("--field", metavar="HZ|auto",
                         help="transverse field for Ising runs; 'auto' = 50 max|J| "
                              "(the excitation-conserving regime)")
    quenchy.add_argument("--t-start", type=float, metavar="S", help="first sample time")
    quenchy.add_argument("--t-end", "-t", type=float, metavar="S", help="last sample time")
    quenchy.add_argument("--n-points", type=int, metavar="M", help="number of sample times")
    quenchy.add_argument("--correlations", action="store_true",
                         help="also export connected sigma-z correlations")

    sub.add_parser("modes", parents=[common],
                   help="transverse mode spectrum and ion positions")
    p = sub.add_parser("couplings", parents=[common],
                       help="build a coupling matrix and export it as CSV")
    p.add_argument("--unit", choices=sorted(mio.UNIT_FACTORS), default="rad/s",
                   help="unit tag of the exported matrix")
    sub.add_parser("dispersion", parents=[common],
                   help="magnon dispersion + power-law exponent fit")
    sub.add_parser("quench", parents=[common, quenchy],
                   help="local quench: flip sites and propagate")
    sub.add_parser("global-quench", parents=[common, quenchy],
                   help="all spins along +x under the Ising model")
    p = sub.add_parser("tomo", parents=[common, quenchy],
                       help="simulated two-qubit tomography after a quench")
    p.add_argument("--sites", type=int, nargs=2, metavar=("I", "J"),
                   help="tomography site pair (default 3 5)")
    p.add_argument("--time", type=float, metavar="S",
                   help="evolution time before tomography (default 0.0043)")
    p.add_argument("--shots", type=int, metavar="K", help="shots per basis (default 1000)")
    p.add_argument("--resamples", type=int, metavar="R",
                   help="bootstrap resamples (default 200)")
    sub.add_parser("lightcone", parents=[common, quenchy],
                   help="arrival fits, front velocity, and NN cone overlay")
    sub.add_parser("fit", parents=[common],
                   help="exponent / cone report for an existing coupling CSV")
    return parser


#: Per-subcommand fallbacks applied after flags and config file.
_COMMAND_DEFAULTS = {
    "modes": {"source": "trap"},
    "couplings": {"source": "trap"},
    "dispersion": {"source": "trap"},
    "quench": {},
    "global-quench": {"kind": "global", "model": "ising", "t_end": 0.005},
    "tomo": {},
    "lightcone": {"model": "single_excitation", "n_ions": 15,
                  "t_end": 0.04, "n_points": 801},
    "fit": {"source": "file"},
}


def _pick(*values):
    """First value that is not None."""
    for v in values:
        if v is not None:
            return v
    return None


def resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags, config file, environment, and defaults into a RunConfig."""
    cfg = mio.load_run_config(args.config) if args.config else {}
    trap_cfg = cfg.get("trap", {})
    coup_cfg = cfg.get("couplings", {})
    quench_cfg = cfg.get("quench", {})
    run_cfg = cfg.get("run", {})
    out_cfg = cfg.get("output", {})
    fallback = _COMMAND_DEFAULTS[args.command]

    def opt(name):
        return getattr(args, name, None)

    n_ions = _pick(opt("n_ions"), trap_cfg.get("n_ions"),
                   fallback.get("n_ions"), 7)
    source = _pick(opt("source"), coup_cfg.get("source"),
                   fallback.get("source"), "power_law")
    source = source.replace("-", "_")
    model = _pick(opt("model"), quench_cfg.get("model"), fallback.get("model"), "xy")
    model = model.replace("-", "_")
    kind = _pick(fallback.get("kind"), quench_cfg.get("kind"), "local")
    flip = _pick(tuple(opt("flip") or ()) or None, quench_cfg.get("flip"),
                 ((n_ions + 1) // 2,))
    if kind == "global":
        flip = ()

    # absent everywhere -> None -> "auto" (B = 50 max|J| for Ising runs);
    # an explicit 0 from flag or file is honored
    field_raw = _pick(opt("field"), trap_cfg.get("transverse_field"))
    if isinstance(field_raw, str):
        field_hz = None if field_raw == "auto" else float(field_raw)
    else:
        field_hz = field_raw

    trap = None
    beam = None
    if source == "trap" or args.command == "modes":
        trap = _resolve_trap(trap_cfg, args, n_ions)
        beam_params = {**DEFAULT_BEAM, **cfg.get("beam", {})}
        beam = ionchain.BeamProfile(**beam_params)

    outdir = _pick(opt("outdir"), out_cfg.get("directory"),
                   os.environ.get(OUTDIR_ENV), ".")

    return RunConfig(
        command=args.command,
        n_ions=int(n_ions),
        trap=trap,
        beam=beam,
        source=source,
        alpha=float(_pick(opt("alpha"), coup_cfg.get("alpha"), DEFAULT_ALPHA)),
        nn_strength=2.0 * np.pi * float(_pick(opt("jbar"), coup_cfg.get("nn_strength"),
                                              DEFAULT_JBAR)),
        coupling_file=_pick(opt("couplings"), coup_cfg.get("file")),
        kind=kind,
        flip=tuple(int(s) for s in flip),
        model=model,
        field_hz=field_hz,
        t_start=float(_pick(opt("t_start"), run_cfg.get("t_start"),
                            fallback.get("t_start"), 0.0)),
        t_end=float(_pick(opt("t_end"), run_cfg.get("t_end"),
                          fallback.get("t_end"), 0.02)),
        n_points=int(_pick(opt("n_points"), run_cfg.get("n_points"),
                           fallback.get("n_points"), 201)),
        observables=("magnetisation", "correlations")
        if (getattr(args, "correlations", False) or args.command == "global-quench")
        else ("magnetisation",),
        sites=tuple(getattr(args, "sites", None) or (3, 5)),
        sample_time=float(_pick(opt("time"), 0.0043)),
        unit=getattr(args, "unit", "rad/s"),
        seed=int(_pick(opt("seed"), run_cfg.get("seed"), 0)),
        shots=int(_pick(opt("shots"), run_cfg.get("shots"), 1000)),
        resamples=int(_pick(opt("resamples"), run_cfg.get("resamples"), 200)),
        outdir=Path(outdir),
        format=_pick(opt("format"), out_cfg.get("format"), "csv"),
    )


def _resolve_trap(trap_cfg: dict, args, n_ions: int) -> ionchain.TrapConfig:
    params = dict(DEFAULT_TRAP)
    for key in ("axial_freq", "transverse_freq_x", "transverse_freq_y",
                "transverse_field", "ion_mass", "laser_wavelength"):
        if key in trap_cfg:
            params[key] = trap_cfg[key]
    trap = ionchain.TrapConfig(n_ions=n_ions, detuning=0.0, **params)
    detuning = _pick(getattr(args, "detuning", None), trap_cfg.get("detuning"))
    if detuning is not None:
        return replace(trap, detuning=float(detuning))
    gap = _pick(getattr(args, "gap", None), trap_cfg.get("detuning_gap"), DEFAULT_GAP)
    return ionchain.with_detuning_above_top(trap, float(gap))


# ---------------------------------------------------------------------------
# pipeline pieces shared by the handlers


def _report(path: Path, kind: str) -> None:
    print(json.dumps({"artifact": str(path), "kind": kind}, sort_keys=True))


def _build_couplings(rc: RunConfig) -> ionchain.CouplingMatrix:
    if rc.source == "file":
        if not rc.coupling_file:
            raise ConfigError("coupling source 'file' needs --couplings PATH "
                              "(or [couplings] file = ...)")
        return import_couplings(rc.coupling_file)
    if rc.source == "power_law":
        return ionchain.power_law_coupling(rc.n_ions, rc.alpha, rc.nn_strength)
    if rc.source == "nearest_neighbour":
        return ionchain.nearest_neighbour_coupling(rc.n_ions, rc.nn_strength)
    return ionchain.build_coupling_matrix(rc.trap, rc.beam)


def _field_rad(rc: RunConfig, J: ionchain.CouplingMatrix) -> float:
    if rc.model != "ising":
        return 0.0
    if rc.field_hz is None:                      # XY-regime default B = 50 max|J|
        return 50.0 * float(np.abs(J.values).max())
    return 2.0 * np.pi * rc.field_hz


def _propagate(rc: RunConfig, J: ionchain.CouplingMatrix):
    """(times, magnetisation (T,N), correlations (T,N,N) or None)."""
    times = rc.times
    want_corr = "correlations" in rc.observables
    if rc.model == "single_excitation":
        if rc.kind != "local" or len(rc.flip) != 1:
            raise ConfigError("the single-excitation model needs a local quench "
                              "with exactly one flipped site")
        states = magnon.evolve_single_excitation(J, rc.flip[0], times)
        mag = np.vstack([magnon.magnetisation_single(s) for s in states])
        if want_corr:
            raise ConfigError("sigma-z correlations need a full-Hilbert-space "
                              "model (ising or xy)")
        return times, mag, None
    H = dynamics.build_hamiltonian(J, transverse_field=_field_rad(rc, J), model=rc.model)
    psi0 = dynamics.prepare_state(
        dynamics.QuenchSpec(kind=rc.kind, flipped_sites=rc.flip), rc.n_ions)
    traj = dynamics.evolve(psi0, H, times)
    corr = dynamics.two_point_correlations(traj) if want_corr else None
    return times, dynamics.magnetisation(traj), corr


def _export_trajectory(rc: RunConfig, times, mag, corr) -> None:
    if corr is not None:
        cbar = dynamics.averaged_correlations(corr)
    if rc.format == "ndjson":
        records = list(mio.trajectory_records(times, mag, corr))
        if corr is not None:
            records = [dict(r, cbar=cb) for r, cb in zip(records, cbar.tolist())]
        path = mio.write_ndjson(rc.outdir / "trajectory.ndjson", records,
                                rc.meta(model=rc.model))
        _report(path, "trajectory")
        return
    path = mio.save_magnetisation(rc.outdir / "magnetisation.csv", times, mag,
                                  rc.meta(model=rc.model))
    _report(path, "magnetisation")
    if corr is not None:
        path = mio.save_correlations(rc.outdir / "correlations.csv", times, corr,
                                     rc.meta(model=rc.model))
        _report(path, "correlations")
        n_t, n_d = cbar.shape
        columns = (np.repeat(times, n_d), np.tile(np.arange(1, n_d + 1), n_t), cbar.ravel())
        path = mio.write_columns(rc.outdir / "cbar.csv", ("t_s", "n", "cbar"), columns,
                                 rc.meta(model=rc.model))
        _report(path, "cbar")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_modes(rc: RunConfig) -> int:
    modes = ionchain.transverse_mode_spectrum(rc.trap)
    columns = (np.arange(1, 2 * rc.n_ions + 1), modes.branches, modes.frequencies)
    path = mio.write_columns(rc.outdir / "modes.csv", ("n", "branch", "freq_hz"),
                             columns, rc.meta(detuning_hz=rc.trap.detuning))
    _report(path, "modes")
    columns = (np.arange(1, rc.n_ions + 1), modes.positions, modes.positions_m)
    path = mio.write_columns(rc.outdir / "positions.csv", ("site", "u", "x_m"),
                             columns, rc.meta())
    _report(path, "positions")
    return EXIT_OK


def _cmd_couplings(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    path = mio.save_couplings(rc.outdir / "couplings.csv", J,
                              rc.meta(jbar_rad_s=J.nn_mean), unit=rc.unit)
    _report(path, "couplings")
    return EXIT_OK


def _cmd_dispersion(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    spectrum = magnon.diagonalize_magnons(J)
    path = mio.save_dispersion(rc.outdir / "dispersion.csv", spectrum,
                               rc.meta(v_g_max=magnon.max_group_velocity(spectrum)))
    _report(path, "dispersion")
    fit = analysis.fit_alpha_dispersion(
        np.column_stack([spectrum.pseudo_momenta, spectrum.energies]), J.n_ions)
    path = mio.write_ndjson(rc.outdir / "alpha_fit.ndjson",
                            [mio.fit_record(fit, mio.config_hash(J.values))],
                            rc.meta())
    _report(path, "alpha_fit")
    return EXIT_OK


def _cmd_quench(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    times, mag, corr = _propagate(rc, J)
    _export_trajectory(rc, times, mag, corr)
    return EXIT_OK


def _cmd_tomo(rc: RunConfig) -> int:
    if rc.model == "single_excitation":
        raise ConfigError("tomography needs a full-state model (ising or xy)")
    J = _build_couplings(rc)
    sites = tuple(sorted(rc.sites))
    H = dynamics.build_hamiltonian(J, transverse_field=_field_rad(rc, J), model=rc.model)
    psi0 = dynamics.prepare_state(
        dynamics.QuenchSpec(kind=rc.kind, flipped_sites=rc.flip), rc.n_ions)
    traj = dynamics.evolve(psi0, H, np.array([rc.sample_time]))
    rho_exact = entanglement.reduced_density_matrix(traj.state(0), sites)

    records = entanglement.simulate_tomography(rho_exact, rc.shots, rc.seed)
    rho_hat = entanglement.tomography_reconstruct(records, subsystem=sites)
    boot_mean, boot_std = entanglement.bootstrap(
        records, rc.resamples, "concurrence", rc.seed)

    path = mio.save_density_matrix(rc.outdir / "rho.csv", rho_hat,
                                   rc.meta(t_s=rc.sample_time, shots=rc.shots))
    _report(path, "density_matrix")
    report = [{"basis": "".join(r.basis), "shots": r.shots, "counts": list(r.counts)}
              for r in records]
    report.append({
        "sites": list(sites),
        "t_s": rc.sample_time,
        "concurrence": entanglement.concurrence(rho_hat),
        "concurrence_exact": entanglement.concurrence(rho_exact),
        "entropy": entanglement.von_neumann_entropy(rho_hat),
        "bootstrap_statistic": "concurrence",
        "bootstrap_mean": boot_mean,
        "bootstrap_std": boot_std,
        "resamples": rc.resamples,
    })
    path = mio.write_ndjson(rc.outdir / "tomo.ndjson", report,
                            rc.meta(shots=rc.shots))
    _report(path, "tomography")
    return EXIT_OK


def _cmd_lightcone(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    times, mag, corr = _propagate(rc, J)
    _export_trajectory(rc, times, mag, corr)

    source = rc.flip[0] if rc.flip else (rc.n_ions + 1) // 2
    skipped = []
    fits = analysis.arrival_times(times, mag, source, skipped=skipped)
    front = analysis.fit_front_velocity([(d, f.t0) for d, f in fits])
    cone = bounds.nn_lightcone(J)

    provenance = mio.config_hash(J.values)
    records = [mio.fit_record(f, provenance) for _, f in fits]
    records += [mio.fit_record(s, provenance) for s in skipped]
    records.append(mio.fit_record(front, provenance))
    records.append(mio.fit_record(cone, provenance))
    path = mio.write_ndjson(rc.outdir / "arrivals.ndjson", records,
                            rc.meta(front_velocity=front.velocity,
                                    cone_velocity=cone.v))
    _report(path, "arrivals")

    distances = np.arange(1, rc.n_ions)
    path = mio.save_cone(rc.outdir / "cone.csv", distances,
                         bounds.cone_arrival_times(cone, distances), rc.meta())
    _report(path, "cone")
    return EXIT_OK


def _cmd_fit(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    spectrum = magnon.diagonalize_magnons(J)
    provenance = mio.config_hash(J.values)
    disp_fit = analysis.fit_alpha_dispersion(
        np.column_stack([spectrum.pseudo_momenta, spectrum.energies]), J.n_ions)
    real_fit = analysis.fit_alpha_realspace(J)
    cone = bounds.nn_lightcone(J)
    records = [
        mio.fit_record(disp_fit, provenance),
        mio.fit_record(real_fit, provenance),
        mio.fit_record(cone, provenance),
        {"fit": "summary", "input_hash": provenance, "jbar_rad_s": J.nn_mean,
         "alpha_gap": abs(disp_fit.alpha - real_fit.alpha)},
    ]
    path = mio.write_ndjson(rc.outdir / "fit_report.ndjson", records, rc.meta())
    _report(path, "fit_report")
    return EXIT_OK


_HANDLERS = {
    "modes": _cmd_modes,
    "couplings": _cmd_couplings,
    "dispersion": _cmd_dispersion,
    "quench": _cmd_quench,
    "global-quench": _cmd_quench,
    "tomo": _cmd_tomo,
    "lightcone": _cmd_lightcone,
    "fit": _cmd_fit,
}

_NUMERIC_ERRORS = (
    ionchain.ConvergenceError,
    ionchain.ChainUnstableError,
    ionchain.ResonanceError,
    dynamics.PropagatorError,
    analysis.FitError,
    bounds.TruncationError,
    np.linalg.LinAlgError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = resolve(args)
        return _HANDLERS[args.command](rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
