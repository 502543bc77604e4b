"""Command-line front end: orchestration, reproducible seeds, data export.

Subcommands
-----------
modes          transverse mode spectrum and ion positions of a trap
couplings      build (or re-export) a coupling matrix as CSV
dispersion     magnon dispersion of a coupling matrix + exponent fit
quench         local quench: flip sites, propagate, export magnetisation
global-quench  all spins along +x under the Ising model with field
tomo           simulated two-qubit tomography after a quench
lightcone      arrival-time fits, front velocity, and NN cone overlay
fit            exponent / cone report for an existing coupling file

``--model`` is ``xy`` or ``ising``.  An XY quench of one flipped site
(:attr:`RunConfig.one_excitation`; ``quench``, ``tomo`` and ``lightcone``
flip the centre site by default) stays in the one-excitation sector, so
its observables and its exact pair density matrix follow from the N
amplitudes of :func:`magnon._single_excitation_amplitudes`, at any N.
Every other quench runs :func:`dynamics.evolve` on the blocks it reaches,
within its limits on states and on the 63 sites of a basis state.

Every run setting is declared once, in :data:`SETTINGS`: its flag, its
INI section and key, its default and any per-subcommand default, the
checks its value must pass, and the parser group that offers it.
:data:`COMMANDS` gives each subcommand its groups.  A subcommand offers
the flags of its groups only (argparse refuses any other), and reads a
setting only if it has the setting's group: command-line flag > config
file key > built-in default.  It ignores the INI keys of the settings it
does not read, so one INI file can serve every subcommand, and those
settings keep their defaults, in the checks and in the config hash.
Each refusal names its setting as ``--flag / [section] key`` (the flag
alone where there is no key, the key alone where there is no flag); a
refusal of the library is re-raised by :func:`_naming` alone, led by the
labels of the settings behind it.  The output directory additionally falls back to $MAGNONCHAIN_OUTDIR before
defaulting to the working directory.  The trap and beam parameters of the
trap coupling source are settings with a key and no flag.  The INI schema
(:data:`INI_SCHEMA`) is derived from the table too.

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
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
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


@dataclass(frozen=True)
class Setting:
    """One run setting: where its value comes from and what it must be.

    ``name`` is the :class:`RunConfig`, :class:`ionchain.TrapConfig` or
    :class:`ionchain.BeamProfile` field (and argparse dest) it fills,
    ``group`` the parser group that offers its flags (a setting may have
    none), ``ini`` its INI (section, key), and ``defaults`` overrides
    ``default`` per subcommand.  A float value must be finite, a value at
    least ``low`` (and below 2^``bits``) where given, and one of
    ``choices`` where given; ``sources`` limits the checks to the coupling
    sources that read the value.  ``arg`` holds further ``add_argument``
    keywords; its ``type`` (per item, where it has ``nargs``) also
    coerces the INI value.
    """

    name: str
    group: str
    flags: tuple[str, ...]
    ini: tuple[str, str] | None
    help: str
    default: object = None
    defaults: dict = field(default_factory=dict)
    low: int | None = None
    bits: int | None = None
    choices: tuple[str, ...] | None = None
    sources: tuple[str, ...] | None = None
    arg: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The setting as refusals name it: ``--flag / [section] key``."""
        key = ("[{}] {}".format(*self.ini),) if self.ini else ()
        return " / ".join(self.flags[:1] + key)

    def coerce(self, text: str):
        """The value of the INI text of this setting's key."""
        kind = self.arg.get("type", str)
        if "nargs" in self.arg:
            return tuple(kind(item) for item in text.replace(",", " ").split())
        return kind(text)

    def check(self, value) -> None:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{self.label} must be finite, got {value}")
        if self.choices and value not in self.choices:
            raise ConfigError(f"{self.label} must be one of {', '.join(self.choices)}, "
                              f"got {value!r}")
        if self.bits and not self.low <= value < 1 << self.bits:
            raise ConfigError(f"{self.label} must be in [{self.low}, 2^{self.bits}), "
                              f"got {value}")
        if self.low is not None and value is not None and value < self.low:
            raise ConfigError(f"{self.label} must be >= {self.low}, got {value}")


#: Every run setting, in the order of each subcommand's flags and of the checks.
SETTINGS = (
    Setting("n_ions", "common", ("--n", "--n-ions"), ("trap", "n_ions"), "chain length", 7,
            {"lightcone": 15}, low=2, arg=dict(type=int, metavar="N")),
    Setting("outdir", "common", ("--outdir", "-o"), ("output", "directory"),
            "artifact directory", arg=dict(metavar="DIR")),
    Setting("source", "couplings", ("--source",), ("couplings", "source"),
            "coupling matrix source", "power_law",
            {"modes": "trap", "couplings": "trap", "dispersion": "trap", "fit": "file"},
            choices=("trap", "power_law", "nearest_neighbour", "file")),
    Setting("alpha", "couplings", ("--alpha", "-a"), ("couplings", "alpha"),
            "power-law exponent for synthetic couplings", 1.5, sources=("power_law",),
            arg=dict(type=float)),
    Setting("nn_strength", "couplings", ("--jbar", "-j"), ("couplings", "nn_strength"),
            "nearest-neighbour coupling scale in Hz", 30.0,
            sources=("power_law", "nearest_neighbour"), arg=dict(type=float, metavar="HZ")),
    Setting("coupling_file", "couplings", ("--couplings",), ("couplings", "file"),
            "coupling CSV for --source file", arg=dict(metavar="FILE")),
    Setting("gap", "common", ("--gap", "-g"), ("trap", "detuning_gap"),
            "detuning above the top transverse mode", 30e3, sources=("trap",),
            arg=dict(type=float, metavar="HZ")),
    Setting("detuning", "common", ("--detuning",), ("trap", "detuning"),
            "absolute detuning from the spin transition (overrides --gap)",
            sources=("trap",), arg=dict(type=float, metavar="HZ")),
    Setting("axial_freq", "common", (), ("trap", "axial_freq"), "axial trap frequency in Hz",
            0.219e6, low=0, sources=("trap",), arg=dict(type=float)),
    Setting("transverse_freq_x", "common", (), ("trap", "transverse_freq_x"),
            "transverse trap frequency along x in Hz", 2.655e6, low=0, sources=("trap",),
            arg=dict(type=float)),
    Setting("transverse_freq_y", "common", (), ("trap", "transverse_freq_y"),
            "transverse trap frequency along y in Hz", 2.628e6, low=0, sources=("trap",),
            arg=dict(type=float)),
    Setting("ion_mass", "common", (), ("trap", "ion_mass"), "ion mass in kg",
            ionchain.MASS_CA40, low=0, sources=("trap",), arg=dict(type=float)),
    Setting("laser_wavelength", "common", (), ("trap", "laser_wavelength"),
            "drive wavelength in meters", ionchain.WAVELENGTH_CA40, low=0, sources=("trap",),
            arg=dict(type=float)),
    Setting("peak_rabi", "common", (), ("beam", "peak_rabi"),
            "Rabi frequency at the beam centre in Hz", 100e3, low=0, sources=("trap",),
            arg=dict(type=float)),
    Setting("waist_along_chain", "common", (), ("beam", "waist_along_chain"),
            "beam waist along the chain in meters", 380e-6, low=0, sources=("trap",),
            arg=dict(type=float)),
    Setting("center_offset", "common", (), ("beam", "center_offset"),
            "beam centre offset along the chain in meters", 0.0, sources=("trap",),
            arg=dict(type=float)),
    Setting("flip", "flip", ("--flip",), ("quench", "flip"),
            "1-based sites to flip (default: centre site)", None, {"global-quench": ()},
            arg=dict(type=int, nargs="+", metavar="SITE")),
    Setting("model", "model", ("--model", "-m"), ("quench", "model"), "propagation model",
            "xy", {"global-quench": "ising"}, choices=("ising", "xy")),
    Setting("field_hz", "model", ("--field",), ("trap", "transverse_field"),
            "transverse field for Ising runs; 'auto' (the default) = 50 max|J|, the "
            "excitation-conserving regime", low=0,
            arg=dict(type=mio.float_or_auto, metavar="HZ|auto")),
    Setting("t_start", "window", ("--t-start",), ("run", "t_start"), "first sample time",
            0.0, low=0, arg=dict(type=float, metavar="S")),
    Setting("t_end", "window", ("--t-end", "-t"), ("run", "t_end"), "last sample time",
            0.02, {"global-quench": 0.005, "lightcone": 0.04},
            arg=dict(type=float, metavar="S")),
    Setting("n_points", "window", ("--n-points",), ("run", "n_points"),
            "number of sample times", 201, {"lightcone": 801}, low=2,
            arg=dict(type=int, metavar="M")),
    Setting("correlations", "correlations", ("--correlations",), None,
            "also export connected sigma-z correlations", False, {"global-quench": True},
            arg=dict(action="store_true")),
    Setting("format", "export", ("--format", "-f"), ("output", "format"),
            "trajectory export format", "csv", choices=("csv", "ndjson")),
    Setting("unit", "unit", ("--unit",), None, "unit tag of the exported matrix", "rad/s",
            choices=tuple(sorted(mio.UNIT_FACTORS))),
    Setting("sites", "tomo", ("--sites",), None, "tomography site pair", (3, 5),
            arg=dict(type=int, nargs=2, metavar=("I", "J"))),
    Setting("sample_time", "tomo", ("--time",), None, "evolution time before tomography",
            0.0043, low=0, arg=dict(type=float, metavar="S")),
    Setting("shots", "tomo", ("--shots",), ("run", "shots"), "shots per basis", 1000, low=1,
            bits=20, arg=dict(type=int, metavar="K")),
    Setting("resamples", "tomo", ("--resamples",), ("run", "resamples"),
            "bootstrap resamples", 200, low=100, arg=dict(type=int, metavar="R")),
    Setting("seed", "tomo", ("--seed", "-s"), ("run", "seed"), "RNG seed", 0, low=0,
            bits=64, arg=dict(type=int)),
)
_LABELS = {s.name: s.label for s in SETTINGS}

#: section -> {key: :meth:`Setting.coerce`} of every INI key.
INI_SCHEMA = {section: {s.ini[1]: s.coerce for s in SETTINGS if s.ini and s.ini[0] == section}
              for section in dict.fromkeys(s.ini[0] for s in SETTINGS if s.ini)}

#: Each subcommand's help line and the setting groups it reads.
COMMANDS = {
    "modes": ("transverse mode spectrum and ion positions", ("common",)),
    "couplings": ("build a coupling matrix and export it as CSV",
                  ("common", "couplings", "unit")),
    "dispersion": ("magnon dispersion + power-law exponent fit", ("common", "couplings")),
    "quench": ("local quench: flip sites and propagate",
               ("common", "couplings", "flip", "model", "window", "correlations", "export")),
    "global-quench": ("all spins along +x under the Ising model (correlations always "
                      "exported)", ("common", "couplings", "model", "window", "export")),
    "tomo": ("simulated two-qubit tomography after a quench",
             ("common", "couplings", "flip", "model", "tomo")),
    "lightcone": ("arrival fits, front velocity, and NN cone overlay",
                  ("common", "couplings", "flip", "model", "window", "correlations", "export")),
    "fit": ("exponent / cone report for an existing coupling CSV", ("common", "couplings")),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI run.

    This is the object that gets hashed into every artifact header
    (minus the output location), so any field change shows up in the
    provenance.  ``nn_strength`` is already angular (rad/s);
    ``field_hz`` stays in Hz with None meaning "auto": B = 50 max|J|
    for Ising runs.  ``couplings`` is the matrix read from
    ``coupling_file`` for the file source (its path is hashed, not its
    values), and ``n_ions`` is then its size.  ``modes`` is the mode
    spectrum of the trap source, computed once while resolving; the
    hashed ``trap`` determines it.  :func:`resolve` checks each value
    against its setting; construction checks how the values combine, so
    a bad run is refused before any work starts.
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
    couplings: ionchain.CouplingMatrix | None = field(default=None, repr=False,
                                                      compare=False)
    modes: ionchain.ModeSpectrum | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.command in ("dispersion", "fit") and self.n_ions < 4:
            raise ConfigError(f"{self.command} needs {_labels(('n_ions',), self.source)} >= 4 "
                              f"for its exponent fit, got {self.n_ions}")
        if not self.t_end > self.t_start:
            raise ConfigError(f"{_LABELS['t_end']} must be > {_LABELS['t_start']}, got "
                              f"{self.t_end} <= {self.t_start}")
        self._check_sites("flip")
        if self.command == "lightcone" and self.n_ions - 1 - self.cone_source < 3:
            raise ConfigError(
                f"the light cone from site {self.cone_source} has "
                f"{max(self.n_ions - 1 - self.cone_source, 0)} sites to fit before the "
                f"excluded edge site {self.n_ions}, and the front velocity needs at least 3 "
                f"({_labels(('n_ions', 'flip'), self.source)})")
        if self.command == "lightcone" and self.n_points < analysis.MIN_ARRIVAL_SAMPLES:
            raise ConfigError(f"lightcone needs {_LABELS['n_points']} >= "
                              f"{analysis.MIN_ARRIVAL_SAMPLES} for its arrival fits, "
                              f"got {self.n_points}")
        if self.command == "tomo":
            self._check_sites("sites")
        if self.kind == "local" and not self.flip:
            raise ConfigError(f"a local quench needs at least one {_LABELS['flip']} site, "
                              f"got none")

    def _check_sites(self, name: str) -> None:
        sites = getattr(self, name)
        if len(set(sites)) != len(sites):
            raise ConfigError(f"{_LABELS[name]} must be distinct sites, "
                              f"got {' '.join(map(str, sites))}")
        for s in sites:
            _naming((name,), ionchain._check_site, self.n_ions, s)

    @property
    def cone_source(self) -> int:
        """The site whose arrival front ``lightcone`` fits: the first flip,
        else the centre site."""
        return self.flip[0] if self.flip else (self.n_ions + 1) // 2

    @property
    def one_excitation(self) -> bool:
        """An XY quench of one flipped site: it stays in the N-state
        one-excitation sector, whose amplitudes
        :func:`magnon._single_excitation_amplitudes` gives at any N."""
        return self.model == "xy" and self.kind == "local" and len(self.flip) == 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @cached_property
    def hash(self) -> str:
        # not hashed: outdir (where artifacts land is not physics), couplings
        # (read from coupling_file, which is) and modes (determined by trap),
        # so that neither array is copied on the way
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("outdir", "couplings", "modes")}
        for name in ("trap", "beam"):
            if d[name] is not None:
                d[name] = asdict(d[name])
        return mio.config_hash(d)

    def meta(self, **extra) -> dict:
        return {"config_hash": self.hash, "seed": self.seed,
                "command": self.command, "n_ions": self.n_ions, **extra}


# ---------------------------------------------------------------------------
# argument parsing and resolution


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``magnonchain`` argument parser, built on first use and then reused.

    Each subcommand offers ``--config`` and the flags of its groups.  An
    absent flag leaves no attribute, so :func:`resolve` can tell it from
    any value, ``--field auto`` (None) included.  Parsing never changes
    the parser, and every ``parse_args`` call fills a fresh namespace, so
    one instance serves every ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="magnonchain",
        description="Magnon dynamics in long-range interacting trapped-ion spin chains.",
        epilog=f"Default output directory: {_LABELS['outdir']}, else ${OUTDIR_ENV}, "
               f"else '.'")
    parser.add_argument("--version", action="version", version=f"magnonchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (help_line, groups) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", "-c", metavar="FILE", help="INI run configuration")
        for s in SETTINGS:
            if s.group not in groups or not s.flags:
                continue
            kwargs, help_text = dict(s.arg), s.help
            default = s.defaults.get(command, s.default)
            if s.choices:
                kwargs["choices"] = [c.replace("_", "-") for c in s.choices]
                default = default.replace("_", "-")
            if default is not None and default is not False:
                help_text += f" (default {default:g})" if isinstance(
                    default, float) else f" (default {default})"
            p.add_argument(*s.flags, dest=s.name, help=help_text, **kwargs)
    return parser


def resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags, config file, environment, and defaults into a RunConfig.

    A setting of one of the subcommand's groups comes from its flag, else
    its INI key, else its default; any other keeps its default.  Every
    value is then checked against its setting.
    """
    given = vars(args)
    cfg = mio.load_run_config(given["config"], INI_SCHEMA) if "config" in given else {}
    groups = COMMANDS[args.command][1]
    v, read = {}, set()
    for s in SETTINGS:
        v[s.name] = s.defaults.get(args.command, s.default)
        section = cfg.get(s.ini[0], {}) if s.ini and s.group in groups else {}
        if s.name in given:
            value = given[s.name]
        elif s.ini and s.ini[1] in section:
            value = section[s.ini[1]]
        else:
            continue
        v[s.name] = value.replace("-", "_") if s.choices else value
        read.add(s.name)

    couplings = None
    if v["source"] == "file":
        couplings = _load_coupling_file(v["coupling_file"],
                                        v["n_ions"] if "n_ions" in read else None)
        v["n_ions"] = couplings.n_ions
    for s in SETTINGS:
        if s.sources is None or v["source"] in s.sources:
            s.check(v[s.name])

    v.update(trap=None, beam=None, modes=None)
    if v["source"] == "trap":
        trap = _labelled(ionchain.TrapConfig, {**v, "detuning": 0.0})
        v["modes"] = ionchain.transverse_mode_spectrum(trap)
        v["trap"] = (replace(trap, detuning=v["detuning"]) if v["detuning"] is not None
                     else ionchain.with_detuning_above_top(trap, v["gap"], v["modes"]))
        v["beam"] = _labelled(ionchain.BeamProfile, v)
    v.update(
        command=args.command,
        couplings=couplings,
        nn_strength=2.0 * np.pi * v["nn_strength"],
        kind="global" if args.command == "global-quench" else "local",
        flip=tuple(v["flip"]) if v["flip"] is not None else ((v["n_ions"] + 1) // 2,),
        observables=("magnetisation", "correlations") if v["correlations"]
        else ("magnetisation",),
        sites=tuple(v["sites"]),
        outdir=Path(v["outdir"] if v["outdir"] is not None else os.environ.get(OUTDIR_ENV, ".")),
    )
    return RunConfig(**_fields(RunConfig, v))


def _fields(cls, values: dict) -> dict:
    """The resolved ``values`` of the fields of dataclass ``cls``."""
    return {f.name: values[f.name] for f in fields(cls)}


def _labelled(cls, values: dict):
    """Trap or beam dataclass ``cls`` of the resolved ``values``; a refusal
    of its checks names each of its fields by the label of its setting."""
    try:
        return cls(**_fields(cls, values))
    except ValueError as exc:
        names = "|".join(f.name for f in fields(cls))
        raise ConfigError(re.sub(rf"\b({names})\b", lambda m: _LABELS[m[1]],
                                 str(exc))) from None


def _load_coupling_file(path: str | None, n_ions: int | None) -> ionchain.CouplingMatrix:
    """The coupling matrix of the file source, whose faults ``io`` judges;
    an explicit chain length must match its size."""
    if not path:
        raise ConfigError(f"coupling source 'file' needs {_LABELS['coupling_file']}")
    J = _naming(("coupling_file",), import_couplings, path)
    if n_ions is not None and n_ions != J.n_ions:
        raise ConfigError(f"{_LABELS['n_ions']} = {n_ions} disagrees with the {J.n_ions} "
                          f"ions of the coupling file {path}")
    return J


# ---------------------------------------------------------------------------
# pipeline pieces shared by the handlers


def _report(path: Path, kind: str) -> None:
    print(json.dumps({"artifact": str(path), "kind": kind}, sort_keys=True))


def _build_couplings(rc: RunConfig) -> ionchain.CouplingMatrix:
    if rc.source == "file":
        return rc.couplings
    if rc.source == "trap":
        return ionchain.build_coupling_matrix(rc.trap, rc.beam, rc.modes)
    if rc.source == "power_law":          # finite settings, so a refusal is an overflow
        return _naming(_SCALES[rc.source], ionchain.power_law_coupling,
                       rc.n_ions, rc.alpha, rc.nn_strength)
    return _naming(_SCALES[rc.source], ionchain.nearest_neighbour_coupling,
                   rc.n_ions, rc.nn_strength)


#: The settings that scale a coupling matrix other than a trap's, by source.
_SCALES = {"power_law": ("nn_strength", "alpha"), "nearest_neighbour": ("nn_strength",),
           "trap": (), "file": ("coupling_file",)}


def _field_rad(rc: RunConfig, J: ionchain.CouplingMatrix) -> float:
    if rc.model != "ising":
        return 0.0
    if rc.field_hz is None:                      # XY-regime default B = 50 max|J|
        return 50.0 * float(np.abs(J.values).max())
    return 2.0 * np.pi * rc.field_hz


def _quench(rc: RunConfig, J: ionchain.CouplingMatrix, window=("t_start", "t_end")):
    """(initial state, Hamiltonian, number of basis states it reaches) of
    the quench of ``rc`` under its Ising or XY Hamiltonian, its phases
    checked over the times of the ``window`` settings (:func:`_check_phases`)
    and its states against the limits of ``dynamics``, whose refusal names
    the settings that set the states: N, and for a local XY quench the
    flips, which set C(N, k).  A one-excitation quench reaches the N states
    of one flip, and its amplitudes need neither state nor Hamiltonian
    (None, None, N)."""
    field_rad = _field_rad(rc, J)
    _check_phases(rc, J, field_rad, window)
    if rc.one_excitation:
        return None, None, rc.n_ions
    H = dynamics.build_hamiltonian(J, transverse_field=field_rad, model=rc.model)
    local = rc.kind == "local"
    psi0 = _naming(("n_ions",), dynamics.prepare_state, rc.n_ions, rc.flip if local else None,
                   source=rc.source)
    names = ("n_ions",) + ("flip",) * (local and rc.model == "xy")
    return psi0, H, _naming(names, dynamics.reached_blocks, psi0, H, source=rc.source)[1]


def _check_phases(rc: RunConfig, J: ionchain.CouplingMatrix, field_rad: float,
                  window=("t_start", "t_end")) -> None:
    """``dynamics.check_phases`` of the Hamiltonian of J and ``field_rad``
    over the times of the ``window`` settings, before anything is
    assembled; its refusal names the settings that set the couplings, the
    field and the window."""
    names = _SCALES[rc.source] + ("field_hz",) * (rc.model == "ising") + window
    _naming(names, dynamics.check_phases, J, field_rad,
            max(abs(getattr(rc, name)) for name in window))


def _labels(names: tuple[str, ...], source: str | None = None) -> str:
    """The labels of the settings ``names``, comma-separated; N read from
    a coupling file (``source`` "file") is named by the file's setting."""
    return ", ".join(_LABELS["coupling_file" if name == "n_ions" and source == "file"
                             else name] for name in names)


def _naming(names: tuple[str, ...], check, *args, source: str | None = None):
    """``check(*args)``; a ValueError it raises becomes a ConfigError led
    by the :func:`_labels` of the settings ``names`` under coupling
    ``source``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{_labels(names, source)}: {exc}") from None


def _propagate(rc: RunConfig, J: ionchain.CouplingMatrix):
    """(times, magnetisation (T,N), correlations (T,N,N) or None).

    A one-flip XY quench (:attr:`RunConfig.one_excitation`) takes the N
    amplitudes a_i of its one-excitation sector, at any N: with p = |a|^2,
    <sigma^z> = 2p - 1 and C_ij = 4 p_i (delta_ij - p_j).  Any
    other quench takes :func:`dynamics.evolve` on the blocks it reaches.
    The ``n_points`` states of the window, with their N x N correlations
    where they are exported, are checked against
    ``dynamics.MAX_TRAJECTORY_BYTES`` before the times, the trajectory or
    the correlations are allocated."""
    correlated = rc.n_ions if "correlations" in rc.observables else 0
    psi0, H, n_states = _quench(rc, J)
    _naming(("n_points",), dynamics.check_trajectory, rc.n_points, n_states, correlated)
    times = rc.times
    if rc.one_excitation:
        p = np.abs(magnon._single_excitation_amplitudes(J, rc.flip[0], times)) ** 2
        corr = None
        if correlated:                  # in place: one (T, N, N) array, as checked
            corr = np.eye(rc.n_ions) - p[:, None, :]
            corr *= 4.0 * p[:, :, None]
            corr += 0.0                 # the -0.0 of 0 (delta_ij - p_j) < 0 is 0.0
        return times, 2.0 * p - 1.0, corr
    traj = dynamics.evolve(psi0, H, times)
    corr = dynamics.two_point_correlations(traj) if correlated else None
    return times, dynamics.magnetisation(traj), corr


def _exact_pair(rc: RunConfig, J: ionchain.CouplingMatrix,
                sites: tuple[int, int]) -> entanglement.DensityMatrix:
    """The exact density matrix of the site pair at ``sample_time``.  A
    one-excitation quench gives it from a_i and a_j alone: the excitation
    elsewhere, with weight 1 - p_i - p_j, leaves the pair in |dd>, so the
    pair is sites 2 and 3 of the three-site state sqrt(1 - p_i - p_j)|udd>
    + a_i|dud> + a_j|ddu> (site 1 first)."""
    psi0, H, _ = _quench(rc, J, ("sample_time",))
    times = np.array([rc.sample_time])
    if rc.one_excitation:
        a = magnon._single_excitation_amplitudes(J, rc.flip[0], times)[0, np.subtract(sites, 1)]
        elsewhere = np.sqrt(max(0.0, 1.0 - abs(a[0]) ** 2 - abs(a[1]) ** 2))
        state = dynamics.StateVector(np.array([elsewhere, *a]), 3, [1, 2, 4])
        return entanglement.reduced_density_matrix(state, (2, 3))
    return entanglement.reduced_density_matrix(dynamics.evolve(psi0, H, times).state(0), sites)


def _export_trajectory(rc: RunConfig, times, mag, corr) -> None:
    meta = rc.meta(model=rc.model)
    if corr is not None:
        cbar = dynamics.averaged_correlations(corr)
    if rc.format == "ndjson":
        records = list(mio.trajectory_records(times, mag, corr))
        if corr is not None:
            records = [dict(r, cbar=cb) for r, cb in zip(records, cbar.tolist())]
        path = mio.write_ndjson(rc.outdir / "trajectory.ndjson", records, meta)
        _report(path, "trajectory")
        return
    pair = None if corr is None else (corr, cbar)
    for path in mio.save_trajectory(rc.outdir, times, mag, pair, meta):
        _report(path, path.stem)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_modes(rc: RunConfig) -> int:
    modes = rc.modes
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
                               rc.meta(v_g_max=magnon.max_group_velocity(spectrum.energies)))
    _report(path, "dispersion")
    fit = analysis.fit_alpha_dispersion(
        np.column_stack([spectrum.pseudo_momenta, spectrum.energies]), J.n_ions)
    path = mio.write_ndjson(rc.outdir / "alpha_fit.ndjson",
                            [mio.fit_record(fit, mio.matrix_hash(J.values))],
                            rc.meta())
    _report(path, "alpha_fit")
    return EXIT_OK


def _cmd_quench(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    times, mag, corr = _propagate(rc, J)
    _export_trajectory(rc, times, mag, corr)
    return EXIT_OK


def _cmd_tomo(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    sites = tuple(sorted(rc.sites))
    rho_exact = _exact_pair(rc, J, sites)

    counts = entanglement.simulate_tomography(rho_exact, rc.shots, rc.seed)
    rho_hat = entanglement.tomography_reconstruct(counts, sites)
    boot_mean, boot_std = entanglement.bootstrap(counts, rc.resamples, rc.seed)

    path = mio.save_density_matrix(rc.outdir / "rho.csv", rho_hat,
                                   rc.meta(t_s=rc.sample_time, shots=rc.shots))
    _report(path, "density_matrix")
    report = [{"basis": "".join(b), "shots": int(row.sum()), "counts": row.tolist()}
              for b, row in zip(entanglement.TOMOGRAPHY_BASES, counts)]
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
    fits, skipped = analysis.arrival_times(times, mag, rc.cone_source)
    if len(fits) < 3:
        raise analysis.FitError(
            f"{len(fits)} of {len(fits) + len(skipped)} sites gave an arrival fit, and the "
            f"front velocity needs at least 3; lengthen {_LABELS['t_end']}")
    front = analysis.fit_front_velocity([(d, f.t0) for d, f in fits])
    _export_trajectory(rc, times, mag, corr)
    cone = bounds.nn_lightcone(J)

    provenance = mio.matrix_hash(J.values)
    records = [mio.fit_record(f, provenance) for _, f in fits]
    records += [mio.fit_record(s, provenance) for s in skipped]
    records.append(mio.fit_record(front, provenance))
    records.append(mio.fit_record(cone, provenance))
    path = mio.write_ndjson(rc.outdir / "arrivals.ndjson", records,
                            rc.meta(front_velocity=front.velocity,
                                    cone_velocity=cone.v))
    _report(path, "arrivals")
    if skipped:
        print(f"{len(skipped)} of {len(fits) + len(skipped)} sites gave no arrival fit; "
              f"{path} records each as ArrivalSkipped, with its reason", file=sys.stderr)

    distances = np.arange(1, rc.n_ions)
    path = mio.save_cone(rc.outdir / "cone.csv", distances,
                         bounds.cone_arrival_times(cone, distances), rc.meta())
    _report(path, "cone")
    return EXIT_OK


def _cmd_fit(rc: RunConfig) -> int:
    J = _build_couplings(rc)
    spectrum = magnon.diagonalize_magnons(J)
    provenance = mio.matrix_hash(J.values)
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
    np.linalg.LinAlgError,
    MemoryError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = resolve(args)
        return _HANDLERS[args.command](rc)
    except _NUMERIC_ERRORS as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:           # a ConfigError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
