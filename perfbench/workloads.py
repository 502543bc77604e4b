"""Workload definitions and output checks of the magnonchain benchmark.

A workload is a fixed list of CLI jobs.  Every job is one
``magnonchain.cli.main(argv)`` call; its artifacts land in a per-pass
directory and are checked after the pass, outside the timed region, so a
change that is faster but wrong counts as a failed job.

Why these three workloads (ROADMAP items in brackets):

``xy-quench``
    ``quench --model xy --correlations`` at N = 9, 11, 13, 15.  N = 9 and
    11 take the dense ``eigh`` path and N = 13, 15 the Krylov path, so the
    ladder straddles ``DENSE_LIMIT`` [item 1, crossover].  The XY spectrum
    is narrow and conserves the excitation number, which is where the
    complex x real CSR matvec [item 1], sector propagation [item 2] and
    trajectory-level observables [item 5] act.
``ising-quench``
    ``global-quench --n 11`` (dense, 201 points to 5 ms) and ``quench
    --model ising --n 13`` (Krylov, 51 points to 10 ms), both at the
    automatic field B = 50 max|J|.
    Same ``dynamics`` layer, but on a wide spectrum that only conserves
    parity: many Lanczos steps and step splits.  A propagation change that
    helps XY and hurts Ising shows here (the ROADMAP's ``expm_multiply``
    measurement is exactly such a case) [items 1, 2].
``chain-analysis``
    Everything except the 2^N propagator, so a ``dynamics`` change should
    leave it unchanged: single-excitation light cones at N = 201 with
    arrival fits and large CSV writes [items 4, 5]; a trap-source ladder at
    N = 7, 25, 51, 100 configured through INI files (couplings, fit on the
    written CSV, dispersion at 15 and 120 kHz gap) [item 3]; and 2000-shot
    tomography with 1000 bootstrap resamples [item 5, batched bootstrap].
    The trap N = 100 jobs fail today with ``ConvergenceError`` [item 3].
    They stay in the workload and count as failed jobs, so the fix shows.

Out of scope, to keep one pass near 10 s: the outer ends of the ROADMAP
ladder (full-space N = 16 alone is about 20 s of Krylov; single-excitation
N = 501 is not run).

The workload seed picks the power-law exponent of every quench job from
``ALPHA_GRID`` and is the ``--seed`` of the tomography jobs.  Exponents
come from a grid so that the Ising outputs can be compared with reference
values recorded once per exponent (``references.json``).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Exponents a quench job can draw (the [1.0, 2.0] range, step 0.1).
ALPHA_GRID = tuple(round(1.0 + 0.1 * k, 1) for k in range(11))

#: Nearest-neighbour coupling of the synthetic chains, Hz (passed explicitly).
JBAR_HZ = 30.0

#: The Krylov error target is 1e-9 per output interval; over at most 200
#: intervals the amplitude error stays below 2e-7, so sigma-z and C_ij
#: agree with an exact reference to well within this bound.
QUENCH_ATOL = 1e-6

#: Trap ladder: (N, axial frequency in Hz).  N = 51 and 100 need a weaker
#: axial confinement to stay a linear chain at the default transverse
#: frequencies (2.655 / 2.628 MHz); N = 7 and 25 use the reference trap.
TRAP_LADDER = ((7, 0.219e6), (25, 0.219e6), (51, 0.1e6), (100, 0.05e6))
DISPERSION_GAPS_HZ = (15e3, 120e3)
LIGHTCONE_ALPHAS = (1.07, 1.41, 1.75, 2.0)
TOMO_PAIRS = ((3, 5), (2, 6), (1, 7))

REFERENCES = Path(__file__).with_name("references.json")

#: Seeds over which seed-dependent reference ranges are recorded.
BAND_SEEDS = range(20)


class CheckFailed(Exception):
    """A job's artifacts disagree with the expected values."""


# ---------------------------------------------------------------------------
# artifact readers (independent of magnonchain.io)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """CSV written by the CLI: '#' header lines, a column row, numeric rows."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def read_matrix(path: Path) -> np.ndarray:
    """Coupling CSV: '#' header lines then the bare N x N matrix."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def read_ndjson(path: Path) -> list[dict]:
    """NDJSON records after the header record."""
    return [json.loads(ln) for ln in path.read_text().splitlines()[1:] if ln]


@dataclass(frozen=True)
class Probe:
    """Values read from one artifact and compared with a recorded reference.

    CSV probes take ``rows`` of ``column`` (a bare matrix when ``column``
    is None, rows then index the flattened matrix).  NDJSON probes take
    ``key`` of the ``index``-th record whose items match ``match``; with
    no ``key`` they count the matching records.  ``mode='abs'`` accepts
    |value - ref| <= atol + rtol * max|ref|.  ``mode='band'`` is for a
    seed-dependent value: the reference is the [min, max] recorded over
    ``BAND_SEEDS`` and the value must lie within
    [band[0] * min, band[1] * max].
    """

    name: str
    file: str
    column: str | None = None
    rows: tuple[int, ...] | None = None
    match: tuple[tuple[str, str], ...] = ()
    key: str | None = None
    index: int = 0
    atol: float = 0.0
    rtol: float = 0.0
    mode: str = "abs"
    band: tuple[float, float] = (1.0, 1.0)

    def read(self, outdir: Path) -> list[float]:
        path = outdir / self.file
        if path.suffix == ".ndjson":
            hits = [r for r in read_ndjson(path)
                    if all(r.get(k) == v for k, v in self.match)]
            if self.key is None:
                return [float(len(hits))]
            return [float(hits[self.index][self.key])]
        if self.column is None:
            values = read_matrix(path).ravel()
        else:
            columns, data = read_table(path)
            values = data[:, columns.index(self.column)]
        if self.rows is not None:
            values = values[list(self.rows)]
        return [float(v) for v in values]

    def compare(self, got: list[float], ref: list[float]) -> None:
        g, r = np.asarray(got), np.asarray(ref)
        if self.mode == "band":
            lo, hi = self.band[0] * r.min(), self.band[1] * r.max()
            if not ((g >= lo) & (g <= hi)).all():
                raise CheckFailed(f"{self.name}: {g.tolist()} outside [{lo:.4g}, {hi:.4g}]")
            return
        if g.shape != r.shape:
            raise CheckFailed(f"{self.name}: {g.size} values, reference has {r.size}")
        bound = self.atol + self.rtol * (np.abs(r).max() if r.size else 0.0)
        dev = np.abs(g - r).max() if r.size else 0.0
        if not dev <= bound:
            raise CheckFailed(f"{self.name}: max deviation {dev:.3e} from the "
                              f"reference exceeds {bound:.3e}")


def _sampled_rows(n_per_time: int, time_index, per_time=None):
    per_time = range(n_per_time) if per_time is None else per_time
    return tuple(t * n_per_time + s for t in time_index for s in per_time)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One CLI call.  ``argv`` and ``config`` may use ``{pass}`` (the pass
    directory) and ``{out}`` (this job's artifact directory).  A job with
    ``requires`` runs only when that file exists after the earlier jobs of
    the pass; ``ref_key`` names its entry in ``references.json``."""

    name: str
    argv: list[str]
    check: Callable[["Job", Path, dict], None]
    config: str | None = None
    requires: str | None = None
    ref_key: str | None = None
    probes: tuple[Probe, ...] = ()
    params: dict = field(default_factory=dict)

    def bind(self, pass_dir: Path) -> tuple[list[str], Path, Path | None]:
        """(argv, artifact directory, required file) for one pass."""
        out = pass_dir / self.name
        fmt = {"pass": str(pass_dir), "out": str(out)}
        argv = [a.format(**fmt) for a in self.argv]
        if self.config is None:
            argv += ["--outdir", str(out)]
        else:
            ini = pass_dir / f"{self.name}.ini"
            ini.write_text(self.config.format(**fmt))
            argv += ["--config", str(ini)]
        required = Path(self.requires.format(**fmt)) if self.requires else None
        return argv, out, required


def check_probes(job: Job, out: Path, refs: dict) -> None:
    """Compare every probe of ``job`` with its recorded reference, if any."""
    recorded = refs.get(job.ref_key) if job.ref_key else None
    if recorded is None:
        return
    for probe in job.probes:
        probe.compare(probe.read(out), recorded[probe.name])


# -- xy-quench: exact single-excitation reference ---------------------------


def power_law(n: int, alpha: float) -> np.ndarray:
    """J_ij = 2 pi JBAR_HZ / |i-j|^alpha, built here rather than by the package."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    np.fill_diagonal(d, 1.0)
    J = 2.0 * np.pi * JBAR_HZ / d ** alpha
    np.fill_diagonal(J, 0.0)
    return J


@functools.lru_cache(maxsize=8)
def _single_excitation_populations(n: int, alpha: float, t_end: float,
                                   n_points: int) -> tuple[np.ndarray, np.ndarray]:
    from magnonchain import ionchain, magnon
    times = np.linspace(0.0, t_end, n_points)
    J = ionchain.CouplingMatrix(values=power_law(n, alpha), meta="benchmark reference")
    states = magnon.evolve_single_excitation(J, (n + 1) // 2, times)
    return times, np.array([np.abs(s.amplitudes) ** 2 for s in states])


def check_xy_exact(job: Job, out: Path, refs: dict) -> None:
    """Full-space XY quench of one flipped spin vs the exact magnon propagator.

    In the one-excitation sector with site populations p_i,
    <sigma_i^z> = 2 p_i - 1 and C_ij = -4 p_i p_j.
    """
    n, alpha = job.params["n"], job.params["alpha"]
    times, p = _single_excitation_populations(n, alpha, job.params["t_end"],
                                              job.params["n_points"])
    cols, mag = read_table(out / "magnetisation.csv")
    if mag.shape[0] != times.size * n:
        raise CheckFailed(f"magnetisation.csv has {mag.shape[0]} rows, expected {times.size * n}")
    _close("t_s", mag[:, 0].reshape(-1, n)[:, 0], times, 1e-15)
    _close("sz", mag[:, cols.index("sz")].reshape(-1, n), 2.0 * p - 1.0, QUENCH_ATOL)

    cols, corr = read_table(out / "correlations.csv")
    iu, ju = np.triu_indices(n, 1)
    expected = (-4.0 * p[:, iu] * p[:, ju]).ravel()
    _close("Cij", corr[:, cols.index("Cij")], expected, QUENCH_ATOL)

    cols, cbar = read_table(out / "cbar.csv")
    C = -4.0 * p[:, :, None] * p[:, None, :]
    expected = np.array([[np.diag(c, k).mean() for k in range(1, n)] for c in C]).ravel()
    _close("cbar", cbar[:, cols.index("cbar")], expected, QUENCH_ATOL)


def _close(name: str, got, expected, atol: float) -> None:
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {expected.shape}")
    dev = float(np.abs(got - expected).max())
    if not dev <= atol:
        raise CheckFailed(f"{name}: max deviation {dev:.3e} exceeds {atol:.1e}")


# -- chain-analysis sanity checks (also cover jobs with no reference) -------


def check_lightcone(job: Job, out: Path, refs: dict) -> None:
    _, mag = read_table(out / "magnetisation.csv")
    n = job.params["n"]
    excitation = (1.0 + mag[:, 2].reshape(-1, n)) / 2.0
    _close("excitation number", excitation.sum(axis=1), np.ones(excitation.shape[0]), 1e-9)
    check_probes(job, out, refs)


def check_couplings(job: Job, out: Path, refs: dict) -> None:
    J = read_matrix(out / "couplings.csv")
    n = job.params["n"]
    if J.shape != (n, n) or not np.isfinite(J).all():
        raise CheckFailed(f"couplings.csv: shape {J.shape}, expected finite {n}x{n}")
    scale = np.abs(J).max()
    if np.abs(J - J.T).max() > 1e-12 * scale or np.abs(np.diag(J)).max() > 0.0:
        raise CheckFailed("couplings.csv: not symmetric with zero diagonal")
    check_probes(job, out, refs)


def check_dispersion(job: Job, out: Path, refs: dict) -> None:
    cols, disp = read_table(out / "dispersion.csv")
    k = disp[:, cols.index("k_n")]
    if disp.shape[0] != job.params["n"] or not ((k > 0) & (k < np.pi)).all():
        raise CheckFailed("dispersion.csv: wrong mode count or pseudo-momenta outside (0, pi)")
    _check_alphas(read_ndjson(out / "alpha_fit.ndjson"))
    check_probes(job, out, refs)


def check_fit(job: Job, out: Path, refs: dict) -> None:
    _check_alphas(read_ndjson(out / "fit_report.ndjson"))
    check_probes(job, out, refs)


def _check_alphas(records: list[dict]) -> None:
    alphas = [r["alpha"] for r in records if r.get("fit") == "AlphaFit"]
    if not alphas or not all(np.isfinite(a) and 0.0 <= a <= 4.0 for a in alphas):
        raise CheckFailed(f"fitted exponents {alphas} missing or outside [0, 4]")


def check_tomo(job: Job, out: Path, refs: dict) -> None:
    """Exact concurrence against the reference; finite-shot values by statistics.

    The reconstructed and bootstrap values depend on the seed, so they are
    checked against the exact concurrence within five times the largest
    bootstrap standard deviation recorded over ``BAND_SEEDS``, and the
    bootstrap standard deviation against the recorded range.
    """
    cols, rho = read_table(out / "rho.csv")
    m = np.zeros((4, 4), dtype=complex)
    m[rho[:, 0].astype(int), rho[:, 1].astype(int)] = rho[:, 2] + 1j * rho[:, 3]
    if (np.abs(m - m.conj().T).max() > 1e-10 or abs(np.trace(m).real - 1.0) > 1e-9
            or np.linalg.eigvalsh(m).min() < -1e-8):
        raise CheckFailed("rho.csv: not a density matrix")
    summary = read_ndjson(out / "tomo.ndjson")[-1]
    check_probes(job, out, refs)
    recorded = refs.get(job.ref_key)
    if recorded is None:
        return
    sigma = max(recorded["bootstrap_std"])
    c_hat, c_exact = summary["concurrence"], summary["concurrence_exact"]
    if abs(c_hat - c_exact) > 5.0 * sigma or abs(summary["bootstrap_mean"] - c_hat) > 5.0 * sigma:
        raise CheckFailed(f"concurrence {c_hat:.4f} / bootstrap mean "
                          f"{summary['bootstrap_mean']:.4f} further than 5 sigma "
                          f"({sigma:.4f}) from the exact value {c_exact:.4f}")


# ---------------------------------------------------------------------------
# workload plans


def _draw_alphas(seed: int, count: int) -> list[float]:
    rng = random.Random(seed)
    return [ALPHA_GRID[rng.randrange(len(ALPHA_GRID))] for _ in range(count)]


def _quench_argv(command: str, n: int, alpha: float, *extra: str) -> list[str]:
    return [command, "--source", "power-law", "--n", str(n), "--alpha", str(alpha),
            "--jbar", str(JBAR_HZ), *extra]


def xy_quench(seed: int) -> list[Job]:
    jobs = []
    for n, alpha in zip((9, 11, 13, 15), _draw_alphas(seed, 4)):
        argv = _quench_argv("quench", n, alpha, "--model", "xy", "--correlations",
                            "--t-end", "0.02", "--n-points", "51")
        jobs.append(Job(f"quench-xy-n{n}", argv, check_xy_exact,
                        params={"n": n, "alpha": alpha, "t_end": 0.02, "n_points": 51}))
    return jobs


def ising_jobs(alpha_global: float, alpha_local: float) -> list[Job]:
    """The two ising-quench jobs for given exponents (automatic field)."""
    n_pairs = 11 * 10 // 2
    global_rows = range(0, 201, 50)
    global_probes = (
        Probe("sz", "magnetisation.csv", "sz", _sampled_rows(11, global_rows),
              atol=QUENCH_ATOL),
        Probe("Cij", "correlations.csv", "Cij", _sampled_rows(n_pairs, global_rows),
              atol=QUENCH_ATOL),
    )
    local_probes = (
        Probe("sz", "magnetisation.csv", "sz", _sampled_rows(13, range(0, 51, 10)),
              atol=QUENCH_ATOL),
    )
    return [
        Job("global-quench-n11",
            _quench_argv("global-quench", 11, alpha_global, "--field", "auto",
                         "--t-end", "0.005", "--n-points", "201"),
            check_probes, ref_key=f"global-quench-n11@alpha={alpha_global}",
            probes=global_probes),
        Job("quench-ising-n13",
            _quench_argv("quench", 13, alpha_local, "--model", "ising", "--field", "auto",
                         "--t-end", "0.01", "--n-points", "51"),
            check_probes, ref_key=f"quench-ising-n13@alpha={alpha_local}",
            probes=local_probes),
    ]


def ising_quench(seed: int) -> list[Job]:
    return ising_jobs(*_draw_alphas(seed, 2))


_TRAP_INI = """\
[trap]
n_ions = {n}
axial_freq = {axial:g}
detuning_gap = {gap:g}
[couplings]
source = trap
[output]
directory = {{out}}
"""

_FIT_INI = """\
[couplings]
source = file
file = {{pass}}/trap-n{n}-couplings/couplings.csv
[output]
directory = {{out}}
"""


def chain_analysis(seed: int) -> list[Job]:
    jobs = []
    for alpha in LIGHTCONE_ALPHAS:
        n, points = 201, 801
        probes = (
            Probe("sz", "magnetisation.csv", "sz",
                  _sampled_rows(n, range(0, points, 200), range(0, n, 10)),
                  atol=1e-9),
            Probe("arrival_fits", "arrivals.ndjson", match=(("fit", "ArrivalFit"),)),
            Probe("front_velocity", "arrivals.ndjson", match=(("fit", "FrontFit"),),
                  key="velocity", rtol=1e-5),
            Probe("cone_velocity", "arrivals.ndjson", match=(("fit", "LightConeParams"),),
                  key="v", rtol=1e-9),
            Probe("cone", "cone.csv", "t_cone_s", tuple(range(0, n - 1, 20)), rtol=1e-9),
        )
        jobs.append(Job(f"lightcone-a{alpha}",
                        ["lightcone", "--source", "power-law", "--n", str(n),
                         "--alpha", str(alpha), "--jbar", str(JBAR_HZ),
                         "--t-end", "0.04", "--n-points", str(points)],
                        check_lightcone, ref_key=f"lightcone-a{alpha}", probes=probes,
                        params={"n": n}))

    for n, axial in TRAP_LADDER:
        name = f"trap-n{n}-couplings"
        jobs.append(Job(name, ["couplings"], check_couplings,
                        config=_TRAP_INI.format(n=n, axial=axial, gap=30e3),
                        ref_key=name, params={"n": n},
                        probes=(Probe("J", "couplings.csv", rows=tuple(range(n)), rtol=1e-9),
                                Probe("J_nn", "couplings.csv",
                                      rows=tuple(i * n + i + 1 for i in range(n - 1)),
                                      rtol=1e-9))))
        name = f"trap-n{n}-fit"
        jobs.append(Job(name, ["fit"], check_fit, config=_FIT_INI.format(n=n),
                        requires=f"{{pass}}/trap-n{n}-couplings/couplings.csv",
                        ref_key=name, params={"n": n},
                        probes=(Probe("alpha_dispersion", "fit_report.ndjson",
                                      match=(("fit", "AlphaFit"),), key="alpha", atol=2e-4),
                                Probe("alpha_realspace", "fit_report.ndjson",
                                      match=(("fit", "AlphaFit"),), key="alpha", index=1,
                                      atol=2e-4),
                                Probe("cone_velocity", "fit_report.ndjson",
                                      match=(("fit", "LightConeParams"),), key="v",
                                      rtol=1e-9))))
        for gap in DISPERSION_GAPS_HZ:
            name = f"trap-n{n}-dispersion-{gap / 1e3:g}khz"
            jobs.append(Job(name, ["dispersion"], check_dispersion,
                            config=_TRAP_INI.format(n=n, axial=axial, gap=gap),
                            ref_key=name, params={"n": n},
                            probes=(Probe("omega_k", "dispersion.csv", "omega_k", rtol=1e-9),
                                    Probe("alpha", "alpha_fit.ndjson",
                                          match=(("fit", "AlphaFit"),), key="alpha",
                                          atol=2e-4))))

    for i, j in TOMO_PAIRS:
        name = f"tomo-{i}-{j}"
        jobs.append(Job(name, ["tomo", "--n", "7", "--source", "power-law", "--alpha", "1.5",
                               "--jbar", str(JBAR_HZ), "--model", "xy", "--time", "0.0043",
                               "--sites", str(i), str(j), "--shots", "2000",
                               "--resamples", "1000", "--seed", str(seed)],
                        check_tomo, ref_key=name,
                        probes=(Probe("concurrence_exact", "tomo.ndjson",
                                      match=(("bootstrap_statistic", "concurrence"),),
                                      key="concurrence_exact", atol=1e-9),
                                Probe("bootstrap_std", "tomo.ndjson",
                                      match=(("bootstrap_statistic", "concurrence"),),
                                      key="bootstrap_std", mode="band",
                                      band=(0.5, 2.0)))))
    return jobs


WORKLOADS = {
    "xy-quench": xy_quench,
    "ising-quench": ising_quench,
    "chain-analysis": chain_analysis,
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
