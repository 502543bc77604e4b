"""Tests of the benchmark itself (tracer accounting, restore, output checks).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import magnonchain  # noqa: E402
from magnonchain import cli  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: One small call of every subcommand; N = 13 takes the Krylov path.
MINI = (
    ["quench", "--n", "13", "--model", "xy", "--correlations", "--t-end", "0.002",
     "--n-points", "3"],
    ["global-quench", "--n", "5", "--t-end", "0.001", "--n-points", "5"],
    ["lightcone", "--n", "15", "--n-points", "201"],
    ["couplings", "--n", "7"],
    ["tomo", "--n", "5", "--sites", "2", "4", "--shots", "100", "--resamples", "100"],
)


def _snapshot():
    mods = (magnonchain, *(getattr(magnonchain, n) for n in tracing.LAYERS))
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for layer, cls, method in tracing.METHODS:
        state[(layer, cls, method)] = vars(getattr(getattr(magnonchain, layer), cls))[method]
    return state


def _mini_pass(tmp: Path, tr: tracing.Tracer) -> float:
    ini = tmp / "fit.ini"
    ini.write_text(f"[couplings]\nsource = file\nfile = {tmp / 'c3' / 'couplings.csv'}\n"
                   f"[output]\ndirectory = {tmp / 'fit'}\n")
    tr.install()
    try:
        t0 = time.perf_counter()
        for k, argv in enumerate(MINI):
            assert run.call_cli(cli, argv + ["--outdir", str(tmp / f"c{k}")])["rc"] == 0
        assert run.call_cli(cli, ["fit", "--config", str(ini)])["rc"] == 0
        with pytest.raises(ValueError):
            magnonchain.ionchain.equilibrium_positions(1)      # a failed call
        return time.perf_counter() - t0
    finally:
        tr.uninstall()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    before = _snapshot()
    tr = tracing.Tracer(magnonchain)
    wall = _mini_pass(tmp_path_factory.mktemp("a"), tr)
    summary, spans = tr.summary(wall), list(tr.spans)
    tr.clear()
    return before, tr, summary, spans, tmp_path_factory


def test_self_times_add_up_to_traced_wall_time(traced):
    _, _, summary, spans, _ = traced
    assert run.accounting_error(tracing, summary) < 1e-9
    assert min(s[6] for s in spans) >= 0.0
    assert 0.0 <= summary["trace.unattributed_s"] < 0.1 * summary["trace.wall_s"]


def test_uninstall_restores_every_attribute(traced, tmp_path):
    before, tr, _, _, _ = traced
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
    # the only names added are interpreter bookkeeping such as __warningregistry__
    assert all(k[-1].startswith("__") for k in after.keys() - before.keys())
    assert tr.restored()
    run.call_cli(cli, MINI[1] + ["--outdir", str(tmp_path)])
    assert tr.spans == []                # untraced call records nothing


def test_every_binding_of_a_function_is_wrapped(traced):
    _, _, summary, spans, _ = traced
    parents = {s[0]: s[3] for s in spans}
    callers = {(parents.get(s[1]), s[3]) for s in spans}
    # bound by name in other modules: analysis/bounds.diagonalize_magnons,
    # bounds.nearest_neighbour_coupling, cli.import_couplings
    assert ("bounds.nn_lightcone", "magnon.diagonalize_magnons") in callers
    assert ("bounds.nn_lightcone", "ionchain.nearest_neighbour_coupling") in callers
    assert ("analysis.fit_alpha_dispersion", "magnon.diagonalize_magnons") in callers
    assert ("cli.main", "io.load_couplings") in callers
    assert summary["dynamics.matvec.calls"] > 0 and summary["dynamics.eigensystem.calls"] > 0
    assert summary["ionchain.equilibrium_positions.failures"] >= 1


def test_declared_layer_metrics_are_produced(traced):
    _, _, summary, _, _ = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = run.layer_metrics(tracing, [{"wall_s": 1.0}],
                                [{"wall_s": 1.0, "layers": summary}])
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    assert missing == []


def test_counts_repeat_exactly(traced):
    _, _, first, _, factory = traced
    tr = tracing.Tracer(magnonchain)
    second = tr.summary(_mini_pass(factory.mktemp("b"), tr))
    for key in ("dynamics.matvec.calls", "magnon.diagonalize_magnons.calls",
                "entanglement.tomography_reconstruct.calls", "io.write_table.bytes"):
        assert second[key] == first[key]


def test_xy_check_rejects_a_wrong_value(tmp_path):
    job = workloads.xy_quench(0)[0]
    argv, out, _ = job.bind(tmp_path)
    assert run.call_cli(cli, argv)["rc"] == 0
    job.check(job, out, {})
    path = out / "magnetisation.csv"
    lines = path.read_text().splitlines()
    t, site, sz = lines[-1].split(",")
    lines[-1] = f"{t},{site},{float(sz) + 1e-5!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed):
        job.check(job, out, {})


def test_probe_tolerances_accept_last_digit_changes():
    probe = workloads.Probe("omega_k", "dispersion.csv", "omega_k", rtol=1e-9)
    ref = [1234.5678901234567, -0.5, 3e-12]
    probe.compare([v * (1 + 4e-16) for v in ref], ref)
    with pytest.raises(workloads.CheckFailed):
        probe.compare([ref[0] * (1 + 1e-6), *ref[1:]], ref)


def test_job_times_are_scaled_by_the_probes_around_them(tmp_path):
    class FakeCli:
        @staticmethod
        def main(argv):
            time.sleep(0.01)
            return 0

    class FakeSpeed:
        probes = iter([{"a": 1.0}, {"a": 0.5, "b": 1.5}, {"a": 4.0}])
        probe = staticmethod(lambda reps=1: next(FakeSpeed.probes))
        reps_for = staticmethod(hostspeed.reps_for)
        normalised = staticmethod(hostspeed.normalised)

    jobs = [workloads.Job(name, ["noop"], workloads.check_probes) for name in ("a", "b")]
    durations = {}
    record = run.run_pass(FakeCli, jobs, tmp_path / "pass", None, FakeSpeed, durations)
    first, second = (call["s"] for _, _, call in record["calls"])
    assert record["wall_s"] == pytest.approx(first + second)
    # probe totals 1, 2, 4: job a ran between 1 and 2, job b between 2 and 4
    ref = hostspeed.REFERENCE_S
    assert record["ref_wall_s"] == pytest.approx(first * ref / 1.5 + second * ref / 3.0)
    assert set(durations) == {"a", "b"}


def test_probe_reports_every_part_and_scales_with_length():
    assert set(hostspeed.probe()) == set(hostspeed.PARTS)
    assert all(v > 0.0 for v in hostspeed.probe(2).values())
    assert [hostspeed.reps_for(s) for s in (0.01, 1.0, 2.6, 40.0)] == [1, 1, 3, 6]
