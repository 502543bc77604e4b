"""Benchmark of magnonchain: closed-loop passes over one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload xy-quench --seed 1 --seconds 28 --trace 0

Load shape: one process runs a closed loop.  A pass runs the
workload's jobs one after another through ``magnonchain.cli.main(argv)``
in this process, each job starting when the previous one has returned;
passes repeat until ``--seconds`` have elapsed (at least one pass).  BLAS
and OpenMP pools are pinned to one thread.  Artifacts go to a fresh
temporary directory under ``.perfbench_tmp/`` and CLI output is captured,
so only the benchmark's own lines reach stdout.  After each pass, outside
the timed region, every job's artifacts are checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` and ``cpu_s`` (median per pass), ``peak_rss_mb`` (peak resident
memory of the run), ``ok_ratio`` (jobs that exited 0 and passed their
check, over jobs attempted: one minus the failure ratio, kept this way
round so that the metric is never 0) and ``setup_s`` (median time from
starting a fresh interpreter to ``magnonchain.cli`` being imported).

The three times are given at reference host speed: the host's speed
drifts by up to 2x for minutes at a time, so each job is bracketed by
``hostspeed.probe()`` and each interpreter start by reference starts, and
scaled by what is measured around it (see ``hostspeed.py``).  The
measured times are kept beside them in the run record (``wall_s`` and
``cpu_s`` of each pass and ``s`` of each setup sample; the ``ref_``
values are the scaled ones) and printed on the ``# measured`` line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time (``.s``), call and failure counts of each
layer's public functions, counters recorded at the same boundaries, and
``trace.overhead_s`` (median traced minus median untraced pass time).
Spans are kept in memory and written to ``.perfbench_out/`` at the end.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the machine and provenance
block is printed on the line before it and saved with the run record in
``.perfbench_out/``.  These run records, summarised into
``perfbench/baseline/`` by ``summarize.py``, take the place of the
``BENCH_*.json`` files at the repository root that the ROADMAP proposes,
so that the benchmark keeps every file in its own directories.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh-interpreter imports per run for ``setup_s`` (one more runs first
#: and is discarded, so bytecode caches are warm as for any repeat user).
SETUP_SAMPLES = 5
SETUP_CODE = "import magnonchain.cli"
STAMP = "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"

#: Tiny calls of every subcommand the workloads use, run once before timing
#: so that lazy imports and first-call initialisation stay out of pass 1.
WARMUP = (
    ["quench", "--n", "5", "--model", "xy", "--correlations", "--t-end", "0.001",
     "--n-points", "5"],
    ["global-quench", "--n", "5", "--t-end", "0.001", "--n-points", "5"],
    ["lightcone", "--n", "15", "--n-points", "201"],
    ["dispersion", "--n", "5"],
    ["couplings", "--n", "5"],
    ["tomo", "--n", "5", "--sites", "2", "4", "--shots", "100", "--resamples", "100"],
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "magnonchain" / "cli.py").is_file():
        print("perfbench: no ./src/magnonchain; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # numpy reads the thread pins on first import, so everything that
    # imports it comes after them
    sys.path.insert(0, str(src))
    import magnonchain
    from magnonchain import cli
    import hostspeed
    import tracer as tracing
    import workloads

    if Path(magnonchain.__file__).resolve().parent != (src / "magnonchain").resolve():
        print(f"perfbench: imported magnonchain from {magnonchain.__file__}, not ./src",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    setup_times = measure_setup(root, hostspeed)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    refs = workloads.load_references().get(args.workload, {})
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"{tag}-spans.ndjson"
    spans_path.unlink(missing_ok=True)
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=root / ".perfbench_tmp"))
    tracer = tracing.Tracer(magnonchain)
    passes, outcomes, accounting_errors, durations = [], Counter(), [], {}
    restored = True
    try:
        for k, argv in enumerate(WARMUP):
            hostspeed.probe()
            call_cli(cli, argv + ["--outdir", str(tmp / f"warmup-{k}")])
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            for traced in ((False, True) if args.trace else (False,)):
                pass_dir = tmp / f"pass-{len(passes)}"
                record = run_pass(cli, jobs, pass_dir, tracer if traced else None,
                                  hostspeed, durations)
                record["jobs"] = [check_job(job, out, call, refs)
                                  for job, out, call in record.pop("calls")]
                outcomes.update(j["status"] for j in record["jobs"])
                if traced:
                    record["layers"] = tracer.summary(record["wall_s"])
                    accounting_errors.append(accounting_error(tracing, record["layers"]))
                    tracer.write_spans(spans_path, len(passes))
                    tracer.clear()
                    restored = restored and tracer.restored()
                passes.append(record)
                shutil.rmtree(pass_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        values = layer_metrics(tracing, plain, traced)
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(p["ref_wall_s"] for p in plain),
            "cpu_s": statistics.median(p["ref_cpu_s"] for p in plain),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": outcomes["ok"] / attempted,
            "setup_s": statistics.median(s["ref_s"] for s in setup_times),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    accounting_ok = all(err <= 1e-6 for err in accounting_errors)
    correct = outcomes["wrong"] == 0 and accounting_ok and restored

    info = provenance(root, args, len(plain), len(traced), len(setup_times))
    info["host_speed_reference_s"] = hostspeed.REFERENCE_S
    run_record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "provenance": info, "setup_s": setup_times,
                  "passes": passes, "metrics": metrics, "correct": correct,
                  "accounting_error_s": accounting_errors, "tracer_restored": restored}
    (out_dir / f"{tag}.json").write_text(json.dumps(run_record, indent=1, sort_keys=True))

    for p in passes:
        for j in p["jobs"]:
            if j["status"] != "ok":
                print(f"# job {j['job']}: {j['status']}: {j['detail']}")
    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} "
          f"traced passes, {attempted} jobs, {failed} failed, "
          f"accounting {'ok' if accounting_ok else 'BROKEN'}, "
          f"tracer {'restored' if restored else 'NOT restored'}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    probes = [sum(p.values()) for r in passes for p in r["probes"]]
    print(f"# measured: wall_s {statistics.median(p['wall_s'] for p in plain):.6g} s, "
          f"cpu_s {statistics.median(p['cpu_s'] for p in plain):.6g} s, "
          f"setup_s {statistics.median(s['s'] for s in setup_times):.6g} s; median probe "
          f"{statistics.median(probes):.4g} s (reference {hostspeed.REFERENCE_S:g} s)")
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# passes and jobs


def call_cli(cli, argv) -> dict:
    """One job: ``cli.main(argv)`` with stdout, stderr and warnings captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)        # looked up per call: the tracer may wrap it
        except SystemExit as exc:      # argparse rejects argv with exit code 2
            rc = exc.code
        except Exception:              # a raising job is a failed job; the loop goes on
            rc = None
            stderr.write(traceback.format_exc())
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "warnings": len(caught), "s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - cpu0}


def run_pass(cli, jobs, pass_dir: Path, tracer, hostspeed, durations: dict) -> dict:
    """Run every job once, timing only the jobs.

    INI files are written before the first job.  ``hostspeed.probe()``
    runs before each job and after the last, sized to the jobs next to it
    (``durations``: each job's time in the previous pass, updated here),
    and each job's time is also given scaled by the probes around it.
    """
    pass_dir.mkdir()
    bound = [(job, *job.bind(pass_dir)) for job in jobs]
    calls, probes = [], []
    previous = 1.0
    if tracer is not None:
        tracer.install()
    try:
        for job, argv, out, required in bound:
            if required is not None and not required.exists():
                continue
            reps = hostspeed.reps_for(previous, durations.get(job.name, 1.0))
            probes.append(hostspeed.probe(reps))
            call = call_cli(cli, argv)
            calls.append((job, out, call))
            previous = durations[job.name] = call["s"]
        probes.append(hostspeed.probe(hostspeed.reps_for(previous)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = [call for _, _, call in calls]
    speed = [sum(p.values()) for p in probes]
    around = list(zip(speed, speed[1:]))
    return {"traced": tracer is not None, "calls": calls, "probes": probes,
            "wall_s": sum(c["s"] for c in times), "cpu_s": sum(c["cpu_s"] for c in times),
            "ref_wall_s": sum(hostspeed.normalised(c["s"], *p) for c, p in zip(times, around)),
            "ref_cpu_s": sum(hostspeed.normalised(c["cpu_s"], *p)
                             for c, p in zip(times, around))}


def check_job(job, out: Path, call: dict, refs: dict) -> dict:
    """Status 'ok', 'error' (raised or exited non-zero) or 'wrong' (bad output)."""
    status, detail = "ok", ""
    if call["rc"] != 0:
        status = "error"
        lines = call["stderr"].strip().splitlines()
        detail = f"exit {call['rc']}: {lines[-1] if lines else ''}"
    else:
        try:
            for line in call["stdout"].splitlines():
                artifact = Path(json.loads(line)["artifact"])
                if not artifact.is_file():
                    raise FileNotFoundError(f"reported artifact {artifact} missing")
            job.check(job, out, refs)
        except Exception as exc:       # any unreadable or wrong output fails the job
            status, detail = "wrong", f"{type(exc).__name__}: {exc}"
    return {"job": job.name, "status": status, "detail": detail, "s": call["s"],
            "cpu_s": call["cpu_s"], "warnings": call["warnings"]}


# ---------------------------------------------------------------------------
# metrics


def measure_setup(root: Path, hostspeed) -> list[dict]:
    """Seconds from spawning a fresh interpreter to ``magnonchain.cli`` imported
    (``s``), and at reference host speed (``ref_s``): scaled by reference
    starts (``hostspeed.SPAWN_CODE``) just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def start(code: str) -> float:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", f"{code}; {STAMP}"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1]) - t0

    start(SETUP_CODE)
    before = start(hostspeed.SPAWN_CODE)
    samples = []
    for _ in range(SETUP_SAMPLES):
        s = start(SETUP_CODE)
        after = start(hostspeed.SPAWN_CODE)
        samples.append({"s": s, "ref_s": hostspeed.normalised(
            s, before, after, hostspeed.SPAWN_REFERENCE_S)})
        before = after
    return samples


def accounting_error(tracing, layers: dict) -> float:
    """|sum of layer self times + unattributed - traced wall| for one pass."""
    total = sum(layers.get(f"{layer}.s", 0.0) for layer in tracing.LAYERS)
    return abs(total + layers["trace.unattributed_s"] - layers["trace.wall_s"])


def layer_metrics(tracing, plain: list[dict], traced: list[dict]) -> dict:
    """Mean over traced passes, plus the ratios and sums derived from it."""
    keys = set().union(*(p["layers"] for p in traced))
    m = {k: sum(p["layers"].get(k, 0.0) for p in traced) / len(traced) for k in keys}
    calls = m.get("analysis.fit_gaussian_arrival.calls", 0.0)
    if calls:
        m["analysis.arrival_fit.ok_ratio"] = (
            calls - m.get("analysis.fit_gaussian_arrival.failures", 0.0)) / calls
    m["dynamics.observables.s"] = sum(m.get(f"{n}.s", 0.0) for n in tracing.OBSERVABLES)
    m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in plain))
    return m


# ---------------------------------------------------------------------------
# provenance


def provenance(root: Path, args, n_plain: int, n_traced: int, n_setup: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    sources = sorted((root / "src" / "magnonchain").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes_untraced": n_plain,
        "passes_traced": n_traced,
        "setup_samples": n_setup,
        "load": "closed loop, one process, jobs back to back",
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
