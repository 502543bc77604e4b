"""Record the reference values the benchmark's output checks compare against.

Run once from the repository root, at the commit whose outputs are taken
as correct:

    python3 perfbench/record_references.py

It runs every ``ising-quench`` job at every exponent of ``ALPHA_GRID`` and
the ``chain-analysis`` jobs once (tomography seed 0), reads each job's
probes and writes ``perfbench/references.json``.  Seed-dependent
(``mode='band'``) probes are recorded as the [min, max] over
``BAND_SEEDS``.  ``xy-quench`` needs no
recorded values: it is checked against the exact magnon propagator.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import THREAD_VARS, call_cli


def record(cli, jobs, tmp: Path) -> dict:
    pass_dir = Path(tempfile.mkdtemp(dir=tmp))
    values = {}
    for job in jobs:
        argv, out, required = job.bind(pass_dir)
        if required is not None and not required.exists():
            continue
        call = call_cli(cli, argv)
        if call["rc"] != 0:
            print(f"{job.name}: exit {call['rc']}, no reference", file=sys.stderr)
            continue
        values[job.ref_key] = {p.name: p.read(out) for p in job.probes}
        print(f"{job.ref_key}: {len(job.probes)} probes", file=sys.stderr)
    return values


def record_bands(cli, workloads, tmp: Path) -> dict:
    """[min, max] of every band probe of chain-analysis over BAND_SEEDS."""
    seen = {}
    for seed in workloads.BAND_SEEDS:
        jobs = [j for j in workloads.chain_analysis(seed)
                if any(p.mode == "band" for p in j.probes)]
        bands = {j.ref_key: {p.name for p in j.probes if p.mode == "band"} for j in jobs}
        for key, probes in record(cli, jobs, tmp).items():
            for name in bands[key]:
                seen.setdefault(key, {}).setdefault(name, []).extend(probes[name])
    return {key: {name: [min(v), max(v)] for name, v in probes.items()}
            for key, probes in seen.items()}


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    from magnonchain import cli
    import workloads

    (Path.cwd() / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="references-", dir=Path.cwd() / ".perfbench_tmp"))
    try:
        ising = {}
        for alpha in workloads.ALPHA_GRID:
            ising.update(record(cli, workloads.ising_jobs(alpha, alpha), tmp))
        chain = record(cli, workloads.chain_analysis(0), tmp)
        for key, bands in record_bands(cli, workloads, tmp).items():
            chain[key].update(bands)
        refs = {"ising-quench": ising, "chain-analysis": chain}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
