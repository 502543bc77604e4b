"""Summarise the run records in ``.perfbench_out/`` into one baseline file.

Run from the repository root after a series of runs, e.g. ten seeds per
workload with ``--trace 0`` and one with ``--trace 1``:

    python3 perfbench/summarize.py perfbench/baseline/<name>.json

For every workload and end-to-end metric it reports the value of each
seed, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (interquartile distance over the median); traced runs contribute
their per-layer metrics as they are.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    out = defaultdict(lambda: {"end_to_end": {}, "per_layer": {}, "runs": []})
    values = defaultdict(lambda: defaultdict(dict))
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out[rec["workload"]]
        w["runs"].append({"seed": rec["seed"], "trace": rec["trace"],
                          "correct": rec["correct"], "provenance": rec["provenance"],
                          "jobs": [j for p in rec["passes"] for j in p["jobs"]
                                   if j["status"] != "ok"][:20]})
        for name, m in rec["metrics"].items():
            if rec["trace"]:
                w["per_layer"].setdefault(name, {"unit": m["unit"], "by_seed": {}})
                w["per_layer"][name]["by_seed"][rec["seed"]] = m["value"]
            else:
                values[rec["workload"]][name][rec["seed"]] = (m["value"], m["unit"])
    for workload, metrics in values.items():
        for name, by_seed in metrics.items():
            vals = [v for v, _ in by_seed.values()]
            entry = {"unit": next(iter(by_seed.values()))[1],
                     "by_seed": {s: v for s, (v, _) in by_seed.items()},
                     "samples": len(vals), "median": statistics.median(vals)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / entry["median"] if entry["median"] else None)
            out[workload]["end_to_end"][name] = entry
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text())
               for p in sorted(Path(".perfbench_out").glob("*-trace[01].json"))]
    summary = summarize(records)
    Path(argv[0]).parent.mkdir(parents=True, exist_ok=True)
    Path(argv[0]).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, w in sorted(summary.items()):
        for name, e in w["end_to_end"].items():
            spread = e.get("spread")
            print(f"{workload:15s} {name:12s} median {e['median']:.6g} {e['unit']:6s} "
                  f"n={e['samples']} spread {spread if spread is None else round(spread, 4)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
