"""Record the benchmark's baseline: every workload over several seeds.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

For each workload of ``BENCHMARK.json`` this runs ``run.py`` for
``run_seconds`` once per seed with tracing off and once (first seed) with
tracing on, one run at a time, and writes a JSON file with:

* a header: ``cpu_count``, Python/NumPy/SciPy versions, the git commit
  measured (when run inside a git checkout), the seeds and run length;
* per workload: its loop type, size, offered rate and why it was chosen,
  every end-to-end metric's per-seed values, median, quartiles and
  spread (interquartile range over median, as
  ``statistics.quantiles(values, n=4)`` gives the quartiles), and the
  per-layer metrics of the traced run;
* the layer table: which layer metric should move which end-to-end
  metric, on which workload.

The exit code is 1 if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    # The host slowdown and the raw (un-normalized) timings are printed
    # in the report lines above the result.
    result["report"] = {
        fields[0]: float(fields[1]) for fields in map(str.split, lines[:-1])
        if len(fields) > 2 and fields[0].startswith(("raw.", "host."))}
    result["exit_code"] = completed.returncode
    if completed.returncode or not result.get("correct"):
        print(completed.stdout[-3000:], completed.stderr[-3000:],
              file=sys.stderr)
    return result


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def _header(seeds: list[int], seconds: int) -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "seeds": seeds, "seconds": seconds,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    names = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    record = {"header": _header(seeds, seconds), "workloads": {},
              "layer_table": layers.LAYER_TABLE}
    ok = True
    for name in names:
        cls = workloads.WORKLOADS[name]
        runs = []
        for seed in seeds:
            result = _run(name, seed, seconds, 0)
            ok &= result.get("correct", False) and not result["exit_code"]
            runs.append(result)
            print(name, seed, {metric: round(value["value"], 4) for
                               metric, value in result["metrics"].items()},
                  flush=True)
        end_to_end = {
            metric: _summary([run["metrics"][metric]["value"]
                              for run in runs])
            for metric in runs[0]["metrics"]}
        entry = {"loop": cls.loop, "size": cls.size,
                 "offered_rate": cls.offered_rate, "why": cls.why,
                 "attempted": [run["attempted"] for run in runs],
                 "failed": [run["failed"] for run in runs],
                 "end_to_end": end_to_end,
                 "unnormalized": {
                     key: _summary([run["report"][key] for run in runs])
                     for key in runs[0]["report"]}}
        for metric, summary in end_to_end.items():
            spread = summary["spread"]
            print(f"  {metric:18s} median {summary['median']:.4g} spread "
                  f"{spread:.4f} (bound {bounds[metric]})")
        traced = _run(name, seeds[0], seconds, 1)
        ok &= traced.get("correct", False) and not traced["exit_code"]
        entry["trace"] = {"seed": seeds[0], **{
            metric: value["value"]
            for metric, value in traced["metrics"].items()}}
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
