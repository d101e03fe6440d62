"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/trajectory/NAME.json

For every workload this runs ``run.py`` untraced once per seed and
traced once (on the first seed), with the run length from
BENCHMARK.json, one run at a time.  It records each end-to-end
metric's values with their median, quartiles and quartile spread as a
share of the median, the traced run's per-layer metrics and the
workload's layer shares, and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import corpus as corpus_mod
import record
import run


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def corpus_digests(name: str, seeds: list[int]) -> dict[str, str]:
    work = run.WORK / "collect"
    out = {}
    for seed in seeds:
        out[str(seed)] = corpus_mod.generate(corpus_mod.WORKLOADS[name], seed, work).sha256
    shutil.rmtree(work, ignore_errors=True)
    return out


def shares(layer: dict) -> dict:
    total = layer["pipeline.run_s"]["value"]
    return {k: v["value"] / total for k, v in layer.items()
            if v["unit"] == "s" and k not in ("pipeline.run_s", "trace.overhead_s")}


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=record.seed_range, default=record.seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    point: dict = {"machine": machine(), "run_seconds": seconds, "seeds": args.seeds,
                   "workloads": {}}
    for name in names:
        results = [bench_run(name, seed, seconds, 0) for seed in args.seeds]
        traced = bench_run(name, args.seeds[0], seconds, 1)
        end_to_end = {
            m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
            for m in spec["end_to_end"]
        }
        point["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "corpus_sha256": corpus_digests(name, args.seeds),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layer_shares": shares(traced["metrics"]),
        }
        for metric, s in end_to_end.items():
            print(f"{name:12s} {metric:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.3f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
