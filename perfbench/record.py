"""Record the reference output-tree digests the benchmark checks against.

    python3 perfbench/record.py --seeds 0-31 [--workloads fleet ...]

For every workload and seed this generates the corpus, runs the CLI
once, checks its exit code and counts, and stores the corpus SHA-256
and the output-tree SHA-256 in ``reference.json``.  Run it only at a
commit whose output is known good: every later run of the benchmark on
a recorded seed must reproduce these trees byte for byte.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import corpus as corpus_mod
import run

TREE_DIGEST = (
    "SHA-256 of the lines '<path relative to --out-dir>\\0<SHA-256 of the file>\\n' "
    "in sorted path order"
)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"),
                        help="inclusive seed range, e.g. 0-31")
    parser.add_argument("--workloads", nargs="*", default=sorted(corpus_mod.WORKLOADS),
                        help="workloads to re-record; the others keep their entries")
    args = parser.parse_args(argv)

    reference: dict = {"tree_sha256": TREE_DIGEST, "workloads": {}}
    if run.REFERENCE.is_file():
        reference["workloads"] = json.loads(run.REFERENCE.read_text())["workloads"]
    work = run.WORK / "record"
    failed = 0
    try:
        for name in args.workloads:
            workload = corpus_mod.WORKLOADS[name]
            entries = reference["workloads"][name] = {}
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                corpus = corpus_mod.generate(workload, seed, work / "corpus")
                bench = run.Bench(workload, corpus, work, run.Gate(None))
                bench.cli()
                if bench.gate.failures:
                    failed += 1
                    print(f"{name} seed {seed}: {bench.gate.failures}", file=sys.stderr)
                    continue
                entries[str(seed)] = {
                    "corpus_sha256": corpus.sha256,
                    "tree_sha256": bench.gate.digest,
                }
                print(f"{name} seed {seed}: tree {bench.gate.digest}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
