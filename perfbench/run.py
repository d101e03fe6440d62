"""oceanmine benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository; the program is taken from its
``src/`` directory.  The run generates the workload's corpus from the
seed, then for ``--seconds`` seconds:

  --trace 0  runs the ``oceanmine`` CLI as a child process, one at a
             time, each into a fresh empty output directory, and
             ``oceanmine --version`` in a fresh interpreter after each
             run.  It reports the medians of wall time, CPU time and
             peak RSS of the CLI runs and of the ``--version`` wall
             time (set-up).
  --trace 1  alternates one untraced CLI run with an in-process traced
             run on the full corpus and one on its first half of days,
             and reports per-layer self times, counts and growth
             ratios (see tracer.py).

Every run is checked: exit code 0, no traceback, the record, region
and rejected-block counts the generator expects, and an output tree
whose SHA-256 equals the reference recorded for this workload and seed
(reference.json) or, for a seed with no recorded reference, equals the
tree of the run's other runs.  The traced tree must equal the untraced
one.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import WORKLOADS, Corpus, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

MIN_SAMPLES = 5  # untraced CLI runs per result, even past --seconds
MIN_TRACED = 2  # traced iterations per result
DEADLINE_S = 150.0  # no new sample starts after this; children are killed at it

_SUMMARY_RE = re.compile(r"^oceanmine: (\d+) records, (\d+) regions, ")
_REJECTED_RE = re.compile(r"^oceanmine: (\d+) blocks rejected$", re.M)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def tree_digest(out_dir: Path) -> str:
    """SHA-256 over the sorted relative paths and contents of a tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        h.update(f"{rel}\0{content}\n".encode())
    return h.hexdigest()


def run_child(cmd: list[str], log_dir: Path, timeout: float) -> ChildRun:
    """Run one child to completion; time it and read its own rusage.

    A child still running after ``timeout`` seconds is killed, and the
    run reports the kill signal as its exit code.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_dir / "stdout", "w+b") as out, open(log_dir / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's rusage alone; RUSAGE_CHILDREN would be
            # a running maximum over every child this process has reaped.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("ascii", "replace")
        stderr = err.read().decode("ascii", "replace")
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def output_problems(code: int, stdout: str, stderr: str, expected: Corpus) -> list[str]:
    """What is wrong with one run's exit code and messages, if anything."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    m = _SUMMARY_RE.search(stdout)
    if m is None:
        problems.append("no summary line on stdout")
    elif (int(m[1]), int(m[2])) != (expected.records, expected.regions):
        problems.append(
            f"reported {m[1]} records, {m[2]} regions; "
            f"expected {expected.records}, {expected.regions}"
        )
    r = _REJECTED_RE.search(stderr)
    rejected = int(r[1]) if r else 0
    if rejected != expected.rejected_blocks:
        problems.append(f"reported {rejected} rejected blocks, expected {expected.rejected_blocks}")
    return problems


class Gate:
    """Counts checked runs and compares every output tree to one digest."""

    def __init__(self, reference: str | None) -> None:
        self.digest = reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, problems: list[str], out_dir: Path | None) -> None:
        self.attempted += 1
        if out_dir is not None and not problems:
            digest = tree_digest(out_dir)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems = [f"output tree {digest[:12]} != reference {self.digest[:12]}"]
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def load_reference(workload: Workload, seed: int, corpus: Corpus) -> str | None:
    """The recorded tree digest for this workload and seed, if any.

    A recorded corpus digest that differs from the generated one means
    the generator changed, and every recorded tree digest is void.
    """
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text())["workloads"][workload.name].get(str(seed))
    if entry is None:
        return None
    if entry["corpus_sha256"] != corpus.sha256:
        raise SystemExit(
            f"perfbench: corpus for {workload.name} seed {seed} is {corpus.sha256}, "
            f"recorded {entry['corpus_sha256']}: the generator changed"
        )
    return entry["tree_sha256"]


class Bench:
    """One benchmark invocation's working state."""

    def __init__(self, workload: Workload, corpus: Corpus, work: Path, gate: Gate) -> None:
        self.workload = workload
        self.corpus = corpus
        self.work = work
        self.gate = gate
        self.runs = 0
        self.python = [sys.executable, "-m", "oceanmine"]
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def more(self, seconds: float, samples: int, minimum: int) -> bool:
        """Whether to start another sample: until both time and count are met."""
        if self.elapsed() >= DEADLINE_S:
            return samples == 0
        return self.elapsed() < seconds or samples < minimum

    def child(self, cmd: list[str]) -> ChildRun:
        return run_child(cmd, self.work, max(1.0, DEADLINE_S - self.elapsed()))

    def fresh_dir(self) -> Path:
        self.runs += 1
        path = self.work / f"out{self.runs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cli(self) -> ChildRun:
        out_dir = self.fresh_dir()
        cmd = [*self.python, *map(str, self.corpus.paths), "--out-dir", str(out_dir),
               *self.workload.flags]
        run = self.child(cmd)
        problems = output_problems(run.exit_code, run.stdout, run.stderr, self.corpus)
        self.gate.check(f"cli run {self.runs}", problems, out_dir)
        return run

    def setup(self) -> float:
        run = self.child([*self.python, "--version"])
        if run.exit_code != 0 or "Traceback" in run.stderr:
            raise SystemExit(f"perfbench: oceanmine --version failed: {run.stderr.strip()}")
        return run.wall_s

    def traced(self, corpus: Corpus, gate: Gate) -> dict[str, float]:
        import tracer

        out_dir = self.fresh_dir()
        argv = [*map(str, corpus.paths), "--out-dir", str(out_dir), *self.workload.flags]
        trace = tracer.traced_run(argv)
        problems = output_problems(trace.exit_code, trace.stdout, trace.stderr, corpus)
        gate.check(f"traced run {self.runs}", problems, out_dir)
        return trace.metrics()


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    bench.setup()  # the first import writes the bytecode cache; not timed
    bench.started = time.perf_counter()
    runs: list[ChildRun] = []
    setups: list[float] = []
    while bench.more(seconds, len(runs), MIN_SAMPLES):
        runs.append(bench.cli())
        setups.append(bench.setup())
    med = statistics.median
    print(
        f"perfbench: {len(runs)} CLI runs, wall_s min {min(r.wall_s for r in runs):.4f} "
        f"max {max(r.wall_s for r in runs):.4f}; {len(setups)} set-up runs",
        file=sys.stderr,
    )
    return {
        "wall_s": med(r.wall_s for r in runs),
        "cpu_s": med(r.cpu_s for r in runs),
        "peak_rss_mb": med(r.peak_rss_mb for r in runs),
        "setup_s": med(setups),
    }


GROWTH = {
    "telemetry.parse_growth_x": "telemetry.parse_s",
    "decoder.decode_growth_x": "decoder.decode_s",
    "regions.segment_growth_x": "regions.segment_s",
    "oscillation.index_growth_x": "oscillation.index_s",
    "episodes.mine_growth_x": "episodes.mine_s",
    "episodes.curve_growth_x": "episodes.curve_s",
}


def measure_traced(bench: Bench, prefix: Corpus, seconds: float) -> dict[str, float]:
    import tracer

    sys.path.insert(0, str(SRC))
    bench.setup()
    walls: list[float] = []
    setups: list[float] = []
    full: list[dict[str, float]] = []
    half: list[dict[str, float]] = []
    prefix_gate = Gate(None)
    bench.started = time.perf_counter()
    while bench.more(seconds, len(full), MIN_TRACED):
        walls.append(bench.cli().wall_s)
        setups.append(bench.setup())
        full.append(bench.traced(bench.corpus, bench.gate))
        half.append(bench.traced(prefix, prefix_gate))
    bench.gate.attempted += prefix_gate.attempted
    bench.gate.failures += prefix_gate.failures

    med = statistics.median
    out = {}
    for name in tracer.TIME_METRICS:
        out[name] = med(m[name] for m in full)
    for name in (*tracer.COUNT_METRICS, *tracer.RATIO_METRICS):
        values = {m[name] for m in full}
        if len(values) != 1:
            bench.gate.failures.append(f"count {name} differs between traced runs: {values}")
        out[name] = full[0][name]
    for name, stage in GROWTH.items():
        out[name] = out[stage] / med(m[stage] for m in half)
    out["trace.overhead_s"] = out["pipeline.run_s"] - (med(walls) - med(setups))
    return out


def units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_x"):
        return "x"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name.endswith(("bytes_in", "bytes_out")):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "oceanmine" / "__init__.py").is_file():
        print(f"perfbench: no oceanmine package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus = generate(workload, args.seed, work / "corpus")
        bench = Bench(workload, corpus, work, Gate(load_reference(workload, args.seed, corpus)))
        if args.trace:
            prefix = generate(workload, args.seed, work / "prefix", days=workload.prefix_days)
            metrics = measure_traced(bench, prefix, args.seconds)
        else:
            metrics = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    gate = bench.gate
    for failure in gate.failures:
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    print(
        f"perfbench: {workload.name} seed {args.seed} corpus {corpus.sha256[:16]} "
        f"({corpus.bytes} bytes), tree {gate.digest and gate.digest[:16]}, "
        f"fail_ratio {len(gate.failures) / gate.attempted:.4f}"
    )
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
