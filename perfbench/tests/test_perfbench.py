"""Tests of the benchmark itself: generator, tracer and correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SAMPLE = ROOT / "data" / "sample_telemetry.txt"


def _files(c: corpus.Corpus) -> list[bytes]:
    return [p.read_bytes() for p in c.paths]


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic(tmp_path: Path, name: str) -> None:
    w = corpus.WORKLOADS[name]
    a = corpus.generate(w, 7, tmp_path / "a")
    b = corpus.generate(w, 7, tmp_path / "b")
    c = corpus.generate(w, 8, tmp_path / "c")
    assert _files(a) == _files(b)
    assert a.sha256 == b.sha256 != c.sha256
    assert len(a.paths) == w.files


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_prefix_days_are_a_byte_prefix(tmp_path: Path, name: str) -> None:
    w = corpus.WORKLOADS[name]
    full = corpus.generate(w, 3, tmp_path / "full")
    half = corpus.generate(w, 3, tmp_path / "half", days=w.prefix_days)
    assert half.records < full.records
    for f, h in zip(_files(full), _files(half)):
        assert len(h) < len(f)
        assert f.startswith(h)


def test_fleet_corpus_has_rejected_blocks_and_many_regions(tmp_path: Path) -> None:
    c = corpus.generate(corpus.WORKLOADS["fleet"], 1, tmp_path)
    assert c.rejected_blocks > 0
    assert c.regions > corpus.WORKLOADS["fleet"].floats


def _originals() -> dict[tuple[str, str], object]:
    import pathlib

    from oceanmine import advisories, cli, decoder, episodes, pipeline

    owners = {"advisories": advisories, "cli": cli, "decoder": decoder,
              "episodes": episodes, "pipeline": pipeline, "Path": pathlib.Path}
    t = tracer.Tracer()
    t.install()
    patched = [(owner, attr) for owner, attr, _ in t._patched]
    t.restore()
    names = {id(o): n for n, o in owners.items()}
    return {(names[id(o)], a): getattr(o, a) for o, a in patched}


def test_wrappers_are_restored_after_a_traced_run(tmp_path: Path) -> None:
    before = _originals()
    tracer.traced_run([str(SAMPLE), "--out-dir", str(tmp_path / "out")])
    assert _originals() == before


def test_wrappers_are_restored_when_the_run_raises(tmp_path: Path) -> None:
    before = _originals()
    with pytest.raises(SystemExit):
        tracer.traced_run(["--no-such-flag"])
    assert _originals() == before


def test_self_times_sum_to_run_time(tmp_path: Path) -> None:
    trace = tracer.traced_run([str(SAMPLE), "--out-dir", str(tmp_path / "out")])
    m = trace.metrics()
    parts = sum(m[name] for name in tracer.TIME_METRICS if name != "pipeline.run_s")
    assert parts == pytest.approx(m["pipeline.run_s"], rel=1e-9)
    assert all(m[name] > 0 for name in tracer.TIME_METRICS)


def test_sample_reproduces_readme_counts(tmp_path: Path) -> None:
    trace = tracer.traced_run([str(SAMPLE), "--out-dir", str(tmp_path / "out")])
    assert trace.exit_code == 0
    assert "31 records, 1 regions, 3 strong-wave alerts, 13 fishing-zone advisories" in trace.stdout
    m = trace.metrics()
    assert (m["decoder.records"], m["regions.regions"]) == (31, 1)
    assert (m["advisories.strong_wave"], m["advisories.fishing_zone"]) == (3, 13)
    assert m["oscillation.skipped"] == 1


def test_span_that_never_fires_fails_loudly() -> None:
    t = tracer.Tracer()
    t.install()
    t.restore()
    with pytest.raises(RuntimeError, match="no calls for span"):
        t.check_fired()


def _bench(tmp_path: Path, reference: str | None) -> run.Bench:
    w = replace(corpus.WORKLOADS["deep_rules"], days=4, flags=())
    c = corpus.generate(w, 1, tmp_path / "corpus")
    return run.Bench(w, c, tmp_path, run.Gate(reference))


def test_matching_tree_passes_the_gate(tmp_path: Path) -> None:
    bench = _bench(tmp_path, None)
    bench.cli()
    bench.cli()
    assert bench.gate.attempted == 2
    assert bench.gate.failures == []


def test_tampered_tree_counts_as_failed(tmp_path: Path) -> None:
    bench = _bench(tmp_path, None)
    bench.cli()
    reference = bench.gate.digest
    out = tmp_path / "tampered"
    tracer.traced_run([*map(str, bench.corpus.paths), "--out-dir", str(out)])
    assert run.tree_digest(out) == reference
    (out / "report.txt").write_text("tampered\n")
    gate = run.Gate(reference)
    gate.check("tampered", [], out)
    assert gate.attempted == 1 and len(gate.failures) == 1
    assert "output tree" in gate.failures[0]


def test_nonzero_exit_counts_as_failed(tmp_path: Path) -> None:
    bench = _bench(tmp_path, None)
    bench.workload = replace(bench.workload, flags=("--k", "0"))  # a config error
    bench.cli()
    assert bench.gate.attempted == 1
    assert len(bench.gate.failures) == 1
    assert "exit code 1" in bench.gate.failures[0]


def test_wrong_reference_counts_as_failed(tmp_path: Path) -> None:
    bench = _bench(tmp_path, "0" * 64)
    bench.cli()
    assert len(bench.gate.failures) == 1


def test_child_past_its_timeout_is_killed(tmp_path: Path) -> None:
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert child.exit_code == -9
    assert child.wall_s < 10


def test_run_without_program_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_names_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(corpus.WORKLOADS)
    assert all(w["why"] == corpus.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = [*tracer.TIME_METRICS, *tracer.COUNT_METRICS, *tracer.RATIO_METRICS, *run.GROWTH,
                "trace.overhead_s"]
    assert sorted(per_layer) == sorted(expected)
    assert all(per_layer[name] == run.units(name) for name in per_layer)
