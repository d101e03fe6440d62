"""Per-layer spans around oceanmine's public functions, from outside.

The tracer replaces the module attributes that ``pipeline.run``
resolves at call time with timing wrappers, runs the CLI entry point
in-process (so the real orchestration runs, not a copy of it), and
restores every attribute afterwards.  Spans are kept in memory on a
parent stack, so a span's self time excludes the time of the spans it
called.  Counts are taken from the wrapped calls' arguments, results
and exceptions, outside the timed region.

Nothing under ``src/`` knows about the tracer.  If a function is
renamed or an import moves, its span records no calls; ``check_fired``
turns that into a loud failure instead of a silently zero layer.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

# Span name -> the metric its self time adds to.
SPAN_METRIC = {
    "parse_file": "telemetry.parse_s",
    "decode_block": "decoder.decode_s",
    "segment": "regions.segment_s",
    "compute_series": "oscillation.index_s",
    "band_of": "oscillation.band_s",
    "build_events": "episodes.events_s",
    "frequent_episodes": "episodes.frequent_s",
    "mine_rules": "episodes.mine_s",
    "confidence_series": "episodes.curve_s",
    "detect_strong_waves": "advisories.detect_s",
    "detect_fishing_zone": "advisories.detect_s",
    "compose_report": "advisories.report_s",
    "report_jsonl": "advisories.report_s",
    "report_text": "advisories.report_s",
    "records_csv": "pipeline.serialize_s",
    "rules_csv": "pipeline.serialize_s",
    "index_csv": "pipeline.serialize_s",
    "confidence_csv": "pipeline.serialize_s",
    "write_text": "pipeline.write_s",
    "run": "pipeline.self_s",
}

TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values())) + ("pipeline.run_s",)

COUNT_METRICS = (
    "telemetry.blocks",
    "telemetry.bytes_in",
    "decoder.records",
    "decoder.rejected_blocks",
    "regions.regions",
    "oscillation.samples",
    "oscillation.skipped",
    "oscillation.rejected_regions",
    "episodes.events",
    "episodes.frequent",
    "episodes.candidate_pairs",
    "episodes.rules",
    "episodes.curve_points",
    "advisories.strong_wave",
    "advisories.fishing_zone",
    "pipeline.files",
    "pipeline.bytes_out",
)

RATIO_METRICS = ("decoder.reject_ratio", "episodes.rule_yield")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Trace:
    """What one traced run recorded."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    stdout: str = ""
    stderr: str = ""
    exit_code: int = 0

    def metrics(self) -> dict[str, float]:
        """Self time per layer metric, the run total, and the counts."""
        out = {name: 0.0 for name in TIME_METRICS}
        for span, stats in self.spans.items():
            out[SPAN_METRIC[span]] += stats.self_s
        out["pipeline.run_s"] = self.spans["run"].total_s
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        blocks = self.counts["telemetry.blocks"]
        out["decoder.reject_ratio"] = (
            self.counts["decoder.rejected_blocks"] / blocks if blocks else 0.0
        )
        pairs = self.counts["episodes.candidate_pairs"]
        out["episodes.rule_yield"] = self.counts["episodes.rules"] / pairs if pairs else 0.0
        return out


class Tracer:
    """Installs span wrappers for one traced run and removes them after."""

    def __init__(self) -> None:
        self.trace = Trace()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._pairs: list[int] = []  # frequent-set sizes inside one mine_rules

    def _wrap(
        self,
        owner: Any,
        attr: str,
        on_result: Callable[[Any, tuple], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        stats = self.trace.spans.setdefault(attr, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                _close(t0, frame)
                if on_error is not None:
                    on_error(e)
                raise
            _close(t0, frame)
            if on_result is not None:
                on_result(result, args)
            return result

        def _close(t0: float, frame: list[float]) -> None:
            dt = clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            stats.calls += 1
            stats.total_s += dt
            stats.self_s += dt - frame[0]

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from oceanmine import advisories, cli, decoder, episodes, pipeline
        from oceanmine.errors import AllSamplesRejected, NonTripleWordCount

        c = self.trace.counts

        def add(metric: str) -> Callable[[Any, tuple], None]:
            def on_result(result: Any, args: tuple) -> None:
                c[metric] += len(result)
            return on_result

        def parsed(blocks: Any, args: tuple) -> None:
            c["telemetry.blocks"] += len(blocks)
            c["telemetry.bytes_in"] += os.path.getsize(args[0])

        def decode_failed(e: BaseException) -> None:
            if isinstance(e, NonTripleWordCount):
                c["decoder.rejected_blocks"] += 1

        def indexed(series: Any, args: tuple) -> None:
            c["oscillation.samples"] += len(series.samples)
            c["oscillation.skipped"] += series.skipped

        def index_failed(e: BaseException) -> None:
            if isinstance(e, AllSamplesRejected):
                c["oscillation.rejected_regions"] += 1

        def found_frequent(freq: Any, args: tuple) -> None:
            c["episodes.frequent"] += len(freq)
            self._pairs.append(len(freq))

        def mined(rules: Any, args: tuple) -> None:
            # mine_rules scores every (antecedent, consequent) pair of its
            # frequent sets; with win_a == win_c it reuses one set for both.
            sizes, self._pairs = self._pairs, []
            c["episodes.candidate_pairs"] += sizes[0] * sizes[-1]
            c["episodes.rules"] += len(rules)

        def wrote(result: Any, args: tuple) -> None:
            c["pipeline.files"] += 1
            c["pipeline.bytes_out"] += len(args[1])

        self._wrap(pipeline, "parse_file", parsed)
        self._wrap(decoder, "decode_block", add("decoder.records"), decode_failed)
        self._wrap(pipeline, "segment", add("regions.regions"))
        self._wrap(pipeline, "compute_series", indexed, index_failed)
        self._wrap(pipeline, "band_of")
        self._wrap(episodes, "build_events", add("episodes.events"))
        self._wrap(episodes, "frequent_episodes", found_frequent)
        self._wrap(episodes, "mine_rules", mined)
        self._wrap(episodes, "confidence_series", add("episodes.curve_points"))
        self._wrap(advisories, "detect_strong_waves", add("advisories.strong_wave"))
        self._wrap(advisories, "detect_fishing_zone", add("advisories.fishing_zone"))
        for name in ("compose_report", "report_jsonl", "report_text"):
            self._wrap(advisories, name)
        for name in ("records_csv", "rules_csv", "index_csv", "confidence_csv"):
            self._wrap(pipeline, name)
        self._wrap(pathlib.Path, "write_text", wrote)
        # The CLI calls pipeline.run through its own imported name.
        self._wrap(cli, "run")

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def check_fired(self) -> None:
        """Raise if any span recorded no calls (a renamed or moved function)."""
        silent = sorted(name for name, s in self.trace.spans.items() if s.calls == 0)
        if silent:
            raise RuntimeError(
                "traced run recorded no calls for span(s) "
                + ", ".join(silent)
                + "; a layer function was renamed or is no longer resolved "
                "through the wrapped module attribute"
            )


def traced_run(argv: list[str]) -> Trace:
    """Run ``oceanmine.cli.main(argv)`` in-process with every span installed."""
    from oceanmine import cli

    tracer = Tracer()
    out, err = io.StringIO(), io.StringIO()
    try:
        tracer.install()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        tracer.restore()
    trace = tracer.trace
    trace.stdout, trace.stderr, trace.exit_code = out.getvalue(), err.getvalue(), code
    if code == 0:
        tracer.check_fired()
    return trace
