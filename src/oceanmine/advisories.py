"""Advisory generation and report composition.

Two advisory kinds come out of the analysis:

  strong_wave   an index sample escaped the expected envelope for its
                region (strictly below avg_min or strictly above
                avg_max)
  fishing_zone  a rule's cumulative confidence curve peaked at or
                above the advisory threshold; every point attaining
                the peak is flagged

Each advisory carries the value and the threshold it was judged
against, so a report reader can re-check the trigger without access
to the original telemetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from typing import Sequence

from .oscillation import IndexBand, IndexSample

KIND_STRONG_WAVE = "strong_wave"
KIND_FISHING_ZONE = "fishing_zone"


@dataclass(frozen=True)
class Advisory:
    kind: str
    at: datetime
    value: float
    threshold: float
    rule: str | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at.isoformat(),
            "value": self.value,
            "threshold": self.threshold,
            "rule": self.rule,
        }


def detect_strong_waves(
    samples: Sequence[IndexSample], band: IndexBand
) -> list[Advisory]:
    """Flag every sample strictly outside the band.

    A sample equal to either bound stays quiet; the advisory records
    the bound that was crossed.
    """
    alerts = []
    for s in samples:
        if s.n_value < band.avg_min:
            alerts.append(
                Advisory(
                    kind=KIND_STRONG_WAVE,
                    at=s.observed_at,
                    value=s.n_value,
                    threshold=band.avg_min,
                )
            )
        elif s.n_value > band.avg_max:
            alerts.append(
                Advisory(
                    kind=KIND_STRONG_WAVE,
                    at=s.observed_at,
                    value=s.n_value,
                    threshold=band.avg_max,
                )
            )
    return alerts


def detect_fishing_zone(
    curve: Sequence[tuple[datetime, float]],
    theta: float,
    rule: str | None = None,
) -> list[Advisory]:
    """Flag every curve point attaining the global peak, if it clears theta.

    A flat curve at or above theta flags every point; a peak below
    theta flags nothing.
    """
    if not curve:
        return []
    peak = max(conf for _, conf in curve)
    if peak < theta:
        return []
    return [
        Advisory(
            kind=KIND_FISHING_ZONE,
            at=ts,
            value=conf,
            threshold=theta,
            rule=rule,
        )
        for ts, conf in curve
        if conf == peak
    ]


# --- report ----------------------------------------------------------------

STATUS_OK = "ok"
STATUS_REJECTED = "all-samples-rejected"


@dataclass
class RegionSummary:
    """Everything the report needs to say about one region."""

    region: str
    status: str
    sample_count: int
    skipped: int
    first_seen: datetime
    last_seen: datetime
    band: IndexBand | None = None
    top_rule: str | None = None
    top_confidence: float | None = None
    advisories: list[Advisory] = field(default_factory=list)


@dataclass
class ReportTable:
    generated_at: datetime
    rows: list[RegionSummary]


def compose_report(
    summaries: Sequence[RegionSummary], generated_at: datetime
) -> ReportTable:
    """Assemble region summaries into a report, sorted by region."""
    rows = sorted(summaries, key=lambda r: r.region)
    for row in rows:
        row.advisories = sorted(
            row.advisories, key=lambda a: (a.at, a.kind, a.rule or "")
        )
    return ReportTable(generated_at=generated_at, rows=rows)


def _row_dict(row: RegionSummary) -> dict:
    return {
        "region": row.region,
        "status": row.status,
        "sample_count": row.sample_count,
        "skipped": row.skipped,
        "first_seen": row.first_seen.isoformat(),
        "last_seen": row.last_seen.isoformat(),
        "avg_min": row.band.avg_min if row.band else None,
        "avg_max": row.band.avg_max if row.band else None,
        "window_len": row.band.window_len if row.band else None,
        "top_rule": row.top_rule,
        "top_confidence": row.top_confidence,
        "advisories": [a.to_dict() for a in row.advisories],
    }


def report_jsonl(table: ReportTable) -> str:
    """Machine rendering: one JSON record per region row."""
    lines = [
        json.dumps(
            {"generated_at": table.generated_at.isoformat(), "regions": len(table.rows)},
            sort_keys=True,
        )
    ]
    for row in table.rows:
        lines.append(json.dumps(_row_dict(row), sort_keys=True))
    return "\n".join(lines) + "\n"


def report_text(table: ReportTable) -> str:
    """Human rendering: an aligned plain-text table."""
    headers = (
        "region",
        "status",
        "samples",
        "skipped",
        "span",
        "avg_min",
        "avg_max",
        "top_rule",
        "confidence",
        "waves",
        "zones",
    )
    body = []
    for row in table.rows:
        span = f"{row.first_seen.isoformat()}..{row.last_seen.isoformat()}"
        waves = sum(1 for a in row.advisories if a.kind == KIND_STRONG_WAVE)
        zones = sum(1 for a in row.advisories if a.kind == KIND_FISHING_ZONE)
        body.append(
            (
                row.region,
                row.status,
                str(row.sample_count),
                str(row.skipped),
                span,
                f"{row.band.avg_min:.6g}" if row.band else "-",
                f"{row.band.avg_max:.6g}" if row.band else "-",
                row.top_rule or "-",
                f"{row.top_confidence:.6g}" if row.top_confidence is not None else "-",
                str(waves),
                str(zones),
            )
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [
        f"advisory report  generated_at={table.generated_at.isoformat()}",
        fmt(headers),
        fmt(tuple("-" * w for w in widths)),
    ]
    out.extend(fmt(r) for r in body)
    return "\n".join(out) + "\n"

