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

The dataclasses are the report schema: each report.jsonl row holds
exactly the fields of a RegionSummary, and each of its advisories
the fields of an Advisory.
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
            bound = band.avg_min
        elif s.n_value > band.avg_max:
            bound = band.avg_max
        else:
            continue
        alerts.append(
            Advisory(
                kind=KIND_STRONG_WAVE,
                at=s.observed_at,
                value=s.n_value,
                threshold=bound,
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
    """Everything the report needs to say about one region.

    The band fields stay None for a region whose samples were all
    rejected.
    """

    region: str
    status: str
    sample_count: int
    skipped: int
    first_seen: datetime
    last_seen: datetime
    avg_min: float | None = None
    avg_max: float | None = None
    window_len: int | None = None
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


def _json_field(obj: object) -> object:
    # json.dumps calls this for what it cannot encode itself: datetimes
    # become ISO text, RegionSummary and Advisory their fields.
    if isinstance(obj, datetime):
        return obj.isoformat()
    return vars(obj)


def report_jsonl(table: ReportTable) -> str:
    """Machine rendering: a head record, then one record per region row."""
    head = {"generated_at": table.generated_at, "regions": len(table.rows)}
    return "".join(
        json.dumps(record, sort_keys=True, default=_json_field) + "\n"
        for record in [head, *table.rows]
    )


def _num(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


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
                _num(row.avg_min),
                _num(row.avg_max),
                row.top_rule or "-",
                _num(row.top_confidence),
                str(waves),
                str(zones),
            )
        )
    widths = [max(map(len, col)) for col in zip(headers, *body)]
    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [
        f"advisory report  generated_at={table.generated_at.isoformat()}",
        fmt(headers),
        fmt(tuple("-" * w for w in widths)),
    ]
    out.extend(fmt(r) for r in body)
    return "\n".join(out) + "\n"
