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

The records are the report schema: each report.jsonl row holds
exactly RegionSummary._fields, and each of its advisories
Advisory._fields.
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

from .oscillation import IndexBand, IndexSample

KIND_STRONG_WAVE = "strong_wave"
KIND_FISHING_ZONE = "fishing_zone"


class Advisory(NamedTuple):
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
    curve: Sequence[tuple[datetime, float]], theta: float, rule: str
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


class RegionSummary(NamedTuple):
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
    advisories: Sequence[Advisory] = ()


class ReportTable(NamedTuple):
    generated_at: datetime
    rows: list[RegionSummary]


def in_report_order(advisories: Iterable[Advisory]) -> list[Advisory]:
    """A report row's advisories, sorted by time, kind and rule."""
    return sorted(advisories, key=lambda a: (a.at, a.kind, a.rule or ""))


def compose_report(
    summaries: Sequence[RegionSummary], generated_at: datetime
) -> ReportTable:
    """Assemble region summaries into a report, rows as given."""
    return ReportTable(generated_at=generated_at, rows=list(summaries))


def report_jsonl(table: ReportTable, out: TextIO) -> None:
    """Machine rendering, written to out a record at a time: a head, then each row.

    json writes a tuple as an array, so each row and advisory goes in
    as the dict of its fields; datetimes become ISO text.
    """
    encode = json.JSONEncoder(sort_keys=True, default=datetime.isoformat).encode
    head = {"generated_at": table.generated_at, "regions": len(table.rows)}
    out.write(encode(head) + "\n")
    for row in table.rows:
        record = row._asdict()
        record["advisories"] = [a._asdict() for a in row.advisories]
        out.write(encode(record) + "\n")


def _num(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def _count(kind: str) -> Callable[[RegionSummary], str]:
    return lambda row: str(sum(a.kind == kind for a in row.advisories))


# Each report.txt column: its header, and its cell for a row.
_COLUMNS = (
    ("region", lambda row: row.region),
    ("status", lambda row: row.status),
    ("samples", lambda row: str(row.sample_count)),
    ("skipped", lambda row: str(row.skipped)),
    ("span", lambda row: f"{row.first_seen.isoformat()}..{row.last_seen.isoformat()}"),
    ("avg_min", lambda row: _num(row.avg_min)),
    ("avg_max", lambda row: _num(row.avg_max)),
    ("top_rule", lambda row: row.top_rule or "-"),
    ("confidence", lambda row: _num(row.top_confidence)),
    ("waves", _count(KIND_STRONG_WAVE)),
    ("zones", _count(KIND_FISHING_ZONE)),
)


def report_text(table: ReportTable) -> str:
    """Human rendering: an aligned plain-text table."""
    rows = [[header for header, _ in _COLUMNS]]
    rows += ([cell(row) for _, cell in _COLUMNS] for row in table.rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    lines = [f"advisory report  generated_at={table.generated_at.isoformat()}"]
    lines += ("  ".join(map(str.ljust, cells, widths)).rstrip() for cells in rows)
    return "\n".join(lines) + "\n"
