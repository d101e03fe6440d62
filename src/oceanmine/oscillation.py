"""Oscillation index over decoded profile records.

The index condenses one (temperature, salinity, pressure) record into
a single dimensionless value:

    N = 1.3247
        - 2.5e-6 * T^2
        + S * (2e-4 - 8e-7 * T)
        + 3300 / P^2
        - 3.2e7 / P^4

with T in degC, S in PSU, P in dbar, evaluated in double precision.
The pressure terms diverge as P approaches zero, so records at or
below a positive pressure floor are not representable on the index
scale; compute_series skips and counts them before indexing.

The banding helpers summarise a series into an expected envelope:
split the series into consecutive windows, average the per-window
minima and maxima.  Values that escape the envelope are what the
advisory stage flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple, Sequence

from .errors import AllSamplesRejected
from .regions import RegionSegment

BASE = 1.3247
T2_COEFF = -2.5e-6
S_COEFF = 2.0e-4
ST_COEFF = -8.0e-7
P2_COEFF = 3300.0
P4_COEFF = 3.2e7


class IndexSample(NamedTuple):
    observed_at: datetime
    n_value: float


@dataclass(frozen=True)
class IndexBand:
    """Expected envelope of a series: averaged window extrema."""

    avg_min: float
    avg_max: float
    window_len: int


class SeriesResult(NamedTuple):
    samples: list[IndexSample]
    skipped: int


def compute_index(temperature: float, salinity: float, pressure: float) -> float:
    """Evaluate the index for one record above the pressure floor."""
    p2 = pressure * pressure
    return (
        BASE
        + T2_COEFF * temperature * temperature
        + salinity * (S_COEFF + ST_COEFF * temperature)
        + P2_COEFF / p2
        - P4_COEFF / (p2 * p2)
    )


def compute_series(seg: RegionSegment, pressure_floor: float) -> SeriesResult:
    """Index every record of a segment that clears the pressure floor.

    Records at or below the floor are skipped and tallied, not errors.
    Raises AllSamplesRejected when nothing survives.
    """
    samples: list[IndexSample] = []
    skipped = 0
    for rec in seg.records:
        if rec.pressure <= pressure_floor:
            skipped += 1
            continue
        samples.append(
            IndexSample(
                observed_at=rec.observed_at,
                n_value=compute_index(rec.temperature, rec.salinity, rec.pressure),
            )
        )
    if not samples:
        raise AllSamplesRejected(
            f"region {seg.key}: all {skipped} records at or below "
            f"pressure floor {pressure_floor}"
        )
    return SeriesResult(samples=samples, skipped=skipped)


def band_of(values: Sequence[float], window_len: int) -> IndexBand:
    """Average the per-window extrema of a series.

    Windows are consecutive runs of window_len (>= 1) values; a final
    partial window counts like any other.  The series is non-empty:
    compute_series never returns an empty one.
    """
    starts = range(0, len(values), window_len)
    # Plain left-to-right addition, as sum() did before Python 3.12
    # made it compensated: the band must not depend on the interpreter.
    total_min = total_max = 0.0
    for i in starts:
        window = values[i : i + window_len]
        total_min += min(window)
        total_max += max(window)
    return IndexBand(
        avg_min=total_min / len(starts),
        avg_max=total_max / len(starts),
        window_len=window_len,
    )
