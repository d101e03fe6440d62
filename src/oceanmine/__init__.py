"""oceanmine: drifting-float telemetry to ocean advisories.

Parse raw float telemetry dumps, decode calibrated profile records,
group them onto a spatial grid, condense each region into an
oscillation index series, mine time-lagged episode rules over the
discretized series, and compose strong-wave alerts and potential
fishing zone advisories into a report.
"""

__version__ = "0.1.0"
