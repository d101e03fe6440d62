"""Command line front end.

Exit codes: 0 success, 1 configuration error (including unusable
flags), 2 I/O error, 3 data error (malformed input, nothing decodable,
or all samples rejected).
All knobs are long-form flags; the environment is never consulted.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import NoReturn

from . import __version__
from .advisories import KIND_FISHING_ZONE, KIND_STRONG_WAVE
from .errors import ConfigError, DataError
from .pipeline import PipelineConfig, run
from .telemetry import read_number

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit as configuration errors."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oceanmine",
        description=(
            "Decode drifting-float telemetry, index it per region, mine "
            "time-lagged episode rules, and emit advisories."
        ),
    )
    # type=int and type=float flags are read by telemetry.read_number; a
    # usage error still names the type: "invalid int value: '1_4'".
    for kind in (int, float):
        parser.register("type", kind, partial(read_number, kind=kind))
    parser.add_argument("inputs", nargs="+", type=Path, metavar="INPUT",
                        help="telemetry dump file(s)")
    parser.add_argument("--out-dir", type=Path, default="out", metavar="DIR",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--cell-size", type=float, metavar="DEG",
                        help="region grid cell size in degrees (default: %(default)s)")
    parser.add_argument("--calibration", dest="calibration_path", type=Path,
                        metavar="FILE",
                        help="calibration table file (key = value lines)")
    parser.add_argument("--pressure-floor", type=float, metavar="DBAR",
                        help="reject records at or below this pressure "
                        "(default: %(default)s)")
    parser.add_argument("--window-len", type=int, metavar="N",
                        help="band window length in samples (default: %(default)s)")
    parser.add_argument("--delta", dest="delta_s", type=float, metavar="SECONDS",
                        help="max in-event sample gap (default: %(default)s)")
    parser.add_argument("--k", type=int, metavar="N",
                        help="quantile class count (default: %(default)s)")
    parser.add_argument("--max-len", type=int, metavar="N",
                        help="max episode length (default: %(default)s)")
    parser.add_argument("--win-a", dest="win_a_s", type=float, metavar="SECONDS",
                        help="antecedent occurrence window (default: %(default)s)")
    parser.add_argument("--win-c", dest="win_c_s", type=float, metavar="SECONDS",
                        help="consequent occurrence window (default: %(default)s)")
    parser.add_argument("--lag", dest="lag_s", type=float, metavar="SECONDS",
                        help="max antecedent-to-consequent lag (default: --delta)")
    parser.add_argument("--min-support", type=int, metavar="N",
                        help="min rule support in events (default: %(default)s)")
    parser.add_argument("--theta", type=float, metavar="X",
                        help="fishing-zone confidence threshold (default: %(default)s)")
    parser.add_argument("--no-plots", dest="write_plots", action="store_false",
                        help="skip index/confidence plot CSVs")
    parser.add_argument("--version", action="version", version=__version__)
    # Every flag's dest is the PipelineConfig field it sets, and its default
    # is that field's default; %(default)s in the help reads it from there.
    parser.set_defaults(**PipelineConfig._field_defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    config = PipelineConfig(**vars(build_parser().parse_args(argv)))
    try:
        result = run(config)
    except ConfigError as e:
        print(f"oceanmine: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"oceanmine: io error: {e}", file=sys.stderr)
        return EXIT_IO
    except DataError as e:
        print(f"oceanmine: data error [{e.stage}]: {e}", file=sys.stderr)
        return EXIT_DATA

    rows = result.report.rows
    records = sum(row.sample_count + row.skipped for row in rows)
    kinds = Counter(a.kind for row in rows for a in row.advisories)
    print(
        f"oceanmine: {records} records, "
        f"{len(rows)} regions, {kinds[KIND_STRONG_WAVE]} strong-wave alerts, "
        f"{kinds[KIND_FISHING_ZONE]} fishing-zone advisories"
    )
    if result.rejected_blocks:
        print(f"oceanmine: {result.rejected_blocks} blocks rejected", file=sys.stderr)
    print(f"oceanmine: report at {config.out_dir / 'report.txt'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
