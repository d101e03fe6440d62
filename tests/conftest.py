from __future__ import annotations

import os
from pathlib import Path

# numpy (a test oracle only) would otherwise start a BLAS thread pool when
# first imported, and run() starts no output-file helper in a process with
# other threads; one BLAS thread keeps the in-process runs forking it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

SPLIT_ID_HEADER = (
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0 "
    "0.691 76.559 0.000 401647210"
)


@pytest.fixture
def sample_path() -> Path:
    return REPO_ROOT / "data" / "sample_telemetry.txt"
