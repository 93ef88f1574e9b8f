"""Run manifest: per-check records, CSV emission with fixed numeric format,
file digests and an environment stamp.  Everything except the timestamp and
the environment stamp is deterministic."""

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import __version__

# CPython's built-in SHA-256: hashlib would load OpenSSL, about 3.5 MiB in
# every process, for the same digest.
try:
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    from _sha256 import sha256          # Python 3.10 and 3.11

PASS = "pass"
FAIL = "fail"
UNVERIFIED = "unverified-by-design"


_FLOAT_FORMAT = "%.16e"
_CSV_ROWS = 1024        # rows per block that write_csv formats and writes


def format_float(x):
    """17 significant digits, '.' decimal separator (round-to-nearest-even
    is the IEEE default); bit-exact across platforms."""
    return _FLOAT_FORMAT % float(x)


class Record(NamedTuple):
    name: str
    measured: float | None
    tolerance: float | None
    comparator: str                # "<", ">", "recorded", "none"
    verdict: str
    note: str = ""


def check_less(name, measured, tolerance, note=""):
    v = PASS if measured < tolerance else FAIL
    return Record(name, float(measured), float(tolerance), "<", v, note)


def check_greater(name, measured, tolerance, note=""):
    v = PASS if measured > tolerance else FAIL
    return Record(name, float(measured), float(tolerance), ">", v, note)


def check_bool(name, ok, note=""):
    return Record(name, 1.0 if ok else 0.0, None, "none", PASS if ok else FAIL, note)


def record_value(name, measured, note=""):
    return Record(name, float(measured), None, "recorded", PASS, note)


def unverified(name, note):
    return Record(name, None, None, "none", UNVERIFIED, note)


def environment():
    """What the run saw: Python and numpy versions, core count and the BLAS
    thread setting.  scipy is left out: no suite imports it, so its version
    says nothing about a run, and importing it to read the version would
    cost every run 10-15 ms and 1.3 MiB on a 2-core desk machine."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


class RunManifest:
    def __init__(self, experiment, config):
        self.experiment = experiment
        self.config = config
        self.records = []
        self.tables = []        # (table, header, columns) triples to write
        self.files = {}

    def extend(self, records):
        self.records.extend(records)

    @property
    def verdicts(self):
        return [r.verdict for r in self.records]

    @property
    def passed(self):
        return all(v in (PASS, UNVERIFIED) for v in self.verdicts)

    def write(self, out_dir):
        payload = {
            "experiment": self.experiment,
            "artifact_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": self.config,
            "environment": environment(),
            "records": [r._asdict() for r in self.records],
            "files": self.files,
            "passed": self.passed,
        }
        path = Path(out_dir) / f"{self.experiment}_manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


def write_csv(out_dir, experiment, table_name, header, columns):
    """LF line endings, every cell a number written by format_float's
    format, one format string per row; columns is a sequence of equal-length
    columns, one per header name (empty for a table without rows).  The rows
    are stacked, formatted, hashed and written _CSV_ROWS at a time, so only
    one block of the table and its text is held; out_dir must exist.
    Returns (path, digest)."""
    path = Path(out_dir) / f"{experiment}_{table_name}.csv"
    row_format = ",".join([_FLOAT_FORMAT] * len(header)) + "\n"
    n_rows = len(columns[0]) if len(columns) else 0

    def texts():
        yield ",".join(header) + "\n"
        for i in range(0, n_rows, _CSV_ROWS):
            block = np.column_stack([c[i:i + _CSV_ROWS] for c in columns])
            yield "".join([row_format % tuple(row) for row in block.tolist()])

    digest = sha256()
    with open(path, "wb") as fh:
        for text in texts():
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return path, digest.hexdigest()
