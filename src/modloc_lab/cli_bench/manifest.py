"""Run manifest: per-check records, CSV emission with fixed numeric format,
file digests and an environment stamp.  Everything except the timestamp and
the environment stamp is deterministic."""

import hashlib
import json
import os
import platform
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .. import __version__

PASS = "pass"
FAIL = "fail"
UNVERIFIED = "unverified-by-design"


_FLOAT_FORMAT = "%.16e"
_CSV_ROWS = 1024        # rows per block that write_csv formats and writes


def format_float(x):
    """17 significant digits, '.' decimal separator (round-to-nearest-even
    is the IEEE default); bit-exact across platforms."""
    return _FLOAT_FORMAT % float(x)


@dataclass(frozen=True)
class Record:
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
    thread setting.  scipy is left out: no suite imports it, and importing
    it only to read its version would cost every run about 0.2 s and
    25 MiB."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


@dataclass
class RunManifest:
    experiment: str
    config: dict
    records: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def extend(self, records):
        self.records.extend(records)

    @property
    def verdicts(self):
        return [r.verdict for r in self.records]

    @property
    def passed(self):
        return all(v in (PASS, UNVERIFIED) for v in self.verdicts)

    def write(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment": self.experiment,
            "artifact_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": self.config,
            "environment": environment(),
            "records": [asdict(r) for r in self.records],
            "files": self.files,
            "passed": self.passed,
        }
        path = out_dir / f"{self.experiment}_manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def write_csv(out_dir, experiment, table_name, header, rows):
    """LF line endings, every cell a number written by format_float's
    format, one format string per row; rows is a sequence of rows or a 2-d
    array.  The text is formatted, hashed and written _CSV_ROWS rows at a
    time, so only one block of it is held; returns (path, digest)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{experiment}_{table_name}.csv"
    row_format = ",".join([_FLOAT_FORMAT] * len(header)) + "\n"

    def texts():
        yield ",".join(header) + "\n"
        for i in range(0, len(rows), _CSV_ROWS):
            block = rows[i:i + _CSV_ROWS]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            yield "".join([row_format % tuple(row) for row in block])

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in texts():
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return path, digest.hexdigest()
