"""Plot-ready two/three-column .dat emission from a completed run
directory.  No plotting library is invoked; files are named
<experiment>_<scan>.dat."""

import math
from pathlib import Path

from ..errors import ConfigurationError
from .manifest import format_float


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _write_dat(out_dir, name, columns, rows):
    path = Path(out_dir) / f"{name}.dat"
    lines = ["# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# experiment -> (source table, output scan name, column builder)
_RULES = {
    "entropy-scan": [
        ("S_vs_L", "S_vs_lnL",
         ("ln_L", "entropy"), lambda r: (math.log(r[0]), r[1])),
        ("thermal_S_vs_L", "thermal_S_vs_L",
         ("L", "entropy"), lambda r: (r[0], r[1])),
        ("S_vs_eps", "S_vs_ln_inv_eps",
         ("ln_1_over_eps", "entropy"), lambda r: (math.log(1.0 / r[1]), r[2])),
    ],
    "unruh": [
        ("balance_defect", "balance_defect_vs_omega",
         ("omega", "defect"), lambda r: (r[1], r[2])),
    ],
    "charge-scaling": [
        ("F_vs_ratio", "logF_vs_log_ratio",
         ("log10_ratio", "log10_F"),
         lambda r: (math.log10(r[2]), math.log10(r[3]))),
    ],
    "thermal-map": [
        ("kernel_defect", "defect_vs_beta",
         ("beta", "max_rel_defect"), lambda r: (r[0], r[1])),
    ],
    "ej-fluct": [
        ("energy_variance", "reldiff_vs_geometry",
         ("geometry_index", "rel_diff"),
         None),
    ],
    "zf-algebra": [
        ("defects", "defects_vs_coupling",
         ("coupling", "exchange_defect"), lambda r: (r[0], r[4])),
    ],
    "crossing": [
        ("formfactor_grid", "formfactor_defect_grid",
         ("theta1", "theta2", "abs_diff"),
         lambda r: (r[0], r[1], math.hypot(r[2] - r[4], r[3] - r[5]))),
    ],
}


def emit_plots(run_dir, out_dir=None):
    """Write the .dat files into out_dir, which exists, or else run_dir."""
    run_dir = Path(run_dir)
    out_dir = Path(out_dir) if out_dir else run_dir
    written = []
    for experiment, rules in _RULES.items():
        for table, scan, columns, build in rules:
            src = run_dir / f"{experiment}_{table}.csv"
            if not src.exists():
                continue
            header, rows = _read_csv(src)
            if build is None:     # enumerate rows
                data = [(i, row[-1]) for i, row in enumerate(rows)]
            else:
                data = [build(r) for r in rows]
            written.append(_write_dat(out_dir, f"{experiment}_{scan}", columns, data))
    if not written:
        raise ConfigurationError(f"no scan data found under {run_dir}")
    return written
