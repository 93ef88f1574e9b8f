"""Command line entry point.

    modloc-lab <experiment> [--config PATH] [--out DIR]
    modloc-lab verify-all   [--out DIR] [--parallel N] [--only ...]
    modloc-lab emit-plots <run-dir> [--out DIR]

A config file sets a suite's inputs (scan values and grid sizes); every
pass/fail bound is fixed by its check and echoed in the record.

Exit codes: 0 all checks pass (or unverified-by-design), 1 check failure,
2 configuration error (a rejected flag or value, an unreadable or malformed
config file, an --out that cannot be made a directory), 3 numeric error.
MODLOC_OUT overrides --out.
"""

import argparse
import os
import sys
from pathlib import Path

from ..errors import ConfigurationError, ModlocError
from .config import EXPERIMENTS, load_config
from .manifest import FAIL
from .suites import run_experiment, verify_all, write_run


def _make_dir(path):
    """Create an output directory before anything runs, the one place that
    does; a path that cannot be one is a rejected value."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot use {path} as the output directory: {exc.strerror}") from exc
    return path


def _out_dir(args):
    """MODLOC_OUT, else --out; None only for emit-plots without either,
    which then writes into the run directory."""
    out = os.environ.get("MODLOC_OUT") or args.out
    return out and _make_dir(out)


def _report(manifest):
    for r in manifest.records:
        mark = {"pass": "ok  ", "fail": "FAIL", "unverified-by-design": "----"}
        meas = "" if r.measured is None else f" measured={r.measured:.6e}"
        tol = "" if r.tolerance is None else f" tol {r.comparator} {r.tolerance:g}"
        print(f"[{mark[r.verdict]}] {r.name}{meas}{tol}")
    n_fail = sum(1 for v in manifest.verdicts if v == FAIL)
    print(f"{manifest.experiment}: {len(manifest.records)} records, "
          f"{n_fail} failures")
    return 0 if manifest.passed else 1


def build_parser():
    p = argparse.ArgumentParser(prog="modloc-lab",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default="runs")
    va = sub.add_parser("verify-all", help="run every suite at desk scale")
    va.add_argument("--out", default="runs")
    va.add_argument("--parallel", type=int, default=1)
    va.add_argument("--only", nargs="*", default=None,
                    help="restrict to these suites")
    ep = sub.add_parser("emit-plots", help="write plot-ready .dat files")
    ep.add_argument("run_dir")
    ep.add_argument("--out", default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "emit-plots":
            from .plots import emit_plots       # no suite run needs it
            written = emit_plots(args.run_dir, _out_dir(args))
            for path in written:
                print(path)
            return 0
        if args.command == "verify-all":
            if args.parallel < 1:
                raise ConfigurationError(
                    f"--parallel must be at least 1, got {args.parallel}")
            if args.only is not None:
                if not args.only:
                    raise ConfigurationError("--only needs at least one suite")
                bad = set(args.only) - set(EXPERIMENTS)
                if bad:
                    raise ConfigurationError(f"unknown suites: {sorted(bad)}")
                repeated = sorted({n for n in args.only if args.only.count(n) > 1})
                if repeated:
                    raise ConfigurationError(f"--only repeats {repeated}")
            manifest = verify_all(_out_dir(args), parallel=args.parallel,
                                  only=args.only)
            return _report(manifest)
        cfg = load_config(args.command, args.config)
        out = _out_dir(args)
        return _report(write_run(out, run_experiment(cfg)))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ModlocError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
