"""Benchmark of the modloc-lab command line, from a checkout of the repo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs the real CLI (``modloc_lab.cli_bench.main``) from
``src/`` in a fresh child process through ``perfbench/tracer.py``, one child
at a time (a closed loop with one client), and reads back the manifests and
CSVs it writes.  A pass is one run of every command of the workload.  At
most MAX_PASSES run; after the first, a new pass starts only while it is
expected to end within ``S`` seconds of the start.

``--trace 0`` prints the end-to-end metrics, medians over passes:
  wall_s       spawn to exit, summed over the pass's children
  setup_s      spawn until ``modloc_lab.cli_bench.main`` is imported,
               median over every child of every pass, topped up to
               SETUP_SAMPLES with ``modloc-lab --help`` children
  cpu_s        user + system CPU of the pass's children (per-child rusage)
  peak_rss_mb  largest peak resident memory of one child of the pass
  min_headroom smallest log10(tolerance / measured) over the ``<`` checks

``--trace 1`` prints the per-layer metrics from three passes: one untraced,
one traced and one with a single BLAS/OpenMP thread.

Every run checks the outputs.  A check the workload expects but the run
did not emit, a failed check, or a child that exits nonzero counts as
failed (``fail_ratio`` = failed / expected).  CSV digests are kept in
``.perfbench/hashes``, per environment stamp and digest of the package
sources; a CSV whose digest differs from an earlier run of the same inputs
and code, or, for lattice and continuum at seed 0, from the same file
written by ``verify-all --parallel 2``, is nondeterministic.
The result is ``correct`` only with no failed check and no such file.

The last line of stdout is the JSON result.  The line before it is a JSON
object with the workload, seed, environment stamp, source digest and
sample counts; ``perfbench/compare.py`` reads both and refuses to compare
runs whose stamps differ.  Progress and a readable summary go to stderr,
and the full record to ``.perfbench/<workload>-seed<N>/result.json``.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from workloads import WORKLOADS, suites_of  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench"
TRACER = Path(tracer.__file__).resolve()
BUDGET_S = 170.0        # every child must be done this long after start
MAX_PASSES = 5          # caps a run of the short wedge workload near 35 s
SETUP_SAMPLES = 5       # fewest set-up samples setup_s is the median of
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
OK_VERDICTS = ("pass", "unverified-by-design")
# workloads whose seed-0 inputs are verify-all's, so their CSVs must match it
AT_DEFAULTS = ("lattice", "continuum")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "min_headroom": "log10",
}


def per_layer_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer, fns in tracer.LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.s"] = "s"
            if fn == "gauss_legendre":      # cold node builds: distinct orders
                units[f"{name}.distinct_n"] = "count"
            else:
                units[f"{name}.self_s"] = "s"
    for suite in suites_of(("verify-all",)):
        units[f"cli_bench.suite.{suite}.s"] = "s"
    units.update({
        "cli_bench.write_csv.calls": "count",
        "cli_bench.write_csv.s": "s",
        "cli_bench.write_csv.bytes": "B",
        "cli_bench.manifest_write.s": "s",
        "cli_bench.verify_all.overlap": "ratio",
        "blas1.wall_s": "s",
        "trace.overhead_s": "s",
        "fail_ratio": "ratio",
        "nondeterministic_files": "count",
    })
    return units


# ------------------------------------------------------------------ children

@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    started: float


def spawn(argv, env, log_path, deadline):
    """Run one child to its end and return its own resource usage.

    ``os.wait4`` gives this child's rusage alone; RUSAGE_CHILDREN would
    report the largest peak memory of every child so far.  A child still
    running at ``deadline`` is killed through its pidfd, which cannot
    reach a recycled pid."""
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(max(deadline - time.monotonic(), 0.0) * 1000):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, started)


def child_env(overrides=None):
    env = dict(os.environ)
    env.pop("MODLOC_OUT", None)          # it would override --out
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(overrides or {})
    return env


def environment_stamp(libs, env):
    """Library versions, core count and thread settings.  CSV digests are
    compared only between runs with equal stamps: BLAS thread count alone
    moves entropy-scan values by about 1e-11."""
    stamp = dict(libs, nproc=len(os.sched_getaffinity(0)))
    stamp.update({var: env.get(var, "unset") for var in THREAD_VARS})
    return stamp


def source_digest():
    """sha256 over the package sources: CSV digests of one stamp are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


# -------------------------------------------------------------------- passes

@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    expected: int = 0
    failed: int = 0
    headroom: float = math.inf
    digests: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)     # one per child that imported
    libs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    children: list = field(default_factory=list)    # (command, wall_s, cpu_s, rss_mb)


def check_outputs(workload, command, out_dir, returncode, result):
    """Count expected records that are missing or not passing; a child that
    exits nonzero fails every record it owes."""
    for suite in suites_of(command):
        expected = workload.expected[suite]
        result.expected += len(expected)
        path = out_dir / f"{suite}_manifest.json"
        if returncode != 0 or not path.exists():
            result.failed += len(expected)
            continue
        records = {r["name"]: r for r in
                   json.loads(path.read_text(encoding="utf-8"))["records"]}
        result.failed += sum(1 for name in expected
                             if records.get(name, {}).get("verdict") not in OK_VERDICTS)
        for r in records.values():
            if r["comparator"] == "<" and r["measured"] > 0:
                result.headroom = min(result.headroom,
                                      math.log10(r["tolerance"] / r["measured"]))


def run_cli(args, env, out_dir, name, deadline, traced=False):
    """One modloc-lab child through ``tracer.py``: its Child record and the
    info it wrote (None if it never got as far as importing the CLI)."""
    info_path = out_dir / f"{name}.json"
    argv = [sys.executable, str(TRACER), str(info_path),
            *(["--trace"] if traced else []), "--", *args]
    child = spawn(argv, env, out_dir / f"{name}.log", deadline)
    info = (json.loads(info_path.read_text(encoding="utf-8"))
            if info_path.exists() else None)
    return child, info


def run_pass(workload, run_dir, label, env, deadline, traced=False):
    out_dir = run_dir / label
    out_dir.mkdir()
    config = ["--config", str(run_dir / "workload.ini")] if workload.config else []
    result = Pass()
    for i, command in enumerate(workload.commands):
        args = [*command, "--out", str(out_dir)]
        if command[0] != "verify-all":
            args += config
        child, info = run_cli(args, env, out_dir, f"child-{i}", deadline, traced)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.children.append((command[0], child.wall_s, child.cpu_s, child.rss_mb))
        check_outputs(workload, command, out_dir, child.returncode, result)
        if info:
            result.setup_s.append(info["imported"] - child.started)
            result.libs = info["libs"]
            if traced:
                result.spans.append(info["spans"])
    result.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out_dir.glob("*.csv"))}
    print(f"  {label}: wall {result.wall_s:.3f} s, cpu {result.cpu_s:.3f} s, "
          f"rss {result.rss_mb:.1f} MB, failed {result.failed}/{result.expected}",
          file=sys.stderr)
    return result


# --------------------------------------------------------------- determinism

def _differing(digests, reference):
    return {n for n in reference if digests.get(n) != reference[n]}


def _run_key(workload, seed):
    """Runs compare only when their generated inputs are equal."""
    config = WORKLOADS[workload](seed).config
    return f"{workload}-{hashlib.sha256(config.encode()).hexdigest()[:12]}"


def nondeterministic_files(workload, seed, stamp, source, passes):
    """Names of CSVs whose digest differs between passes of this run, from
    the first recorded run of the same inputs under this stamp and source
    digest, or, for the AT_DEFAULTS workloads at seed 0, from the same file
    written by verify-all (serial against --parallel).  Runs under another
    stamp or of other code are never compared."""
    key = hashlib.sha256(json.dumps([stamp, source], sort_keys=True).encode())
    path = RUNS / "hashes" / f"{key.hexdigest()[:16]}.json"
    registry = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
                else {"stamp": stamp, "source": source, "runs": {}})
    runs = registry["runs"]
    reference = runs.setdefault(_run_key(workload, seed), passes[0].digests)
    parallel = runs.get(_run_key("verify-all", 0), {})
    bad = set()
    for p in passes:
        bad |= _differing(p.digests, reference) | _differing(reference, p.digests)
        if workload == "verify-all":
            for serial in AT_DEFAULTS:
                bad |= _differing(p.digests, runs.get(_run_key(serial, 0), {}))
        elif workload in AT_DEFAULTS and seed == 0 and parallel:
            bad |= _differing(parallel, p.digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return sorted(bad)


# ------------------------------------------------------------------- metrics

def layer_metrics(traced, untraced_wall, blas1, bad_files, failed, expected):
    stats = tracer.summarize(traced.spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []}
    values = {}
    for name in per_layer_units():
        label, _, kind = name.rpartition(".")
        st = stats.get(label, empty)
        if kind == "distinct_n":
            values[name] = len(set(st["values"]))
        elif kind == "bytes":
            values[name] = sum(st["values"])
        elif kind in st:
            values[name] = st[kind]
    suites_s = sum(st["s"] for label, st in stats.items()
                   if label.startswith("cli_bench.suite."))
    va = stats.get("cli_bench.verify_all", empty)["s"]
    values.update({
        "cli_bench.verify_all.overlap": suites_s / va if va else 0.0,
        "blas1.wall_s": blas1.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
        "fail_ratio": failed / expected,
        "nondeterministic_files": len(bad_files),
    })
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "modloc_lab" / "cli_bench" / "main.py").is_file():
        print(f"no modloc_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + BUDGET_S
    workload = WORKLOADS[args.workload](args.seed)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if workload.config:
        (run_dir / "workload.ini").write_text(workload.config, encoding="utf-8")

    env = child_env()
    source = source_digest()
    passes = []
    while True:
        began = time.monotonic()
        passes.append(run_pass(workload, run_dir, f"pass-{len(passes)}", env, deadline))
        now = time.monotonic()
        if (args.trace or len(passes) == MAX_PASSES
                or now + (now - began) > start + min(args.seconds, BUDGET_S)):
            break
    setup_times = [s for p in passes for s in p.setup_s]
    while not args.trace and 0 < len(setup_times) < SETUP_SAMPLES:
        # a workload of one long child: top up with children that only import
        child, info = run_cli(["--help"], env, run_dir, f"setup-{len(setup_times)}",
                              deadline)
        if child.returncode != 0 or not info:
            raise SystemExit(f"modloc-lab --help failed, see {run_dir}")
        setup_times.append(info["imported"] - child.started)
    if not setup_times:
        raise SystemExit(f"no child imported modloc_lab, see the logs in {run_dir}")
    stamp = environment_stamp(passes[0].libs, env)
    print(f"{args.workload} seed {args.seed}: stamp {json.dumps(stamp)}, "
          f"source {source}", file=sys.stderr)
    checked = list(passes)
    if args.trace:
        traced = run_pass(workload, run_dir, "traced", env, deadline, traced=True)
        checked.append(traced)
    bad_files = nondeterministic_files(args.workload, args.seed, stamp, source, checked)
    if args.trace:
        blas1_env = child_env(SINGLE_THREAD)
        blas1 = run_pass(workload, run_dir, "blas1", blas1_env, deadline)
        checked.append(blas1)
        bad_files += nondeterministic_files(
            args.workload, args.seed, environment_stamp(passes[0].libs, blas1_env),
            source, [blas1])
    expected = sum(p.expected for p in checked)
    failed = sum(p.failed for p in checked)

    headroom = min(p.headroom for p in checked)     # inf: no "<" check was read
    if args.trace:
        values = layer_metrics(traced, statistics.median(p.wall_s for p in passes),
                               blas1, bad_files, failed, expected)
        units = per_layer_units()
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "min_headroom": headroom if math.isfinite(headroom) else 0.0,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not bad_files,
        "attempted": expected,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "stamp": stamp, "source": source,
            "samples": {"passes": len(passes), "setup_s": len(setup_times)}}
    record = dict(info, passes=[p.children for p in checked], setup_samples=setup_times,
                  nondeterministic=bad_files, result=result)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  passes {len(passes)}, setup samples {len(setup_times)}, "
          f"failed {failed}/{expected}, nondeterministic {bad_files or 'none'}",
          file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
