"""Spread and drift of benchmark runs, refused across environment stamps.

    python3 perfbench/compare.py FIRST.txt [SECOND.txt]

Each file holds the standard output of any number of ``perfbench/run.py``
runs, appended one after another.  For every workload and metric it prints
the median, the sample count and the spread (the distance between the
first and third quartile as a share of the median) of each set, and with
two sets the change of the median from the first to the second.

Two runs whose environment stamps differ (library versions, core count,
thread settings) are not comparable: CSV bytes and timings both move with
them.  If the files hold more than one stamp, nothing is compared and the
exit code is 1.
"""

import json
import statistics
import sys


def read_runs(path):
    """[(info, result)] from one file: each result line follows its info line."""
    runs, info = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "stamp" in obj:
                info = obj
            elif "metrics" in obj and info is not None:
                runs.append((info, obj))
                info = None
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [read_runs(path) for path in argv]
    stamps = {json.dumps(info["stamp"], sort_keys=True)
              for runs in sets for info, _ in runs}
    if len(stamps) != 1:
        print(f"refused: {len(stamps)} environment stamps in these runs",
              file=sys.stderr)
        for stamp in sorted(stamps):
            print(f"  {stamp}", file=sys.stderr)
        return 1
    print(f"stamp {stamps.pop()}")
    workloads = sorted({info["workload"] for runs in sets for info, _ in runs})
    for workload in workloads:
        for i, runs in enumerate(sets):
            picked = [(info, res) for info, res in runs if info["workload"] == workload]
            if not picked:
                continue
            correct = sum(res["correct"] for _, res in picked)
            print(f"{workload} set {i + 1}: {len(picked)} runs, {correct} correct, "
                  f"passes {[info['samples']['passes'] for info, _ in picked]}")
        names = {n for runs in sets for info, res in runs
                 if info["workload"] == workload for n in res["metrics"]}
        for name in sorted(names):
            cells, medians = [], []
            for runs in sets:
                values = [res["metrics"][name]["value"] for info, res in runs
                          if info["workload"] == workload and name in res["metrics"]]
                if not values:
                    cells.append(f"{'-':>28s}")
                    continue
                med, iqr = spread(values)
                medians.append(med)
                cells.append(f"{med:12.5g} n={len(values):<3d} iqr/med {iqr:6.3f}")
            change = (f"  change {medians[1] / medians[0] - 1:+.3f}"
                      if len(medians) == 2 and medians[0] else "")
            print(f"  {name:16s} " + " | ".join(cells) + change)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
