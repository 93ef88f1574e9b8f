"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run the real CLI (about a minute in all) and write only under
``.perfbench/selftest``.
"""

import json
import math
import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

from modloc_lab.cli_bench.config import load_config  # noqa: E402

# workload -> traced functions it is meant to exercise
EXERCISED = {
    "lattice": [f"gaussian_core.{fn}" for fn in tracer.LAYERS["gaussian_core"]]
    + ["chiral_ej.entropy_relation_check", "cli_bench.write_csv",
       "cli_bench.manifest_write", "cli_bench.suite.entropy-scan"],
    "continuum": [f"charge_fluct.{fn}" for fn in tracer.LAYERS["charge_fluct"]]
    + [f"quadrature.{fn}" for fn in tracer.LAYERS["quadrature"]]
    + [f"chiral_ej.{fn}" for fn in ("energy_variance", "smeared_current_variance",
                                     "current_variance_spectral", "ej_compare")]
    + ["cli_bench.suite.ej-fluct", "cli_bench.suite.charge-scaling"],
    "wedge": [f"wedge_kms.{fn}" for fn in tracer.LAYERS["wedge_kms"]]
    + [f"crossing_zf.{fn}" for fn in tracer.LAYERS["crossing_zf"]]
    + ["chiral_ej.verify_isomorphism", "cli_bench.suite.thermal-map",
       "cli_bench.suite.unruh", "cli_bench.suite.crossing",
       "cli_bench.suite.zf-algebra"],
}


def _scratch(name):
    path = run.RUNS / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run(workload, name, traced=False):
    run_dir = _scratch(name)
    if workload.config:
        (run_dir / "workload.ini").write_text(workload.config, encoding="utf-8")
    return run.run_pass(workload, run_dir, "pass", run.child_env(),
                        time.monotonic() + run.BUDGET_S, traced=traced)


@pytest.fixture(scope="module")
def traced_passes():
    return {name: _run(workloads.WORKLOADS[name](0), name, traced=True)
            for name in EXERCISED}


def test_every_traced_function_is_meant_for_a_workload():
    labels = {f"{layer}.{fn}" for layer, fns in tracer.LAYERS.items() for fn in fns}
    assert labels <= {label for names in EXERCISED.values() for label in names}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_exercised_functions_record_calls_and_self_time(traced_passes, name):
    result = traced_passes[name]
    assert result.failed == 0
    assert len(result.setup_s) == len(result.children)
    assert all(0 < s < result.wall_s for s in result.setup_s)
    stats = tracer.summarize(result.spans)
    for label in EXERCISED[name]:
        assert stats.get(label, {}).get("calls", 0) >= 1, label
        assert stats[label]["self_s"] > 0, label


def _self_time_per_thread(path):
    payload = json.loads(path.read_text())
    per_thread = {}
    for label, thread, start, end, self_s, nested, value in payload["spans"]:
        assert self_s <= end - start + 1e-9
        per_thread[thread] = per_thread.get(thread, 0.0) + self_s
    return payload["wall_s"], per_thread


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_self_times_sum_to_no_more_than_wall(traced_passes, name):
    spans = sorted((run.RUNS / "selftest" / name / "pass").glob("child-*.json"))
    assert spans
    for path in spans:
        wall, per_thread = _self_time_per_thread(path)
        assert sum(per_thread.values()) <= wall


def test_parallel_threads_keep_separate_span_stacks():
    work = workloads.Workload(
        "parallel", (("verify-all", "--parallel", "2", "--only", "thermal-map",
                      "zf-algebra", "crossing"),), "",
        workloads._expected({s: {} for s in workloads.SUITES}))
    result = _run(work, "parallel", traced=True)
    assert tracer.summarize(result.spans)["cli_bench.verify_all"]["calls"] == 1
    path = run.RUNS / "selftest" / "parallel" / "pass" / "child-0.json"
    wall, per_thread = _self_time_per_thread(path)
    assert len(per_thread) >= 2
    assert all(total <= wall for total in per_thread.values())


def test_failing_config_gives_nonzero_fail_ratio():
    work = workloads._single_suites("unruh-fail", {"unruh": {"tol_balance": 1e-30}})
    result = _run(work, "unruh-fail")
    assert result.expected > 0
    assert result.failed / result.expected > 0


def test_vacuous_empty_list_counts_missing_records_as_failed():
    work = workloads.Workload(
        "unruh-empty", (("unruh",),), "[unruh]\naccelerations =\n",
        workloads._expected({"unruh": {}}))
    result = _run(work, "unruh-empty")
    assert result.failed >= 3          # at least the three default accelerations


# values whose change alters the work done or breaks a check at the parent
PINNED = {("ej-fluct", "beta"), ("crossing", "mass"), ("entropy-scan", "thermal_beta")}
ENLARGED = {"betas", "grid_n", "accelerations", "k_max"}      # wedge only


def _params(work, name):
    path = _scratch(name) / "workload.ini"
    path.write_text(work.config, encoding="utf-8")
    return {suite: load_config(suite, path).params for suite in work.expected
            if f"[{suite}]" in work.config}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_reproduces_package_defaults(name):
    for suite, params in _params(workloads.WORKLOADS[name](0), name).items():
        defaults = load_config(suite).params
        changed = {k for k in defaults if params[k] != defaults[k]}
        assert changed <= (ENLARGED if name == "wedge" else set()), changed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_values_never_sizes(name):
    base = workloads.WORKLOADS[name](0)
    base_params = _params(base, name)
    for seed in range(1, 30):
        work = workloads.WORKLOADS[name](seed)
        assert work == workloads.WORKLOADS[name](seed)
        assert work.commands == base.commands
        assert {s: len(n) for s, n in work.expected.items()} == \
               {s: len(n) for s, n in base.expected.items()}
        for suite, params in _params(work, name).items():
            for key, val in base_params[suite].items():
                if isinstance(val, tuple):
                    assert len(params[key]) == len(val), key
                elif isinstance(val, int) or (suite, key) in PINNED:
                    assert params[key] == val, key


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_digests_compare_only_within_one_stamp(monkeypatch):
    monkeypatch.setattr(run, "RUNS", _scratch("stamps"))
    first = run.Pass(digests={"a.csv": "1", "b.csv": "2"})
    second = run.Pass(digests={"a.csv": "1", "b.csv": "3"})
    stamp = {"nproc": 2, "OPENBLAS_NUM_THREADS": "unset"}
    other = dict(stamp, OPENBLAS_NUM_THREADS="1")
    assert run.nondeterministic_files("lattice", 5, stamp, "src", [first]) == []
    assert run.nondeterministic_files("lattice", 5, other, "src", [second]) == []
    assert run.nondeterministic_files("lattice", 5, stamp, "src", [second]) == ["b.csv"]


def test_digests_compare_only_within_one_source(monkeypatch):
    monkeypatch.setattr(run, "RUNS", _scratch("sources"))
    stamp = {"nproc": 2}
    parent = run.Pass(digests={"entropy-scan_S_vs_L.csv": "1"})
    changed = run.Pass(digests={"entropy-scan_S_vs_L.csv": "2"})
    assert run.nondeterministic_files("lattice", 0, stamp, "parent", [parent]) == []
    assert run.nondeterministic_files("lattice", 0, stamp, "child", [changed]) == []
    assert run.nondeterministic_files("lattice", 0, stamp, "parent", [parent]) == []
    assert run.nondeterministic_files("lattice", 0, stamp, "child", [parent]) == \
        ["entropy-scan_S_vs_L.csv"]


def test_source_digest_follows_package_sources(monkeypatch, tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    module = tmp_path / "src" / "pkg" / "a.py"
    module.write_text("x = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    before = run.source_digest()
    assert run.source_digest() == before
    module.write_text("x = 2\n")
    assert run.source_digest() != before


def test_min_headroom_is_finite_and_positive_at_parent(traced_passes):
    for result in traced_passes.values():
        assert 0 < result.headroom < math.inf


def test_seed_zero_compares_default_inputs_with_verify_all(monkeypatch):
    monkeypatch.setattr(run, "RUNS", _scratch("parallel-digests"))
    stamp = {"nproc": 2}
    parallel = run.Pass(digests={"entropy-scan_S_vs_L.csv": "p",
                                 "crossing_formfactor_grid.csv": "p"})
    assert run.nondeterministic_files("verify-all", 3, stamp, "src", [parallel]) == []
    enlarged = run.Pass(digests={"crossing_formfactor_grid.csv": "w"})
    assert run.nondeterministic_files("wedge", 0, stamp, "src", [enlarged]) == []
    serial = run.Pass(digests={"entropy-scan_S_vs_L.csv": "s"})
    assert run.nondeterministic_files("lattice", 0, stamp, "src", [serial]) == \
        ["entropy-scan_S_vs_L.csv"]


def _run_lines(stamp, wall):
    info = {"workload": "wedge", "seed": 1, "trace": 0, "stamp": stamp,
            "source": "src", "samples": {"passes": 3, "setup_s": 12}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    return f"{json.dumps(info)}\n{json.dumps(result)}\n"


def test_compare_refuses_runs_with_different_stamps(tmp_path, capsys):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(_run_lines({"nproc": 2}, 7.0) + _run_lines({"nproc": 2}, 7.2))
    second.write_text(_run_lines({"nproc": 2}, 7.1))
    assert compare.main([str(first), str(second)]) == 0
    assert "wall_s" in capsys.readouterr().out
    second.write_text(_run_lines({"nproc": 4}, 7.1))
    assert compare.main([str(first), str(second)]) == 1
    assert "wall_s" not in capsys.readouterr().out
