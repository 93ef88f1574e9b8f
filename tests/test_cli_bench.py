import json

import pytest

from modloc_lab.cli_bench import config as cbc
from modloc_lab.cli_bench import plots
from modloc_lab.cli_bench.main import main
from modloc_lab.cli_bench.manifest import RunManifest, check_less, unverified
from modloc_lab.cli_bench.suites import run_experiment, verify_all
from modloc_lab.errors import ConfigurationError


def test_defaults_load():
    for name in cbc.EXPERIMENTS:
        cfg = cbc.load_config(name)
        assert cfg.experiment == name
        assert cfg.params


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[thermal-map]\nbogus = 1\n")
    with pytest.raises(ConfigurationError, match="bogus"):
        cbc.load_config("thermal-map", p)


def test_empty_block_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[thermal-map]\n")
    with pytest.raises(ConfigurationError, match="empty"):
        cbc.load_config("thermal-map", p)


def test_bounds_checked(tmp_path):
    p = tmp_path / "c.ini"
    # a scalar key is bounded by its range, a list key entry by entry by
    # its engine's domain
    for suite, key, value in (
        ("thermal-map", "grid_n", "1"),
        ("thermal-map", "betas", "1.0, 0"),
        ("unruh", "accelerations", "0"),
        ("zf-algebra", "couplings", "0.3, 3.2"),
        ("entropy-scan", "eps_values", "1, 0.5, 0.25, -0.125"),
        ("entropy-scan", "purity_sizes", "512, 1"),
        # site counts are integers, never cut to one
        ("entropy-scan", "lengths", "8, 8.2, 8.3, 8.4"),
        ("entropy-scan", "purity_sizes", "64.7"),
    ):
        p.write_text(f"[{suite}]\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=key):
            cbc.load_config(suite, p)


def test_json_config(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"thermal-map": {"grid_n": 25}}))
    cfg = cbc.load_config("thermal-map", p)
    assert cfg["grid_n"] == 25
    assert cfg["tol"] == 1e-10      # defaults fill the rest
    p.write_text(json.dumps({"thermal-map": {"betas": [1.0, 2.0]}}))
    assert cbc.load_config("thermal-map", p)["betas"] == (1.0, 2.0)


def test_unknown_experiment():
    with pytest.raises(ConfigurationError):
        cbc.load_config("no-such-suite")


def test_thermal_map_suite_end_to_end(tmp_path):
    cfg = cbc.load_config("thermal-map")
    man = run_experiment(cfg, tmp_path)
    assert man.passed
    assert (tmp_path / "thermal-map_manifest.json").exists()
    payload = json.loads((tmp_path / "thermal-map_manifest.json").read_text())
    assert payload["passed"] is True
    assert all(r["verdict"] in ("pass", "fail", "unverified-by-design")
               for r in payload["records"])
    # every emitted file is digested
    for fname in payload["files"]:
        assert (tmp_path / fname).exists()
    # manifest completeness: one record per named claim, names unique
    names = [r["name"] for r in payload["records"]]
    assert len(names) == len(set(names))


def test_exit_codes(tmp_path):
    out = str(tmp_path / "runs")
    assert main(["thermal-map", "--out", out]) == 0
    bad = tmp_path / "bad.ini"
    bad.write_text("[thermal-map]\nnope = 2\n")
    assert main(["thermal-map", "--config", str(bad), "--out", out]) == 2
    failing = tmp_path / "failing.ini"
    failing.write_text("[thermal-map]\ntol = 1e-22\n")
    assert main(["thermal-map", "--config", str(failing), "--out", out]) == 1
    assert main(["emit-plots", str(tmp_path / "missing")]) == 3
    # unreadable or malformed files, and list keys that would pass vacuously
    for suite, text in (
        ("thermal-map", None),                               # missing file
        ("thermal-map", '{"thermal-map": {"grid_n": 25'),    # malformed JSON
        ("thermal-map", '{"thermal-map": [1]}'),             # block not an object
        ("thermal-map", "[thermal-map]\nbetas =\n"),
        ("unruh", "[unruh]\naccelerations =\n"),
        ("zf-algebra", "[zf-algebra]\ncouplings =\n"),
        ("entropy-scan", "[entropy-scan]\nlengths = 64\n"),
        ("entropy-scan", "[entropy-scan]\nthermal_n_sites = 64\n"
                         "thermal_lengths = 40, 80, 120, 160\n"),
        ("entropy-scan", "[entropy-scan]\nlengths = 8, 8, 8, 8\n"),
        ("entropy-scan", "[entropy-scan]\nlengths = 8, 8.2, 8.3, 8.4\n"),
        ("entropy-scan", "[entropy-scan]\npurity_sizes = 64.7\n"),
        # entries outside the engine's domain, rejected before any scan runs
        ("unruh", "[unruh]\naccelerations = 0\n"),
        ("thermal-map", "[thermal-map]\nbetas = 0\n"),
        ("zf-algebra", "[zf-algebra]\ncouplings = 0\n"),
        ("entropy-scan", "[entropy-scan]\neps_values = 1, 0.5, 0.25, 0\n"),
        ("entropy-scan", "[entropy-scan]\npurity_sizes = 1\n"),
    ):
        path = tmp_path / "case.cfg"
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text)
        assert main([suite, "--config", str(path), "--out", out]) == 2, text
    # flags that used to be parsed and ignored are rejected by argparse
    for argv in (["thermal-map", "--parallel", "7", "--out", out],
                 ["verify-all", "--only", "thermal-map", "--config", str(failing),
                  "--out", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_strict_profile(tmp_path):
    assert main(["thermal-map", "--strict", "--out", str(tmp_path)]) == 0


def test_modloc_out_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("MODLOC_OUT", str(target))
    assert main(["thermal-map", "--out", str(tmp_path / "ignored")]) == 0
    assert (target / "thermal-map_manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(cbc.load_config("zf-algebra"), a)
    run_experiment(cbc.load_config("zf-algebra"), b)
    fa = (a / "zf-algebra_defects.csv").read_bytes()
    fb = (b / "zf-algebra_defects.csv").read_bytes()
    assert fa == fb


def test_emit_plots(tmp_path):
    run_experiment(cbc.load_config("thermal-map"), tmp_path)
    run_experiment(cbc.load_config("zf-algebra"), tmp_path)
    written = plots.emit_plots(tmp_path)
    names = {p.name for p in written}
    assert "thermal-map_defect_vs_beta.dat" in names
    assert "zf-algebra_defects_vs_coupling.dat" in names
    text = (tmp_path / "zf-algebra_defects_vs_coupling.dat").read_text()
    assert text.startswith("#")


def test_verify_all_subset_and_parallel(tmp_path):
    agg = verify_all(tmp_path, parallel=2, only=["thermal-map", "zf-algebra"])
    assert agg.passed
    assert (tmp_path / "verify-all_manifest.json").exists()
    names = [r.name for r in agg.records]
    assert any(n.startswith("thermal-map/") for n in names)
    assert any(n.startswith("zf-algebra/") for n in names)
    # suite order in the aggregate is by the requested list, not schedule
    first_zf = names.index(next(n for n in names if n.startswith("zf-")))
    assert all(not n.startswith("zf-") for n in names[:first_zf])


def test_verify_all_serial_matches_parallel(tmp_path):
    only = ["thermal-map", "crossing", "zf-algebra"]
    serial = verify_all(tmp_path / "serial", parallel=1, only=only)
    threaded = verify_all(tmp_path / "parallel", parallel=2, only=only)
    assert [r.name for r in serial.records] == [r.name for r in threaded.records]
    csvs = sorted(p.name for p in (tmp_path / "serial").glob("*.csv"))
    assert csvs == sorted(p.name for p in (tmp_path / "parallel").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes()), name


def test_manifest_verdict_logic():
    man = RunManifest("demo", {})
    man.extend([check_less("a", 1.0, 2.0), unverified("b", "by design")])
    assert man.passed
    man.extend([check_less("c", 3.0, 2.0)])
    assert not man.passed
