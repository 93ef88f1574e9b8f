"""Run one modloc-lab command in this process, optionally traced.

    python3 perfbench/tracer.py INFO.json [--trace] -- <modloc-lab arguments>

Imports ``modloc_lab.cli_bench.main``, notes the monotonic time right after
the import, runs the CLI's ``main`` and, when it returns, writes INFO.json:
``imported`` (that time), ``libs`` (library versions for the environment
stamp), ``wall_s`` (the CLI's own run time) and ``spans``.  The exit code is
the CLI's.  Every child of the benchmark runs through this file, so set-up
time is read from every sample.

With ``--trace`` the public functions of each layer are wrapped first.  A
wrapper is installed at every module attribute that holds the function,
because callers import by name (``gl_nodes`` into four modules,
``write_csv`` into ``suites``), so calls made inside a layer are caught as
well as calls made into it.

Each thread keeps its own span stack, so self times stay correct when
``verify-all --parallel`` runs suites in threads.  A span is
``[label, thread, start, end, self_s, nested, value]``: ``self_s`` is the
span's duration minus the spans it caused on the same thread, ``nested``
marks a call made while the same label was already open on the thread
(its time is already inside the outer call), and ``value`` is the probe
reading below, or null.  Spans stay in memory until the run ends.
"""

import functools
import json
import os
import sys
import threading
import time

# layer -> public functions traced; span labels are "<layer>.<function>".
LAYERS = {
    "gaussian_core": ("build_vacuum_state", "build_thermal_state",
                      "symplectic_spectrum", "interval_entropy", "entropy_scan",
                      "thermal_interval_entropies"),
    "chiral_ej": ("energy_variance", "smeared_current_variance",
                  "current_variance_spectral", "ej_compare", "verify_isomorphism",
                  "entropy_relation_check"),
    "charge_fluct": ("charge_variance", "charge_variance_lattice", "ftilde_radial",
                     "scaling_fit", "global_charge_limit"),
    "quadrature": ("gauss_legendre", "gl_nodes", "filon_cos_sin"),
    "wedge_kms": ("pullback", "detailed_balance", "spectral_function"),
    "crossing_zf": ("free_crossing_check", "mass_shell_restrict", "kms_free_identity",
                    "zf_apply", "zf_exchange_check", "zf_associativity_check"),
}


def _suite_label(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return f"cli_bench.suite.{cfg.experiment}"


def _gl_order(args, kwargs, result):
    return args[0] if args else kwargs["n"]


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(result[0])


# (module, attribute) -> (label or label(args, kwargs), probe(args, kwargs, result))
def _targets():
    targets = {(f"modloc_lab.{layer}", fn): (f"{layer}.{fn}", None)
               for layer, fns in LAYERS.items() for fn in fns}
    targets[("modloc_lab.quadrature", "gauss_legendre")] = (
        "quadrature.gauss_legendre", _gl_order)
    targets[("modloc_lab.cli_bench.suites", "run_experiment")] = (_suite_label, None)
    targets[("modloc_lab.cli_bench.suites", "verify_all")] = ("cli_bench.verify_all", None)
    targets[("modloc_lab.cli_bench.manifest", "write_csv")] = (
        "cli_bench.write_csv", _csv_bytes)
    return targets


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, fn, label, probe=None):
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            name = label(args, kwargs) if callable(label) else label
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            value = probe(args, kwargs, result) if probe else None
            spans.append((name, threading.get_ident(), start, end,
                          end - start - frame[1], nested, value))
            return result

        return traced

    def install(self):
        """Replace each target at every ``modloc_lab`` module attribute that
        holds it, and ``RunManifest.write`` on its class."""
        import modloc_lab.cli_bench.main  # noqa: F401  loads every layer
        from modloc_lab.cli_bench.manifest import RunManifest

        modules = [m for name, m in list(sys.modules.items())
                   if name == "modloc_lab" or name.startswith("modloc_lab.")]
        for (module, attr), (label, probe) in _targets().items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(original, label, probe)
            for m in modules:
                for name in [n for n, v in vars(m).items() if v is original]:
                    setattr(m, name, wrapper)
        RunManifest.write = self.wrap(RunManifest.write, "cli_bench.manifest_write")


def summarize(span_lists):
    """{label: {"calls", "s", "self_s", "values"}} over spans of any number
    of processes.  ``s`` counts only outermost calls of a label."""
    stats = {}
    for spans in span_lists:
        for label, _thread, start, end, self_s, nested, value in spans:
            st = stats.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "values": []})
            st["calls"] += 1
            st["self_s"] += self_s
            if not nested:
                st["s"] += end - start
            if value is not None:
                st["values"].append(value)
    return stats


def library_versions():
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown")}


def main(argv):
    traced = argv[1:2] == ["--trace"]
    rest = argv[2:] if traced else argv[1:]
    if not argv or rest[:1] != ["--"] or len(rest) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_argv = argv[0], rest[1:]
    from modloc_lab.cli_bench.main import main as cli_main
    imported = time.monotonic()
    tracer = Tracer()
    if traced:
        tracer.install()

    start = time.perf_counter()
    try:
        return cli_main(cli_argv)
    finally:
        payload = {"imported": imported, "libs": library_versions(),
                   "wall_s": time.perf_counter() - start, "spans": tracer.spans}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
