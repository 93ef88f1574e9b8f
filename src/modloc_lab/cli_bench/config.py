"""Experiment configuration: an INI file with one section per experiment,
flat key = value lines (diff-friendly).  Unknown keys are rejected with
field-level messages."""

import configparser
import math
from pathlib import Path
from typing import NamedTuple

from ..chiral_ej import CALIBRATION_SITES
from ..errors import ConfigurationError


def _list(entry, min_len, name_format=None):
    """Converter for a comma-separated list of numbers with at least
    min_len distinct entries, so that a short or repeated list cannot drop
    its checks or make a fit vacuous.  Where each entry names records, by
    its text in name_format, no two entries may give one name."""
    def conv(s):
        vals = tuple(entry(tok) for tok in s.split(",") if tok.strip())
        distinct = len(set(vals))
        if distinct < min_len:
            raise ValueError(
                f"got {distinct} distinct entries, needs at least {min_len}")
        texts = [format(v, name_format) for v in vals] if name_format else []
        for i, text in enumerate(texts):
            if texts.index(text) < i:
                raise ValueError(f"entries {vals[texts.index(text)]!r} and "
                                 f"{vals[i]!r} both name records {text!r}")
        return vals
    return conv


def _open(lo, hi):
    """Closed bounds that admit exactly the floats inside (lo, hi)."""
    return (math.nextafter(lo, hi), math.nextafter(hi, lo))


_POSITIVE = _open(0.0, math.inf)

MAX_SITES = 4096  # largest dense lattice chain

# key -> (converter, default, (lo, hi) or None); a list key's bounds apply
# to each of its entries.  The keys choose a check's inputs only: each
# pass/fail bound is a constant of its check in suites.py.
_SCHEMAS = {
    "ej-fluct": {
        # below beta ~ 0.6 the exp-mapped smearing outruns the fixed
        # quadrature rules (beta = 0.5: estimate 3.9e-6 against rtol 1e-7)
        "beta": (float, 6.283185307179586, (0.7, 1e3)),
    },
    "thermal-map": {
        # below beta ~ 0.0174 the transported vacuum kernel on the
        # u in [0.02, 0.98] grid overflows; above beta ~ 1e153 the squared
        # image differences underflow and the defect reads NaN
        "betas": (_list(float, 1, "g"), (1.0, 6.283185307179586), (0.02, 1e100)),
        # in row_blocks: the suite peaks at 34.7 MiB at the cap
        "grid_n": (int, 100, (4, 100000)),
    },
    "entropy-scan": {
        # a chain is held as two N-entry columns; its full spectrum is solved
        # in four N/4 x N/4 blocks, 8 MiB each at MAX_SITES.
        # n_sites = purity_sizes = 4096 runs in about 1.1 s at 61 MiB peak
        # on a 2-core desk machine (0.8 s with OPENBLAS_NUM_THREADS=2)
        "n_sites": (int, 2000, (64, MAX_SITES)),
        "lengths": (_list(int, 4), (8, 16, 32, 64, 128, 256), None),
        "thermal_n_sites": (int, 1200, (64, MAX_SITES)),
        "thermal_beta": (float, 6.283185307179586, (1e-3, 1e3)),
        "thermal_lengths": (_list(int, 4), (40, 80, 120, 160, 200, 240), None),
        "purity_sizes": (_list(int, 1, "d"), (512, 2048), (2, MAX_SITES)),
        "eps_values": (_list(float, 4), (1.0, 0.5, 0.25, 0.125), _POSITIVE),
        "eps_interval": (int, 48, (8, MAX_SITES)),
    },
    "charge-scaling": {
        # the 320-point pair kernel's F is 3.0e-5 off a 1280-point one at
        # the default mass, 3.3e-5 at 1e-7 and 2.2e-4 at the cap; below the
        # floor the error keeps growing with the kernel grid's log step
        # (1.7e-4 at 1e-30, 3e-3 at 1e-300, where the kernel misses I(k) by
        # up to 98 %)
        "n2_mass": (float, 1e-6, (1e-7, 100.0)),
        "n2_ratio_lo": (float, 1.2e4, (1.0, 1e9)),
        "n2_ratio_hi": (float, 1.2e5, (1.0, 1e9)),
        "n2_samples": (int, 8, (6, 64)),
    },
    "unruh": {
        # detailed balance reads 1e-9 to 1e-8 from a = 1e-150 to 1e153;
        # below that the proper-time grid loses its digits (1.6e-5 at
        # 1e-155, a numeric error at 1e-160), and above it a**2 overflows
        "accelerations": (_list(float, 1, "g"), (0.5, 1.0, 2.0), (1e-100, 1e100)),
    },
    "crossing": {
        # the engine works at mass 1, lengths in Compton wavelengths: any
        # other mass only rescales the boxes.  The key stays only because
        # the benchmark's wedge config names it, and goes with that config
        # entry (ROADMAP item 4)
        "mass": (float, 1.0, (1.0, 1.0)),
        # in row_blocks: the suite peaks at 35.4 MiB at the cap (40 000 CSV rows)
        "grid_n": (int, 20, (4, 200)),
    },
    "zf-algebra": {
        "couplings": (_list(float, 1, "g"), (0.3, 1.0, 2.5), _open(0.0, math.pi)),
        # the suite's in/out sequence creates four particles before it
        # annihilates one, so a k_max below 4 fails truncation-leakage
        "k_max": (int, 4, (4, 6)),
    },
}

EXPERIMENTS = tuple(_SCHEMAS)


class ExperimentConfig(NamedTuple):
    experiment: str
    params: dict

    def __getitem__(self, key):
        return self.params[key]


def _coerce(experiment, raw):
    schema = _SCHEMAS[experiment]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigurationError(
            f"[{experiment}] unknown keys: {', '.join(unknown)}; "
            f"expected: {', '.join(sorted(schema))}"
        )
    params = {}
    for key, (conv, default, bounds) in schema.items():
        if key in raw:
            try:
                val = conv(raw[key])
            except ValueError as exc:
                raise ConfigurationError(f"[{experiment}] {key}: {exc}") from None
        else:
            val = default
        entries = val if isinstance(val, tuple) else (val,)
        if bounds is not None and not all(bounds[0] <= v <= bounds[1]
                                          for v in entries):
            raise ConfigurationError(
                f"[{experiment}] {key} = {val} outside {bounds}"
            )
        params[key] = val
    if experiment == "entropy-scan":
        # every interval the suite reads must fit its chain.  entropy_scan
        # reads L sites at attenuation eps as round(L/eps) sites, and resolves
        # an interval only from 2 sites up; the eps scan reads eps_interval
        # sites of the n_sites chain, and entropy_relation_check reads its
        # CALIBRATION_SITES interval on the thermal_n_sites chain at every
        # eps.  A vacuum interval must also be shorter than its chain: the
        # whole chain is pure, so its entropy is 0 and no fit can include it.
        # The Gibbs state is mixed, so a thermal length may equal its chain.
        eps = params["eps_values"]
        for key, sites, lo, limit, pure in (
                ("lengths", params["lengths"], 2, "n_sites", True),
                ("thermal_lengths", params["thermal_lengths"], 1, "thermal_n_sites",
                 False),
                ("eps_interval", (params["eps_interval"],), 2, "n_sites", True),
                ("round(eps_interval / eps_values)",
                 [round(params["eps_interval"] / e) for e in eps], 2, "n_sites", True),
                (f"round({CALIBRATION_SITES} / eps_values)",
                 [round(CALIBRATION_SITES / e) for e in eps], 2,
                 "thermal_n_sites", True)):
            hi = params[limit] - pure
            bad = [L for L in sites if not lo <= L <= hi]
            if bad:
                why = "; a vacuum interval must be shorter than its chain" if pure else ""
                raise ConfigurationError(
                    f"[{experiment}] {key} entries {bad} outside [{lo}, {hi}] "
                    f"({limit} = {params[limit]}{why})"
                )
    if experiment == "charge-scaling":
        # scaling_fit needs the R/dR samples to span at least one decade
        lo, hi = sorted((params["n2_ratio_lo"], params["n2_ratio_hi"]))
        if hi / lo < 10.0 - 1e-9:
            raise ConfigurationError(
                f"[{experiment}] n2_ratio_lo and n2_ratio_hi span a factor "
                f"{hi / lo:.4g} in R/dR; the fit needs at least 10"
            )
    return params


def load_config(experiment, path=None):
    """Defaults when no file is given; otherwise the file's INI section for
    this experiment is parsed."""
    if experiment not in _SCHEMAS:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"config parse error: {exc}") from None
        if experiment not in cp:
            raise ConfigurationError(f"config has no [{experiment}] section")
        raw = dict(cp[experiment])
        if not raw:
            raise ConfigurationError(
                f"[{experiment}] parameter block is empty; expected keys: "
                f"{', '.join(sorted(_SCHEMAS[experiment]))}"
            )
    return ExperimentConfig(experiment, _coerce(experiment, raw))
