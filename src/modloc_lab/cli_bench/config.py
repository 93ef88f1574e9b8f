"""Experiment configuration: flat key = value text with a section header
(diff-friendly), JSON accepted as an alternative.  Unknown keys are
rejected with field-level messages."""

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError


def _integer(tok):
    """A site count: '8.2' (or 8.2 in JSON) raises instead of becoming 8."""
    return int(str(tok))


def _list(entry, min_len):
    """Converter for a list of numbers (a JSON array or a comma-separated
    string) with at least min_len distinct entries, so that a short or
    repeated list cannot drop its checks or make a fit vacuous."""
    def conv(s):
        toks = s if isinstance(s, (list, tuple)) else str(s).split(",")
        vals = tuple(entry(tok) for tok in toks if str(tok).strip())
        distinct = len(set(vals))
        if distinct < min_len:
            raise ValueError(
                f"got {distinct} distinct entries, needs at least {min_len}")
        return vals
    return conv


def _open(lo, hi):
    """Closed bounds that admit exactly the floats inside (lo, hi)."""
    return (math.nextafter(lo, hi), math.nextafter(hi, lo))


_POSITIVE = _open(0.0, math.inf)

# key -> (converter, default, (lo, hi) or None); a list key's bounds apply
# to each of its entries
_SCHEMAS = {
    "ej-fluct": {
        "beta": (float, 6.283185307179586, (1e-3, 1e3)),
        "tol_rel_diff": (float, 1e-6, (0.0, 1.0)),
        "rtol": (float, 1e-7, (0.0, 1.0)),
    },
    "thermal-map": {
        "betas": (_list(float, 1), (1.0, 6.283185307179586), _POSITIVE),
        "grid_n": (int, 100, (4, 100000)),
        "tol": (float, 1e-10, (0.0, 1.0)),
    },
    "entropy-scan": {
        "n_sites": (int, 2000, (64, 100000)),
        "lengths": (_list(_integer, 4), (8, 16, 32, 64, 128, 256), None),
        "tol_r2": (float, 0.995, (0.0, 1.0)),
        "thermal_n_sites": (int, 1200, (64, 100000)),
        "thermal_beta": (float, 6.283185307179586, (1e-3, 1e3)),
        "thermal_lengths": (_list(_integer, 4), (40, 80, 120, 160, 200, 240), None),
        "thermal_tol_r2": (float, 0.99, (0.0, 1.0)),
        "purity_sizes": (_list(_integer, 1), (512, 2048), (2, 100000)),
        "purity_tol": (float, 1e-8, (0.0, 1.0)),
        "eps_values": (_list(float, 4), (1.0, 0.5, 0.25, 0.125), _POSITIVE),
        "eps_interval": (int, 48, (8, 100000)),
    },
    "charge-scaling": {
        "n2_mass": (float, 1e-6, (0.0, 100.0)),
        "n2_ratio_lo": (float, 1.2e4, (1.0, 1e9)),
        "n2_ratio_hi": (float, 1.2e5, (1.0, 1e9)),
        "n2_samples": (int, 8, (6, 64)),
        "n2_tol_exponent": (float, 0.1, (0.0, 10.0)),
        "n2_tol_r2": (float, 0.999, (0.0, 1.0)),
        "n34_tol_exponent": (float, 0.1, (0.0, 10.0)),
        "oracle_tol": (float, 0.03, (0.0, 1.0)),
        "limit_tol": (float, 1e-3, (0.0, 1.0)),
    },
    "unruh": {
        "accelerations": (_list(float, 1), (0.5, 1.0, 2.0), _POSITIVE),
        "tol_balance": (float, 1e-3, (0.0, 10.0)),
        "control_min_defect": (float, 0.5, (0.0, 100.0)),
        "tol_strip": (float, 1e-10, (0.0, 1.0)),
        "tol_stationarity": (float, 1e-10, (0.0, 1.0)),
    },
    "crossing": {
        "mass": (float, 1.0, (1e-6, 1e3)),
        "grid_n": (int, 20, (4, 200)),
        "tol_crossing": (float, 1e-6, (0.0, 1.0)),
        "tol_cr_residual": (float, 1e-8, (0.0, 1.0)),
        "tol_involution": (float, 1e-8, (0.0, 1.0)),
        "tol_kms": (float, 1e-6, (0.0, 1.0)),
    },
    "zf-algebra": {
        "couplings": (_list(float, 1), (0.3, 1.0, 2.5), _open(0.0, math.pi)),
        "tol_smatrix": (float, 1e-12, (0.0, 1.0)),
        "tol_exchange": (float, 1e-10, (0.0, 1.0)),
        "tol_double": (float, 1e-12, (0.0, 1.0)),
        "tol_associativity": (float, 1e-10, (0.0, 1.0)),
        "tol_leak": (float, 1e-8, (0.0, 1.0)),
        "k_max": (int, 4, (2, 6)),
    },
}

EXPERIMENTS = tuple(_SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    strict: bool = False

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
            except (TypeError, ValueError) as exc:
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
        for key, limit in (("lengths", "n_sites"),
                           ("thermal_lengths", "thermal_n_sites")):
            bad = [L for L in params[key] if not 1 <= L <= params[limit]]
            if bad:
                raise ConfigurationError(
                    f"[{experiment}] {key} entries {bad} outside "
                    f"[1, {limit} = {params[limit]}]"
                )
    return params


def load_config(experiment, path=None, strict=False):
    """Defaults when no file is given; otherwise the file's section for this
    experiment is parsed (INI key = value, or JSON)."""
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
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: malformed JSON: {exc}") from None
            raw = doc.get(experiment, doc if set(doc) <= set(_SCHEMAS[experiment]) else None)
            if raw is None:
                raise ConfigurationError(
                    f"JSON config {path} has no block for {experiment!r}"
                )
            if not isinstance(raw, dict):
                raise ConfigurationError(
                    f"{path}: [{experiment}] block is a {type(raw).__name__}, "
                    f"not an object"
                )
        else:
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
    return ExperimentConfig(experiment, _coerce(experiment, raw), strict=strict)
