"""Seeded workloads of the modloc-lab benchmark.

A workload is a list of CLI invocations plus the config file they read.
Seed 0 reproduces the package defaults (and, for ``wedge``, the enlarged
sizes below); any other seed perturbs values only, never list lengths or
grid sizes, so the amount of work stays the same across seeds.

The set of check records each suite must emit under the generated config
is defined here, not read back from the run: a record the run does not
emit counts as failed.
"""

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple      # argv tails for ``modloc-lab``; "--config" gets the file
    config: str          # INI text of the generated config, "" for none
    expected: dict       # suite -> frozenset of record names it must emit


def _jitter(rng, seed, values, lo, hi):
    """Multiply each value by a factor drawn from [lo, hi], rounded to five
    significant digits so the INI text, the parsed float and the ``:g``
    record names agree exactly.  Seed 0 leaves the values unchanged."""
    if seed == 0:
        return tuple(values)
    return tuple(float(f"{v * rng.uniform(lo, hi):.5g}") for v in values)


def _ini(sections):
    lines = []
    for name, params in sections.items():
        lines.append(f"[{name}]")
        for key, val in params.items():
            text = ", ".join(map(repr, val)) if isinstance(val, tuple) else repr(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------- expected

def _expected_thermal_map(p):
    return ([f"thermal-map/kernel-defect/beta={b:g}" for b in p["betas"]]
            + ["thermal-map/image-interval", "thermal-map/kms-periodicity",
               "thermal-map/image-sum"])


def _expected_ej_fluct(p):
    return ([f"ej-fluct/energy-variance-match/geometry-{i}" for i in range(3)]
            + ["ej-fluct/current-route-agreement", "ej-fluct/translation-covariance",
               "ej-fluct/kernel-positivity", "ej-fluct/moebius-rotation-law"])


def _expected_entropy_scan(p):
    names = ["log-fit-r2", "log-slope", "log-slope-per-chirality",
             "restriction-impurity", "eps-fit-r2", "eps-slope", "thermal-fit-r2",
             "thermal-slope", "thermal-slope-per-chirality", "calibration-ratio",
             "thermal-limit"]
    for size in p["purity_sizes"]:
        names += [f"vacuum-purity/n={int(size)}", f"uncertainty-bound/n={int(size)}"]
    return [f"entropy-scan/{n}" for n in names]


def _expected_charge_scaling(p):
    names = ["n2-log-flag", "n2-log-r2", "n2-power-exponent", "n3-exponent-error",
             "n4-exponent-error", "lattice-oracle-agreement", "mass-monotonicity",
             "global-limit-final", "global-limit-monotone", "conservation-t-shift"]
    for dim, power in ((3, 1), (4, 2)):
        names += [f"area-law/n={dim}/S ~ (R/dR)^{power} ln(1/eps)",
                  f"area-law/n={dim}/S ~ (R/dR)^{power}  (strict area, brickwall)"]
    return [f"charge-scaling/{n}" for n in names]


def _expected_unruh(p):
    return ([f"unruh/detailed-balance/a={a:g}" for a in p["accelerations"]]
            + [f"unruh/{n}" for n in (
                "negative-control", "hermiticity", "detailed-balance-d2-current",
                "thermal-spectrum-positive", "kms-strip-chiral",
                "boost-stationarity", "massive-massless-limit")])


def _expected_crossing(p):
    return ([f"crossing/free-crossing/geometry-{i}" for i in range(3)]
            + [f"crossing/{n}" for n in (
                "strip-cauchy-riemann", "modular-involution", "left-wedge-control",
                "kms-identity", "kms-crossing-consistency", "interacting-crossing")])


def _expected_zf_algebra(p):
    names = []
    for b in p["couplings"]:
        names += [f"zf-algebra/{n}/b={b:g}" for n in (
            "smatrix-unitarity", "smatrix-inverse", "smatrix-crossing",
            "exchange", "double-exchange", "associativity")]
    return names + ["zf-algebra/s-at-zero", "zf-algebra/truncation-leakage"]


# Package defaults of the list-valued keys that name records.
_DEFAULTS = {
    "thermal-map": {"betas": (1.0, TWO_PI)},
    "ej-fluct": {},
    "entropy-scan": {"purity_sizes": (512, 2048)},
    "charge-scaling": {},
    "unruh": {"accelerations": (0.5, 1.0, 2.0)},
    "crossing": {},
    "zf-algebra": {"couplings": (0.3, 1.0, 2.5)},
}

_EXPECTED = {
    "thermal-map": _expected_thermal_map,
    "ej-fluct": _expected_ej_fluct,
    "entropy-scan": _expected_entropy_scan,
    "charge-scaling": _expected_charge_scaling,
    "unruh": _expected_unruh,
    "crossing": _expected_crossing,
    "zf-algebra": _expected_zf_algebra,
}

SUITES = tuple(_EXPECTED)


def _expected(sections):
    return {suite: frozenset(_EXPECTED[suite]({**_DEFAULTS[suite], **params}))
            for suite, params in sections.items()}


def _single_suites(name, sections):
    return Workload(name, tuple((suite,) for suite in sections),
                    _ini(sections), _expected(sections))


# --------------------------------------------------------------- workloads

def lattice(seed):
    """entropy-scan: dense eigh state builds and symplectic spectra.

    ``thermal_beta`` stays at 2 pi: at beta = 6.6347 the parent's dense
    thermal build on the IR-regulated chain returns a symplectic eigenvalue
    below 1/2 and the suite stops with a numeric error."""
    rng = random.Random(seed)
    lengths = _jitter(rng, seed, (8, 16, 32, 64, 128, 256), 0.9, 1.1)
    thermal = (40, 80, 120, 160, 200, 240)
    if seed:
        thermal = tuple(L + rng.randint(-8, 8) for L in thermal)
    return _single_suites("lattice", {"entropy-scan": {
        "lengths": tuple(int(round(L)) for L in lengths),
        "thermal_beta": TWO_PI,
        "thermal_lengths": thermal,
        "eps_values": _jitter(rng, seed, (1.0, 0.5, 0.25, 0.125), 0.9, 1.1),
    }})


def continuum(seed):
    """ej-fluct + charge-scaling: the Python/NumPy quadrature engines.

    ej-fluct ``beta`` stays at its default: its cost depends on it (beta=3
    runs 11.3 s, beta=12 runs 3.6 s), and the suite has no other value
    that is not a tolerance."""
    rng = random.Random(seed)
    mass, = _jitter(rng, seed, (1e-6,), 0.5, 2.0)
    lo, = _jitter(rng, seed, (1.2e4,), 0.92, 1.0)
    hi, = _jitter(rng, seed, (1.2e5,), 1.0, 1.08)
    return _single_suites("continuum", {
        "ej-fluct": {"beta": TWO_PI},
        "charge-scaling": {"n2_mass": mass, "n2_ratio_lo": lo, "n2_ratio_hi": hi},
    })


def wedge(seed):
    """thermal-map, unruh, crossing and zf-algebra at enlarged sizes.

    crossing keeps ``mass = 1``: with mass 0.7 and grid_n 200 the
    kms-crossing-consistency check fails, so the mass is not a free value."""
    rng = random.Random(seed)
    return _single_suites("wedge", {
        "thermal-map": {
            "betas": _jitter(rng, seed, (0.5, 1.0, 2.0, math.pi, TWO_PI, 12.0), 0.9, 1.1),
            "grid_n": 20000,
        },
        "unruh": {"accelerations": _jitter(
            rng, seed, (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0), 0.95, 1.05)},
        "crossing": {"mass": 1.0, "grid_n": 120},
        "zf-algebra": {"couplings": _jitter(rng, seed, (0.3, 1.0, 2.5), 0.9, 1.1),
                       "k_max": 6},
    })


def verify_all(seed):
    """verify-all --parallel 2 at defaults.  verify-all ignores --config, so
    the seed cannot reach it and every seed runs the same inputs."""
    return Workload("verify-all", (("verify-all", "--parallel", "2"),), "",
                    _expected({suite: {} for suite in SUITES}))


WORKLOADS = {
    "lattice": lattice,
    "continuum": continuum,
    "wedge": wedge,
    "verify-all": verify_all,
}


def suites_of(command):
    """The suites one command runs, in the order they report."""
    return SUITES if command[0] == "verify-all" else (command[0],)
