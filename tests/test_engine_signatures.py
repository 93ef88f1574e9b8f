"""Engine functions take inputs only: quadrature orders, grids, ramps and
thresholds are constants of their modules.  Each public signature below is
pinned, so such a value cannot come back as a keyword parameter, and every
function the benchmark tracer wraps by name must still exist under that name.
The few defaulted parameters left are listed by name, so no setting that
every caller leaves at one value can come back as a default either."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
ENGINES = ROOT / "src" / "modloc_lab"

SIGNATURES = {
    "wedge_kms.detailed_balance": ("corr", "beta"),
    "wedge_kms.spectral_function": ("corr", "omegas"),
    "wedge_kms.boost_orbit_consistency": ("acceleration",),
    "crossing_zf.WedgeTestFn": ("center_t", "center_x", "half_width_t",
                                "half_width_x", "amplitude"),
    "crossing_zf.free_crossing_check": ("g", "thetas1", "thetas2"),
    "crossing_zf.mass_shell_restrict": ("f",),
    "crossing_zf.kms_free_identity": ("g", "f1", "f2"),
    "crossing_zf.smatrix_properties": ("S",),
    "crossing_zf.zf_vacuum": ("n_grid", "k_max"),
    "crossing_zf.zf_apply": ("op", "packet", "state", "S"),
    "chiral_ej.thermal_image_sum": ("kernel", "u", "uprime"),
    "chiral_ej.smeared_current_variance": ("f", "kernel"),
    "chiral_ej.energy_variance": ("f", "kernel"),
    "chiral_ej.ej_compare": ("f", "beta"),
    "chiral_ej.verify_isomorphism": ("imap", "grid"),
    "chiral_ej.entropy_relation_check": ("L_values", "eps_values", "n_sites",
                                         "beta"),
    "gaussian_core.reduce_state": ("state", "length"),
    "gaussian_core.interval_entropy": ("state", "length"),
    "gaussian_core.entropy_scan": ("lattice", "lengths", "eps_family"),
    "gaussian_core.symplectic_spectrum": ("state",),
    "gaussian_core.entanglement_entropy": ("nus",),
    "charge_fluct.charge_variance": ("model", "spec"),
    "charge_fluct.charge_variance_lattice": ("model", "spec"),
    "charge_fluct.ftilde_radial": ("spec", "D", "ks"),
    "charge_fluct.scaling_fit": ("model", "spec_family"),
    "charge_fluct.global_charge_limit": ("model", "ramp_width", "time_width",
                                         "radii"),
}

# every defaulted parameter of a def in the engine modules, as
# module.qualname.parameter
DEFAULTED = sorted([
    "charge_fluct._one_particle_deviation.t_shift",
    "charge_fluct._ramp_moments.weight_r",
    "chiral_ej.SmearingFn.__init__.amplitude",
    "errors.SpectralError.__init__.offending_value",
    "wedge_kms.Trajectory.uniform.n",
    "wedge_kms.Trajectory.uniform.span",
    "wedge_kms.pullback.i_epsilon",
])


def _defaulted(prefix, body):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted(f"{prefix}.{node.name}", node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for arg in named:
                yield f"{prefix}.{node.name}.{arg.arg}"
            yield from _defaulted(f"{prefix}.{node.name}", node.body)


def _resolve(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"modloc_lab.{module}"), name)


@pytest.mark.parametrize("dotted", SIGNATURES)
def test_engine_signature(dotted):
    params = tuple(inspect.signature(_resolve(dotted)).parameters)
    assert params == SIGNATURES[dotted]


def test_defaulted_parameters_are_the_listed_ones():
    found = sorted(name for path in ENGINES.glob("*.py")
                   for name in _defaulted(path.stem, ast.parse(path.read_text()).body))
    assert found == DEFAULTED


def test_traced_functions_exist():
    # the tracer wraps each name with getattr, so a missing one breaks a
    # traced benchmark run; load it from its file, as it is not a package
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYERS.items():
        for name in names:
            assert callable(_resolve(f"{layer}.{name}")), f"{layer}.{name}"
