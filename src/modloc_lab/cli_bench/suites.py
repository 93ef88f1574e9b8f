"""The seven verification suites.  Each runs the relevant module
operations at desk scale, writes CSV data, and appends one manifest record
per claim checked."""

import numpy as np

from .. import chiral_ej as ce
from .. import charge_fluct as cf
from .. import crossing_zf as cz
from .. import gaussian_core as gc
from .. import wedge_kms as wk
from ..errors import NumericError
from .config import EXPERIMENTS, load_config
from .manifest import (RunManifest, check_bool, check_greater, check_less,
                       record_value, unverified, write_csv)

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------

def suite_thermal_map(cfg, man, out):
    rows = []
    n = cfg["grid_n"]
    us = np.linspace(0.02, 0.98, int(np.sqrt(n)) + 1)
    U, V = np.meshgrid(us, us, indexing="ij")
    off = np.abs(U - V) > 1e-4
    grid = np.column_stack((U[off], V[off]))[:n]     # row-major (u, v) pairs
    for beta in cfg["betas"]:
        imap = ce.exp_map(beta, 0.0, 1.0)
        defect = ce.verify_isomorphism(imap, grid)
        rows.append((beta, defect))
        man.extend([check_less(
            f"thermal-map/kernel-defect/beta={beta:g}", defect, 1e-10,
            note="K_th(u,u') = J J' K_vac(x,x') on the grid",
        )])
    imap = ce.exp_map(TWO_PI, 0.0, 1.0)
    man.extend([
        check_less("thermal-map/image-interval",
                   abs(imap.image[0] - 1.0) + abs(imap.image[1] - np.e), 1e-14,
                   note="(0,1) -> (1, e) at beta = 2 pi"),
    ])
    k = ce.thermal_kernel(2.0)
    du = np.linspace(0.3, 2.0, 9) - 0.45j
    man.extend([check_less(
        "thermal-map/kms-periodicity", ce.kms_periodicity_defect(k, du),
        1e-10, note="K(du - i beta) = K(-du), complex grid",
    )])
    img = ce.thermal_image_sum(k, 1.0, 0.0)
    direct = ce.current_two_point(k, 1.0, 0.0)
    man.extend([check_less(
        "thermal-map/image-sum", float(abs(img - direct) / abs(direct)), 1e-8,
        note="thermal kernel vs 200-image vacuum sum",
    )])
    path, digest = write_csv(out, "thermal-map", "kernel_defect",
                             ("beta", "max_rel_defect"), rows)
    man.files[path.name] = digest


def suite_ej_fluct(cfg, man, out):
    beta = cfg["beta"]
    geoms = [
        ce.SmearingFn(0.5, 0.4, 0.3),
        ce.SmearingFn(0.0, 1.0, 0.5),
        ce.SmearingFn(-0.3, 0.2, 0.6),
    ]
    rows = []
    for i, f in enumerate(geoms):
        cmp = ce.ej_compare(f, beta)
        rows.append((f.center, f.plateau, f.ramp_width,
                     cmp.thermal_variance, cmp.transported_variance, cmp.rel_diff))
        man.extend([check_less(
            f"ej-fluct/energy-variance-match/geometry-{i}", cmp.rel_diff, 1e-6,
            note="thermal vs exp-map-transported connected energy variance",
        )])
    f = geoms[0]
    vac = ce.vacuum_kernel()
    v_pos = ce.smeared_current_variance(f, vac)
    v_spec = ce.current_variance_spectral(f, vac)
    man.extend([
        check_less("ej-fluct/current-route-agreement",
                   abs(v_pos - v_spec) / v_spec, 1e-6,
                   note="position-space engine vs spectral oracle"),
        check_less("ej-fluct/translation-covariance",
                   abs(ce.smeared_current_variance(f.translated(2.3), vac) - v_pos)
                   / v_pos, 1e-10),
        check_bool("ej-fluct/kernel-positivity", v_pos >= -1e-10),
    ])
    man.extend([unverified(
        "ej-fluct/moebius-rotation-law",
        "rotation covariance not exercised (apparent typo in the source law); "
        "translation and dilation covariance are tested instead",
    )])
    path, digest = write_csv(
        out, "ej-fluct", "energy_variance",
        ("center", "plateau", "ramp", "thermal_var", "transported_var", "rel_diff"),
        rows)
    man.files[path.name] = digest


def suite_entropy_scan(cfg, man, out):
    n = cfg["n_sites"]
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    lengths = cfg["lengths"]
    rows, fit = gc.entropy_scan(lat, lengths, [1.0])
    man.extend([
        check_greater("entropy-scan/log-fit-r2", fit.r_squared, 0.995,
                      note=f"S = s ln L + c on the {n}-site critical chain"),
        record_value("entropy-scan/log-slope", fit.slope,
                     note="recorded, not asserted (c=1 chain gives ~1/3)"),
        record_value("entropy-scan/log-slope-per-chirality", fit.slope / 2.0),
    ])
    rows = [(L, S) for L, (_, _, S) in zip(lengths, rows)]
    path, digest = write_csv(out, "entropy-scan", "S_vs_L",
                             ("length", "entropy"), rows)
    man.files[path.name] = digest

    # restriction impurity and uncertainty bound on a small closed chain
    small = gc.HarmonicLattice(64, 0.0, ir_regulator=2e-4 / 64 * 32)
    sstate = gc.build_vacuum_state(small)
    ent_small = gc.interval_entropy(sstate, 16)
    man.extend([check_greater("entropy-scan/restriction-impurity", ent_small,
                              1e-6, note="proper subinterval of the coupled vacuum")])

    # eps scan: attenuation length as short-distance cutoff; the interval is
    # kept well below the chain size so the periodic chord correction stays
    # in the fit tolerance
    rows, fit = gc.entropy_scan(lat, [cfg["eps_interval"]], cfg["eps_values"])
    man.extend([
        check_greater("entropy-scan/eps-fit-r2", fit.r_squared, 0.99,
                      note="S against ln(L/eps)"),
        record_value("entropy-scan/eps-slope", fit.slope),
    ])
    path, digest = write_csv(out, "entropy-scan", "S_vs_eps",
                             ("length", "eps", "entropy"), rows)
    man.files[path.name] = digest

    # thermal side: extensivity, and its calibration against the log law
    tl = cfg["thermal_lengths"]
    rel = ce.entropy_relation_check(tl, cfg["eps_values"],
                                    n_sites=cfg["thermal_n_sites"],
                                    beta=cfg["thermal_beta"])
    man.extend([
        check_greater("entropy-scan/thermal-fit-r2", rel.thermal_r2, 0.99,
                      note="thermal entropy extensive in L"),
        check_greater("entropy-scan/localization-fit-r2", rel.localization_r2, 0.99,
                      note=f"{ce.CALIBRATION_SITES}-site vacuum entropy "
                           "against ln(1/eps)"),
        record_value("entropy-scan/thermal-slope", rel.thermal_slope),
        record_value("entropy-scan/thermal-slope-per-chirality",
                     rel.thermal_slope / 2.0),
    ])
    rows = list(zip(tl, rel.thermal_entropies))
    path, digest = write_csv(out, "entropy-scan", "thermal_S_vs_L",
                             ("length", "entropy"), rows)
    man.files[path.name] = digest

    man.extend([record_value(
        "entropy-scan/calibration-ratio", rel.calibration_ratio,
        note="s1/(2 pi s2); coefficient reported, not asserted",
    )])

    # purity of the full vacuum
    for size in cfg["purity_sizes"]:
        plat = gc.HarmonicLattice(size, 1.0)
        ps = gc.build_vacuum_state(plat)
        nus = gc.symplectic_spectrum(ps)
        ent = gc.entanglement_entropy(nus)
        man.extend([
            check_less(f"entropy-scan/vacuum-purity/n={size}", ent, 1e-8,
                       note="full-state entropy, nats"),
            check_bool(f"entropy-scan/uncertainty-bound/n={size}",
                       bool(np.all(nus >= 0.5 - 1e-9))),
        ])

    # the Gibbs state departs from the vacuum like exp(-beta m): 2.5e-11 at
    # beta = 22, where a state built at beta / 2 reads 2.2e-6 and fails
    b = gc.HarmonicLattice(64, 1.0)
    d = gc.build_thermal_state(b, 22.0)
    v = gc.build_vacuum_state(b)
    diff = max(np.max(np.abs(d.phi_col - v.phi_col)),
               np.max(np.abs(d.pi_col - v.pi_col)))
    man.extend([check_less("entropy-scan/thermal-limit", float(diff), 1e-6,
                           note="beta = 22 Gibbs state vs vacuum")])


def _n2_specs(cfg):
    ratios = np.exp(np.linspace(np.log(cfg["n2_ratio_lo"]),
                                np.log(cfg["n2_ratio_hi"]), cfg["n2_samples"]))
    specs = []
    for x in ratios:
        R = 6.0 * np.sqrt(x / 100.0)
        dR = R / x
        specs.append(cf.PartialChargeSpec(R, dR, 0.1 * dR))
    return specs


def suite_charge_scaling(cfg, man, out):
    rows = []
    # n = 2: log law
    m2 = cf.ScalarModel(cfg["n2_mass"], 2)
    rep2 = cf.scaling_fit(m2, _n2_specs(cfg))
    man.extend([
        check_bool("charge-scaling/n2-log-flag", rep2.fitted_log_flag),
        check_greater("charge-scaling/n2-log-r2", rep2.r_squared, 0.999),
        check_less("charge-scaling/n2-power-exponent", abs(rep2.fitted_exponent),
                   0.1, note="consistent with 0: log law"),
    ])
    rows += [(2, cfg["n2_mass"], x, F) for x, F in rep2.samples]

    # n = 3 and n = 4: area powers (R grows at fixed dR, T)
    for dim, target, lo, hi in ((3, 1.0, 6.0, 62.0), (4, 2.0, 8.0, 82.0)):
        model = cf.ScalarModel(1.0, dim)
        specs = [cf.PartialChargeSpec(0.5 * x, 0.5, 0.05)
                 for x in np.exp(np.linspace(np.log(lo), np.log(hi), 7))]
        rep = cf.scaling_fit(model, specs)
        man.extend([check_less(
            f"charge-scaling/n{dim}-exponent-error",
            abs(rep.fitted_exponent - target), 0.1,
            note=f"fitted {rep.fitted_exponent:.4f}, target {target}",
        )])
        rows += [(dim, 1.0, x, F) for x, F in rep.samples]

    # oracle equivalence: continuum vs lattice mode sum
    m1 = cf.ScalarModel(1.0, 2)
    worst = 0.0
    continuum = {}
    for (R, dR, T) in ((2.0, 1.0, 0.2), (3.0, 1.0, 0.2), (2.5, 0.7, 0.15),
                       (4.0, 2.0, 0.3), (3.5, 0.5, 0.1)):
        spec = cf.PartialChargeSpec(R, dR, T)
        Fc = continuum[R, dR, T] = cf.charge_variance(m1, spec)
        Fl = cf.charge_variance_lattice(m1, spec)
        worst = max(worst, abs(Fc - Fl) / Fc)
    man.extend([check_less("charge-scaling/lattice-oracle-agreement", worst,
                           0.03, note="5 geometries, 512-site chain")])

    # mass monotonicity; the middle mass is m1 on an oracle geometry
    spec = cf.PartialChargeSpec(3.0, 1.0, 0.2)
    Fs = [continuum[3.0, 1.0, 0.2] if mm == 1.0
          else cf.charge_variance(cf.ScalarModel(mm, 2), spec)
          for mm in (0.5, 1.0, 2.0)]
    man.extend([check_bool("charge-scaling/mass-monotonicity",
                           Fs[0] > Fs[1] > Fs[2],
                           note="F decreases with mass at fixed geometry")])

    # global charge limit
    limit = cf.global_charge_limit(m1, 1.0, 0.2, radii=(4, 8, 16, 32, 64))
    man.extend([
        check_less("charge-scaling/global-limit-final", limit.final_deviation,
                   1e-3),
        check_bool("charge-scaling/global-limit-monotone", limit.monotone),
        check_less("charge-scaling/conservation-t-shift",
                   limit.t_shift_change, 1e-6),
    ])

    # area-law reporting rows (n > 2 predictions are not derivable here)
    for dim in (3, 4):
        for formula in cf.area_law_report(dim):
            man.extend([unverified(
                f"charge-scaling/area-law/n={dim}/{formula}",
                "prediction emitted only; not derivable at desk scale",
            )])

    path, digest = write_csv(out, "charge-scaling", "F_vs_ratio",
                             ("spacetime_dim", "mass", "ratio", "F"), rows)
    man.files[path.name] = digest


def suite_unruh(cfg, man, out):
    rows = []
    unit = None            # the a = 1 pullback and its report, when scanned
    for a in cfg["accelerations"]:
        traj = wk.Trajectory.uniform(a)
        corr = wk.pullback(wk.WightmanModel(0.0, 4), traj)
        rep = wk.detailed_balance(corr, TWO_PI / a)
        if a == 1.0:
            unit = corr, rep
        rows += [(a, w, d) for w, d in zip(rep.omegas, rep.defects)]
        man.extend([check_less(
            f"unruh/detailed-balance/a={a:g}", rep.max_defect, 1e-3,
            note="beta = 2 pi / a over omega in [0.5, 3] a",
        )])
    traj = wk.Trajectory.uniform(1.0)
    if unit is None:
        corr = wk.pullback(wk.WightmanModel(0.0, 4), traj)
        unit = corr, wk.detailed_balance(corr, TWO_PI)
    corr, rep = unit
    neg = rep.at(np.pi)
    man.extend([
        check_greater("unruh/negative-control", neg.max_defect, 0.5,
                      note="beta = pi must fail loudly"),
        check_bool("unruh/hermiticity",
                   bool(np.max(np.abs(corr.values[::-1] - np.conj(corr.values)))
                        < 1e-12)),
    ])
    corr2 = wk.pullback(wk.WightmanModel(0.0, 2), traj)
    rep2 = wk.detailed_balance(corr2, TWO_PI)
    man.extend([check_less("unruh/detailed-balance-d2-current",
                           rep2.max_defect, 1e-3)])
    # the de-damped a = 1 spectrum on both sides of the balance band, as
    # the balance report already transformed it
    spectrum = np.concatenate((rep.spectrum.mirror, rep.spectrum.values))
    planck = wk.planck_spectrum(np.concatenate((-rep.omegas, rep.omegas)),
                                corr.acceleration)
    man.extend([
        check_bool("unruh/thermal-spectrum-positive", bool(np.all(spectrum > 0)),
                   note="two-sided spectrum strictly positive at finite "
                        "temperature, omega in +-[0.5, 3]"),
        check_less("unruh/planck-spectrum",
                   float(np.max(np.abs(spectrum / planck - 1.0))), 1e-5,
                   note="max relative deviation from "
                        "omega / (2 pi (1 - exp(-2 pi omega))), "
                        "omega in +-[0.5, 3], a = 1"),
    ])
    man.extend([
        check_less("unruh/kms-strip-chiral",
                   ce.kms_periodicity_defect(
                       ce.thermal_kernel(TWO_PI),
                       np.linspace(0.15 * TWO_PI, 1.5 * TWO_PI, 40)), 1e-10),
        check_less("unruh/boost-stationarity",
                   wk.boost_orbit_consistency(1.0), 1e-10),
    ])
    # massive pullback validated against the massless closed form
    tm = wk.Trajectory.uniform(1.0, span=12.0, n=1 << 13)
    cm = wk.pullback(wk.WightmanModel(1e-4, 4), tm)
    c0 = wk.pullback(wk.WightmanModel(0.0, 4), tm)
    mid = slice(len(tm.tau_grid) // 4, 3 * len(tm.tau_grid) // 4)
    dev = float(np.max(np.abs(cm.values[mid] - c0.values[mid])
                       / np.abs(c0.values[mid])))
    man.extend([check_less("unruh/massive-massless-limit", dev, 1e-2,
                           note="m = 1e-4 single-quadrature kernel vs closed form")])
    path, digest = write_csv(out, "unruh", "balance_defect",
                             ("acceleration", "omega", "defect"), rows)
    man.files[path.name] = digest


def suite_crossing(cfg, man, out):
    gs = [
        cz.WedgeTestFn(0.0, 2.5, 0.7, 0.9),
        cz.WedgeTestFn(0.3, 3.0, 0.5, 0.8),
        cz.WedgeTestFn(-0.2, 2.2, 0.6, 0.7),
    ]
    n = cfg["grid_n"]
    t1 = np.linspace(-1.5, 1.5, n)
    t2 = np.linspace(-1.2, 1.8, n)
    reps = [cz.free_crossing_check(g, t1, t2) for g in gs]
    crossing_defect = 0.0
    for i, rep in enumerate(reps):
        crossing_defect = max(crossing_defect, rep.max_rel_defect)
        man.extend([check_less(
            f"crossing/free-crossing/geometry-{i}", rep.max_rel_defect, 1e-6,
            note=f"i pi continued pair formfactor vs crossed element, {n}x{n} grid",
        )])
    f = cz.WedgeTestFn(0.2, 2.0, 0.6, 0.8)
    rf = cz.mass_shell_restrict(f)
    man.extend([
        check_less("crossing/strip-cauchy-riemann", rf.cauchy_riemann_residual(),
                   1e-8),
        check_less("crossing/modular-involution", rf.involution_defect(), 1e-8,
                   note="fhat(theta + i pi) = conj fhat(theta)"),
    ])
    try:
        cz.mass_shell_restrict(cz.WedgeTestFn(0.2, -2.0, 0.6, 0.8))
        man.extend([check_bool("crossing/left-wedge-control", False,
                               note="left-wedge continuation failed to diverge")])
    except NumericError:
        man.extend([check_bool("crossing/left-wedge-control", True,
                               note="left-wedge strip continuation diverges")])
    f1 = cz.WedgeTestFn(-0.1, 2.2, 0.5, 0.7)
    f2 = cz.WedgeTestFn(0.0, 0.45, 0.15, 0.2)
    kms = cz.kms_free_identity(gs[0], f1, f2)
    man.extend([check_less("crossing/kms-identity", kms.rel_diff, 1e-6)])
    floor = 1e-12
    ratio_ok = (kms.rel_diff <= 10.0 * (crossing_defect + floor)
                and crossing_defect <= 10.0 * (kms.rel_diff + floor))
    man.extend([check_bool("crossing/kms-crossing-consistency", ratio_ok,
                           note="two renderings of one identity, factor-10 band")])
    man.extend([unverified(
        "crossing/interacting-crossing",
        "general interacting crossing requires the unsolved multi-particle "
        "emulator action; only free/integrable instances are tested",
    )])
    c = reps[0].continued.ravel()
    x = reps[0].crossed.ravel()
    rows = np.column_stack((np.repeat(t1, n), np.tile(t2, n),
                            c.real, c.imag, x.real, x.imag))
    path, digest = write_csv(
        out, "crossing", "formfactor_grid",
        ("theta1", "theta2", "re_continued", "im_continued", "re_crossed",
         "im_crossed"), rows)
    man.files[path.name] = digest


def suite_zf_algebra(cfg, man, out):
    rows = []
    thetas = np.linspace(-3.0, 3.0, 120)
    fv = np.exp(-((thetas - 0.4) ** 2))
    gv = np.exp(-((thetas + 0.3) ** 2) / 0.5)
    th3 = np.linspace(-2.5, 2.5, 40)
    for b in cfg["couplings"]:
        S = cz.SMatrixModel(b)
        props = cz.smatrix_properties(S)
        ex = cz.zf_exchange_check(S, fv, gv, thetas)
        dbl = cz.zf_double_exchange_check(S, fv, gv, thetas)
        assoc = cz.zf_associativity_check(
            S, np.exp(-((th3 - 0.5) ** 2)), np.exp(-(th3**2) / 0.8),
            np.exp(-((th3 + 0.6) ** 2) / 1.2), th3)
        rows.append((b, props["unitarity"], props["inverse"], props["crossing"],
                     ex, dbl, assoc))
        man.extend([
            check_less(f"zf-algebra/smatrix-unitarity/b={b:g}",
                       props["unitarity"], 1e-12),
            check_less(f"zf-algebra/smatrix-inverse/b={b:g}",
                       props["inverse"], 1e-12),
            check_less(f"zf-algebra/smatrix-crossing/b={b:g}",
                       props["crossing"], 1e-12),
            check_less(f"zf-algebra/exchange/b={b:g}", ex, 1e-10),
            check_less(f"zf-algebra/double-exchange/b={b:g}", dbl, 1e-12),
            check_less(f"zf-algebra/associativity/b={b:g}", assoc, 1e-10),
        ])
    S = cz.SMatrixModel(1.0)
    man.extend([check_less("zf-algebra/s-at-zero", float(abs(S(0.0) + 1.0)),
                           1e-14, note="S(0) = -1")])

    # particle-number conservation: a k_max-deep in/out sequence leaks nothing
    st = cz.zf_vacuum(n_grid=14, k_max=cfg["k_max"])
    tn = st.theta_grid
    packets = [np.exp(-((tn - c) ** 2) / w)
               for c, w in ((0.5, 1.0), (-0.7, 0.6), (0.0, 1.0), (1.0, 0.8))]
    for p in packets:
        st = cz.zf_apply("create", p, st, S)
    st = cz.zf_apply("annihilate", packets[0], st, S)
    st = cz.zf_apply("create", np.exp(-((tn + 1.2) ** 2)), st, S)
    man.extend([check_less("zf-algebra/truncation-leakage", st.leaked_norm, 1e-8,
                           note=f"k_max = {cfg['k_max']} in/out sequence")])
    path, digest = write_csv(
        out, "zf-algebra", "defects",
        ("coupling", "unitarity", "inverse", "crossing", "exchange",
         "double_exchange", "associativity"), rows)
    man.files[path.name] = digest


_SUITES = {
    "thermal-map": suite_thermal_map,
    "ej-fluct": suite_ej_fluct,
    "entropy-scan": suite_entropy_scan,
    "charge-scaling": suite_charge_scaling,
    "unruh": suite_unruh,
    "crossing": suite_crossing,
    "zf-algebra": suite_zf_algebra,
}


def run_experiment(cfg, out_dir):
    man = RunManifest(cfg.experiment, dict(cfg.params))
    _SUITES[cfg.experiment](cfg, man, out_dir)
    man.write(out_dir)
    return man


# Every suite, in the order parallel runs start them.  In a fresh
# interpreter on 2 cores at the default configs charge-scaling takes about
# 0.54-0.64 s, ej-fluct 0.32-0.37 s, entropy-scan 0.21-0.22 s, crossing
# and unruh about 0.1 s each, zf-algebra 0.03-0.04 s and thermal-map
# 0.002 s.  charge-scaling, the longest, starts first and the others run
# beside it; entropy-scan, whose 2048-site symplectic spectrum is still
# the largest memory step of the run, starts next.  Over ten alternating
# perfbench verify-all pairs each, when every process still carried about
# 4.4 MiB more start-up imports, this order read a median wall of
# 0.83-0.87 s and peak RSS of 53.5 MiB; starting entropy-scan last read
# 0.90 s and 56.4 MiB (lower peak in 0 pairs), and ej-fluct second 0.89 s
# and 55.1 MiB (lower peak in 1 pair).  This order now peaks at 47.1 MiB
# (perfbench: 47.3 MiB).
PARALLEL_ORDER = ("charge-scaling", "entropy-scan", "unruh", "crossing",
                  "zf-algebra", "thermal-map", "ej-fluct")


def verify_all(out_dir, parallel=1, only=None):
    """Every suite at default desk-scale parameters; aggregate manifest."""
    names = list(EXPERIMENTS if only is None else only)
    manifests = {}

    def _run(name):
        return run_experiment(load_config(name), out_dir)

    if parallel > 1:
        import concurrent.futures       # threading and logging: 0.4-0.5 MiB
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as ex:
            futs = {name: ex.submit(_run, name)
                    for name in sorted(names, key=PARALLEL_ORDER.index)}
            for name in names:                  # fixed order, schedule-free
                manifests[name] = futs[name].result()
    else:
        for name in names:
            manifests[name] = _run(name)

    agg = RunManifest("verify-all", {"suites": names})
    for name in names:
        agg.extend(manifests[name].records)
        agg.files.update(manifests[name].files)
    agg.write(out_dir)
    return agg
