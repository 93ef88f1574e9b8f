"""The seven verification suites.  Each runs the relevant module
operations at desk scale, appends one manifest record per claim checked,
and returns its CSV tables as (table, header, columns) triples.  The suites
compute and write_run writes: a caller writes once every suite it runs has
returned, so a run that raises writes no file."""

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

def suite_thermal_map(cfg, man):
    rows = []
    n = cfg["grid_n"]
    us = np.linspace(0.02, 0.98, int(np.sqrt(n)) + 1)
    U, V = np.meshgrid(us, us, indexing="ij")
    off = np.abs(U - V) > 1e-4
    grid = np.column_stack((U[off], V[off]))[:n]     # row-major (u, v) pairs
    for beta in cfg["betas"]:
        imap = ce.IntervalMap(beta, (0.0, 1.0))
        defect = ce.verify_isomorphism(imap, grid)
        rows.append((beta, defect))
        man.extend([check_less(
            f"thermal-map/kernel-defect/beta={beta:g}", defect, 1e-10,
            note="K_th(u,u') = J J' K_vac(x,x') on the grid",
        )])
    imap = ce.IntervalMap(TWO_PI, (0.0, 1.0))
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
    return [("kernel_defect", ("beta", "max_rel_defect"), list(zip(*rows)))]


def suite_ej_fluct(cfg, man):
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
    return [("energy_variance",
             ("center", "plateau", "ramp", "thermal_var", "transported_var",
              "rel_diff"), list(zip(*rows)))]


def suite_entropy_scan(cfg, man):
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
    tables = [("S_vs_L", ("length", "entropy"),
               (lengths, [S for (_, _, S) in rows]))]

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
    tables.append(("S_vs_eps", ("length", "eps", "entropy"), list(zip(*rows))))

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
    tables.append(("thermal_S_vs_L", ("length", "entropy"),
                   (tl, rel.thermal_entropies)))

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
    return tables


def _n2_specs(cfg):
    ratios = np.exp(np.linspace(np.log(cfg["n2_ratio_lo"]),
                                np.log(cfg["n2_ratio_hi"]), cfg["n2_samples"]))
    specs = []
    for x in ratios:
        R = 6.0 * np.sqrt(x / 100.0)
        dR = R / x
        specs.append(cf.PartialChargeSpec(R, dR, 0.1 * dR))
    return specs


def suite_charge_scaling(cfg, man):
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

    return [("F_vs_ratio", ("spacetime_dim", "mass", "ratio", "F"),
             list(zip(*rows)))]


def suite_unruh(cfg, man):
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
    return [("balance_defect", ("acceleration", "omega", "defect"),
             list(zip(*rows)))]


def suite_crossing(cfg, man):
    gs = [
        cz.WedgeTestFn(0.0, 2.5, 0.7, 0.9),
        cz.WedgeTestFn(0.3, 3.0, 0.5, 0.8),
        cz.WedgeTestFn(-0.2, 2.2, 0.6, 0.7),
    ]
    n = cfg["grid_n"]
    t1 = np.linspace(-1.5, 1.5, n)
    t2 = np.linspace(-1.2, 1.8, n)
    grids = cz.free_crossing_check(gs[0], t1, t2)   # the CSV reads these
    defects = [grids.max_rel_defect]
    defects += [cz.free_crossing_check(g, t1, t2).max_rel_defect for g in gs[1:]]
    crossing_defect = max(defects)
    for i, defect in enumerate(defects):
        man.extend([check_less(
            f"crossing/free-crossing/geometry-{i}", defect, 1e-6,
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
    c = grids.continued.ravel()
    x = grids.crossed.ravel()
    return [("formfactor_grid",
             ("theta1", "theta2", "re_continued", "im_continued", "re_crossed",
              "im_crossed"),
             (np.repeat(t1, n), np.tile(t2, n), c.real, c.imag, x.real, x.imag))]


def suite_zf_algebra(cfg, man):
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
            check_less(f"zf-algebra/associativity/b={b:g}", assoc, 1e-10,
                       note="scalar S: both paths are the same three factors "
                            "in another order, so this reads rounding only"),
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
    return [("defects",
             ("coupling", "unitarity", "inverse", "crossing", "exchange",
              "double_exchange", "associativity"), list(zip(*rows)))]


_SUITES = {
    "thermal-map": suite_thermal_map,
    "ej-fluct": suite_ej_fluct,
    "entropy-scan": suite_entropy_scan,
    "charge-scaling": suite_charge_scaling,
    "unruh": suite_unruh,
    "crossing": suite_crossing,
    "zf-algebra": suite_zf_algebra,
}


def run_experiment(cfg):
    """Run one suite; its manifest holds the records and, in tables, the
    (table, header, columns) triples.  No file is written."""
    man = RunManifest(cfg.experiment, dict(cfg.params))
    man.tables = _SUITES[cfg.experiment](cfg, man)
    return man


def write_run(out_dir, man):
    """Write a run's CSVs into out_dir, which exists, then its manifest,
    which digests them."""
    for table, header, columns in man.tables:
        path, digest = write_csv(out_dir, man.experiment, table, header, columns)
        man.files[path.name] = digest
    man.write(out_dir)
    return man


# Every suite, in the order parallel runs start them.  In a fresh
# interpreter at the default configs (three rounds on a shared 2-core
# host; the host's load moves each by up to a third) charge-scaling takes
# 0.44-0.50 s, ej-fluct 0.19-0.23 s, entropy-scan 0.15-0.18 s, crossing
# and unruh 0.06-0.09 s each, zf-algebra 0.04 s and thermal-map 0.002 s.
# charge-scaling, the longest, starts first and the others run
# beside it; entropy-scan, whose 2048-site symplectic spectrum is the
# largest memory step of the run, starts next.  Over six alternating
# rounds of verify-all --parallel 2 in fresh interpreters, this order read
# a median wall of 0.71 s and peak RSS of 42.5 MiB (lowest in every
# round); starting entropy-scan first read 0.72 s and 42.6 MiB, ej-fluct
# second 0.79 s and 44.0 MiB, and entropy-scan last 0.86 s and 44.4 MiB.
PARALLEL_ORDER = ("charge-scaling", "entropy-scan", "unruh", "crossing",
                  "zf-algebra", "thermal-map", "ej-fluct")


def verify_all(out_dir, parallel=1, only=None):
    """Every suite at default desk-scale parameters, then their files and
    the aggregate manifest, written into out_dir, which exists, only once
    every suite has returned: a run that raises writes no file.  A parallel
    run stops at the first suite that raises and starts no other."""
    names = list(EXPERIMENTS if only is None else only)
    if parallel > 1:
        import concurrent.futures   # threading and logging: 0.4-0.5 MiB
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as ex:
            futs = {name: ex.submit(run_experiment, load_config(name))
                    for name in sorted(names, key=PARALLEL_ORDER.index)}
            for fut in concurrent.futures.as_completed(futs.values()):
                if fut.exception() is not None:
                    ex.shutdown(cancel_futures=True)
                    fut.result()                # re-raises
        manifests = [futs[name].result() for name in names]
    else:
        manifests = [run_experiment(load_config(name)) for name in names]

    agg = RunManifest("verify-all", {"suites": names})
    for man in manifests:                   # requested order, schedule-free
        write_run(out_dir, man)
        agg.extend(man.records)
        agg.files.update(man.files)
    agg.write(out_dir)
    return agg
