"""Acceptance gate: nine numbered end-to-end checks.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the stated tolerance, so a red test pinpoints the criterion it
belongs to.  Tolerances and runtime budgets are part of the contract
and are asserted, not just reported.
"""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
from scan_reference import serial_band_spectra
from scipy import stats

from tsui.fitting import NoiseDataset, fit_noise_curve
from tsui.fock import apply_loss_fock, build_seeded_tmss_fock, oracle_moment_bundle
from tsui.gaussian import (
    InterferometerParams,
    WeightedMeasurement,
    apply_loss,
    joint_quadrature_stats,
    seeded_tmss,
)
from tsui.metrology import (
    LOG2_DB,
    SqlKind,
    joint_noise_power,
    joint_variance_quadratic,
    lambda_opt,
    lambda_opt_numeric,
    phase_sensitivity,
    qcrb,
    snri,
)
from tsui.simulate import SimConfig, measure_noise_vs_lambda, simulate_records


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")


def test_1_lossless_weight_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g = 1.001 + 8.999 * rng.random()
        p = InterferometerParams(gain=g)
        # tanh 2r = (q - 1) / (q + 1), q = e^{4r} = (sqrt G + sqrt(G - 1))^4,
        # in 50 digits: the reference adds no round-off of its own.
        with localcontext() as ctx:
            ctx.prec = 50
            q = (Decimal(g).sqrt() + (Decimal(g) - 1).sqrt()) ** 4
            expected = float((q - 1) / (q + 1))
        worst = max(worst, abs(lambda_opt(p) - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "lossless optimal weight is tanh 2r", ok,
           f"max|err| = {worst:.3e} (tol 1e-12), {elapsed:.2f} s (< 1 s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_2_closed_form_matches_search():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = InterferometerParams(
            gain=1.01 + 3.99 * rng.random(),
            eta_p=0.5 + 0.5 * rng.random(),
            eta_c=0.5 + 0.5 * rng.random(),
        )
        worst = max(worst, abs(lambda_opt(p) - lambda_opt_numeric(p)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(2, "closed form vs golden-section argmin", ok,
           f"max|err| = {worst:.3e} (tol 1e-8), {elapsed:.2f} s (< 5 s)")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_3_quantum_bound_saturation():
    # At the optimal weight the lossless readout saturates the quantum
    # bound up to a residual sinh^2(2r) / (4 G alpha^2 cosh 2r), which
    # vanishes as the seed brightens.
    alpha = 100.0
    worst_rel = 0.0
    worst_abs = 0.0
    for g in (1.1, 1.67, 2.0):
        p = InterferometerParams(gain=g, alpha=alpha)
        dphi = phase_sensitivity(p, lambda_opt(p)).delta_phi
        fisher = 1.0 / qcrb(p).delta_phi ** 2
        residual = fisher * dphi**2 - 1.0
        c2r = 2.0 * g - 1.0
        s2r_sq = 4.0 * g * (g - 1.0)
        expected = s2r_sq / (4.0 * g * alpha**2 * c2r)
        worst_rel = max(worst_rel, abs(residual - expected) / expected)
        worst_abs = max(worst_abs, abs(residual))
    ok = worst_rel <= 1e-9 and worst_abs <= 1e-3
    report(3, "optimal readout saturates the quantum bound", ok,
           f"residual rel err = {worst_rel:.3e} (tol 1e-9), "
           f"|residual| = {worst_abs:.3e} (<= 1e-3)")
    assert worst_rel <= 1e-9
    assert worst_abs <= 1e-3


def test_4_shot_noise_reference_structure():
    # The two shot-noise conventions differ by the constant vacuum
    # factor of two, so the improvement offset is 10 log10 2 for every
    # configuration; in floats the subtraction stays within ~1e-14 of
    # the constant, far inside the 1e-12 gate.
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        p = InterferometerParams(
            gain=1.0 + 4.0 * rng.random(),
            eta_p=0.5 + 0.5 * rng.random(),
            eta_c=0.5 + 0.5 * rng.random(),
        )
        lam = rng.random()
        diff = snri(p, lam, SqlKind.SQL1) - snri(p, lam, SqlKind.SQL2)
        worst = max(worst, abs(diff - LOG2_DB))

    p = InterferometerParams(gain=1.1)
    lo = lambda_opt(p)
    balanced = snri(p, 1.0, SqlKind.SQL2)
    optimal = snri(p, lo, SqlKind.SQL2)

    # Independent check of both values through the truncated-ladder
    # oracle: rebuild the variances from the state vector.
    state, _ = build_seeded_tmss_fock(1.1, 0.0, cutoff=40)
    ens = apply_loss_fock(apply_loss_fock(state, 1.0, "probe"), 1.0, "conjugate")
    bundle = oracle_moment_bundle(ens, [lo, 1.0])
    oracle_db = {lam: -10.0 * math.log10(var) for lam, _, var in bundle["joint"]}

    ok = (
        worst <= 1e-12
        and abs(balanced - (-0.3075)) <= 1e-3
        and balanced < 0.0
        and abs(optimal - 0.7918) <= 1e-3
        and optimal > 0.0
        and abs(oracle_db[1.0] - (-0.3075)) <= 1e-3
        and abs(oracle_db[lo] - 0.7918) <= 1e-3
    )
    report(4, "3.01 dB offset and low-gain crossover", ok,
           f"max offset err = {worst:.3e} (tol 1e-12), balanced {balanced:+.4f} dB, "
           f"optimal {optimal:+.4f} dB (oracle {oracle_db[1.0]:+.4f}/{oracle_db[lo]:+.4f})")
    assert worst <= 1e-12
    assert abs(balanced - (-0.3075)) <= 1e-3 and balanced < 0.0
    assert abs(optimal - 0.7918) <= 1e-3 and optimal > 0.0
    assert abs(oracle_db[1.0] - (-0.3075)) <= 1e-3
    assert abs(oracle_db[lo] - 0.7918) <= 1e-3


def test_5_oracle_equivalence():
    # Quadrature moments from the covariance model against the
    # truncated-ladder brute force at cutoff 40: joint readout mean and
    # variance at each weight, plus per-mode quadrature means and
    # variances.
    t0 = time.perf_counter()
    lambdas = [0.0, 0.5, 1.0]
    worst = 0.0
    for g in (1.0, 1.2, 1.5, 2.0):
        for alpha in (0.0, 0.5, 1.0):
            for eta in (1.0, 0.76):
                params = InterferometerParams(gain=g, eta_p=eta, eta_c=eta, alpha=alpha)
                gstate = apply_loss(seeded_tmss(params), eta, eta)
                fstate, _ = build_seeded_tmss_fock(g, alpha, cutoff=40)
                ens = apply_loss_fock(
                    apply_loss_fock(fstate, eta, "probe"), eta, "conjugate"
                )
                bundle = oracle_moment_bundle(ens, lambdas)
                for lam, omean, ovar in bundle["joint"]:
                    gmean, gvar = joint_quadrature_stats(
                        gstate, WeightedMeasurement(lam)
                    )
                    worst = max(worst, abs(omean - gmean), abs(ovar - gvar))
                for mode, ix, iy in (("probe", 0, 1), ("conjugate", 2, 3)):
                    for quad, idx in (("x", ix), ("y", iy)):
                        omean, ovar = bundle[mode][quad]
                        worst = max(
                            worst,
                            abs(omean - gstate.mean[idx]),
                            abs(ovar - gstate.cov[idx, idx]),
                        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    report(5, "covariance model vs truncated-ladder oracle", ok,
           f"max moment gap = {worst:.3e} (tol 1e-6), {elapsed:.1f} s (< 2 min)")
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_6_fit_round_trip_coverage():
    # Synthetic 21-point scans with 0.05 dB Gaussian noise at the two
    # reference settings, 100 repetitions each.
    #
    # Gate A: every repetition's optimal-weight estimate lies within
    # 0.02 of the closed-form value.
    #
    # Gate B: the truth lies inside the fit's joint 95% confidence
    # region in at least 90 of 100 repetitions.  The region is the
    # likelihood-ratio one, chi2(truth) - chi2(fit) <= chi2_k(0.95) with
    # k = len(fit.param_names) = 3 free parameters (bound 7.815; Wilks
    # 1938).  Requiring every parameter inside its own marginal 1-sigma
    # interval instead cannot work: joint coverage never exceeds the
    # smallest marginal coverage, which is ~68% for calibrated 1-sigma
    # errors, so only inflated errors could reach 90.  A calibrated
    # region passes 90/100 with probability 0.989; one that covers only
    # 85% passes with probability 0.10.
    #
    # The region cannot be gamed through the reported numbers: in every
    # repetition fit.chi_square must equal chi2 recomputed from the
    # reported gain, eta_p, eta_c and scale_db, and the fit may not be
    # worse than the truth (delta chi2 >= 0).  The quoted sigmas stay
    # checked from the side calibrated errors can meet: each parameter's
    # marginal 1-sigma coverage must be at least 55/100 (a calibrated
    # sigma passes with probability 0.998).  The old all-inside-1-sigma
    # count is still reported.
    t0 = time.perf_counter()
    lam = np.linspace(0.0, 1.0, 21)
    sigma_db = 0.05
    results = []
    for gain, eta_p, eta_c, target in (
        (1.67, 0.76, 0.79, 0.79633),
        (1.2, 0.73, 0.76, 0.55967),
    ):
        vp, vc, cr = joint_variance_quadratic(gain, eta_p, eta_c)
        clean = 10.0 * np.log10(vp + lam**2 * vc + 2.0 * lam * cr)
        truth = {"gain": gain, "eta_p": eta_p, "eta_c": eta_c, "scale_db": 0.0}
        in_region = 0
        all_in_1sigma = 0
        marginal: dict[str, int] = {}
        lam_ok = 0
        worst_lam_err = 0.0
        worst_chi2_gap = 0.0
        min_delta = math.inf
        below_truth = 0
        bound = math.nan
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            noise = rng.normal(0.0, sigma_db, lam.size)
            ds = NoiseDataset(
                lam=lam,
                noise_db=clean + noise,
                sigma_db=np.full(lam.size, sigma_db),
            )
            fit = fit_noise_curve(ds)

            sigmas = np.sqrt(np.diag(fit.param_cov))
            inside = [
                abs(value - truth[name]) <= sigma
                for name, value, sigma in zip(fit.param_names, fit.param_values, sigmas)
            ]
            for name, hit in zip(fit.param_names, inside):
                marginal[name] = marginal.get(name, 0) + hit
            all_in_1sigma += all(inside)

            vp_f, vc_f, cr_f = joint_variance_quadratic(fit.gain, fit.eta_p, fit.eta_c)
            model = 10.0 * np.log10(vp_f + lam**2 * vc_f + 2.0 * lam * cr_f) + fit.scale_db
            chi2_reported = float(np.sum(((model - ds.noise_db) / ds.sigma_db) ** 2))
            worst_chi2_gap = max(
                worst_chi2_gap, abs(chi2_reported - fit.chi_square) / fit.chi_square
            )

            # The truth is the clean curve with scale_db = 0, so its
            # residuals are exactly the drawn noise.
            chi2_truth = float(np.sum((noise / sigma_db) ** 2))
            delta = chi2_truth - fit.chi_square
            min_delta = min(min_delta, delta)
            below_truth += delta < -1e-9 * chi2_truth
            bound = float(stats.chi2.ppf(0.95, len(fit.param_names)))
            in_region += delta <= bound

            err = abs(fit.lambda_opt_fit - target)
            worst_lam_err = max(worst_lam_err, err)
            lam_ok += err <= 0.02
        results.append({
            "gain": gain, "in_region": in_region, "bound": bound,
            "marginal": marginal, "all_in_1sigma": all_in_1sigma,
            "lam_ok": lam_ok, "worst_lam_err": worst_lam_err,
            "worst_chi2_gap": worst_chi2_gap, "min_delta": min_delta,
            "below_truth": below_truth,
        })
    elapsed = time.perf_counter() - t0

    ok = elapsed < 60.0
    detail = []
    for r in results:
        ok = (
            ok
            and r["lam_ok"] == 100
            and r["worst_chi2_gap"] <= 1e-9
            and r["below_truth"] == 0
            and r["in_region"] >= 90
            and all(n >= 55 for n in r["marginal"].values())
        )
        marginal = ", ".join(f"{name} {n}" for name, n in r["marginal"].items())
        detail.append(
            f"G={r['gain']}: joint 95% region (delta chi2 <= {r['bound']:.3f}) "
            f"{r['in_region']}/100 (need >= 90), min delta chi2 {r['min_delta']:.3f}, "
            f"chi2 gap {r['worst_chi2_gap']:.1e}; marginal 1-sigma {marginal} "
            f"(need >= 55 each); all inside 1-sigma {r['all_in_1sigma']}/100; "
            f"weight within 0.02 in {r['lam_ok']}/100 (max err {r['worst_lam_err']:.4f})"
        )
    report(6, "fit round-trip at reference settings", ok,
           "; ".join(detail) + f"; {elapsed:.1f} s (< 60 s)")
    assert elapsed < 60.0
    for r in results:
        assert r["lam_ok"] == 100, (
            f"G={r['gain']}: optimal-weight estimate strayed past 0.02 "
            f"(max err {r['worst_lam_err']:.4f})"
        )
    for r in results:
        assert r["worst_chi2_gap"] <= 1e-9, (
            f"G={r['gain']}: fit.chi_square differs from chi2 recomputed from "
            f"the reported parameters by {r['worst_chi2_gap']:.3e} (relative)"
        )
        assert r["below_truth"] == 0, (
            f"G={r['gain']}: {r['below_truth']}/100 fits have a larger chi2 than "
            f"the truth (min delta chi2 {r['min_delta']:.3e})"
        )
    for r in results:
        assert r["in_region"] >= 90, (
            f"G={r['gain']}: truth inside the joint 95% region "
            f"(delta chi2 <= {r['bound']:.3f}) in {r['in_region']}/100 < 90"
        )
        for name, n in r["marginal"].items():
            assert n >= 55, (
                f"G={r['gain']}: {name} inside its quoted 1-sigma in {n}/100 < 55; "
                "the quoted sigma is too small to be calibrated"
            )


def test_7_simulator_matches_analytic_curve():
    t0 = time.perf_counter()
    params = InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79)
    lo = lambda_opt(params)
    grid = sorted([0.0, 0.25, 0.5, 0.75, lo, 1.0])
    cfg = SimConfig(params=params, rng_seed=7)
    assert cfg.n_samples >= 2**20
    data = measure_noise_vs_lambda(cfg, grid, trials=2)
    worst = 0.0
    for lam, db in zip(data.lam, data.noise_db):
        theory = joint_noise_power(params, float(lam)).variance_db
        worst = max(worst, abs(db - theory))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.1 and elapsed < 120.0
    report(7, "simulated scan vs analytic noise power", ok,
           f"max gap = {worst:.4f} dB (tol 0.1 dB), {elapsed:.1f} s (< 2 min)")
    assert worst <= 0.1
    assert elapsed < 120.0


def test_8_noise_floor_demonstration():
    # Same weighted readout, same probe brightness and tone, squeezer
    # on (G = 3.3) versus off (G = 1 with the seed amplified to match):
    # the floor drops by the squeezing margin while the tone stays put.
    gain, eta, alpha, depth = 3.3, 0.75, 50.0, 0.05
    squeezed = InterferometerParams(gain=gain, eta_p=eta, eta_c=eta, alpha=alpha)
    coherent = InterferometerParams(
        gain=1.0, eta_p=eta, eta_c=eta, alpha=alpha * math.sqrt(gain)
    )
    lam = lambda_opt(squeezed)
    power = {}
    for tag, params, seed in (("squeezed", squeezed, 11), ("coherent", coherent, 12)):
        for tone in (depth, 0.0):
            cfg = SimConfig(params=params, tone_depth=tone, rng_seed=seed)
            record = simulate_records(cfg)
            # The tone (1 MHz) sits at the centre of the band read.
            spectra = serial_band_spectra(
                record.probe + lam * record.conjugate, cfg.sample_rate, 1e6, 1e5
            )
            power[(tag, tone > 0.0)] = float((np.abs(spectra) ** 2).sum(axis=1).mean())
    improvement = 10.0 * math.log10(
        power[("coherent", False)] / power[("squeezed", False)]
    )
    tone_ratio = (power[("squeezed", True)] - power[("squeezed", False)]) / (
        power[("coherent", True)] - power[("coherent", False)]
    )
    tone_err = abs(tone_ratio - 1.0)
    ok = 3.5 <= improvement <= 5.5 and tone_err <= 0.01
    report(8, "squeezed vs coherent noise floor at fixed signal", ok,
           f"improvement = {improvement:.3f} dB (in [3.5, 5.5]), "
           f"tone power mismatch = {tone_err:.5f} (<= 0.01)")
    assert 3.5 <= improvement <= 5.5
    assert tone_err <= 0.01


def test_9_weight_trend_and_pipeline():
    # Theory shape: at fixed transmissions the optimal weight rises
    # with gain and stays below the lossless curve.
    eta_p, eta_c = 0.745, 0.775
    gains = np.linspace(1.05, 3.0, 79)
    values = []
    for g in gains:
        lossy = lambda_opt(InterferometerParams(gain=g, eta_p=eta_p, eta_c=eta_c))
        lossless = lambda_opt(InterferometerParams(gain=g))
        assert lossy < lossless
        values.append(lossy)
    increasing = all(b > a for a, b in zip(values, values[1:]))

    # End-to-end: simulate, fit, extract at five gains; the extracted
    # weight must sit within two quoted sigmas of the closed form.
    grid = np.linspace(0.0, 1.0, 21)
    worst_margin = 0.0
    rows = []
    for i, g in enumerate((1.2, 1.5, 2.0, 2.5, 3.0)):
        params = InterferometerParams(gain=g, eta_p=eta_p, eta_c=eta_c)
        cfg = SimConfig(params=params, duration=2**21 / 8e6, rng_seed=100 + i)
        data = measure_noise_vs_lambda(cfg, grid, trials=4)
        fit = fit_noise_curve(data)
        value, sigma = fit.lambda_opt_fit, fit.sigma_lambda_opt_fit
        theory = lambda_opt(params)
        margin = abs(value - theory) / sigma
        worst_margin = max(worst_margin, margin)
        rows.append(f"G={g}: {value:.4f}+/-{sigma:.4f} vs {theory:.4f}")
    ok = increasing and worst_margin <= 2.0
    report(9, "optimal-weight trend and full pipeline", ok,
           f"monotone rising: {increasing}, worst |err|/sigma = {worst_margin:.2f} "
           f"(<= 2); " + "; ".join(rows))
    assert increasing
    assert worst_margin <= 2.0
