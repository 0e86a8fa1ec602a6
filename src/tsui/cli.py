"""Command-line front end: curve tables, simulation, fitting, verification.

Exit codes: 0 success, 1 runtime failure (fit did not converge, oracle
tolerance breach, truncation), 2 usage or validation errors.  All file
writes go through :func:`tsui.data.write_atomic` (temp file plus
rename) so outputs are never left half written.  Every output path is
checked before any draw or fit: a missing directory, or a path that is
a directory, exits 2 at once and writes nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import fitting, fock, metrology, simulate
from .data import check_grid, format_float, load_noise_csv, write_atomic
from .gaussian import (
    InterferometerParams,
    apply_loss,
    joint_quadrature_stats,
    photon_moments,
    seeded_tmss,
)
from .metrology import SqlKind

__all__ = ["main"]

# Largest grid a 'start:stop:step' flag may expand to.
MAX_GRID_POINTS = 100_000


def parse_span(text: str) -> np.ndarray:
    """Parse a grid flag: 'start:stop:step' (inclusive), 'a,b,c', or 'x'.

    The stop endpoint is included whenever it lies within 1e-12 of a grid
    point.  Ranges with non-finite parts or more than ``MAX_GRID_POINTS``
    points are rejected before anything is allocated.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty grid specification")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"could not parse grid {text!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid values must be finite, got {text!r}")
        if step <= 0.0 or stop < start:
            raise ValueError(f"grid needs stop >= start and step > 0, got {text!r}")
        span = (stop - start) / step
        if not span < MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} exceeds {MAX_GRID_POINTS} points")
        count = int(math.floor(span + 1e-12)) + 1
        values = start + step * np.arange(count)
        if values[-1] > stop + 1e-12:
            values = values[:-1]
        return values
    try:
        return np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError:
        raise ValueError(f"could not parse values {text!r}") from None


def _parse_eta(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        value = float(parts[0])
        return value, value
    if len(parts) == 2:
        return float(parts[0]), float(parts[1])
    raise ValueError(f"transmission must be 'eta' or 'eta_p,eta_c', got {text!r}")


def _check_outputs(*paths: str) -> None:
    # Fail before the work if an output cannot be written where it is asked.
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"cannot write {path}: its directory does not exist")


def _single(values: np.ndarray, name: str) -> float:
    if values.size != 1:
        raise ValueError(f"{name} expects a single value, got {values.size}")
    return float(values[0])


# The flags each figure reads besides --out and --format.  fig4a and fig6
# take one --eta setting, fig4b and fig8 any number.
_CURVE_FLAGS = {
    "fig3": ("gain", "alpha"),
    "fig4a": ("gain", "eta", "alpha", "lambdas"),
    "fig4b": ("gain", "eta"),
    "fig6": ("gain", "eta", "lambdas"),
    "fig8": ("gain", "eta"),
}


def cmd_curves(args: argparse.Namespace) -> int:
    figure = args.figure
    fmt = args.format
    out = args.out or f"{figure}.{fmt}"
    _check_outputs(out)
    unread = [
        f"--{flag}"
        for flag in ("gain", "eta", "alpha", "lambdas")
        if getattr(args, flag) is not None and flag not in _CURVE_FLAGS[figure]
    ]
    if unread:
        raise ValueError(f"{figure} does not read {', '.join(unread)}")
    alpha = 100.0 if args.alpha is None else args.alpha
    if figure == "fig3":
        grid = parse_span(args.gain or "1:5:0.05")
        table = metrology.curve_sensitivity_vs_gain(alpha, grid)
    elif figure in ("fig4b", "fig8"):
        if figure == "fig4b":
            default_etas = ["1.0", "0.9,0.9", "0.8,0.8"]
            default_grid = "1:5:0.05"
        else:
            default_etas = ["0.745,0.775", "1.0"]
            default_grid = "1:3:0.02"
        etas = [_parse_eta(e) for e in (args.eta or default_etas)]
        table = metrology.curve_lambda_opt_vs_gain(etas, parse_span(args.gain or default_grid))
    else:  # fig4a and fig6: one transmission setting, a weight grid
        if args.eta and len(args.eta) > 1:
            raise ValueError(f"{figure} takes a single --eta setting")
        ep, ec = _parse_eta(args.eta[0]) if args.eta else (1.0, 1.0)
        lam_grid = parse_span(args.lambdas or "0:1:0.01")
        if figure == "fig4a":
            gain = _single(parse_span(args.gain), "--gain") if args.gain else 2.0
            params = InterferometerParams(gain=gain, eta_p=ep, eta_c=ec, alpha=alpha)
            table = metrology.curve_noise_vs_lambda(params, lam_grid)
        else:
            gains = parse_span(args.gain) if args.gain else np.array([1.1])
            params_list = [
                InterferometerParams(gain=float(g), eta_p=ep, eta_c=ec) for g in gains
            ]
            table = metrology.curve_snri_vs_lambda(params_list, lam_grid)
    (table.to_csv if fmt == "csv" else table.to_json)(out)
    print(f"wrote {out} ({table.rows.shape[0]} rows, {len(table.columns)} columns)")
    if args.verbose:
        for key in sorted(table.meta):
            print(f"  {key} = {table.meta[key]}", file=sys.stderr)
    return 0


def cmd_lambda_opt(args: argparse.Namespace) -> int:
    params = InterferometerParams(gain=args.gain, eta_p=args.eta_p, eta_c=args.eta_c)
    value = metrology.lambda_opt(params)
    print(format_float(value))
    if args.numeric:
        check = metrology.lambda_opt_numeric(params)
        print(
            f"numeric check: {format_float(check)}"
            f" (difference {abs(check - value):.3e})"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    config = simulate.load_sim_config(args.config)
    grid = parse_span(args.lambdas)
    dataset = simulate.measure_noise_vs_lambda(
        config,
        grid,
        trials=args.trials,
        center_freq=args.center_freq,
        rbw=args.rbw,
    )
    dataset.to_csv(args.out)
    print(f"wrote {args.out} ({len(dataset)} rows)")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    kinds = (SqlKind.SQL2, SqlKind.SQL1) if args.overlay else ()
    overlays = [f"{args.overlay}_{kind.value}.csv" for kind in kinds]
    _check_outputs(args.out, *overlays)
    # The overlay grid is checked before the fit, so a bad one writes nothing.
    grid = check_grid("lam", parse_span(args.lambdas)) if kinds else None
    dataset = load_noise_csv(args.data)
    initial = tuple(float(v) for v in args.initial.split(",")) if args.initial else None
    options = fitting.FitOptions(
        loss_offset=None if args.unconstrained else args.offset, initial=initial
    )
    fit = fitting.fit_noise_curve(dataset, options)
    est = fitting.extract_lambda_opt(dataset, fit)
    write_atomic(args.out, fit.json_text())
    print(fit.summary())
    print(
        f"  lambda_opt estimate = {est.value:.4f} +/- {est.sigma:.4f} ({est.method})"
    )
    if est.boundary_warning:
        print("  warning: measured minimum sits at the edge of the scanned range")
    for kind, path in zip(kinds, overlays):
        fitting.overlay_theory(fit, kind, grid).to_csv(path)
        print(f"wrote {path}")
    print(f"wrote {args.out}")
    return 0


def _check(name: str, err: float, tol: float, lines: list[str]) -> bool:
    ok = err <= tol
    lines.append(f"{name:<52s} {'PASS' if ok else 'FAIL'}  max_err={err:.3e}  tol={tol:.0e}")
    return ok


def cmd_verify(args: argparse.Namespace) -> int:
    ep, ec = _parse_eta(args.eta)
    lambdas = parse_span(args.lambdas)
    params = InterferometerParams(gain=args.gain, eta_p=ep, eta_c=ec, alpha=args.alpha)
    pure_fock, report = fock.build_seeded_tmss_fock(params.gain, params.alpha, args.cutoff)
    rule = f" (smallest with n^2-weighted tail <= {fock.MOMENT_TAIL_LIMIT:.0e})"
    how = rule if args.cutoff is None else ""
    lines = [f"state build: cutoff={report.cutoff}{how}, norm deficit {report.norm_deficit:.3e}"]
    pure_gauss = seeded_tmss(params)

    # (name, errors, tolerance) rows; each reports its largest |error|.
    table = []
    if params.alpha == 0.0:
        # Unseeded output is diagonal in the photon-number basis with
        # amplitudes tanh(r)^n / cosh(r).
        ladder = math.tanh(params.r) ** np.arange(report.cutoff + 1) / math.cosh(params.r)
        ladder_err = pure_fock.amplitudes - np.diag(ladder)
        table.append(("photon-pair ladder amplitudes", ladder_err, 1e-8))

    def rows(tag: str, fock_state, gauss_state) -> list:
        bundle = fock.oracle_moment_bundle(fock_state, lambdas)
        lam, fm, fv = bundle["joint"].T
        gm, gv = joint_quadrature_stats(gauss_state, lam)
        probe, conj = bundle["probe"], bundle["conjugate"]
        # (mean, var) rows in the Gaussian state's (X_p, Y_p, X_c, Y_c) order.
        quads = np.array([probe["x"], probe["y"], conj["x"], conj["y"]]).T
        n_p = photon_moments(gauss_state, "probe")
        n_c = photon_moments(gauss_state, "conjugate")
        photons = np.array([probe["n"], conj["n"]]) - [
            [n_p.mean_n, n_p.var_n],
            [n_c.mean_n, n_c.var_n],
        ]
        return [
            (f"{tag}: joint quadrature means", fm - gm, 1e-7),
            (f"{tag}: joint quadrature variances", fv - gv, 1e-6),
            (f"{tag}: single-mode quadrature means", quads[0] - gauss_state.mean, 1e-7),
            (f"{tag}: single-mode quadrature variances", quads[1] - np.diag(gauss_state.cov), 1e-6),
            (f"{tag}: photon number moments", photons, 1e-6),
        ]

    table += rows("lossless", pure_fock, pure_gauss)
    if ep < 1.0 or ec < 1.0:
        lossy_fock = fock.apply_loss_fock(
            fock.apply_loss_fock(pure_fock, ep, "probe"), ec, "conjugate"
        )
        lossy_gauss = apply_loss(pure_gauss, ep, ec)
        table += rows(f"lossy (eta_p={ep:g}, eta_c={ec:g})", lossy_fock, lossy_gauss)

    # A list, not a generator: every row is checked and printed.
    ok = all([_check(name, float(np.abs(err).max()), tol, lines) for name, err, tol in table])
    for line in lines:
        print(line)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsui",
        description=(
            "Noise, sensitivity and fitting toolkit for a truncated SU(1,1) "
            "interferometer read out by weighted joint homodyne detection."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="echo parameter metadata"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser(
        "curves",
        help="write one of the standard theory curve tables",
        description=(
            "Figures: fig3 sensitivity vs gain, fig4a joint noise vs weight, "
            "fig4b/fig8 optimal weight vs gain, fig6 SNR improvement vs weight.  "
            "A flag the chosen figure does not read exits 2."
        ),
    )
    p_curves.add_argument("figure", choices=sorted(_CURVE_FLAGS))
    p_curves.add_argument("--gain", help="gain value or grid start:stop:step")
    p_curves.add_argument(
        "--eta",
        action="append",
        help="transmission 'eta' or 'eta_p,eta_c' (fig4a, fig6); repeatable for fig4b/fig8",
    )
    p_curves.add_argument(
        "--alpha", type=float, help="seed amplitude (fig3, fig4a; default 100)"
    )
    p_curves.add_argument("--lambdas", help="weight grid start:stop:step (fig4a, fig6)")
    p_curves.add_argument("--out", help="output path (default <figure>.<format>)")
    p_curves.add_argument("--format", choices=["csv", "json"], default="csv")
    p_curves.set_defaults(func=cmd_curves)

    p_lam = sub.add_parser("lambda-opt", help="print the optimal readout weight")
    p_lam.add_argument("--gain", type=float, required=True)
    p_lam.add_argument("--eta-p", type=float, default=1.0)
    p_lam.add_argument("--eta-c", type=float, default=1.0)
    p_lam.add_argument(
        "--numeric", action="store_true", help="also print the direct-search check"
    )
    p_lam.set_defaults(func=cmd_lambda_opt)

    p_sim = sub.add_parser(
        "simulate", help="simulate a noise-vs-weight scan from a config file"
    )
    p_sim.add_argument("--config", required=True, help="key = value settings file")
    p_sim.add_argument("--lambdas", default="0:1:0.05", help="weight grid")
    p_sim.add_argument("--trials", type=int, default=2)
    p_sim.add_argument("--center-freq", type=float, default=1e6)
    p_sim.add_argument("--rbw", type=float, default=1e5)
    p_sim.add_argument("--out", default="noise_vs_lambda.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a noise scan and extract the optimal weight")
    p_fit.add_argument("--data", required=True, help="noise CSV (lambda,noise_db,sigma_db)")
    p_fit.add_argument("--out", default="fit_result.json")
    p_fit.add_argument(
        "--offset",
        type=float,
        default=0.03,
        help="fixed eta_c - eta_p during the fit",
    )
    p_fit.add_argument(
        "--unconstrained",
        action="store_true",
        help="fit all four parameters (degenerate; diagnostics only)",
    )
    p_fit.add_argument("--initial", help="start point 'gain,eta_p,eta_c,scale_db'")
    p_fit.add_argument("--overlay", help="prefix for theory overlay tables")
    p_fit.add_argument("--lambdas", default="0:1:0.01", help="overlay weight grid")
    p_fit.set_defaults(func=cmd_fit)

    p_ver = sub.add_parser(
        "verify", help="cross-check Gaussian moments against the Fock oracle"
    )
    p_ver.add_argument("--gain", type=float, default=2.0)
    p_ver.add_argument("--alpha", type=float, default=0.0)
    p_ver.add_argument("--eta", default="0.76", help="'eta' or 'eta_p,eta_c'")
    p_ver.add_argument(
        "--cutoff",
        type=int,
        help=(
            "photons per mode (default: the smallest whose n^2-weighted tail "
            f"is <= {fock.MOMENT_TAIL_LIMIT:.0e})"
        ),
    )
    p_ver.add_argument("--lambdas", default="0,0.5,1")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (fock.TruncationError, fitting.FitFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
