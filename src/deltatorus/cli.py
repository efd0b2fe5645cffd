"""Command-line pipeline: spectrum tables, windows, solving, measuring,
Monte Carlo runs and the scaling arithmetic.

Every artifact-producing run writes a manifest with the exact parameters
and a content digest, existing artifacts are never overwritten with
different bytes, and reruns with identical inputs are no-ops.  Exit codes:
0 success, 2 validation error, 3 numeric failure, 4 I/O or artifact
conflict.  All spectral values on the command line are normalized norms
(lambda / 4 pi^2); --physical switches the printed values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import harness, lattice, measure, reporting, scatterer, sprime
from .errors import NonSPrimeError, NumericError, ValidationError

def _write(path: Path, text: str, written: dict) -> None:
    reporting.write_atomic(path, text)
    written[path.name] = reporting.params_digest({"content": text})


def _emit_manifest(out_dir: Path, name: str, kind: str, params: dict, written: dict):
    manifest = reporting.build_manifest(kind, params, outputs=written)
    text = reporting.dumps_json(manifest)
    path = out_dir / name
    reporting.write_atomic(path, text)
    return path


def _parse_fraction(name: str, text: str):
    """A finite number from the command line: exact for an integer or p/q,
    a float in decimal or exponent notation."""
    try:
        if "/" in text:
            value = Fraction(text)
        elif "." in text or "e" in text or "E" in text:
            value = float(text)
        else:
            value = Fraction(int(text))
        finite = math.isfinite(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be a finite number or fraction p/q, got {text!r}")
    return value


# -- subcommands -------------------------------------------------------------


def cmd_spectrum(args) -> int:
    out = Path(args.out)
    table = lattice.enumerate_spectrum(args.dim, args.mmax)
    written: dict = {}
    path = out / f"spectrum_d{args.dim}_m{args.mmax}.csv"
    _write(path, reporting.csv_text(["m", "r"], zip(table.ms.tolist(), table.rs.tolist())), written)
    params = {"dim": args.dim, "m_max": args.mmax}
    _emit_manifest(out, path.name.replace(".csv", ".manifest.json"), "spectrum", params, written)
    print(json.dumps({"file": str(path), "entries": int(table.ms.size)}))
    return 0


def cmd_sprime(args) -> int:
    if args.density_bins < 0:
        raise ValidationError(f"--density-bins must be >= 0, got {args.density_bins}")
    table = lattice.enumerate_spectrum(args.dim, args.mhi + max(64, args.mhi // 16))
    params = sprime.SPrimeParams(
        delta=args.delta,
        eps=args.eps,
        eps_prime=args.eps_prime,
        c_gap=args.cgap,
        c_coeff=args.ccoeff,
    )
    window = sprime.build_window(table, args.mlo, args.mhi, params)
    out = Path(args.out)
    written: dict = {}
    stem = f"window_d{args.dim}_{args.mlo}_{args.mhi}"
    cols = ["m_k", "gap_ok", "coeff_ok", "accepted"]
    rows = ([r[c] for c in cols] for r in window.rows())
    _write(out / f"{stem}.csv", reporting.csv_text(cols, rows), written)
    _write(out / f"{stem}.json", reporting.dumps_json(window.summary()), written)
    if args.density_bins > 0:
        edges = np.linspace(args.mlo, args.mhi, args.density_bins + 1)
        series = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            series.append({"X": int(lo), "density": window.sub_window(int(lo), int(hi)).density})
        _write(
            out / f"{stem}_density.csv",
            reporting.plotdata_text("density_vs_window", series),
            written,
        )
    spec_params = {**window.summary(), "m_lo": args.mlo, "m_hi": args.mhi}
    _emit_manifest(out, f"{stem}.manifest.json", "sprime", spec_params, written)
    print(json.dumps({"density": window.density, "accepted": len(window.accepted)}))
    return 0


def _roots_csv(roots, config) -> str:
    header = ["root_index", "lambda_norm", "residual", "second_smin", "near_degenerate"]
    header += [f"d{j}_{part}" for j in range(config.n_scatterers) for part in ("re", "im")]
    rows = (
        [i, r.lambda_norm, r.residual, r.second_smin, r.near_degenerate]
        + [x for dj in r.d.tolist() for x in (dj.real, dj.imag)]
        for i, r in enumerate(roots)
    )
    return reporting.csv_text(header, rows)


def cmd_solve(args) -> int:
    config = scatterer.ScattererConfig.load(args.config)
    radius = harness.truncation_radius(args.radius_factor, args.mk)
    table = lattice.enumerate_spectrum(config.dim, radius)
    triple = table.gap_triple(args.mk)
    roots = scatterer.find_new_eigenvalues(config, triple, radius, solver_tol=args.tol)
    out = Path(args.out)
    written: dict = {}
    stem = f"roots_m{args.mk}"
    _write(out / f"{stem}.csv", _roots_csv(roots, config), written)
    params = {
        "config": config.to_json(),
        "m_k": args.mk,
        "tol": args.tol,
        "radius_factor": args.radius_factor,
    }
    _emit_manifest(out, f"{stem}.manifest.json", "solve", params, written)
    vals = [r.lambda_norm * (lattice.FOUR_PI_SQ if args.physical else 1.0) for r in roots]
    print(json.dumps({"roots": vals}))
    return 0


def cmd_measure(args) -> int:
    config = scatterer.ScattererConfig.load(args.config)
    obs = measure.Observable.load(args.observable)
    coeffs = None
    if args.coeffs:
        with open(args.coeffs, encoding="utf-8") as f:
            coeffs = json.load(f)
    spec = harness.TrialSpec(
        dim=config.dim,
        n_scatterers=config.n_scatterers,
        m_center=args.mk,
        seed=0,
        trials=1,
        phases=config.phases.tolist(),
        delta=args.delta,
        l0_override=args.L0,
        radius_factor=args.radius_factor,
        observable=obs,
        coefficient_mode="synthetic" if args.coeffs else "solver",
        synthetic_coeffs=coeffs,
        synthetic_lambda_frac=args.lambda_frac,
        solver_tol=args.tol,
    )
    ctx = harness.RunContext.build(spec)
    res = harness.measure_config(spec, config, ctx)
    if res.no_root:
        raise NumericError(f"no new eigenvalue in the gap at m_k = {args.mk}")
    if res.endpoint_landing:
        # the A values stop at the first shift that lands
        zeta = ctx.zetas[len(res.a_vals)]
        raise NonSPrimeError(f"shift {zeta} lands on an endpoint shell of the gap at m_k = {args.mk}")
    key = lambda z: ",".join(str(c) for c in z)
    payload = {
        "A": {key(z): res.a_vals[z] for z in ctx.zetas},
        "B": res.b_val,
        "C": res.c_val,
        "sigma": {key(z): ctx.sigma[z] for z in ctx.zetas},
        "split": [res.annulus_sq, res.remainder_sq],
        "lambda_norm": res.lambda_norm,
        "norm_sq": res.norm_sq,
        "err": res.err,
        "envelope": res.envelope,
    }
    out = Path(args.out)
    written: dict = {}
    stem = f"measure_m{args.mk}"
    _write(out / f"{stem}.json", reporting.dumps_json(payload), written)
    params = {
        "config": config.to_json(),
        "observable": obs.to_json(),
        "m_k": args.mk,
        "delta": args.delta,
        "L0": ctx.width,
        "radius_factor": args.radius_factor,
        "lambda_frac": args.lambda_frac,
        "coeffs_file": args.coeffs,
    }
    _emit_manifest(out, f"{stem}.manifest.json", "measure", params, written)
    print(json.dumps({"report": str(out / (stem + '.json'))}))
    return 0


def _aggregate_payload(spec, results, ctx, ref_means=None) -> dict:
    agg: dict = {
        "trials": spec.trials,
        "no_root": sum(1 for r in results if r.no_root),
        "endpoint_landings": sum(1 for r in results if r.endpoint_landing),
        "annulus_covers_gap": ctx.annulus_covers_gap,
        "interval": [ctx.interval.prev, ctx.interval.center, ctx.interval.next],
        "width_L0": ctx.width,
        "radius_sq": ctx.radius_sq,
        "err_quantiles": harness.err_quantiles(results),
        "sigma_bound": {
            ",".join(map(str, z)): ctx.sigma_bound[z] for z in ctx.zetas
        },
    }
    usable = harness.usable(results)
    if len(usable) >= harness.MIN_EXPECTATION_TRIALS:
        agg["expectations"] = harness.estimate_expectations(results, ctx)
    if len(usable) >= harness.MIN_EVENT_TRIALS:
        c0s = [2.0, 5.0, 14.0 * spec.n_scatterers]
        agg["events"] = harness.event_frequencies(
            results, c0s, spec.n_scatterers, ref_means=ref_means
        )
    chain = [r for r in usable if r.chain_c_ok and r.chain_b_ok and r.chain_ratio_ok]
    agg["chain_ok_fraction"] = len(chain) / len(usable) if usable else math.nan
    agg["pair_one_exact_all"] = all(r.pair_one_exact for r in usable) if usable else False
    return agg


def _resolve_threads(requested: int) -> int:
    if requested < 0:
        raise ValidationError(f"--threads must be >= 0 (0 = auto), got {requested}")
    if requested > 0:
        return requested
    return min(4, len(os.sched_getaffinity(0)))  # 0 = auto: the cores this process may run on


def cmd_mc(args) -> int:
    with open(args.spec, encoding="utf-8") as f:
        spec_obj = json.load(f)
    if args.seed is not None:
        spec_obj["seed"] = args.seed
    if args.trials is not None:
        spec_obj["trials"] = args.trials
    threads = _resolve_threads(args.threads)
    out = Path(args.out)
    written: dict = {}

    if args.trend_mk:
        rows = []
        for mk in args.trend_mk:
            obj = dict(spec_obj)
            obj["m_center"] = mk
            spec = harness.TrialSpec.from_json(obj)
            results, _ = harness.run_trials(spec, threads=threads)
            q = harness.err_quantiles(results)
            rows.append(
                {"m_k": mk, "median_err": q["median"], "q10": q["q10"], "q90": q["q90"],
                 "count": q["count"], "landings": q["landings"]}
            )
        # a center without usable trials has a NaN median and no place in the trend
        medians = [row["median_err"] for row in rows if row["count"]]
        monotone = all(later <= earlier for earlier, later in zip(medians, medians[1:]))
        _write(out / "err_vs_lambda.csv", reporting.plotdata_text("err_trend", rows), written)
        params = {"spec": spec_obj, "m_k_values": list(args.trend_mk)}
        _emit_manifest(out, "trend.manifest.json", "mc-trend", params, written)
        print(json.dumps({"monotone_nonincreasing": monotone}))
        return 0

    spec = harness.TrialSpec.from_json(spec_obj)
    ref_means = None
    if args.ref_aggregate:
        with open(args.ref_aggregate, encoding="utf-8") as f:
            ref = json.load(f)
        if "events" not in ref:
            raise ValidationError(
                f"{args.ref_aggregate} has no events block (the reference run "
                f"needs at least {harness.MIN_EVENT_TRIALS} usable trials)"
            )
        ev = ref["events"]["ref_means"]
        ref_means = {"A_a": ev["A_a"], "B": ev["B"], "C": ev["C"]}
    results, ctx = harness.run_trials(spec, threads=threads)
    _write(out / "trials.csv", reporting.trials_csv_text(results, ctx.zetas), written)
    agg = _aggregate_payload(spec, results, ctx, ref_means=ref_means)
    _write(out / "aggregate.json", reporting.dumps_json(agg), written)
    if "events" in agg:
        rows = [
            {
                "C0": float(c0),
                "freq": rec["freq"],
                "stderr": rec["stderr"],
                "bound": rec["bound"],
            }
            for c0, rec in agg["events"]["markov_A"].items()
        ]
        _write(out / "freq_vs_c0.csv", reporting.plotdata_text("freq_vs_c0", rows), written)
    _emit_manifest(out, "manifest.json", "mc", spec.to_json(), written)
    print(json.dumps({"out": str(out), "no_root": agg["no_root"]}))
    return 0


def cmd_scale(args) -> int:
    payload: dict = {}
    if args.E is not None and args.L is not None:
        payload["lambda_physical"] = float(harness.scaling_map(args.E, args.L))
    if args.gamma is not None:
        gamma = _parse_fraction("gamma", args.gamma)
        eps = _parse_fraction("eps", args.eps) if args.eps else Fraction(0)
        alpha, beta, threshold = harness.threshold_arithmetic(
            args.E if args.E is not None else 1.0,
            args.rho if args.rho is not None else 1.0,
            gamma,
            args.dim,
            eps,
        )
        payload["alpha"] = str(alpha) if isinstance(alpha, Fraction) else alpha
        payload["beta"] = str(beta) if isinstance(beta, Fraction) else beta
        payload["threshold"] = threshold
        payload["localization_length_bound"] = threshold
    if args.check_gamma2:
        gamma2 = harness.consistency_gamma2(Fraction(133, 416))
        payload["gamma2"] = str(gamma2)
        payload["gamma2_ok"] = gamma2 == Fraction(17, 832)
    if not payload:
        raise ValidationError("nothing to compute: pass --E/--L, --gamma, or --check-gamma2")
    print(json.dumps(payload))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="deltatorus",
        description="Point scatterers on flat tori: spectra, windows, fields, Monte Carlo.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="export the unperturbed spectrum as a table")
    sp.add_argument("--dim", type=int, required=True, choices=(2, 3))
    sp.add_argument("--mmax", type=int, required=True)
    sp.add_argument("--out", required=True, help="export dir, not read back")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("sprime", help="build an acceptance window")
    sp.add_argument("--dim", type=int, required=True, choices=(2, 3))
    sp.add_argument("--mlo", type=int, required=True)
    sp.add_argument("--mhi", type=int, required=True)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eps-prime", dest="eps_prime", type=float, default=None)
    sp.add_argument("--cgap", type=float, default=10.0)
    sp.add_argument("--ccoeff", type=float, default=10.0)
    sp.add_argument("--density-bins", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sprime)

    sp = sub.add_parser("solve", help="find new eigenvalues in one gap")
    sp.add_argument("--config", required=True)
    sp.add_argument("--mk", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--radius-factor", dest="radius_factor", type=float, default=1.6)
    sp.add_argument("--physical", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("measure", help="functionals of one superposition")
    sp.add_argument("--config", required=True)
    sp.add_argument("--observable", required=True)
    sp.add_argument("--mk", type=int, required=True)
    sp.add_argument("--coeffs", help="JSON [[re,im],...]; omit to use the solver")
    sp.add_argument("--lambda-frac", dest="lambda_frac", type=float, default=0.5)
    sp.add_argument("--delta", type=float, default=0.3)
    sp.add_argument("--L0", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--radius-factor", dest="radius_factor", type=float, default=1.6)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("mc", help="run a Monte Carlo trial spec")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--threads", type=int, default=0, help="0 = auto")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--ref-aggregate", dest="ref_aggregate", default=None)
    sp.add_argument(
        "--trend-mk",
        dest="trend_mk",
        type=int,
        nargs="+",
        default=None,
        help="run the spec at these interval centers and emit the error-trend series",
    )
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("scale", help="energy/size/density arithmetic")
    sp.add_argument("--E", type=float, default=None)
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--gamma", default=None, help="exponent, e.g. 17/832")
    sp.add_argument("--eps", default=None)
    sp.add_argument("--dim", type=int, default=2, choices=(2, 3))
    sp.add_argument("--check-gamma2", action="store_true")
    sp.set_defaults(func=cmd_scale)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except NumericError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
