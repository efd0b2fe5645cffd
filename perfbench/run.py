#!/usr/bin/env python3
"""deltatorus benchmark.

    python3 perfbench/run.py --workload solver|synthetic|window|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of one workload; ``--trace 1``
is a separate 1-worker pass that records spans and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report (and,
with ``--trace 1``, every span) goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("solver", "synthetic", "window")

# acceptance-shaped spec (ROADMAP): d = 2, m_k = 10036, R = ceil(1.6 m_k),
# delta = 0.3, zero phases, observable 1 + cos 2 pi x1 + cos 2 pi x2
M_CENTER = 10036
OBSERVABLE = {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}
SOLVER_NS = (2, 4, 8)
SOLVER_BLOCK = 4  # trials per scatterer count per round: two per worker at 2 workers
SYNTHETIC_N = 2
SYNTHETIC_BLOCK = 16
SETUP_SAMPLES = 5
DRIFT_TRIALS = 4  # leading N = 4 trials solved at R and 2R

# criterion 8 window and the density sub-windows of `deltatorus sprime --density-bins`
WINDOW_TABLE_MAX = 21000
WINDOW_LO, WINDOW_HI = 10_000, 20_000
WINDOW_MAX_OFFSET = 500
WINDOW_BINS = 10
WINDOW_ACCEPTED_AT_ZERO = 179


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "deltatorus" / "__init__.py").is_file():
        fail_setup(f"no deltatorus package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import deltatorus  # noqa: F401


def load_metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


# -- environment ---------------------------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs --------------------------------------------------------------------


def trial_spec(n: int, seed: int, trials: int, synthetic: bool):
    from deltatorus import harness
    from deltatorus.measure import Observable

    extra = {}
    if synthetic:
        extra = {"coefficient_mode": "synthetic", "synthetic_coeffs": [[n**-0.5, 0.0]] * n}
    return harness.TrialSpec(
        dim=2,
        n_scatterers=n,
        m_center=M_CENTER,
        seed=seed,
        trials=trials,
        delta=0.3,
        observable=Observable(dict(OBSERVABLE)),
        **extra,
    )


def round_seed(seed: int, r: int) -> int:
    """Trial seed of round r: each round samples fresh positions."""
    return seed * 100_003 + r


def window_offset(seed: int) -> int:
    import numpy as np

    return int(np.random.default_rng(seed).integers(-WINDOW_MAX_OFFSET, WINDOW_MAX_OFFSET + 1))


def window_params():
    from deltatorus.sprime import SPrimeParams

    return SPrimeParams(delta=0.1, eps_prime=0.2, c_gap=10.0, c_coeff=10.0)


def density_edges(lo: int, hi: int) -> list[tuple[int, int]]:
    import numpy as np

    edges = np.linspace(lo, hi, WINDOW_BINS + 1)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


# -- output checks -------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []

    def check(self, name: str, ok: bool, note: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"{name}: {note}")
            print(f"perfbench: check failed: {name}: {note}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def trial_problems(r, spec, interval) -> list[str]:
    """Reasons one trial result counts as failed (empty when it passed)."""
    if r.no_root:
        return ["no_root"]
    bad = []
    if spec.coefficient_mode == "solver":
        if not interval.center < r.lambda_norm < interval.next:
            bad.append("lambda outside the gap")
        if not r.residual <= spec.solver_tol:
            bad.append(f"residual {r.residual:.3g} > solver_tol")
        if r.root_count > spec.n_scatterers:
            bad.append("more roots than scatterers")
    for flag in ("chain_c_ok", "chain_b_ok", "chain_ratio_ok", "pair_one_exact"):
        if not getattr(r, flag):
            bad.append(f"{flag} false")
    return bad


def run_block(spec, threads: int, ctx, tally: Tally):
    """run_trials on one block; returns (results, seconds) or (None, seconds)."""
    from deltatorus import harness

    tally.attempted += spec.trials
    t0 = time.perf_counter()
    try:
        results, _ = harness.run_trials(spec, threads=threads, ctx=ctx)
    except Exception:
        traceback.print_exc()
        tally.failed += spec.trials
        return None, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    for r in results:
        bad = trial_problems(r, spec, ctx.interval)
        if bad:
            tally.failed += 1
            print(f"perfbench: trial {r.trial_index} (N={spec.n_scatterers}, seed={spec.seed}) "
                  f"failed: {', '.join(bad)}", file=sys.stderr)
    return results, dt


def check_secular(spec, results, ctx, tally: Tally) -> None:
    """The first root of a block against a fresh scatterer.secular_value."""
    from deltatorus import harness, scatterer
    from deltatorus.greens import SpectralParameter, TruncationPolicy

    r = next((r for r in results if not r.no_root), None)
    if r is None:
        return
    pos = harness.sample_positions(spec.seed, r.trial_index, spec.n_scatterers, spec.dim)
    _, smin = scatterer.secular_value(
        spec.config_for(pos),
        SpectralParameter(r.lambda_norm),
        TruncationPolicy.by_radius(ctx.radius_sq),
    )
    tally.check("secular_value", smin <= spec.solver_tol, f"smin {smin:.3g} at N={spec.n_scatterers}")


def csv_text(results, ctx) -> str | None:
    from deltatorus.reporting import trials_csv_text

    return None if results is None else trials_csv_text(results, ctx.zetas)


# -- fresh-process set-up --------------------------------------------------------


def child_setup(workload: str, seed: int) -> None:
    """Child process: time import plus a cold context build, then run one
    trial per scatterer count at 1 worker and report the peak memory."""
    t0 = time.perf_counter()
    import_package()
    from deltatorus import harness

    synthetic = workload == "synthetic"
    ctx = harness.RunContext.build(trial_spec(SOLVER_NS[0], seed, 1, synthetic))
    setup_s = time.perf_counter() - t0
    for n in (SYNTHETIC_N,) if synthetic else SOLVER_NS:
        harness.run_trials(trial_spec(n, seed, 1, synthetic), threads=1, ctx=ctx)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}))


def setup_samples(workload: str, seed: int) -> list[dict]:
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--child", "setup", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


# -- solver and synthetic ----------------------------------------------------------


def trials_workload(workload: str, seed: int, seconds: float, tally: Tally):
    """Rounds of blocks at 1 worker, then the same blocks at 2 workers.

    The 2-worker pass reruns the inputs of the 1-worker pass, so every
    block is also a byte-identity check across thread counts.
    """
    from deltatorus import harness

    synthetic = workload == "synthetic"
    ns = (SYNTHETIC_N,) if synthetic else SOLVER_NS
    block = SYNTHETIC_BLOCK if synthetic else SOLVER_BLOCK
    children = setup_samples(workload, seed)

    ctx = harness.RunContext.build(trial_spec(ns[0], seed, 1, synthetic))
    for n in ns:  # warm the per-shift partner caches before timing
        harness.run_trials(trial_spec(n, seed, 1, synthetic), threads=1, ctx=ctx)

    rates = {1: [], 2: []}
    per_n = {(n, w): [] for n in ns for w in (1, 2)}
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 3 or time.perf_counter() < deadline:
        specs = [trial_spec(n, round_seed(seed, r), block, synthetic) for n in ns]
        texts = {}
        for workers in (1, 2):
            total = 0.0
            for spec in specs:
                results, dt = run_block(spec, workers, ctx, tally)
                total += dt
                per_n[spec.n_scatterers, workers].append(spec.trials / dt)
                texts[spec.n_scatterers, workers] = csv_text(results, ctx)
                if r == 0 and workers == 1 and results is not None and not synthetic:
                    check_secular(spec, results, ctx, tally)
            rates[workers].append(len(specs) * block / total)
        for n in ns:
            tally.check("csv_identical_1w_2w", texts[n, 1] is not None and texts[n, 1] == texts[n, 2],
                        f"round {r}, N={n}")
        r += 1

    detail = {
        "rounds_per_s": rates,
        "trials_per_s": {
            f"n{n}{'' if w == 1 else '_2t'}": statistics.median(v) for (n, w), v in per_n.items()
        },
        "setup_samples_s": [c["setup_s"] for c in children],
    }
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "ops_per_s": statistics.median(rates[1]),
        "ops_per_s.2w": statistics.median(rates[2]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return metrics, detail


# -- window ------------------------------------------------------------------------


def child_window(offset: int) -> None:
    """Child process: set-up, then (on "go") one cold window build and its
    density sub-windows, as `deltatorus sprime --density-bins` does."""
    t0 = time.perf_counter()
    import_package()
    from deltatorus import lattice, sprime

    table = lattice.enumerate_spectrum(2, WINDOW_TABLE_MAX)
    print(json.dumps({"setup_s": time.perf_counter() - t0}), flush=True)
    sys.stdin.readline()
    params = window_params()
    lo, hi = WINDOW_LO + offset, WINDOW_HI + offset
    start = time.monotonic()
    win = sprime.build_window(table, lo, hi, params)
    cold = time.monotonic()
    subs = [sprime.build_window(table, a, b, params) for a, b in density_edges(lo, hi)]
    end = time.monotonic()
    print(json.dumps({
        "start": start,
        "end": end,
        "cold_s": cold - start,
        "warm_s": end - cold,
        "norms": len(win.members) + sum(len(s.members) for s in subs),
        "accepted": win.accepted,
        "density": [s.density for s in subs],
        "peak_rss_mb": peak_rss_mb(),
    }), flush=True)


def window_round(offset: int, workers: int) -> list[dict]:
    """Start `workers` window children at once; they build after all are set up."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--child", "window", "--offset", str(offset)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(workers)
    ]
    try:
        ready = [json.loads(p.stdout.readline()) for p in procs]
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        done = [json.loads(p.stdout.readline()) for p in procs]
    finally:
        for p in procs:
            with contextlib.suppress(OSError):  # the child may already be gone
                p.stdin.close()
            try:
                p.wait(timeout=60)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()
    for rec, rdy in zip(done, ready):
        rec["setup_s"] = rdy["setup_s"]
    return done


def window_workload(seed: int, seconds: float, tally: Tally):
    from deltatorus import lattice, sprime

    offset = window_offset(seed)
    setup, rates, cold, warm, results = [], {1: [], 2: []}, [], [], []
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 3 or time.perf_counter() < deadline:
        for workers in (1, 2):
            try:
                done = window_round(offset, workers)
            except (OSError, ValueError, IndexError, subprocess.SubprocessError):
                traceback.print_exc()
                tally.failed += workers
                tally.attempted += workers
                continue
            norms = sum(d["norms"] for d in done)
            tally.attempted += norms
            span = max(d["end"] for d in done) - min(d["start"] for d in done)
            rates[workers].append(norms / span)
            setup += [d["setup_s"] for d in done]
            cold += [d["cold_s"] for d in done]
            warm += [d["warm_s"] for d in done]
            results += done
        r += 1

    # checks, outside the timed children: criterion 8 at offset 0, the
    # post-hoc re-check of the seeded window, and agreement of every child
    table = lattice.enumerate_spectrum(2, WINDOW_TABLE_MAX)
    params = window_params()
    zero = sprime.build_window(table, WINDOW_LO, WINDOW_HI, params)
    tally.check("window_accepted_at_offset_0", len(zero.accepted) == WINDOW_ACCEPTED_AT_ZERO,
                f"{len(zero.accepted)} accepted")
    win = sprime.build_window(table, WINDOW_LO + offset, WINDOW_HI + offset, params)
    violations = [m for m in win.accepted if not sprime.recheck_conclusion(table, win, m)]
    violations += [m for m in zero.accepted if not sprime.recheck_conclusion(table, zero, m)]
    tally.failed += len(violations)
    tally.check("recheck_conclusion", not violations, f"violations at {violations[:5]}")
    first = results[0]["density"] if results else None
    for d in results:
        tally.check("children_agree", d["accepted"] == win.accepted and d["density"] == first,
                    "a child disagrees with the in-process window")

    detail = {
        "offset": offset,
        "rounds": r,
        "scanned": len(win.members),
        "accepted": len(win.accepted),
        "cold_build_s": statistics.median(cold),
        "density_pass_s": statistics.median(warm),
        "setup_samples_s": setup,
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(rates[1]),
        "ops_per_s.2w": statistics.median(rates[2]),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in results),
    }
    return metrics, detail


# -- traced pass -------------------------------------------------------------------


def traced_run(seed: int, seconds: float, tally: Tally):
    """One 1-worker process recording spans over the window, solver and
    synthetic inputs; returns per-layer metrics, a report and the spans.

    Every --workload runs the same traced pass, so each trace run reports
    the whole per-layer table: a layer that one workload skips would
    otherwise have no samples to report.
    """
    from deltatorus import harness, lattice, reporting, scatterer, sprime
    from deltatorus.greens import TruncationPolicy

    tracers = {name: tracing.Tracer() for name in ("window", "context", "solver", "synthetic")}
    m: dict[str, float] = {}
    deadline = time.perf_counter() + seconds

    # window first, so its first build is the one that fills the shell_vectors cache
    offset = window_offset(seed)
    params = window_params()
    tracer = tracers["window"]
    with tracer.installed(harness, sprime):
        with tracer.span("lattice.enumerate"):
            table = lattice.enumerate_spectrum(2, WINDOW_TABLE_MAX)
        for kind in ("cold", "warm"):
            with tracer.span(f"sprime.window_{kind}"):
                win = sprime.build_window(table, WINDOW_LO + offset, WINDOW_HI + offset, params)
            if kind == "cold":
                cold_spans = list(tracer.spans)
    window_spans = tracer.spans
    tally.attempted += 2 * len(win.members)
    violations = [x for x in win.accepted if not sprime.recheck_conclusion(table, win, x)]
    tally.failed += len(violations)
    tally.check("recheck_conclusion", not violations, f"violations at {violations[:5]}")

    w = tracing.by_name(window_spans, ["lattice.enumerate", "lattice.shell_vectors",
                                       "lattice.annulus_norms", "sprime.gap_condition",
                                       "sprime.coeff_condition", "sprime.window_cold",
                                       "sprime.window_warm"])
    cold_self = {}
    for s, own in zip(cold_spans, tracing.self_times(cold_spans)):
        layer = s[0].split(".", 1)[0]
        cold_self[layer] = cold_self.get(layer, 0.0) + own
    m.update({
        "window.lattice.enumerate_ms": w["lattice.enumerate"]["median_ms"],
        "window.lattice.shell_vectors_ms": w["lattice.shell_vectors"]["median_ms"],
        "window.lattice.shell_vectors_calls": sum(s[0] == "lattice.shell_vectors" for s in cold_spans),
        "window.lattice.annulus_norms_ms": w["lattice.annulus_norms"]["median_ms"],
        "window.sprime.gap_condition_ms": w["sprime.gap_condition"]["median_ms"],
        "window.sprime.coeff_condition_ms": w["sprime.coeff_condition"]["median_ms"],
        "window.sprime.coeff_condition_ms.p90": w["sprime.coeff_condition"]["p90_ms"],
        "window.sprime.window_cold_s": w["sprime.window_cold"]["median_ms"] / 1e3,
        "window.sprime.window_warm_s": w["sprime.window_warm"]["median_ms"] / 1e3,
        "window.sprime.self_s": cold_self.get("sprime", 0.0),
        "window.lattice.self_s": cold_self.get("lattice", 0.0),
        "window.sprime.scanned": len(win.members),
        "window.sprime.accepted": len(win.accepted),
        "window.sprime.accept_ratio": win.density,
    })

    # solver: cold context, untraced reference blocks, then traced N = 8 trials
    tracer = tracers["context"]
    with tracer.installed(harness, sprime):
        with tracer.span("harness.context"):
            ctx = harness.RunContext.build(trial_spec(8, seed, 1, False))
    shells = ctx.shells
    c = tracing.by_name(tracer.spans, ["harness.context", "greens.shellsums"])
    m.update({
        "solver.harness.context_ms": c["harness.context"]["median_ms"],
        "solver.greens.shellsums_ms": c["greens.shellsums"]["median_ms"],
        "solver.greens.points": int(shells.pts.shape[0]),
        "solver.greens.shells": int(shells.shell_ms.size),
    })
    for n in SOLVER_NS:
        harness.run_trials(trial_spec(n, seed, 1, False), threads=1, ctx=ctx)  # warm caches
    base = round_seed(seed, 0)
    untraced = {}
    for n, workers in ((2, 1), (4, 1), (8, 1), (8, 2)):
        spec = trial_spec(n, base, SOLVER_BLOCK, False)
        _, dt = run_block(spec, workers, ctx, tally)
        untraced[f"n{n}" + ("_2t" if workers == 2 else "")] = spec.trials / dt
    for key, rate in untraced.items():
        m[f"solver.harness.trials_per_s.{key}"] = rate
    m["solver.harness.scaling_eff_2t"] = untraced["n8_2t"] / (2.0 * untraced["n8"])

    # each N = 8 block runs untraced, then traced: the pairs give the overhead
    tracer = tracers["solver"]
    results, ratios, r = [], [], 0
    while r < 2 or time.perf_counter() < deadline:
        spec = trial_spec(8, round_seed(seed, r), SOLVER_BLOCK, False)
        _, plain_s = run_block(spec, 1, ctx, tally)
        with tracer.installed(harness, sprime), tracer.shells_traced(shells):
            block, traced_s = run_block(spec, 1, ctx, tally)
        results += block or []
        ratios.append(traced_s / plain_s)
        r += 1
    solver_spans = tracer.spans
    m["solver.harness.trace_overhead"] = statistics.median(ratios) - 1.0
    errors = tracing.nesting_errors(solver_spans)
    tally.check("span_self_times_add_up", not errors, "; ".join(errors[:3]))
    names = ["harness.trial", "harness.sample", "scatterer.workspace", "greens.weights_many",
             "scatterer.roots", "scatterer.smin_grid", "measure.assemble", "measure.split",
             "measure.functional_a", "measure.functional_b", "measure.functional_c",
             "measure.error"]
    s = tracing.by_name(solver_spans, names)
    trials = tracing.per_trial(solver_spans)
    pairs = 8 * 7 // 2
    m.update({
        "solver.harness.trials": len(trials),
        "solver.harness.trial_ms": s["harness.trial"]["median_ms"],
        "solver.harness.trial_ms.p90": s["harness.trial"]["p90_ms"],
        "solver.harness.sample_ms": s["harness.sample"]["median_ms"],
        "solver.scatterer.workspace_ms": s["scatterer.workspace"]["median_ms"],
        "solver.scatterer.workspace_ms.p90": s["scatterer.workspace"]["p90_ms"],
        "solver.greens.weights_many_ms": s["greens.weights_many"]["median_ms"],
        "solver.greens.weights_many_bytes": shells.pts.shape[0] * pairs * 8,
        "solver.scatterer.roots_ms": s["scatterer.roots"]["median_ms"],
        "solver.scatterer.roots_ms.p90": s["scatterer.roots"]["p90_ms"],
        "solver.scatterer.smin_grid_ms": s["scatterer.smin_grid"]["median_ms"],
        "solver.scatterer.smin_calls": statistics.median(
            t["calls"].get("scatterer.smin", 0) for t in trials),
        "solver.scatterer.matrix_calls": statistics.median(
            t["calls"].get("scatterer.matrix", 0) for t in trials),
        "solver.scatterer.roots_per_trial": statistics.fmean(x.root_count for x in results),
        "solver.scatterer.root_fill": statistics.fmean(x.root_count for x in results) / 8,
        "solver.measure.assemble_ms": s["measure.assemble"]["median_ms"],
        "solver.measure.assemble_bytes": shells.pts.shape[0] * 8 * 16,
        "solver.measure.split_ms": s["measure.split"]["median_ms"],
        "solver.measure.functional_a_ms": s["measure.functional_a"]["median_ms"],
        "solver.measure.functional_b_ms": s["measure.functional_b"]["median_ms"],
        "solver.measure.functional_c_ms": s["measure.functional_c"]["median_ms"],
        "solver.measure.error_ms": s["measure.error"]["median_ms"],
    })
    for layer in ("harness", "greens", "scatterer", "measure"):
        m[f"solver.{layer}.self_ms"] = statistics.median(
            t["self_ms"].get(layer, 0.0) for t in trials)

    tracer = tracers["context"]
    with tracer.span("reporting.trials_csv"):
        text = reporting.trials_csv_text(results, ctx.zetas)
    with tracer.span("reporting.json"):
        reporting.dumps_json({"trials": len(results), "err_quantiles": harness.err_quantiles(results)})
    rep = tracing.by_name(tracer.spans, ["reporting.trials_csv", "reporting.json"])
    m.update({
        "solver.reporting.trials_csv_ms": rep["reporting.trials_csv"]["median_ms"],
        "solver.reporting.trials_csv_bytes": len(text.encode()),
        "solver.reporting.json_ms": rep["reporting.json"]["median_ms"],
    })

    # synthetic: the same context with fixed unit coefficients
    tracer = tracers["synthetic"]
    ratios = []
    for r in range(3):
        spec = trial_spec(SYNTHETIC_N, round_seed(seed, r), SYNTHETIC_BLOCK, True)
        _, plain_s = run_block(spec, 1, ctx, tally)
        with tracer.installed(harness, sprime), tracer.shells_traced(shells):
            _, traced_s = run_block(spec, 1, ctx, tally)
        ratios.append(traced_s / plain_s)
    syn_spans = tracer.spans
    errors = tracing.nesting_errors(syn_spans)
    tally.check("span_self_times_add_up", not errors, "; ".join(errors[:3]))
    names = ["harness.trial", "measure.assemble", "measure.split", "measure.functional_a",
             "measure.functional_b", "measure.functional_c", "measure.error"]
    y = tracing.by_name(syn_spans, names)
    trials = tracing.per_trial(syn_spans)
    m.update({
        "synthetic.harness.trials": len(trials),
        "synthetic.harness.trial_ms": y["harness.trial"]["median_ms"],
        "synthetic.harness.trial_ms.p90": y["harness.trial"]["p90_ms"],
        "synthetic.harness.trace_overhead": statistics.median(ratios) - 1.0,
        "synthetic.measure.assemble_ms": y["measure.assemble"]["median_ms"],
        "synthetic.measure.assemble_bytes": shells.pts.shape[0] * SYNTHETIC_N * 16,
        "synthetic.measure.split_ms": y["measure.split"]["median_ms"],
        "synthetic.measure.functional_a_ms": y["measure.functional_a"]["median_ms"],
        "synthetic.measure.functional_b_ms": y["measure.functional_b"]["median_ms"],
        "synthetic.measure.functional_c_ms": y["measure.functional_c"]["median_ms"],
        "synthetic.measure.error_ms": y["measure.error"]["median_ms"],
        "synthetic.scatterer.spans": sum(sp[0].startswith("scatterer.") for sp in syn_spans),
    })
    for layer in ("harness", "measure"):
        m[f"synthetic.{layer}.self_ms"] = statistics.median(
            t["self_ms"].get(layer, 0.0) for t in trials)

    # truncation drift of the lowest root, R against 2R (outside every timed block)
    policy_2r = TruncationPolicy.by_radius(2 * ctx.radius_sq)
    gap = ctx.interval.next - ctx.interval.center
    drift = 0.0
    for t in range(DRIFT_TRIALS):
        pos = harness.sample_positions(seed, t, 4, 2)
        config = trial_spec(4, seed, 1, False).config_for(pos)
        lows = []
        for policy in (TruncationPolicy.by_radius(ctx.radius_sq), policy_2r):
            roots = scatterer.find_new_eigenvalues(config, ctx.interval, policy)
            lows.append(roots[0].lambda_norm if roots else math.nan)
        tally.check("root_drift_roots_found", not any(map(math.isnan, lows)), f"trial {t}")
        drift = max(drift, abs(lows[0] - lows[1]) / gap)
    m["solver.scatterer.root_drift"] = drift

    report = {
        "absent": sorted(set().union(*(t.absent for t in tracers.values()))),
        "by_name": {name: tracing.by_name(t.spans) for name, t in tracers.items()},
    }
    return m, report, {name: t.spans for name, t in tracers.items()}


# -- main --------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    tally = Tally()
    extra: dict = {}
    if trace:
        values, extra["trace"], spans = traced_run(seed, seconds, tally)
        group = "per_layer"
    else:
        if workload == "window":
            values, extra["detail"] = window_workload(seed, seconds, tally)
        else:
            values, extra["detail"] = trials_workload(workload, seed, seconds, tally)
        group = "end_to_end"
        spans = None
    declared = units[group]
    if set(values) != set(declared):
        raise RuntimeError(
            f"benchmark bug: measured {sorted(set(values) ^ set(declared))} "
            f"differ from the {group} metrics of BENCHMARK.json"
        )
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(), "checks": tally.checks, "notes": tally.notes,
        "result": result, **extra,
    }
    if spans is not None:
        report["span_fields"] = ["name", "start_s", "end_s", "parent", "trial"]
        report["spans"] = spans
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report))
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a process of its own: a child process inherits its
    parent's ru_maxrss, so sharing one process would leak one workload's
    memory into the next one's peak_rss_mb."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workload": name, **results[name]}), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "window"), help=argparse.SUPPRESS)
    ap.add_argument("--offset", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child == "setup":
        child_setup(args.workload, args.seed)
        return 0
    if args.child == "window":
        child_window(args.offset)
        return 0

    import_package()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail_setup(f"no BENCHMARK.json in {ROOT}")
    units = load_metric_units()
    print(json.dumps({"env": environment()}))
    if args.workload == "all" and not args.trace:
        return run_all(args.seed, args.seconds)
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace), units)))
    return 0

if __name__ == "__main__":
    sys.exit(main())
