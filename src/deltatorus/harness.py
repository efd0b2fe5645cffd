"""Seeded Monte Carlo over scatterer configurations.

Positions are drawn from a counter-based generator (Philox, keyed by the
run seed with the trial index in the counter word), so trial t is the same
bit pattern no matter how many worker processes execute the run or in what
order.  More than one worker means the calling process runs one share of
the trials and forked child processes, kept between runs on the same
context, run the others (``run_trials``).  Each trial solves (or
synthesizes) one superposition in a fixed spectral gap, assembles its
Fourier field and evaluates the functionals; aggregation is a commutative
reduction followed by a sort on trial index.

Also home to the scaling arithmetic relating torus size, energy and
density, which is exact over Fractions.
"""

from __future__ import annotations

import atexit
import math
import numbers
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NonSPrimeError, NumericError, ValidationError
from .greens import ShellSums, SpectralParameter
from .lattice import FOUR_PI_SQ, GapTriple, _check_dim, enumerate_spectrum
from .measure import (
    Observable,
    _complement_weights,
    assemble_field,
    equidistribution_error,
    functional_A,
    functional_B,
    functional_C,
    pair_with_observable,
    sigma_sum,
    split_annulus,
)
from .scatterer import (
    ScattererConfig,
    SecularWorkspace,
    check_solver_tol,
    common_phase,
    find_new_eigenvalues,
)
from .sprime import _n_power

GAMMA_BY_DIM = {2: Fraction(17, 832), 3: Fraction(1, 12)}

#: the observable 1 per dimension: pairing a field with it gives exactly 1
ZERO_MODE = {dim: Observable({(0,) * dim: 1.0}) for dim in GAMMA_BY_DIM}

#: usable trials a run needs before it reports expectations / event frequencies
MIN_EXPECTATION_TRIALS = 30
MIN_EVENT_TRIALS = 500


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def _check_finite(name: str, value) -> None:
    _check_real(name, value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _check_gap_fraction(frac) -> None:
    _check_real("gap fraction", frac)
    if not 0.0 < frac < 1.0:
        raise ValidationError(f"gap fraction must be in (0, 1), got {frac!r}")


def truncation_radius(radius_factor: float, m_center: int) -> int:
    """R = ceil(radius_factor * m_center): every lattice sum of a run is over
    the ball |xi|^2 <= R."""
    _check_real("radius_factor", radius_factor)
    if not (math.isfinite(radius_factor) and radius_factor > 0):
        raise ValidationError(f"radius_factor must be finite and > 0, got {radius_factor!r}")
    try:
        return int(math.ceil(radius_factor * m_center))
    except OverflowError:
        raise ValidationError(
            f"radius_factor * m_k overflows float64 at m_k = {m_center}, radius_factor = {radius_factor}"
        ) from None


def gap_fraction_lambda(interval: GapTriple, frac: float) -> SpectralParameter:
    """The spectral parameter at fraction frac of the gap (m_k, m_{k+1})."""
    _check_gap_fraction(frac)
    return SpectralParameter(interval.center + frac * (interval.next - interval.center))


def sample_positions(seed: int, trial_index: int, n: int, dim: int) -> np.ndarray:
    """N uniform torus points, reproducible from (seed, trial_index) alone.

    Philox4x64 with the seed as key and the trial index in the counter;
    coordinates are drawn row-major, once.  ScattererConfig holds the pair
    rule: two points closer than scatterer.MIN_PAIR_DISTANCE = 1e-9 are a
    ValidationError there.  A draw breaks it with probability below
    N^2 * pi * 1e-18, so positions are never redrawn.
    """
    if n < 1:
        raise ValidationError("need at least one point")
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(trial_index)])
    return np.random.Generator(bg).uniform(size=(n, dim))


@dataclass
class TrialSpec:
    """Full description of one Monte Carlo run."""

    dim: int
    n_scatterers: int
    m_center: int
    seed: int
    trials: int
    phases: list | None = None  # U = e^{i theta} Id: theta per scatterer, all equal; default 0
    delta: float = 0.3  # annulus rule L_0 = (4 pi^2 m_k)^delta
    l0_override: float | None = None
    radius_factor: float = 1.6  # truncation: R = ceil(radius_factor * m_center)
    observable: Observable | None = None
    coefficient_mode: str = "solver"  # or "synthetic"
    synthetic_coeffs: list | None = None  # [[re, im], ...] unit vector
    synthetic_lambda_frac: float = 0.5
    solver_tol: float = 1e-8

    def __post_init__(self):
        for name in ("dim", "n_scatterers", "m_center", "seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        _check_dim(self.dim)
        truncation_radius(self.radius_factor, self.m_center)
        if self.n_scatterers < 1:
            raise ValidationError("n_scatterers must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        for name in ("delta", "l0_override", "synthetic_lambda_frac", "solver_tol"):
            value = getattr(self, name)
            if value is not None or name != "l0_override":
                _check_finite(name, value)
        check_solver_tol(self.solver_tol)
        if self.m_center < 1:
            raise ValidationError(f"m_center must be >= 1, got {self.m_center}")
        self.annulus_width()
        _check_gap_fraction(self.synthetic_lambda_frac)
        if self.coefficient_mode not in ("solver", "synthetic"):
            raise ValidationError(f"unknown coefficient mode {self.coefficient_mode!r}")
        if self.coefficient_mode == "synthetic":
            self.synthetic_d  # built and checked once, read by every trial
        if self.observable is None:
            zero = tuple([0] * self.dim)
            one = tuple([1] + [0] * (self.dim - 1))
            mone = tuple([-1] + [0] * (self.dim - 1))
            self.observable = Observable({zero: 1.0, one: 0.5, mone: 0.5})
        for zeta in self.observable.coeffs:
            if len(zeta) != self.dim:
                raise ValidationError(
                    f"observable mode {','.join(map(str, zeta))} needs {self.dim} components"
                )
        if self.phases is None:
            self.phases = [0.0] * self.n_scatterers
        common_phase(self.phases, self.n_scatterers)

    @cached_property
    def synthetic_d(self) -> np.ndarray:
        """The synthetic coefficient vector: one [re, im] pair of finite reals
        per scatterer, normalized as assemble_field requires.  Built and
        checked once, when the spec is, and read-only."""
        coeffs = self.synthetic_coeffs
        if coeffs is None:
            raise ValidationError("synthetic mode needs synthetic_coeffs")
        if not isinstance(coeffs, (list, tuple)) or len(coeffs) != self.n_scatterers:
            raise ValidationError("synthetic_coeffs must have one entry per scatterer")
        for entry in coeffs:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValidationError(f"synthetic coefficient {entry!r} is not an [re, im] pair")
            for part in entry:
                _check_finite("synthetic coefficient", part)
        d = np.array([complex(re, im) for re, im in coeffs])
        total = float(np.sum(np.abs(d) ** 2))
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"synthetic_coeffs must be normalized, got sum {total}")
        d.flags.writeable = False
        return d

    def annulus_width(self) -> float:
        """L_0: l0_override, else (4 pi^2 m_k)^delta; ValidationError unless
        L_0 > 0 with a finite nonzero square, which sigma_sum divides by."""
        if self.l0_override is None:
            width = _n_power(self.m_center, self.delta, "delta")
        else:
            width = float(self.l0_override)
        if not (width > 0.0 and 0.0 < width * width < math.inf):
            raise ValidationError(f"L_0 must be > 0 with a finite nonzero square, got {width!r}")
        return width

    def config_for(self, positions: np.ndarray) -> ScattererConfig:
        return ScattererConfig(self.dim, positions, phases=np.asarray(self.phases))

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["observable"] = self.observable.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TrialSpec":
        obj = dict(obj)
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown trial spec keys: {', '.join(unknown)}")
        if obj.get("observable") is not None:
            obj["observable"] = Observable.from_json(obj["observable"])
        return cls(**obj)


#: the TrialSpec fields RunContext.build reads; a context serves any spec
#: that agrees with its own on these
CONTEXT_FIELDS = ("dim", "m_center", "radius_factor", "delta", "l0_override", "observable")


@dataclass
class RunContext:
    """Immutable per-run data shared by every trial."""

    spec: TrialSpec
    interval: GapTriple
    width: float  # annulus half-width L_0
    shells: ShellSums
    radius_sq: int
    zetas: list
    sigma: dict
    sigma_bound: dict
    theory_b: float
    theory_c: float
    annulus_covers_gap: bool

    @classmethod
    def build(cls, spec: TrialSpec) -> "RunContext":
        radius_sq = truncation_radius(spec.radius_factor, spec.m_center)
        table = enumerate_spectrum(spec.dim, radius_sq)
        interval = table.gap_triple(spec.m_center)
        width = spec.annulus_width()
        shells = ShellSums.get(spec.dim, radius_sq)
        zetas = spec.observable.nonzero_shifts()
        sigma, bound = {}, {}
        for z in zetas:
            sigma[z], bound[z] = sigma_sum(shells, interval, width, z)
        # the complement functional with unit weights |w|^2 = 1: its
        # expectation-level value at this truncation
        theory_c = math.fsum(_complement_weights(shells, interval, width))
        covers = FOUR_PI_SQ * (interval.next - interval.center) <= width
        return cls(
            spec=spec,
            interval=interval,
            width=width,
            shells=shells,
            radius_sq=radius_sq,
            zetas=zetas,
            sigma=sigma,
            sigma_bound=bound,
            theory_b=1.0 / interval.outer_gap**2,
            theory_c=theory_c,
            annulus_covers_gap=covers,
        )


@dataclass
class TrialResult:
    """One trial's numbers.  Every field is a column of ``trials.csv``, in
    declaration order (a_vals one column per shift), so anything that is
    not a deterministic trial result, such as timings, lives elsewhere."""

    trial_index: int
    no_root: bool = False
    root_count: int = 0
    lambda_norm: float = math.nan
    residual: float = math.nan
    b_val: float = math.nan
    c_val: float = math.nan
    a_vals: dict = field(default_factory=dict)
    a_weighted: float = math.nan  # sum over shifts of |ahat| * A_zeta
    norm_sq: float = math.nan
    annulus_sq: float = math.nan
    remainder_sq: float = math.nan
    err: float = math.nan
    envelope: float = math.nan
    chain_c_ok: bool = False
    chain_b_ok: bool = False
    chain_ratio_ok: bool = False
    pair_one_exact: bool = False
    near_degenerate: bool = False
    endpoint_landing: bool = False
    # threshold events against the running means of preceding usable trials
    event_a_running: bool = False
    event_b_running: bool = False


def run_trial(spec: TrialSpec, trial_index: int, ctx: RunContext) -> TrialResult:
    """Trial trial_index of the run: sample its positions and measure them.
    A NumericError, which stops the run, is raised again with the trial's
    index in front of its message."""
    positions = sample_positions(spec.seed, trial_index, spec.n_scatterers, spec.dim)
    config = spec.config_for(positions)
    try:
        return measure_config(spec, config, ctx, trial_index)
    except NumericError as exc:
        raise NumericError(f"trial {trial_index}: {exc}") from exc


def measure_config(
    spec: TrialSpec, config: ScattererConfig, ctx: RunContext, trial_index: int = 0
) -> TrialResult:
    """Solve (or synthesize) one superposition on config in the run's gap,
    assemble its Fourier field and evaluate every functional.

    The body of each Monte Carlo trial and of ``deltatorus measure``.  The
    solver reads the root count and the lowest root, so no later root is
    solved.  No root gives a result with no_root set; a shift landing on an
    endpoint shell, one with endpoint_landing set and no A values.  The
    field is local to the call, and no later trial writes into its arrays.
    """
    interval = ctx.interval

    if spec.coefficient_mode == "solver":
        ws = SecularWorkspace(config, ctx.radius_sq, interval.center)
        roots = find_new_eigenvalues(
            config, interval, ctx.radius_sq, solver_tol=spec.solver_tol, workspace=ws
        )
        if not roots:
            return TrialResult(trial_index=trial_index, no_root=True)
        root = roots[0]
        lam = SpectralParameter(root.lambda_norm)
        d = root.d
        res = TrialResult(
            trial_index=trial_index,
            root_count=len(roots),
            lambda_norm=root.lambda_norm,
            residual=root.residual,
            near_degenerate=root.near_degenerate,
        )
    else:
        d = spec.synthetic_d
        lam = gap_fraction_lambda(interval, spec.synthetic_lambda_frac)
        res = TrialResult(
            trial_index=trial_index, root_count=1, lambda_norm=lam.lambda_norm,
            residual=0.0,
        )

    field_ = assemble_field(d, config.positions, lam, ctx.radius_sq)
    res.norm_sq = field_.norm_sq
    res.annulus_sq, res.remainder_sq = split_annulus(field_, interval.center, ctx.width)
    res.b_val = functional_B(field_, interval)
    res.c_val = functional_C(field_, interval, ctx.width)
    a_weighted_terms = []
    try:
        for z in ctx.zetas:
            av = functional_A(field_, z, interval, ctx.width)
            res.a_vals[z] = av
            a_weighted_terms.append(abs(spec.observable.coeffs[z]) * av)
        res.a_weighted = math.fsum(a_weighted_terms)
    except NonSPrimeError:
        res.endpoint_landing = True
    res.err, res.envelope = equidistribution_error(
        field_, spec.observable, float(GAMMA_BY_DIM[spec.dim]), spec.n_scatterers
    )
    res.pair_one_exact = pair_with_observable(field_, ZERO_MODE[spec.dim]) == 1.0
    res.chain_c_ok = res.remainder_sq <= res.c_val
    res.chain_b_ok = res.annulus_sq >= res.b_val
    if res.b_val > 0:
        res.chain_ratio_ok = res.remainder_sq / res.norm_sq <= res.c_val / res.b_val
    return res


# the multi-worker pool, kept between calls: (ctx, workers, children), where
# children lists (process, parent end of its pipe) for shares 1 .. workers - 1
_pool = None


class ChildTraceback(Exception):
    """The traceback, as text, of a trial exception raised in a pool child;
    run_trials re-raises that exception from it."""


def _serve(conn, ctx: RunContext) -> None:
    """A pool child: run each (spec, first, step) share it is sent and send
    back its results, or its exception and traceback, until it is sent None."""
    while (task := conn.recv()) is not None:
        spec, first, step = task
        try:
            reply = [run_trial(spec, i, ctx) for i in range(first, spec.trials, step)]
        except Exception as exc:
            import traceback  # about 5 ms, paid only by a failing child

            reply = exc, traceback.format_exc()
        conn.send(reply)


def _drop_pool(kill: bool = False) -> None:
    """Stop the pool's children and forget the pool: idle ones are sent None
    and joined, busy ones killed.  Closing the parent ends would not stop
    them, as each child holds copies of the parent ends of every child
    forked before it."""
    global _pool
    if _pool is None:
        return
    children, _pool = _pool[2], None
    for proc, conn in children:
        if kill:
            proc.kill()
        else:
            try:
                conn.send(None)
            except OSError:
                pass  # the child is gone already
    for proc, conn in children:
        proc.join()
        conn.close()


def _fork_pool(ctx: RunContext, workers: int) -> list:
    """Fork the children that run shares 1 .. workers - 1 of each call."""
    # imported here: it adds about 0.6 MB to every 1-worker process
    import multiprocessing

    mp = multiprocessing.get_context("fork")
    children = []
    for _ in range(workers - 1):
        conn, child_end = mp.Pipe()
        proc = mp.Process(target=_serve, args=(child_end, ctx), daemon=True)
        proc.start()
        # the child's end is now the child's alone, so its death is an
        # EOFError on conn
        child_end.close()
        children.append((proc, conn))
    # registered after multiprocessing's own exit hook, so that it runs
    # first and the children are stopped rather than terminated
    atexit.unregister(_drop_pool)
    atexit.register(_drop_pool)
    return children


def run_trials(spec: TrialSpec, threads: int = 1, ctx: RunContext | None = None):
    """Execute all trials; result list is ordered by trial index.

    With threads > 1 the trials run in workers = min(threads, spec.trials)
    shares, share w taking trials w, w + workers, ...  The calling process
    runs share 0 itself and workers - 1 forked child processes run the
    others, each answering over its own pipe.  The children are kept for
    the next call with the same ctx object and worker count.  The ctx
    reaches each child through the fork, not by pickling, so a child starts
    with every ShellSums cache the parent had filled.  A child that dies is
    a ChildProcessError; a trial's exception reaches the caller with its
    type, and from a child with the child's traceback as its cause (a
    ChildTraceback).  Either drops the children.
    A ctx built for a spec that differs from this one in any of
    CONTEXT_FIELDS is a ValidationError.
    Trials are independent and the running-mean event flags are attached
    afterwards in index order, which keeps the output identical for every
    worker count.
    """
    global _pool
    if ctx is None:
        ctx = RunContext.build(spec)
    differ = [f for f in CONTEXT_FIELDS if getattr(ctx.spec, f) != getattr(spec, f)]
    if differ:
        raise ValidationError(f"the run context was built for another {', '.join(differ)}")
    workers = min(threads, spec.trials)
    if workers <= 1:
        results = [run_trial(spec, i, ctx) for i in range(spec.trials)]
    else:
        if _pool is None or _pool[0] is not ctx or _pool[1] != workers:
            _drop_pool()
            _pool = (ctx, workers, _fork_pool(ctx, workers))
        try:
            for w, (proc, conn) in enumerate(_pool[2], 1):
                try:
                    conn.send((spec, w, workers))
                except BrokenPipeError:
                    raise ChildProcessError(f"trial worker process {proc.pid} died") from None
            results = [run_trial(spec, i, ctx) for i in range(0, spec.trials, workers)]
            for proc, conn in _pool[2]:
                try:
                    reply = conn.recv()
                except EOFError:
                    raise ChildProcessError(f"trial worker process {proc.pid} died") from None
                if isinstance(reply, tuple):
                    exc, tb = reply
                    raise exc from ChildTraceback(tb)
                results += reply
        except BaseException:
            _drop_pool(kill=True)
            raise
    results.sort(key=lambda r: r.trial_index)
    for r, flags in zip(results, running_event_flags(results, c0=2.0)):
        r.event_a_running = flags["event_a"]
        r.event_b_running = flags["event_b"]
    return results, ctx


def _mean_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return math.nan, math.nan
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def usable(results: list[TrialResult]) -> list[TrialResult]:
    """The trials the statistics use: a root was found and no shift landed
    on an endpoint shell."""
    return [r for r in results if not r.no_root and not r.endpoint_landing]


def estimate_expectations(results: list[TrialResult], ctx: RunContext) -> dict:
    """Empirical means with standard errors next to the closed-form columns."""
    used = usable(results)
    if len(used) < MIN_EXPECTATION_TRIALS:
        raise ValidationError(f"need >= {MIN_EXPECTATION_TRIALS} usable trials, got {len(used)}")
    out = {"trials_used": len(used)}
    b_mean, b_se = _mean_se([r.b_val for r in used])
    c_mean, c_se = _mean_se([r.c_val for r in used])
    out["B"] = {
        "mean": b_mean,
        "stderr": b_se,
        "theory": ctx.theory_b,
        "ratio": b_mean / ctx.theory_b,
    }
    out["C"] = {
        "mean": c_mean,
        "stderr": c_se,
        "theory": ctx.theory_c,
        "ratio": c_mean / ctx.theory_c if ctx.theory_c > 0 else math.nan,
    }
    out["A"] = {}
    for z in ctx.zetas:
        vals = [r.a_vals[z] for r in used]
        mean, se = _mean_se(vals)
        theory = ctx.sigma[z]
        out["A"][",".join(str(c) for c in z)] = {
            "mean": mean,
            "stderr": se,
            "theory": theory,
            "ratio": mean / theory if theory > 0 else math.nan,
        }
    out["coeff_sq_at_xi0"] = {
        "mean": b_mean * ctx.interval.outer_gap**2,
        "stderr": b_se * ctx.interval.outer_gap**2,
    }
    return out


def event_frequencies(
    results: list[TrialResult],
    c0_values,
    n_scatterers: int,
    ref_means: dict | None = None,
) -> dict:
    """Frequencies of the threshold events against reference means.

    With ref_means from an independent run (different seed) the counting is
    free of selection bias; otherwise the same sample's means are used.
    Markov's bound 1 - 1/C0 applies to any nonnegative functional; the
    lower-tail event uses the gap functional with threshold mean/3 and
    reference probability 9/(14 N).
    """
    used = usable(results)
    if len(used) < MIN_EVENT_TRIALS:
        raise ValidationError(f"need >= {MIN_EVENT_TRIALS} usable trials, got {len(used)}")
    if ref_means is None:
        a_ref = _mean_se([r.a_weighted for r in used])[0]
        b_ref = _mean_se([r.b_val for r in used])[0]
        c_ref = _mean_se([r.c_val for r in used])[0]
    else:
        a_ref, b_ref, c_ref = ref_means["A_a"], ref_means["B"], ref_means["C"]
    n = len(used)

    def freq_se(k):
        p = k / n
        return p, math.sqrt(p * (1.0 - p) / n)

    out = {
        "trials_used": n,
        "ref_means": {"A_a": a_ref, "B": b_ref, "C": c_ref},
        "markov_A": {},
        "markov_C": {},
    }
    for c0 in c0_values:
        k = sum(1 for r in used if r.a_weighted <= c0 * a_ref)
        p, se = freq_se(k)
        out["markov_A"][f"{c0:g}"] = {"freq": p, "stderr": se, "bound": 1.0 - 1.0 / c0}
        k = sum(1 for r in used if r.c_val <= c0 * c_ref)
        p, se = freq_se(k)
        out["markov_C"][f"{c0:g}"] = {"freq": p, "stderr": se, "bound": 1.0 - 1.0 / c0}
    k = sum(1 for r in used if r.b_val > b_ref / 3.0)
    p, se = freq_se(k)
    out["B_above_third"] = {
        "freq": p,
        "stderr": se,
        "bound": 9.0 / (14.0 * n_scatterers),
    }
    return out


def running_event_flags(results: list[TrialResult], c0: float) -> list[dict]:
    """Per-trial event flags against the running means of usable trials."""
    kept = {r.trial_index for r in usable(results)}
    flags = []
    a_sum = b_sum = 0.0
    count = 0
    for r in sorted(results, key=lambda t: t.trial_index):
        if r.trial_index not in kept:
            flags.append({"event_a": False, "event_b": False})
            continue
        a_sum += r.a_weighted
        b_sum += r.b_val
        count += 1
        flags.append(
            {
                "event_a": r.a_weighted <= c0 * (a_sum / count),
                "event_b": r.b_val > (b_sum / count) / 3.0,
            }
        )
    return flags


def err_quantiles(results: list[TrialResult]) -> dict:
    """Quantiles of the equidistribution error over the trials the means use
    (``usable``); ``landings`` counts the endpoint-landing trials left out."""
    used = sorted(r.err for r in usable(results))
    landings = sum(1 for r in results if r.endpoint_landing)
    if not used:
        return {"median": math.nan, "q10": math.nan, "q90": math.nan, "count": 0,
                "landings": landings}
    arr = np.array(used)
    return {
        "median": float(np.quantile(arr, 0.5)),
        "q10": float(np.quantile(arr, 0.1)),
        "q90": float(np.quantile(arr, 0.9)),
        "count": len(used),
        "landings": landings,
    }


# -- scaling arithmetic ----------------------------------------------------


def _check_positive(name: str, value) -> None:
    _check_finite(name, value)
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")


def scaling_map(energy, length):
    """Spectral parameter of the unit-torus problem: lambda = E * L^2."""
    _check_positive("energy", energy)
    _check_positive("length", length)
    return energy * length * length


def threshold_arithmetic(energy, rho, gamma_d, d: int, eps=0):
    """(alpha_d, beta_d, threshold) with alpha = (2 gamma - eps)/(3d + 4 gamma - eps),
    beta = 1/(3d + 4 gamma - eps), threshold = E^alpha * rho^{-beta}.

    The threshold number doubles as the localization-length lower-bound
    figure.  alpha and beta are Fractions when gamma and eps are both
    exact (Fraction or int), floats otherwise.
    """
    if d not in (2, 3):
        raise ValidationError("dimension must be 2 or 3")
    _check_positive("energy", energy)
    _check_positive("density", rho)
    _check_finite("gamma", gamma_d)
    _check_finite("eps", eps)
    denom = 3 * d + 4 * gamma_d - eps
    if denom <= 0:
        raise ValidationError("exponent denominator must be positive")
    num = 2 * gamma_d - eps
    if num <= 0:
        raise ValidationError("numerator 2*gamma - eps must be positive")
    alpha = num / denom
    beta = 1 / denom
    threshold = float(energy) ** float(alpha) * float(rho) ** (-float(beta))
    return alpha, beta, threshold


def consistency_gamma2(theta):
    """gamma = delta - theta/2 at the extremal delta = 1/2 - theta.

    Exact over Fractions; decreasing in theta.
    """
    return (1 - 2 * theta) / 2 - theta / 2
