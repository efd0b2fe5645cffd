"""Spans around the calls the benchmark makes into deltatorus.

The tracer records a span at each layer boundary by replacing names in the
caller's namespace (module globals such as ``deltatorus.harness.run_trial``,
or methods on instances the benchmark can reach) with timing wrappers.  No
source module changes.  A span is ``[name, start, end, parent, trial]``:
times are ``time.perf_counter()`` seconds, ``parent`` is the index of the
enclosing span in the same list (or None) and ``trial`` is the trial index
inherited from the enclosing ``harness.trial`` span (or None).  Spans stay
in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

#: names in deltatorus.harness -> span name ("<layer>.<call>")
HARNESS_NAMES = {
    "run_trial": "harness.trial",
    "sample_positions": "harness.sample",
    "find_new_eigenvalues": "scatterer.roots",
    "assemble_field": "measure.assemble",
    "split_annulus": "measure.split",
    "functional_A": "measure.functional_a",
    "functional_B": "measure.functional_b",
    "functional_C": "measure.functional_c",
    "equidistribution_error": "measure.error",
    "enumerate_spectrum": "lattice.enumerate",
}

#: names in deltatorus.sprime -> span name
SPRIME_NAMES = {
    "gap_condition": "sprime.gap_condition",
    "coeff_condition": "sprime.coeff_condition",
    "shell_vectors": "lattice.shell_vectors",
    "annulus_norms": "lattice.annulus_norms",
}

#: methods of each SecularWorkspace the wrapped factory returns -> span name
WORKSPACE_METHODS = {
    "smin": "scatterer.smin",
    "smin_grid": "scatterer.smin_grid",
    "matrix": "scatterer.matrix",
}


class Tracer:
    """Span recorder for a 1-worker pass (one open-span stack)."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trial: int | None = None):
        stack = self._stack
        parent = stack[-1] if stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, trial]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, trial_arg: int | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            trial = args[trial_arg] if trial_arg is not None else None
            with self.span(name, trial):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch(self, owner, attr: str, replacement_for):
        """Replace ``owner.attr`` by ``replacement_for(original)`` until exit.

        A name that no longer exists is recorded as absent, not an error.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            yield
            return
        setattr(owner, attr, replacement_for(original))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, harness, sprime):
        """Wrap every traced name of the harness and sprime namespaces."""
        with contextlib.ExitStack() as stack:
            for attr, name in HARNESS_NAMES.items():
                trial_arg = 1 if attr == "run_trial" else None
                stack.enter_context(
                    self.patch(harness, attr, lambda f, n=name, t=trial_arg: self.wrap(n, f, t))
                )
            for attr, name in SPRIME_NAMES.items():
                stack.enter_context(self.patch(sprime, attr, lambda f, n=name: self.wrap(n, f)))
            stack.enter_context(self.patch(harness, "SecularWorkspace", self._workspace_factory))
            # RunContext.build reaches the greens layer only through ShellSums.get
            stack.enter_context(
                self.patch(
                    harness,
                    "ShellSums",
                    lambda cls: type(
                        "TracedShellSums", (), {"get": staticmethod(self.wrap("greens.shellsums", cls.get))}
                    ),
                )
            )
            yield

    @contextlib.contextmanager
    def shells_traced(self, shells):
        """Wrap ``weights_many`` on one (shared, cached) ShellSums instance."""
        if not hasattr(shells, "weights_many"):
            self.absent.add("ShellSums.weights_many")
            yield
            return
        shells.weights_many = self.wrap("greens.weights_many", shells.weights_many)
        try:
            yield
        finally:
            del shells.weights_many

    def _workspace_factory(self, cls):
        def make(*args, **kwargs):
            with self.span("scatterer.workspace"):
                ws = cls(*args, **kwargs)
            for attr, name in WORKSPACE_METHODS.items():
                if hasattr(ws, attr):
                    setattr(ws, attr, self.wrap(name, getattr(ws, attr)))
                else:
                    self.absent.add(f"SecularWorkspace.{attr}")
            return ws

        return make


# -- reading the spans -------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def nesting_errors(spans: list[list], root: str = "harness.trial") -> list[str]:
    """Spans outside their parent, overlapping siblings, and ``root`` spans
    whose subtree self times do not add up to the span itself."""
    errors = []
    children: dict[int, list[int]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent is None:
            continue
        children.setdefault(parent, []).append(i)
        p = spans[parent]
        if start < p[1] or end > p[2]:
            errors.append(f"{name} span {i} lies outside its parent {p[0]}")
    for parent, kids in children.items():
        kids.sort(key=lambda i: spans[i][1])
        for a, b in zip(kids, kids[1:]):
            if spans[b][1] < spans[a][2]:
                errors.append(f"sibling spans {a} and {b} overlap")
    selfs = self_times(spans)

    def subtree_self(i):
        return selfs[i] + sum(subtree_self(k) for k in children.get(i, ()))

    for i, s in enumerate(spans):
        if s[0] == root:
            dur = s[2] - s[1]
            if abs(subtree_self(i) - dur) > 1e-9 + 1e-9 * dur:
                errors.append(f"self times under {root} span {i} do not add up to it")
    return errors


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def by_name(spans: list[list], names=None) -> dict[str, dict]:
    """Per span name (default: every name present): call count and the
    median and p90 duration per call (ms)."""
    groups: dict[str, list[float]] = {}
    for s in spans:
        groups.setdefault(s[0], []).append(1e3 * (s[2] - s[1]))
    out = {}
    for name in groups if names is None else names:
        dur = groups.get(name, [])
        out[name] = {
            "n": len(dur),
            "median_ms": statistics.median(dur) if dur else 0.0,
            "p90_ms": percentile(dur, 90) if dur else 0.0,
        }
    return out


def per_trial(spans: list[list], root: str = "harness.trial") -> list[dict]:
    """Per ``root`` span: self time by layer (ms) and call count by span name
    over the span and everything under it."""
    owner: list[int | None] = []
    for i, s in enumerate(spans):
        owner.append(i if s[0] == root else (owner[s[3]] if s[3] is not None else None))
    selfs = self_times(spans)
    trials: dict[int, dict] = {}
    for s, own, key in zip(spans, selfs, owner):
        if key is None:
            continue
        t = trials.setdefault(key, {"self_ms": {}, "calls": {}})
        layer = s[0].split(".", 1)[0]
        t["self_ms"][layer] = t["self_ms"].get(layer, 0.0) + 1e3 * own
        t["calls"][s[0]] = t["calls"].get(s[0], 0) + 1
    return list(trials.values())
