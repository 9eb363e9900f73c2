"""Spans and counters recorded from outside the program, and the sweep probe.

The tracer replaces public functions of the ``cgsws`` modules with
wrappers that record a span (name, start, end, parent, operation) per
call, in every ``cgsws`` namespace that holds the function, and puts the
originals back on exit.  Spans stay in memory until the run ends.

``run_chain`` calls the five sweep updates through a private table, so
wrapping the public ``update_*`` functions would not see those calls.
:func:`probe_sweeps` instead drives ``init_state`` and the updates itself,
in sweep order, on a model built from the workload's own input.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import statistics
import sys
import time
import warnings

import numpy as np

import cgsws
from cgsws import sampler, transform
from cgsws.distributions import make_rng

# public entry points wrapped in spans, by module (= layer)
SPANNED = {
    "cli": ("main",),
    "bench": ("run_benchmark",),
    "sampler": ("denoise", "elicit", "run_chain", "estimate_sigma2_mad"),
    "transform": ("load_filters", "forward", "inverse", "noise_scale"),
    "baselines": ("cmws_hard", "ceb_posterior_mean"),
}
LAYERS = ("cli", "bench", "sampler", "transform", "baselines")

SWEEP_STEPS = (
    ("sigma2", "update_sigma2"),
    ("z_eps", "update_z_eps"),
    ("theta", "update_theta"),
    ("v", "update_v"),
    ("C", "update_C"),
)


def _cgsws_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cgsws" or name.startswith("cgsws."))]


class Patcher:
    """Swap an object for a replacement in every cgsws namespace; undo on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in _cgsws_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def set_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _lookup(layer, name):
    module = getattr(cgsws, layer, None)
    fn = getattr(module, name, None)
    if fn is None:
        print(f"trace: cgsws.{layer}.{name} not found; not traced", file=sys.stderr)
    return fn


class Tracer:
    """Span recorder and boundary counters for one traced phase."""

    def __init__(self):
        self.spans = []      # [name, op, parent, start, end]
        self._stack = []
        self.op = -1         # id of the operation in progress, shared by its spans
        self.counts = collections.Counter()
        self._patcher = Patcher()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
        return traced

    def _ceb_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, return_params=False, **kwargs):
            out, fits = fn(*args, return_params=True, **kwargs)
            counts["ceb_fits"] += len(fits)
            counts["ceb_unconverged"] += sum(not f.converged for f in fits)
            return (out, fits) if return_params else out
        return counted

    def _noise_scale_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["noise_scale_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self):
        for layer, names in SPANNED.items():
            for name in names:
                fn = _lookup(layer, name)
                if fn is None:
                    continue
                inner = fn
                if (layer, name) == ("baselines", "ceb_posterior_mean"):
                    inner = self._ceb_counter(fn)
                elif (layer, name) == ("transform", "noise_scale"):
                    inner = self._noise_scale_counter(fn)
                self._patcher.replace(fn, self._wrap(f"{layer}.{name}", inner))
        model = getattr(sampler, "GibbsModel", None)
        if model is not None:
            self._patcher.set_attr(model, "__init__",
                                   self._wrap("sampler.GibbsModel", model.__init__))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    # -- summaries ---------------------------------------------------------

    def self_seconds(self):
        """Per-layer self time: span durations minus what child spans cover."""
        covered = collections.Counter()
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            layer = name.split(".")[0]
            per_layer[layer] += (end - start) - covered[i]
        return per_layer

    def mean_us(self, name):
        durations = [end - start for n, _, _, start, end in self.spans if n == name]
        return 1e6 * sum(durations) / len(durations) if durations else 0.0

    def dump(self):
        return {"fields": ["name", "op", "parent", "start", "end"], "spans": self.spans}


@contextlib.contextmanager
def _gig_counter(counts):
    """Count GIG variates and the non-finite ones at the sampler's call site."""
    fn = getattr(sampler, "sample_gig", None)
    patcher = Patcher()
    if fn is not None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            x = np.asarray(fn(*args, **kwargs))
            counts["gig_draws"] += x.size
            counts["gig_nonfinite"] += int(x.size - np.count_nonzero(np.isfinite(x)))
            return x
        patcher.replace(fn, counted)
    else:
        print("trace: cgsws.sampler.sample_gig not found; GIG draws not counted",
              file=sys.stderr)
    try:
        yield
    finally:
        patcher.restore()


def probe_sweeps(signal, seed, timed_sweeps, counted_sweeps, warm_sweeps=50):
    """Time each sweep update on a model built from ``signal``; count guards.

    Timed sweeps run uninstrumented.  A second set of sweeps runs with the
    GIG counter on and RuntimeWarnings recorded, and counts ``v`` entries
    left at the clip bounds after each ``update_v``.
    """
    filters = transform.load_filters("scd3")
    n = len(signal)
    j0 = transform.default_coarsest_level(n)
    tree = transform.forward(signal, j0, filters)
    noise = transform.noise_scale(n, j0, filters)

    def median_us(fn, reps=7):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(times)

    hp = sampler.elicit(tree, noise)
    out = {
        "elicit_us": median_us(lambda: sampler.elicit(tree, noise)),
        "model_us": median_us(lambda: sampler.GibbsModel(tree, noise, hp)),
    }
    model = sampler.GibbsModel(tree, noise, hp)
    state = sampler.init_state(model)
    rng = make_rng(seed, 1)
    steps = [(key, getattr(sampler, name)) for key, name in SWEEP_STEPS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(warm_sweeps):
            for _, step in steps:
                step(state, model, rng)
        per_step = {key: [] for key, _ in steps}
        totals = []
        for _ in range(timed_sweeps):
            t_sweep = time.perf_counter()
            for key, step in steps:
                t0 = time.perf_counter()
                step(state, model, rng)
                per_step[key].append(time.perf_counter() - t0)
            totals.append(time.perf_counter() - t_sweep)

    counts = collections.Counter()
    v_min = getattr(sampler, "_V_MIN", 1e-12)
    v_max = getattr(sampler, "_V_MAX", 1e12)
    with _gig_counter(counts), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(counted_sweeps):
            for key, step in steps:
                step(state, model, rng)
                if key == "v":
                    v = state.v
                    counts["v_clipped"] += int(np.count_nonzero((v <= v_min) | (v >= v_max)))
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)

    for key, samples in per_step.items():
        out[f"{key}_us"] = 1e6 * statistics.median(samples)
    out["sweep_us"] = 1e6 * statistics.median(totals)
    out["coefs"] = model.n_det
    out["gig_draws_per_sweep"] = counts["gig_draws"] / counted_sweeps
    out["gig_nonfinite_per_sweep"] = counts["gig_nonfinite"] / counted_sweeps
    out["v_clipped_per_sweep"] = counts["v_clipped"] / counted_sweeps
    out["warnings_per_sweep"] = warned / counted_sweeps
    return out


def layer_metrics(tracer, signals, probe, overhead_pct):
    """Every per-layer metric as name -> (value, unit)."""
    self_s = tracer.self_seconds()
    counts = tracer.counts
    per_signal = 1.0 / signals
    fits = counts["ceb_fits"]
    m = {f"{layer}.self_s": (self_s[layer] * per_signal, "s/signal")
         for layer in LAYERS}
    m.update({
        "transform.forward_us": (tracer.mean_us("transform.forward"), "us"),
        "transform.inverse_us": (tracer.mean_us("transform.inverse"), "us"),
        "transform.noise_scale_us": (tracer.mean_us("transform.noise_scale"), "us"),
        "transform.noise_scale_calls_per_signal":
            (counts["noise_scale_calls"] * per_signal, "count/signal"),
        "sampler.elicit_us": (probe["elicit_us"], "us"),
        "sampler.model_us": (probe["model_us"], "us"),
        "sampler.sweep_us": (probe["sweep_us"], "us"),
        "sampler.coef_sweeps_per_s": (1e6 * probe["coefs"] / probe["sweep_us"], "1/s"),
        "sampler.v_clipped_per_sweep": (probe["v_clipped_per_sweep"], "count/sweep"),
        "sampler.warnings_per_sweep": (probe["warnings_per_sweep"], "count/sweep"),
        "distributions.gig_draws_per_sweep": (probe["gig_draws_per_sweep"], "count/sweep"),
        "distributions.gig_nonfinite_per_sweep":
            (probe["gig_nonfinite_per_sweep"], "count/sweep"),
        "baselines.ceb_ms": (tracer.mean_us("baselines.ceb_posterior_mean") / 1e3, "ms"),
        "baselines.ceb_unconverged": (counts["ceb_unconverged"] / fits if fits else 0.0,
                                      "1/fit"),
        "baselines.cmws_hard_us": (tracer.mean_us("baselines.cmws_hard"), "us"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    for key in ("sigma2", "z_eps", "theta", "v", "C"):
        m[f"sampler.{key}_us"] = (probe[f"{key}_us"], "us")
    return m
