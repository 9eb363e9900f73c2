"""The three benchmark workloads: inputs, timed operations and checks.

A workload builds its inputs from the seed, then exposes a fixed list of
operations that together form one round.  The benchmark repeats whole
rounds on the same inputs, so every round must give bitwise the same
output and the AMSE of a run is that of one round.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib

import numpy as np

from cgsws import baselines, bench, cli, sampler, transform
from cgsws.distributions import make_rng

import checks


@dataclasses.dataclass
class Operation:
    """One timed call into the program; ``run`` returns None on failure."""

    label: str
    signals: int
    run: object


@dataclasses.dataclass
class Outcome:
    """What a round produced, gathered after its timed part."""

    mses: list
    outputs: list
    detail: list


def _truth(signal, n, snr):
    return bench.rescale_snr(bench.make_test_signal(signal, n), snr)


def _bench_call(spec):
    return lambda: bench.run_benchmark(spec, workers=1)


def _replicate_input(spec):
    """Noisy input of replicate 0 of a cell, from the noise stream bench documents (2r)."""
    truth = _truth(spec.signal, spec.n, spec.snr)
    return truth, truth + make_rng(spec.seed, 0).standard_normal(spec.n)


class DenoiseLarge:
    """``cgsws denoise`` in-process on noisy bumps, one signal per call."""

    name = "denoise-large"

    def __init__(self, n=4096, snr=3.0, signals=4, iters=1000, burnin=500):
        self.n, self.snr, self.signals = n, snr, signals
        self.iters, self.burnin = iters, burnin

    def setup(self, seed, workdir):
        workdir = pathlib.Path(workdir)
        self.truth = _truth("bumps", self.n, self.snr)
        rng = np.random.default_rng([seed, 1])
        self.noisy = [self.truth + rng.standard_normal(self.n)
                      for _ in range(self.signals)]
        self.probe_signal = self.noisy[0]
        self.outputs_at, self.operations = [], []
        for i, y in enumerate(self.noisy):
            src, out = workdir / f"noisy-{i}.csv", workdir / f"denoised-{i}.csv"
            np.savetxt(src, y, fmt="%.17g")
            argv = ["denoise", str(src), "--output", str(out),
                    "--iters", str(self.iters), "--burnin", str(self.burnin),
                    "--seed", str(seed)]
            self.outputs_at.append(out)
            self.operations.append(Operation(f"denoise-{i}", 1, self._call(argv)))
        # warm-up: every layer of the path once, on a short chain
        cli.main(["denoise", str(workdir / "noisy-0.csv"),
                  "--output", str(workdir / "warmup.csv"),
                  "--iters", "20", "--burnin", "10", "--seed", str(seed)])

    @staticmethod
    def _call(argv):
        return lambda: cli.main(argv) == 0 or None

    def collect(self, results):
        mses, outputs, detail = [], [], []
        for ok, out in zip(results, self.outputs_at):
            if ok is None:
                mses.append(math.nan)
                continue
            est = np.loadtxt(out)
            sidecar = out.with_suffix(".json").read_text()
            mses.append(checks.mse(est, self.truth))
            outputs.append(est)
            detail.append((est, sidecar))
        return Outcome(mses, outputs, detail)

    def check(self, outcome):
        fails = []
        for i, ((est, sidecar), y) in enumerate(zip(outcome.detail, self.noisy)):
            fails += [f"signal {i}: {f}"
                      for f in checks.check_denoised(est, self.truth, y, sidecar)]
        return fails


class AmseCell:
    """``bench.run_benchmark`` cells of the Gibbs smoother: many short chains.

    The 32 replicates run as four cells of eight with spec seeds 4*seed + k,
    so that the machine's speed is sampled between operations of about a
    second and a half; one cell of 32 would take six seconds.
    """

    name = "amse-cell"

    def __init__(self, n=256, cells=4, reps=8, iters=500, burnin=250):
        self.n, self.cells, self.reps = n, cells, reps
        self.iters, self.burnin = iters, burnin

    def setup(self, seed, workdir):
        config = sampler.SamplerConfig(iters=self.iters, burnin=self.burnin)
        self.specs = [bench.BenchmarkSpec(signal="doppler", n=self.n, snr=5.0,
                                          reps=self.reps, method="cgsws",
                                          seed=self.cells * seed + k, sampler=config)
                      for k in range(self.cells)]
        self.probe_signal = _replicate_input(self.specs[0])[1]
        self.operations = [Operation(f"doppler-{s.seed}", s.reps, _bench_call(s))
                           for s in self.specs]
        bench.run_benchmark(dataclasses.replace(
            self.specs[0], reps=1, sampler=sampler.SamplerConfig(iters=20, burnin=10)))

    def collect(self, results):
        mses, outputs = [], []
        for res in results:
            if res is None:
                mses += [math.nan] * self.reps
                continue
            mses += list(res.mses)
            outputs.append(res.mses)
        return Outcome(mses, outputs, [])

    def check(self, outcome):
        return checks.check_reference_amse(outcome.mses)


class Baselines:
    """``cmws-hard`` and ``ceb`` cells over the four test signals; no sampler."""

    name = "baselines"

    def __init__(self, n=4096, snr=3.0, hard_reps=60):
        self.n, self.snr, self.hard_reps = n, snr, hard_reps

    def setup(self, seed, workdir):
        self.specs = [bench.BenchmarkSpec(signal=signal, n=self.n, snr=self.snr,
                                          reps=reps, method=method, seed=seed)
                      for signal in sorted(bench.SIGNALS)
                      for method, reps in (("cmws-hard", self.hard_reps), ("ceb", 1))]
        self.probe_signal = _replicate_input(self.specs[0])[1]
        self.operations = [Operation(f"{s.method}-{s.signal}", s.reps, _bench_call(s))
                           for s in self.specs]
        # warm-up: each cmws-hard cell once; one small ceb fit loads the optimiser
        for spec in self.specs:
            if spec.method == "cmws-hard":
                bench.run_benchmark(dataclasses.replace(spec, reps=1))
            else:
                ceb = spec
        bench.run_benchmark(dataclasses.replace(ceb, reps=1, n=64))

    def collect(self, results):
        mses, outputs, detail = [], [], []
        for res, spec in zip(results, self.specs):
            if res is None:
                mses += [math.nan] * spec.reps
                continue
            mses += list(res.mses)
            outputs.append(res.mses)
            detail.append(res)
        return Outcome(mses, outputs, detail)

    def check(self, outcome):
        filters = transform.load_filters("scd3")
        j0 = transform.default_coarsest_level(self.n)
        diag = checks.dense_diag_selfprod(self.n, j0, transform.forward, filters)
        shapes = checks.noise_shape_from_diag(diag, j0)
        noise = transform.noise_scale(self.n, j0, filters)
        fails = checks.check_noise_shape(noise.sigma, shapes)
        fails += checks.check_amse_below_one(outcome.mses)
        lam = checks.universal_threshold(self.n)
        for res in outcome.detail:
            spec = res.spec
            label = f"{spec.method} {spec.signal}"
            truth, y = _replicate_input(spec)
            tree = transform.forward(y, j0, filters)
            s2h = max(sampler.estimate_sigma2_mad(tree), 1e-20)
            if spec.method == "cmws-hard":
                shrunk = baselines.cmws_hard(tree, s2h, noise)
                s2_own = checks.mad_sigma2(np.asarray(tree.details[-1]))
                fails += [f"{label}: {f}" for f in checks.check_keep_or_kill(
                    tree.details, shrunk.details, s2_own, shapes, lam)]
            else:
                shrunk = baselines.ceb_posterior_mean(tree, s2h, noise)
                fails += [f"{label}: {f}" for f in checks.check_no_enlargement(
                    tree.details, shrunk.details, shapes)]
            est, _ = transform.inverse(shrunk, filters)
            err = checks.mse(est, truth)
            if not math.isclose(err, float(res.mses[0]), rel_tol=1e-12):
                fails.append(f"{label}: replicate 0 gave MSE {res.mses[0]:.6g}, "
                             f"recomputed {err:.6g}")
            fails += checks.check_beats_input(err, checks.mse(y, truth), label)
        return fails


def build(name, tiny=False):
    """The named workload at full size, or at a size for quick tests."""
    if name == "denoise-large":
        return DenoiseLarge(n=1024, signals=1, iters=40, burnin=20) if tiny else DenoiseLarge()
    if name == "amse-cell":
        return AmseCell(cells=2, reps=1, iters=40, burnin=20) if tiny else AmseCell()
    if name == "baselines":
        return Baselines(n=256, hard_reps=2) if tiny else Baselines()
    raise KeyError(name)
