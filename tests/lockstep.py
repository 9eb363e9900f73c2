"""Time the Gibbs chains of two source trees sweep by sweep, in one process.

Usage::

    python tests/lockstep.py OLD_SRC NEW_SRC [--workload denoise-large|amse-cell] [--seed N]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Each
tree's ``cgsws`` package is imported under its own name, ``cgsws_old``
and ``cgsws_new``, and both run the chains of one benchmark workload on
the same inputs, built as ``denoise`` builds them:

* ``denoise-large``: four noisy bumps at n = 4096 and SNR 3, with noise
  from ``default_rng([seed, 1])``, each one chain of 1000/500 sweeps on
  ``make_rng(seed, 0)``, as ``cgsws denoise --seed SEED`` runs them;
* ``amse-cell``: four bench cells of eight doppler replicates at n = 256
  and SNR 5, with spec seeds 4 seed + k, each run as one batch of
  500/250 sweeps on the bench cell's streams.

The two chains of an input advance one sweep at a time, and which of
them runs first alternates from sweep to sweep, so both see the same
machine speed.  Prints, per tree, the microseconds per sweep and the
mean active count per chain, then the ratio of old to new time per
sweep and whether the two trees' posterior means of theta agree bit for
bit, and last a table of microseconds per sweep spent in each update and
in the draw of the sweep's blocks, per tree.  Those come from timing
wrappers around the entries of each tree's ``sampler._SWEEP`` and its
``sampler._SweepDraws.draw``, which every sweep runs through; the rest
of a sweep is its own Python and the wrappers' overhead.  Like
``golden.py``, this file is a tool, not a test module.
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import sys
import time

import numpy as np


def load_tree(src, name):
    """Import the ``cgsws`` package under ``src`` as module ``name``."""
    pkg = pathlib.Path(src).resolve() / "cgsws"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def time_sweep_parts(cg):
    """Wrap ``cg``'s sweep updates and block draw with timers; return their totals.

    The dict maps each update's name, and ``"draw"``, to the seconds spent
    in it so far.
    """
    sp = cg.sampler
    totals = {name: 0.0 for name, _ in sp._SWEEP}
    totals["draw"] = 0.0

    def timed(name, fn):
        def run(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                totals[name] += time.perf_counter() - t0
        return run

    sp._SWEEP = tuple((name, timed(name, step)) for name, step in sp._SWEEP)
    # draw is a classmethod inherited from Variates; its bound form keeps the class
    sp._SweepDraws.draw = staticmethod(timed("draw", sp._SweepDraws.draw))
    return totals


def _inputs(cg, workload, seed):
    """[(noisy (n,) or (R, n), maker of its chain generator(s))] and (iters, burnin)."""
    if workload == "denoise-large":
        truth = cg.rescale_snr(cg.make_test_signal("bumps", 4096), 3.0)
        noise = np.random.default_rng([seed, 1])
        return [(truth + noise.standard_normal(4096), lambda: cg.make_rng(seed, 0))
                for _ in range(4)], (1000, 500)
    truth = cg.rescale_snr(cg.make_test_signal("doppler", 256), 5.0)
    cells = []
    for k in range(4):
        cell_seed = 4 * seed + k
        noisy = np.array([truth + cg.make_rng(cell_seed, 2 * r).standard_normal(256)
                          for r in range(8)])
        cells.append((noisy, lambda s=cell_seed: [cg.make_rng(s, 2 * r + 1)
                                                  for r in range(8)]))
    return cells, (500, 250)


class Chain:
    """One tree's chain on one input, built as ``denoise`` builds it."""

    def __init__(self, cg, noisy, rng):
        sp, tr = cg.sampler, cg.transform
        filters = tr.load_filters("scd3")
        n = noisy.shape[-1]
        j0 = tr.default_coarsest_level(n)
        tree, _, _ = sp.unit_scale(tr.forward(noisy, j0, filters))
        noise = tr.noise_scale(n, j0, filters)
        self.model = sp.GibbsModel(tree, noise, sp.elicit(tree, noise))
        self.state = sp.init_state(self.model)
        self.sweep, self.rng = sp.sweep, rng
        self.theta_sum = np.zeros(self.model.d.shape)
        self.seconds = 0.0
        self.active = 0

    def step(self, keep):
        t0 = time.perf_counter()
        self.sweep(self.state, self.model, self.rng)
        self.seconds += time.perf_counter() - t0
        self.active += np.count_nonzero(self.state.z)
        if keep:
            self.theta_sum += self.state.theta


def run(old, new, workload, seed):
    trees = {"old": old, "new": new}
    parts = {label: time_sweep_parts(cg) for label, cg in trees.items()}
    inputs, (iters, burnin) = _inputs(new, workload, seed)
    totals = {label: [0.0, 0] for label in trees}
    sweeps, equal = 0, True
    for noisy, streams in inputs:
        # each tree draws from its own copies of the input's generators
        chains = {label: Chain(cg, noisy, streams()) for label, cg in trees.items()}
        for it in range(iters):
            order = ("old", "new") if it % 2 == 0 else ("new", "old")
            for label in order:
                chains[label].step(it >= burnin)
        chain_count = int(np.prod(chains["new"].model.batch))
        for label, chain in chains.items():
            totals[label][0] += chain.seconds
            totals[label][1] += chain.active / chain_count
        sweeps += iters
        equal &= np.array_equal(chains["old"].theta_sum, chains["new"].theta_sum)
    us = {label: 1e6 * seconds / sweeps for label, (seconds, _) in totals.items()}
    for label in trees:
        print(f"{label}: {us[label]:.1f} us/sweep, "
              f"{totals[label][1] / sweeps:.1f} active per chain")
    print(f"ratio old/new: {us['old'] / us['new']:.3f}")
    print(f"posterior means bitwise equal: {'yes' if equal else 'no'}")
    print(f"{'us/sweep':>10} {'old':>8} {'new':>8} {'old/new':>8}")
    for name in parts["new"]:
        old_us, new_us = (1e6 * parts[label][name] / sweeps for label in trees)
        print(f"{name:>10} {old_us:8.1f} {new_us:8.1f} {old_us / new_us:8.3f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", choices=("denoise-large", "amse-cell"),
                        default="denoise-large")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run(load_tree(args.old_src, "cgsws_old"), load_tree(args.new_src, "cgsws_new"),
        args.workload, args.seed)
