"""Compare the ``ceb`` level fits of two source trees on 256 levels.

Usage::

    python tests/ceb_survey.py OLD_SRC NEW_SRC [--seeds 8]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts, each
imported under its own name as ``tests/lockstep.py`` does.  The level
set is every detail level of the four test signals at n = 4096 and
SNR 3, with noise ``make_rng(seed, 0)`` for seeds 1 .. SEEDS, at the
scale ``ceb`` fits them (the unit-scale tree divided by the square root
of its MAD variance): 4 x 8 x 8 = 256 levels at the default.  Each tree
fits a signal's levels through its own ``ceb_posterior_mean`` on the
unit-scale tree, so each builds its level data its own way; the new
tree's ``_level_data`` and ``_negloglik`` score both fits, so the
difference is in one objective.

Prints one row per signal and seed, each level's new minus old negative
log likelihood in nats (negative where the new fit is better), then the
worst and best difference, the levels each tree reports converged, and
each tree's total fit time (its ``ceb_posterior_mean`` calls, shrinkage
included).  The two fits of a signal alternate which runs first.  Like
``lockstep.py``, this file is a tool, not a test module.
"""

from __future__ import annotations

import argparse
import itertools
import math
import time
import warnings

import numpy as np

from lockstep import load_tree

SIGNALS = ("blocks", "bumps", "heavisine", "doppler")
N = 4096


def _signal(cg, signal, seed):
    """(unit-scale tree, its sigma2_hat, noise) of one noisy signal."""
    tr = cg.transform
    filters = tr.load_filters("scd3")
    j0 = tr.default_coarsest_level(N)
    truth = cg.rescale_snr(cg.make_test_signal(signal, N), 3.0)
    y = truth + cg.make_rng(seed, 0).standard_normal(N)
    tree, _, s2 = cg.sampler.unit_scale(tr.forward(y, j0, filters))
    return tree, s2, tr.noise_scale(N, j0, filters)


def _score(bl, fit, tree, s2, noise, i):
    """Negative log likelihood of level i's fit, at the scale ``ceb`` fits it."""
    coef = np.asarray(tree.details[i]) / math.sqrt(s2)
    Sg = noise.matrix(tree.j0 + i)
    V = fit.V / s2
    return float(bl._negloglik(bl._logit(fit.eps), V[0, 0], V[0, 1], V[1, 1],
                               bl._level_data(coef.real, coef.imag),
                               Sg[0, 0], Sg[0, 1], Sg[1, 1]))


def survey(old, new, seeds):
    trees = {"old": old, "new": new}
    seconds = dict.fromkeys(trees, 0.0)
    converged = dict.fromkeys(trees, 0)
    diffs = []
    for k, (signal, seed) in enumerate(itertools.product(SIGNALS, range(1, seeds + 1))):
        tree, s2, noise = _signal(new, signal, seed)
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        fits = {}
        for label in order:
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, fits[label] = trees[label].baselines.ceb_posterior_mean(
                    tree, s2, noise, return_params=True)
            seconds[label] += time.perf_counter() - t0
            converged[label] += sum(fit.converged for fit in fits[label])
        row = [_score(new.baselines, new_fit, tree, s2, noise, i)
               - _score(new.baselines, old_fit, tree, s2, noise, i)
               for i, (old_fit, new_fit) in enumerate(zip(fits["old"], fits["new"]))]
        diffs += row
        print(f"{signal:>9} {seed}  " + " ".join(f"{d:+.1e}" for d in row), flush=True)
    diffs = np.array(diffs)
    print(f"levels {diffs.size}: worst {diffs.max():+.2e} nats, best {diffs.min():+.2e} "
          f"nats, {np.count_nonzero(diffs > 1e-6)} worse by more than 1e-6, "
          f"{np.count_nonzero(diffs < -1e-6)} better by more than 1e-6")
    for label in trees:
        print(f"{label}: {converged[label]}/{diffs.size} converged, "
              f"fit time {seconds[label]:.2f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args()
    survey(load_tree(args.old_src, "cgsws_old"), load_tree(args.new_src, "cgsws_new"),
           args.seeds)
