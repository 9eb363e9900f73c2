"""Compare the ``ceb`` level fits of two source trees on 256 levels.

Usage::

    python tests/ceb_survey.py OLD_SRC NEW_SRC [--seeds 8]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts, each
imported under its own name as ``tests/lockstep.py`` does.  The level
set is every detail level of the four test signals at n = 4096 and
SNR 3, with noise ``make_rng(seed, 0)`` for seeds 1 .. SEEDS, at the
scale ``ceb`` fits them (the unit-scale tree divided by the square root
of its MAD variance): 4 x 8 x 8 = 256 levels at the default.  Both trees
fit each level with their own ``_fit_level``, and the new tree's
``_mixture`` scores both fits, so the difference is in one objective.

Prints one row per signal and seed, each level's new minus old negative
log likelihood in nats (negative where the new fit is better), then the
worst and best difference, the levels each tree reports converged, and
each tree's total fit time.  The two fits of a level alternate which
runs first.  Like ``lockstep.py``, this file is a tool, not a test
module.
"""

from __future__ import annotations

import argparse
import math
import time
import warnings

import numpy as np

from lockstep import load_tree

SIGNALS = ("blocks", "bumps", "heavisine", "doppler")
N = 4096


def _levels(cg, signal, seed):
    """[(coef, data, na, nb, nc)] of one noisy signal's detail levels."""
    tr = cg.transform
    filters = tr.load_filters("scd3")
    j0 = tr.default_coarsest_level(N)
    truth = cg.rescale_snr(cg.make_test_signal(signal, N), 3.0)
    y = truth + cg.make_rng(seed, 0).standard_normal(N)
    tree, _, s2 = cg.sampler.unit_scale(tr.forward(y, j0, filters))
    noise = tr.noise_scale(N, j0, filters)
    out = []
    for i, level in enumerate(tree.details):
        coef = np.asarray(level) / math.sqrt(s2)
        Sg = noise.matrix(j0 + i)
        out.append((coef, cg.baselines._level_data(coef.real, coef.imag),
                    Sg[0, 0], Sg[0, 1], Sg[1, 1]))
    return out


def _score(bl, fit, data, na, nb, nc):
    """Negative log likelihood of a fit's (eps, V)."""
    V = fit.V
    return float(bl._mixture(bl._logit(fit.eps), V[0, 0], V[0, 1], V[1, 1],
                             data, na, nb, nc)[0])


def survey(old, new, seeds):
    trees = {"old": old, "new": new}
    seconds = dict.fromkeys(trees, 0.0)
    converged = dict.fromkeys(trees, 0)
    diffs = []
    for signal in SIGNALS:
        for seed in range(1, seeds + 1):
            row = []
            for k, (coef, data, na, nb, nc) in enumerate(_levels(new, signal, seed)):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                fits = {}
                for label in order:
                    t0 = time.perf_counter()
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        fits[label] = trees[label].baselines._fit_level(
                            coef, data, na, nb, nc)
                    seconds[label] += time.perf_counter() - t0
                    converged[label] += fits[label].converged
                old_val, new_val = (_score(new.baselines, fits[label], data, na, nb, nc)
                                    for label in trees)
                row.append(new_val - old_val)
            diffs += row
            print(f"{signal:>9} {seed}  " + " ".join(f"{d:+.1e}" for d in row),
                  flush=True)
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
