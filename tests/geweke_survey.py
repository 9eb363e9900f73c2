"""Compare the Geweke check of two source trees over a range of seeds.

Usage::

    python tests/geweke_survey.py OLD_SRC NEW_SRC [--seeds 20] [--draws 100000]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts, each
imported under its own name as ``tests/lockstep.py`` does.  For seeds
0 .. SEEDS-1, each tree runs ``geweke_harness(draws, seed)`` and the
survey prints one row per seed with both trees' max |z| and the
statistic it falls on, then each tree's largest max |z| over the seeds.
A change to the random stream of the sweep should leave the new column
as clean as the old one.  Like ``lockstep.py``, this file is a tool, not
a test module.
"""

from __future__ import annotations

import argparse

import numpy as np

from lockstep import load_tree


def _worst(report):
    """(max |z|, the name of the statistic it falls on) of a Geweke report."""
    k = int(np.argmax(np.abs(report.z_scores)))
    return report.max_abs_z, report.names[k]


def survey(trees, seeds, draws):
    worst = {label: 0.0 for label in trees}
    print(f"draws {draws}")
    print("seed  " + "  ".join(f"{label:>24}" for label in trees))
    for seed in range(seeds):
        cells = []
        for label, cg in trees.items():
            z, name = _worst(cg.geweke_harness(draws=draws, seed=seed))
            worst[label] = max(worst[label], z)
            cells.append(f"{z:6.2f} {name:>17}")
        print(f"{seed:4d}  " + "  ".join(cells), flush=True)
    print("max   " + "  ".join(f"{worst[label]:6.2f} {'':>17}" for label in trees))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--draws", type=int, default=100_000)
    args = parser.parse_args()
    survey({"old": load_tree(args.old_src, "cgsws_old"),
            "new": load_tree(args.new_src, "cgsws_new")}, args.seeds, args.draws)
