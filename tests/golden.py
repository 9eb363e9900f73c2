"""Write a fixed set of command outputs for byte-for-byte comparison across commits.

Usage::

    python tests/golden.py OUTDIR [--full]

Runs the command line in-process on the ``src`` tree next to this file
and writes into OUTDIR:

* ``denoise`` CSV and JSON sidecar (``wall_time_s`` dropped) for every
  method on bumps/4096, heavisine/1024 and doppler/256 at SNR 3, on a
  300-sample input run with ``--pad``, and on a zero and a constant
  input, all at 600/300 iterations;
* ``bench --out`` CSV and JSON of one cell per method under
  ``--workers 1`` and ``--workers 2``;
* ``transform`` forward dumps of the bumps and heavisine inputs, and the
  inverse of each dump;
* ``selfcheck`` stdout at the quick level, and with ``--full`` also at
  the full level.

Every file depends only on the code and the fixed seeds, so two runs of
one commit agree byte for byte, and ``diff -r`` of two commits' sets
shows which outputs a change moved.  Run it from a copy of an older
commit to make the reference set there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cgsws import make_rng, make_test_signal, rescale_snr  # noqa: E402
from cgsws.cli import main  # noqa: E402

METHODS = ("cgsws", "cmws-hard", "ceb")
ITERS = ["--iters", "600", "--burnin", "300"]


def _inputs():
    """Name -> (samples, extra denoise flags)."""
    out = {}
    for stream, (name, n) in enumerate([("bumps", 4096), ("heavisine", 1024),
                                        ("doppler", 256)]):
        truth = rescale_snr(make_test_signal(name, n), 3.0)
        out[f"{name}{n}"] = (truth + make_rng(31, stream).standard_normal(n), [])
    truth = rescale_snr(make_test_signal("heavisine", 300), 3.0)
    out["pad300"] = (truth + make_rng(31, 3).standard_normal(300), ["--pad"])
    out["zero256"] = (np.zeros(256), [])
    out["const256"] = (np.full(256, 1.5), [])
    return out


def _run(argv):
    """Run one command quietly; its stdout, or an error if it exits nonzero."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code} from {' '.join(argv)}")
    return buf.getvalue()


def write_golden(outdir, full=False):
    """Write the golden set into ``outdir``; return the paths written."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (samples, flags) in _inputs().items():
        inp = outdir / f"input-{name}.csv"
        inp.write_text("".join(f"{v:.17g}\n" for v in samples))
        for method in METHODS:
            out = outdir / f"denoise-{method}-{name}.csv"
            _run(["denoise", str(inp), "--output", str(out), "--method", method,
                  "--seed", "5", *ITERS, *flags])
            sidecar = out.with_suffix(".json")
            payload = json.loads(sidecar.read_text())
            del payload["wall_time_s"]
            sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if not flags and name in ("bumps4096", "heavisine1024"):
            coef = outdir / f"transform-{name}.coef.csv"
            _run(["transform", str(inp), "--output", str(coef)])
            _run(["transform", str(coef), "--direction", "inverse",
                  "--output", str(outdir / f"transform-{name}.sig.csv")])
    for method in METHODS:
        for workers in ("1", "2"):
            _run(["bench", "--signal", "doppler", "--n", "256", "--snr", "5",
                  "--reps", "4", "--method", method, "--seed", "9", *ITERS,
                  "--workers", workers,
                  "--out", str(outdir / f"bench-{method}-w{workers}")])
    levels = ("quick", "full") if full else ("quick",)
    for level in levels:
        (outdir / f"selfcheck-{level}.txt").write_text(
            _run(["selfcheck", "--level", level, "--seed", "3"]))
    return sorted(p for p in outdir.iterdir() if p.is_file())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir")
    parser.add_argument("--full", action="store_true",
                        help="also write the full-level selfcheck output")
    args = parser.parse_args()
    for path in write_golden(args.outdir, args.full):
        print(path)
