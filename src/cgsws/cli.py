"""Command-line interface.

Four subcommands: ``denoise`` (CSV signal in, denoised CSV + JSON
sidecar out), ``bench`` (replicated AMSE experiments), ``transform``
(forward/inverse coefficient dumps for inspection), and ``selfcheck``
(fast invariant suite).  The chain and cell defaults of ``denoise`` and
``bench`` are those of :class:`~cgsws.sampler.SamplerConfig` and
:class:`~cgsws.bench.BenchmarkSpec`, and every command runs the one
filter bank, ``scd3``.

File formats are plain text: signals are one float per line (an
optional non-numeric header line is skipped); coefficient files are
``j,k,re,im`` rows where the approximation block uses j = -1; benchmark
output is a CSV with one row per replication plus a JSON summary.

Every command accepts ``--seed`` (default from the ``CGSWS_SEED``
environment variable, else 0) and ``--config FILE`` with ``key=value``
lines supplying defaults that explicit flags override; a switch such as
``pad`` takes ``true`` or ``false``.  Exit codes: 0 success, 1 a check
or the sampler failed, 2 usage, input or file error; a failure prints
one ``error:`` line to stderr.  Run as ``cgsws`` or
``python -m cgsws.cli``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import time

import numpy as np

from . import __version__
from .bench import (
    METHODS,
    MIN_LENGTH,
    SIGNALS,
    BenchmarkSpec,
    geweke_harness,
    padded_length,
    run_benchmark,
    write_benchmark_csv,
    write_benchmark_json,
)
from .distributions import make_rng, sample_gig, sample_inv_gamma, sample_inv_wishart
from .sampler import SamplerConfig, SamplerError, denoise
from .transform import (
    FILTER_BANK,
    CoeffTree,
    build_matrix,
    default_coarsest_level,
    forward,
    inverse,
    load_filters,
    noise_scale,
    validate_filter_pair,
)


class CLIError(ValueError):
    """Usage or input problem; maps to exit code 2."""


def _env_seed(value):
    """The seed from ``--seed``, else ``$CGSWS_SEED``, else 0; a non-negative integer."""
    source = "--seed"
    if value is None:
        source, value = "CGSWS_SEED", os.environ.get("CGSWS_SEED", "0")
    try:
        seed = int(value)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise CLIError(f"{source} must be a non-negative integer, not {value!r}") from None
    return seed


def _read_signal(path):
    p = pathlib.Path(path)
    if not p.exists():
        raise CLIError(f"input file not found: {path}")
    values = []
    with open(p) as fh:
        for line_no, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if line_no == 0:
                    continue  # header line
                raise CLIError(f"{path}:{line_no + 1}: not a number: {text!r}")
    if not values:
        raise CLIError(f"no samples found in {path}")
    return np.array(values)


def _write_signal(path, x):
    with open(path, "w") as fh:
        for val in x:
            fh.write(f"{val:.17g}\n")


def _sidecar_path(output):
    out = pathlib.Path(output)
    return out.with_suffix(".json") if out.suffix else out.parent / (out.name + ".json")


def _config_flags(args):
    """The config file's ``key=value`` lines as flags for argparse to check.

    A switch such as ``--pad`` takes ``true`` or ``false``; any other key
    becomes ``--key=value``.
    """
    known, flags = vars(args), []
    with open(args.config) as fh:
        for line_no, line in enumerate(fh):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise CLIError(f"{args.config}:{line_no + 1}: expected key=value")
            key, val = (part.strip() for part in text.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in known or dest in ("command", "func", "input", "config"):
                raise CLIError(f"unknown config key: {key}")
            flag = "--" + dest.replace("_", "-")
            if not isinstance(known[dest], bool):
                flags.append(f"{flag}={val}")
            elif val not in ("true", "false"):
                raise CLIError(f"config key {key} takes true or false, not {val!r}")
            elif val == "true":
                flags.append(flag)
    return flags


def _check_output_dir(path):
    """Fail before any computation if the directory ``path`` goes in does not exist."""
    parent = pathlib.Path(path).parent
    if not parent.is_dir():
        raise CLIError(f"output directory not found: {parent}")


def _sampler_config(args, **fields):
    """The :class:`SamplerConfig` of the chain flags, with ``fields`` set as given."""
    return SamplerConfig(**{"iters": args.iters, "burnin": args.burnin, "j0": args.j0, **fields})


# ---------------------------------------------------------------------------
# subcommands


def cmd_denoise(args):
    seed = _env_seed(args.seed)
    y = _read_signal(args.input)
    output = args.output or str(pathlib.Path(args.input).with_suffix("")) + ".denoised.csv"
    _check_output_dir(output)
    n_orig = len(y)
    padded_from = None
    target = padded_length(n_orig)
    if target != n_orig:
        if not args.pad:
            raise CLIError(
                f"signal length {n_orig} must be a power of two and at least {MIN_LENGTH}; "
                "rerun with --pad"
            )
        y = np.pad(y, (0, target - n_orig), mode="symmetric")
        padded_from = n_orig

    t0 = time.perf_counter()
    j0 = args.j0 if args.j0 is not None else default_coarsest_level(len(y))
    cfg = _sampler_config(args, j0=j0, seed=seed)
    result = denoise(y, cfg, method=args.method)
    summary = result.summary
    sidecar = {
        "command": "denoise",
        "method": args.method,
        "n": n_orig,
        "padded_from": padded_from,
        "config": {"iters": cfg.iters, "burnin": cfg.burnin,
                   "wavelet": FILTER_BANK, "j0": j0, "seed": seed},
        "sigma2": result.sigma2,
        "eps": None if summary is None else [float(e) for e in summary.eps_mean],
        "imag_residual": result.imag_residual,
        "wall_time_s": time.perf_counter() - t0,
    }
    estimate = result.estimate[:n_orig]  # drops the padding, if any
    _write_signal(output, estimate)
    with open(_sidecar_path(output), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output} (sigma2 = {sidecar['sigma2']:.6g}, "
          f"{sidecar['wall_time_s']:.1f} s)")
    return 0


def cmd_bench(args):
    seed = _env_seed(args.seed)
    if args.out:
        _check_output_dir(args.out)
    spec = BenchmarkSpec(signal=args.signal, n=args.n, snr=args.snr, reps=args.reps,
                         method=args.method, seed=seed, sampler=_sampler_config(args))
    result = run_benchmark(spec, workers=args.workers)
    if args.out:
        write_benchmark_csv(result, args.out + ".csv")
        write_benchmark_json(result, args.out + ".json")
    print(f"AMSE {result.amse:.6f}  ({spec.method}, {spec.signal}, n={spec.n}, "
          f"snr={spec.snr:g}, reps={spec.reps}, {result.elapsed:.1f} s)")
    return 0


def _write_coefficients(path, tree):
    with open(path, "w") as fh:
        fh.write("j,k,re,im\n")
        for k, val in enumerate(tree.approx):
            fh.write(f"-1,{k},{val.real:.17g},{val.imag:.17g}\n")
        for j, level in zip(tree.levels, tree.details):
            for k, val in enumerate(level):
                fh.write(f"{j},{k},{val.real:.17g},{val.imag:.17g}\n")


def _read_coefficients(path):
    p = pathlib.Path(path)
    if not p.exists():
        raise CLIError(f"input file not found: {path}")
    by_level = {}
    with open(p) as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.strip()
            if not text or (line_no == 1 and text.lower().startswith("j,")):
                continue
            parts = text.split(",")
            if len(parts) != 4:
                raise CLIError(f"{path}:{line_no}: expected j,k,re,im")
            try:
                j, k, re, im = int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])
            except ValueError:
                raise CLIError(f"{path}:{line_no}: malformed row: {text!r}")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise CLIError(f"{path}:{line_no}: non-finite coefficient: {text!r}")
            if j < -1:
                raise CLIError(f"{path}:{line_no}: level {j} is below the "
                               "approximation block (j = -1)")
            level = by_level.setdefault(j, {})
            if k in level:
                raise CLIError(f"{path}:{line_no}: repeats coefficient (j, k) = ({j}, {k})")
            level[k] = re + 1j * im
    if not by_level:
        raise CLIError(f"no coefficients found in {path}")
    if -1 not in by_level:
        raise CLIError("coefficient file lacks the approximation block (j = -1)")
    detail_js = sorted(j for j in by_level if j >= 0)
    if not detail_js:
        raise CLIError("coefficient file has no detail levels")
    j0, j_max = detail_js[0], detail_js[-1]
    if detail_js != list(range(j0, j_max + 1)):
        raise CLIError("detail levels are not contiguous")

    def block(j, size):
        entries = by_level[j]
        if sorted(entries) != list(range(size)):
            raise CLIError(f"level {j}: expected indices 0..{size - 1}")
        return np.array([entries[k] for k in range(size)])

    approx = block(-1, 2 ** j0)
    details = [block(j, 2 ** j) for j in detail_js]
    return CoeffTree(n=2 ** (j_max + 1), j0=j0, approx=approx, details=details)


def cmd_transform(args):
    filters = load_filters()
    suffix = ".coef.csv" if args.direction == "forward" else ".sig.csv"
    output = args.output or str(pathlib.Path(args.input).with_suffix("")) + suffix
    _check_output_dir(output)
    if args.direction == "forward":
        y = _read_signal(args.input)
        j0 = args.j0 if args.j0 is not None else default_coarsest_level(len(y))
        _write_coefficients(output, forward(y, j0, filters))
    else:
        tree = _read_coefficients(args.input)
        try:
            signal, _ = inverse(tree, filters)
        except ValueError as exc:
            raise CLIError(f"inconsistent coefficient file: {exc}")
        _write_signal(output, signal)
    print(f"wrote {output}")
    return 0


def _check(name, fn, failures):
    try:
        fn()
    except Exception as exc:
        failures.append(name)
        print(f"FAIL {name}: {exc}")
        return
    print(f"  ok {name}")


def cmd_selfcheck(args):
    seed = _env_seed(args.seed)
    rng = make_rng(seed, 0)
    failures = []

    def filters_ok():
        validate_filter_pair(load_filters())

    def round_trip():
        filters = load_filters()
        y = rng.standard_normal(128)
        x, resid = inverse(forward(y, 3, filters), filters)
        assert np.max(np.abs(x - y)) < 1e-9 and resid < 1e-9

    def unitarity():
        W = build_matrix(64, 2, load_filters())
        assert np.max(np.abs(W @ W.conj().T - np.eye(64))) < 1e-9

    def noise_trace():
        ns = noise_scale(256, 3, load_filters())
        traces = ns.sigma[:, 0] + ns.sigma[:, 2]
        assert np.max(np.abs(traces - 1.0)) < 1e-10

    def moments():
        x = sample_inv_gamma(4.0, 0.5, rng, size=40_000)
        assert abs(x.mean() - 1.0 / (0.5 * 3.0)) < 0.02
        g = sample_gig(0.25, 4.0, rng, size=40_000)
        assert abs(g.mean() - 8.0) < 0.15  # 4 K_{3/2}(1)/K_{1/2}(1) = 8
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        C = sample_inv_wishart(A, 10.0, rng, size=40_000)
        assert np.allclose(C.mean(axis=0), A / 7.0, rtol=0.05)

    _check("filter invariants", filters_ok, failures)
    _check("round trip", round_trip, failures)
    _check("unitarity", unitarity, failures)
    _check("noise trace", noise_trace, failures)
    _check("distribution moments", moments, failures)

    if args.level == "full":
        def geweke():
            report = geweke_harness(draws=30_000, seed=seed)
            assert report.max_abs_z < 4.0, f"max |z| = {report.max_abs_z:.2f}"

        def amse_spot():
            spec = BenchmarkSpec(signal="doppler", n=256, snr=5.0, reps=5,
                                 method="cgsws", seed=seed,
                                 sampler=SamplerConfig(iters=2500, burnin=1250))
            value = run_benchmark(spec).amse
            assert 0.15 < value < 0.55, f"AMSE = {value:.4f}"

        _check("geweke harness", geweke, failures)
        _check("amse spot check", amse_spot, failures)

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: $CGSWS_SEED or 0)")
    sub.add_argument("--config", default=None,
                     help="key=value file with defaults; flags override")


def _add_chain_flags(sub, config):
    sub.add_argument("--iters", type=int, default=config.iters)
    sub.add_argument("--burnin", type=int, default=config.burnin)
    sub.add_argument("--j0", type=int, default=config.j0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cgsws",
        description="Bayesian wavelet denoising with a complex-valued "
                    "transform and Gibbs sampling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("denoise", help="denoise a single-column CSV signal")
    p.add_argument("input")
    p.add_argument("--output")
    p.add_argument("--method", choices=sorted(METHODS), default="cgsws")
    _add_chain_flags(p, SamplerConfig())
    p.add_argument("--pad", action="store_true",
                   help="symmetric-pad to the next power of two, trim on output")
    _add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = subs.add_parser("bench", help="run a replicated AMSE experiment")
    spec = BenchmarkSpec()
    p.add_argument("--signal", choices=sorted(SIGNALS), default=spec.signal)
    p.add_argument("--n", type=int, default=spec.n)
    p.add_argument("--snr", type=float, default=spec.snr)
    p.add_argument("--reps", type=int, default=spec.reps)
    p.add_argument("--method", choices=sorted(METHODS), default=spec.method)
    _add_chain_flags(p, spec.sampler)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output path prefix for CSV/JSON")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("transform", help="dump or invert wavelet coefficients")
    p.add_argument("input")
    p.add_argument("--direction", choices=("forward", "inverse"),
                   default="forward")
    p.add_argument("--output")
    p.add_argument("--j0", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    _add_common(p)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values go in as flags right after the subcommand, so
            # the explicit flags after them win, abbreviated ones included
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        return args.func(args)
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:  # CLIError, bad input, or a file error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
