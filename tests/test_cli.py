"""End-to-end command-line tests driven through ``main(argv)``.

Each test runs a full command against real files in a temp directory
and checks the exit code, the files produced, and the messages printed.
Exit-code contract: 0 success, 1 a selfcheck or the sampler failed,
2 usage/input error, with one ``error:`` line for a failure.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from conftest import noisy_signal
import cgsws
from cgsws import cli
from cgsws import transform as tr
from cgsws.sampler import SamplerError
from cgsws.cli import main


def write_signal(path, values, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for v in values:
            fh.write(f"{v:.12g}\n")


def read_signal(path):
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])


class TestDenoise:
    def test_zero_signal_runs_clean(self, tmp_path, capsys):
        inp = tmp_path / "zero.csv"
        out = tmp_path / "zero.out.csv"
        write_signal(inp, np.zeros(256))
        code = main(["denoise", str(inp), "--output", str(out),
                     "--iters", "200", "--burnin", "100"])
        assert code == 0
        est = read_signal(out)
        assert est.shape == (256,)
        assert np.max(np.abs(est)) < 1e-6
        sidecar = json.loads((tmp_path / "zero.out.json").read_text())
        assert sidecar["command"] == "denoise"
        assert sidecar["n"] == 256 and sidecar["padded_from"] is None
        assert sidecar["config"]["iters"] == 200
        assert sidecar["wall_time_s"] > 0
        assert "wrote" in capsys.readouterr().out

    def test_header_line_tolerated(self, tmp_path):
        inp = tmp_path / "sig.csv"
        out = tmp_path / "sig.out.csv"
        _, y = noisy_signal("heavisine", 64, 5.0, 31)
        write_signal(inp, y, header="value")
        code = main(["denoise", str(inp), "--output", str(out),
                     "--iters", "80", "--burnin", "30"])
        assert code == 0
        assert read_signal(out).shape == (64,)

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["denoise", str(tmp_path / "nope.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.csv" in err and "error" in err

    def test_module_entry_point(self, tmp_path):
        src = str(pathlib.Path(cgsws.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "cgsws.cli", "denoise", "missing.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "input file not found" in proc.stderr

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats costs about half a second and 20 MiB at start-up
        src = str(pathlib.Path(cgsws.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, cgsws, cgsws.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_scipy(self):
        # scipy.optimize and scipy.special load only where the ceb fit and
        # the reference densities use them
        src = str(pathlib.Path(cgsws.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, cgsws, cgsws.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, values", [
        ([], np.r_[np.zeros(31), np.nan, np.zeros(32)]),
        (["--iters", "20", "--burnin", "20"], np.zeros(64)),
    ])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, argv, values):
        inp = tmp_path / "sig.csv"
        write_signal(inp, values)
        assert main(["denoise", str(inp), "--output", str(tmp_path / "o.csv")]
                    + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["cgsws", "cmws-hard", "ceb"])
    def test_overflowing_noise_estimate_is_usage_error(self, tmp_path, capsys, method):
        _, y = noisy_signal("doppler", 256, 3.0, 1)
        inp = tmp_path / "sig.csv"
        write_signal(inp, 2.0 ** 600 * y)
        assert main(["denoise", str(inp), "--output", str(tmp_path / "o.csv"),
                     "--method", method, "--iters", "20", "--burnin", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the MAD noise variance estimate overflows")
        assert err.count("\n") == 1

    def test_sampler_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SamplerError("update 'v' failed at sweep 3: synthetic")

        monkeypatch.setattr(cli, "denoise", fail)
        inp = tmp_path / "sig.csv"
        write_signal(inp, np.zeros(64))
        assert main(["denoise", str(inp), "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: update 'v' failed at sweep 3: synthetic\n"

    def test_non_power_of_two_needs_pad(self, tmp_path, capsys):
        inp = tmp_path / "odd.csv"
        write_signal(inp, np.random.default_rng(0).standard_normal(100))
        code = main(["denoise", str(inp)])
        assert code == 2
        assert "--pad" in capsys.readouterr().err

    def test_pad_round_trip_length(self, tmp_path):
        inp = tmp_path / "odd.csv"
        out = tmp_path / "odd.out.csv"
        _, y = noisy_signal("doppler", 128, 5.0, 33)
        write_signal(inp, y[:100])
        code = main(["denoise", str(inp), "--output", str(out), "--pad",
                     "--iters", "80", "--burnin", "30"])
        assert code == 0
        assert read_signal(out).shape == (100,)
        sidecar = json.loads((tmp_path / "odd.out.json").read_text())
        assert sidecar["padded_from"] == 100 and sidecar["n"] == 100

    @pytest.mark.parametrize("method", ["cmws-hard", "ceb"])
    def test_baseline_methods(self, tmp_path, method):
        inp = tmp_path / "sig.csv"
        out = tmp_path / "est.csv"
        truth, y = noisy_signal("blocks", 256, 5.0, 34)
        write_signal(inp, y)
        code = main(["denoise", str(inp), "--output", str(out),
                     "--method", method])
        assert code == 0
        est = read_signal(out)
        assert np.mean((est - truth) ** 2) < np.mean((y - truth) ** 2)
        sidecar = json.loads((tmp_path / "est.json").read_text())
        assert sidecar["method"] == method
        assert sidecar["eps"] is None and sidecar["sigma2"] > 0

    def test_deterministic_given_seed(self, tmp_path):
        inp = tmp_path / "sig.csv"
        _, y = noisy_signal("doppler", 64, 5.0, 35)
        write_signal(inp, y)
        for out in ("a.csv", "b.csv"):
            assert main(["denoise", str(inp), "--output", str(tmp_path / out),
                         "--iters", "100", "--burnin", "40",
                         "--seed", "11"]) == 0
        npt.assert_array_equal(read_signal(tmp_path / "a.csv"),
                               read_signal(tmp_path / "b.csv"))

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        inp = tmp_path / "sig.csv"
        _, y = noisy_signal("doppler", 64, 5.0, 36)
        write_signal(inp, y)
        monkeypatch.setenv("CGSWS_SEED", "17")
        assert main(["denoise", str(inp), "--output", str(tmp_path / "env.csv"),
                     "--iters", "100", "--burnin", "40"]) == 0
        monkeypatch.delenv("CGSWS_SEED")
        assert main(["denoise", str(inp), "--output", str(tmp_path / "flag.csv"),
                     "--iters", "100", "--burnin", "40", "--seed", "17"]) == 0
        npt.assert_array_equal(read_signal(tmp_path / "env.csv"),
                               read_signal(tmp_path / "flag.csv"))
        env = json.loads((tmp_path / "env.json").read_text())
        assert env["config"]["seed"] == 17

    def test_config_file_with_flag_override(self, tmp_path):
        inp = tmp_path / "sig.csv"
        _, y = noisy_signal("doppler", 64, 5.0, 37)
        write_signal(inp, y)
        conf = tmp_path / "run.conf"
        conf.write_text("iters = 100  # comment\nburnin = 40\nseed = 5\n")
        assert main(["denoise", str(inp), "--output", str(tmp_path / "c.csv"),
                     "--config", str(conf), "--seed", "11"]) == 0
        sidecar = json.loads((tmp_path / "c.json").read_text())
        # config supplies iters/burnin; the explicit flag wins for seed
        assert sidecar["config"]["iters"] == 100
        assert sidecar["config"]["burnin"] == 40
        assert sidecar["config"]["seed"] == 11

    def test_abbreviated_flag_beats_config(self, tmp_path):
        inp = tmp_path / "sig.csv"
        _, y = noisy_signal("doppler", 64, 5.0, 37)
        write_signal(inp, y)
        conf = tmp_path / "run.conf"
        conf.write_text("iters = 100\nburnin = 40\n")
        assert main(["denoise", str(inp), "--output", str(tmp_path / "c.csv"),
                     "--config", str(conf), "--iter", "60"]) == 0
        sidecar = json.loads((tmp_path / "c.json").read_text())
        assert sidecar["config"]["iters"] == 60
        assert sidecar["config"]["burnin"] == 40

    @pytest.mark.parametrize("value, code, message", [
        ("true", 0, None),
        ("false", 2, "rerun with --pad"),
        ("yes", 2, "takes true or false"),
    ])
    def test_config_switch_values(self, tmp_path, capsys, value, code, message):
        inp = tmp_path / "odd.csv"
        _, y = noisy_signal("doppler", 64, 5.0, 39)
        write_signal(inp, y[:60])
        conf = tmp_path / "run.conf"
        conf.write_text(f"pad = {value}\niters = 60\nburnin = 20\n")
        assert main(["denoise", str(inp), "--output", str(tmp_path / "o.csv"),
                     "--config", str(conf)]) == code
        if message is None:
            sidecar = json.loads((tmp_path / "o.json").read_text())
            assert sidecar["padded_from"] == 60
        else:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err

    def test_config_unknown_key(self, tmp_path, capsys):
        inp = tmp_path / "sig.csv"
        write_signal(inp, np.zeros(64))
        conf = tmp_path / "run.conf"
        conf.write_text("cadence = 3\n")
        assert main(["denoise", str(inp), "--config", str(conf)]) == 2
        assert "cadence" in capsys.readouterr().err


class TestBench:
    ARGS = ["bench", "--signal", "blocks", "--n", "32", "--reps", "2",
            "--method", "ceb"]

    def test_prints_amse(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("AMSE ") and "blocks" in out

    def test_output_files_deterministic(self, tmp_path, capsys):
        a = tmp_path / "runA"
        b = tmp_path / "runB"
        assert main(self.ARGS + ["--seed", "7", "--out", str(a)]) == 0
        assert main(self.ARGS + ["--seed", "7", "--out", str(b)]) == 0
        assert (tmp_path / "runA.csv").read_bytes() == (tmp_path / "runB.csv").read_bytes()
        assert (tmp_path / "runA.json").read_bytes() == (tmp_path / "runB.json").read_bytes()
        payload = json.loads((tmp_path / "runA.json").read_text())
        assert payload["spec"]["seed"] == 7 and len(payload["mses"]) == 2

    def test_gibbs_method_small(self, tmp_path):
        code = main(["bench", "--signal", "doppler", "--n", "32", "--reps", "1",
                     "--iters", "60", "--burnin", "20",
                     "--out", str(tmp_path / "g")])
        assert code == 0
        payload = json.loads((tmp_path / "g.json").read_text())
        assert payload["spec"]["method"] == "cgsws"
        assert payload["amse"] > 0

    def test_bad_n_is_usage_error(self, capsys):
        assert main(["bench", "--n", "100"]) == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_is_usage_error(self, capsys, workers):
        assert main(self.ARGS + ["--workers", workers]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "worker" in captured.err

    def test_unknown_signal_rejected_by_parser(self, capsys):
        assert main(["bench", "--signal", "chirp"]) == 2


class TestTransform:
    def test_forward_then_inverse_round_trip(self, tmp_path):
        inp = tmp_path / "sig.csv"
        coef = tmp_path / "coef.csv"
        back = tmp_path / "back.csv"
        _, y = noisy_signal("bumps", 128, 5.0, 38)
        write_signal(inp, y)
        assert main(["transform", str(inp), "--output", str(coef)]) == 0
        assert main(["transform", str(coef), "--direction", "inverse",
                     "--output", str(back)]) == 0
        npt.assert_allclose(read_signal(back), y, atol=1e-9)

    def test_coefficient_dump_shape(self, tmp_path):
        inp = tmp_path / "sig.csv"
        coef = tmp_path / "coef.csv"
        write_signal(inp, np.arange(64.0))
        assert main(["transform", str(inp), "--j0", "2",
                     "--output", str(coef)]) == 0
        lines = coef.read_text().strip().split("\n")
        assert lines[0] == "j,k,re,im"
        assert len(lines) == 1 + 64  # approx block plus all details
        levels = {int(line.split(",")[0]) for line in lines[1:]}
        assert levels == {-1, 2, 3, 4, 5}

    def test_non_power_of_two_rejected(self, tmp_path, capsys):
        inp = tmp_path / "sig.csv"
        write_signal(inp, np.zeros(100))
        assert main(["transform", str(inp)]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_malformed_coefficient_file(self, tmp_path, capsys):
        coef = tmp_path / "coef.csv"
        coef.write_text("j,k,re,im\n-1,0,1.0\n")
        assert main(["transform", str(coef), "--direction", "inverse"]) == 2
        assert "expected j,k,re,im" in capsys.readouterr().err

    def test_missing_approx_block(self, tmp_path, capsys):
        coef = tmp_path / "coef.csv"
        coef.write_text("j,k,re,im\n3,0,1.0,0.0\n")
        assert main(["transform", str(coef), "--direction", "inverse"]) == 2
        assert "approximation block" in capsys.readouterr().err

    def test_incomplete_level_rejected(self, tmp_path):
        inp = tmp_path / "sig.csv"
        coef = tmp_path / "coef.csv"
        write_signal(inp, np.arange(32.0))
        assert main(["transform", str(inp), "--output", str(coef)]) == 0
        lines = coef.read_text().strip().split("\n")
        coef.write_text("\n".join(lines[:-1]) + "\n")  # drop one coefficient
        assert main(["transform", str(coef), "--direction", "inverse"]) == 2


class TestSelfcheck:
    def test_quick_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("  ok ") == 5

    def test_corrupted_filters_detected(self, capsys, monkeypatch):
        good = tr.load_filters("scd3")
        bad = dataclasses.replace(good, low_pass=good.low_pass * 1.01)
        monkeypatch.setattr(cli, "load_filters", lambda name: bad)
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL filter invariants" in out
        assert "check(s) failed" in out


@pytest.mark.parametrize("argv", [
    ["denoise", "{sig}", "--method", "cmws-hard", "--output", "{tmp}/missing/o.csv"],
    ["denoise", "{tmp}"],
    ["bench", "--n", "32", "--reps", "1", "--method", "cmws-hard",
     "--out", "{tmp}/missing/b"],
])
def test_file_errors_exit_two(tmp_path, capsys, argv):
    # a missing output directory or a directory as input: one error line
    write_signal(tmp_path / "sig.csv", np.zeros(64))
    argv = [a.format(sig=tmp_path / "sig.csv", tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestParser:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["denoise", "x.csv", "--cadence", "3"]) == 2
