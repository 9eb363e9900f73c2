"""Benchmark-harness tests: signals, SNR protocol, AMSE, writers, Geweke.

Signal values are checked at grid points where the defining formulas
collapse to short hand calculations, and the piecewise-constant signal
is checked for its step count and right-continuity at a jump that lands
exactly on the grid.  Harness tests pin down determinism, stream
assignment across replications and workers, and the writer formats.
"""

import csv
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from cgsws import bench as bn
from cgsws.distributions import make_rng
from cgsws.sampler import SamplerConfig, denoise, sweep


class TestSignals:
    def test_heavisine_midpoint(self):
        # 4 sin(2 pi) - sign(0.2) - sign(0.22) = -2 at t = 1/2
        for n in (64, 256, 1024):
            f = bn.make_test_signal("heavisine", n)
            assert f[n // 2] == pytest.approx(-2.0, abs=1e-12)

    def test_doppler_boundary_and_null(self):
        f = bn.make_test_signal("doppler", 1024)
        assert f[0] == 0.0
        # at t = 1/4 the phase is 2 pi 1.05/0.3 = 7 pi, a sine zero
        assert abs(f[256]) < 1e-12
        assert np.max(np.abs(f)) <= 0.5 + 1e-12

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_blocks_step_structure(self, n):
        f = bn.make_test_signal("blocks", n)
        assert len(np.unique(f)) <= 12

    def test_blocks_hand_value_and_right_continuity(self):
        f = bn.make_test_signal("blocks", 1024)
        # at t = 1/2 the seven jumps below 0.5 have fired:
        # 4 - 5 + 3 - 4 + 5 - 4.2 + 2.1 = 0.9
        assert f[512] == pytest.approx(0.9, abs=1e-12)
        # t = 0.25 is itself a jump location and lands on the grid;
        # the grid point must already carry the post-jump value
        assert f[256] == f[257]

    def test_bumps_hand_value(self):
        f = bn.make_test_signal("bumps", 1000)  # t = 0.4 on the grid
        locs = [0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81]
        hts = [4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2]
        wids = [0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01,
                0.005, 0.008, 0.005]
        expect = sum(
            h * (1.0 + abs(0.4 - T) / w) ** -4 for T, h, w in zip(locs, hts, wids)
        )
        assert f[400] == pytest.approx(expect, rel=1e-12)
        assert np.all(f > 0)

    def test_rejects_unknown_or_short(self):
        with pytest.raises(ValueError, match="blocks"):
            bn.make_test_signal("chirp", 256)
        with pytest.raises(ValueError, match="n >= 8"):
            bn.make_test_signal("doppler", 4)


class TestRescaleSnr:
    def test_sets_sample_sd(self):
        f = bn.make_test_signal("doppler", 512)
        for snr in (3.0, 5.0, 7.0, 10.0):
            assert bn.rescale_snr(f, snr).std(ddof=1) == pytest.approx(snr)

    def test_idempotent(self):
        f = bn.make_test_signal("bumps", 256)
        once = bn.rescale_snr(f, 3.0)
        npt.assert_allclose(bn.rescale_snr(once, 3.0), once, atol=1e-13)

    def test_preserves_shape_up_to_scale(self):
        f = bn.make_test_signal("blocks", 256)
        g = bn.rescale_snr(f, 7.0)
        ratio = g[np.abs(f) > 1e-9] / f[np.abs(f) > 1e-9]
        npt.assert_allclose(ratio, ratio[0])
        assert ratio[0] > 0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="constant"):
            bn.rescale_snr(np.ones(64), 3.0)
        with pytest.raises(ValueError, match="positive"):
            bn.rescale_snr(np.arange(8.0), 0.0)


class TestAmse:
    def test_hand_values(self):
        assert bn.amse([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]) == pytest.approx(2.0)
        assert bn.amse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)
        assert bn.amse([[5.0, 5.0]], [5.0, 5.0]) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bn.amse([[1.0, 2.0]], [1.0, 2.0, 3.0])


class TestBenchmarkSpec:
    def test_defaults(self):
        spec = bn.BenchmarkSpec()
        assert spec.signal == "doppler" and spec.n == 256
        assert spec.sampler.iters == 4000 and spec.sampler.burnin == 2000

    @pytest.mark.parametrize(
        "kw",
        [
            dict(signal="chirp"),
            dict(method="wiener"),
            dict(n=100),
            dict(n=16),
            dict(reps=0),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            bn.BenchmarkSpec(**kw)


def small_spec(method="cgsws", reps=2, seed=0):
    return bn.BenchmarkSpec(
        signal="blocks", n=32, snr=5.0, reps=reps, method=method, seed=seed,
        sampler=SamplerConfig(iters=60, burnin=20),
    )


class TestRunBenchmark:
    def test_deterministic(self):
        r1 = bn.run_benchmark(small_spec())
        r2 = bn.run_benchmark(small_spec())
        assert r1.amse == r2.amse
        npt.assert_array_equal(r1.mses, r2.mses)

    def test_replication_streams_are_stable(self):
        # adding replications must not disturb earlier ones
        r2 = bn.run_benchmark(small_spec(reps=2))
        r3 = bn.run_benchmark(small_spec(reps=3))
        npt.assert_array_equal(r3.mses[:2], r2.mses)

    @pytest.mark.parametrize("method", ["cgsws", "ceb"])
    def test_workers_do_not_change_results(self, method):
        seq = bn.run_benchmark(small_spec(method=method, reps=4), workers=1)
        par = bn.run_benchmark(small_spec(method=method, reps=4), workers=2)
        npt.assert_array_equal(seq.mses, par.mses)

    @pytest.mark.parametrize("method", bn.METHODS)
    def test_batched_replicates_match_standalone_denoise(self, method):
        # a cell runs its replicates as one batch; each must equal a lone
        # denoise of its own noise (stream 2r) and chain (2r + 1)
        spec = small_spec(method=method, reps=3, seed=4)
        res = bn.run_benchmark(spec)
        truth = bn.rescale_snr(bn.make_test_signal(spec.signal, spec.n), spec.snr)
        for r in range(spec.reps):
            y = truth + make_rng(spec.seed, 2 * r).standard_normal(spec.n)
            est = denoise(y, spec.sampler, rng=make_rng(spec.seed, 2 * r + 1),
                          method=method).estimate
            assert float(np.mean((est - truth) ** 2)) == res.mses[r]

    @pytest.mark.parametrize("method", ["cmws-hard", "ceb"])
    def test_baseline_methods(self, method):
        res = bn.run_benchmark(small_spec(method=method, reps=3))
        assert res.mses.shape == (3,)
        assert np.all(np.isfinite(res.mses)) and np.all(res.mses > 0)
        assert res.amse == pytest.approx(res.mses.mean())

    def test_records_elapsed_and_spec(self):
        spec = small_spec()
        res = bn.run_benchmark(spec)
        assert res.elapsed > 0
        assert res.spec is spec


class TestWriters:
    @pytest.fixture()
    def result(self):
        return bn.run_benchmark(small_spec(method="cmws-hard", reps=3, seed=7))

    def test_csv_round_trip(self, result, tmp_path):
        path = tmp_path / "bench.csv"
        bn.write_benchmark_csv(result, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for rep, row in enumerate(rows):
            assert row["signal"] == "blocks" and int(row["n"]) == 32
            assert row["method"] == "cmws-hard" and int(row["seed"]) == 7
            assert int(row["rep"]) == rep
            assert float(row["mse"]) == pytest.approx(result.mses[rep], rel=1e-9)
            assert float(row["amse"]) == pytest.approx(result.amse, rel=1e-9)
            assert row["j0"] == ""  # unset coarsest level stays blank

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "bench.json"
        bn.write_benchmark_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["spec"]["signal"] == "blocks"
        assert payload["spec"]["iters"] == 60
        assert payload["amse"] == pytest.approx(np.mean(payload["mses"]))
        npt.assert_allclose(payload["mses"], result.mses)

    def test_json_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bn.write_benchmark_json(
            bn.run_benchmark(small_spec(method="ceb", reps=2, seed=3)), a
        )
        bn.write_benchmark_json(
            bn.run_benchmark(small_spec(method="ceb", reps=2, seed=3)), b
        )
        assert a.read_bytes() == b.read_bytes()


class TestGeweke:
    def test_rejects_unknown_mutation(self):
        with pytest.raises(ValueError, match="mutation"):
            bn.geweke_harness(draws=10, mutation="theta-flip")

    @pytest.mark.parametrize("chains", [0.0, 0.5, 1.5])
    def test_rejects_draws_not_a_multiple_of_the_chains(self, chains):
        K = bn._GEWEKE_CHAINS
        with pytest.raises(ValueError, match=f"multiple of {K}"):
            bn.geweke_harness(draws=int(chains * K))

    def test_runs_the_chains_as_one_batch(self, monkeypatch):
        # one stacked sweep per step advances every chain at once
        K = bn._GEWEKE_CHAINS
        batches = []

        def counted(state, model, rng):
            batches.append(model.batch)
            sweep(state, model, rng)

        monkeypatch.setattr(bn, "sweep", counted)
        report = bn.geweke_harness(draws=3 * K, seed=2)
        assert batches == [(K,)] * 3
        assert report.draws == 3 * K

    def test_clean_smoke(self):
        report = bn.geweke_harness(draws=2000, seed=1)
        assert report.names == bn._GEWEKE_NAMES and len(report.names) == 11
        assert report.z_scores.shape == (11,)
        assert np.all(np.isfinite(report.z_scores))
        assert report.max_abs_z == np.max(np.abs(report.z_scores))
        assert report.max_abs_z < 6.0
        assert report.draws == 2000 and report.mutation is None

    def test_planted_bug_is_visible(self):
        # the off-by-one sigma2 shape must push z-scores far out even at
        # modest draw counts
        report = bn.geweke_harness(draws=4000, seed=1, mutation="sigma2-shape")
        assert report.mutation == "sigma2-shape"
        assert report.max_abs_z > 5.0
