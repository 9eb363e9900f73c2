"""Fast tests of the benchmark itself, at tiny sizes.

Each correctness check must reject a wrong output, and the command must
print exactly the metrics that BENCHMARK.json names.
"""

import json
import math
import pathlib

import numpy as np
import pytest

import checks
import run

run.import_program()

from cgsws import baselines, transform  # noqa: E402
from cgsws.sampler import estimate_sigma2_mad  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
N, J0 = 64, 2


@pytest.fixture(scope="module")
def filters():
    return transform.load_filters("scd3")


@pytest.fixture(scope="module")
def shapes(filters):
    diag = checks.dense_diag_selfprod(N, J0, transform.forward, filters)
    return checks.noise_shape_from_diag(diag, J0)


@pytest.fixture(scope="module")
def noisy():
    rng = np.random.default_rng(5)
    truth = 4.0 * np.sin(np.linspace(0.0, 6.0, N)) + 8.0 * (np.arange(N) == 20)
    return truth, truth + rng.standard_normal(N)


def test_dense_noise_shape_matches_dense_matrix(filters, shapes):
    dense = transform.noise_covariance(transform.build_matrix(N, J0, filters), J0)
    np.testing.assert_allclose(shapes, dense.sigma, atol=1e-13)


def test_noise_shape_check(filters, shapes):
    program = transform.noise_scale(N, J0, filters).sigma
    assert checks.check_noise_shape(program, shapes) == []
    assert checks.check_noise_shape(program + [1e-9, 0.0, 0.0], shapes)
    assert checks.check_noise_shape(program[:-1], shapes)


def test_keep_or_kill_rejects_shrunk_or_misplaced(filters, shapes, noisy):
    tree = transform.forward(noisy[1], J0, filters)
    s2 = estimate_sigma2_mad(tree)
    noise = transform.noise_scale(N, J0, filters)
    lam = checks.universal_threshold(N)
    out = baselines.cmws_hard(tree, s2, noise).details
    own = checks.mad_sigma2(tree.details[-1])
    assert checks.check_keep_or_kill(tree.details, out, own, shapes, lam) == []

    j, k = next((j, int(np.flatnonzero(d)[0])) for j, d in enumerate(out) if np.any(d))
    shrunk = [d.copy() for d in out]
    shrunk[j][k] *= 0.5
    assert checks.check_keep_or_kill(tree.details, shrunk, own, shapes, lam)

    killed = [d.copy() for d in out]
    killed[j][k] = 0.0
    assert checks.check_keep_or_kill(tree.details, killed, own, shapes, lam)

    kept_all = [d.copy() for d in tree.details]
    assert checks.check_keep_or_kill(tree.details, kept_all, own, shapes, lam)


def test_no_enlargement_rejects_amplified(filters, shapes, noisy):
    tree = transform.forward(noisy[1], J0, filters)
    halved = [0.5 * d for d in tree.details]
    assert checks.check_no_enlargement(tree.details, halved, shapes) == []
    grown = [d.copy() for d in halved]
    grown[-1][3] = 1.01 * tree.details[-1][3]
    assert checks.check_no_enlargement(tree.details, grown, shapes)


def test_identity_estimator_fails_amse_checks(noisy):
    truth, y = noisy
    identity_mse = checks.mse(y, truth)
    assert checks.check_beats_input(identity_mse, identity_mse, "identity")
    assert checks.check_reference_amse([identity_mse] * 4)
    sidecar = json.dumps({"sigma2": 1.0})
    assert checks.check_denoised(y, truth, y, sidecar)
    assert checks.check_denoised(truth, truth, y, sidecar) == []


def test_reference_amse_band_and_replicate_bound():
    assert checks.check_reference_amse([0.30, 0.33]) == []
    assert checks.check_reference_amse([0.45, 0.45])
    assert checks.check_reference_amse([0.05, 1.2, 0.05])
    assert checks.check_amse_below_one([0.2, 0.4]) == []
    assert checks.check_amse_below_one([0.9, 1.3])


def test_denoised_sidecar_checks(noisy):
    truth, y = noisy
    est = 0.5 * (truth + y)
    assert checks.check_denoised(est, truth, y, json.dumps({"sigma2": 0.95})) == []
    assert checks.check_denoised(est, truth, y, json.dumps({"sigma2": 1.3}))
    assert checks.check_denoised(est, truth, y, "{not json")
    assert checks.check_denoised(est[:-1], truth, y, json.dumps({"sigma2": 1.0}))
    bad = est.copy()
    bad[0] = math.nan
    assert checks.check_denoised(bad, truth, y, json.dumps({"sigma2": 1.0}))


def test_repeated_rounds_must_agree():
    a = [np.arange(3.0)]
    assert checks.check_same(a, [np.arange(3.0)], "w") == []
    assert checks.check_same(a, [np.arange(3.0) + 1e-15], "w")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_command_prints_every_named_metric(workload, trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
              "--trace", str(trace), "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
