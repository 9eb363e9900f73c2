"""Reference-estimator tests: hard thresholding and EB posterior mean.

The hard rule is checked for its exact keep-or-kill semantics and its
survivor rate under pure noise; the empirical-Bayes fit is checked
against a brute-force likelihood grid, its shrinkage against the
contraction property (never amplify in the noise metric), and its
degenerate mixture weights against closed-form limits.
"""

import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import optimize, special

from conftest import noisy_signal
from cgsws import baselines as bl
from cgsws import mat2
from cgsws import sampler as sp
from cgsws import transform as tr
from cgsws.distributions import make_rng


def simulate_level(Sg, slab_chol, m, weight, rng):
    """(Re, Im) parts of m coefficients from the slab mixture at noise Sg."""
    active = rng.random(m) < weight
    theta = (slab_chol @ rng.standard_normal((2, m))).T * active[:, None]
    d = theta + (np.linalg.cholesky(Sg) @ rng.standard_normal((2, m))).T
    return d[:, 0], d[:, 1]


@pytest.fixture(scope="module")
def noise256(filters_mod):
    return tr.noise_scale(256, 3, filters_mod)


@pytest.fixture(scope="module")
def filters_mod():
    return tr.load_filters("scd3")


class TestCmwsHard:
    def test_keep_or_kill_exact(self, filters_mod, noise256):
        _, y = noisy_signal("doppler", 256, 5.0, 21)
        tree = tr.forward(y, 3, filters_mod)
        out = bl.cmws_hard(tree, 1.0, noise256)
        survivors = 0
        for j, kept, orig in zip(tree.levels, out.details, tree.details):
            orig = np.asarray(orig)
            assert np.all((kept == 0) | (kept == orig))
            # a coefficient survives exactly when d' Sigma_j^{-1} d > 2 log n
            parts = np.stack([orig.real, orig.imag], axis=-1)
            stat = np.einsum("ki,ij,kj->k", parts, np.linalg.inv(noise256.matrix(j)), parts)
            npt.assert_array_equal(kept != 0, stat > 2.0 * math.log(256))
            survivors += np.count_nonzero(kept)
        assert 0 < survivors < tree.detail_count

    def test_input_tree_untouched(self, filters_mod, noise256):
        _, y = noisy_signal("doppler", 256, 5.0, 24)
        tree = tr.forward(y, 3, filters_mod)
        saved = [np.asarray(d).copy() for d in tree.details]
        bl.cmws_hard(tree, 1.0, noise256)
        for now, before in zip(tree.details, saved):
            npt.assert_array_equal(now, before)

    def test_pure_noise_survivor_rate(self, filters_mod):
        # lambda = 2 log n targets a survival probability of 1/n
        n, j0 = 1024, 3
        noise = tr.noise_scale(n, j0, filters_mod)
        rng = make_rng(3, 0)
        hits = tot = 0
        for _ in range(40):
            tree = tr.forward(rng.standard_normal(n), j0, filters_mod)
            out = bl.cmws_hard(tree, 1.0, noise)
            hits += sum(np.count_nonzero(lv) for lv in out.details)
            tot += tree.detail_count
        assert hits / tot < 5.0 / n

    def test_rejects_nonpositive_sigma2(self, filters_mod, noise256):
        tree = tr.forward(np.zeros(256), 3, filters_mod)
        with pytest.raises(ValueError):
            bl.cmws_hard(tree, 0.0, noise256)


class TestCebFit:
    def test_beats_likelihood_grid(self, filters_mod, noise256):
        # simulate one level from the mixture model, fit it, and require
        # the attained negative log likelihood to undercut a 4-d grid
        # around the simulation truth
        rng = make_rng(4, 0)
        Sg = noise256.matrix(3)
        na, nb, nc = 0.9 * Sg[0, 0], 0.9 * Sg[0, 1], 0.9 * Sg[1, 1]
        true_V = np.array([[4.0, 1.0], [1.0, 2.0]])
        Ln = np.linalg.cholesky(0.9 * Sg)
        Lv = np.linalg.cholesky(true_V)
        m = 400
        zmask = rng.random(m) < 0.4
        theta = (Lv @ rng.standard_normal((2, m))).T * zmask[:, None]
        d = theta + (Ln @ rng.standard_normal((2, m))).T

        data = bl._level_data(d[:, 0], d[:, 1])
        fit = bl._fit_level(d[:, 0] + 1j * d[:, 1], data, na, nb, nc)
        assert fit.converged
        L = np.linalg.cholesky(fit.V)
        attained, _ = bl._mix_negloglik_grad(
            [special.logit(fit.eps), L[0, 0], L[1, 0], L[1, 1]],
            data, na, nb, nc,
        )
        grid_best = min(
            bl._mix_negloglik_grad(
                [special.logit(e), s1, c12, s2], data, na, nb, nc,
            )[0]
            for e, s1, c12, s2 in itertools.product(
                np.linspace(0.2, 0.6, 9),
                np.linspace(1.2, 3.0, 7),
                np.linspace(-0.5, 1.5, 5),
                np.linspace(0.8, 2.2, 6),
            )
        )
        assert attained <= grid_best + 1e-6
        # the fit should land near the simulation truth as well
        assert 0.25 < fit.eps < 0.55
        assert np.all(np.linalg.eigvalsh(fit.V) > 0)

    def test_gradient_matches_central_differences(self, noise256):
        Sg = noise256.matrix(4)
        d1, d2 = simulate_level(Sg, np.array([[2.0, 0.0], [0.5, 1.0]]), 300,
                                0.3, make_rng(5, 0))
        data = bl._level_data(d1, d2)
        rng = make_rng(5, 1)
        h = 1e-6

        def value(x):
            return bl._mix_negloglik_grad(x, data, Sg[0, 0], Sg[0, 1], Sg[1, 1])[0]

        for _ in range(6):
            x = rng.normal(0.0, [2.0, 1.5, 1.0, 1.5])
            _, grad = bl._mix_negloglik_grad(x, data, Sg[0, 0], Sg[0, 1], Sg[1, 1])
            numeric = [(value(x + h * e) - value(x - h * e)) / (2.0 * h)
                       for e in np.eye(4)]
            npt.assert_allclose(grad, numeric, rtol=1e-5)

    @pytest.mark.parametrize("x", [
        [0.0, 800.0, 0.0, 0.0],
        [800.0, 1.0, 0.0, 1.0],
        [-800.0, 1.0, 0.0, 1.0],
        [0.0, 1e200, 1e200, 1e200],
        [0.0, 1e160, -1e160, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [30.0, 1e-200, 0.0, 1e-200],
        [0.0, np.inf, 0.0, 1.0],
        [np.nan, 1.0, 0.0, 1.0],
    ])
    def test_objective_never_raises(self, noise256, x):
        # an optimiser excursion must come back as a number, not an
        # exception or a warning
        Sg = noise256.matrix(4)
        d1, d2 = simulate_level(Sg, 3.0 * np.eye(2), 200, 0.3, make_rng(5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, grad = bl._mix_negloglik_grad(x, bl._level_data(d1, d2),
                                               Sg[0, 0], Sg[0, 1], Sg[1, 1])
        assert grad.shape == (4,)
        assert val == 1e300 or (np.isfinite(val) and np.all(np.isfinite(grad)))

    def test_rank_one_slab_level(self, filters_mod, noise256):
        # a slab along one direction only puts the marginal MLE of V on
        # the PSD boundary; the fit must stay usable there
        tree = tr.forward(make_rng(6, 0).standard_normal(256), 3, filters_mod)
        Sg = noise256.matrix(3 + len(tree.details) - 1)
        direction = np.array([[math.cos(0.7), 0.0], [math.sin(0.7), 0.0]])
        d1, d2 = simulate_level(Sg, 4.0 * direction, tree.details[-1].size, 0.5,
                                make_rng(6, 2))
        tree = tr.CoeffTree(n=tree.n, j0=tree.j0, approx=tree.approx,
                            details=tree.details[:-1] + [d1 + 1j * d2])
        out, fits = bl.ceb_posterior_mean(tree, 1.0, noise256, return_params=True)
        V = fits[-1].V
        npt.assert_array_equal(V, V.T)
        lam = np.linalg.eigvalsh(V)
        assert -1e-12 * np.trace(V) <= lam[0] < 1e-9 * np.trace(V)
        for i, (shrunk, orig) in enumerate(zip(out.details, tree.details)):
            shrunk = np.asarray(shrunk)
            assert np.all(np.isfinite(shrunk.view(float)))
            Sg = noise256.matrix(3 + i)
            assert np.all(bl._stat(shrunk, 1.0, Sg)
                          <= bl._stat(np.asarray(orig), 1.0, Sg) * (1.0 + 1e-10))

    @pytest.mark.parametrize("slab_chol, weight, m", [
        (np.array([[2.0, 0.0], [0.5, 1.0]]), 0.3, 512),
        (4.0 * np.array([[math.cos(0.7), 0.0], [math.sin(0.7), 0.0]]), 0.5, 128),
        (np.array([[3.0, 0.0], [-1.0, 2.0]]), 0.02, 2048),
    ], ids=["full-rank", "rank-one", "sparse"])
    def test_em_steps_never_lower_the_likelihood(self, noise256, slab_chol, weight, m):
        # extreme-deconvolution EM is an ascent method from every start;
        # each start is scored by _mixture on its own, as the fit's
        # polish sees it
        Sg = noise256.matrix(7)
        na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
        d1, d2 = simulate_level(Sg, slab_chol, m, weight, make_rng(8, m))
        data = bl._level_data(d1, d2)
        V0 = bl._moment_slab(d1 + 1j * d2, Sg, floor=1e-8)
        eps0, fac = np.array(bl._EM_STARTS).T
        x = (special.logit(eps0), fac * V0[0, 0], fac * V0[0, 1], fac * V0[1, 1])
        prev = None
        for _ in range(3 * bl._EM_STEPS):
            each = np.array([bl._mixture(*p, data, na, nb, nc)[0] for p in zip(*x)])
            assert np.all(np.isfinite(each))
            npt.assert_allclose(bl._mixture(*x, data, na, nb, nc)[0], each, rtol=1e-12)
            if prev is not None:
                assert np.all(each <= prev + 1e-9 * np.abs(prev))
            assert np.all(mat2.eig_min(*x[1:]) >= -1e-12 * (x[1] + x[3]))
            prev, x = each, bl._em_step(*x, data, na, nb, nc)

    def test_reaches_best_of_random_starts_on_hard_level(self, filters_mod):
        # blocks at n = 4096, SNR 3, noise of seed 7: on the finest level,
        # L-BFGS-B from three moment-based starts ended 4.80 nats short
        n = 4096
        j0 = tr.default_coarsest_level(n)
        _, y = noisy_signal("blocks", n, 3.0, 7)
        tree = tr.forward(y, j0, filters_mod)
        coef = np.asarray(tree.details[-1]) / math.sqrt(sp._sigma2_hat(tree))
        Sg = tr.noise_scale(n, j0, filters_mod).matrix(j0 + len(tree.details) - 1)
        na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
        data = bl._level_data(coef.real, coef.imag)
        fit = bl._fit_level(coef, data, na, nb, nc)
        assert fit.converged
        attained = bl._mixture(special.logit(fit.eps), fit.V[0, 0], fit.V[0, 1],
                               fit.V[1, 1], data, na, nb, nc)[0]

        L0 = np.linalg.cholesky(bl._moment_slab(coef, Sg, floor=1e-8))
        spread = 0.5 * math.sqrt(np.trace(L0 @ L0.T))
        rng = make_rng(7, 1)
        best = min(
            optimize.minimize(
                bl._mix_negloglik_grad,
                [rng.uniform(-5.0, 5.0), L0[0, 0] * math.exp(rng.normal(0.0, 1.5)),
                 L0[1, 0] + rng.normal(0.0, spread),
                 L0[1, 1] * math.exp(rng.normal(0.0, 1.5))],
                args=(data, na, nb, nc), method="L-BFGS-B", jac=True,
                bounds=bl._BOUNDS, options=bl._LBFGS_OPTIONS,
            ).fun
            for _ in range(60)
        )
        assert attained <= best + 1e-6

    def test_fallback_when_optimizer_unavailable(self, filters_mod, noise256,
                                                 monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("synthetic optimizer failure")

        monkeypatch.setattr(optimize, "minimize", broken)
        _, y = noisy_signal("doppler", 256, 5.0, 25)
        tree = tr.forward(y, 3, filters_mod)
        with pytest.warns(UserWarning, match="moment estimates"):
            out, fits = bl.ceb_posterior_mean(tree, 1.0, noise256,
                                              return_params=True)
        for fit in fits:
            assert not fit.converged
            assert 0.01 <= fit.eps <= 0.99
            assert np.all(np.linalg.eigvalsh(fit.V) > 0)
        assert all(np.all(np.isfinite(np.asarray(d).view(float)))
                   for d in out.details)

    def test_moment_start_of_one_coefficient(self):
        # a hand-built j0 = 0 tree has a level of one coefficient, whose
        # sample covariance is zero, so the start is -N pushed onto the cone
        N = np.array([[0.6, 0.1], [0.1, 0.4]])
        V = bl._moment_slab(np.array([1.5 + 0.5j]), N, floor=1e-8)
        lam = np.linalg.eigvalsh(-N)[0]
        npt.assert_allclose(V, -N + (abs(lam) + 1e-8) * np.eye(2), rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(V)[0] > 0


class TestCebShrinkage:
    def test_zero_weight_kills_everything(self, filters_mod, noise256,
                                          monkeypatch):
        # eps = 0 must zero the posterior mean exactly, even for huge
        # coefficients whose likelihood ratio overflows naive arithmetic
        monkeypatch.setattr(
            bl, "_fit_level",
            lambda coef, data, na, nb, nc: bl.CEBLevelParams(0.0, np.eye(2), True),
        )
        _, y = noisy_signal("blocks", 256, 7.0, 26)
        tree = tr.forward(y, 3, filters_mod)
        out = bl.ceb_posterior_mean(tree, 1.0, noise256)
        assert all(np.all(level == 0) for level in out.details)

    def test_full_weight_wide_slab_passes_through(self, filters_mod, noise256,
                                                  monkeypatch):
        monkeypatch.setattr(
            bl, "_fit_level",
            lambda coef, data, na, nb, nc: bl.CEBLevelParams(1.0, 1e8 * np.eye(2), True),
        )
        _, y = noisy_signal("doppler", 256, 5.0, 27)
        tree = tr.forward(y, 3, filters_mod)
        out = bl.ceb_posterior_mean(tree, 1.0, noise256)
        for got, orig in zip(out.details, tree.details):
            npt.assert_allclose(got, np.asarray(orig), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_never_amplifies_in_noise_metric(self, filters_mod, noise256, seed):
        rng = make_rng(7, seed)
        t = np.arange(256) / 256.0
        y = 3.0 * np.sin(2.0 * np.pi * (seed + 1) * t) + rng.standard_normal(256)
        tree = tr.forward(y, 3, filters_mod)
        s2 = sp.estimate_sigma2_mad(tree)
        out = bl.ceb_posterior_mean(tree, s2, noise256)
        for i, (shrunk, orig) in enumerate(zip(out.details, tree.details)):
            Sg = noise256.matrix(3 + i)
            q_out = bl._stat(np.asarray(shrunk), s2, Sg)
            q_in = bl._stat(np.asarray(orig), s2, Sg)
            assert np.all(q_out <= q_in * (1.0 + 1e-10))

    def test_deterministic(self, filters_mod, noise256):
        _, y = noisy_signal("heavisine", 256, 5.0, 28)
        tree = tr.forward(y, 3, filters_mod)
        s2 = sp.estimate_sigma2_mad(tree)
        o1 = bl.ceb_posterior_mean(tree, s2, noise256)
        o2 = bl.ceb_posterior_mean(tree, s2, noise256)
        for a, b in zip(o1.details, o2.details):
            npt.assert_array_equal(a, b)

    def test_rejects_nonpositive_sigma2(self, filters_mod, noise256):
        tree = tr.forward(np.zeros(256), 3, filters_mod)
        with pytest.raises(ValueError):
            bl.ceb_posterior_mean(tree, -1.0, noise256)


class TestStackedTree:
    @pytest.fixture
    def stack(self, filters_mod):
        ys = np.stack([noisy_signal(name, 256, 5.0, 29)[1]
                       for name in ("doppler", "bumps", "blocks")])
        tree = tr.forward(ys, 3, filters_mod)
        return ys, tree, sp.estimate_sigma2_mad(tree)

    @pytest.mark.parametrize("shrink", [bl.cmws_hard, bl.ceb_posterior_mean])
    def test_rejects_any_nonpositive_row(self, stack, noise256, shrink):
        _, tree, _ = stack
        with pytest.raises(ValueError, match="sigma2_hat must be positive"):
            shrink(tree, np.array([1.0, 0.0, 1.0]), noise256)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("shrink", [bl.cmws_hard, bl.ceb_posterior_mean])
    def test_rejects_nonfinite_sigma2(self, stack, noise256, shrink, bad):
        # an overflowed noise estimate used to give NaN ceb details and
        # an all-zero cmws-hard tree, without a message
        _, tree, _ = stack
        for s2 in (bad, np.array([1.0, bad, 1.0])):
            with pytest.raises(ValueError, match="sigma2_hat must be positive and finite"):
                shrink(tree, s2, noise256)

    def test_ceb_fits_listed_row_by_row(self, stack, filters_mod, noise256):
        # one flat list, the levels of row 0 first, each fit as the row's own
        ys, tree, s2 = stack
        _, fits = bl.ceb_posterior_mean(tree, s2, noise256, return_params=True)
        want = []
        for r, y in enumerate(ys):
            want += bl.ceb_posterior_mean(tr.forward(y, 3, filters_mod), s2[r],
                                          noise256, return_params=True)[1]
        assert len(fits) == len(ys) * len(tree.details)
        for got, ref in zip(fits, want):
            assert got.eps == ref.eps and got.converged == ref.converged
            npt.assert_array_equal(got.V, ref.V)


class TestEndToEnd:
    def test_both_estimators_beat_the_noise(self, filters_mod, noise256):
        truth, y = noisy_signal("doppler", 256, 5.0, 42)
        tree = tr.forward(y, 3, filters_mod)
        s2 = sp.estimate_sigma2_mad(tree)
        mse_noisy = np.mean((y - truth) ** 2)
        hard, _ = tr.inverse(bl.cmws_hard(tree, s2, noise256), filters_mod)
        ceb, _ = tr.inverse(bl.ceb_posterior_mean(tree, s2, noise256), filters_mod)
        assert np.mean((hard - truth) ** 2) < mse_noisy
        assert np.mean((ceb - truth) ** 2) < mse_noisy
