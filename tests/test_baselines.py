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
from scipy import special

import oracles
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
        assert 0 < survivors < 256 - 2**3

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
            tot += n - 2**j0
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
        fit, = bl._fit_levels([d[:, 0] + 1j * d[:, 1]], [data],
                              [np.array([[na, nb], [nb, nc]])])
        assert fit.converged
        L = np.linalg.cholesky(fit.V)
        attained = bl._objective(
            [special.logit(fit.eps), L[0, 0], L[1, 0], L[1, 1]],
            data, na, nb, nc,
        )[0]
        grid_best = min(
            bl._objective(
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
            return bl._objective(x, data, Sg[0, 0], Sg[0, 1], Sg[1, 1])[0]

        for _ in range(6):
            x = rng.normal(0.0, [2.0, 1.5, 1.0, 1.5])
            _, grad, _ = bl._objective(x, data, Sg[0, 0], Sg[0, 1], Sg[1, 1])
            numeric = [(value(x + h * e) - value(x - h * e)) / (2.0 * h)
                       for e in np.eye(4)]
            npt.assert_allclose(grad, numeric, rtol=1e-5)

    @pytest.mark.parametrize("x", [
        [-1.0, 1.5, 0.4, 1.0],
        [0.7, -2.0, 1.2, 0.6],
        [-2.5, 0.8, -0.3, 0.2],
        [0.5, 2.0, 0.7, 2e-3],
        [-29.7, 1.5, 0.4, 1.0],
        [29.7, 1.5, 0.4, 1.0],
    ], ids=["full-rank", "negative-l11", "sparse", "near-rank-one", "eta-low", "eta-high"])
    def test_hessian_matches_central_differences(self, noise256, x):
        # the exact Hessian against central differences of the gradient
        Sg = noise256.matrix(4)
        na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
        d1, d2 = simulate_level(Sg, np.array([[2.0, 0.0], [0.5, 1.0]]), 300,
                                0.3, make_rng(5, 3))
        data = bl._level_data(d1, d2)
        x = np.array(x)
        _, _, hess = bl._objective(x, data, na, nb, nc)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        numeric = np.array([
            (bl._objective(x + h[i] * e, data, na, nb, nc)[1]
             - bl._objective(x - h[i] * e, data, na, nb, nc)[1]) / (2.0 * h[i])
            for i, e in enumerate(np.eye(4))])
        npt.assert_allclose(hess, numeric, rtol=1e-5, atol=1e-7 * np.abs(hess).max())
        npt.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.abs(hess).max())

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
            val, grad, hess = bl._objective(x, bl._level_data(d1, d2),
                                            Sg[0, 0], Sg[0, 1], Sg[1, 1])
        assert grad.shape == (4,) and hess.shape == (4, 4)
        assert val == 1e300 or (np.isfinite(val) and np.all(np.isfinite(grad))
                                and np.all(np.isfinite(hess)))

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
        # each start is scored by _negloglik on its own, as the fit's
        # polish sees it
        Sg = noise256.matrix(7)
        na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
        d1, d2 = simulate_level(Sg, slab_chol, m, weight, make_rng(8, m))
        data = bl._level_data(d1, d2)
        V0 = bl._moment_slab(d1 + 1j * d2, Sg)
        eps0, fac = np.array(bl._EM_STARTS).T
        # the EM's (starts, levels) layout, with this level alone
        x = tuple(p[:, None] for p in (special.logit(eps0), fac * V0[0, 0],
                                       fac * V0[0, 1], fac * V0[1, 1]))
        prev = None
        for _ in range(3 * bl._EM_STEPS):
            starts = tuple(p[:, 0] for p in x)
            each = np.array([bl._negloglik(*p, data, na, nb, nc) for p in zip(*starts)])
            assert np.all(np.isfinite(each))
            npt.assert_allclose(bl._negloglik(*starts, data, na, nb, nc), each, rtol=1e-12)
            if prev is not None:
                assert np.all(each <= prev + 1e-9 * np.abs(prev))
            assert np.all(mat2.eig_min(*starts[1:]) >= -1e-12 * (starts[1] + starts[3]))
            prev, x = each, bl._em_step(*x, [data], *(np.array([v]) for v in (na, nb, nc)))

    def test_all_levels_em_matches_per_level_em(self, filters_mod):
        # the EM runs every level of a signal in one array; each level's
        # start must be the one the EM gives that level alone, and the one
        # a direct per-level EM on the coefficients gives: responsibilities
        # from the two normal densities, then V <- V P R P V / sum r + V -
        # V P V (Bovy, Hogg & Roweis 2011), from every start, keeping the
        # best by the mixture likelihood
        n = 1024
        j0 = tr.default_coarsest_level(n)
        _, y = noisy_signal("bumps", n, 3.0, 9)
        tree, _, s2 = sp.unit_scale(tr.forward(y, j0, filters_mod))
        noise = tr.noise_scale(n, j0, filters_mod)
        coefs = [np.asarray(level) / math.sqrt(s2) for level in tree.details]
        datas = [bl._level_data(coef.real, coef.imag) for coef in coefs]
        covs = [noise.matrix(j0 + i) for i in range(len(coefs))]
        V0s = [bl._moment_slab(coef, Sg) for coef, Sg in zip(coefs, covs)]
        starts = bl._em_starts(V0s, datas, covs)
        assert starts.shape == (len(coefs), 4) and np.all(np.isfinite(starts))
        for i, (V0, data, Sg) in enumerate(zip(V0s, datas, covs)):
            npt.assert_allclose(starts[i], bl._em_starts([V0], [data], [Sg])[0], rtol=1e-12)

        def log_normal(d, S):
            q = np.einsum("ki,ij,kj->k", d, np.linalg.inv(S), d)
            return -math.log(2.0 * math.pi) - 0.5 * math.log(np.linalg.det(S)) - 0.5 * q

        for i, (coef, V0, Sg) in enumerate(zip(coefs, V0s, covs)):
            d = np.stack([coef.real, coef.imag], axis=-1)
            best = None
            for eps, fac in bl._EM_STARTS:
                eta, V = special.logit(eps), fac * V0
                for _ in range(bl._EM_STEPS):
                    P = np.linalg.inv(Sg + V)
                    r = special.expit(eta + log_normal(d, Sg + V) - log_normal(d, Sg))
                    R = (r[:, None] * d).T @ d
                    V = V @ P @ R @ P @ V / r.sum() + V - V @ P @ V
                    eta = np.clip(special.logit(r.mean()), -30.0, 30.0)
                ll = np.logaddexp(-np.logaddexp(0.0, eta) + log_normal(d, Sg),
                                  -np.logaddexp(0.0, -eta) + log_normal(d, Sg + V)).sum()
                if best is None or ll > best[0]:
                    best = ll, eta, V
            _, eta, V = best
            L = np.linalg.cholesky(V)
            l22 = max(L[1, 1], 0.05 * max(abs(L[0, 0]), abs(L[1, 0])))
            npt.assert_allclose(starts[i], [eta, L[0, 0], L[1, 0], l22],
                                rtol=1e-12, err_msg=str(i))

    def test_reaches_best_of_random_starts_on_hard_level(self, filters_mod):
        # blocks at n = 4096, SNR 3, noise of seed 7: on the finest level,
        # L-BFGS-B from three moment-based starts ended 4.80 nats short
        n = 4096
        j0 = tr.default_coarsest_level(n)
        _, y = noisy_signal("blocks", n, 3.0, 7)
        tree = tr.forward(y, j0, filters_mod)
        coef = np.asarray(tree.details[-1]) / math.sqrt(np.maximum(sp.estimate_sigma2_mad(tree), 1e-20))
        Sg = tr.noise_scale(n, j0, filters_mod).matrix(j0 + len(tree.details) - 1)
        na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
        data = bl._level_data(coef.real, coef.imag)
        fit, = bl._fit_levels([coef], [data], [Sg])
        assert fit.converged
        attained = bl._negloglik(special.logit(fit.eps), fit.V[0, 0], fit.V[0, 1],
                                 fit.V[1, 1], data, na, nb, nc)

        L0 = np.linalg.cholesky(bl._moment_slab(coef, Sg))
        spread = 0.5 * math.sqrt(np.trace(L0 @ L0.T))
        rng = make_rng(7, 1)
        best = min(
            oracles.lbfgs_fit(
                [rng.uniform(-5.0, 5.0), L0[0, 0] * math.exp(rng.normal(0.0, 1.5)),
                 L0[1, 0] + rng.normal(0.0, spread),
                 L0[1, 1] * math.exp(rng.normal(0.0, 1.5))],
                data, na, nb, nc,
            ).fun
            for _ in range(60)
        )
        assert attained <= best + 1e-6

    def test_polish_matches_lbfgs_from_the_em_start(self, filters_mod):
        # heavisine at n = 4096, SNR 3, noise of seed 4 holds the level on
        # which the Newton polish ended furthest above L-BFGS-B among 256
        # levels; every level, at the scale ceb fits it, must converge and
        # end at most 1e-6 nats above scipy's L-BFGS-B from the same start
        n = 4096
        j0 = tr.default_coarsest_level(n)
        _, y = noisy_signal("heavisine", n, 3.0, 4)
        tree, _, s2 = sp.unit_scale(tr.forward(y, j0, filters_mod))
        noise = tr.noise_scale(n, j0, filters_mod)
        coefs = [np.asarray(level) / math.sqrt(s2) for level in tree.details]
        datas = [bl._level_data(coef.real, coef.imag) for coef in coefs]
        covs = [noise.matrix(j0 + i) for i in range(len(coefs))]
        starts = bl._em_starts([bl._moment_slab(coef, Sg) for coef, Sg in zip(coefs, covs)],
                               datas, covs)
        for i, (data, Sg, x0) in enumerate(zip(datas, covs, starts)):
            na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
            x, converged = bl._polish(x0, data, na, nb, nc)
            assert converged, i
            reference = oracles.lbfgs_fit(x0, data, na, nb, nc).fun
            assert bl._objective(x, data, na, nb, nc)[0] <= reference + 1e-6, i

    def test_fallback_when_optimizer_unavailable(self, filters_mod, noise256,
                                                 monkeypatch):
        # the polish reports a start it cannot take as None
        monkeypatch.setattr(bl, "_polish", lambda x, data, na, nb, nc: None)
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
        V = bl._moment_slab(np.array([1.5 + 0.5j]), N)
        lam = np.linalg.eigvalsh(-N)[0]
        npt.assert_allclose(V, -N + (abs(lam) + 1e-8) * np.eye(2), rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(V)[0] > 0


class TestCebShrinkage:
    def test_zero_weight_kills_everything(self, filters_mod, noise256,
                                          monkeypatch):
        # eps = 0 must zero the posterior mean exactly, even for huge
        # coefficients whose likelihood ratio overflows naive arithmetic
        monkeypatch.setattr(
            bl, "_fit_levels",
            lambda coefs, datas, covs: [bl.CEBLevelParams(0.0, np.eye(2), True)] * len(coefs),
        )
        _, y = noisy_signal("blocks", 256, 7.0, 26)
        tree = tr.forward(y, 3, filters_mod)
        out = bl.ceb_posterior_mean(tree, 1.0, noise256)
        assert all(np.all(level == 0) for level in out.details)

    def test_full_weight_wide_slab_passes_through(self, filters_mod, noise256,
                                                  monkeypatch):
        monkeypatch.setattr(
            bl, "_fit_levels",
            lambda coefs, datas, covs: [bl.CEBLevelParams(1.0, 1e8 * np.eye(2), True)]
            * len(coefs),
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

    @pytest.mark.parametrize("k", [-20, 0, 20])
    def test_raw_tree_call_is_s_times_the_unit_tree_call(self, filters_mod, noise256, k):
        # the benchmark's baselines check calls ceb on the raw tree at its
        # floored MAD variance and compares with denoise, which calls it on
        # the unit-scale tree; ceb's own division by sqrt(sigma2_hat) makes
        # the two bitwise equal up to the factor s
        _, y = noisy_signal("bumps", 256, 5.0, 30)
        raw = tr.forward(2.0 ** k * y, 3, filters_mod)
        unit, s, s2 = sp.unit_scale(raw)
        got = bl.ceb_posterior_mean(raw, max(sp.estimate_sigma2_mad(raw), 1e-20), noise256)
        want = bl.ceb_posterior_mean(unit, s2, noise256)
        assert s == 2.0 ** k
        for a, b in zip(got.details, want.details):
            npt.assert_array_equal(a, s * b)


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
