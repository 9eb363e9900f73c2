"""Gibbs sampler tests: elicitation, frozen full conditionals, chains.

Each conditional update is validated in isolation: all other parameters
are pinned, the update runs many times, and the draws are compared with
an independently computed conditional law (scipy families, explicit 2x2
algebra on a hand-built coefficient tree, or Bessel-function moments).
Chain-level tests cover determinism, invariants that must hold after
every sweep, error reporting, and end-to-end denoising.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import special, stats

import oracles
from conftest import noisy_signal
from cgsws import distributions as dist
from cgsws import mat2
from cgsws import sampler as sp
from cgsws.baselines import ceb_posterior_mean, cmws_hard
from cgsws import transform as tr
from cgsws.distributions import make_rng


def doppler_model(n=64, j0=2, seed=11):
    """Small real-data workspace shared by the conditional tests."""
    _, y = noisy_signal("doppler", n, 5.0, seed)
    filters = tr.load_filters("scd3")
    tree = tr.forward(y, j0, filters)
    noise = tr.noise_scale(n, j0, filters)
    hp = sp.elicit(tree, noise)
    return tree, noise, hp, sp.GibbsModel(tree, noise, hp)


def doppler_batch(seeds, n=64, j0=2):
    """The doppler_model workspaces of ``seeds`` as one batch, from one stacked forward."""
    ys = np.stack([noisy_signal("doppler", n, 5.0, seed)[1] for seed in seeds])
    filters = tr.load_filters("scd3")
    tree = tr.forward(ys, j0, filters)
    noise = tr.noise_scale(n, j0, filters)
    return sp.GibbsModel(tree, noise, sp.elicit(tree, noise))


def stack_trees(*trees):
    """One tree whose rows are the given trees."""
    return tr.CoeffTree(n=trees[0].n, j0=trees[0].j0,
                        approx=np.stack([t.approx for t in trees]),
                        details=[np.stack(level) for level in zip(*(t.details for t in trees))])


def hand_model(d_scale=1.0):
    """Tiny workspace with identity-style geometry for exact 2x2 oracles.

    n = 16, j0 = 1, every level's noise shape pinned to I/2 (unit trace),
    every slab scale A_j = 7 I so the prior mean of C_j is the identity.
    """
    n, j0 = 16, 1
    rng = make_rng(77, 0)
    details = [
        d_scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        for m in (2, 4, 8)
    ]
    tree = tr.CoeffTree(n=n, j0=j0, approx=np.zeros(2, dtype=complex),
                        details=details)
    noise = tr.NoiseScale(n=n, j0=j0, sigma=np.tile([0.5, 0.0, 0.5], (3, 1)))
    hp = sp.Hyperparams(a=4.0, b=1.0, w=10.0,
                        A=np.tile(7.0 * np.eye(2), (3, 1, 1)), j0=j0)
    return tree, noise, hp, sp.GibbsModel(tree, noise, hp)


class TestValidation:
    def test_hyperparams_reject_bad_values(self):
        A = np.tile(np.eye(2), (2, 1, 1))
        for kw in (
            dict(a=1.0, b=1.0, w=10.0, A=A, j0=1),
            dict(a=2.0, b=0.0, w=10.0, A=A, j0=1),
            dict(a=2.0, b=1.0, w=3.0, A=A, j0=1),
            dict(a=2.0, b=1.0, w=10.0, A=np.eye(2), j0=1),
            dict(a=2.0, b=1.0, w=10.0, A=np.tile([[1.0, 2.0], [2.0, 1.0]], (2, 1, 1)), j0=1),
        ):
            with pytest.raises(ValueError):
                sp.Hyperparams(**kw)

    def test_config_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            sp.SamplerConfig(iters=100, burnin=100)
        with pytest.raises(ValueError):
            sp.SamplerConfig(iters=100, burnin=-1)

    def test_model_rejects_mismatched_pieces(self):
        tree, noise, hp, _ = doppler_model()
        other_noise = tr.noise_scale(64, 3, tr.load_filters("scd3"))
        with pytest.raises(ValueError, match="disagree"):
            sp.GibbsModel(tree, other_noise, hp)
        bad_hp = sp.Hyperparams(a=hp.a, b=hp.b, w=hp.w, A=hp.A[:-1], j0=hp.j0)
        with pytest.raises(ValueError, match="levels"):
            sp.GibbsModel(tree, noise, bad_hp)

    def test_model_rejects_hyperparameters_of_another_batch(self):
        tree, noise, hp, _ = doppler_model()
        pair = stack_trees(tree, tree)
        pair_hp = sp.elicit(pair, noise)
        triple_hp = sp.Hyperparams(a=hp.a, b=np.full(3, hp.b), w=hp.w,
                                   A=np.stack([hp.A] * 3), j0=hp.j0)
        mixed_hp = sp.Hyperparams(a=hp.a, b=np.full(2, hp.b), w=hp.w, A=hp.A, j0=hp.j0)
        for data, h in ((tree, pair_hp), (pair, hp), (pair, triple_hp), (pair, mixed_hp)):
            with pytest.raises(ValueError, match="batch"):
                sp.GibbsModel(data, noise, h)
        assert sp.GibbsModel(pair, noise, pair_hp).batch == (2,)

    def test_model_rejects_a_batch_of_two_axes(self):
        # forward and elicit keep every leading axis, but a sweep runs one
        # signal or an (R, n) stack, so the model refuses a (2, 3) batch
        filters = tr.load_filters("scd3")
        tree = tr.forward(make_rng(5, 0).standard_normal((2, 3, 64)), 2, filters)
        noise = tr.noise_scale(64, 2, filters)
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            sp.GibbsModel(tree, noise, sp.elicit(tree, noise))


class TestElicitation:
    def test_mad_hand_value(self):
        # real parts have MAD exactly 2, imaginary parts are constant
        finest = np.array([0, 1, 2, 3, 4, 5, 6, 100], dtype=complex)
        tree = tr.CoeffTree(n=16, j0=1, approx=np.zeros(2, dtype=complex),
                            details=[np.zeros(2, complex), np.zeros(4, complex),
                                     finest])
        expect = (2.0 / 0.6745) ** 2
        assert sp.estimate_sigma2_mad(tree) == pytest.approx(expect, rel=1e-12)

    def test_mad_zero_for_constant_level(self):
        tree = tr.CoeffTree(n=8, j0=1, approx=np.zeros(2, dtype=complex),
                            details=[np.zeros(2, complex), np.zeros(4, complex)])
        assert sp.estimate_sigma2_mad(tree) == 0.0

    @pytest.mark.parametrize("finest", [
        make_rng(11, 0).standard_normal(9) + 1j * make_rng(11, 1).standard_normal(9),
        make_rng(12, 0).standard_normal(16) - 2j * make_rng(12, 1).standard_normal(16),
        np.array([1, 1, 1, 2, 2, -3, 5, 5], dtype=float) + 1j * np.array(
            [0, 0, 4, 4, 4, 4, -1, 7], dtype=float),
        np.zeros(8, dtype=complex),
    ], ids=["odd", "even", "ties", "zero"])
    def test_mad_matches_scipy_bitwise(self, finest):
        tree = tr.CoeffTree(n=2 * len(finest), j0=1, approx=np.zeros(2, complex),
                            details=[np.zeros(len(finest), complex), finest])
        s_re = stats.median_abs_deviation(finest.real) / 0.6745
        s_im = stats.median_abs_deviation(finest.imag) / 0.6745
        got = sp.estimate_sigma2_mad(tree)
        assert np.float64(got).tobytes() == np.float64(s_re * s_re + s_im * s_im).tobytes()

    def test_mad_needs_two_coefficients(self):
        tree = tr.CoeffTree(n=4, j0=1, approx=np.zeros(2, dtype=complex),
                            details=[np.zeros(1, complex)])
        with pytest.raises(ValueError, match="at least 2"):
            sp.estimate_sigma2_mad(tree)

    def test_mad_recovers_unit_noise(self):
        # pure unit-variance noise: sigma2_hat within 25% in >= 95% of reps
        filters = tr.load_filters("scd3")
        hits = 0
        for rep in range(200):
            y = make_rng(404, rep).standard_normal(1024)
            s2 = sp.estimate_sigma2_mad(tr.forward(y, 3, filters))
            hits += 0.75 < s2 < 1.25
        assert hits >= 190

    def test_cj_moment_subtraction_exact(self):
        re = np.array([1.0, -1.0, 2.0, 0.0])
        im = np.array([0.0, 1.0, -1.0, 2.0])
        tree = tr.CoeffTree(n=16, j0=2, approx=np.zeros(4, dtype=complex),
                            details=[re + 1j * im,
                                     make_rng(3, 0).standard_normal(8)
                                     + 1j * make_rng(3, 1).standard_normal(8)])
        noise = tr.NoiseScale(n=16, j0=2, sigma=np.tile([0.5, 0.0, 0.5], (2, 1)))
        C = sp.estimate_Cj(tree, 0.1, noise)
        expect = np.cov(np.stack([re, im]), ddof=1) - 0.1 * 0.5 * np.eye(2)
        npt.assert_allclose(C[0], expect, atol=1e-14)

    def test_cj_pushes_onto_spd_cone(self):
        re = np.array([1.0, -1.0, 2.0, 0.0])
        im = np.array([0.0, 1.0, -1.0, 2.0])
        tree = tr.CoeffTree(n=16, j0=2, approx=np.zeros(4, dtype=complex),
                            details=[re + 1j * im,
                                     make_rng(3, 0).standard_normal(8)
                                     + 1j * make_rng(3, 1).standard_normal(8)])
        noise = tr.NoiseScale(n=16, j0=2, sigma=np.tile([0.5, 0.0, 0.5], (2, 1)))
        sigma2 = 10.0  # overshoots the sample covariance -> indefinite difference
        cov = np.cov(np.stack([re, im]), ddof=1)
        raw = cov - sigma2 * 0.5 * np.eye(2)
        lam = np.linalg.eigvalsh(raw).min()
        assert lam < 0
        C = sp.estimate_Cj(tree, sigma2, noise)
        expect = raw + (abs(lam) + 1e-6 * np.trace(cov)) * np.eye(2)
        npt.assert_allclose(C[0], expect, atol=1e-12)
        assert np.linalg.eigvalsh(C[0]).min() > 0

    def test_cj_always_spd_on_noise(self):
        filters = tr.load_filters("scd3")
        noise = tr.noise_scale(128, 2, filters)
        for rep in range(25):
            tree = tr.forward(make_rng(505, rep).standard_normal(128), 2, filters)
            C = sp.estimate_Cj(tree, sp.estimate_sigma2_mad(tree), noise)
            assert np.all(np.linalg.eigvalsh(C)[:, 0] > 0)

    def test_cj_needs_three_coefficients(self):
        tree = tr.CoeffTree(n=8, j0=1, approx=np.zeros(2, dtype=complex),
                            details=[np.zeros(2, complex), np.zeros(4, complex)])
        noise = tr.NoiseScale(n=8, j0=1, sigma=np.tile([0.5, 0.0, 0.5], (2, 1)))
        with pytest.raises(ValueError, match="level 1"):
            sp.estimate_Cj(tree, 1.0, noise)

    def test_elicit_prior_means_match_estimates(self):
        tree, noise, hp, _ = doppler_model()
        s2_hat = sp.estimate_sigma2_mad(tree)
        assert hp.a == 2.0
        assert 1.0 / (hp.b * (hp.a - 1.0)) == pytest.approx(s2_hat, rel=1e-12)
        npt.assert_allclose(hp.A / (hp.w - 3.0),
                            sp.estimate_Cj(tree, s2_hat, noise), atol=1e-12)
        assert hp.j0 == tree.j0 and hp.w == 10.0


class TestSigma2Conditional:
    def test_residual_quadform_matches_dense(self):
        tree, noise, hp, model = doppler_model()
        state = sp.init_state(model)
        state.theta = 0.7 * model.d
        expect = 0.0
        k = 0
        for i, level in enumerate(tree.details):
            inv = np.linalg.inv(noise.matrix(tree.j0 + i))
            for c in level:
                r = np.array([c.real, c.imag]) - state.theta[k]
                expect += r @ inv @ r
                k += 1
        assert model.residual_quadform(state) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
    def test_residual_quadform_mixed_z_matches_dense(self, share):
        # theta is zero where z = 0, and every coefficient enters the sum
        tree, noise, hp, model = doppler_model()
        state = sp.init_state(model)
        rng = make_rng(20240817, 59)
        state.z = rng.random(model.n_det) < share
        state.theta = np.where(state.z[:, None],
                               model.d + rng.standard_normal(model.d.shape), 0.0)
        expect = 0.0
        for k in range(model.n_det):
            inv = np.linalg.inv(noise.matrix(tree.j0 + model.lev_of[k]))
            r = model.d[k] - state.theta[k]
            expect += r @ inv @ r
        assert model.residual_quadform(state) == pytest.approx(expect, rel=1e-12)

    def test_draws_follow_inverse_gamma(self):
        _, _, hp, model = doppler_model()
        state = sp.init_state(model)
        state.theta = 0.7 * model.d
        rate = 1.0 / hp.b + 0.5 * model.residual_quadform(state)
        rng = make_rng(20240817, 21)
        draws = np.empty(20000)
        for i in range(len(draws)):
            sp.update_sigma2(state, model, rng)
            draws[i] = state.sigma2
        ref = stats.invgamma(hp.a + model.n_det, scale=rate)
        assert stats.kstest(draws, ref.cdf).pvalue > 1e-2

    def test_zero_residual_reduces_to_prior_rate(self):
        _, _, hp, model = doppler_model()
        state = sp.init_state(model)
        state.theta = model.d.copy()  # residual exactly zero
        rng = make_rng(20240817, 23)
        draws = np.empty(20000)
        for i in range(len(draws)):
            sp.update_sigma2(state, model, rng)
            draws[i] = state.sigma2
        a_post = hp.a + model.n_det
        mean = 1.0 / (hp.b * (a_post - 1.0))  # IG(a_post, b) in our convention
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - mean) < 4 * se


class TestZEpsConditional:
    def test_interior_inclusion_frequency(self):
        _, noise, _, model = doppler_model()
        state = sp.init_state(model)
        state.sigma2 = 1.1
        C = np.array([[0.8, -0.2], [-0.2, 0.6]])

        def p_of(k):
            S = noise.matrix(model.tree.j0 + model.lev_of[k])
            lf0 = oracles.loglik_zero(model.d[k], 1.1, S)
            lm = oracles.logmarg_signal(model.d[k], 1.1, S, 3.0, C)
            return special.expit(np.log(0.4) - np.log(0.6) + lm - lf0)

        k = next(i for i in range(model.n_det) if 0.1 < p_of(i) < 0.9)
        p = p_of(k)
        rng = make_rng(20240817, 25)
        hits = 0
        reps = 40000
        for _ in range(reps):
            state.eps[:] = 0.4
            state.v[:] = 3.0
            state.C[:] = mat2.pack(0.8, -0.2, 0.6)
            sp.update_z_eps(state, model, rng)
            hits += int(state.z[k])
        se = np.sqrt(p * (1.0 - p) / reps)
        assert abs(hits / reps - p) < 4 * se

    @staticmethod
    def random_spd(rng, size):
        a, c = 0.2 + rng.random(size), 0.2 + rng.random(size)
        b = rng.uniform(-0.9, 0.9, size) * np.sqrt(a * c)
        return np.stack([a, b, c], axis=-1)

    def test_log_odds_match_densities(self):
        # the closed form against log N2(d; 0, sigma2 S + v C) -
        # log N2(d; 0, sigma2 S) + logit eps, coefficient by coefficient, for
        # random SPD noise shapes S_j and slabs C_j and v over 16 decades
        rng = make_rng(20240817, 57)
        n, j0, sizes = 16, 1, (2, 4, 8)
        noise = tr.NoiseScale(n=n, j0=j0, sigma=self.random_spd(rng, 3))

        def random_tree(scale):
            return tr.CoeffTree(n=n, j0=j0, approx=np.zeros(2, dtype=complex), details=[
                scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
                for m in sizes])

        def random_state(model):
            state = sp.init_state(model)
            state.sigma2 = np.exp(rng.uniform(-2.0, 2.0, model.batch))
            state.eps = rng.uniform(0.01, 0.99, state.eps.shape)
            state.v = np.exp(rng.uniform(-18.0, 18.0, state.v.shape))
            model.set_C(state, self.random_spd(rng, state.C.shape[:-1]))
            return state

        def check(model, state):
            got = sp._inclusion_logit(state, model).reshape(-1, model.n_det)
            d = model.d.reshape(-1, model.n_det, 2)
            for r in range(len(got)):
                s2 = np.reshape(state.sigma2, -1)[r]
                C = mat2.to_matrix(state.C).reshape(-1, model.n_levels, 2, 2)[r]
                eps = state.eps.reshape(-1, model.n_levels)[r]
                v = state.v.reshape(-1, model.n_det)[r]
                for k in range(model.n_det):
                    j = model.lev_of[k]
                    S = noise.matrix(j0 + j)
                    lm = oracles.logmarg_signal(d[r, k], s2, S, v[k], C[j])
                    lf0 = oracles.loglik_zero(d[r, k], s2, S)
                    prior = np.log(eps[j]) - np.log1p(-eps[j])
                    scale = abs(lm) + abs(lf0) + abs(prior)
                    assert abs(got[r, k] - (lm - lf0 + prior)) <= 1e-12 * scale

        hp = sp.Hyperparams(a=3.0, b=1.0, w=6.0,
                            A=mat2.to_matrix(self.random_spd(rng, 3)), j0=j0)
        model = sp.GibbsModel(random_tree(1.0), noise, hp)
        check(model, random_state(model))
        model.set_data(np.concatenate(random_tree(30.0).details))
        check(model, random_state(model))
        pair_hp = sp.Hyperparams(a=hp.a, b=np.full(2, hp.b), w=hp.w,
                                 A=np.stack([hp.A, hp.A]), j0=j0)
        batch = sp.GibbsModel(stack_trees(random_tree(1.0), random_tree(5.0)), noise, pair_hp)
        check(batch, random_state(batch))

    @pytest.mark.parametrize("eps,expect", [(0.0, 0), (1.0, 1)])
    def test_degenerate_eps_forces_z(self, eps, expect):
        # must hold exactly even when the likelihood ratio is extreme
        _, _, _, model = doppler_model()
        state = sp.init_state(model)
        state.eps[:] = eps
        sp.update_z_eps(state, model, make_rng(20240817, 27))
        assert np.all(state.z == expect)

    def test_zero_data_is_kept_below_prior_rate(self):
        # at d = 0 the slab only loses: P(z=1) = expit(logit(eps) - log-det gap)
        _, _, _, model = hand_model()
        model.set_data(np.zeros(model.n_det, dtype=complex))
        state = sp.init_state(model)
        state.sigma2 = 1.0
        # gap = (1/2) log det(Sigma + vC) / det(Sigma) with Sigma = I/2, vC = 3I
        p = special.expit(-0.5 * np.log((3.5 / 0.5) ** 2))
        rng = make_rng(20240817, 29)
        reps = 20000
        hits = np.zeros(model.n_det)
        for _ in range(reps):
            state.eps[:] = 0.5
            state.v[:] = 3.0
            state.C[:] = mat2.pack(1.0, 0.0, 1.0)
            sp.update_z_eps(state, model, rng)
            hits += state.z
        freq = hits / reps
        assert np.all(freq < 0.5)
        assert np.all(np.abs(freq - p) < 5 * np.sqrt(p * (1 - p) / reps))

    def test_eps_posterior_given_all_active(self):
        _, _, _, model = doppler_model()
        state = sp.init_state(model)
        rng = make_rng(20240817, 31)
        reps = 20000
        eps = np.empty((reps, model.n_levels))
        for i in range(reps):
            state.eps[:] = 1.0  # forces every z to 1
            sp.update_z_eps(state, model, rng)
            eps[i] = state.eps
        # with all m_j indicators on, eps_j | z ~ Beta(1 + m_j, 1)
        m = model.level_sizes
        expect = (1.0 + m) / (2.0 + m)
        se = eps.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(eps.mean(axis=0) - expect) < 4 * se)


class TestThetaConditional:
    def test_inactive_coefficients_pinned_at_zero(self):
        _, _, _, model = doppler_model()
        state = sp.init_state(model)
        state.z[::2] = 0
        sp.update_theta(state, model, make_rng(20240817, 33))
        assert np.all(state.theta[::2] == 0.0)
        assert np.all(state.theta[1::2] != 0.0)

    def test_active_moments_identity_geometry(self):
        # Sigma = I/2, C = I, v = 1, sigma2 = 1: the posterior is
        # N2((2/3) d, I/3) for every coefficient
        _, _, _, model = hand_model()
        state = sp.init_state(model)
        state.sigma2 = 1.0
        rng = make_rng(20240817, 35)
        reps = 20000
        draws = np.empty((reps, model.n_det, 2))
        for i in range(reps):
            state.v[:] = 1.0
            model.set_C(state, np.broadcast_to(mat2.pack(1.0, 0.0, 1.0), state.C.shape))
            sp.update_theta(state, model, rng)
            draws[i] = state.theta
        se = np.sqrt((1.0 / 3.0) / reps)
        npt.assert_allclose(draws.mean(axis=0), (2.0 / 3.0) * model.d,
                            atol=4.5 * se)
        var = draws.var(axis=0, ddof=1)
        npt.assert_allclose(var, 1.0 / 3.0, rtol=0.06)

    def test_wide_slab_recovers_data(self):
        # v -> large: shrinkage disappears and theta | rest ~ N2(d, sigma2 Sigma)
        _, _, _, model = hand_model()
        state = sp.init_state(model)
        state.sigma2 = 1.0
        rng = make_rng(20240817, 37)
        reps = 20000
        draws = np.empty((reps, model.n_det, 2))
        for i in range(reps):
            state.v[:] = 1e9
            model.set_C(state, np.broadcast_to(mat2.pack(1.0, 0.0, 1.0), state.C.shape))
            sp.update_theta(state, model, rng)
            draws[i] = state.theta
        se = np.sqrt(0.5 / reps)
        npt.assert_allclose(draws.mean(axis=0), model.d, atol=4.5 * se)

    def test_general_covariance_oracle(self):
        # one coefficient, dense linear algebra as the reference
        tree, noise, hp, model = doppler_model()
        k = 3
        j = tree.j0 + model.lev_of[k]
        S = noise.matrix(j)
        C = np.array([[1.3, 0.4], [0.4, 0.9]])
        P = np.linalg.inv(0.8 * S) + np.linalg.inv(2.5 * C)
        cov = np.linalg.inv(P)
        mu = cov @ np.linalg.inv(S) @ model.d[k] / 0.8
        state = sp.init_state(model)
        state.sigma2 = 0.8
        rng = make_rng(20240817, 39)
        reps = 30000
        draws = np.empty((reps, 2))
        for i in range(reps):
            state.v[:] = 2.5
            model.set_C(state, np.broadcast_to(mat2.pack(1.3, 0.4, 0.9), state.C.shape))
            sp.update_theta(state, model, rng)
            draws[i] = state.theta[k]
        assert np.all(np.abs(draws.mean(axis=0) - mu)
                      < 4 * np.sqrt(np.diag(cov) / reps))
        npt.assert_allclose(np.cov(draws.T), cov, rtol=0.06, atol=1e-4)


class TestVConditional:
    def test_inactive_resets_to_prior(self):
        _, _, _, model = hand_model()
        state = sp.init_state(model)
        state.z[:] = 0
        state.theta[:] = 0.0
        rng = make_rng(20240817, 41)
        reps = 20000
        draws = np.empty((reps, model.n_det))
        for i in range(reps):
            sp.update_v(state, model, rng)
            draws[i] = state.v
        # Ga(3/2, 8): mean 12, variance 96
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 12.0) < 4 * se
        assert abs(draws.var() - 96.0) < 0.05 * 96.0

    def test_active_follows_gig(self):
        # theta'C^{-1}theta = 4 with C = I gives GIG(1/4, 4, 1/2); its
        # mean is sqrt(16) K_{3/2}(1)/K_{1/2}(1) = 4 (1 + 1/1) = 8
        _, _, _, model = hand_model()
        state = sp.init_state(model)
        state.z[:] = 1
        state.theta[:, 0] = 2.0
        state.theta[:, 1] = 0.0
        rng = make_rng(20240817, 43)
        reps = 20000
        draws = np.empty((reps, model.n_det))
        model.set_C(state, np.broadcast_to(mat2.pack(1.0, 0.0, 1.0), state.C.shape))
        for i in range(reps):
            sp.update_v(state, model, rng)
            draws[i] = state.v
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 8.0) < 4 * se
        ref = stats.geninvgauss(0.5, 1.0, scale=4.0)  # omega = 1, scale = 4
        assert stats.kstest(draws[:, 0], ref.cdf).pvalue > 1e-2

    def test_zero_quadform_falls_back_to_prior(self):
        _, _, _, model = hand_model()
        state = sp.init_state(model)
        state.z[:] = 1
        state.theta[:] = 0.0  # active but exactly zero: q = 0
        rng = make_rng(20240817, 45)
        draws = np.empty((4000, model.n_det))
        for i in range(len(draws)):
            draws[i] = (sp.update_v(state, model, rng), state.v)[1]
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 12.0) < 4 * se

    def test_slab_drawn_only_where_active(self, monkeypatch):
        _, _, _, model = doppler_model()
        state = sp.init_state(model)
        state.z[::3] = 0
        seen = []

        def recording_gig(a, b, rng):
            seen.append(np.asarray(b).copy())
            return dist.sample_gig(a, b, rng)

        monkeypatch.setattr(sp, "sample_gig", recording_gig)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sp.update_v(state, model, make_rng(20240817, 55))
        assert len(seen) == 1 and seen[0].size == np.count_nonzero(state.z)
        assert np.all(seen[0] > 1e-200)
        assert np.all(np.isfinite(state.v))

    def test_draws_are_clipped(self):
        _, _, _, model = hand_model()
        state = sp.init_state(model)
        state.z[:] = 1
        model.set_C(state, np.broadcast_to(mat2.pack(1.0, 0.0, 1.0), state.C.shape))
        state.theta[:, 0] = 1e12  # enormous quadratic form
        state.theta[:, 1] = 0.0
        sp.update_v(state, model, make_rng(20240817, 47))
        assert np.all(state.v <= 1e12) and np.all(state.v >= 1e-12)


class TestCConditional:
    def test_prior_reset_without_active_coefficients(self):
        _, _, hp, model = hand_model()
        state = sp.init_state(model)
        state.z[:] = 0
        state.theta[:] = 0.0
        state.v[:] = 1.0
        rng = make_rng(20240817, 49)
        reps = 20000
        draws = np.empty((reps, model.n_levels, 2, 2))
        for i in range(reps):
            sp.update_C(state, model, rng)
            draws[i] = mat2.to_matrix(state.C)
        expect = hp.A / (hp.w - 3.0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(draws.mean(axis=0) - expect) < 4 * se)

    def test_active_coefficients_enter_scale(self):
        _, _, hp, model = doppler_model()
        state = sp.init_state(model)
        state.z[:] = 0
        state.z[:4] = 1  # all four live on the coarsest level
        assert np.all(model.lev_of[:4] == 0)
        state.theta[:] = 0.0
        state.theta[:4] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]]
        state.v[:] = 1.0
        S = hp.A[0] + sum(np.outer(t, t) for t in state.theta[:4])
        dof = hp.w + 4.0
        rng = make_rng(20240817, 51)
        reps = 20000
        draws = np.empty((reps, 2, 2))
        for i in range(reps):
            sp.update_C(state, model, rng)
            draws[i] = mat2.to_matrix(state.C)[0]
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(draws.mean(axis=0) - S / (dof - 3.0)) < 4 * se)

    def test_every_draw_spd(self):
        _, _, _, model = doppler_model()
        state = sp.init_state(model)
        rng = make_rng(20240817, 53)
        for _ in range(200):
            sp.update_C(state, model, rng)
            assert np.all(mat2.is_spd(state.C[:, 0], state.C[:, 1], state.C[:, 2]))


class TestRunChain:
    def test_deterministic_given_seed(self):
        tree, noise, hp, _ = doppler_model()
        cfg = sp.SamplerConfig(iters=300, burnin=100)
        s1 = sp.run_chain(sp.GibbsModel(tree, noise, hp), cfg, make_rng(5, 1))
        s2 = sp.run_chain(sp.GibbsModel(tree, noise, hp), cfg, make_rng(5, 1))
        npt.assert_array_equal(s1.theta_mean, s2.theta_mean)
        npt.assert_array_equal(s1.z_mean, s2.z_mean)
        assert s1.sigma2_mean == s2.sigma2_mean

    def test_batch_reproduces_single_chains(self):
        # replicates with their own data, hyperparameters and streams run as
        # one batch must give bitwise their single-chain summaries
        cfg = sp.SamplerConfig(iters=40, burnin=15)
        seeds = (11, 12, 13)
        model = doppler_batch(seeds)
        batch = sp.run_chain(model, cfg, [make_rng(6, r) for r in range(3)])
        assert batch.theta_mean.shape == (3, model.n_det, 2)
        for r, seed in enumerate(seeds):
            one = sp.run_chain(doppler_model(seed=seed)[3], cfg, make_rng(6, r))
            npt.assert_array_equal(batch.theta_mean[r], one.theta_mean)
            npt.assert_array_equal(batch.z_mean[r], one.z_mean)
            npt.assert_array_equal(batch.eps_mean[r], one.eps_mean)
            assert batch.sigma2_mean[r] == one.sigma2_mean
        with pytest.raises(ValueError, match="one generator per replicate"):
            sp.run_chain(model, cfg, make_rng(6, 0))

    def test_sweep_draws_two_blocks_then_active_normals(self):
        # per replicate, each sweep calls random, standard_normal and
        # standard_normal; the last draws two normals per active coefficient
        # and every other draw's size does not depend on z
        class Counting(np.random.Generator):
            def __init__(self, seed, stream):
                super().__init__(make_rng(seed, stream).bit_generator)
                self.calls = []

            def random(self, size=None, dtype=np.float64, out=None):
                self.calls.append(("random", np.size(out) if out is not None
                                   else int(np.prod(size))))
                return super().random(size, dtype, out)

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                self.calls.append(("standard_normal", np.size(out) if out is not None
                                   else int(np.prod(size))))
                return super().standard_normal(size, dtype, out)

        model = doppler_batch((11, 12, 13))
        gens = [Counting(6, r) for r in range(3)]
        state = sp.init_state(model)
        for _ in range(20):
            sp.sweep(state, model, gens)
            active = np.count_nonzero(state.z, axis=-1)
            for gen, k in zip(gens, active):
                assert [name for name, _ in gen.calls] == [
                    "random", "standard_normal", "standard_normal"]
                assert gen.calls[2][1] == 2 * k
                gen.calls.clear()

        calls = []
        for eps in (0.0, 1.0):
            _, _, _, one = doppler_model()
            state = sp.init_state(one)
            state.eps[:] = eps  # forces every z to eps
            gen = Counting(6, 0)
            sp.sweep(state, one, gen)
            assert np.all(state.z == eps)
            calls.append(gen.calls)
        assert calls[0][:2] == calls[1][:2]
        assert [size for _, size in (calls[0][2], calls[1][2])] == [0, 2 * one.n_det]

    def test_accepts_prebuilt_model(self):
        # a chain leaves its model as it found it, so a model can be reused
        _, _, _, model = doppler_model()
        cfg = sp.SamplerConfig(iters=50, burnin=10)
        s1 = sp.run_chain(model, cfg, make_rng(5, 3))
        s2 = sp.run_chain(model, cfg, make_rng(5, 3))
        npt.assert_array_equal(s1.theta_mean, s2.theta_mean)

    def test_single_kept_draw_equals_final_state(self):
        tree, noise, hp, _ = doppler_model()
        cfg = sp.SamplerConfig(iters=3, burnin=2)
        summary = sp.run_chain(sp.GibbsModel(tree, noise, hp), cfg, make_rng(5, 5))
        model = sp.GibbsModel(tree, noise, hp)
        state = sp.init_state(model)
        rng = make_rng(5, 5)
        for _ in range(3):
            sp.sweep(state, model, rng)
        assert summary.n_kept == 1
        npt.assert_array_equal(summary.theta_mean, state.theta)
        npt.assert_array_equal(summary.z_mean, state.z.astype(float))
        npt.assert_array_equal(summary.eps_mean, state.eps)
        assert summary.sigma2_mean == state.sigma2

    def test_invariants_hold_along_the_chain(self):
        _, _, _, model = doppler_model()
        state = sp.init_state(model)
        rng = make_rng(8, 0)
        for _ in range(50):
            sp.sweep(state, model, rng)
            assert np.all(state.theta[state.z == 0] == 0.0)
            assert np.all(mat2.is_spd(state.C[:, 0], state.C[:, 1], state.C[:, 2]))
            assert state.sigma2 > 0
            assert np.all((state.eps >= 0) & (state.eps <= 1))
            assert np.all((state.v >= 1e-12) & (state.v <= 1e12))

    def test_pure_noise_mostly_excluded(self):
        filters = tr.load_filters("scd3")
        y = make_rng(606, 0).standard_normal(256)
        tree = tr.forward(y, 3, filters)
        noise = tr.noise_scale(256, 3, filters)
        hp = sp.elicit(tree, noise)
        cfg = sp.SamplerConfig(iters=600, burnin=300)
        summary = sp.run_chain(sp.GibbsModel(tree, noise, hp), cfg, make_rng(606, 1))
        assert np.mean(summary.z_mean < 0.5) > 0.9
        assert 0.7 < summary.sigma2_mean < 1.3

    def test_update_failure_names_step_and_sweep(self, monkeypatch):
        _, _, _, model = doppler_model()

        def bomb(state, model, rng):
            raise FloatingPointError("synthetic failure")

        patched = tuple(
            (name, bomb if name == "v" else step) for name, step in sp._SWEEP
        )
        monkeypatch.setattr(sp, "_SWEEP", patched)
        cfg = sp.SamplerConfig(iters=5, burnin=1)
        with pytest.raises(sp.SamplerError, match="update 'v' failed at sweep 0"):
            sp.run_chain(model, cfg, make_rng(5, 9))


class TestDenoise:
    def test_zero_signal_returns_zero(self):
        cfg = sp.SamplerConfig(iters=200, burnin=100, seed=3)
        res = sp.denoise(np.zeros(256), cfg)
        assert res.estimate.shape == (256,)
        assert np.max(np.abs(res.estimate)) < 1e-6
        assert res.summary.theta_mean.shape == (248, 2)
        assert res.sigma2 == res.summary.sigma2_mean

    @pytest.mark.parametrize("method", sp.METHODS)
    def test_overflowing_noise_estimate_is_one_error(self, method):
        # the squared MAD scale of 2^600 y passes the float range; the
        # suite turns any RuntimeWarning on the way into the error instead
        _, y = noisy_signal("doppler", 256, 3.0, 1)
        cfg = sp.SamplerConfig(iters=20, burnin=10)
        with pytest.raises(ValueError, match="MAD noise variance estimate overflows"):
            sp.denoise(2.0 ** 600 * y, cfg, method=method)

    def test_deterministic(self):
        _, y = noisy_signal("heavisine", 128, 5.0, 42)
        cfg = sp.SamplerConfig(iters=150, burnin=50, seed=9)
        r1 = sp.denoise(y, cfg)
        r2 = sp.denoise(y, cfg)
        npt.assert_array_equal(r1.estimate, r2.estimate)

    def test_beats_raw_noise(self):
        # denoised MSE must undercut the noisy input's MSE in >= 19/20 reps
        cfg = sp.SamplerConfig(iters=800, burnin=400)
        wins = 0
        for rep in range(20):
            truth, y = noisy_signal("heavisine", 256, 5.0, 707, stream=rep)
            res = sp.denoise(y, cfg, rng=make_rng(708, rep))
            wins += np.mean((res.estimate - truth) ** 2) < np.mean((y - truth) ** 2)
        assert wins >= 19

    def test_respects_explicit_j0(self):
        _, y = noisy_signal("doppler", 128, 5.0, 13)
        cfg = sp.SamplerConfig(iters=60, burnin=20, j0=4)
        res = sp.denoise(y, cfg)
        assert res.summary.theta_mean.shape == (128 - 16, 2)

    @pytest.mark.parametrize("method", ["cmws-hard", "ceb"])
    def test_baselines_match_hand_built_pipeline(self, method):
        # forward -> floored MAD -> shrink -> inverse, for one signal and a stack
        shrink = {"cmws-hard": cmws_hard, "ceb": ceb_posterior_mean}[method]
        filters = tr.load_filters("scd3")
        noise = tr.noise_scale(128, 3, filters)

        def by_hand(y):
            tree = tr.forward(y, 3, filters)
            sigma2 = max(sp.estimate_sigma2_mad(tree), 1e-20)
            return (*tr.inverse(shrink(tree, sigma2, noise), filters), sigma2)

        ys = np.stack([noisy_signal(name, 128, 5.0, 17)[1]
                       for name in ("doppler", "bumps", "blocks")])
        cfg = sp.SamplerConfig(iters=60, burnin=20, j0=3)
        one = sp.denoise(ys[0], cfg, method=method)
        batch = sp.denoise(ys, cfg, method=method)
        assert one.summary is None and batch.summary is None
        est, resid, sigma2 = by_hand(ys[0])
        npt.assert_array_equal(one.estimate, est)
        assert one.imag_residual == resid and one.sigma2 == sigma2
        assert batch.estimate.shape == ys.shape
        for r, y in enumerate(ys):
            est, resid, sigma2 = by_hand(y)
            npt.assert_array_equal(batch.estimate[r], est)
            assert batch.imag_residual[r] == resid and batch.sigma2[r] == sigma2

    @pytest.mark.parametrize("method,R", [
        (method, R)
        for method, Rs in (("cmws-hard", (1, sp._BASELINE_CHUNK - 1, sp._BASELINE_CHUNK,
                                          sp._BASELINE_CHUNK + 1, 60)),
                           ("ceb", (1, sp._BASELINE_CHUNK - 1, sp._BASELINE_CHUNK,
                                    sp._BASELINE_CHUNK + 1)))
        for R in Rs
    ])
    def test_baseline_chunks_match_single_runs(self, method, R, monkeypatch):
        # a stack runs in chunks of _BASELINE_CHUNK rows, one forward each,
        # and every row is bitwise its own single-signal run; row 1 is
        # constant, so its floored MAD estimate shares a chunk with others
        names = ("doppler", "bumps", "blocks", "heavisine")
        ys = np.stack([noisy_signal(names[r % 4], 128, 3.0, 41, stream=r)[1]
                       for r in range(R)])
        if R > 1:
            ys[1] = 0.75
        cfg = sp.SamplerConfig(j0=3)
        calls = []
        real_forward = sp.forward

        def counting(signal, *args):
            calls.append(np.shape(signal))
            return real_forward(signal, *args)

        monkeypatch.setattr(sp, "forward", counting)
        batch = sp.denoise(ys, cfg, method=method)
        assert len(calls) == -(-R // sp._BASELINE_CHUNK)
        assert batch.estimate.shape == ys.shape
        assert batch.sigma2.shape == batch.imag_residual.shape == (R,)
        if R > 1:
            assert batch.sigma2[1] == 1e-20
        for r, y in enumerate(ys):
            one = sp.denoise(y, cfg, method=method)
            npt.assert_array_equal(batch.estimate[r], one.estimate)
            assert batch.sigma2[r] == one.sigma2
            assert batch.imag_residual[r] == one.imag_residual

    @pytest.mark.parametrize("k", [-30, 10, 30])
    @pytest.mark.parametrize("method", ["cmws-hard", "ceb"])
    def test_baselines_scale_equivariant(self, method, k):
        # scaling by a power of two is exact in floating point, so the
        # estimate must scale bitwise
        _, y = noisy_signal("doppler", 256, 5.0, 31)
        c = 2.0 ** k
        npt.assert_array_equal(sp.denoise(c * y, method=method).estimate,
                               c * sp.denoise(y, method=method).estimate)

    def test_stack_defaults_to_one_stream_per_replicate(self):
        # without rng, replicate r of a stack runs on make_rng(seed, r), so
        # replicate 0 is the default single-signal run
        ys = np.stack([noisy_signal(name, 64, 5.0, 19)[1] for name in ("doppler", "bumps")])
        cfg = sp.SamplerConfig(iters=40, burnin=20, seed=7)
        batch = sp.denoise(ys, cfg)
        for r, y in enumerate(ys):
            one = sp.denoise(y, cfg, rng=make_rng(cfg.seed, r))
            npt.assert_array_equal(batch.estimate[r], one.estimate)
            assert batch.sigma2[r] == one.sigma2
            assert batch.imag_residual[r] == one.imag_residual
        npt.assert_array_equal(batch.estimate[0], sp.denoise(ys[0], cfg).estimate)

    @pytest.mark.parametrize("method", sp.METHODS)
    @pytest.mark.parametrize("shape", [(2, 2, 64), (0, 64), ()])
    def test_rejects_other_shapes(self, method, shape):
        cfg = sp.SamplerConfig(iters=2, burnin=1)
        with pytest.raises(ValueError, match="one signal"):
            sp.denoise(np.zeros(shape), cfg, method=method)

    def test_unknown_method_rejected(self):
        cfg = sp.SamplerConfig(iters=2, burnin=1)
        with pytest.raises(ValueError, match="unknown method 'soft'"):
            sp.denoise(np.zeros(64), cfg, method="soft")
