import numpy as np
import pytest

from mprim import kernels
from mprim.basis import PhaseConfig, default_basis, build_phi
from mprim.regressor import (AdamState, MlpParams, adam_init, adam_step,
                             batch_loss_and_grad, init_mlp, mlp_forward)


@pytest.fixture(scope="module")
def phi_small():
    pc = PhaseConfig(30.0, 30)
    return build_phi(pc, default_basis(pc, 5))


def loss_of(loss_kind, pred, gt, **kwargs):
    """One sample's loss; `pred` and `gt` are flattened into head rows."""
    losses, _ = batch_loss_and_grad(np.ravel(pred)[None, :],
                                    np.ravel(gt)[None, :], loss_kind,
                                    **kwargs)
    return float(losses[0])


def loss_trajectory(ps, gt, phi):
    return loss_of("trajectory", ps, gt, phi=phi, n_joint=1)


def loss_ddmp_rtp(forcing_ps, goal_ps, forcing_gt, goal_gt):
    return loss_of("ddmp_rtp", np.r_[np.ravel(forcing_ps), goal_ps],
                   np.r_[np.ravel(forcing_gt), goal_gt], n_joint=len(goal_gt))


def loss_ddmp_wpp(pred, gt):
    return loss_of("ddmp_wpp", pred, gt)


def mlp_backward(params, ctx, loss_kind, target, **kwargs):
    """Gradient of one sample's loss w.r.t. every net parameter, through
    the same kernels the training loop calls; ((grads_w, grads_b), loss)."""
    acts = kernels.mlp_forward_acts(np.atleast_2d(ctx), list(params.weights),
                                    list(params.biases))
    losses, dpred = batch_loss_and_grad(acts[-1], np.atleast_2d(target),
                                        loss_kind, **kwargs)
    grads_w, grads_b = kernels.mlp_backward_acts(acts, list(params.weights),
                                                 dpred)
    return (grads_w, grads_b), float(losses[0])


def flatten_grads(grads_w, grads_b):
    return np.concatenate([g.ravel() for g in list(grads_w) + list(grads_b)])


def numeric_gradient(params, ctx, loss_fn, step=1e-5):
    """Central finite differences over every network parameter."""
    def with_flat(flat):
        weights, biases, k = [], [], 0
        for w in params.weights:
            weights.append(flat[k:k + w.size].reshape(w.shape))
            k += w.size
        for b in params.biases:
            biases.append(flat[k:k + b.size].reshape(b.shape))
            k += b.size
        return MlpParams(params.layer_sizes, tuple(weights), tuple(biases),
                         params.seed)

    flat0 = np.concatenate([w.ravel() for w in params.weights]
                           + [b.ravel() for b in params.biases])
    grad = np.empty_like(flat0)
    for i in range(flat0.size):
        up, down = flat0.copy(), flat0.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_fn(with_flat(up), ctx)
                   - loss_fn(with_flat(down), ctx)) / (2 * step)
    return grad


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        params = MlpParams((3, 2), (np.zeros((3, 2)),), (np.zeros(2),))
        np.testing.assert_array_equal(mlp_forward(params, np.ones(3)), 0.0)

    def test_identity_single_layer(self):
        params = MlpParams((3, 3), (np.eye(3),), (np.zeros(3),))
        x = np.array([0.2, -0.7, 1.5])
        np.testing.assert_array_equal(mlp_forward(params, x), x)

    def test_seeded_init_reproducible(self):
        a = init_mlp((4, 8, 2), seed=5)
        b = init_mlp((4, 8, 2), seed=5)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(mlp_forward(a, x), mlp_forward(b, x))

    def test_batch_and_single_agree(self):
        params = init_mlp((3, 6, 2), seed=0)
        x = np.random.default_rng(1).standard_normal((5, 3))
        batch = mlp_forward(params, x)
        for i in range(5):
            np.testing.assert_allclose(mlp_forward(params, x[i]), batch[i],
                                       rtol=1e-12, atol=1e-14)

    def test_wrong_width_rejected(self):
        params = init_mlp((3, 2), seed=0)
        with pytest.raises(ValueError):
            mlp_forward(params, np.zeros(4))


class TestLossValues:
    def test_trajectory_zero_at_equal_weights(self, phi_small):
        theta = np.arange(5.0)
        assert loss_trajectory(theta, theta, phi_small) == 0.0

    def test_trajectory_single_basis_unit_gap(self):
        # one basis: partition of unity makes the trajectory gap constant
        pc = PhaseConfig(30.0, 30)
        phi = build_phi(pc, default_basis(pc, 1))
        assert loss_trajectory(np.array([0.0]), np.array([1.0]),
                               phi) == pytest.approx(1.0)

    def test_trajectory_matches_reconstruction_oracle(self, phi_small):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gt, ps = rng.standard_normal((2, 5))
            gap = phi_small.values @ gt - phi_small.values @ ps
            expected = np.sqrt(np.mean(gap ** 2))
            assert loss_trajectory(ps, gt, phi_small) == pytest.approx(
                expected, rel=1e-12)

    def test_trajectory_bounded_by_weight_gap(self, phi_small):
        # rows are convex combinations, so the loss cannot exceed the
        # largest per-basis weight gap
        rng = np.random.default_rng(3)
        for _ in range(50):
            gt, ps = rng.standard_normal((2, 5)) * 3.0
            assert loss_trajectory(ps, gt, phi_small) <= np.max(
                np.abs(gt - ps)) + 1e-12

    def test_rtp_loss_zero_and_goal_term(self):
        omega = np.zeros((2, 4))
        goal = np.array([0.5, -0.5])
        assert loss_ddmp_rtp(omega, goal, omega, goal) == 0.0
        shifted = goal + 0.01
        assert loss_ddmp_rtp(omega, shifted, omega, goal) == pytest.approx(
            1.0)   # default goal weight 100

    def test_rtp_loss_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            og, op = rng.standard_normal((2, 3, 5))
            gg, gp = rng.standard_normal((2, 3))
            expected = (np.sqrt(np.mean((og - op) ** 2))
                        + 100.0 * np.sqrt(np.mean((gg - gp) ** 2)))
            assert loss_ddmp_rtp(op, gp, og, gg) == pytest.approx(
                expected, rel=1e-12)

    def test_wpp_loss_single_slot(self):
        gt = np.zeros(12)
        pred = np.zeros(12)
        pred[7] = 0.3
        assert loss_ddmp_wpp(pred, gt) == pytest.approx(
            0.5 * 0.3 / np.sqrt(12))

    def test_wpp_loss_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pred, gt = rng.standard_normal((2, 17))
            expected = 0.5 * np.sqrt(np.mean((gt - pred) ** 2))
            assert loss_ddmp_wpp(pred, gt) == pytest.approx(expected,
                                                            rel=1e-12)

    def test_nonnegativity(self, phi_small):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = rng.standard_normal((2, 5))
            assert loss_trajectory(a, b, phi_small) >= 0.0
            assert loss_ddmp_wpp(a, b) >= 0.0


class TestGradients:
    def test_zero_gradient_at_optimum(self, phi_small):
        params = init_mlp((2, 4, 10), seed=0)
        ctx = np.array([0.5, -0.5])
        target = mlp_forward(params, ctx)   # prediction == ground truth
        (gw, gb), loss = mlp_backward(params, ctx, "trajectory", target,
                                      phi=phi_small, n_joint=2)
        assert loss == 0.0
        assert np.all(flatten_grads(gw, gb) == 0.0)

    def test_trajectory_gradient_closed_form(self, phi_small):
        # two-basis symbolic check of the gradient w.r.t. the prediction
        pc = PhaseConfig(30.0, 30)
        phi = build_phi(pc, default_basis(pc, 2))
        rng = np.random.default_rng(7)
        gt = rng.standard_normal((1, 2))
        ps = rng.standard_normal((1, 2))
        losses, grad = batch_loss_and_grad(ps, gt, "trajectory", phi=phi,
                                           n_joint=1)
        d = phi.values @ (gt[0] - ps[0])
        expected = -phi.values.T @ d / (30 * losses[0])
        np.testing.assert_allclose(grad[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("loss_kind,n_joint,width", [
        ("trajectory", 2, 10),     # 2 joints x 5 bases
        ("ddmp_rtp", 2, 12),       # 2 joints x 5 kernels + 2 goals
        ("ddmp_wpp", 2, 14),       # ... + 2 starts
    ])
    def test_gradients_match_finite_differences(self, phi_small, loss_kind,
                                                n_joint, width):
        rng = np.random.default_rng(11)
        for case in range(100):
            params = init_mlp((3, 6, width), seed=case)
            ctx = rng.standard_normal(3)
            target = rng.standard_normal(width)
            kwargs = {"phi": phi_small, "n_joint": n_joint} \
                if loss_kind == "trajectory" else (
                    {"n_joint": n_joint} if loss_kind == "ddmp_rtp" else {})

            (gw, gb), _ = mlp_backward(params, ctx, loss_kind, target,
                                       **kwargs)
            analytic = flatten_grads(gw, gb)

            def loss_fn(p, c, _k=kwargs, _t=target, _kind=loss_kind):
                pred = mlp_forward(p, c)
                losses, _ = batch_loss_and_grad(pred[None, :], _t[None, :],
                                                _kind, **_k)
                return losses[0]

            numeric = numeric_gradient(params, ctx, loss_fn)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4

    def test_unknown_loss_kind(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            batch_loss_and_grad(np.zeros((1, 3)), np.zeros((1, 3)), "nope")


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = init_mlp((2, 3), seed=0)
        state = adam_init(params)
        zw = [np.zeros_like(w) for w in params.weights]
        zb = [np.zeros_like(b) for b in params.biases]
        new_params, new_state = adam_step(state, params, zw, zb)
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_array_equal(old, new)
        assert new_state.step == 1

    def test_constant_gradient_step_size(self):
        # with a constant gradient the normalized step approaches the
        # learning rate, opposing the gradient sign
        params = MlpParams((1, 1), (np.zeros((1, 1)),), (np.zeros(1),))
        state = adam_init(params, learning_rate=0.01)
        g = [np.array([[2.5]])], [np.array([0.0])]
        prev = 0.0
        for _ in range(500):
            params, state = adam_step(state, params, *g)
        step = params.weights[0][0, 0] - prev
        # one more step to measure the increment at steady state
        params2, _ = adam_step(state, params, *g)
        inc = params2.weights[0][0, 0] - params.weights[0][0, 0]
        assert inc == pytest.approx(-0.01, rel=1e-3)

    def test_quadratic_bowl_convergence(self):
        # convergence oracle: minimize 0.5*||x||^2 by feeding the exact
        # gradient; momentum cancellation lets Adam settle below 1e-6
        rng = np.random.default_rng(3)
        params = MlpParams((1, 5), (rng.standard_normal((1, 5)),),
                           (np.zeros(5),))
        state = adam_init(params, learning_rate=0.05)
        for step in range(5000):
            g = params.weights[0]
            if np.linalg.norm(g) < 1e-6:
                break
            params, state = adam_step(state, params,
                                      [g.copy()], [np.zeros(5)])
        assert np.linalg.norm(params.weights[0]) < 1e-6
        assert step < 5000

    def test_deterministic(self):
        def run():
            params = init_mlp((2, 4, 2), seed=1)
            state = adam_init(params, learning_rate=0.01)
            rng = np.random.default_rng(0)
            for _ in range(50):
                gw = [rng.standard_normal(w.shape) for w in params.weights]
                gb = [rng.standard_normal(b.shape) for b in params.biases]
                params, state = adam_step(state, params, gw, gb)
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
