import numpy as np
import pytest

from mprim import kernels
from mprim.promp import RIDGE, build_phi, fit_weights
from mprim.regressor import (BETA1, BETA2, EPSILON, MlpParams, adam_init,
                             adam_step, init_mlp, mlp_forward)
from mprim.training import DmpHead, PrompHead, batch_loss_and_grad

T = 30


def traj_head(n_joint=1, n_basis=5):
    return PrompHead("rtp", n_joint, T, n_basis)


def dmp_head(task, n_joint):
    return DmpHead(task, n_joint, T, 5, None)


@pytest.fixture(scope="module")
def traj_small():
    return traj_head()


def loss_of(head, pred, gt):
    """One sample's loss; `pred` and `gt` are flattened into head rows."""
    losses, _ = head.loss_and_grad(np.ravel(pred)[None, :],
                                   np.ravel(gt)[None, :])
    return float(losses[0])


def loss_trajectory(ps, gt, head):
    return loss_of(head, ps, gt)


def loss_ddmp_rtp(forcing_ps, goal_ps, forcing_gt, goal_gt):
    return loss_of(dmp_head("rtp", len(goal_gt)),
                   np.r_[np.ravel(forcing_ps), goal_ps],
                   np.r_[np.ravel(forcing_gt), goal_gt])


def loss_ddmp_wpp(pred, gt):
    return loss_of(dmp_head("wpp", 1), pred, gt)


def layer_buffers(params, rows):
    """The forward pass's per-layer arrays and the backward pass's work
    pairs, for batches of at most `rows`."""
    out = [np.empty((rows, d)) for d in params.layer_sizes[1:]]
    work = [(np.empty((rows, d)), np.empty((rows, d)))
            for d in params.layer_sizes[1:-1]]
    return out, work


def mlp_backward(params, ctx, head, target):
    """Gradient of one sample's loss w.r.t. `theta`, through the same
    kernels the training loop calls; (gradient, loss)."""
    out, work = layer_buffers(params, 1)
    acts = kernels.mlp_forward_acts(np.atleast_2d(ctx), params.weights,
                                    params.biases, out)
    losses, dpred = batch_loss_and_grad(head, acts[-1],
                                        np.atleast_2d(target))
    grad = np.empty_like(params.theta)
    kernels.mlp_backward_acts(acts, params.weights, dpred,
                              *params.views(grad), work)
    return grad, float(losses[0])


def numeric_gradient(params, ctx, loss_fn, step=1e-5):
    """Central finite differences over every network parameter."""
    grad = np.empty_like(params.theta)
    for i in range(params.theta.size):
        up, down = params.theta.copy(), params.theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_fn(MlpParams(params.layer_sizes, up), ctx)
                   - loss_fn(MlpParams(params.layer_sizes, down), ctx)
                   ) / (2 * step)
    return grad


def adam_reference(arrays, grads_per_step, learning_rate):
    """Adam one parameter array at a time, each update a new array."""
    arrays = list(arrays)
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        for k, g in enumerate(grads):
            m[k] = BETA1 * m[k] + (1 - BETA1) * g
            v[k] = BETA2 * v[k] + (1 - BETA2) * g * g
            arrays[k] = arrays[k] - learning_rate * (m[k] / c1) / (
                np.sqrt(v[k] / c2) + EPSILON)
    return arrays


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        params = MlpParams((3, 2), np.zeros(8))
        out = mlp_forward(params, np.ones((4, 3)))
        assert out.shape == (4, 2)
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_single_layer(self):
        params = MlpParams((3, 3), np.r_[np.eye(3).ravel(), np.zeros(3)])
        x = np.array([[0.2, -0.7, 1.5], [1.0, 0.0, -2.0]])
        np.testing.assert_array_equal(mlp_forward(params, x), x)

    def test_seeded_init_reproducible(self):
        a = init_mlp((4, 8, 2), seed=5)
        b = init_mlp((4, 8, 2), seed=5)
        x = np.array([[0.1, 0.2, 0.3, 0.4]])
        np.testing.assert_array_equal(mlp_forward(a, x), mlp_forward(b, x))

    def test_batch_and_single_agree(self):
        # each row of a batch as a batch of one
        params = init_mlp((3, 6, 2), seed=0)
        x = np.random.default_rng(1).standard_normal((5, 3))
        batch = mlp_forward(params, x)
        for i in range(5):
            np.testing.assert_allclose(mlp_forward(params, x[i:i + 1])[0],
                                       batch[i], rtol=1e-12, atol=1e-14)

    def test_wrong_width_rejected(self):
        # a single unbatched context is rejected too
        params = init_mlp((3, 2), seed=0)
        for shape in [(2, 4), (3,), (1, 1, 3)]:
            with pytest.raises(ValueError,
                               match=r"network expects \(B, 3\)"):
                mlp_forward(params, np.zeros(shape))


class TestFlatLayout:
    def test_layers_are_views_into_theta(self):
        params = init_mlp((3, 4, 2), seed=0)
        assert [w.shape for w in params.weights] == [(3, 4), (4, 2)]
        assert [b.shape for b in params.biases] == [(4,), (2,)]
        params.theta[:] = np.arange(params.theta.size)
        np.testing.assert_array_equal(params.weights[1][0], [16.0, 17.0])
        np.testing.assert_array_equal(params.biases[1], [24.0, 25.0])

    def test_theta_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="need"):
            MlpParams((3, 2), np.zeros(7))

    def test_backward_into_flat_buffer_equals_per_layer_products(self):
        rng = np.random.default_rng(8)
        params = init_mlp((10, 64, 64, 56), seed=8)
        x = rng.standard_normal((32, 10))
        delta = rng.standard_normal((32, 56))
        out, work = layer_buffers(params, 40)
        acts = kernels.mlp_forward_acts(x, params.weights, params.biases,
                                        out)
        grad = np.full_like(params.theta, np.nan)
        grads_w, grads_b = params.views(grad)
        kernels.mlp_backward_acts(acts, params.weights, delta, grads_w,
                                  grads_b, work)
        assert np.all(np.isfinite(grad))   # every parameter was written
        for k in (2, 1, 0):
            np.testing.assert_array_equal(grads_w[k], acts[k].T @ delta)
            np.testing.assert_array_equal(grads_b[k], delta.sum(axis=0))
            delta = (delta @ params.weights[k].T) * (1.0 - acts[k] * acts[k])

    def test_flat_adam_equals_per_array_adam_bit_for_bit(self):
        params = init_mlp((5, 16, 16, 7), seed=4)
        arrays = [a.copy() for layer in zip(params.weights, params.biases)
                  for a in layer]
        rng = np.random.default_rng(4)
        grads = rng.standard_normal((300, params.theta.size))
        state = adam_init(params, learning_rate=0.01)
        for g in grads:
            adam_step(state, params.theta, g)
        expected = adam_reference(
            arrays, ([a.copy() for layer in zip(*params.views(g))
                      for a in layer] for g in grads), 0.01)
        got = [a for layer in zip(params.weights, params.biases)
               for a in layer]
        assert state.step == 300
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


class TestLossValues:
    def test_trajectory_zero_at_equal_weights(self, traj_small):
        theta = np.arange(5.0)
        assert loss_trajectory(theta, theta, traj_small) == 0.0

    def test_trajectory_single_basis_unit_gap(self):
        # one basis: partition of unity makes the trajectory gap constant
        assert loss_trajectory(np.array([0.0]), np.array([1.0]),
                               traj_head(1, 1)) == pytest.approx(1.0)

    def test_trajectory_matches_reconstruction_oracle(self, traj_small):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gt, ps = rng.standard_normal((2, 5))
            phi = traj_small.phi
            gap = phi.values @ gt - phi.values @ ps
            expected = np.sqrt(np.mean(gap ** 2))
            assert loss_trajectory(ps, gt, traj_small) == pytest.approx(
                expected, rel=1e-12)

    def test_trajectory_bounded_by_weight_gap(self, traj_small):
        # rows are convex combinations, so the loss cannot exceed the
        # largest per-basis weight gap
        rng = np.random.default_rng(3)
        for _ in range(50):
            gt, ps = rng.standard_normal((2, 5)) * 3.0
            assert loss_trajectory(ps, gt, traj_small) <= np.max(
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

    def test_nonnegativity(self, traj_small):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = rng.standard_normal((2, 5))
            assert loss_trajectory(a, b, traj_small) >= 0.0
            assert loss_ddmp_wpp(a, b) >= 0.0


class TestGradients:
    def test_zero_gradient_at_optimum(self):
        params = init_mlp((2, 4, 10), seed=0)
        ctx = np.array([[0.5, -0.5]])
        target = mlp_forward(params, ctx)   # prediction == ground truth
        grad, loss = mlp_backward(params, ctx, traj_head(2), target)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_trajectory_gradient_closed_form(self):
        # two-basis symbolic check of the gradient w.r.t. the prediction
        head = traj_head(1, 2)
        phi = head.phi
        rng = np.random.default_rng(7)
        gt = rng.standard_normal((1, 2))
        ps = rng.standard_normal((1, 2))
        losses, grad = head.loss_and_grad(ps, gt)
        d = phi.values @ (gt[0] - ps[0])
        expected = -phi.values.T @ d / (30 * losses[0])
        np.testing.assert_allclose(grad[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("loss_kind,n_joint,width", [
        ("trajectory", 2, 10),     # 2 joints x 5 bases
        ("ddmp_rtp", 2, 12),       # 2 joints x 5 kernels + 2 goals
        ("ddmp_wpp", 2, 14),       # ... + 2 starts
    ])
    def test_gradients_match_finite_differences(self, loss_kind, n_joint,
                                                width):
        head = {"trajectory": traj_head(n_joint),
                "ddmp_rtp": dmp_head("rtp", n_joint),
                "ddmp_wpp": dmp_head("wpp", n_joint)}[loss_kind]
        rng = np.random.default_rng(11)
        for case in range(100):
            params = init_mlp((3, 6, width), seed=case)
            ctx = rng.standard_normal(3)
            target = rng.standard_normal(width)

            analytic, _ = mlp_backward(params, ctx, head, target)

            def loss_fn(p, c, _t=target):
                pred = mlp_forward(p, c[None, :])
                losses, _ = head.loss_and_grad(pred, _t[None, :])
                return losses[0]

            numeric = numeric_gradient(params, ctx, loss_fn)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="differs from target shape"):
            batch_loss_and_grad(traj_head(), np.zeros((1, 5)),
                                np.zeros((2, 5)))


def t_space_loss_and_grad(phi, n_joint, pred, gt):
    """The trajectory loss built from the T-long residual Phi d of every
    (sample, joint): the sum over joints of RMS(Phi d), and its gradient
    Phi^T Phi d / (T * RMS)."""
    b = len(pred)
    d = (pred - gt).reshape(b, n_joint, -1)
    traj = d @ phi.values.T                              # (b, n_joint, T)
    rms = np.sqrt(np.mean(traj ** 2, axis=2))
    grad = traj @ phi.values / (phi.n_samples * rms[:, :, None])
    return rms.sum(axis=1), grad


class TestGramForm:
    """`trajectory_loss` scores d = pred - gt through the Gram matrix
    Phi^T Phi instead of the trajectories Phi d."""

    @pytest.mark.parametrize("n_basis", [8, 10], ids=["rtp", "wpp"])
    def test_matches_trajectory_space_formula(self, n_basis):
        # 7 joints x 8 (rtp) or 10 (wpp) bases at T = 150. Losses agree to
        # rtol 1e-12. A gradient entry can be a cancellation of larger
        # terms, so each entry agrees to 1e-12 of the largest entry of its
        # (sample, joint) block.
        head = PrompHead("rtp", 7, 150, n_basis)
        rng = np.random.default_rng(n_basis)
        for _ in range(20):
            gt = 10.0 * rng.standard_normal((32, 7 * n_basis))
            scale = 10.0 ** rng.uniform(-3.0, 3.0, (32, 1))
            pred = gt + scale * rng.uniform(-1.0, 1.0, gt.shape)
            losses, grad = head.loss_and_grad(pred, gt)
            want_losses, want_grad = t_space_loss_and_grad(head.phi, 7,
                                                           pred, gt)
            np.testing.assert_allclose(losses, want_losses, rtol=1e-12,
                                       atol=0.0)
            err = np.abs(grad.reshape(want_grad.shape) - want_grad)
            block = np.abs(want_grad).max(axis=2, keepdims=True)
            assert np.all(err <= 1e-12 * block)

    def test_zero_residual_row_has_zero_loss_and_gradient(self):
        head = PrompHead("rtp", 7, 150, 8)
        rng = np.random.default_rng(1)
        gt = rng.standard_normal((3, 56))
        pred = gt + rng.standard_normal((3, 56))
        pred[1] = gt[1]
        losses, grad = head.loss_and_grad(pred, gt)
        assert losses[1] == 0.0 and np.all(grad[1] == 0.0)
        assert np.all(losses[[0, 2]] > 0.0)
        assert np.all(np.isfinite(grad))

    def test_zero_residual_joint_has_zero_gradient_only_there(self):
        head = PrompHead("rtp", 7, 150, 8)
        rng = np.random.default_rng(2)
        gt = rng.standard_normal((2, 56))
        pred = gt + rng.standard_normal((2, 56))
        pred[0, 3 * 8:4 * 8] = gt[0, 3 * 8:4 * 8]           # joint 3
        _, grad = head.loss_and_grad(pred, gt)
        per_joint = np.abs(grad.reshape(2, 7, 8)).max(axis=2)
        assert per_joint[0, 3] == 0.0
        assert np.all(np.delete(per_joint[0], 3) > 0.0)
        assert np.all(per_joint[1] > 0.0)

    @pytest.mark.parametrize("n_samples,n_basis", [(150, 8), (150, 10),
                                                   (30, 5)],
                             ids=["pc0-8", "pc1-10", "pc2-5"])
    def test_fit_through_gram_is_bit_identical(self, n_samples, n_basis):
        phi = build_phi(n_samples, n_basis)
        np.testing.assert_array_equal(phi.gram, phi.values.T @ phi.values)
        q = np.random.default_rng(3).standard_normal((n_samples, 21))
        written_out = np.linalg.solve(
            phi.values.T @ phi.values + RIDGE * np.eye(n_basis),
            phi.values.T @ q).T
        assert fit_weights(q[None], phi)[0].tobytes() == written_out.tobytes()


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = init_mlp((2, 3), seed=0)
        state = adam_init(params, learning_rate=1e-3)
        before = params.theta.copy()
        adam_step(state, params.theta, np.zeros_like(params.theta))
        np.testing.assert_array_equal(params.theta, before)
        assert state.step == 1

    def test_constant_gradient_step_size(self):
        # with a constant gradient the normalized step approaches the
        # learning rate, opposing the gradient sign
        params = MlpParams((1, 1), np.zeros(2))
        state = adam_init(params, learning_rate=0.01)
        g = np.array([2.5, 0.0])
        for _ in range(500):
            adam_step(state, params.theta, g)
        # one more step to measure the increment at steady state
        before = params.weights[0][0, 0]
        adam_step(state, params.theta, g)
        inc = params.weights[0][0, 0] - before
        assert inc == pytest.approx(-0.01, rel=1e-3)

    def test_steps_around_the_exact_bias_correction_equal_the_divide(self):
        # from step 356 on, 1 - BETA1**step is exactly 1.0 and adam_step
        # skips dividing m by it; steps 355, 356 and 357 still equal the
        # plain divide form bit for bit
        assert 1.0 - BETA1 ** 355 != 1.0 == 1.0 - BETA1 ** 356
        params = init_mlp((3, 8, 4), seed=6)
        arrays = [params.theta.copy()]
        grads = np.random.default_rng(6).standard_normal(
            (357, params.theta.size))
        state = adam_init(params, learning_rate=0.01)
        for step, g in enumerate(grads, start=1):
            adam_step(state, params.theta, g)
            if step >= 355:
                expected, = adam_reference(arrays, ([g] for g in
                                                    grads[:step]), 0.01)
                assert params.theta.tobytes() == expected.tobytes(), step

    def test_quadratic_bowl_convergence(self):
        # convergence oracle: minimize 0.5*||x||^2 by feeding the exact
        # gradient; momentum cancellation lets Adam settle below 1e-6
        rng = np.random.default_rng(3)
        params = MlpParams((1, 5), np.r_[rng.standard_normal(5),
                                         np.zeros(5)])
        state = adam_init(params, learning_rate=0.05)
        for step in range(5000):
            g = params.theta.copy()   # the biases stay at zero
            if np.linalg.norm(g) < 1e-6:
                break
            adam_step(state, params.theta, g)
        assert np.linalg.norm(params.weights[0]) < 1e-6
        assert step < 5000

    def test_deterministic(self):
        def run():
            params = init_mlp((2, 4, 2), seed=1)
            state = adam_init(params, learning_rate=0.01)
            rng = np.random.default_rng(0)
            for _ in range(50):
                adam_step(state, params.theta,
                          rng.standard_normal(params.theta.size))
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
