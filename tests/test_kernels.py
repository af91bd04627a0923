import inspect

import numpy as np
import pytest

from mprim import (checkpoint, cli, dmp, kernels, kinematics, metrics, plots,
                   training)
from mprim.dmp import ROLLOUT_OVERSAMPLE

TAU, ALPHA_Z, BETA_Z, ALPHA_X = 7.6, 25.0, 6.25, 25.0 / 3.0


def mlp_case(seed, sizes=(10, 64, 64, 56), batch=32):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((a, b))
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) for b in sizes[1:]]
    x = rng.standard_normal((batch, sizes[0]))
    delta = rng.standard_normal((batch, sizes[-1]))
    return x, weights, biases, delta


def rollout_case(seed, n_batch=4, n_joint=7, n_basis=25):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n_basis)
    centers = np.exp(-ALPHA_X * ts)
    widths = np.empty(n_basis)
    widths[:-1] = 4.0 / np.diff(centers) ** 2
    widths[-1] = widths[-2]
    return (rng.standard_normal((n_batch, n_joint)),
            rng.standard_normal((n_batch, n_joint)),
            rng.standard_normal((n_batch, n_joint, n_basis)) * 200.0,
            centers, widths)


def rollout(start, goal, w, centers, widths, dt, steps, stride=1):
    return kernels.dmp_rollout(start, goal, w, centers, widths, TAU, ALPHA_Z,
                               BETA_Z, ALPHA_X, dt, steps, stride)


def euler_reference(start, goal, w, centers, widths, dt, steps):
    """One system, one Euler step at a time, positions (steps, n_joint)."""
    span = goal - start
    out = np.empty((steps, start.shape[0]))
    q = start.copy()
    v = np.zeros_like(q)
    out[0] = q
    for s in range(1, steps):
        x = np.exp(-ALPHA_X * ((s - 1) * dt) / TAU)
        psi = np.exp(-widths * (x - centers) ** 2)
        f = (w @ psi) / psi.sum() * x * span
        v_dot = (ALPHA_Z * (BETA_Z * (goal - q) - v) + f) / TAU
        q = q + dt * (v / TAU)
        v = v + dt * v_dot
        out[s] = q
    return out


def test_names_the_tracer_wraps():
    # perfbench/trace_stage.py wraps these by name at these modules; a
    # missing name would read as zero calls
    wrapped = {
        kernels: ("basis_matrix", "mlp_forward_acts", "mlp_backward_acts",
                  "dmp_rollout"),
        training: ("train", "evaluate", "batch_loss_and_grad", "adam_step",
                   "build_phi"),
        dmp: ("fit_dmp", "rollout_matched"),
        metrics: ("squared_trajectory_loss",),
        kinematics: ("fk_position",),
        checkpoint: ("save", "load"),
        plots: ("write_metrics_csv", "write_joint_csv", "write_ee_path_csv",
                "write_overlay_svg"),
        cli: ("generate_rtp", "generate_wpp", "save_jsonl", "load_jsonl",
              "apply_split"),
    }
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module, name)
    # the per-call counts read these arguments by position or name
    for fn, pos, name in ((kernels.dmp_rollout, 10, "steps"),
                          (training.evaluate, 2, "indices"),
                          (kernels.mlp_forward_acts, 0, "x"),
                          (kernels.mlp_backward_acts, 2, "delta_out"),
                          (cli.save_jsonl, 1, "path"),
                          (cli.load_jsonl, 0, "path"),
                          (checkpoint.save, 1, "path"),
                          (checkpoint.load, 0, "path")):
        assert list(inspect.signature(fn).parameters)[pos] == name, fn


class TestKernels:
    def test_basis_rows_sum_to_one(self):
        out = kernels.basis_matrix(np.linspace(0, 1, 150),
                                   np.linspace(0, 1, 8), 0.02)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_forward_repeatable(self):
        x, weights, biases, _ = mlp_case(0)
        a = kernels.mlp_forward_acts(x, weights, biases)[-1]
        b = kernels.mlp_forward_acts(x, weights, biases)[-1]
        np.testing.assert_array_equal(a, b)

    def test_rollout_start_row(self):
        start, goal, w, centers, widths = rollout_case(1)
        out = rollout(start, goal, w, centers, widths, 0.005, 100)
        np.testing.assert_array_equal(out[:, 0], start)
        assert out.shape == (4, 100, 7)


class TestBatchedRollout:
    DT, STEPS = TAU / 1490.0, 1491

    @pytest.mark.parametrize("n_joint", [2, 7])
    def test_equals_step_by_step_euler_bit_for_bit(self, n_joint):
        for seed in range(2):
            start, goal, w, centers, widths = rollout_case(seed,
                                                           n_joint=n_joint)
            out = rollout(start, goal, w, centers, widths, self.DT,
                          self.STEPS)
            for b in range(start.shape[0]):
                ref = euler_reference(start[b], goal[b], w[b], centers,
                                      widths, self.DT, self.STEPS)
                np.testing.assert_array_equal(out[b], ref)

    @pytest.mark.parametrize("n_joint", [2, 7])
    def test_batch_row_equals_single_call(self, n_joint):
        start, goal, w, centers, widths = rollout_case(3, n_batch=6,
                                                       n_joint=n_joint)
        out = rollout(start, goal, w, centers, widths, self.DT, self.STEPS)
        for b in range(6):
            one = rollout(start[b:b + 1], goal[b:b + 1], w[b:b + 1], centers,
                          widths, self.DT, self.STEPS)
            np.testing.assert_array_equal(out[b], one[0])

    def test_strided_output_is_full_rate_slice(self):
        start, goal, w, centers, widths = rollout_case(4)
        full = rollout(start, goal, w, centers, widths, self.DT, self.STEPS)
        strided = rollout(start, goal, w, centers, widths, self.DT,
                          self.STEPS, ROLLOUT_OVERSAMPLE)
        assert strided.shape == (4, 150, 7)
        np.testing.assert_array_equal(strided,
                                      full[:, ::ROLLOUT_OVERSAMPLE])

    def test_degenerate_joint_stays_on_start(self):
        start, goal, w, centers, widths = rollout_case(5)
        goal[2, 3] = start[2, 3]
        out = rollout(start, goal, w, centers, widths, self.DT, self.STEPS)
        np.testing.assert_array_equal(out[2, :, 3], start[2, 3])
        assert np.all(np.isfinite(out))
