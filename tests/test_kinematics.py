import json
import math

import numpy as np
import pytest

from mprim.kinematics import (KinematicChain, default_chain, final_distances,
                              fk_position, fk_positions, joint_transform,
                              load_chain)


def single_link(a=1.0):
    return KinematicChain((a,), (0.0,), (0.0,), (0.0,))


class TestForwardKinematics:
    def test_single_link_at_zero(self):
        np.testing.assert_allclose(fk_position(single_link(), [0.0]),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_single_link_quarter_turn(self):
        pos = fk_position(single_link(), [math.pi / 2])
        np.testing.assert_allclose(pos, [0.0, 1.0, 0.0], atol=1e-15)
        base = fk_position(single_link(), [0.0])
        assert np.linalg.norm(pos - base) == pytest.approx(math.sqrt(2))

    def test_matches_transform_composition_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.uniform(-0.5, 0.5, 3)
            d = rng.uniform(-0.5, 0.5, 3)
            alpha = rng.uniform(-np.pi, np.pi, 3)
            off = rng.uniform(-np.pi, np.pi, 3)
            chain = KinematicChain(tuple(a), tuple(d), tuple(alpha),
                                   tuple(off))
            q = rng.uniform(-np.pi, np.pi, 3)
            frame = np.eye(4)
            for j in range(3):
                frame = frame @ joint_transform(a[j], d[j], alpha[j],
                                                q[j] + off[j])
            np.testing.assert_allclose(fk_position(chain, q), frame[:3, 3],
                                       atol=1e-12)

    def test_continuity_under_tiny_perturbation(self):
        chain = default_chain()
        rng = np.random.default_rng(1)
        q = rng.uniform(-1.0, 1.0, 7)
        base = fk_position(chain, q)
        for j in range(7):
            bumped = q.copy()
            bumped[j] += 1e-9
            assert np.linalg.norm(fk_position(chain, bumped) - base) < 1e-6

    def test_wrong_joint_count(self):
        with pytest.raises(ValueError):
            fk_position(single_link(), [0.0, 0.0])

    def test_batch_matches_single(self):
        chain = default_chain()
        rows = np.random.default_rng(2).uniform(-1, 1, (5, 7))
        batch = fk_positions(chain, rows)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(batch[i], fk_position(chain, row))


def ave_ed_mm(preds, gts, chain):
    """Mean final end-effector distance in mm, as `evaluate` averages it."""
    return float(np.mean(final_distances(preds, gts, chain))) * 1000.0


class TestAveEd:
    def test_identical_lists_zero(self):
        t = np.linspace(0, 1, 20)[:, None]
        assert ave_ed_mm([t, t], [t, t], single_link()) == 0.0

    def test_single_joint_quarter_turn_distance(self):
        # final angles 0 vs pi/2 on a unit link: sqrt(2) meters
        gt = np.zeros((10, 1))
        pred = np.vstack([np.zeros((9, 1)), [[math.pi / 2]]])
        assert ave_ed_mm([pred], [gt], single_link()) == pytest.approx(
            math.sqrt(2) * 1000)

    def test_matches_per_sample_recomputation(self):
        chain = default_chain()
        rng = np.random.default_rng(3)
        preds = rng.uniform(-1, 1, (6, 4, 7))
        gts = rng.uniform(-1, 1, (6, 4, 7))
        expected = [np.linalg.norm(fk_position(chain, p[-1])
                                   - fk_position(chain, g[-1]))
                    for p, g in zip(preds, gts)]
        np.testing.assert_allclose(final_distances(preds, gts, chain),
                                   expected, rtol=1e-12)

    def test_symmetry_and_positivity(self):
        chain = default_chain()
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (4, 3, 7))
        b = rng.uniform(-1, 1, (4, 3, 7))
        np.testing.assert_array_equal(final_distances(a, b, chain),
                                      final_distances(b, a, chain))
        assert np.all(final_distances(a, b, chain) > 0.0)

    def test_empty_and_mismatched_inputs(self):
        assert final_distances([], [], single_link()).shape == (0,)
        t = np.zeros((3, 1))
        with pytest.raises(ValueError, match="1 predictions but 2"):
            final_distances([t], [t, t], single_link())


class TestChainConfig:
    def test_round_trip(self, tmp_path):
        chain = default_chain()
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "kind": "kinematic_chain", "a": list(chain.a),
            "d": list(chain.d), "alpha": list(chain.alpha),
            "theta_offset": list(chain.theta_offset)}))
        assert load_chain(path) == chain

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something_else"}\n')
        with pytest.raises(ValueError):
            load_chain(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            KinematicChain((), (), (), ())
        with pytest.raises(ValueError):
            KinematicChain((1.0,), (0.0, 0.0), (0.0,), (0.0,))
        with pytest.raises(ValueError):
            KinematicChain((math.inf,), (0.0,), (0.0,), (0.0,))
