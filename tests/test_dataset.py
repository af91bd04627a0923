import json
import re

import numpy as np
import pytest

from mprim.dataset import (HOME_CONFIG, RTP_DEFAULT_COUNTS,
                           RTP_REGION_HALF_EXTENT, WPP_CONFIG_POSITIONS,
                           WPP_SPLITS, DemoDataset, SplitSpec, apply_split,
                           generate_rtp, generate_wpp, load_jsonl, min_jerk,
                           save_jsonl)
from mprim.errors import DatasetFormatError


class TestMinJerk:
    def test_constant_when_endpoints_equal(self):
        traj = min_jerk([0.4, -0.2], [0.4, -0.2], 50)
        np.testing.assert_array_equal(
            traj.values, np.broadcast_to(traj.values[0], traj.values.shape))

    def test_midpoint_symmetry(self):
        traj = min_jerk([0.0], [1.0], 151)
        assert traj.values[75, 0] == pytest.approx(0.5)

    def test_endpoint_derivatives_vanish(self):
        # finite-difference oracle: high-order one-sided stencils at both
        # ends stay below 1e-6 for a rest-to-rest quintic
        n = 5001
        traj = min_jerk([0.0], [1.0], n)
        q = traj.values[:, 0]
        h = 1.0 / (n - 1)
        vel0 = (-3 * q[0] + 4 * q[1] - q[2]) / (2 * h)
        vel1 = (3 * q[-1] - 4 * q[-2] + q[-3]) / (2 * h)
        acc0 = (35 * q[0] - 104 * q[1] + 114 * q[2] - 56 * q[3]
                + 11 * q[4]) / (12 * h * h)
        acc1 = (35 * q[-1] - 104 * q[-2] + 114 * q[-3] - 56 * q[-4]
                + 11 * q[-5]) / (12 * h * h)
        assert abs(vel0) < 1e-6 and abs(vel1) < 1e-6
        assert abs(acc0) < 1e-6 and abs(acc1) < 1e-6

    def test_endpoints(self):
        traj = min_jerk([0.3], [0.9], 20)
        assert traj.values[0, 0] == 0.3
        assert traj.values[-1, 0] == pytest.approx(0.9, abs=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError):
            min_jerk([0.0], [1.0], 1)


class TestGenerateRtp:
    def test_default_counts_total(self):
        ds = generate_rtp(seed=7)
        assert len(ds) == 545
        per_region = {}
        for s in ds.samples:
            per_region[s.tags["region"]] = per_region.get(
                s.tags["region"], 0) + 1
        assert per_region == RTP_DEFAULT_COUNTS

    def test_deterministic(self):
        a, b = generate_rtp(seed=3, counts=(5, 4, 3, 2)), \
            generate_rtp(seed=3, counts=(5, 4, 3, 2))
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.context, sb.context)
            np.testing.assert_array_equal(sa.trajectory.values,
                                          sb.trajectory.values)

    def test_positions_inside_their_region_rings(self):
        ds = generate_rtp(seed=5, counts=(30, 30, 30, 30))
        names = list(RTP_REGION_HALF_EXTENT)
        for s in ds.samples:
            dx = abs(s.context[0] - 0.55)
            dy = abs(s.context[1] - 0.0)
            region = s.tags["region"]
            outer = RTP_REGION_HALF_EXTENT[region]
            idx = names.index(region)
            inner = RTP_REGION_HALF_EXTENT[names[idx - 1]] if idx else 0.0
            assert max(dx, dy) <= outer + 1e-12
            assert max(dx, dy) >= inner - 1e-12

    def test_density_ordering(self):
        # samples per square meter strictly decrease from A to D
        areas, prev = {}, 0.0
        for name, half in RTP_REGION_HALF_EXTENT.items():
            full = (2 * half) ** 2
            areas[name] = full - prev
            prev = full
        dens = [RTP_DEFAULT_COUNTS[n] / areas[n] for n in areas]
        assert all(a > b for a, b in zip(dens, dens[1:]))

    def test_trajectories_start_at_home(self):
        ds = generate_rtp(seed=1, counts=(2, 2, 2, 2))
        for s in ds.samples:
            np.testing.assert_array_equal(s.trajectory.values[0], HOME_CONFIG)

    def test_noise_option(self):
        clean = generate_rtp(seed=2, counts=(3, 1, 1, 1))
        noisy = generate_rtp(seed=2, counts=(3, 1, 1, 1), noise_std=0.01)
        assert not np.allclose(clean.samples[0].trajectory.values,
                               noisy.samples[0].trajectory.values)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            generate_rtp(seed=0, counts=(0, 1, 1, 1))


class TestGenerateWpp:
    def test_default_cell_structure(self):
        ds = generate_wpp(seed=9)
        assert len(ds) == 868   # 7 patterns x 4 configs x 31 trials
        cells = {}
        for s in ds.samples:
            key = (s.tags["pattern"], s.tags["config"])
            cells[key] = cells.get(key, 0) + 1
        assert len(cells) == 28
        assert all(v == 31 for v in cells.values())

    def test_short_pattern_flags(self):
        ds = generate_wpp(seed=9, trials_per_cell=1)
        for s in ds.samples:
            assert s.tags["short"] == (s.tags["pattern"] in (6, 7))

    def test_context_layout(self):
        ds = generate_wpp(seed=4, trials_per_cell=1)
        s = ds.samples[0]
        assert s.context.shape == (10,)
        np.testing.assert_array_equal(
            s.context[:3], WPP_CONFIG_POSITIONS[s.tags["config"]])
        onehot = s.context[3:]
        assert onehot.sum() == 1.0
        assert onehot[s.tags["pattern"] - 1] == 1.0

    def test_trials_differ_within_cell(self):
        ds = generate_wpp(seed=4, trials_per_cell=2)
        a, b = ds.samples[0], ds.samples[1]
        assert a.tags == b.tags
        assert not np.array_equal(a.trajectory.values, b.trajectory.values)

    def test_deterministic(self):
        a = generate_wpp(seed=6, trials_per_cell=2)
        b = generate_wpp(seed=6, trials_per_cell=2)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.trajectory.values,
                                          sb.trajectory.values)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            generate_wpp(seed=0, trials_per_cell=0)


EXPECTED_DISPOSITIONS = {
    # experiment -> (train patterns, test patterns, half, unused)
    "WPP1": ({1, 2, 3, 6, 7}, {4, 5}, set(), set()),
    "WPP2": ({1, 2, 5, 6, 7}, {3, 4}, set(), set()),
    "WPP3": ({1, 2, 5}, {3, 4}, set(), {6, 7}),
    "WPP4": ({1, 4, 5}, {2, 3}, set(), {6, 7}),
    "WPP5": ({1, 2, 3, 6, 7}, set(), {4, 5}, set()),
    "WPP6": ({1, 2, 5, 6, 7}, set(), {3, 4}, set()),
    "WPP7": ({1, 2, 5}, set(), {3, 4}, {6, 7}),
    "WPP8": ({1, 4, 5}, set(), {2, 3}, {6, 7}),
    "WPP9": (set(), set(), {1, 2, 3, 4, 5, 6, 7}, set()),
    "WPP10": (set(), set(), {1, 2, 3, 4, 5}, {6, 7}),
}


class TestSplits:
    @pytest.mark.parametrize("name", sorted(WPP_SPLITS))
    def test_registry_matches_protocol_table(self, name):
        spec = WPP_SPLITS[name]
        train, test, half, unused = EXPECTED_DISPOSITIONS[name]
        for pattern in range(1, 8):
            d = spec.disposition(pattern)
            expected = ("train" if pattern in train else
                        "test" if pattern in test else
                        "half" if pattern in half else "unused")
            assert d == expected, (name, pattern)

    @pytest.mark.parametrize("name", sorted(WPP_SPLITS))
    def test_apply_split_membership(self, name):
        ds = generate_wpp(seed=2, trials_per_cell=4)
        train_idx, test_idx = apply_split(ds, WPP_SPLITS[name], seed=0)
        assert set(train_idx).isdisjoint(test_idx)
        exp_train, exp_test, half, unused = EXPECTED_DISPOSITIONS[name]
        train_patterns = {ds.samples[i].tags["pattern"] for i in train_idx}
        test_patterns = {ds.samples[i].tags["pattern"] for i in test_idx}
        assert exp_train <= train_patterns
        assert exp_test <= test_patterns
        for p in unused:
            assert p not in train_patterns and p not in test_patterns
        for p in half:
            assert p in train_patterns and p in test_patterns
        # coverage: every used sample lands on exactly one side
        used = {i for i, s in enumerate(ds.samples)
                if s.tags["pattern"] not in unused}
        assert used == set(train_idx) | set(test_idx)

    def test_half_split_is_per_configuration(self):
        ds = generate_wpp(seed=2, trials_per_cell=4)
        train_idx, test_idx = apply_split(ds, WPP_SPLITS["WPP9"], seed=1)
        for config in WPP_CONFIG_POSITIONS:
            for pattern in range(1, 8):
                cell = [i for i, s in enumerate(ds.samples)
                        if s.tags["config"] == config
                        and s.tags["pattern"] == pattern]
                n_train = sum(1 for i in cell if i in set(train_idx))
                assert n_train == 2      # 4 trials -> 2/2

    def test_split_annotates_samples(self):
        ds = generate_wpp(seed=2, trials_per_cell=2)
        train_idx, test_idx = apply_split(ds, WPP_SPLITS["WPP4"], seed=0)
        for i in train_idx:
            assert ds.samples[i].split == "train"
        for i in test_idx:
            assert ds.samples[i].split == "test"

    def test_split_tags_agree_with_indices(self):
        ds = generate_wpp(seed=2, trials_per_cell=2)
        train_idx, test_idx = apply_split(ds, WPP_SPLITS["WPP3"], seed=0)
        train, test = set(train_idx.tolist()), set(test_idx.tolist())
        tags = [s.split for s in ds.samples]
        assert [i for i, t in enumerate(tags) if t == "train"] == sorted(train)
        assert [i for i, t in enumerate(tags) if t == "test"] == sorted(test)
        assert None in tags   # WPP3 leaves patterns 6 and 7 unused
        assert all(t is None for i, t in enumerate(tags)
                   if i not in train | test)

    def test_seed_determinism(self):
        ds = generate_wpp(seed=2, trials_per_cell=4)
        a = apply_split(ds, WPP_SPLITS["WPP9"], seed=5)
        b = apply_split(ds, WPP_SPLITS["WPP9"], seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_missing_patterns_detected(self):
        ds = generate_rtp(seed=0, counts=(2, 1, 1, 1))
        with pytest.raises(ValueError):
            apply_split(ds, WPP_SPLITS["WPP1"], seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec("bad", tuple(enumerate(["train"] * 7, start=1)))
        with pytest.raises(ValueError):
            SplitSpec("bad", tuple(enumerate(["train"] * 6, start=1)))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = generate_wpp(seed=8, trials_per_cell=2)
        apply_split(ds, WPP_SPLITS["WPP4"], seed=0)
        path = tmp_path / "demos.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert back.kind == ds.kind and back.seed == ds.seed
        assert len(back) == len(ds)
        for a, b in zip(ds.samples, back.samples):
            np.testing.assert_array_equal(a.context, b.context)
            np.testing.assert_array_equal(a.trajectory.values,
                                          b.trajectory.values)
            assert a.tags == b.tags and a.split == b.split

    def test_empty_dataset_round_trips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_jsonl(DemoDataset("rtp", 0), path)
        back = load_jsonl(path)
        assert len(back) == 0 and back.kind == "rtp"

    def test_corrupted_line_names_line_number(self, tmp_path):
        ds = generate_rtp(seed=1, counts=(2, 1, 1, 1))
        path = tmp_path / "demos.jsonl"
        save_jsonl(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:40]   # truncate a record mid-JSON
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 4"):
            load_jsonl(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": 99, "kind": "rtp"}) + "\n")
        with pytest.raises(DatasetFormatError, match="schema"):
            load_jsonl(path)

    def test_sample_count_mismatch(self, tmp_path):
        ds = generate_rtp(seed=1, counts=(2, 1, 1, 1))
        path = tmp_path / "demos.jsonl"
        save_jsonl(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")   # drop one record
        with pytest.raises(DatasetFormatError, match="declares"):
            load_jsonl(path)

    @pytest.mark.parametrize("field,shape,want", [
        ("context", (2,), (3,)),
        ("trajectory", (150, 6), (150, 7)),
        ("trajectory", (149, 7), (150, 7)),
    ], ids=["context_width", "joints", "samples"])
    def test_inconsistent_record_names_line_and_shapes(self, tmp_path,
                                                       field, shape, want):
        path = tmp_path / "demos.jsonl"
        save_jsonl(generate_rtp(seed=1, counts=(2, 1, 1, 1)), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        value = np.asarray(record[field])
        record[field] = value[tuple(slice(n) for n in shape)].tolist()
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"line 4: {field} shape {shape} differs from the first "
                f"record's {want}")):
            load_jsonl(path)

    @pytest.mark.parametrize("seed", [[1], "x", 1.5, True, None])
    def test_non_integer_seed_rejected(self, tmp_path, seed):
        path = tmp_path / "demos.jsonl"
        path.write_text(json.dumps({"schema": 1, "kind": "rtp", "seed": seed,
                                    "n_samples": 0}) + "\n")
        with pytest.raises(DatasetFormatError, match="line 1: seed"):
            load_jsonl(path)
