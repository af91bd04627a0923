import base64
import dataclasses
import hashlib
import json
import os
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mprim.dataset import (HOME_CONFIG, RTP_DEFAULT_COUNTS,
                           RTP_REGION_HALF_EXTENT, WPP_CONFIG_POSITIONS,
                           WPP_SPLITS, DemoDataset, apply_split, goal_config,
                           generate_rtp, generate_wpp, load_jsonl, min_jerk,
                           save_jsonl)
from mprim.errors import DatasetFormatError


def _blob(values):
    """A trajectory as dataset schema 2 stores it."""
    return base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unblob(text, n_joint=7):
    return np.frombuffer(base64.b64decode(text), "<f8").reshape(-1, n_joint)


class TestMinJerk:
    def test_constant_when_endpoints_equal(self):
        traj = min_jerk([0.4, -0.2], [0.4, -0.2], 50)
        np.testing.assert_array_equal(
            traj, np.broadcast_to(traj[0], traj.shape))

    def test_midpoint_symmetry(self):
        traj = min_jerk([0.0], [1.0], 151)
        assert traj[75, 0] == pytest.approx(0.5)

    def test_endpoint_derivatives_vanish(self):
        # finite-difference oracle: high-order one-sided stencils at both
        # ends stay below 1e-6 for a rest-to-rest quintic
        n = 5001
        traj = min_jerk([0.0], [1.0], n)
        q = traj[:, 0]
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
        assert traj[0, 0] == 0.3
        assert traj[-1, 0] == pytest.approx(0.9, abs=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError):
            min_jerk([0.0], [1.0], 1)


@pytest.mark.parametrize("make,contexts,trajectories", [
    (lambda: generate_rtp(seed=1, counts=(6, 3, 2, 2), noise_std=0.01),
     "824e233c1256a386f20faeb2edab67aa73602a99bc8f24d888119bd9d017da1e",
     "f22092ba3c8c2af35a25c3211de015bcaee1631da540c5d453d6591ec8457bb5"),
    (lambda: generate_wpp(seed=1, trials_per_cell=2),
     "5dd3e1d1db210a4970a1771b330747e9be68a9cfabada045381cfd4e2275f421",
     "81e729baedb11d41f7045cff1fbbcd9bad375e2f551bee894f11fa68c33ff1f2"),
], ids=["rtp", "wpp"])
def test_generated_arrays_are_pinned(make, contexts, trajectories):
    # the generators' exact output, bit for bit: a manifest plus its seed
    # must reproduce a dataset on any install and after any refactor
    ds = make()
    assert hashlib.sha256(ds.contexts.tobytes()).hexdigest() == contexts
    assert (hashlib.sha256(ds.trajectories.tobytes()).hexdigest()
            == trajectories)


@pytest.mark.parametrize("make,file_sha", [
    (lambda: generate_rtp(seed=1, counts=(6, 3, 2, 2), noise_std=0.01),
     "3d2c14873e93b8811f465ce40a428992e088b53b2ac9d841131f15315efd128a"),
    (lambda: generate_wpp(seed=1, trials_per_cell=2),
     "421280ecfdc1b196747a6d8619efa6c4214a3c05cca5ea6143f0de212205a982"),
], ids=["rtp", "wpp"])
def test_saved_files_are_pinned(tmp_path, make, file_sha):
    # the dataset file of the pinned datasets, byte for byte: the writer
    # spells out the record line, and it must stay the line json.dumps of
    # the record object writes
    path = tmp_path / "d.jsonl"
    save_jsonl(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha


class TestStacks:
    # a stack of N inputs gives the N single calls' results bit for bit

    def test_goal_config(self):
        positions = generate_rtp(seed=4, counts=(5, 4, 3, 3)).contexts
        singles = np.array([goal_config(p) for p in positions])
        assert np.array_equal(goal_config(positions), singles)

    def test_min_jerk(self):
        rng = np.random.default_rng(0)
        q0, q1 = rng.normal(size=(2, 12, 7))
        singles = np.array([min_jerk(a, b, 40) for a, b in zip(q0, q1)])
        assert np.array_equal(min_jerk(q0, q1, 40), singles)
        home_singles = np.array([min_jerk(HOME_CONFIG, b, 40) for b in q1])
        assert np.array_equal(min_jerk(HOME_CONFIG, q1, 40), home_singles)


class TestGenerateRtp:
    def test_default_counts_total(self):
        ds = generate_rtp(seed=7)
        assert len(ds) == 545
        assert ds.contexts.shape == (545, 3)
        assert ds.trajectories.shape == (545, 150, 7)
        assert Counter(t["region"] for t in ds.tags) == RTP_DEFAULT_COUNTS

    def test_deterministic(self):
        a, b = generate_rtp(seed=3, counts=(5, 4, 3, 2)), \
            generate_rtp(seed=3, counts=(5, 4, 3, 2))
        np.testing.assert_array_equal(a.contexts, b.contexts)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)

    def test_positions_inside_their_region_rings(self):
        ds = generate_rtp(seed=5, counts=(30, 30, 30, 30))
        names = list(RTP_REGION_HALF_EXTENT)
        for context, tags in zip(ds.contexts, ds.tags):
            dx = abs(context[0] - 0.55)
            dy = abs(context[1] - 0.0)
            region = tags["region"]
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
        np.testing.assert_array_equal(
            ds.trajectories[:, 0], np.broadcast_to(HOME_CONFIG, (8, 7)))

    def test_noise_option(self):
        clean = generate_rtp(seed=2, counts=(3, 1, 1, 1))
        noisy = generate_rtp(seed=2, counts=(3, 1, 1, 1), noise_std=0.01)
        assert not np.allclose(clean.trajectories[0], noisy.trajectories[0])

    def test_bad_counts(self):
        with pytest.raises(ValueError, match="region A count must be an "
                                             "integer >= 1, got 0"):
            generate_rtp(seed=0, counts=(0, 1, 1, 1))

    @pytest.mark.parametrize("counts,match", [
        ((1, 2, 3), r"4 counts, one per region A, B, C, D, got \(1, 2, 3\)"),
        ((1, 2, 3, 4, 5), r"4 counts.*got \(1, 2, 3, 4, 5\)"),
        ({"A": 1, "E": 2}, "counts key 'E' is not a region"),
        ({}, "names no region"),
        ((True, 1, 1, 1), "region A count .* got True"),
        ((1, 1, 2.0, 1), "region C count .* got 2.0"),
        ({"B": "3"}, "region B count .* got '3'"),
    ], ids=["three", "five", "unknown_key", "empty", "bool", "float", "str"])
    def test_bad_counts_name_the_entry(self, counts, match):
        with pytest.raises(ValueError, match=match):
            generate_rtp(seed=0, counts=counts)

    def test_counts_by_region_name(self):
        ds = generate_rtp(seed=0, counts={"C": 2, "A": 1})
        assert [t["region"] for t in ds.tags] == ["C", "C", "A"]


class TestGenerateWpp:
    def test_default_cell_structure(self):
        ds = generate_wpp(seed=9)
        assert len(ds) == 868   # 7 patterns x 4 configs x 31 trials
        cells = Counter((t["pattern"], t["config"]) for t in ds.tags)
        assert len(cells) == 28
        assert all(v == 31 for v in cells.values())

    def test_short_pattern_flags(self):
        ds = generate_wpp(seed=9, trials_per_cell=1)
        for tags in ds.tags:
            assert tags["short"] == (tags["pattern"] in (6, 7))

    def test_context_layout(self):
        ds = generate_wpp(seed=4, trials_per_cell=1)
        context, tags = ds.contexts[0], ds.tags[0]
        assert context.shape == (10,)
        np.testing.assert_array_equal(
            context[:3], WPP_CONFIG_POSITIONS[tags["config"]])
        onehot = context[3:]
        assert onehot.sum() == 1.0
        assert onehot[tags["pattern"] - 1] == 1.0

    def test_trials_differ_within_cell(self):
        ds = generate_wpp(seed=4, trials_per_cell=2)
        assert ds.tags[0] == ds.tags[1]
        assert not np.array_equal(ds.trajectories[0], ds.trajectories[1])

    def test_deterministic(self):
        a = generate_wpp(seed=6, trials_per_cell=2)
        b = generate_wpp(seed=6, trials_per_cell=2)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)

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
        dispositions = WPP_SPLITS[name]
        assert len(dispositions) == 7
        train, test, half, unused = EXPECTED_DISPOSITIONS[name]
        for pattern in range(1, 8):
            d = dispositions[pattern - 1]
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
        train_patterns = {ds.tags[i]["pattern"] for i in train_idx}
        test_patterns = {ds.tags[i]["pattern"] for i in test_idx}
        assert exp_train <= train_patterns
        assert exp_test <= test_patterns
        for p in unused:
            assert p not in train_patterns and p not in test_patterns
        for p in half:
            assert p in train_patterns and p in test_patterns
        # coverage: every used sample lands on exactly one side
        used = {i for i, t in enumerate(ds.tags) if t["pattern"] not in unused}
        assert used == set(train_idx) | set(test_idx)

    def test_half_split_is_per_configuration(self):
        ds = generate_wpp(seed=2, trials_per_cell=4)
        train_idx, test_idx = apply_split(ds, WPP_SPLITS["WPP9"], seed=1)
        for config in WPP_CONFIG_POSITIONS:
            for pattern in range(1, 8):
                cell = [i for i, t in enumerate(ds.tags)
                        if t["config"] == config and t["pattern"] == pattern]
                n_train = sum(1 for i in cell if i in set(train_idx))
                assert n_train == 2      # 4 trials -> 2/2

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

    @pytest.mark.parametrize("tag", [0, 8, [1], True, 1.0, "1"])
    def test_bad_pattern_tag_names_the_demo(self, tag):
        # tuple indexing would wrap pattern 0 around to pattern 7
        ds = generate_wpp(seed=2, trials_per_cell=1)
        ds.tags[5]["pattern"] = tag
        with pytest.raises(ValueError, match=r"demo 5 has pattern tag .*"
                                             r"integer in 1\.\.7"):
            apply_split(ds, WPP_SPLITS["WPP1"], seed=0)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(WPP_SPLITS)),
           data_seed=st.integers(0, 2 ** 32 - 1),
           trials=st.integers(1, 3),
           split_seed=st.integers(0, 2 ** 32 - 1))
    def test_every_spec_splits_a_generated_dataset(self, name, data_seed,
                                                   trials, split_seed):
        # train and test are disjoint sorted index sets; whole-pattern
        # dispositions land on their side, half patterns keep the extra
        # demo of each cell on the train side, unused patterns appear on
        # neither, and together they cover every used demo
        ds = generate_wpp(seed=data_seed, trials_per_cell=trials)
        train_idx, test_idx = apply_split(ds, WPP_SPLITS[name], split_seed)
        assert np.all(np.diff(train_idx) > 0) and np.all(np.diff(test_idx) > 0)
        assert set(train_idx).isdisjoint(test_idx)
        exp_train, exp_test, half, unused = EXPECTED_DISPOSITIONS[name]
        train_patterns = {ds.tags[i]["pattern"] for i in train_idx}
        test_patterns = {ds.tags[i]["pattern"] for i in test_idx}
        assert train_patterns == exp_train | half
        assert test_patterns == exp_test | (half if trials > 1 else set())
        used = {i for i, t in enumerate(ds.tags) if t["pattern"] not in unused}
        assert used == set(train_idx) | set(test_idx)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = generate_wpp(seed=8, trials_per_cell=2)
        path = tmp_path / "demos.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert back.kind == ds.kind and back.seed == ds.seed
        np.testing.assert_array_equal(back.contexts, ds.contexts)
        np.testing.assert_array_equal(back.trajectories, ds.trajectories)
        assert back.tags == ds.tags

    @pytest.mark.parametrize("kind", ["rtp", "wpp"])
    def test_save_of_loaded_file_is_byte_identical(self, tmp_path, kind):
        if kind == "rtp":
            ds = generate_rtp(seed=1, counts=(6, 3, 2, 2), noise_std=0.01)
        else:
            ds = generate_wpp(seed=1, trials_per_cell=2)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(ds, first)
        save_jsonl(load_jsonl(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("change,got", [
        ({"contexts": np.zeros((3, 3))}, "contexts (3, 3)"),
        ({"tags": [{}] * 3}, "3 tags"),
        ({"trajectories": np.zeros((4, 150))}, "trajectories (4, 150)"),
        ({"contexts": np.zeros(4)}, "contexts (4,)"),
        ({"trajectories": np.zeros((4, 1, 7))}, "n_samples_per_traj must be"),
        ({"kind": "xyz"}, "unknown task 'xyz'"),
    ], ids=["contexts", "tags", "2d_trajectories", "1d_contexts",
            "one_sample", "unknown_kind"])
    def test_dataset_rejects_inconsistent_arrays(self, change, got):
        ds = generate_rtp(seed=1, counts=(1, 1, 1, 1))
        with pytest.raises(ValueError, match=re.escape(got)):
            dataclasses.replace(ds, **change)

    def test_older_split_keys_are_ignored(self, tmp_path):
        # files written while the dataset still carried split labels hold
        # a "split" in every record; they load like the same file without
        ds = generate_wpp(seed=8, trials_per_cell=1)
        plain, labelled = tmp_path / "plain.jsonl", tmp_path / "old.jsonl"
        save_jsonl(ds, plain)
        lines = plain.read_text().splitlines()
        for k in range(1, len(lines)):
            split = ("train", "test", None)[k % 3]
            lines[k] = json.dumps({**json.loads(lines[k]), "split": split})
        labelled.write_text("\n".join(lines) + "\n")
        back, old = load_jsonl(plain), load_jsonl(labelled)
        assert old.contexts.tobytes() == back.contexts.tobytes()
        assert old.trajectories.tobytes() == back.trajectories.tobytes()
        assert old.tags == back.tags == ds.tags

    @pytest.mark.parametrize("fs", [150.0, 1e300, 1e-300, -5, 0, True, "x",
                                    10 ** 400],
                             ids=["fs_150", "fs_1e300", "fs_1e-300",
                                  "fs_negative", "fs_zero", "fs_bool",
                                  "fs_text", "fs_too_large"])
    def test_older_sampling_frequency_is_ignored(self, tmp_path, fs):
        # files written while the dataset recorded a sampling frequency
        # hold it in the header; no model read it, so whatever its value,
        # such a file loads like the same file without the key
        plain, old = tmp_path / "plain.jsonl", tmp_path / "old.jsonl"
        _write_edited(plain)
        _write_edited(old, header={"sampling_frequency": fs})
        assert "sampling_frequency" not in plain.read_text()
        back, older = load_jsonl(plain), load_jsonl(old)
        assert (older.kind, older.seed) == (back.kind, back.seed) == ("rtp", 1)
        assert older.contexts.tobytes() == back.contexts.tobytes()
        assert older.trajectories.tobytes() == back.trajectories.tobytes()
        assert older.tags == back.tags

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
        ("context", (2,), "context shape (2,) differs from the first "
                          "record's (3,)"),
        ("trajectory", (150, 6), "context shape (3,) and trajectory of 7200 "
                                 "bytes are not (D,) and 8*T*J = 8400 bytes "
                                 "for the header's T = 150, n_joint = 7"),
        ("trajectory", (149, 7), "context shape (3,) and trajectory of 8344 "
                                 "bytes are not (D,) and 8*T*J = 8400 bytes "
                                 "for the header's T = 150, n_joint = 7"),
    ], ids=["context_width", "joints", "samples"])
    def test_inconsistent_record_names_line_and_shapes(self, tmp_path,
                                                       field, shape, want):
        path = tmp_path / "demos.jsonl"
        save_jsonl(generate_rtp(seed=1, counts=(2, 1, 1, 1)), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        if field == "trajectory":
            value = _unblob(record[field])
            record[field] = _blob(value[tuple(slice(n) for n in shape)])
        else:
            value = np.asarray(record[field])
            record[field] = value[tuple(slice(n) for n in shape)].tolist()
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"line 4: {want}")):
            load_jsonl(path)

    @pytest.mark.parametrize("seed", [[1], "x", 1.5, True, None,
                                      pytest.param(..., id="absent")])
    def test_non_integer_seed_rejected(self, tmp_path, seed):
        # only the header carries the seed, so it may not be left out
        header = {"schema": 2, "kind": "rtp", "n_samples": 0}
        if seed is not ...:
            header["seed"] = seed
        path = tmp_path / "demos.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(DatasetFormatError, match="line 1: seed"):
            load_jsonl(path)


def _five_demos(**tags_of_demo):
    """Five rtp demos; `tags_of_demo` maps "d<k>" to the tags of demo k."""
    ds = generate_rtp(seed=1, counts=(2, 1, 1, 1))
    tags = [tags_of_demo.get(f"d{k}", t) for k, t in enumerate(ds.tags)]
    return dataclasses.replace(ds, tags=tags)


class TestWriterChecks:
    """save_jsonl writes only what load_jsonl reads back, and a failed
    save leaves the target as it was."""

    def assert_refused(self, tmp_path, ds, match):
        kept, fresh = tmp_path / "kept.jsonl", tmp_path / "fresh.jsonl"
        save_jsonl(generate_rtp(seed=2, counts=(1, 1, 1, 1)), kept)
        before = kept.read_bytes()
        for path in (kept, fresh):
            with pytest.raises(ValueError, match=match):
                save_jsonl(ds, path)
        assert kept.read_bytes() == before
        assert os.listdir(tmp_path) == ["kept.jsonl"]

    def test_numpy_tag_after_two_records(self, tmp_path):
        # json.dumps used to raise TypeError here, after writing a header
        # that declares 5 records and then 2 of them
        self.assert_refused(tmp_path, _five_demos(d2={"region": np.int64(3)}),
                            r"^demo 2: tags\['region'\] is of type int64, "
                            r"not a JSON value$")

    @pytest.mark.parametrize("tags,match", [
        ({"seen": (1, 2)}, r"demo 4: tags\['seen'\] is of type tuple"),
        ({"w": [0.5, float("nan")]}, r"demo 4: tags\['w'\]\[1\] is nan"),
        ({"w": {"x": float("inf")}}, r"demo 4: tags\['w'\]\['x'\] is inf"),
        ({"w": {3: "a"}}, r"demo 4: tags\['w'\] has the key 3"),
        ({"w": {"s": {1}}}, r"demo 4: tags\['w'\]\['s'\] is of type set"),
        (["region", "A"], r"demo 4: tags must be a dict, got a list"),
    ], ids=["tuple", "nan", "inf", "int_key", "set", "list"])
    def test_tags_that_json_does_not_read_back(self, tmp_path, tags, match):
        self.assert_refused(tmp_path, _five_demos(d4=tags), match)

    @pytest.mark.parametrize("what", ["context", "trajectory"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_values(self, tmp_path, what, value):
        ds = _five_demos()
        {"context": ds.contexts, "trajectory": ds.trajectories}[what][3].flat[
            1] = value
        self.assert_refused(tmp_path, ds,
                            f"^demo 3: {what} holds a non-finite value$")

    def test_numpy_seed(self, tmp_path):
        ds = dataclasses.replace(_five_demos(), seed=np.int64(1))
        self.assert_refused(tmp_path, ds, "seed must be an integer")


def _write_edited(path, header=None, record=None, line=3):
    """Save a small rtp dataset to `path`, then update its header and the
    record on 1-based `line` with the given fields."""
    save_jsonl(generate_rtp(seed=1, counts=(2, 1, 1, 1)), path)
    lines = path.read_text().splitlines()
    for no, fields in ((1, header), (line, record)):
        if fields:
            lines[no - 1] = json.dumps({**json.loads(lines[no - 1]),
                                        **fields})
    path.write_text("\n".join(lines) + "\n")


class TestRecordValidation:
    @pytest.mark.parametrize("field,value", [
        ("context", [0.5, float("nan"), 0.05]),
        ("context", [float("inf"), 0.0, 0.05]),
        ("trajectory", _blob([[float("nan")] * 7] * 150)),
    ], ids=["context_nan", "context_inf", "trajectory_nan"])
    def test_non_finite_values_rejected(self, tmp_path, field, value):
        path = tmp_path / "demos.jsonl"
        _write_edited(path, record={field: value})
        with pytest.raises(DatasetFormatError,
                           match=f"line 3: {field} holds a non-finite"):
            load_jsonl(path)

    @pytest.mark.parametrize("header,record,match", [
        ({"kind": "xyz"}, None, "line 1: header must be an object whose "
                                "'kind' is rtp or wpp"),
        (None, {"context": [10 ** 400, 0.0, 0.05]},
         "line 3: context holds an integer too large for float64"),
        (None, {"context": ["0.6", "0.0", "0.05"]},
         r"line 3: bad record \(context entries must be numbers\)"),
        (None, {"context": [True, 0.0, 0.05]},
         r"line 3: bad record \(context entries must be numbers\)"),
        (None, {"tags": [["region", "Z"]]}, "line 3: tags must be"),
        (None, {"context": 0.5}, r"line 3: .* are not \(D,\) and"),
        (None, {"trajectory": _blob([[0.0] * 7])},
         r"line 3: .* 8\*T\*J = 8400 bytes for the header's T = 150, "),
        (None, {"trajectory": "AAAA*AAA"},
         "line 3: trajectory is not a base64"),
        (None, {"trajectory": [[0.0] * 7] * 150},
         "line 3: trajectory is not a base64"),
        (None, {"trajectory": None}, "line 3: trajectory is not a base64"),
        ({"n_samples_per_traj": 1}, None,
         "line 1: n_samples_per_traj must be an integer >= 2, got 1"),
        ({"n_joint": 7.0}, None, "line 1: n_joint must be an integer >= 1"),
        ({"n_joint": 0}, None, "line 1: n_joint must be an integer >= 1"),
        ({"n_samples": -1}, None, "line 1: n_samples must be an integer >= 0"),
        ({"n_samples": None}, None, "line 1: n_samples must be an integer"),
        ({"n_samples": 10 ** 12}, None, "header declares 1000000000000 "
                                        "samples, found 5"),
        ({"n_samples": 4}, None, "line 6: header declares 4 samples, found "
                                 "more"),
    ], ids=["kind_unknown", "context_too_large", "context_text",
            "context_bool", "tags_pairs", "context_scalar",
            "one_sample_trajectory", "trajectory_not_base64",
            "trajectory_list", "trajectory_null", "header_one_sample",
            "header_float_joints", "header_no_joints", "header_negative_count",
            "header_null_count", "header_count_beyond_file",
            "header_count_short"])
    def test_bad_field_names_line(self, tmp_path, header, record, match):
        path = tmp_path / "demos.jsonl"
        _write_edited(path, header=header, record=record)
        with pytest.raises(DatasetFormatError, match=match):
            load_jsonl(path)

    @pytest.mark.parametrize("header", [
        {"n_samples_per_traj": 10 ** 400}, {"n_joint": 10 ** 400},
        {"n_joint": 10 ** 30}],
        ids=["samples_per_traj_huge", "joints_huge", "joints_beyond_int64"])
    def test_oversized_header_names_file_line_and_fields(self, tmp_path,
                                                         header):
        path = tmp_path / "demos.jsonl"
        _write_edited(path, header=header)
        with pytest.raises(DatasetFormatError) as err:
            load_jsonl(path)
        assert str(err.value).startswith(f"{path}: line 1: "
                                         f"n_samples_per_traj ")
        assert " and n_joint " in str(err.value)

    @pytest.mark.parametrize("line,edit", [
        (2, lambda text: b"\xff"),
        (4, lambda text: text.replace(b'"region": "', b'"region": "\xff')),
        (1, lambda text: text[:-1] + b"\xff}"),
    ], ids=["whole_line", "in_tag", "header"])
    def test_non_utf8_line_names_file_and_line(self, tmp_path, line, edit):
        # read as text, such a byte raised a bare UnicodeDecodeError that
        # named neither the file nor the line
        path = tmp_path / "demos.jsonl"
        save_jsonl(generate_rtp(seed=1, counts=(2, 1, 1, 1)), path)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = edit(lines[line - 1])
        path.write_bytes(b"\n".join(lines))
        byte = lines[line - 1].index(b"\xff")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{path}: line {line}: not UTF-8 text at byte {byte}")):
            load_jsonl(path)

    def test_schema_1_file_asks_to_regenerate(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in (
            {"schema": 1, "kind": "rtp", "seed": 1, "n_samples": 1,
             "sampling_frequency": 150.0},
            {"context": [0.55, 0.0, 0.05], "trajectory": [[0.0] * 7] * 2,
             "tags": {"region": "A"}, "split": None})) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{path}: line 1: dataset schema 1 is no longer read; re-run "
                f"`mprim generate` with the arguments in "
                f"{path}.manifest.json")):
            load_jsonl(path)


# every float64 class the format must carry bit for bit, plus any finite one
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def _round_trip(dataset, edit=None):
    """Save `dataset` to a temporary file, apply `edit` to its list of
    lines and load it back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demos.jsonl")
        save_jsonl(dataset, path)
        if edit is not None:
            with open(path) as fh:
                lines = fh.read().splitlines()
            edit(lines)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return load_jsonl(path)


class TestFormatProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=st.tuples(st.integers(1, 4), st.integers(2, 6),
                            st.integers(1, 4)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=_FINITE)))
    def test_finite_trajectories_round_trip_bit_for_bit(self, values):
        n = len(values)
        ds = DemoDataset("wpp", 3, np.zeros((n, 2)), values, [{}] * n)
        back = _round_trip(ds)
        assert back.trajectories.shape == values.shape
        assert back.trajectories.tobytes() == values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 4), data=st.data(),
           corruption=st.sampled_from(
               ["nan", "inf", "flip", "truncate", "missing"]))
    def test_corrupt_trajectory_names_its_line(self, k, data, corruption):
        ds = generate_rtp(seed=1, counts=(2, 1, 1, 1))
        t, j = ds.n_samples_per_traj, ds.n_joint
        if corruption in ("nan", "inf"):
            at = (data.draw(st.integers(0, t - 1)),
                  data.draw(st.integers(0, j - 1)))

            def edit(lines):
                # save_jsonl refuses non-finite values, so the file gets
                # its bad value after saving
                record = json.loads(lines[k + 1])
                values = _unblob(record["trajectory"], j).copy()
                values[at] = np.nan if corruption == "nan" else -np.inf
                record["trajectory"] = _blob(values)
                lines[k + 1] = json.dumps(record)
        else:
            size = 4 * (8 * t * j // 3)  # 8400 bytes need no padding
            at = data.draw(st.integers(0, size - 1))
            bad = data.draw(st.sampled_from("!*-_.:@~ ="))

            def edit(lines):
                record = json.loads(lines[k + 1])
                blob = record["trajectory"]
                if corruption == "flip":
                    record["trajectory"] = blob[:at] + bad + blob[at + 1:]
                elif corruption == "truncate":
                    record["trajectory"] = blob[:at]
                else:
                    del record["trajectory"]
                lines[k + 1] = json.dumps(record)
        with pytest.raises(DatasetFormatError, match=f"line {k + 2}: "):
            _round_trip(ds, edit)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), any_float=st.booleans(),
           bad_tag=st.one_of(st.none(), st.sampled_from(
               [np.int64(3), np.bool_(True), (1, 2), float("nan"),
                {1: "a"}, {"s": {2}}, b"x"])))
    def test_save_writes_what_load_returns_or_nothing(self, data, any_float,
                                                      bad_tag):
        # arrays from every float64, NaN and infinities included, or from
        # the finite ones, and tags of JSON values, perhaps with one value
        # that JSON does not read back; a save either raises and leaves
        # the file as it was or writes what a load returns bit for bit
        n, t, j, d = data.draw(st.tuples(st.integers(1, 3), st.integers(2, 5),
                                         st.integers(1, 3), st.integers(1, 3)))
        elements = st.floats() if any_float else _FINITE
        contexts = data.draw(hnp.arrays(np.float64, (n, d), elements=elements))
        trajectories = data.draw(hnp.arrays(np.float64, (n, t, j),
                                            elements=elements))
        leaf = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=False, allow_infinity=False))
        value = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(st.text(), inner, max_size=3),
                             max_leaves=6)
        tags = data.draw(st.lists(st.dictionaries(st.text(), value,
                                                  max_size=3),
                                  min_size=n, max_size=n))
        if bad_tag is not None:
            tags[data.draw(st.integers(0, n - 1))]["bad"] = bad_tag
        ds = DemoDataset("wpp", 3, contexts, trajectories, tags)
        loadable = (np.isfinite(contexts).all()
                    and np.isfinite(trajectories).all() and bad_tag is None)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "demos.jsonl")
            with open(path, "w") as fh:
                fh.write("an earlier file\n")
            try:
                save_jsonl(ds, path)
            except ValueError:
                assert not loadable
                with open(path) as fh:
                    assert fh.read() == "an earlier file\n"
                assert os.listdir(tmp) == ["demos.jsonl"]
                return
            assert loadable
            back = load_jsonl(path)
        assert back.contexts.tobytes() == contexts.tobytes()
        assert back.trajectories.tobytes() == trajectories.tobytes()
        assert back.tags == tags
