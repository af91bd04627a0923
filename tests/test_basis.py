import math

import numpy as np
import pytest

from mprim import kernels
from mprim.basis import (BasisConfig, PhaseConfig, PhiMatrix, build_phi,
                         default_basis, phase, phase_grid)


def basis_row(z, cfg):
    """Normalized activations at one phase value, through the kernel
    build_phi uses for its rows."""
    return kernels.basis_matrix(np.array([float(z)]), cfg.centers,
                                cfg.width)[0]


def scalar_row(z, cfg):
    """Normalized exponentials evaluated one basis at a time."""
    raw = [math.exp(-((z - c) ** 2) / (2 * cfg.width)) for c in cfg.centers]
    return np.array(raw) / sum(raw)


class TestPhase:
    def test_zero_sample(self):
        assert phase(0, PhaseConfig(150.0, 150)) == 0.0

    def test_sample_equal_to_frequency(self):
        # t == f lands exactly on one second of phase
        assert phase(150, PhaseConfig(150.0, 151)) == 1.0

    def test_midpoint(self):
        assert phase(75, PhaseConfig(150.0, 150)) == 0.5

    def test_out_of_range_raises(self):
        cfg = PhaseConfig(150.0, 150)
        with pytest.raises(IndexError):
            phase(150, cfg)
        with pytest.raises(IndexError):
            phase(-1, cfg)

    def test_grid_matches_scalar(self):
        cfg = PhaseConfig(75.0, 20)
        grid = phase_grid(cfg)
        assert grid.shape == (20,)
        for t in range(20):
            assert grid[t] == phase(t, cfg)


class TestConfigValidation:
    def test_bad_phase_configs(self):
        with pytest.raises(ValueError):
            PhaseConfig(0.0, 150)
        with pytest.raises(ValueError):
            PhaseConfig(150.0, 1)

    def test_bad_basis_configs(self):
        with pytest.raises(ValueError):
            BasisConfig(2, (0.5, 0.5), 0.1)      # not strictly increasing
        with pytest.raises(ValueError):
            BasisConfig(3, (0.0, 1.0), 0.1)      # wrong center count
        with pytest.raises(ValueError):
            BasisConfig(1, (0.0,), 0.0)          # width must be positive


class TestBasisRow:
    def test_single_basis_is_one_everywhere(self):
        cfg = BasisConfig(1, (0.3,), 1.0)
        for z in (0.0, 0.3, 0.77, 5.0):
            np.testing.assert_allclose(basis_row(z, cfg), [1.0])

    def test_two_symmetric_bases_split_evenly(self):
        cfg = BasisConfig(2, (0.0, 1.0), 0.2)
        np.testing.assert_allclose(basis_row(0.5, cfg), [0.5, 0.5])

    def test_against_scalar_oracle(self):
        # frozen output of a direct scalar evaluation of the normalized
        # exponentials at z=0, centers {0, 0.5, 1}, width 0.05
        cfg = BasisConfig(3, (0.0, 0.5, 1.0), 0.05)
        expected = [0.9241030483355481, 0.07585499745096416,
                    4.1954213487732035e-05]
        np.testing.assert_allclose(basis_row(0.0, cfg), expected, rtol=1e-13)

    def test_matches_fresh_scalar_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            centers = np.sort(rng.uniform(0.0, 1.0, 5))
            centers += np.arange(5) * 1e-3   # enforce strict increase
            width = rng.uniform(0.01, 0.5)
            cfg = BasisConfig(5, tuple(centers), width)
            z = rng.uniform(-0.2, 1.2)
            np.testing.assert_allclose(basis_row(z, cfg), scalar_row(z, cfg),
                                       rtol=1e-12)


class TestBuildPhi:
    @pytest.mark.parametrize("n_basis", [1, 8, 10, 25])
    def test_partition_of_unity(self, n_basis):
        pc = PhaseConfig(150.0, 150)
        phi = build_phi(pc, default_basis(pc, n_basis))
        assert phi.values.shape == (150, n_basis)
        np.testing.assert_allclose(phi.values.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_match_basis_row(self):
        pc = PhaseConfig(150.0, 150)
        bc = default_basis(pc, 8)
        phi = build_phi(pc, bc)
        for t in (0, 1, 74, 149):
            np.testing.assert_allclose(phi.values[t],
                                       scalar_row(phase(t, pc), bc),
                                       rtol=1e-12)

    def test_degenerate_two_sample_single_basis(self):
        phi = build_phi(PhaseConfig(150.0, 2), BasisConfig(1, (0.0,), 1.0))
        np.testing.assert_array_equal(phi.values, [[1.0], [1.0]])

    def test_entries_within_unit_interval(self):
        pc = PhaseConfig(150.0, 150)
        phi = build_phi(pc, default_basis(pc, 10))
        assert np.all(phi.values >= 0.0) and np.all(phi.values <= 1.0)

    def test_phi_matrix_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            PhiMatrix(np.array([[0.5, 0.4]]))    # row sum != 1
        with pytest.raises(ValueError):
            PhiMatrix(np.array([[1.5, -0.5]]))   # entries outside [0, 1]

    def test_underflow_guard(self):
        # a basis so narrow and far away that every activation underflows
        cfg = BasisConfig(1, (1000.0,), 1e-6)
        with pytest.raises(FloatingPointError):
            build_phi(PhaseConfig(150.0, 2), cfg)


class TestBasisProperties:
    def test_translation_consistency(self):
        rng = np.random.default_rng(3)
        base = BasisConfig(6, tuple(np.linspace(0.0, 1.0, 6)), 0.04)
        for _ in range(20):
            z = rng.uniform(0.0, 1.0)
            offset = rng.uniform(-5.0, 5.0)
            shifted = BasisConfig(
                6, tuple(c + offset for c in base.centers), 0.04)
            np.testing.assert_allclose(basis_row(z, base),
                                       basis_row(z + offset, shifted),
                                       atol=1e-12)

    def test_center_activation_is_maximal(self):
        pc = PhaseConfig(150.0, 150)
        bc = default_basis(pc, 8)
        for k, c in enumerate(bc.centers):
            row = basis_row(c, bc)
            assert np.argmax(row) == k

    def test_default_width_single_basis(self):
        assert BasisConfig.evenly_spaced(1, 0.0).width == 1.0
        cfg = BasisConfig.evenly_spaced(1, 2.0)
        assert cfg.width == pytest.approx(4.0)
