import math

import numpy as np
import pytest

from mprim import kernels
from mprim.basis import PhiMatrix, build_phi


def basis_row(z, centers, width):
    """Normalized activations at one phase value, through the kernel
    build_phi uses for its rows."""
    return kernels.basis_matrix(np.array([float(z)]), centers, width)[0]


def scalar_row(z, centers, width):
    """Normalized exponentials evaluated one basis at a time."""
    raw = [math.exp(-((z - c) ** 2) / (2 * width)) for c in centers]
    return np.array(raw) / sum(raw)


def evenly_spaced(n_basis):
    """The centers and width build_phi documents: n_basis centers evenly
    over [0, 1], width the squared spacing."""
    centers = np.linspace(0.0, 1.0, n_basis)
    return centers, (centers[1] - centers[0]) ** 2


class TestPhase:
    """Row k of the basis matrix is the activation at phase k/(T-1)."""

    def test_zero_sample(self):
        np.testing.assert_array_equal(build_phi(150, 8).values[0],
                                      basis_row(0.0, *evenly_spaced(8)))

    def test_last_sample_at_phase_one(self):
        np.testing.assert_array_equal(build_phi(150, 8).values[-1],
                                      basis_row(1.0, *evenly_spaced(8)))

    def test_midpoint(self):
        # an odd T puts sample (T-1)/2 on phase 0.5, where the evenly
        # spaced basis is symmetric
        row = build_phi(151, 8).values[75]
        np.testing.assert_array_equal(row, basis_row(0.5, *evenly_spaced(8)))
        np.testing.assert_allclose(row, row[::-1], rtol=1e-12)

    def test_grid_matches_scalar(self):
        phi = build_phi(20, 5)
        assert phi.values.shape == (20, 5)
        for t in range(20):
            np.testing.assert_allclose(
                phi.values[t], scalar_row(t / 19, *evenly_spaced(5)),
                rtol=1e-12)


class TestConfigValidation:
    def test_bad_phase_configs(self):
        with pytest.raises(ValueError, match="n_samples must be >= 2, got 1"):
            build_phi(1, 8)
        with pytest.raises(ValueError, match="n_samples must be >= 2, got 0"):
            build_phi(0, 8)

    def test_no_basis_rejected(self):
        with pytest.raises(ValueError, match="n_basis must be >= 1, got 0"):
            build_phi(150, 0)


class TestBasisRow:
    def test_single_basis_is_one_everywhere(self):
        for z in (0.0, 0.3, 0.77, 5.0):
            np.testing.assert_allclose(basis_row(z, [0.3], 1.0), [1.0])

    def test_two_symmetric_bases_split_evenly(self):
        np.testing.assert_allclose(basis_row(0.5, [0.0, 1.0], 0.2),
                                   [0.5, 0.5])

    def test_against_scalar_oracle(self):
        # frozen output of a direct scalar evaluation of the normalized
        # exponentials at z=0, centers {0, 0.5, 1}, width 0.05
        expected = [0.9241030483355481, 0.07585499745096416,
                    4.1954213487732035e-05]
        np.testing.assert_allclose(basis_row(0.0, [0.0, 0.5, 1.0], 0.05),
                                   expected, rtol=1e-13)

    def test_matches_fresh_scalar_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            centers = np.sort(rng.uniform(0.0, 1.0, 5))
            centers += np.arange(5) * 1e-3   # enforce strict increase
            width = rng.uniform(0.01, 0.5)
            z = rng.uniform(-0.2, 1.2)
            np.testing.assert_allclose(basis_row(z, centers, width),
                                       scalar_row(z, centers, width),
                                       rtol=1e-12)


class TestBuildPhi:
    @pytest.mark.parametrize("n_basis", [1, 8, 10, 25])
    def test_partition_of_unity(self, n_basis):
        phi = build_phi(150, n_basis)
        assert phi.values.shape == (150, n_basis)
        np.testing.assert_allclose(phi.values.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_match_basis_row(self):
        phi = build_phi(150, 8)
        for t in (0, 1, 74, 149):
            np.testing.assert_allclose(
                phi.values[t], scalar_row(t / 149, *evenly_spaced(8)),
                rtol=1e-12)

    def test_degenerate_two_sample_single_basis(self):
        phi = build_phi(2, 1)
        np.testing.assert_array_equal(phi.values, [[1.0], [1.0]])

    def test_entries_within_unit_interval(self):
        phi = build_phi(150, 10)
        assert np.all(phi.values >= 0.0) and np.all(phi.values <= 1.0)

    def test_phi_matrix_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            PhiMatrix(np.array([[0.5, 0.4]]))    # row sum != 1
        with pytest.raises(ValueError):
            PhiMatrix(np.array([[1.5, -0.5]]))   # entries outside [0, 1]


class TestBasisProperties:
    def test_translation_consistency(self):
        rng = np.random.default_rng(3)
        centers = np.linspace(0.0, 1.0, 6)
        for _ in range(20):
            z = rng.uniform(0.0, 1.0)
            offset = rng.uniform(-5.0, 5.0)
            np.testing.assert_allclose(basis_row(z, centers, 0.04),
                                       basis_row(z + offset, centers + offset,
                                                 0.04),
                                       atol=1e-12)

    def test_center_activation_is_maximal(self):
        centers, width = evenly_spaced(8)
        for k, c in enumerate(centers):
            row = basis_row(c, centers, width)
            assert np.argmax(row) == k
