import numpy as np

from mprim import kernels


def mlp_case(seed, sizes=(10, 64, 64, 56), batch=32):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((a, b))
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) for b in sizes[1:]]
    x = rng.standard_normal((batch, sizes[0]))
    delta = rng.standard_normal((batch, sizes[-1]))
    return x, weights, biases, delta


def layer_buffers(weights, rows):
    """The forward pass's per-layer arrays, for batches of at most
    `rows`."""
    return [np.empty((rows, w.shape[1])) for w in weights]


class TestKernels:
    def test_basis_rows_sum_to_one(self):
        out = kernels.basis_matrix(np.linspace(0, 1, 150),
                                   np.linspace(0, 1, 8), 0.02)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_forward_repeatable(self):
        x, weights, biases, _ = mlp_case(0)
        out = layer_buffers(weights, len(x))
        a = kernels.mlp_forward_acts(x, weights, biases, out)[-1].copy()
        b = kernels.mlp_forward_acts(x, weights, biases, out)[-1]
        np.testing.assert_array_equal(a, b)

    def test_forward_into_buffers_equals_the_allocating_expression(self):
        # the first rows of larger buffers, bit for bit
        x, weights, biases, _ = mlp_case(1)
        out = layer_buffers(weights, len(x) + 9)
        acts = kernels.mlp_forward_acts(x, weights, biases, out)
        a = x
        for k, (w, b) in enumerate(zip(weights, biases)):
            a = a @ w + b if k == len(weights) - 1 else np.tanh(a @ w + b)
            assert acts[k + 1].base is out[k]
            assert acts[k + 1].tobytes() == a.tobytes()
