"""Movement-primitives learning library.

Two representations of joint trajectories (probabilistic movement
primitives over a normalized Gaussian basis, and dynamic movement
primitives), context-to-weights regressors trained with a trajectory-space
loss, synthetic demonstration datasets held as stacked arrays, and
evaluation metrics, tied together by the `mprim` command-line tool.
"""

__version__ = "0.1.0"
