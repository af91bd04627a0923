"""Movement-primitives learning library.

Trajectory representations (probabilistic movement primitives over a
normalized Gaussian basis, and dynamic movement primitives), context-to-
weights regressors trained with a trajectory-space loss, synthetic
demonstration datasets, and evaluation metrics, tied together by the
`mprim` command-line tool.
"""

__version__ = "0.1.0"
