"""Exception types shared across the package."""


class SingularSystemError(ValueError):
    """A linear system is singular or too ill-conditioned to solve."""


class IntegrationError(RuntimeError):
    """A DMP rollout produced a non-finite state.

    `rows` lists the diverged rows of a batched rollout, when known.
    """

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class DatasetFormatError(ValueError):
    """A dataset file does not match the documented record format."""
