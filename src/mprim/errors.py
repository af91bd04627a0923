"""Exception types shared across the package."""


class IntegrationError(RuntimeError):
    """A DMP rollout produced a non-finite state.

    `rows` lists the diverged rows of a batched rollout.
    """

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = tuple(rows)


class DatasetFormatError(ValueError):
    """A dataset file does not match the documented record format."""


class TrainingDivergedError(RuntimeError):
    """Training reached a non-finite loss before any epoch could be kept,
    so there are no weights to return."""

    def __init__(self, epoch, method, learning_rate):
        super().__init__(
            f"training diverged at epoch {epoch}: the {method} loss is not "
            f"finite at learning rate {learning_rate!r}, and no earlier "
            f"epoch was kept; try a smaller one")
        self.epoch = epoch
        self.method = method
        self.learning_rate = learning_rate
