"""Exception types shared across the package."""


class FblearnError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(FblearnError, ValueError):
    """An array argument does not match the dimensions a model expects."""


class SingularMatrixError(FblearnError, ValueError):
    """A matrix that must be inverted is singular or numerically so.

    Carries the worst condition-number estimate that triggered the failure
    and, for a batch of matrices, ``lanes``: a boolean mask over the batch
    entries that are singular (``None`` when unknown).
    """

    def __init__(self, message: str, cond: float = float("inf"), lanes=None):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond
        self.lanes = lanes


class DivergenceError(FblearnError, RuntimeError):
    """A simulated trajectory or parameter update left the finite floats.

    ``step`` is the step or substep index at which the blow-up was detected,
    when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} at step {step}")
        self.step = step


class ConfigError(FblearnError, ValueError):
    """Experiment configuration failed validation.

    ``problems`` lists every offending field, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))
