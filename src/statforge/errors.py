"""Exception hierarchy shared across the package."""


class StatforgeError(Exception):
    """Base class for all package-specific failures."""


class SimulationDivergedError(StatforgeError):
    """A simulated state left the finite/guarded range.

    Carries ``step``, the 1-based index of the first offending iterate.
    """

    def __init__(self, step, value=None):
        self.step = step
        self.value = value
        msg = f"simulation diverged at step {step}"
        if value is not None:
            msg += f" (x={float(value)!r})"
        super().__init__(msg)


class InvalidParameterError(StatforgeError):
    """Parameter vector violates a model precondition (e.g. sigma <= 0)."""


class DegenerateLikelihoodError(StatforgeError):
    """The likelihood is unusable: a transition distribution collapses to a
    point mass, or no prior draw gives the observation a finite likelihood."""


class UndefinedStatisticError(StatforgeError):
    """Closed-form statistic has a vanishing denominator."""


class DegenerateStatisticError(StatforgeError):
    """A summary-statistic component has zero spread; cannot standardize."""


class TrainingDivergedError(StatforgeError):
    """Loss or gradient became non-finite during optimization."""


class UsageError(Exception):
    """A flag, the config file or an input file asks for something invalid
    (exit code 2).  Not a StatforgeError: the run never started."""
