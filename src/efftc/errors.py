"""Shared exception types."""


class DegreeError(ValueError):
    """Cochain degree outside the valid range for a complex."""


class GeodesicDegeneracyError(ValueError):
    """No unique shortest path between the given points (e.g. antipodal pair)."""


class LiftError(RuntimeError):
    """Path lift through a covering diverged from the base path."""


class RegularityError(RuntimeError):
    """Simplicial action stayed irregular after the allowed subdivisions."""


class GroupClosureError(ValueError):
    """Generator closure exceeded the supported group size."""


class ContradictionError(RuntimeError):
    """A reconciled lower bound exceeded an upper bound; the scenario must abort."""


# the errors a scenario run reports as a run failure (CLI exit 3)
RUN_ERRORS = (KeyError, OSError, RuntimeError, ValueError)


class PipelineStepError(RuntimeError):
    """A pipeline step failed while the scenario ran: `step` names it (its
    index, op, and method or planner) and `cause` is the error it raised."""

    def __init__(self, step: str, cause: Exception):
        super().__init__(f"{type(cause).__name__}: {cause} (pipeline step {step})")
        self.step = step
        self.cause = cause
