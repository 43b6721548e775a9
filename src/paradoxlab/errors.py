"""Exception taxonomy shared by the whole package.

Each class carries the command line's exit code for it as ``exit_code``:
usage and parameter problems exit 1, a solver that runs out of budget or
stalls exits 3, and every other error (inadmissible input, failed
preconditions, range guards, generation and numerical failures) exits 2.
"""


class ParadoxLabError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class UsageError(ParadoxLabError):
    """An operation was invoked on the wrong kind of object or with an
    invalid combination of options."""

    exit_code = 1


class ParameterError(ParadoxLabError):
    """A numeric or model parameter lies outside its admissible range."""

    exit_code = 1


class InputError(ParadoxLabError):
    """Malformed or inadmissible input data: bad edge pairs, parse
    failures, dimension mismatches."""


class PreconditionError(ParadoxLabError):
    """A structural precondition (connectivity, positive degrees) does
    not hold for the given graph."""


class RangeError(ParadoxLabError):
    """A size or exact-arithmetic overflow guard was exceeded."""


class GenerationError(ParadoxLabError):
    """A random-graph model failed to produce an admissible graph within
    its retry budget."""


class NumericalError(ParadoxLabError):
    """A dense linear-algebra routine failed (e.g. singular system)."""


class ConvergenceError(ParadoxLabError):
    """An iterative solver spent ``max_iters`` or stalled in a cycle short
    of its tolerance.  Carries the last residual and the iteration count."""

    exit_code = 3

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
