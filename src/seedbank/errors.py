"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code in ``exit_code``, which the CLI returns
for an error it catches.  Two broad families matter: ``ValidationError``
(bad user input, exit code 2) and ``NumericalError`` (a computation failed
or an assumption was violated at runtime, exit code 3).
"""


class SeedbankError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(SeedbankError):
    """Invalid input or parameters."""

    exit_code = 2


class NumericalError(SeedbankError):
    """A numerical routine failed to produce a trustworthy result."""

    exit_code = 3


# --- validation family -------------------------------------------------

class NotOnSimplex(ValidationError):
    """Entries of a germination distribution do not sum to one."""


class ZeroB0(ValidationError):
    """The immediate-germination probability b0 must be strictly positive."""


class NegativeEntry(ValidationError):
    """A probability vector contains a negative entry."""


class DomainViolation(ValidationError):
    """A flow field was evaluated outside its domain."""


class BoundaryConditionViolated(ValidationError):
    """Environment drift/noise functions violate the boundary conditions."""


class UnsupportedK(ValidationError):
    """The requested operation is only available for smaller dormancy depth."""


class StepSizeInvalid(ValidationError):
    """A time step is non-positive or otherwise unusable."""


# --- numerical family --------------------------------------------------

class NoNullEigenvalue(NumericalError):
    """The Jacobian has no eigenvalue near zero."""


class MultipleNullEigenvalues(NumericalError):
    """The Jacobian has more than one eigenvalue near zero."""


class SpectrumViolation(NumericalError):
    """Eigenvalues fall outside the required semistable configuration."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class SingularSystem(NumericalError):
    """A linear system is singular: the constrained Lyapunov system is rank
    deficient or inconsistent, or a Crank-Nicolson system has a zero pivot."""


class TruncationNotConverged(NumericalError):
    """The integrand tail never fell below tolerance before the cap."""


class NoConvergence(NumericalError):
    """An iterative procedure exhausted its budget without converging."""


class DegenerateDiffusion(NumericalError):
    """A diffusion coefficient vanishes in the interior of the domain."""
