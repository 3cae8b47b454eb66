"""Exception types shared across the package.  Only cli.main maps them to
exit codes: an InputError subclass to 2, a VerificationFailure subclass to
1, and DegreeTooLarge and InsufficientDegree (library misuse), like any
other exception, to 3.  A closed stdout is an InputError; arguments that
argparse rejects exit 2 before any command runs."""


class DorthoError(Exception):
    """Base class for all library errors."""


class InputError(DorthoError):
    """The input cannot be used as given: exit 2."""


class VerificationFailure(DorthoError):
    """The input fails an identity it was expected to satisfy: exit 1."""


class DegreeViolation(InputError):
    """An operator coefficient or prescribed image exceeds its degree bound."""

    def __init__(self, index, degree, bound):
        self.index = index
        self.degree = degree
        self.bound = bound
        super().__init__(
            f"degree {degree} at index {index} exceeds bound {bound}"
        )


class MissingCoefficient(InputError):
    """A recurrence table entry required by the recursion is absent."""


class OutputTooLarge(InputError):
    """An exact result is too long to write as a decimal string."""


class DegreeTooLarge(DorthoError):
    """Polynomial degree exceeds the generated basis."""


class InsufficientDegree(DorthoError):
    """Sequence too short for the requested orthogonality probe."""


class EigenvalueCollision(VerificationFailure):
    """Two eigenvalues coincide, so the monic eigenpolynomial is not unique."""

    def __init__(self, k, n):
        self.k = k
        self.n = n
        super().__init__(f"eigenvalue at index {k} equals eigenvalue at index {n}")


class NotIsomorphism(VerificationFailure):
    """Operator is not invertible on polynomials, eigenproblem rejected."""


class NotTwoOrthogonal(VerificationFailure):
    """Eigenfamily does not have the four-term recurrence shape."""

    def __init__(self, message, n=None, nu=None):
        self.n = n
        self.nu = nu
        super().__init__(message)


class ZeroParameter(InputError):
    """A parameter required to be nonzero is zero."""


class DiscriminantNonzero(InputError):
    """Quadratic leading-coefficient constraint violated."""
