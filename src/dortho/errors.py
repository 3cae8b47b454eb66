"""Exception types shared across the package."""


class DorthoError(Exception):
    """Base class for all library errors."""


class DegreeViolation(DorthoError):
    """An operator coefficient or prescribed image exceeds its degree bound."""

    def __init__(self, index, degree, bound):
        self.index = index
        self.degree = degree
        self.bound = bound
        super().__init__(
            f"degree {degree} at index {index} exceeds bound {bound}"
        )


class MissingCoefficient(DorthoError):
    """A recurrence table entry required by the recursion is absent."""


class OutputTooLarge(DorthoError):
    """An exact result is too long to write as a decimal string."""


class DegreeTooLarge(DorthoError):
    """Polynomial degree exceeds the generated basis."""


class InsufficientDegree(DorthoError):
    """Sequence too short for the requested orthogonality probe."""


class EigenvalueCollision(DorthoError):
    """Two eigenvalues coincide, so the monic eigenpolynomial is not unique."""

    def __init__(self, k, n):
        self.k = k
        self.n = n
        super().__init__(f"eigenvalue at index {k} equals eigenvalue at index {n}")


class NotIsomorphism(DorthoError):
    """Operator is not invertible on polynomials, eigenproblem rejected."""


class NotTwoOrthogonal(DorthoError):
    """Eigenfamily does not have the four-term recurrence shape."""

    def __init__(self, message, n=None, nu=None):
        self.n = n
        self.nu = nu
        super().__init__(message)


class ZeroParameter(DorthoError):
    """A parameter required to be nonzero is zero."""


class DiscriminantNonzero(DorthoError):
    """Quadratic leading-coefficient constraint violated."""
