"""Exception hierarchy shared by all jetspace modules."""


class JetspaceError(Exception):
    """Base class for every error raised by this package."""


class InputError(JetspaceError):
    """Invalid user input: documents, expressions, declarations."""


class ParseError(InputError):
    """Syntax error in a polynomial/series expression string.

    ``column`` is 1-based within the offending string; ``context`` names
    the document location (e.g. ``arcs.main.components[0]``).
    """

    def __init__(self, message, column, context=""):
        self.column = column
        self.context = context
        where = f" at column {column}" + (f" in {context}" if context else "")
        super().__init__(message + where)


class NotPrime(InputError):
    def __init__(self, p):
        self.p = p
        super().__init__(f"{p} is not a prime number")


class UnknownVariable(InputError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown variable {name!r}")


class DivisionByZero(JetspaceError):
    pass


class DenominatorNotUnit(JetspaceError):
    """Series expression whose denominator vanishes at t = 0."""


class NotOnVariety(JetspaceError):
    """Arc components fail an ideal generator modulo the working precision."""

    def __init__(self, generator_index, order):
        self.generator_index = generator_index
        self.order = order
        super().__init__(
            f"generator #{generator_index + 1} does not vanish along the arc "
            f"(first nonzero coefficient at t^{order})"
        )


class PrecisionTooLow(JetspaceError):
    def __init__(self, needed, available):
        self.needed = needed
        self.available = available
        super().__init__(f"operation needs precision > {needed}, arc has {available}")


class PointNotOnJetScheme(JetspaceError):
    def __init__(self, generator_index, level_index):
        self.generator_index = generator_index
        self.level_index = level_index
        super().__init__(
            f"jet equation F[{generator_index},{level_index}] does not vanish at the point"
        )


class MatrixTooLarge(JetspaceError):
    def __init__(self, shape, bound):
        super().__init__(f"minor enumeration refused for shape {shape} (bound {bound})")


class MissingDeclaredDim(InputError):
    def __init__(self):
        super().__init__("variety has no declared_dim, so the declared dimension source is unavailable")


class MorphismInvalidOnArc(JetspaceError):
    def __init__(self, generator_index, order):
        self.generator_index = generator_index
        self.order = order
        super().__init__(
            f"target generator #{generator_index + 1} does not vanish on the pushed arc "
            f"(first nonzero coefficient at t^{order})"
        )


class PrecisionLimited(JetspaceError):
    """An order stayed above the working precision after refinement."""

    def __init__(self, message, bound=None):
        self.bound = bound
        super().__init__(message)


class NonDivisibleJacobianOrder(JetspaceError):
    def __init__(self, order, q):
        self.order = order
        self.q = q
        super().__init__(
            f"order {order} of the morphism Jacobian is not divisible by the contact order {q}"
        )


class InternalInvariantViolation(JetspaceError):
    """A postcondition that should hold by theory failed; indicates a bug."""
