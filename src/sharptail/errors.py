"""Exception types shared across the package."""


class ModelError(ValueError):
    """A distribution or sum model violates a structural invariant."""


class ParameterError(ValueError):
    """A scalar argument lies outside a function's domain."""


class RangeError(ParameterError):
    """x lies outside the admissible range of a bound."""


class HypothesisError(ValueError):
    """The model does not satisfy the hypothesis a bound requires."""


class NoSaddlepointError(ValueError):
    """The tilted-mean equation has no interior solution at this threshold."""


class UnsupportedModelError(ValueError):
    """The exact oracle cannot represent this model on a tractable lattice."""


class NumericalError(ArithmeticError):
    """A floating-point cross-check failed, so the computed value is not trusted."""
