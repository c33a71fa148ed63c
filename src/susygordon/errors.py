"""Exception types shared across the kernel modules."""


class GeneratorMismatchError(ValueError):
    """Two Grassmann elements built over different generator sets were combined."""


class ParityError(ValueError):
    """An operation received an argument of the wrong (or indefinite) grading."""


class JetBudgetError(ValueError):
    """A derivative was requested past the truncation order of a jet.

    Raised instead of silently truncating, so residual checks can never be
    corrupted by a missing derivative order.
    """


class SingularBodyError(ArithmeticError):
    """The body (numeric part) of an even element is not invertible.

    Covers log/sqrt/inverse at a (near-)zero body; the threshold is
    ``abs(body) < 1e-12``.
    """


class LaxConsistencyError(ValueError):
    """The two independent constructions of a bosonic Lax matrix disagree."""


class ConfigError(ValueError):
    """A CLI/report configuration value is invalid."""
