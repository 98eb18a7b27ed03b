"""Exception types shared across the library."""


class PrecisionLossError(ArithmeticError):
    """A quantity cancelled below the resolvable floating-point resolution.

    Raised e.g. when 1 - M underflows while evaluating ln(1 - M) for nearly
    touching spheres, where the reflection coefficient M approaches 1.
    """


class NonConvergenceError(RuntimeError):
    """A truncated sum or quadrature hit its hard cap before reaching tolerance.

    ``partial`` is the value of the completed work, ``l_used`` the last l whose
    term it holds and ``p_used`` the largest Matsubara index reached.
    """

    def __init__(self, message, partial=None, l_used=0, p_used=0):
        super().__init__(message)
        self.partial = partial
        self.l_used = l_used
        self.p_used = p_used


class OutOfRegimeError(ValueError):
    """An asymptotic series was evaluated outside its domain of validity."""
