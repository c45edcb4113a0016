"""Error taxonomy shared across the package.

Three failure classes are distinguished so the CLI can map them to exit codes:
bad input (3), exact-arithmetic breakdown (2), and blown resource budgets (2).
Bound *violations* are not errors; they are reported as failing checks.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad partition, bad indices, ...)."""


class ArithmeticFailure(ArithmeticError):
    """An exact computation hit a structurally impossible state.

    Carries enough context to reproduce: the step index and the offending
    quantity (e.g. the diagonal entry whose LDL^T pivot came out zero).
    """

    def __init__(self, message, *, step=None, context=None):
        super().__init__(message)
        self.step = step
        self.context = context


class ResourceBudgetError(RuntimeError):
    """A configurable budget (term count, minor count) was exceeded.

    ``partial`` holds whatever partial statistics or report were accumulated
    before the budget tripped.
    """

    def __init__(self, message, *, partial=None):
        super().__init__(message)
        self.partial = partial
