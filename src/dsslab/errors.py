"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its configured resource budget.

    Carries enough context to report what was attempted and what the cap was,
    so the CLI can map it to a clean exit code instead of a traceback.
    needed is None when the work ran out before its total was known; `what`
    then states how far it got.
    """

    def __init__(self, what: str, needed: int | None, budget: int):
        self.what = what
        self.needed = needed
        self.budget = budget
        needs = "" if needed is None else f"needs {needed}, "
        super().__init__(f"{what}: {needs}budget is {budget}")
