"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Malformed graph input: bad edge list, self-loop, id overflow, bad family params."""


class NotAnEdgeError(ValueError):
    """The requested vertex pair is not an edge of the graph."""


class NotApplicableError(ValueError):
    """A closed-form formula or theorem precondition does not hold for this input."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OracleCapExceededError(RuntimeError):
    """The core neighborhood is too large for exhaustive dual enumeration."""

    def __init__(self, core_size, cap):
        super().__init__(
            f"oracle cap exceeded: core has {core_size} vertices, cap is {cap}"
        )
        self.core_size = core_size
        self.cap = cap


class VerificationError(RuntimeError):
    """A formula value disagrees with the LP value during cross-checking."""

    def __init__(self, edge, formula_value, lp_value, method):
        super().__init__(
            f"verification mismatch on edge {edge}: method {method} gave "
            f"{formula_value}, LP gave {lp_value}"
        )
        self.edge = edge
        self.formula_value = formula_value
        self.lp_value = lp_value
        self.method = method


class RegimeUndeterminedError(ValueError):
    """Parameters fall in no regime's basin (or between refusal thresholds)."""
