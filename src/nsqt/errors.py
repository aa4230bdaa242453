"""Exception classes shared by more than one nsqt module."""


class ContractError(ValueError):
    """Caller violated a documented precondition of a function or config."""


class CapacityError(RuntimeError):
    """Input exceeds a configured size bound (model max_len, enumeration limit)."""
