"""Exception types shared across the library."""


class StructureError(ValueError):
    """Malformed input: bad dimensions, mismatched sample spaces, invalid
    data, or a call outside an operation's documented precondition."""


class InternalInconsistency(RuntimeError):
    """Two routes that must agree produced different answers.

    Carries the offending data so the failing instance can be reproduced.
    """

    def __init__(self, message, **data):
        super().__init__(message)
        self.data = data
