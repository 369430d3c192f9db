"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    pass


class MalformedPosetError(EngineError):
    pass


class ForeignElementError(EngineError):
    pass


class NotEnumerableError(EngineError):
    pass


class LiteralParseError(EngineError):
    pass


class ArityError(EngineError):
    pass


class UnrepresentableJoinError(EngineError):
    pass


class DepthExceededError(EngineError):
    """Raised when more than two symbolic family parameters would be live at
    once, or when an input nests deeper than the recursion limit allows."""


class UnsupportedAddendError(EngineError):
    """Left addend of ordinal addition carries families while the right one
    is a family's one-parameter element shape."""


class StageIncompleteError(EngineError):
    """Requested hierarchy stage does not yet contain the base set."""

    def __init__(self, message, minimal):
        super().__init__(message)
        self.minimal = minimal
