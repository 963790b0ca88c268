"""Exception types shared across the package."""


class VolgraphError(Exception):
    """Base class for all package errors."""


class ShapeError(VolgraphError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(VolgraphError):
    """A configuration value is missing, malformed, or out of range."""


class ParseError(VolgraphError):
    """An input file violates its schema; carries file/line context."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc = f" [{loc}]"
        super().__init__(f"{message}{loc}")
        self.path = path
        self.line = line


class InsufficientDataError(VolgraphError):
    """Not enough trading days around an event to evaluate a window."""


class NonFiniteError(VolgraphError, FloatingPointError):
    """A tensor op's output or a gradient held a NaN or an infinity.

    The message names the op or the parameter.
    """


class GraphConstructionError(VolgraphError):
    """Company-network construction rejected its inputs."""


class TrainingDivergedError(VolgraphError):
    """Training loss became non-finite."""

    def __init__(self, epoch, detail=""):
        super().__init__(f"training diverged at epoch {epoch}{': ' + detail if detail else ''}")
        self.epoch = epoch
