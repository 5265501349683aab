"""Exception hierarchy shared across the package."""


class PrivlensError(Exception):
    """Base class for all package-specific errors."""


# --- data / feature errors -------------------------------------------------

class _Located:
    """Carries the path and line of a bad input and names them in the message."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(f"{message}{loc}")
        self.path = path
        self.line = line


class ParseError(_Located, PrivlensError):
    """A file could not be parsed; carries path and line number when known."""


class DuplicateId(_Located, PrivlensError):
    def __init__(self, image_id, path=None, line=None):
        super().__init__(f"duplicate image_id: {image_id!r}", path, line)
        self.image_id = image_id


class UnknownLabel(_Located, PrivlensError):
    def __init__(self, token, path=None, line=None):
        super().__init__(f"unknown privacy label: {token!r}", path, line)
        self.token = token


class UnknownVote(_Located, PrivlensError):
    def __init__(self, token, path=None, line=None):
        super().__init__(f"unknown vote token: {token!r}", path, line)
        self.token = token


class MissingGroupData(PrivlensError):
    """A selected feature group has no backing data."""


class MissingFeatures(PrivlensError):
    def __init__(self, image_id, group):
        super().__init__(f"image {image_id!r} lacks features for group {group}")
        self.image_id = image_id
        self.group = group


class MissingLabel(PrivlensError):
    def __init__(self, image_id):
        super().__init__(f"image {image_id!r} has no binary label")
        self.image_id = image_id


class DimensionMismatch(_Located, PrivlensError):
    pass


class EmptyMatrix(PrivlensError):
    pass


# --- extractor errors ------------------------------------------------------

class ExtractionError(PrivlensError):
    """Base for per-image extraction failures."""


class AuthError(ExtractionError):
    pass


class RateLimited(ExtractionError):
    pass


class TransportError(ExtractionError):
    pass


class MalformedResponse(ExtractionError):
    pass


class InvalidScene(ExtractionError):
    """A scene row that is not a probability distribution."""


class UnmappedCategory(PrivlensError):
    def __init__(self, category):
        super().__init__(f"scene category {category!r} missing from indoor/outdoor map")
        self.category = category


# --- classifier errors -----------------------------------------------------

class DegenerateLabels(PrivlensError):
    pass


class NonFiniteLoss(PrivlensError):
    pass


class ShapeError(PrivlensError):
    pass


class SchemaVersionMismatch(PrivlensError):
    def __init__(self, found, expected):
        super().__init__(f"model schema version {found} unsupported (expected {expected})")
        self.found = found
        self.expected = expected


# --- metrics / analysis errors ----------------------------------------------

class LengthMismatch(PrivlensError):
    pass


class EmptyInput(PrivlensError):
    pass


class UndefinedMetric(PrivlensError):
    pass


class TooFewVotes(PrivlensError):
    pass


class EmptyControversialSet(PrivlensError):
    pass


class EmptyDataset(PrivlensError):
    pass


# --- CLI / config errors -----------------------------------------------------

class ConfigError(PrivlensError):
    pass


class FeatureSpecMismatch(PrivlensError):
    pass
