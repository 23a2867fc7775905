"""Exception hierarchy shared by all matchpulse modules."""


class MatchPulseError(Exception):
    """Base class for all domain errors raised by this package."""


# --- ingest ---

class MissingColumn(MatchPulseError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"required column not found: {name!r}")


class BadToken(MatchPulseError):
    def __init__(self, row, column, value):
        self.row, self.column, self.value = row, column, value
        super().__init__(f"bad token {value!r} in column {column!r} at row {row}")


class EmptyInput(MatchPulseError):
    pass


class MissingRequired(MatchPulseError):
    """A match lacks a cell that a feature needs and that is never imputed."""

    def __init__(self, match_id, column, feature, point):
        self.match_id, self.column = match_id, column
        self.feature, self.point = feature, point
        super().__init__(f"match {match_id!r}: {column} (source of {feature}) "
                         f"is missing at point {point}")


class PointOrder(MatchPulseError):
    def __init__(self, row, match_id, point_no, previous):
        self.row, self.match_id = row, match_id
        super().__init__(
            f"point_no {point_no} at row {row} does not follow point_no "
            f"{previous} of match {match_id!r} (must strictly increase)")


class NonFiniteFeature(MatchPulseError):
    def __init__(self, feature, point):
        self.feature, self.point = feature, point
        super().__init__(f"{feature} is not finite at point {point} "
                         f"(its source cells are too large)")


class UnknownColumn(MatchPulseError):
    def __init__(self, column_id):
        self.column_id = column_id
        super().__init__(f"unknown feature column: {column_id!r}")


# --- streaks ---

class EmptyStreaks(MatchPulseError):
    pass


class DegenerateMargins(MatchPulseError):
    pass


# --- ewm ---

class AllColumnsUninformative(MatchPulseError):
    pass


class ColumnMismatch(MatchPulseError):
    pass


# --- changepoint ---

class EmptySeries(MatchPulseError):
    pass


class NoConvergence(MatchPulseError):
    """An iteration budget ran out; `best` holds the best result, if kept."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


# --- shift ---

class TimeOutOfRange(MatchPulseError):
    pass


# --- stats ---

class SingleClass(MatchPulseError):
    pass


class DegenerateDesign(MatchPulseError):
    pass


# --- model ---

class DimMismatch(MatchPulseError):
    pass


class NonFiniteLoss(MatchPulseError):
    pass


class BadLabels(MatchPulseError):
    """Training labels other than 0 and 1."""


class BadModel(MatchPulseError):
    """A saved model that cannot be read or does not fit its own config."""


# --- explain ---

class TooManyFeatures(MatchPulseError):
    def __init__(self, count, limit):
        super().__init__(f"exact Shapley enumeration limited to {limit} features, got {count}")


class EmptyBackground(MatchPulseError):
    pass
