"""Exception types raised across the package."""


class MiinetError(Exception):
    """Base class for all package errors."""


class NonFinite(MiinetError):
    """A NaN or Inf entry was found in ingested data."""

    def __init__(self, channel, t):
        self.channel = channel
        self.t = t
        super().__init__(f"non-finite value in channel {channel} at sample {t}")


class ZeroVariance(MiinetError):
    """A column is constant and cannot be standardized."""

    def __init__(self, channel):
        self.channel = channel
        super().__init__(f"channel {channel} has zero variance")


class VarianceOverflow(MiinetError):
    """A column's variance is past the range of float64, so it cannot be standardized."""

    def __init__(self, channel):
        self.channel = channel
        super().__init__(f"channel {channel} has a variance that overflows float64")


class SingularCovariance(MiinetError):
    """Covariance could not be regularized to positive definiteness."""


class DomainError(MiinetError):
    """Argument outside the mathematical domain of a special function."""


class EmptyHistogram(MiinetError):
    """A channel that cannot be binned: under 2 samples, one value, or an unfit range."""


class ConditionSetTooLarge(MiinetError):
    """Conditioning set leaves too few samples per dimension."""


class MissingChannel(MiinetError):
    """A grid sensor has no channel for the requested axis."""

    def __init__(self, sensor_index, axis):
        self.sensor_index = sensor_index
        self.axis = axis
        super().__init__(f"no channel for sensor {sensor_index} axis {axis}")


class EdgeSetMismatch(MiinetError):
    """Two pairwise-MI maps do not share the same edge set/axis."""


class NodeSetMismatch(MiinetError):
    """Two networks do not share the same node set."""


class UnstableSpec(MiinetError):
    """A coupling the generators cannot run: VAR spectral radius >= 1, or float64 overflow."""


class CyclicGraph(MiinetError):
    """Contemporaneous generator requires an acyclic coupling graph."""


class ParseError(MiinetError):
    """CSV ingestion failure with file position context."""

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class DuplicateChannel(MiinetError):
    """The same (sensor, axis) channel appears twice."""


class EmptyFile(MiinetError):
    """Input file contains no data rows."""


class MalformedNetwork(MiinetError):
    """A network JSON payload lacks or mis-shapes a field, or repeats a node or an edge."""


class NetworkInferenceError(MiinetError):
    """One or more per-target inferences failed; never a silent partial result."""

    def __init__(self, failures):
        self.failures = failures
        lines = "; ".join(f"target {t}: {e}" for t, e in failures)
        super().__init__(f"inference failed for {len(failures)} target(s): {lines}")
