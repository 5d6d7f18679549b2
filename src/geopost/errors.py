"""Exception hierarchy shared across the package."""


class GeopostError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GeopostError, ValueError):
    """Invalid argument, configuration value, or empty required input."""


class OutOfRegionError(GeopostError):
    """A point falls outside the partitioned region."""


class DataError(GeopostError):
    """A corpus file or model directory is malformed or incompatible."""
