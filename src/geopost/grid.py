"""Rectangular grid partition of a geographic region.

The region of interest is an axis-aligned lat/lon rectangle split into a
g x g grid of equal-degree cells. Cells are addressed as (row, col) with
row 0 at the southern edge and col 0 at the western edge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import atan2, cos, radians, sin, sqrt
from numbers import Real

import numpy as np

from .errors import OutOfRegionError, ValidationError

# IUGG mean Earth radius.
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        check_coordinates(self.lat, self.lon)


def check_coordinates(lat: float, lon: float) -> None:
    """Raise ValidationError unless ``lat`` lies in [-90, 90] and ``lon``
    in [-180, 180]. NaN lies in neither range."""
    if not -90.0 <= lat <= 90.0:
        raise ValidationError(f"latitude out of range [-90, 90]: {lat}")
    if not -180.0 <= lon <= 180.0:
        raise ValidationError(f"longitude out of range [-180, 180]: {lon}")


@dataclass(frozen=True)
class GeoBounds:
    """An axis-aligned lat/lon rectangle. Antimeridian-spanning regions
    are unsupported, so west < east is required. Each edge is stored as a
    Python ``float``, so a numpy scalar reaches the manifest as the plain
    number."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self):
        for name in ("south", "west", "north", "east"):
            edge = getattr(self, name)
            edge = real_number("bounds", edge, lambda _: True, "be numbers, not booleans")
            object.__setattr__(self, name, edge)
        check_coordinates(self.south, self.west)
        check_coordinates(self.north, self.east)
        if not self.south < self.north:
            raise ValidationError(f"south ({self.south}) must be < north ({self.north})")
        if not self.west < self.east:
            raise ValidationError(f"west ({self.west}) must be < east ({self.east})")

    def covers(self, lats, lons) -> np.ndarray:
        """Boolean mask of the points (lats[i], lons[i]) inside the
        rectangle, edges included; a NaN coordinate lies outside."""
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        lat_in = (self.south <= lats) & (lats <= self.north)
        return lat_in & (self.west <= lons) & (lons <= self.east)


@dataclass(frozen=True)
class CellId:
    """Address of one grid cell: row counts northward, col eastward."""

    row: int
    col: int


def _index_at_least(name: str, value, minimum: int) -> int:
    """``value`` as an integer of at least ``minimum``, not a bool,
    returned as a Python ``int`` so a numpy scalar reaches the manifest as
    the plain number. Raises ValidationError naming ``name`` otherwise."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return operator.index(value)


def real_number(name: str, value, ok, rule: str) -> float:
    """``value`` as a Python ``float`` when it is a real number, not a bool,
    for which ``ok`` holds. Raises ValidationError saying that ``name``
    must ``rule`` otherwise: with the value's repr, or, for a number no
    float can hold such as ``10**400``, whose repr may be too long to
    make, without it."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must {rule}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must {rule}, got a number past the float range") from None
    if not ok(value):
        raise ValidationError(f"{name} must {rule}, got {value!r}")
    return number


def positive_index(name: str, value) -> int:
    """``value`` as an integer >= 1 (see ``_index_at_least``)."""
    return _index_at_least(name, value, 1)


def non_negative_index(name: str, value) -> int:
    """``value`` as an integer >= 0 (see ``_index_at_least``)."""
    return _index_at_least(name, value, 0)


@dataclass(frozen=True)
class GridPartition:
    """A g x g tiling of ``bounds`` into equal-degree, non-overlapping cells."""

    bounds: GeoBounds
    g: int

    def __post_init__(self):
        object.__setattr__(self, "g", positive_index("grid dimension", self.g))

    @property
    def dlat(self) -> float:
        return (self.bounds.north - self.bounds.south) / self.g

    @property
    def dlon(self) -> float:
        return (self.bounds.east - self.bounds.west) / self.g

    def cells(self) -> list[CellId]:
        """All g**2 cells in row-major order."""
        return [CellId(r, c) for r in range(self.g) for c in range(self.g)]

    def validate_cell(self, cell: CellId) -> None:
        if not (0 <= cell.row < self.g and 0 <= cell.col < self.g):
            raise ValidationError(f"cell {cell} outside {self.g}x{self.g} grid")

    def cell_of(self, p: GeoPoint) -> CellId:
        """The unique cell covering an in-bounds point: ``cells_of`` for
        one point."""
        return CellId(*divmod(int(self.cells_of([p.lat], [p.lon])[0]), self.g))

    def cells_of(self, lats, lons) -> np.ndarray:
        """Row-major index (row * g + col) of the cell covering every point
        (lats[i], lons[i]), as int64, in one pass over the arrays.

        Cell (r, c) covers the half-open band [south + r*dlat, south +
        (r+1)*dlat) and likewise for longitude, so a point on an interior
        boundary resolves to the higher index. The outermost north/east
        edges close the last row/column. The first point outside the
        region, in input order, raises OutOfRegionError.
        """
        b = self.bounds
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        inside = b.covers(lats, lons)
        if not inside.all():
            i = int(np.argmin(inside))
            raise OutOfRegionError(f"point ({float(lats[i])}, {float(lons[i])}) outside region {b}")
        last = self.g - 1
        rows = np.minimum(np.floor((lats - b.south) / self.dlat), last).astype(np.int64)
        cols = np.minimum(np.floor((lons - b.west) / self.dlon), last).astype(np.int64)
        return rows * self.g + cols

    def cell_rect(self, cell: CellId) -> tuple[float, float, float, float]:
        """(lat_lo, lat_hi, lon_lo, lon_hi) of the cell rectangle."""
        self.validate_cell(cell)
        lat_lo = self.bounds.south + cell.row * self.dlat
        lon_lo = self.bounds.west + cell.col * self.dlon
        return lat_lo, lat_lo + self.dlat, lon_lo, lon_lo + self.dlon

    def center_of(self, cell: CellId) -> GeoPoint:
        """Midpoint of the cell rectangle."""
        self.validate_cell(cell)
        return GeoPoint(
            self.bounds.south + (cell.row + 0.5) * self.dlat,
            self.bounds.west + (cell.col + 0.5) * self.dlon,
        )

    @cached_property
    def _centers(self) -> dict[int, GeoPoint]:
        return {}

    def center_at(self, index: int) -> GeoPoint:
        """``center_of`` the cell at row-major ``index``, built once per
        partition and only for cells that are asked for."""
        point = self._centers.get(index)
        if point is None:
            point = self._centers[index] = self.center_of(CellId(*divmod(index, self.g)))
        return point

    def ring_neighbors(self, cell: CellId, k: int) -> set[CellId]:
        """All in-grid cells at Chebyshev distance exactly k from ``cell``.

        For an interior cell far from the edges the ring has
        (2k+1)**2 - (2k-1)**2 = 8k members; near an edge the ring is
        clipped to whatever falls inside the grid.
        """
        self.validate_cell(cell)
        if k < 1:
            raise ValidationError(f"ring distance must be >= 1, got {k}")
        ring = set()
        for dr in range(-k, k + 1):
            dcs = range(-k, k + 1) if abs(dr) == k else (-k, k)
            for dc in dcs:
                r, c = cell.row + dr, cell.col + dc
                if 0 <= r < self.g and 0 <= c < self.g:
                    ring.add(CellId(r, c))
        return ring


def partition(bounds: GeoBounds, g: int) -> GridPartition:
    """Split ``bounds`` into a validated g x g grid of equal-size cells."""
    return GridPartition(bounds, g)


def geo_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (haversine) distance in kilometers.

    Uses a sphere of mean Earth radius; symmetric and non-negative.
    """
    lat1, lon1, lat2, lon2 = map(radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = sin(dlat / 2) ** 2 + cos(lat1) * cos(lat2) * sin(dlon / 2) ** 2
    return EARTH_RADIUS_KM * 2 * atan2(sqrt(h), sqrt(1 - h))
