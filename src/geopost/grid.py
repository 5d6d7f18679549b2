"""Rectangular grid partition of a geographic region.

The region of interest is an axis-aligned lat/lon rectangle split into a
g x g grid of equal-degree cells. Cells are addressed as (row, col) with
row 0 at the southern edge and col 0 at the western edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import atan2, cos, floor, radians, sin, sqrt

from .errors import OutOfRegionError, ValidationError

# IUGG mean Earth radius.
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude out of range [-90, 90]: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"longitude out of range [-180, 180]: {self.lon}")


@dataclass(frozen=True)
class GeoBounds:
    """An axis-aligned lat/lon rectangle. Antimeridian-spanning regions
    are unsupported, so west < east is required."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self):
        GeoPoint(self.south, self.west)
        GeoPoint(self.north, self.east)
        if not self.south < self.north:
            raise ValidationError(f"south ({self.south}) must be < north ({self.north})")
        if not self.west < self.east:
            raise ValidationError(f"west ({self.west}) must be < east ({self.east})")

    def contains(self, p: GeoPoint) -> bool:
        return self.south <= p.lat <= self.north and self.west <= p.lon <= self.east


@dataclass(frozen=True)
class CellId:
    """Address of one grid cell: row counts northward, col eastward."""

    row: int
    col: int


@dataclass(frozen=True)
class GridPartition:
    """A g x g tiling of ``bounds`` into equal-degree, non-overlapping cells."""

    bounds: GeoBounds
    g: int

    def __post_init__(self):
        if isinstance(self.g, bool) or not isinstance(self.g, int) or self.g < 1:
            raise ValidationError(f"grid dimension must be a positive integer, got {self.g}")

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
        """Map an in-bounds point to the unique cell covering it.

        Cell (r, c) covers the half-open band [south + r*dlat, south +
        (r+1)*dlat) and likewise for longitude, so a point on an interior
        boundary resolves to the higher index. The outermost north/east
        edges close the last row/column.
        """
        if not self.bounds.contains(p):
            raise OutOfRegionError(f"point ({p.lat}, {p.lon}) outside region {self.bounds}")
        row = min(floor((p.lat - self.bounds.south) / self.dlat), self.g - 1)
        col = min(floor((p.lon - self.bounds.west) / self.dlon), self.g - 1)
        return CellId(row, col)

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
