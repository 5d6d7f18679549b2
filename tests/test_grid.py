"""Grid partition, cell indexing, neighbor rings, geodesic distance."""

import random

import pytest

from geopost import (
    CellId,
    GeoBounds,
    GeoPoint,
    OutOfRegionError,
    ValidationError,
    geo_distance_km,
    partition,
)
from helpers import law_of_cosines_km

# Midtown-scale square region of ~51.44 km^2 centered near 40.75N.
STUDY_BOUNDS = GeoBounds(40.717752, -74.042557, 40.782254, -73.957415)


class TestPartition:
    def test_g8_yields_64_cells(self):
        part = partition(STUDY_BOUNDS, 8)
        assert len(part.cells()) == 64
        assert len(set(part.cells())) == 64

    def test_g1_is_identity_partition(self):
        part = partition(GeoBounds(1.0, 2.0, 3.0, 5.0), 1)
        assert part.cells() == [CellId(0, 0)]
        assert part.cell_rect(CellId(0, 0)) == (1.0, 3.0, 2.0, 5.0)

    def test_cell_area_is_region_share(self):
        # 51.44 km^2 over 64 cells is ~0.803 km^2 apiece; cell widths vary
        # slightly with latitude, so allow a small band around the share.
        part = partition(STUDY_BOUNDS, 8)
        for cell in part.cells():
            lat_lo, lat_hi, lon_lo, lon_hi = part.cell_rect(cell)
            mid_lat = (lat_lo + lat_hi) / 2
            mid_lon = (lon_lo + lon_hi) / 2
            width = geo_distance_km(GeoPoint(mid_lat, lon_lo), GeoPoint(mid_lat, lon_hi))
            height = geo_distance_km(GeoPoint(lat_lo, mid_lon), GeoPoint(lat_hi, mid_lon))
            assert width * height == pytest.approx(0.803, abs=0.01)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValidationError):
            GeoBounds(2.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            GeoBounds(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            GeoBounds(-95.0, 0.0, 1.0, 1.0)

    def test_zero_grid_rejected(self):
        with pytest.raises(ValidationError):
            partition(GeoBounds(0.0, 0.0, 1.0, 1.0), 0)

    @pytest.mark.parametrize("g", [True, False, 2.0])
    def test_non_integer_grid_rejected(self, g):
        with pytest.raises(ValidationError):
            partition(GeoBounds(0.0, 0.0, 1.0, 1.0), g)


class TestCellAssignment:
    def test_southwest_corner_is_origin_cell(self):
        for g in (1, 2, 5, 8):
            part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), g)
            assert part.cell_of(GeoPoint(0.0, 0.0)) == CellId(0, 0)

    def test_centroid_boundary_goes_to_higher_index(self):
        part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), 2)
        assert part.cell_of(GeoPoint(1.0, 1.0)) == CellId(1, 1)

    def test_outer_north_east_edge_belongs_to_last_cell(self):
        part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), 2)
        assert part.cell_of(GeoPoint(2.0, 2.0)) == CellId(1, 1)
        assert part.cell_of(GeoPoint(2.0, 0.0)) == CellId(1, 0)

    def test_point_just_outside_raises(self):
        part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), 2)
        for lat, lon in [(-1e-9, 1.0), (2.0 + 1e-9, 1.0), (1.0, -1e-9), (1.0, 2.0 + 1e-9)]:
            with pytest.raises(OutOfRegionError):
                part.cell_of(GeoPoint(lat, lon))

    def test_tiling_fuzz(self):
        # Every random in-bounds point maps to exactly one valid cell whose
        # rectangle contains it (tiny slack for the division rounding).
        rng = random.Random(42)
        part = partition(STUDY_BOUNDS, 7)
        b = STUDY_BOUNDS
        for _ in range(10_000):
            p = GeoPoint(rng.uniform(b.south, b.north), rng.uniform(b.west, b.east))
            cell = part.cell_of(p)
            assert 0 <= cell.row < 7 and 0 <= cell.col < 7
            lat_lo, lat_hi, lon_lo, lon_hi = part.cell_rect(cell)
            assert lat_lo - 1e-12 <= p.lat <= lat_hi + 1e-12
            assert lon_lo - 1e-12 <= p.lon <= lon_hi + 1e-12


class TestCellCenters:
    def test_g1_center_is_bounds_centroid(self):
        part = partition(GeoBounds(0.0, 0.0, 2.0, 4.0), 1)
        assert part.center_of(CellId(0, 0)) == GeoPoint(1.0, 2.0)

    def test_g2_first_cell_center(self):
        part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), 2)
        assert part.center_of(CellId(0, 0)) == GeoPoint(0.5, 0.5)

    def test_g8_last_cell_center(self):
        part = partition(GeoBounds(0.0, 0.0, 8.0, 8.0), 8)
        assert part.center_of(CellId(7, 7)) == GeoPoint(7.5, 7.5)

    def test_invalid_cell_rejected(self):
        part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), 2)
        with pytest.raises(ValidationError):
            part.center_of(CellId(2, 0))
        with pytest.raises(ValidationError):
            part.center_of(CellId(0, -1))


class TestRingNeighbors:
    def test_full_ring_around_center_of_5x5(self):
        part = partition(GeoBounds(0.0, 0.0, 5.0, 5.0), 5)
        assert len(part.ring_neighbors(CellId(2, 2), 1)) == 8

    def test_corner_ring_clipped_to_three(self):
        part = partition(GeoBounds(0.0, 0.0, 5.0, 5.0), 5)
        assert part.ring_neighbors(CellId(0, 0), 1) == {CellId(0, 1), CellId(1, 0), CellId(1, 1)}

    def test_full_ring2_around_center_of_5x5(self):
        part = partition(GeoBounds(0.0, 0.0, 5.0, 5.0), 5)
        assert len(part.ring_neighbors(CellId(2, 2), 2)) == 16

    def test_rings_partition_the_grid(self):
        # Rings k = 1..g-1 are pairwise disjoint, exclude the center, and
        # together with it cover all g*g cells.
        for g in (1, 2, 3, 5, 8):
            part = partition(GeoBounds(0.0, 0.0, 2.0, 2.0), g)
            for cell in part.cells():
                union = {cell}
                for k in range(1, g):
                    ring = part.ring_neighbors(cell, k)
                    assert cell not in ring
                    assert union.isdisjoint(ring)
                    union |= ring
                assert union == set(part.cells())

    def test_ring_size_bound(self):
        part = partition(GeoBounds(0.0, 0.0, 6.0, 6.0), 6)
        for cell in part.cells():
            for k in range(1, 6):
                ring = part.ring_neighbors(cell, k)
                full = (2 * k + 1) ** 2 - (2 * k - 1) ** 2
                assert len(ring) <= full
                in_grid = all(
                    0 <= cell.row + dr < 6 and 0 <= cell.col + dc < 6
                    for dr in range(-k, k + 1)
                    for dc in range(-k, k + 1)
                    if max(abs(dr), abs(dc)) == k
                )
                assert (len(ring) == full) == in_grid


class TestGeoDistance:
    def test_identical_points(self):
        p = GeoPoint(40.75, -73.98)
        assert geo_distance_km(p, p) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # Frozen from the law-of-cosines oracle: 111.19508023352181 km.
        got = geo_distance_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert got == pytest.approx(111.19508023352181, abs=1e-6)
        assert got == pytest.approx(law_of_cosines_km(0.0, 0.0, 0.0, 1.0), abs=1e-6)

    def test_lower_manhattan_to_midtown(self):
        a = GeoPoint(40.7128, -74.0060)
        b = GeoPoint(40.7589, -73.9851)
        got = geo_distance_km(a, b)
        # Oracle value 5.4201231265744925 km; the pair is ~5.4 km apart.
        assert got == pytest.approx(5.4201231265744925, abs=1e-6)
        assert abs(got - 5.4) < 0.1

    def test_symmetry_fuzz(self):
        rng = random.Random(7)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            assert abs(geo_distance_km(a, b) - geo_distance_km(b, a)) <= 1e-9
            assert geo_distance_km(a, b) >= 0.0

    def test_triangle_inequality_fuzz(self):
        rng = random.Random(8)
        for _ in range(200):
            pts = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
            ab = geo_distance_km(pts[0], pts[1])
            bc = geo_distance_km(pts[1], pts[2])
            ac = geo_distance_km(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6
