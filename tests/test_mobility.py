"""Preprocessing: gridding, interval splits, motion/time codes, data splits."""

import dataclasses
import hashlib
import itertools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tulink import synth
from tulink.errors import ConfigError, DataError
from tulink.graphs import build_global_graph, build_grid_incidence, build_local_graph
from tulink.mobility import (
    GridSequence,
    METERS_PER_DEGREE,
    TURN_TAN,
    GridMap,
    PointColumns,
    build_grid_map,
    build_grid_sequences,
    chronological_split,
    interval_ids,
    load_grid_map,
    load_sequences,
    load_split,
    map_points_to_grids,
    motion_states,
    parse_dataset,
    save_grid_map,
    save_sequences,
    save_split,
    split_sizes,
    time_windows,
)
from tulink.model import build_model_inputs

import oracles
from oracles import columns_from_records, map_point_to_grid

from conftest import (SEQUENCE_RECORDS, edit_trajectories, npy_record, rewrite_sequences,
                      sequence_parts)


def point_at_meters(x_m, y_m, t=0.0):
    """Point whose planar offset from (0, 0) is (x_m, y_m) at the equator."""
    return SimpleNamespace(t=t, lon=x_m / METERS_PER_DEGREE, lat=y_m / METERS_PER_DEGREE)


def square_box_map(side_m, cell_m):
    corners = [point_at_meters(0, 0), point_at_meters(side_m, side_m)]
    return build_grid_map([p.lon for p in corners], [p.lat for p in corners], cell_m)


def cell_of(p, gm):
    """The grid id of one point, from a one-point batch call."""
    return int(map_points_to_grids([p.lon], [p.lat], gm)[0])


def columns(times, coords=None, users=None):
    """PointColumns of points listed in (user, time) order, with planar
    coordinates in meters at the equator."""
    n = len(times)
    coords = [(0.0, 0.0)] * n if coords is None else coords
    users = ["u"] * n if users is None else users
    roster = sorted(set(users))
    return PointColumns(roster, np.array([roster.index(u) for u in users], dtype=np.int64),
                        np.array(times, dtype=np.float64),
                        np.array([x / METERS_PER_DEGREE for x, _ in coords], dtype=np.float64),
                        np.array([y / METERS_PER_DEGREE for _, y in coords], dtype=np.float64))


class TestGridMap:
    def test_exact_division_gives_two_by_two(self):
        gm = square_box_map(100.0, 50.0)
        assert (gm.cols, gm.rows, gm.n_grids) == (2, 2, 4)

    def test_single_repeated_point_degenerates_to_one_cell(self):
        p = point_at_meters(5.0, 5.0)
        gm = build_grid_map([p.lon] * 3, [p.lat] * 3, 40.0)
        assert gm.n_grids == 1

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            build_grid_map([], [], 40.0)

    def test_nonpositive_cell_rejected(self):
        p = point_at_meters(0, 0)
        with pytest.raises(ValueError):
            build_grid_map([p.lon], [p.lat], 0.0)

    def test_bounds_keep_the_first_signed_zero(self):
        """As Python's min and max do: the first extreme value in point order."""
        gm = build_grid_map([0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], 40.0)
        assert repr((gm.min_lon, gm.max_lat)) == "(0.0, -0.0)"
        gm = build_grid_map([-0.0, 0.0, -1.0], [0.0, -0.0, 1.0], 40.0)
        assert repr((gm.max_lon, gm.min_lat)) == "(-0.0, 0.0)"


class TestPointToGrid:
    def test_hand_cells(self):
        gm = square_box_map(100.0, 50.0)
        assert cell_of(point_at_meters(10, 10), gm) == 0
        assert cell_of(point_at_meters(60, 10), gm) == 1
        assert cell_of(point_at_meters(10, 60), gm) == 2
        assert cell_of(point_at_meters(60, 60), gm) == 3

    def test_edge_belongs_to_higher_cell_except_box_max(self):
        gm = square_box_map(100.0, 50.0)
        # interior edge goes up, the maximum corner stays in the last cell
        assert cell_of(point_at_meters(50.0 + 1e-6, 10), gm) == 1
        assert cell_of(point_at_meters(100.0, 100.0), gm) == 3

    def test_outside_expanded_box_names_coordinate(self):
        gm = square_box_map(100.0, 50.0)
        with pytest.raises(DataError, match="longitude"):
            cell_of(point_at_meters(300.0, 10.0), gm)
        with pytest.raises(DataError, match="latitude"):
            cell_of(point_at_meters(10.0, -200.0), gm)

    def test_matches_exhaustive_cell_scan(self):
        """10k random points agree with a brute-force containment scan."""
        gm = square_box_map(330.0, 40.0)
        rng = np.random.default_rng(42)

        def oracle(x_m, y_m):
            for row in range(gm.rows):
                for col in range(gm.cols):
                    x_lo, x_hi = col * 40.0, (col + 1) * 40.0
                    y_lo, y_hi = row * 40.0, (row + 1) * 40.0
                    inside_x = x_lo <= x_m < x_hi or (col == gm.cols - 1 and x_m >= x_lo)
                    inside_y = y_lo <= y_m < y_hi or (row == gm.rows - 1 and y_m >= y_lo)
                    if inside_x and inside_y:
                        return row * gm.cols + col
            raise AssertionError("point escaped the scan")

        xy = rng.uniform(0.0, 330.0, size=(10_000, 2))
        ids = map_points_to_grids(xy[:, 0] / METERS_PER_DEGREE, xy[:, 1] / METERS_PER_DEGREE, gm)
        assert ids.tolist() == [oracle(x, y) for x, y in xy.tolist()]

    def test_constant_within_a_cell(self):
        gm = square_box_map(400.0, 40.0)
        rng = np.random.default_rng(7)
        for _ in range(500):
            col = rng.integers(0, gm.cols)
            row = rng.integers(0, gm.rows)
            xs = rng.uniform(col * 40.0 + 1e-3, (col + 1) * 40.0 - 1e-3, size=2)
            ys = rng.uniform(row * 40.0 + 1e-3, (row + 1) * 40.0 - 1e-3, size=2)
            a = cell_of(point_at_meters(xs[0], ys[0]), gm)
            b = cell_of(point_at_meters(xs[1], ys[1]), gm)
            assert a == b


@st.composite
def grid_maps(draw):
    """Grid maps from one cell to ids near 2**63, at mid-latitudes within 80°.
    Around 2**62 + 512 and 2**63 - 512, n - 1 and n + 1 cells round to
    different floats."""
    cols = draw(st.one_of(st.integers(1, 12), st.integers(2**31 - 2, 2**31 + 2),
                          st.integers(2**62 - 2, 2**62 + 2), st.integers(2**62 + 508, 2**62 + 516),
                          st.integers(2**63 - 516, 2**63 - 508), st.integers(2**63 - 2, 2**63)))
    top = 2**63 // cols
    rows = draw(st.one_of(st.integers(1, min(12, top)), st.integers(max(1, top - 2), top)))
    cell = draw(st.sampled_from([1e-9, 0.37, 40.0, 333.3]))
    min_lon = draw(st.floats(-179.0, 179.0))
    min_lat = draw(st.floats(-80.0, 79.0))
    max_lat = min_lat + draw(st.floats(0.0, 1.0))
    return GridMap(min_lon, min_lat, min_lon, max_lat, cell, cols, rows)


def offsets_m(n_cells, cell):
    """Meter offsets inside, on the cell edges of, on and just past the
    one-cell-expanded extent of n_cells cells."""
    edge = st.sampled_from([0, 1, n_cells // 2, n_cells - 1, n_cells])
    hi = n_cells * cell + cell
    return st.one_of(
        st.floats(-cell, hi),
        edge.map(lambda k: k * cell),
        st.sampled_from([-cell, hi]),
        st.sampled_from([math.nextafter(-cell, -math.inf), math.nextafter(hi, math.inf),
                         -2.5 * cell, hi + cell]),
    )


@st.composite
def points_on(draw, gm):
    """Points given by meter offsets from the grid's lower corner."""
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(offsets_m(gm.cols, gm.cell_size), min_size=n, max_size=n))
    ys = draw(st.lists(offsets_m(gm.rows, gm.cell_size), min_size=n, max_size=n))
    return [SimpleNamespace(lon=gm.min_lon + x / gm.meters_per_deg_lon,
                            lat=gm.min_lat + y / gm.meters_per_deg_lat)
            for x, y in zip(xs, ys)]


class TestBatchPointToGrid:
    """map_points_to_grids against the per-point Python mapper."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_point_mapper(self, data):
        gm = data.draw(grid_maps())
        points = data.draw(points_on(gm))
        lons, lats = [p.lon for p in points], [p.lat for p in points]
        expected = []
        for p in points:
            try:
                expected.append(map_point_to_grid(p, gm))
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    map_points_to_grids(lons, lats, gm)
                assert str(raised.value) == str(exc)
                return
        ids = map_points_to_grids(lons, lats, gm)
        assert ids.dtype == np.int64
        assert ids.tolist() == expected
        assert all(0 <= i < gm.n_grids for i in expected)

    @pytest.mark.parametrize("cols", [2**62 + 513, 2**63 - 511, 2**63])
    def test_last_cell_where_floats_skip_it(self, cols):
        """Near 2**63 the floor at the expanded box edge can round past the
        float nearest cols - 1; the point still lands in the last cell."""
        gm = GridMap(0.0, 0.0, 0.0, 0.0, 1.0, cols, 1)
        hi = cols * gm.cell_size + gm.cell_size
        lon = hi / gm.meters_per_deg_lon
        while lon * gm.meters_per_deg_lon > hi:
            lon = math.nextafter(lon, -math.inf)
        while math.nextafter(lon, math.inf) * gm.meters_per_deg_lon <= hi:
            lon = math.nextafter(lon, math.inf)
        p = SimpleNamespace(lon=lon, lat=0.0)
        assert map_points_to_grids([lon], [0.0], gm).tolist() == [cols - 1]
        assert map_point_to_grid(p, gm) == cols - 1

    def test_first_bad_point_is_named(self):
        gm = square_box_map(100.0, 50.0)
        points = [point_at_meters(10, 10), point_at_meters(10, -200), point_at_meters(400, 10)]
        with pytest.raises(DataError, match=f"latitude {points[1].lat} "):
            map_points_to_grids([p.lon for p in points], [p.lat for p in points], gm)

    def test_no_points(self):
        ids = map_points_to_grids([], [], square_box_map(100.0, 50.0))
        assert ids.dtype == np.int64 and ids.shape == (0,)

    def test_one_point_call_is_the_batch_call(self):
        """A one-point batch call gives the per-point mapper's id."""
        gm = square_box_map(330.0, 40.0)
        p = point_at_meters(123.0, 45.6)
        assert cell_of(p, gm) == map_point_to_grid(p, gm)
        assert map_points_to_grids([p.lon], [p.lat], gm).dtype == np.int64


def sequences_at(times, tau, users=None, coords=None):
    """Grid sequences of the points over a map that covers them all."""
    points = columns(times, coords, users)
    gm = build_grid_map(points.lon, points.lat, 40.0)
    return build_grid_sequences(points, gm, tau)


class TestIntervalSplit:
    def _hours(self, hours):
        return [h * 3600.0 for h in hours], [(h, 0.0) for h in hours]

    def test_six_hour_buckets(self):
        times, coords = self._hours([0, 3, 7])
        subs = sequences_at(times, 21_600.0, coords=coords)
        assert subs.lengths.tolist() == [2, 1]
        assert subs.interval.tolist() == [0, 1]

    def test_single_interval_is_identity(self):
        times, coords = self._hours([1, 2, 3])
        subs = sequences_at(times, 86_400.0, coords=coords)
        assert len(subs) == 1
        assert subs.t.tolist() == times

    def test_preserves_points_and_order(self):
        rng = np.random.default_rng(3)
        times, coords = self._hours(np.sort(rng.uniform(0, 50, size=40)).tolist())
        subs = sequences_at(times, 7_200.0, coords=coords)
        assert subs.t.tolist() == times
        first = np.diff(np.floor(np.array(times) / 7_200.0), prepend=-1) != 0
        assert subs.start.tolist() == np.flatnonzero(first).tolist()

    def test_user_change_starts_a_sequence(self):
        subs = sequences_at([0.0, 10.0, 20.0], 21_600.0, users=["a", "a", "b"])
        assert [(s.user_id, s.interval_index, len(s)) for s in subs] == [("a", 0, 2), ("b", 0, 1)]

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            interval_ids(np.array([0.0]), 0.0)

    @pytest.mark.parametrize("tau", [1e-305, 1e-300])
    def test_ids_past_int64_name_tau(self, tau):
        """1e-305 puts a day's time past the float range, 1e-300 gives an id
        about 1e304: both are a ConfigError naming tau, not an OverflowError or
        a 300-digit id."""
        with pytest.raises(ConfigError, match=f"^tau {tau} s "):
            interval_ids(np.array([0.0, 86_400.0]), tau)

    def test_ids_to_the_edge_of_int64(self):
        edge = 2.0 ** 63
        assert interval_ids(np.array([-edge + 1024, edge - 1024]), 1.0).tolist() == [
            -2**63 + 1024, 2**63 - 1024]
        with pytest.raises(ConfigError):
            interval_ids(np.array([-edge]), 1.0)


def sub_from_meters(coords, times):
    """Motion states of one sub-trajectory, from planar meters at the equator."""
    points = columns(times, coords)
    return motion_states(points.t, points.lon, points.lat, np.array([0])).tolist()


def turn_of_path(lonlats):
    """The turn class of a three-point sub-trajectory's last point."""
    lon, lat = np.array(lonlats, dtype=np.float64).T
    return int(motion_states(np.array([0.0, 10.0, 20.0]), lon, lat, np.array([0]))[2]) % 3


# Planar meters: small integers give exact right angles and reversals.
METERS = st.one_of(st.integers(-30, 30).map(float), st.floats(-1e4, 1e4, allow_subnormal=False))
# Degrees in steps of 1/64, so that shifted paths keep their exact shape.
STEPS = st.integers(-1280, 1280).map(lambda k: k / 64)
STRIDES = st.integers(1, 1280).map(lambda k: k / 64)


@st.composite
def reversals(draw):
    """Three (lon, lat) points whose last segment runs exactly against the
    one before: back to the first point, or back along a line of one
    latitude or longitude."""
    if draw(st.booleans()):
        p, q = draw(st.lists(st.tuples(STEPS, STEPS), min_size=2, max_size=2, unique=True))
        return [p, q, p]
    u, c, out, back = draw(st.tuples(STEPS, STEPS, STRIDES, STRIDES))
    line = [(u, c), (u + out, c), (u + out - back, c)]
    return line if draw(st.booleans()) else [(y, x) for x, y in line]


class TestMotionStates:
    def test_collinear_constant_speed(self):
        assert sub_from_meters([(0, 0), (10, 0), (20, 0)], [0, 10, 20]) == [0, 0, 0]

    def test_left_turn_constant_speed(self):
        """A 90-degree left turn; heading oracle: atan2 delta = +pi/2 > 15 deg."""
        assert sub_from_meters([(0, 0), (10, 0), (10, 10)], [0, 10, 20])[2] == 1

    def test_right_turn_constant_speed(self):
        assert sub_from_meters([(0, 0), (10, 0), (10, -10)], [0, 10, 20])[2] == 2

    def test_acceleration_straight(self):
        """Second segment twice as fast: ratio 2 > 1 + 0.1."""
        assert sub_from_meters([(0, 0), (10, 0), (30, 0)], [0, 10, 20])[2] == 3

    def test_deceleration_straight(self):
        assert sub_from_meters([(0, 0), (20, 0), (25, 0)], [0, 10, 20])[2] == 6

    def test_zero_duration_segment_counts_as_constant_speed(self):
        assert sub_from_meters([(0, 0), (10, 0), (20, 0)], [0, 10, 10]) == [0, 0, 0]

    def test_length_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            coords = rng.uniform(0, 100, size=(m, 2))
            times = np.sort(rng.uniform(0, 1000, size=m))
            states = sub_from_meters([tuple(c) for c in coords], times)
            assert len(states) == m
            assert all(0 <= s < 9 for s in states)

    def test_each_sub_trajectory_starts_afresh(self):
        """One call over many sub-trajectories gives each its per-object
        states: the first two points of each are 0 and each uses its own
        mid-latitude."""
        rng = np.random.default_rng(12)
        lengths = rng.integers(1, 7, size=100)
        starts = np.cumsum(lengths) - lengths
        n = int(lengths.sum())
        t = np.sort(rng.uniform(0, 1000, size=n))
        lon = rng.uniform(-0.01, 0.01, size=n)
        lat = np.repeat(rng.uniform(-70, 70, size=100), lengths) + rng.uniform(-0.01, 0.01, size=n)
        states = motion_states(t, lon, lat, starts).tolist()
        for a, m in zip(starts.tolist(), lengths.tolist()):
            sub = oracles.SubTrajectory("u", 0, tuple(
                oracles.SpatioTemporalPoint(t[i], lon[i], lat[i]) for i in range(a, a + m)))
            assert states[a:a + m] == oracles.encode_motion_states(sub)
        assert {s for s in states} - {0}

    @settings(max_examples=500, deadline=None)
    @given(coords=st.lists(st.tuples(METERS, METERS), min_size=3, max_size=3))
    @example(coords=[(0.0, 0.0), (10.0, 0.0), (0.0, 0.0)])
    @example(coords=[(0.0, 0.0), (10.0, 0.0), (20.0, 5.0)])  # 26.6 degrees left
    @example(coords=[(0.0, 0.0), (10.0, 0.0), (20.0, -2.0)])  # 11.3 degrees right
    @example(coords=[(0.0, 0.0), (1e-200, 0.0), (1e-200, -1e-200)])  # a tiny right angle
    def test_turns_match_heading_changes(self, coords):
        """The sign tests give the class of the heading change by math.atan2
        wherever that change lies more than 1e-9 rad from +-15 degrees and
        from +-pi, however short the segments."""
        points = columns([0.0, 10.0, 20.0], coords)
        sub = oracles.SubTrajectory("u", 0, tuple(map(
            oracles.SpatioTemporalPoint, points.t, points.lon, points.lat)))
        a, b, _, _, _, _ = oracles.segment_pair(sub, 2, oracles.planar_xy(sub.points))
        change = abs(oracles.heading_change(a, b))
        assume(abs(change - math.radians(15)) > 1e-9 and math.pi - change > 1e-9)
        got = motion_states(points.t, points.lon, points.lat, np.array([0])).tolist()
        assert got[2] % 3 == oracles.encode_motion_states(sub)[2] % 3

    @pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
    def test_short_segments_keep_their_turn(self, scale):
        """(0, 0) -> (s, 0) -> (s, -s) m is a right turn at constant speed,
        state 2, even where the unscaled cross and dot products underflow."""
        points = columns([0.0, 10.0, 20.0], [(0.0, 0.0), (scale, 0.0), (scale, -scale)])
        assert motion_states(points.t, points.lon, points.lat, np.array([0]))[2] == 2

    @settings(max_examples=200, deadline=None)
    @given(path=reversals(), shift=st.tuples(STEPS, STEPS))
    def test_exact_reversal_is_a_left_turn(self, path, shift):
        """Whatever its direction: mirrored in either axis and shifted."""
        for sx, sy in itertools.product((1, -1), repeat=2):
            for dx, dy in ((0.0, 0.0), shift):
                assert turn_of_path([(sx * (x + dx), sy * (y + dy)) for x, y in path]) == 1

    @pytest.mark.parametrize("sx, sy", itertools.product((1, -1), repeat=2))
    @pytest.mark.parametrize("dlat, dlon", [(0.0, 0.0), (30.0, -100.0), (45.5, -20.25)])
    def test_u_turn_through_preprocess(self, tmp_path, sx, sy, dlat, dlon):
        """The U-turn a,1,-90.0,180 / a,1,0.0,0.0 / a,0,0.0,0.0, mirrored and
        shifted: a left turn after a zero-duration segment, state 1."""
        rows = [(1, -90.0, 180.0), (1, 0.0, 0.0), (0, 0.0, 0.0)]
        path = tmp_path / "d.csv"
        path.write_text("".join(f"a,{t},{sy * (lat + dlat)!r},{sx * (lon + dlon)!r}\n"
                                for t, lat, lon in rows))
        points, _ = parse_dataset(path)
        seqs = build_grid_sequences(points, build_grid_map(points.lon, points.lat, 40.0), 21_600.0)
        assert seqs.state.tolist() == [0, 0, 1]

    def test_turn_tan_is_tan_15_degrees_correctly_rounded(self):
        with mpmath.workdps(50):
            exact = mpmath.tan(mpmath.pi / 12)
            assert TURN_TAN == float(exact)
            assert abs(mpmath.mpf(TURN_TAN) - exact) < mpmath.mpf(math.ulp(TURN_TAN)) / 2


class TestTimeWindows:
    def _windows(self, seconds, window_len=7200.0):
        return time_windows(np.array(seconds, dtype=np.float64), window_len).tolist()

    def test_two_hour_windows(self):
        assert self._windows([30 * 60, 3 * 3600 + 10 * 60]) == [0, 1]

    def test_last_second_of_day_is_last_window(self):
        assert self._windows([86_399.0]) == [11]

    def test_time_of_day_wraps(self):
        assert self._windows([86_400.0 + 30 * 60]) == [0]

    def test_instant_before_midnight_is_last_window(self):
        """-1e-13 % 86400 rounds to 86400.0, one window past the vocabulary."""
        assert -1e-13 % 86_400 == 86_400.0
        assert self._windows([-1e-13, -7.2e-12, -0.0]) == [11, 11, 0]
        assert self._windows([-1e-13], 86_400.0) == [0]

    def test_non_divisor_window_rejected(self):
        with pytest.raises(ConfigError):
            self._windows([0.0], 7000.0)


class TestChronologicalSplit:
    def _subs(self, user, n):
        return [GridSequence(user, j, [j * 100.0], [0], [0]) for j in range(n)]

    def test_ten_items(self):
        assert split_sizes(10) == (6, 2, 2)

    def test_five_items(self):
        assert split_sizes(5) == (3, 1, 1)

    def test_single_item_goes_to_train_only(self):
        split = chronological_split(columns_from_records(self._subs("a", 1)).user)
        assert split.named(["a:0"]) == {"train": ["a:0"], "validation": [], "test": []}
        assert all(part.dtype == np.int64 for part in (split.train, split.validation, split.test))

    def test_rounding_rule_sizes_one_to_twenty(self):
        """The stated rule: train = max(1, floor(0.6 n)), remainder split
        evenly with the odd item to test; n >= 2 keeps a test item."""
        for n in range(1, 21):
            n_train, n_val, n_test = split_sizes(n)
            assert n_train == max(1, math.floor(0.6 * n))
            assert n_train + n_val + n_test == n
            assert n_test - n_val in (0, 1)
            if n >= 2:
                assert n_test >= 1

    def test_partition_and_chronology(self):
        rng = np.random.default_rng(5)
        subs = []
        for u in range(4):
            subs.extend(self._subs(f"user{u}", int(rng.integers(1, 15))))
        columns = columns_from_records(subs)
        split = chronological_split(columns.user).named(columns.traj_ids)
        all_ids = {s.traj_id for s in subs}
        parts = [set(split["train"]), set(split["validation"]), set(split["test"])]
        assert parts[0] | parts[1] | parts[2] == all_ids
        assert sum(len(p) for p in parts) == len(all_ids)
        by_id = {s.traj_id: s for s in subs}
        for user in {s.user_id for s in subs}:
            tr = [by_id[t].t[0] for t in split["train"] if by_id[t].user_id == user]
            va = [by_id[t].t[0] for t in split["validation"] if by_id[t].user_id == user]
            te = [by_id[t].t[0] for t in split["test"] if by_id[t].user_id == user]
            if va:
                assert max(tr) < min(va)
            if te and va:
                assert max(va) < min(te)
            elif te:
                assert max(tr) < min(te)


class TestParseDataset:
    def test_header_detected_and_points_sorted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "user_id,timestamp,lat,lon\n"
            "alice,200,10.0,20.0\n"
            "bob,50,11.0,21.0\n"
            "alice,100,10.1,20.1\n"
        )
        points, report = parse_dataset(f)
        assert points.roster == ["alice", "bob"]
        assert points.user.tolist() == [0, 0, 1]
        assert points.t.tolist() == [100.0, 200.0, 50.0]
        assert points.lat.tolist() == [10.1, 10.0, 11.0]
        assert points.lon.tolist() == [20.1, 20.0, 21.0]
        assert report.parsed == 3 and report.failed == 0

    def test_failure_threshold_aborts(self, tmp_path):
        f = tmp_path / "d.csv"
        lines = ["u,%d,0.0,0.0" % i for i in range(50)] + ["garbage"] * 10
        f.write_text("\n".join(lines))
        with pytest.raises(DataError, match="failed to parse"):
            parse_dataset(f)

    def test_some_failures_tolerated_and_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        lines = ["u,%d,0.0,0.0" % i for i in range(200)] + ["broken,line"]
        f.write_text("\n".join(lines))
        _, report = parse_dataset(f)
        assert report.failed == 1

    @pytest.mark.parametrize("line", ["v,nan,0.0,0.0", "v,inf,0.0,0.0", "v,1,nan,0.0",
                                      "v,1,90.5,0.0", "v,1,0.0,-180.5", "v,1,0.0,nan"])
    def test_out_of_range_point_is_a_failure(self, tmp_path, line):
        """Counted like an unparseable line; its user leaves the roster when it
        has no other point."""
        f = tmp_path / "d.csv"
        f.write_text("\n".join(["u,%d,0.0,0.0" % i for i in range(200)] + [line]))
        points, report = parse_dataset(f)
        assert (report.data_lines, report.parsed, report.failed) == (201, 200, 1)
        assert points.roster == ["u"] and len(points.t) == 200

    def test_equal_times_keep_file_order(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("u,5,0.0,3.0\nu,-0.0,0.0,2.0\nu,5,0.0,1.0\nu,0.0,0.0,0.0\n")
        points, _ = parse_dataset(f)
        assert points.lon.tolist() == [2.0, 0.0, 3.0, 1.0]
        assert repr(points.t.tolist()) == "[-0.0, 0.0, 5.0, 5.0]"

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(DataError):
            parse_dataset(f)

    def test_ids_apart_only_in_other_whitespace_are_other_users(self, tmp_path):
        """Only ASCII whitespace is trimmed from a field's ends: every other
        user01 line renamed user00 plus \\x1c, which ``str.strip`` would
        remove, is a fourth user and no line of user00's."""
        f = tmp_path / "d.csv"
        lines = synth.disjoint_regions(3, 6, seed=3).splitlines(keepends=True)
        renamed = [k for k, line in enumerate(lines) if line.startswith("user01,")][::2]
        for k in renamed:
            lines[k] = lines[k].replace("user01,", "user00\x1c,", 1)
        f.write_text("".join(lines), encoding="utf-8")
        points, report = parse_dataset(f)
        assert points.roster == ["user00", "user00\x1c", "user01", "user02"]
        assert np.bincount(points.user)[1] == len(renamed)
        assert (report.data_lines, report.failed) == (124, 0)
        trajectories, _ = oracles.parse_dataset_oracle(f)
        assert sorted({t.user_id for t in trajectories}) == points.roster


class TestArtifactRoundTrips:
    def test_grid_map(self, tmp_path):
        gm = square_box_map(123.0, 40.0)
        save_grid_map(gm, tmp_path / "gm.json")
        assert load_grid_map(tmp_path / "gm.json") == gm

    def test_sequences(self, tmp_path):
        gm = square_box_map(200.0, 40.0)
        points = columns([i * 600.0 for i in range(6)], [(10 * i, 5 * i) for i in range(6)])
        seqs = build_grid_sequences(points, gm, 1800.0)
        assert seqs.lengths.tolist() == [3, 3]
        save_sequences(seqs, tmp_path / "s.jsonl")
        assert list(load_sequences(tmp_path / "s.jsonl")) == list(seqs)

    def test_split(self, tmp_path):
        columns = columns_from_records(
            [GridSequence("u", j, [float(j)], [0], [0]) for j in range(7)])
        split = chronological_split(columns.user)
        save_split(split, columns.traj_ids, tmp_path / "split.json")
        assert load_split(tmp_path / "split.json") == split.named(columns.traj_ids)


# Text of CSV fields: numbers around the grid and time edges and signed
# zeros, then values that fail a line or an interval id; user ids with
# quotes, NULs, backslashes and non-ASCII characters (never a comma or a
# line break).
COORDINATES = st.one_of(st.floats(-0.01, 0.01).map(repr),
                        st.sampled_from(["0.0", "-0.0", "0", "1e-300", "180", "-90.0"]))
TIMESTAMPS = st.one_of(
    st.integers(-90_000, 200_000).map(str),
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(["-1e-13", "-7e-12", "0", "-0.0", "86399.99999999999", "5e-324"]))
BAD_FIELDS = st.sampled_from(["nan", "inf", "-inf", "180.5", "-90.5", "", "x", "1e300"])
CSV_USERS = st.one_of(
    st.sampled_from(["a", "b", ' q"', "u\x00", "u", "\\", "ünï", "日本", "\u2028", "", "u\tv"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\n\r,"), max_size=3))


@st.composite
def csv_texts(draw):
    """CSV text: drawn records, a few blank, malformed or out-of-range lines,
    an optional header, and optionally over 100 plain records of one user
    per failing line, so the failures can stay under the 1% limit."""
    users = st.sampled_from(draw(st.lists(CSV_USERS, min_size=1, max_size=3)))
    fields = [users, TIMESTAMPS, COORDINATES, COORDINATES]
    lines = draw(st.lists(st.tuples(*fields), min_size=1, max_size=20))
    odd = draw(st.lists(st.sampled_from(["", "   ", "garbage", "a,b", "u,1,2", "u,1,2,3,4",
                                         ",,,", "u, 5 ,0.001 , 0.002"]), max_size=2))
    for _ in range(draw(st.integers(0, 2))):  # one field made bad
        bad = list(draw(st.tuples(*fields)))
        bad[draw(st.integers(1, 3))] = draw(BAD_FIELDS)
        odd.append(",".join(bad))
    lines = draw(st.permutations([",".join(fields) for fields in lines] + odd))
    if draw(st.booleans()):
        lines.insert(0, "user_id,timestamp,lat,lon")
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.0, 1e-5, 3e-4]))
        lines += [f"u,{600 * k},{step * (k % 7)},{step * (k % 5)}"
                  for k in range(100 * len(odd) + 20)]
    return "\n".join(lines)


class TestColumnsMatchPointObjects:
    """parse_dataset, build_grid_map, build_grid_sequences and the time
    windows of the sequences' points against the path through one object
    per point and per sub-trajectory."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), cell=st.sampled_from([40.0, 0.37, 1e4, 1e-9]),
           tau=st.sampled_from([21_600.0, 3600.0, 1800.0, 7.5, 1e-300, 1e-305]),
           window=st.sampled_from([7200.0, 3600.0, 86_400.0, 0.5]))
    @example(text="u,-1e-13,0,0\nu,5,0,0", cell=40.0, tau=21_600.0, window=7200.0)
    @example(text="u,-0.0,-0.0,0.0\nu,0.0,0.0,-0.0", cell=40.0, tau=3600.0, window=7200.0)
    @example(text="u\x00,1,0,0\nu,2,0,0", cell=40.0, tau=3600.0, window=7200.0)
    @example(text="a,0,0.0,0.0078125\na,1,0.0,0.0\na,5e-324,0.0,0.0", cell=40.0,
             tau=21_600.0, window=7200.0)  # a speed past the float range
    @example(text="a,0,0,0\na,7200,0.001,0\nb,100,0,0.001\nb,9000,0,0", cell=40.0,
             tau=3600.0, window=7200.0)  # single-point sequences
    @example(text="u,0,0,0\nu,60,0.0001,0\nu,120,0.0002,0.0001\nu,4000,0,0\nu,9000,0,0",
             cell=40.0, tau=3600.0, window=7200.0)  # one user
    @example(text="a,4611686018427387904,0,0\na,4611686018427388928,0.0001,0\n"
                  "b,-4611686018427387904,0,0.0001", cell=40.0, tau=1.0,
             window=7200.0)  # interval ids near 2**62
    @example(text="a,0,0,0\na,1,0.01,0.01", cell=5e-7, tau=3600.0,
             window=7200.0)  # grid ids near 2**62
    @example(text='q"\\,0,0,0\nu\x00,5,0,0.001\n"",7,0.001,0\nu,9,0,0', cell=40.0,
             tau=3600.0, window=7200.0)  # users with quotes and NULs
    @example(text="a,1,-90.0,180\na,1,0.0,0.0\na,0,0.0,0.0", cell=40.0, tau=21_600.0,
             window=7200.0)  # an exact U-turn
    @example(text="a,0,0.0,2.225073858507e-311\na,1,0.0,0.0\na,1,0.0,0.0\na,0,0.0,0.0\n"
                  "a,0,0.0,-1.0316220728335502e-205", cell=40.0, tau=21_600.0,
             window=7200.0)  # segment products that underflow unless scaled
    def test_same_records_as_the_point_objects(self, text, cell, tau, window, tmp_path_factory):
        """Preprocess through the columns and through the point objects, then
        every later sequence step through the columns and through the
        records."""
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8")
        try:
            report, roster, gm, subs, expected = oracles.preprocess_oracle(path, cell, tau)
        except (DataError, ConfigError) as exc:
            with pytest.raises(type(exc)) as raised:
                points, _ = parse_dataset(path)
                build_grid_sequences(points, build_grid_map(points.lon, points.lat, cell), tau)
            assert str(raised.value) == str(exc)
            return
        points, got_report = parse_dataset(path)
        assert got_report == report and points.roster == roster
        got_gm = build_grid_map(points.lon, points.lat, cell)
        assert repr(got_gm) == repr(gm)  # signed zeros included
        sequences = build_grid_sequences(points, got_gm, tau)
        assert time_windows(sequences.t, window).tolist() == [
            w for sub in subs for w in oracles.encode_time_windows(sub, window)]
        got = list(sequences)
        assert len(got) == len(expected)
        for g, e, sub in zip(got, expected, subs):
            # Turn classes come from correctly rounded products, so they are
            # the scalar sign tests' exactly. numpy's hypot may differ from
            # math's in the last bit, which can flip a speed class only at a
            # threshold.
            signs = oracles.encode_motion_states(sub, oracles.sign_turn)
            assert [s % 3 for s in g.state] == [s % 3 for s in signs]
            flips = [i for i, (a, b) in enumerate(zip(g.state, signs)) if a != b]
            assert all(oracles.motion_margin(sub, i) < 1e-12 for i in flips), flips
            e.state = g.state
        assert repr(got) == repr(expected)
        self._later_steps_match(sequences, expected, gm.n_grids, tmp_path_factory.mktemp("seq"))

    @staticmethod
    def _later_steps_match(sequences, records, n_grids, tmp):
        save_sequences(sequences, tmp / "s.jsonl")
        sequences = load_sequences(tmp / "s.jsonl")
        assert list(sequences) == records
        split = chronological_split(sequences.user)
        assert split.named(sequences.traj_ids) == oracles.chronological_split_oracle(records)
        if n_grids > 10_000:  # the oracles hold arrays of n_grids entries
            return
        local = build_local_graph(sequences, n_grids)
        incidence = build_grid_incidence(sequences)
        assert_same(local.cells, np.unique(np.concatenate([s.grid for s in records])))
        assert_same(oracles.bounding_box_adjacency(local),
                    oracles.build_local_graph_oracle(records, n_grids))
        assert_same(incidence, oracles.build_grid_incidence_oracle(records))
        global_g = build_global_graph(incidence, sequences.traj_ids, sequences.roster,
                                      split.train, sequences.user[split.train])
        labels = {records[i].traj_id: records[i].user_id for i in split.train}
        adj, features = oracles.global_graph_oracle(
            incidence, [s.traj_id for s in records], sorted({s.user_id for s in records}), labels)
        assert_same(global_g.adjacency, adj)
        assert_same(global_g.features, features)
        got = build_model_inputs(sequences, local, global_g)
        expected = oracles.model_inputs_oracle(records, local, global_g)
        for f in dataclasses.fields(got):
            assert_same(getattr(got, f.name), getattr(expected, f.name))


def assert_same(a, b):
    """Equal values of the same type: sparse matrices entry for entry, arrays
    with their dtype."""
    assert type(a) is type(b)
    if sp.issparse(a):
        assert a.shape == b.shape and a.dtype == b.dtype and (a != b).nnz == 0
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


USERS = st.one_of(st.text(max_size=5), st.sampled_from(
    ['"', "\\", 'a", "b', "x\\", "ünï", "日本", "\u2028", "\x00\x1f", "], [", "u:1"]))
TIMES = st.one_of(
    st.floats(-1e17, 1e17, allow_nan=False),
    st.floats(1e-7, 1e17).flatmap(lambda t: st.sampled_from([t, -t])),
    st.sampled_from([1e-7, -1e-7, 1e17, -1e17, 0.0, -0.0, 5e-324, 0.1]))
IDS = st.one_of(st.integers(0, 9), st.integers(2**62 - 2, 2**62 + 2))


@st.composite
def grid_sequences(draw, min_points=1):
    n = draw(st.integers(min_points, 4))
    lists = [draw(st.lists(values, min_size=n, max_size=n))
             for values in (TIMES, IDS, IDS)]
    return GridSequence(draw(USERS), draw(st.integers(-2**40, 2**40)), *lists)


def record_key(s):
    return s.user_id, s.interval_index


def _no_sequences(header, records):
    """Points, but no sequence and no user."""
    header["roster"] = []
    records[:3] = (r[:0] for r in records[:3])


class TestSequencesFormat:
    """save_sequences and load_sequences: a checked file of the columns'
    records, and every refusal of the reader."""

    @settings(max_examples=200, deadline=None)
    @given(seqs=st.lists(grid_sequences(), max_size=5, unique_by=record_key).map(
        lambda seqs: sorted(seqs, key=record_key)))
    @example(seqs=[])
    def test_round_trip(self, seqs, tmp_path_factory):
        path = tmp_path_factory.mktemp("seq") / "s.jsonl"
        save_sequences(columns_from_records(seqs), path)
        assert list(load_sequences(path)) == seqs

    def _file(self, tmp_path):
        seqs = [GridSequence(u, i, [1.5 * i, 2.0], [i, 3], [0, 8])
                for u in ("a", "b") for i in range(3)]
        path = tmp_path / "s.jsonl"
        save_sequences(columns_from_records(seqs), path)
        return path

    def test_body_is_a_json_header_and_records(self, tmp_path):
        """The format line, the sha256 of the rest, the roster as a
        sorted-key JSON header line, then each column as a one-dimensional
        record of its type, in the order of SequenceColumns."""
        path = self._file(tmp_path)
        data = path.read_bytes()
        first, checksum, body = data.split(b"\n", 2)
        assert first == b"tulink-sequences 1"
        assert checksum == b"sha256 " + hashlib.sha256(body).hexdigest().encode()
        assert body.startswith(b'{"roster": ["a", "b"]}\n')
        columns = sequence_parts(data)
        assert SEQUENCE_RECORDS == ["user", "interval", "start", "t", "grid", "state"]
        assert [getattr(columns, name).dtype for name in SEQUENCE_RECORDS] == \
            [np.int64] * 3 + [np.float64] + [np.int64] * 2
        assert columns.start.tolist() == [0, 2, 4, 6, 8, 10]
        assert columns.user.tolist() == [0, 0, 0, 1, 1, 1]

    def test_every_flip_and_every_cut_is_refused(self, tmp_path):
        path = self._file(tmp_path)
        data = path.read_bytes()
        for at in range(len(data)):
            for mask in (0x01, 0x80):
                flipped = bytearray(data)
                flipped[at] ^= mask
                path.write_bytes(flipped)
                with pytest.raises(DataError, match=r"s\.jsonl.*'preprocess'"):
                    load_sequences(path)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(DataError, match=r"s\.jsonl.*'preprocess'"):
                load_sequences(path)

    def test_another_version_is_named_as_such(self, tmp_path):
        path = self._file(tmp_path)
        path.write_bytes(b"tulink-sequences 2\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(DataError, match="is a tulink sequence file of another version"):
            load_sequences(path)

    def test_json_lines_of_earlier_versions_are_refused(self, tmp_path):
        """A file of one JSON record per line, as earlier versions wrote."""
        path = tmp_path / "s.jsonl"
        path.write_text('{"grid": [3], "interval": 0, "state": [0], "t": [1.5], "user": "a"}\n')
        with pytest.raises(DataError, match=r"s\.jsonl .*is not a tulink sequence file"):
            load_sequences(path)

    @pytest.mark.parametrize("edit, words", [
        (lambda h, r: h.update(roster=["b", "a"]), "roster is not a list"),
        (lambda h, r: h.update(roster=["a", "a"]), "roster is not a list"),
        (lambda h, r: h.update(roster=["a", 5]), "roster is not a list"),
        (lambda h, r: h.update(roster="ab"), "roster is not a list"),
        (lambda h, r: h.pop("roster"), "KeyError"),
        (lambda h, r: h.update(roster=["a", "b", "c"]), "a user with no sequence"),
        (lambda h, r: r[0].__setitem__(-1, 2), "outside the roster"),
        (lambda h, r: r[0].__setitem__(0, -1), "outside the roster"),
        (lambda h, r: r.__setitem__(0, r[0][:-1]), "'user': 5, 'interval': 6, 'start': 6"),
        (lambda h, r: r.__setitem__(1, r[1][1:]), "'user': 6, 'interval': 5, 'start': 6"),
        (lambda h, r: r.__setitem__(4, r[4][:-1]), "'t': 12, 'grid': 11, 'state': 12"),
        (lambda h, r: r.__setitem__(5, r[5][:-1]), "'t': 12, 'grid': 12, 'state': 11"),
        (lambda h, r: r.__setitem__(3, r[3][:-1]), "'t': 11, 'grid': 12, 'state': 12"),
        (lambda h, r: r[2].__setitem__(1, 0), "a sequence holds no point"),
        (lambda h, r: r[2].__setitem__(0, 1), "a sequence holds no point"),
        (lambda h, r: r[2].__setitem__(-1, 12), "a sequence holds no point"),
        (lambda h, r: r[2].__setitem__(slice(2, 4), [4, 2]), "a sequence holds no point"),
        (_no_sequences, "a sequence holds no point"),
        (lambda h, r: r[1].__setitem__(1, 0), "trajectory 'a:0' is not after 'a:0'"),
        (lambda h, r: r[1].__setitem__(4, -1), "trajectory 'b:-1' is not after 'b:0'"),
        (lambda h, r: r[0].__setitem__(2, 1), "trajectory 'b:0' is not after 'b:2'"),
        (lambda h, r: r.append(np.zeros(12, dtype=np.int64)), "bytes after its last record"),
        (lambda h, r: r.pop(), "EOF"),
    ], ids=["roster-unsorted", "roster-repeated", "roster-not-str", "roster-not-a-list",
            "no-roster", "user-without-sequence", "user-past-the-roster", "negative-user",
            "a-user-short", "an-interval-short", "a-grid-short", "a-state-short", "a-time-short",
            "empty-sequence", "start-past-0", "start-at-the-end", "start-descending",
            "points-of-no-sequence", "repeated-trajectory", "interval-out-of-order",
            "user-out-of-order", "extra-record", "a-record-short"])
    def test_record_edit_is_refused(self, tmp_path, edit, words):
        """Under a renewed checksum: the reader's own checks, naming the file
        and the stage that writes it."""
        path = self._file(tmp_path)
        rewrite_sequences(path, edit)
        with pytest.raises(DataError) as raised:
            load_sequences(path)
        message = str(raised.value)
        assert str(path) in message and "'preprocess'" in message and words in message

    @pytest.mark.parametrize("retype", ["float64", "int32", "uint64", "two-dimensional",
                                        "big-endian", "object"])
    @pytest.mark.parametrize("record", SEQUENCE_RECORDS)
    def test_record_of_another_type_is_refused(self, tmp_path, record, retype):
        """Each record is one-dimensional and of its column's type, even
        where its values would fit another."""
        path = self._file(tmp_path)
        k = SEQUENCE_RECORDS.index(record)
        if retype == "float64" and record == "t":
            retype = "float32"

        def edit(header, records):
            r = records[k]
            records[k] = (r.reshape(1, -1) if retype == "two-dimensional"
                          else npy_record(r.astype(object), r.shape) if retype == "object"
                          else r.astype(r.dtype.newbyteorder(">")) if retype == "big-endian"
                          else r.astype(retype))
        rewrite_sequences(path, edit)
        with pytest.raises(DataError, match=rf"s\.jsonl .*(where \w+ entries belong|object).*"
                                            r"'preprocess'"):
            load_sequences(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 11])
    def test_time_that_is_not_finite_is_refused(self, tmp_path, value, at):
        path = self._file(tmp_path)
        rewrite_sequences(path, lambda header, records: records[3].__setitem__(at, value))
        with pytest.raises(DataError, match=rf"s\.jsonl .*t {value!r} is not a finite time.*"
                                            r"'preprocess'"):
            load_sequences(path)

    @pytest.mark.parametrize("where", [1, 6])
    def test_repeated_trajectory_is_rejected(self, tmp_path, where):
        path = self._file(tmp_path)
        edit_trajectories(path, lambda seqs: seqs.insert(where, seqs[0]))
        assert len(sequence_parts(path.read_bytes())) == 7
        with pytest.raises(DataError) as raised:
            load_sequences(path)
        message = str(raised.value)
        assert str(path) in message and "'a:0'" in message and "'preprocess'" in message

    def test_swapped_trajectories_are_rejected(self, tmp_path):
        """The file lists the trajectories in (user, interval) order, and the
        first one out of it is named."""
        path = self._file(tmp_path)
        edit_trajectories(path, lambda seqs: seqs.insert(1, seqs.pop(2)))
        with pytest.raises(DataError) as raised:
            load_sequences(path)
        message = str(raised.value)
        assert str(path) in message and "'preprocess'" in message
        assert "trajectory 'a:1' is not after 'a:2'" in message
