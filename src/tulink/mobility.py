"""Raw mobility records: parsing, gridding, motion/time annotation, splits.

The input format is one record per line, comma-separated:

    user_id,timestamp_unix_seconds,latitude,longitude

An optional header line is detected by a non-numeric second field. Records
are grouped per user, ordered by time, cut into sub-trajectories of a fixed
time interval, and mapped onto a uniform metric grid. Each grid-sequence
entry also carries its time and a motion state (speed change x turn
direction, nine classes); its time-of-day window is the model's to derive
(``time_windows``), since the number of windows is a model setting. Past
the CSV line loop, every step works on columns: one array per field over
all points or all sequences.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError, cannot_read, reading

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0
SECONDS_PER_DAY = 86_400

# The motion-state vocabulary (3 speed x 3 turn classes) and its thresholds.
MOTION_STATES = 9
SPEED_RATIO_EPS = 0.1
TURN_TAN = 0.2679491924311227  # tan 15 degrees, correctly rounded
# Share of unparseable data lines above which parse_dataset aborts.
MAX_FAILURE_RATE = 0.01
_SEQUENCE_KEYS = frozenset(("user", "interval", "t", "grid", "state"))


@dataclass(frozen=True, eq=False)
class PointColumns:
    """Every parsed point, one float64 array per field, in (user, time) order;
    points of one user at one time keep their file order. ``user`` holds each
    point's index into ``roster``, the sorted user ids."""

    roster: list[str]
    user: np.ndarray
    t: np.ndarray
    lon: np.ndarray
    lat: np.ndarray


@dataclass(frozen=True)
class GridMap:
    """Uniform metric grid over the bounding box of the training area.

    Cell geometry uses the equirectangular approximation at the box's
    mid-latitude, so cells are approximately ``cell_size`` meters square.
    Cell index = row * cols + col. A coordinate exactly on an interior cell
    edge belongs to the higher-index cell; the box maximum belongs to the
    last cell. Points within one cell of slack outside the box clamp to the
    border cells; anything farther out is rejected.
    """

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float
    cell_size: float
    cols: int
    rows: int

    @property
    def n_grids(self) -> int:
        return self.cols * self.rows

    @property
    def mid_lat(self) -> float:
        return 0.5 * (self.min_lat + self.max_lat)

    @property
    def meters_per_deg_lat(self) -> float:
        return METERS_PER_DEGREE

    @property
    def meters_per_deg_lon(self) -> float:
        return METERS_PER_DEGREE * math.cos(math.radians(self.mid_lat))

    @classmethod
    def from_json(cls, d: dict) -> "GridMap":
        """The map ``save_grid_map`` wrote, or a ValueError naming the first field
        of the wrong type or range: ``cols`` and ``rows`` are ints of at
        least 1 with int64 cell ids, the rest finite numbers and
        ``cell_size`` positive."""
        gm = cls(**d)
        for name in ("cols", "rows"):
            value = getattr(gm, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if gm.n_grids > 2 ** 63:
            raise ValueError(f"cols {gm.cols} x rows {gm.rows} are too many cells for int64 "
                             "grid ids")
        for name in ("min_lon", "min_lat", "max_lon", "max_lat", "cell_size"):
            value = getattr(gm, name)
            # abs(value) < inf compares without converting, so a long int cannot overflow
            if type(value) not in (int, float) or not abs(value) < math.inf:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if gm.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {gm.cell_size!r}")
        return gm


@dataclass
class GridSequence:
    """One sub-trajectory in grid-index form, with per-point annotations."""

    user_id: str
    interval_index: int
    t: list[float]
    grid: list[int]
    state: list[int]

    @property
    def traj_id(self) -> str:
        return f"{self.user_id}:{self.interval_index}"

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True, eq=False)
class SequenceColumns:
    """Every sub-trajectory in strictly increasing (user, interval) order:
    sequence k has user ``roster[user[k]]`` (the roster is sorted), interval
    ``interval[k]`` and the points from ``start[k]`` to the next start of the
    flat per-point columns. ``t`` is float64, every other array int64."""

    roster: list[str]
    user: np.ndarray
    interval: np.ndarray
    start: np.ndarray
    t: np.ndarray
    grid: np.ndarray
    state: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.start, append=len(self.t))

    def point_rows(self) -> np.ndarray:  # each point's sequence index
        return np.repeat(np.arange(len(self.start)), self.lengths)

    def users(self) -> np.ndarray:  # each sequence's user id, in an object array
        return np.array(self.roster, dtype=object)[self.user]

    def cut(self, values: list) -> Iterator[list]:  # each sequence's part of a per-point list
        bounds = [*self.start.tolist(), len(self.t)]
        return map(values.__getitem__, map(slice, bounds[:-1], bounds[1:]))

    @cached_property
    def traj_ids(self) -> list[str]:
        return list(map("{}:{}".format, self.users(), self.interval.tolist()))

    def __iter__(self) -> Iterator[GridSequence]:
        """One GridSequence per sequence, for readers outside the pipeline."""
        return map(GridSequence, self.users(), self.interval.tolist(),
                   *(self.cut(a.tolist()) for a in (self.t, self.grid, self.state)))


@dataclass(eq=False)
class DatasetSplit:
    """Chronological per-user 60/20/20 partition of the sequences, each part
    an ascending int64 array of sequence indices."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def named(self, traj_ids: list[str]) -> dict[str, list[str]]:
        """Each part as the list of its trajectory ids, keyed by field name."""
        ids = np.array(traj_ids, dtype=object)
        return {f.name: ids[getattr(self, f.name)].tolist() for f in dataclasses.fields(self)}


def build_grid_map(lons, lats, cell_size: float) -> GridMap:
    """Fit a grid of ``cell_size``-meter cells over the points' bounding box.

    The bounds are the first extreme coordinates in point order, so a box
    edge at zero keeps the sign of the first zero met there."""
    if cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    if not lons.size:
        raise DataError("cannot build a grid map from zero points")
    min_lon, max_lon = float(lons[lons.argmin()]), float(lons[lons.argmax()])
    min_lat, max_lat = float(lats[lats.argmin()]), float(lats[lats.argmax()])
    mid_lat = 0.5 * (min_lat + max_lat)
    width_m = (max_lon - min_lon) * METERS_PER_DEGREE * math.cos(math.radians(mid_lat))
    height_m = (max_lat - min_lat) * METERS_PER_DEGREE
    # One-micrometer slack absorbs roundoff from the degree<->meter conversion
    # so an exact multiple of cell_size does not spill into an extra column.
    spans = [max(1.0, (extent - 1e-6) / cell_size) for extent in (width_m, height_m)]
    cols, rows = (math.ceil(s) if s < 2.0 ** 63 else 2 ** 63 for s in spans)
    if cols * rows > 2 ** 63:  # ids run to cols * rows - 1 and are int64
        raise ConfigError(f"cell_size {cell_size} m gives a grid of {spans[0]:.3g} x "
                          f"{spans[1]:.3g} cells, too many for int64 grid ids")
    return GridMap(min_lon, min_lat, max_lon, max_lat, cell_size, cols, rows)


def _clamped_cells(offset_m: np.ndarray, cell_size: float, n: int) -> np.ndarray:
    """min(max(floor(offset_m / cell_size), 0), n - 1) per entry, as uint64.

    Exact for every n up to 2**63: the floors are clipped in floats to the
    smallest float at or above n - 1, which fits uint64, and then to n - 1
    in integers.
    """
    top = float(n - 1)
    if top < n - 1:
        top = math.nextafter(top, math.inf)
    cells = np.clip(np.floor(offset_m / cell_size), 0.0, top).astype(np.uint64)
    return np.minimum(cells, np.uint64(n - 1))


def map_points_to_grids(lons, lats, gm: GridMap) -> np.ndarray:
    """Cell index per point, as int64, for points inside the (one-cell-expanded)
    bounding box; the first point outside it raises a DataError naming its
    longitude, or its latitude when the longitude is inside."""
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    x_m = (lons - gm.min_lon) * gm.meters_per_deg_lon
    y_m = (lats - gm.min_lat) * gm.meters_per_deg_lat
    outside_x = ~((-gm.cell_size <= x_m) & (x_m <= gm.cols * gm.cell_size + gm.cell_size))
    outside_y = ~((-gm.cell_size <= y_m) & (y_m <= gm.rows * gm.cell_size + gm.cell_size))
    outside = outside_x | outside_y
    if outside.any():
        i = int(outside.argmax())
        if outside_x[i]:
            raise DataError(f"longitude {float(lons[i])} outside the expanded grid bounding box")
        raise DataError(f"latitude {float(lats[i])} outside the expanded grid bounding box")
    col = _clamped_cells(x_m, gm.cell_size, gm.cols)
    row = _clamped_cells(y_m, gm.cell_size, gm.rows)
    return (row * np.uint64(gm.cols) + col).astype(np.int64)


def time_window_vocab(window_len: float) -> int:
    if window_len <= 0 or SECONDS_PER_DAY % window_len != 0:
        raise ConfigError(
            f"time_window {window_len} must divide {SECONDS_PER_DAY} seconds"
        )
    return int(SECONDS_PER_DAY // window_len)


def interval_ids(t: np.ndarray, tau: float) -> np.ndarray:
    """floor(t / tau) per point as int64, or a ConfigError naming ``tau``
    when an id would leave the int64 range."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    with np.errstate(over="ignore"):
        ids = np.floor(np.asarray(t, dtype=np.float64) / tau)
    if np.any(np.abs(ids) >= 2.0 ** 63):
        raise ConfigError(f"tau {tau} s gives interval ids beyond the int64 range")
    return ids.astype(np.int64)


def time_windows(t: np.ndarray, window_len: float) -> np.ndarray:
    """Time-of-day window per point as int64; vocabulary = 86400 / window_len.

    A time just below a multiple of a day can round to a whole day, as
    Python's ``-1e-13 % 86400`` does; it is in the last window."""
    vocab = time_window_vocab(window_len)
    windows = (np.asarray(t, dtype=np.float64) % SECONDS_PER_DAY) // window_len
    return np.minimum(windows, vocab - 1).astype(np.int64)


def motion_states(t: np.ndarray, lon: np.ndarray, lat: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Nine-state motion codes (speed change x turn direction) per point, as
    int64, for sub-trajectories that begin at the indices ``starts``.

    From the third point of a sub-trajectory on, the two most recent
    segments are compared: speed class is accelerating / decelerating /
    constant by the ratio of segment speeds against ``1 +- SPEED_RATIO_EPS``,
    turn class is left / right / straight by the signs of the segments'
    cross and dot products, with no rounding that depends on the CPU: a
    turn (of over 15 degrees) when dot <= 0 or |cross| > ``TURN_TAN`` * dot,
    left when cross > 0 and also for an exact reversal (cross 0, dot < 0).
    Positions are planar meters at each sub-trajectory's own mid-latitude.
    State = 3 * speed_class + turn_class with constant=0/accel=1/decel=2 and
    straight=0/left=1/right=2. The first two points default to state 0, as
    do zero-duration and zero-length segments.
    """
    n = len(t)
    states = np.zeros(n, dtype=np.int64)
    if n < 3:
        return states
    lengths = np.diff(starts, append=n)
    mid_lat = 0.5 * (np.minimum.reduceat(lat, starts) + np.maximum.reduceat(lat, starts))
    x = lon * np.repeat(METERS_PER_DEGREE * np.cos(np.radians(mid_lat)), lengths)
    y = lat * METERS_PER_DEGREE
    dx, dy, dt = np.diff(x), np.diff(y), np.diff(t)
    # Point i compares segment a = (i-2, i-1) with segment b = (i-1, i).
    d = np.hypot(dx, dy)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = d / dt  # unused where dt is 0; inf where dt is tiny, as in Python
    va, vb = v[:-1], v[1:]
    timed = (dt[:-1] > 0) & (dt[1:] > 0)
    speed = np.where(timed & (vb > (1.0 + SPEED_RATIO_EPS) * va), 1,
                     np.where(timed & (vb < (1.0 - SPEED_RATIO_EPS) * va), 2, 0))
    # Each segment scaled by the power of two that puts its larger component
    # in [0.5, 1): exact, so no decision moves where nothing underflowed, and
    # the products of segments shorter than 1e-154 m no longer underflow.
    e = np.frexp(np.maximum(np.abs(dx), np.abs(dy)))[1]
    ux, uy = np.ldexp(dx, -e), np.ldexp(dy, -e)
    cross = ux[:-1] * uy[1:] - uy[:-1] * ux[1:]
    dot = ux[:-1] * ux[1:] + uy[:-1] * uy[1:]
    moved = (d[:-1] > 0) & (d[1:] > 0)
    turn = np.where(moved & ((dot <= 0) | (np.abs(cross) > TURN_TAN * dot)),
                    np.where(cross < 0, 2, 1), 0)
    third_on = (np.arange(n) - np.repeat(starts, lengths))[2:] >= 2
    states[2:] = np.where(third_on, 3 * speed + turn, 0)
    return states


def build_grid_sequences(points: PointColumns, gm: GridMap, tau: float) -> SequenceColumns:
    """Cut the points into sub-trajectories of ``tau`` seconds and annotate
    every point with its grid and motion-state ids.

    A point at time t lands in interval floor(t / tau); one user's points in
    one interval form a sub-trajectory, and the points keep their (user,
    time) order, so the sequences come out in (user, interval) order.
    """
    intervals = interval_ids(points.t, tau)  # a difference that wraps is still not 0
    starts = np.flatnonzero(np.diff(points.user, prepend=-1) | np.diff(intervals, prepend=0))
    return SequenceColumns(
        points.roster, points.user[starts], intervals[starts], starts, points.t,
        map_points_to_grids(points.lon, points.lat, gm),
        motion_states(points.t, points.lon, points.lat, starts))


def split_sizes(n):
    """60/20/20 chronological split sizes for one user's n sub-trajectories
    (or each user's, for an array n).

    Train takes floor(0.6 n) but never less than one; the remainder is split
    evenly with the odd item going to test, so every user with two or more
    sub-trajectories keeps at least the latest one for testing.
    """
    n_train = np.maximum(1, np.floor(np.multiply(0.6, n))).astype(np.int64)
    rem = n - n_train
    n_val = rem // 2
    return n_train, n_val, rem - n_val


def chronological_split(sequences: SequenceColumns) -> DatasetSplit:
    """Per-user chronological 60/20/20 partition into train/validation/test:
    each user's sequences are one run, cut in order by ``split_sizes``."""
    _, firsts, counts = np.unique(sequences.user, return_index=True, return_counts=True)
    n_train, n_val, _ = (np.repeat(n, counts) for n in split_sizes(counts))
    rank = np.arange(len(sequences)) - np.repeat(firsts, counts)
    part = (rank >= n_train).astype(np.int64) + (rank >= n_train + n_val)
    return DatasetSplit(*(np.flatnonzero(part == k) for k in range(3)))


@dataclass
class ParseReport:
    data_lines: int = 0
    parsed: int = 0
    failed: int = 0


def parse_dataset(path: str | Path) -> tuple[PointColumns, ParseReport]:
    """Read a record-per-line CSV into point columns.

    Returns ``(points, report)``. A line that does not split into four
    fields with three floats counts as a failure, and so does a point with
    a non-finite time or a coordinate out of range; more than
    MAX_FAILURE_RATE of failures aborts with a DataError, and so does the
    first line of four fields whose user id holds a tab.
    """
    path = Path(path)
    users: list[str] = []
    values: list[float] = []
    report = ParseReport()
    first_content_line = True
    try:
        with path.open("r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if first_content_line:
                    first_content_line = False
                    if len(fields) >= 2:
                        try:
                            float(fields[1])
                        except ValueError:
                            continue  # header line
                report.data_lines += 1
                try:
                    if len(fields) != 4:
                        raise ValueError("expected 4 comma-separated fields")
                    user, t_s, lat_s, lon_s = (f.strip() for f in fields)
                    if "\t" in user:
                        raise DataError(f"{path} line {number}: user id {user!r} holds a tab, "
                                        "which would split its rows of embeddings.tsv")
                    row = (float(t_s), float(lon_s), float(lat_s))
                except ValueError:
                    report.failed += 1
                    continue
                users.append(user)
                values.extend(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"dataset: {cannot_read(path, exc)}") from None
    if report.data_lines == 0:
        raise DataError(f"no records found in {path}")
    t, lon, lat = np.array(values, dtype=np.float64).reshape(-1, 3).T
    ok = np.isfinite(t) & (np.abs(lon) <= 180.0) & (np.abs(lat) <= 90.0)
    report.parsed = int(ok.sum())
    report.failed += len(ok) - report.parsed
    if report.failed > MAX_FAILURE_RATE * report.data_lines:
        raise DataError(
            f"{report.failed} of {report.data_lines} lines failed to parse "
            f"(more than {MAX_FAILURE_RATE:.0%}); aborting"
        )
    # An object array keeps the ids Python strs; a numpy str array would
    # drop trailing NULs.
    roster, user = np.unique(np.array(users, dtype=object)[ok], return_inverse=True)
    t, lon, lat = t[ok], lon[ok], lat[ok]
    order = np.lexsort((t, user))  # stable: equal times keep file order
    return PointColumns(roster.tolist(), user[order], t[order], lon[order], lat[order]), report


# ---------------------------------------------------------------------------
# Artifact serialization (all formats round-trip exactly).
# ---------------------------------------------------------------------------

def save_grid_map(gm: GridMap, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dataclasses.asdict(gm), indent=2, sort_keys=True) + "\n")


def load_grid_map(path: str | Path) -> GridMap:
    with reading(path, "preprocess"):
        return GridMap.from_json(json.loads(Path(path).read_text()))


# One sequences.jsonl line: json.dumps(record, sort_keys=True) with the lists'
# brackets in the template.
_SEQUENCE_LINE = '{"grid": [%s], "interval": %s, "state": [%s], "t": [%s], "user": %s}\n'


def save_sequences(sequences: SequenceColumns, path: str | Path) -> None:
    """One line per sequence, byte-identical to ``json.dumps(record,
    sort_keys=True)``: one json.dumps per field, split into numbers and
    joined per sequence, and the file written in one call."""
    def rows(values):  # no number holds the ", " between two numbers
        return map(", ".join, sequences.cut(json.dumps(values.tolist())[1:-1].split(", ")))

    users = np.array(list(map(json.dumps, sequences.roster)), dtype=object)[sequences.user]
    columns = (rows(sequences.grid), json.dumps(sequences.interval.tolist())[1:-1].split(", "),
               rows(sequences.state), rows(sequences.t), users)
    Path(path).write_text("".join(map(_SEQUENCE_LINE.__mod__, zip(*columns))), encoding="utf-8")


def _int64s(values: list, what: str) -> np.ndarray:
    """``values`` as int64, or a ValueError naming the first that is not."""
    with contextlib.suppress(OverflowError):  # an int beyond int64
        if not set(map(type, values)) - {int}:
            return np.array(values, dtype=np.int64)
    bad = next(v for v in values if type(v) is not int or not -2 ** 63 <= v < 2 ** 63)
    raise ValueError(f"{what} {bad!r} is " + ("not an integer" if type(bad) is not int
                                              else "outside the int64 range"))


def load_sequences(path: str | Path) -> SequenceColumns:
    """Parse sequences.jsonl with one json.loads and check it a field at a
    time: a dict with the five keys per line, str users, three lists of one
    non-zero length, float times, int64 intervals and ids, and each (user,
    interval) strictly after the one on the line before."""
    with reading(path, "preprocess"):
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        if not lines[-1]:
            lines.pop()
        records = json.loads("[" + ",".join(lines) + "]")
        if len(records) != len(lines):  # a line holding two records
            raise ValueError(f"{len(lines)} lines hold {len(records)} records")
        if set(map(type, records)) - {dict} or set(map(frozenset, records)) - {_SEQUENCE_KEYS}:
            raise ValueError(f"a record's keys are not {sorted(_SEQUENCE_KEYS)}")
        users, intervals, *lists = (list(map(operator.itemgetter(key), records)) for key in
                                    ("user", "interval", "t", "grid", "state"))
        lengths = [list(map(len, f)) for f in lists if not set(map(type, f)) - {list}]
        if len(lengths) < 3 or 0 in lengths[0] or lengths.count(lengths[0]) < 3:
            raise ValueError("t, grid and state must be lists of one non-zero length")
        t, grid, state = (list(itertools.chain.from_iterable(f)) for f in lists)
        grid, state = (_int64s(ids, f"{field} id") for field, ids in
                       (("grid", grid), ("state", state)))
        for name, values, kind in (("t", t, float), ("user", users, str)):
            if set(map(type, values)) - {kind}:
                bad = next(v for v in values if type(v) is not kind)
                raise ValueError(f"{name} {bad!r} is not a {kind.__name__}")
        interval = _int64s(intervals, "interval")
        roster, user = np.unique(np.array(users, dtype=object), return_inverse=True)
        later = (user[1:] > user[:-1]) | ((user[1:] == user[:-1]) & (interval[1:] > interval[:-1]))
        if not later.all():
            k = int(later.argmin()) + 1
            tid, prev = (f"{users[i]}:{intervals[i]}" for i in (k, k - 1))
            raise ValueError(f"trajectory {tid!r} is not after {prev!r} in (user, interval) order")
        start = np.cumsum([0, *lengths[0]], dtype=np.int64)[:-1]
        return SequenceColumns(roster.tolist(), user.astype(np.int64), interval, start,
                               np.array(t, dtype=np.float64), grid, state)


def save_split(split: DatasetSplit, traj_ids: list[str], path: str | Path) -> None:
    """The parts as lists of trajectory ids, one JSON object keyed by part."""
    Path(path).write_text(json.dumps(split.named(traj_ids), indent=2, sort_keys=True) + "\n")


def load_split(path: str | Path) -> dict:
    """The JSON object ``save_split`` wrote, for comparing with a split's names."""
    with reading(path, "preprocess"):
        return json.loads(Path(path).read_text())
