"""Raw mobility records: parsing, gridding, motion/time annotation, splits.

The input format is one record per line, comma-separated:

    user_id,timestamp_unix_seconds,latitude,longitude

An optional header line is detected by a non-numeric second field. Records
are grouped per user, ordered by time, cut into sub-trajectories of a fixed
time interval, and mapped onto a uniform metric grid. Each grid-sequence
entry also carries a motion state (speed change x turn direction, nine
classes) and a time-of-day window index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, DataError, reading

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0
SECONDS_PER_DAY = 86_400

# The motion-state vocabulary (3 speed x 3 turn classes) and its thresholds.
MOTION_STATES = 9
SPEED_RATIO_EPS = 0.1
TURN_THRESHOLD_DEG = 15.0
# Share of unparseable data lines above which parse_dataset aborts.
MAX_FAILURE_RATE = 0.01
_SEQUENCE_KEYS = frozenset(("user", "interval", "t", "grid", "state", "window"))


@dataclass(frozen=True)
class SpatioTemporalPoint:
    """A single timestamped coordinate."""

    t: float
    lon: float
    lat: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"timestamp must be finite, got {self.t}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")


@dataclass(frozen=True)
class RawTrajectory:
    """All points of one user, in chronological order."""

    user_id: str
    points: tuple[SpatioTemporalPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("trajectory must contain at least one point")
        ts = [p.t for p in self.points]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"timestamps not non-decreasing for user {self.user_id!r}")


@dataclass(frozen=True)
class SubTrajectory:
    """The slice of a user's points falling into one time interval."""

    user_id: str
    interval_index: int
    points: tuple[SpatioTemporalPoint, ...]

    @property
    def traj_id(self) -> str:
        return f"{self.user_id}:{self.interval_index}"

    @property
    def start_time(self) -> float:
        return self.points[0].t


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

    def to_json(self) -> dict:
        return {
            "min_lon": self.min_lon,
            "min_lat": self.min_lat,
            "max_lon": self.max_lon,
            "max_lat": self.max_lat,
            "cell_size": self.cell_size,
            "cols": self.cols,
            "rows": self.rows,
        }

    @classmethod
    def from_json(cls, d: dict) -> "GridMap":
        return cls(**d)


@dataclass
class GridSequence:
    """One sub-trajectory in grid-index form, with per-point annotations."""

    user_id: str
    interval_index: int
    t: list[float]
    grid: list[int]
    state: list[int]
    window: list[int]

    @property
    def traj_id(self) -> str:
        return f"{self.user_id}:{self.interval_index}"

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class DatasetSplit:
    """Chronological per-user 60/20/20 partition of sub-trajectory ids."""

    train: list[str] = field(default_factory=list)
    validation: list[str] = field(default_factory=list)
    test: list[str] = field(default_factory=list)


def build_grid_map(points: Iterable[SpatioTemporalPoint], cell_size: float) -> GridMap:
    """Fit a grid of ``cell_size``-meter cells over the points' bounding box."""
    if cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    pts = list(points)
    if not pts:
        raise DataError("cannot build a grid map from zero points")
    min_lon = min(p.lon for p in pts)
    max_lon = max(p.lon for p in pts)
    min_lat = min(p.lat for p in pts)
    max_lat = max(p.lat for p in pts)
    mid_lat = 0.5 * (min_lat + max_lat)
    width_m = (max_lon - min_lon) * METERS_PER_DEGREE * math.cos(math.radians(mid_lat))
    height_m = (max_lat - min_lat) * METERS_PER_DEGREE
    # One-micrometer slack absorbs roundoff from the degree<->meter conversion
    # so an exact multiple of cell_size does not spill into an extra column.
    cols = max(1, math.ceil((width_m - 1e-6) / cell_size))
    rows = max(1, math.ceil((height_m - 1e-6) / cell_size))
    return GridMap(min_lon, min_lat, max_lon, max_lat, cell_size, cols, rows)


def map_point_to_grid(p: SpatioTemporalPoint, gm: GridMap) -> int:
    """Cell index for a point inside the (one-cell-expanded) bounding box."""
    x_m = (p.lon - gm.min_lon) * gm.meters_per_deg_lon
    y_m = (p.lat - gm.min_lat) * gm.meters_per_deg_lat
    if not -gm.cell_size <= x_m <= gm.cols * gm.cell_size + gm.cell_size:
        raise DataError(f"longitude {p.lon} outside the expanded grid bounding box")
    if not -gm.cell_size <= y_m <= gm.rows * gm.cell_size + gm.cell_size:
        raise DataError(f"latitude {p.lat} outside the expanded grid bounding box")
    col = min(max(math.floor(x_m / gm.cell_size), 0), gm.cols - 1)
    row = min(max(math.floor(y_m / gm.cell_size), 0), gm.rows - 1)
    return row * gm.cols + col


def split_trajectory_by_interval(tr: RawTrajectory, tau: float) -> list[SubTrajectory]:
    """Cut a trajectory into sub-trajectories of ``tau`` seconds each.

    A point with timestamp t lands in interval floor(t / tau). Empty
    intervals are omitted; within-interval point order is preserved.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    buckets: dict[int, list[SpatioTemporalPoint]] = {}
    for p in tr.points:
        buckets.setdefault(math.floor(p.t / tau), []).append(p)
    return [
        SubTrajectory(tr.user_id, idx, tuple(buckets[idx]))
        for idx in sorted(buckets)
    ]


def _planar_xy(points: Sequence[SpatioTemporalPoint]) -> list[tuple[float, float]]:
    mid_lat = 0.5 * (min(p.lat for p in points) + max(p.lat for p in points))
    mx = METERS_PER_DEGREE * math.cos(math.radians(mid_lat))
    return [(p.lon * mx, p.lat * METERS_PER_DEGREE) for p in points]


def encode_motion_states(st: SubTrajectory) -> list[int]:
    """Nine-state motion codes (speed change x turn direction) per point.

    From the third point on, the two most recent segments are compared:
    speed class is accelerating / decelerating / constant by the ratio of
    segment speeds against ``1 +- SPEED_RATIO_EPS``, turn class is left /
    right / straight by the signed heading change against
    ``TURN_THRESHOLD_DEG``.
    State = 3 * speed_class + turn_class with constant=0/accel=1/decel=2 and
    straight=0/left=1/right=2. The first two points default to state 0, as
    do zero-duration and zero-length segments.
    """
    n = len(st.points)
    states = [0] * n
    if n < 3:
        return states
    xy = _planar_xy(st.points)
    ts = [p.t for p in st.points]
    theta0 = math.radians(TURN_THRESHOLD_DEG)
    for i in range(2, n):
        dxa = xy[i - 1][0] - xy[i - 2][0]
        dya = xy[i - 1][1] - xy[i - 2][1]
        dxb = xy[i][0] - xy[i - 1][0]
        dyb = xy[i][1] - xy[i - 1][1]
        da = math.hypot(dxa, dya)
        db = math.hypot(dxb, dyb)
        dta = ts[i - 1] - ts[i - 2]
        dtb = ts[i] - ts[i - 1]

        speed_class = 0
        if dta > 0 and dtb > 0:
            va = da / dta
            vb = db / dtb
            if vb > (1.0 + SPEED_RATIO_EPS) * va:
                speed_class = 1
            elif vb < (1.0 - SPEED_RATIO_EPS) * va:
                speed_class = 2

        turn_class = 0
        if da > 0 and db > 0:
            dtheta = math.atan2(dyb, dxb) - math.atan2(dya, dxa)
            # wrap to (-pi, pi]
            while dtheta <= -math.pi:
                dtheta += 2 * math.pi
            while dtheta > math.pi:
                dtheta -= 2 * math.pi
            if dtheta > theta0:
                turn_class = 1
            elif dtheta < -theta0:
                turn_class = 2

        states[i] = 3 * speed_class + turn_class
    return states


def encode_time_windows(st: SubTrajectory, window_len: float) -> list[int]:
    """Time-of-day window index per point; vocabulary = 86400 / window_len."""
    time_window_vocab(window_len)  # validates window_len
    return [int((p.t % SECONDS_PER_DAY) // window_len) for p in st.points]


def time_window_vocab(window_len: float) -> int:
    if window_len <= 0 or SECONDS_PER_DAY % window_len != 0:
        raise ConfigError(
            f"time window length {window_len} must divide {SECONDS_PER_DAY} seconds"
        )
    return int(SECONDS_PER_DAY // window_len)


def build_grid_sequences(
    subtrajectories: Iterable[SubTrajectory],
    gm: GridMap,
    window_len: float,
) -> list[GridSequence]:
    """Annotate every sub-trajectory with grid, motion-state and window ids."""
    out = []
    for st in subtrajectories:
        out.append(
            GridSequence(
                user_id=st.user_id,
                interval_index=st.interval_index,
                t=[p.t for p in st.points],
                grid=[map_point_to_grid(p, gm) for p in st.points],
                state=encode_motion_states(st),
                window=encode_time_windows(st, window_len),
            )
        )
    return out


def split_sizes(n: int) -> tuple[int, int, int]:
    """60/20/20 chronological split sizes for one user's n sub-trajectories.

    Train takes floor(0.6 n) but never less than one; the remainder is split
    evenly with the odd item going to test, so every user with two or more
    sub-trajectories keeps at least the latest one for testing.
    """
    n_train = max(1, math.floor(0.6 * n))
    rem = n - n_train
    n_val = rem // 2
    return n_train, n_val, rem - n_val


def chronological_split(subtrajectories: Iterable[SubTrajectory | GridSequence]) -> DatasetSplit:
    """Per-user chronological 60/20/20 partition into train/validation/test."""
    per_user: dict[str, list] = {}
    for st in subtrajectories:
        per_user.setdefault(st.user_id, []).append(st)
    split = DatasetSplit()
    for user in sorted(per_user):
        items = sorted(per_user[user], key=lambda s: s.interval_index)
        n_train, n_val, n_test = split_sizes(len(items))
        ids = [s.traj_id for s in items]
        split.train.extend(ids[:n_train])
        split.validation.extend(ids[n_train : n_train + n_val])
        split.test.extend(ids[n_train + n_val :])
    return split


@dataclass
class ParseReport:
    data_lines: int = 0
    parsed: int = 0
    failed: int = 0


def parse_dataset(path: str | Path):
    """Read a record-per-line CSV into per-user trajectories.

    Returns ``(trajectories, report)`` with users sorted by id and each
    user's points sorted by timestamp. Lines that fail to parse are counted;
    more than MAX_FAILURE_RATE of failures aborts with a DataError.
    """
    path = Path(path)
    per_user: dict[str, list[SpatioTemporalPoint]] = {}
    report = ParseReport()
    first_content_line = True
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
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
                point = SpatioTemporalPoint(t=float(t_s), lon=float(lon_s), lat=float(lat_s))
            except ValueError:
                report.failed += 1
                continue
            per_user.setdefault(user, []).append(point)
            report.parsed += 1
    if report.data_lines == 0:
        raise DataError(f"no records found in {path}")
    if report.failed > MAX_FAILURE_RATE * report.data_lines:
        raise DataError(
            f"{report.failed} of {report.data_lines} lines failed to parse "
            f"(more than {MAX_FAILURE_RATE:.0%}); aborting"
        )
    trajectories = [
        RawTrajectory(user, tuple(sorted(pts, key=lambda p: p.t)))
        for user, pts in sorted(per_user.items())
    ]
    return trajectories, report


# ---------------------------------------------------------------------------
# Artifact serialization (all formats round-trip exactly).
# ---------------------------------------------------------------------------

def save_grid_map(gm: GridMap, path: str | Path) -> None:
    Path(path).write_text(json.dumps(gm.to_json(), indent=2, sort_keys=True) + "\n")


def load_grid_map(path: str | Path) -> GridMap:
    with reading(path, "preprocess"):
        return GridMap.from_json(json.loads(Path(path).read_text()))


def save_sequences(sequences: Sequence[GridSequence], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in sequences:
            fh.write(
                json.dumps(
                    {
                        "user": s.user_id,
                        "interval": s.interval_index,
                        "t": s.t,
                        "grid": s.grid,
                        "state": s.state,
                        "window": s.window,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_sequences(path: str | Path) -> list[GridSequence]:
    out = []
    with reading(path, "preprocess"), Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            if type(d) is not dict or d.keys() != _SEQUENCE_KEYS:
                raise ValueError(f"a record's keys are not {sorted(_SEQUENCE_KEYS)}")
            t, grid, state, window = d["t"], d["grid"], d["state"], d["window"]
            if not (type(t) is type(grid) is type(state) is type(window) is list
                    and 0 < len(t) == len(grid) == len(state) == len(window)):
                raise ValueError("t, grid, state and window must be lists of one non-zero length")
            for field, ids in (("grid", grid), ("state", state), ("window", window)):
                for i in ids:
                    if type(i) is not int:
                        raise ValueError(f"{field} id {i!r} is not an integer")
            out.append(GridSequence(d["user"], d["interval"], t, grid, state, window))
    return out


def save_split(split: DatasetSplit, path: str | Path) -> None:
    payload = {"train": split.train, "validation": split.validation, "test": split.test}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_split(path: str | Path) -> DatasetSplit:
    with reading(path, "preprocess"):
        d = json.loads(Path(path).read_text())
        return DatasetSplit(train=d["train"], validation=d["validation"], test=d["test"])
