"""Synthetic mobility datasets with controllable user separability.

Three generators cover the verification scenarios:

* ``disjoint_regions``: every user walks inside a private patch of cells, so
  visited-grid sets alone identify the user.
* ``shared_ring_orders``: all users visit the same ring of anchor cells but
  in user-specific rotation/direction, so only the visit order carries the
  identity signal.
* ``checkin_style``: sparse check-ins around per-user home cells, mimicking
  location-based-social-network data (few points per sub-trajectory).

Each generator emits CSV records ``user,timestamp,lat,lon`` compatible with
the preprocess stage.
"""

from __future__ import annotations

import math

import numpy as np

from .mobility import METERS_PER_DEGREE

BASE_LAT = 40.0
BASE_LON = 116.0
DAY = 86_400.0


def _to_lon(x_m: float) -> float:
    return BASE_LON + x_m / (METERS_PER_DEGREE * math.cos(math.radians(BASE_LAT)))


def _to_lat(y_m: float) -> float:
    return BASE_LAT + y_m / METERS_PER_DEGREE


def _rows_to_csv(rows: list[tuple[str, float, float, float]]) -> str:
    lines = ["user_id,timestamp,lat,lon"]
    for user, t, lat, lon in rows:
        lines.append(f"{user},{t:.1f},{lat:.10f},{lon:.10f}")
    return "\n".join(lines) + "\n"


def disjoint_regions(
    n_users: int = 10,
    subtrajs_per_user: int = 30,
    cell_m: float = 40.0,
    region_cells: int = 8,
    seed: int = 7,
) -> str:
    """Random walks confined to one private region per user.

    Each sub-trajectory occupies the first quarter of its own day, so a
    6-hour interval split yields exactly ``subtrajs_per_user`` sequences per
    user, already in chronological order.
    """
    rng = np.random.default_rng(seed)
    gap_cells = 3
    span = (region_cells + gap_cells) * cell_m
    rows = []
    for u in range(n_users):
        origin_x = u * span
        for day in range(subtrajs_per_user):
            n_pts = int(rng.integers(5, 10))
            times = np.sort(rng.uniform(0.0, 21_000.0, size=n_pts)) + day * DAY
            cx = int(rng.integers(0, region_cells))
            cy = int(rng.integers(0, region_cells))
            for t in times:
                cx = int(np.clip(cx + rng.integers(-1, 2), 0, region_cells - 1))
                cy = int(np.clip(cy + rng.integers(-1, 2), 0, region_cells - 1))
                x = origin_x + (cx + 0.5 + rng.uniform(-0.3, 0.3)) * cell_m
                y = (cy + 0.5 + rng.uniform(-0.3, 0.3)) * cell_m
                rows.append((f"user{u:02d}", float(t), _to_lat(y), _to_lon(x)))
    return _rows_to_csv(rows)


def shared_ring_orders(
    n_users: int = 4,
    subtrajs_per_user: int = 15,
    cell_m: float = 40.0,
    n_anchors: int = 8,
    seed: int = 11,
) -> str:
    """Identical anchor-cell sets, user-specific visiting order.

    Users differ only by the starting anchor and travel direction around a
    ring, so grid-visitation features are the same for everyone and only the
    sequence order separates the classes.
    """
    del seed  # fully deterministic by construction
    radius = 4.0 * cell_m
    center = 6.0 * cell_m
    anchors = [
        (
            center + radius * math.cos(2 * math.pi * i / n_anchors),
            center + radius * math.sin(2 * math.pi * i / n_anchors),
        )
        for i in range(n_anchors)
    ]
    rows = []
    for u in range(n_users):
        phase = (u // 2) * (n_anchors // 2)
        direction = 1 if u % 2 == 0 else -1
        order = [(phase + direction * i) % n_anchors for i in range(n_anchors)]
        for day in range(subtrajs_per_user):
            t0 = day * DAY + 3_600.0
            for step, a in enumerate(order):
                x, y = anchors[a]
                rows.append((f"user{u:02d}", t0 + 600.0 * step, _to_lat(y), _to_lon(x)))
    return _rows_to_csv(rows)


def checkin_style(
    n_users: int = 20,
    checkins_per_user: int = 48,
    n_days: int = 30,
    cell_m: float = 40.0,
    area_cells: int = 50,
    homes_per_user: int = 5,
    seed: int = 23,
) -> str:
    """Sparse check-ins biased toward per-user home cells."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        homes = rng.integers(0, area_cells, size=(homes_per_user, 2))
        prefs = 1.0 / (np.arange(homes_per_user) + 1.0)
        prefs /= prefs.sum()
        times = np.sort(rng.uniform(0.0, n_days * DAY, size=checkins_per_user))
        for t in times:
            if rng.random() < 0.1:
                cx, cy = rng.integers(0, area_cells, size=2)
            else:
                cx, cy = homes[rng.choice(homes_per_user, p=prefs)]
            x = (cx + 0.5 + rng.uniform(-0.3, 0.3)) * cell_m
            y = (cy + 0.5 + rng.uniform(-0.3, 0.3)) * cell_m
            rows.append((f"user{u:02d}", float(t), _to_lat(y), _to_lon(x)))
    return _rows_to_csv(rows)
