"""Seeded synthetic city contact trace, written as a trace-driven CSV.

The file stands in for a recorded city-scale mobility trace: contacts
arrive as a Poisson process whose rate is several times higher inside
the morning and evening rush hours, each contact belongs to one of a
few mobiles, and the rows cover the whole study horizon (no
``repeat_every`` tiling), so a replay streams every row.

Only :mod:`random` is used, whose ``Random(seed)`` stream is stable
across Python versions and platforms: the same arguments always give
the same bytes.
"""

from __future__ import annotations

import random

DAY = 86400.0
HOUR = 3600.0

#: Morning and evening rush hours, as in the paper's roadside profile.
RUSH_WINDOWS = ((7.0, 9.0), (17.0, 19.0))
#: Mobiles the contacts are spread over.
MOBILES = 12
#: Mean contact length in seconds.
MEAN_LENGTH = 2.0


def city_trace_rows(
    seed: int,
    *,
    days: int,
    rush_interval: float = 10.0,
    other_interval: float = 60.0,
):
    """Yield ``(start, end, mobile_id)`` rows sorted by start time.

    Inter-arrival gaps are exponential with mean *rush_interval* inside
    :data:`RUSH_WINDOWS` and *other_interval* outside; a gap that
    crosses a window boundary is redrawn at the new rate from the
    boundary (memorylessness keeps the process exact).  Contact lengths
    are uniform on ``[MEAN_LENGTH / 2, 3 * MEAN_LENGTH / 2]`` and each
    contact belongs to one of :data:`MOBILES` mobiles.
    """
    rng = random.Random(seed)
    horizon = days * DAY
    boundaries = sorted(
        day * DAY + hour * HOUR
        for day in range(days)
        for window in RUSH_WINDOWS
        for hour in window
    ) + [horizon]
    time = 0.0
    for boundary in boundaries:
        in_rush = _is_rush(time)
        interval = rush_interval if in_rush else other_interval
        while True:
            time += rng.expovariate(1.0 / interval)
            if time >= boundary:
                time = boundary
                break
            length = MEAN_LENGTH * (0.5 + rng.random())
            mobile = rng.randrange(MOBILES)
            yield time, min(time + length, horizon), f"mobile-{mobile:02d}"


def _is_rush(time: float) -> bool:
    hour = (time % DAY) / HOUR
    return any(lo <= hour < hi for lo, hi in RUSH_WINDOWS)


def write_city_trace(path: str, seed: int, *, days: int, **shape) -> int:
    """Write the seeded trace to *path* as CSV; returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("start,end,mobile_id\n")
        for start, end, mobile in city_trace_rows(seed, days=days, **shape):
            handle.write(f"{start:.3f},{end:.3f},{mobile}\n")
            rows += 1
    return rows
