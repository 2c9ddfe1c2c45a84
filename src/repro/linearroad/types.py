"""Linear Road data types and constants.

Linear Road simulates a variable-tolling system for the expressways of a
fictional metropolitan area.  The input is a single feed of *position
reports*: every car reports its position (expressway, lane, direction,
segment, absolute position) and current speed every 30 seconds.  The
workflow must notify cars of toll charges whenever they cross into a new
segment and alert them to accidents up to 4 segments downstream within 5
seconds of the triggering report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

#: Cars report their position every 30 seconds.
REPORT_INTERVAL_S = 30
#: One Linear Road segment is one mile = 5280 feet.
SEGMENT_LENGTH_FT = 5280
#: Segments per expressway direction.
SEGMENTS_PER_XWAY = 100
#: A car is an accident candidate after this many identical reports.
STOPPED_REPORT_COUNT = 4
#: Accident alerts must be produced within 5 seconds of the report.
ACCIDENT_ALERT_DEADLINE_S = 5
#: Toll formula thresholds (Linear Road specification).
TOLL_LAV_THRESHOLD_MPH = 40
TOLL_CAR_THRESHOLD = 50
#: LAV averages the per-minute segment speeds of this many past minutes.
LAV_WINDOW_MINUTES = 5


class Lane(IntEnum):
    """Lane numbering: ramps at the edges, travel lanes in the middle."""

    ENTRANCE = 0
    TRAVEL_1 = 1
    TRAVEL_2 = 2
    TRAVEL_3 = 3
    EXIT = 4


@dataclass(frozen=True)
class PositionReport:
    """A type-0 Linear Road input tuple."""

    time: int  # seconds since scenario start
    car_id: int
    speed: float  # miles per hour
    xway: int
    lane: int
    direction: int  # 0 = positions increase, 1 = positions decrease
    segment: int
    position: int  # absolute feet from the western end

    @property
    def location(self) -> tuple[int, int, int]:
        """(xway, direction, segment) — the unit tolls are computed over."""
        return (self.xway, self.direction, self.segment)

    @property
    def spot(self) -> tuple[int, int, int, int]:
        """(xway, direction, lane, position) — the accident-detection key."""
        return (self.xway, self.direction, self.lane, self.position)


@dataclass(frozen=True)
class StoppedCar:
    """Emitted when a car reported the same spot four times in a row.

    Following the paper, the *first* of the identical reports is forwarded;
    ``detected_at`` additionally carries the time of the fourth report so
    downstream recency filters (accidents expire after 60 s) work against
    detection time rather than a timestamp that is already ~90 s old.
    """

    report: PositionReport  # the first of the identical reports
    detected_at: int  # time of the fourth identical report


@dataclass(frozen=True)
class Accident:
    """Two distinct cars stopped at the same spot (outside exit lanes)."""

    xway: int
    direction: int
    segment: int
    position: int
    time: int  # detection time (seconds, scenario clock)
    car_ids: tuple[int, int]


@dataclass(frozen=True)
class SegmentCrossing:
    """A car moved from one segment to another between reports."""

    report: PositionReport  # the report inside the *new* segment
    previous_segment: int


@dataclass(frozen=True)
class TollNotification:
    """The workflow's answer to a segment crossing."""

    car_id: int
    time: int  # the triggering report's time
    toll: float
    xway: int
    direction: int
    segment: int
    lav: float | None = None
    num_cars: int | None = None


@dataclass(frozen=True)
class AccidentAlert:
    """Warns a car of an accident within 4 segments downstream."""

    car_id: int
    time: int
    xway: int
    direction: int
    accident_segment: int


@dataclass(frozen=True)
class SegmentStat:
    """One per-minute, per-segment statistics record."""

    xway: int
    direction: int
    segment: int
    minute: int
    value: float


def segment_of(position: int) -> int:
    """Map an absolute position in feet to its segment index."""
    return (position // SEGMENT_LENGTH_FT) % SEGMENTS_PER_XWAY
