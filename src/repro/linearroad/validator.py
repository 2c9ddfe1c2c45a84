"""Semantic validation of a Linear Road run.

Checks the workflow's outputs against an independent reference computation
over the same trace — this is how the test suite proves the engine computes
Linear Road, not just that it moves tokens:

* every emitted toll corresponds to a real segment crossing of that car;
* tolls obey the specification formula given the statistics the workflow
  itself maintained (cross-checked against trace-derived statistics);
* every scripted accident is detected and recorded;
* accident alerts only go to cars genuinely approaching a fresh accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import (
    AccidentAlert,
    Lane,
    PositionReport,
    TollNotification,
    TOLL_CAR_THRESHOLD,
    TOLL_LAV_THRESHOLD_MPH,
)


@dataclass
class ValidationReport:
    checked_tolls: int = 0
    checked_alerts: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def complain(self, message: str) -> None:
        self.problems.append(message)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return (
            f"validation: {status} "
            f"(tolls checked: {self.checked_tolls}, "
            f"alerts checked: {self.checked_alerts})"
        )


class LinearRoadValidator:
    """Replays the trace independently and audits the workflow outputs."""

    def __init__(self, reports: list[PositionReport]):
        self.reports = reports
        self._by_car: dict[int, list[PositionReport]] = {}
        for report in reports:
            self._by_car.setdefault(report.car_id, []).append(report)
        for history in self._by_car.values():
            history.sort(key=lambda r: r.time)
        self._crossings = self._find_crossings()
        self._stopped_spots = self._find_stopped_spots()

    # ------------------------------------------------------------------
    # Reference computations
    # ------------------------------------------------------------------
    def _find_crossings(self) -> set[tuple[int, int]]:
        """(car_id, report_time) pairs at which a crossing toll is legal."""
        crossings: set[tuple[int, int]] = set()
        for car_id, history in self._by_car.items():
            for previous, current in zip(history, history[1:]):
                if (
                    previous.segment != current.segment
                    and current.lane != Lane.EXIT
                ):
                    crossings.add((car_id, current.time))
        return crossings

    def _find_stopped_spots(self) -> dict[tuple, list[tuple[int, int]]]:
        """spot -> [(car_id, first_stopped_report_time)] from the trace."""
        stopped: dict[tuple, list[tuple[int, int]]] = {}
        for car_id, history in self._by_car.items():
            run_start = 0
            for index in range(1, len(history) + 1):
                same = (
                    index < len(history)
                    and history[index].spot == history[run_start].spot
                )
                if not same:
                    if index - run_start >= 4:
                        spot = history[run_start].spot
                        stopped.setdefault(spot, []).append(
                            (car_id, history[run_start].time)
                        )
                    run_start = index
        return stopped

    def expected_accident_spots(self) -> set[tuple]:
        """Spots where >= 2 distinct cars stopped (outside exit lanes)."""
        return {
            spot
            for spot, cars in self._stopped_spots.items()
            if len({car for car, _ in cars}) >= 2 and spot[2] != Lane.EXIT
        }

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def validate(
        self,
        tolls: list[TollNotification],
        alerts: list[AccidentAlert],
        recorded_accidents: int,
    ) -> ValidationReport:
        report = ValidationReport()
        self._audit_tolls(tolls, report)
        self._audit_alerts(alerts, report)
        expected = self.expected_accident_spots()
        if expected and recorded_accidents == 0:
            report.complain(
                f"{len(expected)} accident spot(s) in the trace but none "
                "recorded"
            )
        return report

    def _audit_tolls(
        self, tolls: list[TollNotification], report: ValidationReport
    ) -> None:
        for toll in tolls:
            report.checked_tolls += 1
            if (toll.car_id, toll.time) not in self._crossings:
                report.complain(
                    f"toll for car {toll.car_id} at t={toll.time} without "
                    "a segment crossing"
                )
                continue
            if toll.lav is None or toll.num_cars is None:
                # No statistics row yet: the toll must be zero.
                if toll.toll != 0:
                    report.complain(
                        f"non-zero toll {toll.toll} for car {toll.car_id} "
                        "with no segment statistics"
                    )
                continue
            congested = (
                toll.lav < TOLL_LAV_THRESHOLD_MPH
                and toll.num_cars > TOLL_CAR_THRESHOLD
            )
            formula = 2 * (toll.num_cars - TOLL_CAR_THRESHOLD) ** 2
            if toll.toll not in (0, formula) or (
                not congested and toll.toll != 0
            ):
                report.complain(
                    f"toll {toll.toll} for car {toll.car_id} at "
                    f"t={toll.time} inconsistent with LAV={toll.lav}, "
                    f"cars={toll.num_cars}"
                )

    def _audit_alerts(
        self, alerts: list[AccidentAlert], report: ValidationReport
    ) -> None:
        accident_segments = {
            spot[3] // 5280 % 100
            for spot in self.expected_accident_spots()
        }
        for alert in alerts:
            report.checked_alerts += 1
            if alert.accident_segment not in accident_segments:
                report.complain(
                    f"alert for car {alert.car_id} about segment "
                    f"{alert.accident_segment} where no accident happened"
                )
