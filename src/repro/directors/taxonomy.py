"""Table 1 of the paper: the taxonomy of directors (models of computation).

The paper surveys the directors found in Kepler (first group) and PtolemyII
(second group) along five axes and positions its own PNCWF director in that
space.  The taxonomy here is data — :func:`render_table` regenerates the
paper's table, and the registry maps the entries we actually implement onto
their classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DirectorTaxon:
    """One row of Table 1."""

    name: str
    group: str  # "Kepler", "PtolemyII" or "CONFLuEnCE"
    actor_interaction: str
    computation_driver: str
    scheduling: str
    time_based: str
    qos: str
    implemented_by: Optional[str] = None  # dotted path when we build it


TAXONOMY: tuple[DirectorTaxon, ...] = (
    DirectorTaxon(
        "SDF", "Kepler", "Director: Topology-driven", "Pre-compiled",
        "Pre-compiled", "N/A", "N/A",
        implemented_by="repro.directors.sdf.SDFDirector",
    ),
    DirectorTaxon(
        "DDF", "Kepler", "Push", "Data-driven",
        "Iterative/Consumption Based", "N/A", "N/A",
        implemented_by="repro.directors.ddf.DDFDirector",
    ),
    DirectorTaxon(
        "PN", "Kepler", "Push", "Data-driven", "Thread/OS", "N/A", "N/A",
    ),
    DirectorTaxon(
        "DE", "Kepler", "Director: Event Queue", "Event-driven",
        "Event Order", "Yes (global)", "N/A",
    ),
    DirectorTaxon(
        "CN", "PtolemyII", "Director: Topology-driven Push/Pull",
        "Data-driven", "Thread/OS", "Yes (global)", "N/A",
    ),
    DirectorTaxon(
        "CI", "PtolemyII", "Push", "Data-driven", "Thread/OS", "N/A", "N/A",
    ),
    DirectorTaxon(
        "CSP", "PtolemyII", "Push Synchronous", "Pre-compiled",
        "Pre-compiled", "Yes (global)", "N/A",
    ),
    DirectorTaxon(
        "DT", "PtolemyII", "Director: Topology-driven", "Data-driven",
        "Multiple", "Yes (global or local)", "N/A",
    ),
    DirectorTaxon(
        "HDF", "PtolemyII", "Director: Topology-driven", "Data-driven",
        "Pre-compiled", "N/A", "N/A",
    ),
    DirectorTaxon(
        "SR", "PtolemyII", "Synchronous Reactive", "Pre-compiled",
        "Pre-compiled", "Yes (global tick)", "N/A",
    ),
    DirectorTaxon(
        "TM", "PtolemyII", "Director: Priority Queue", "Priority-based",
        "Pre-emptive Priority-based", "N/A", "Priority",
    ),
    DirectorTaxon(
        "TPN", "PtolemyII", "Push", "Data-Time-driven", "Thread/OS",
        "Yes (global)", "N/A",
    ),
    DirectorTaxon(
        "PNCWF", "CONFLuEnCE", "Push-Windowed", "Data-Windowed-driven",
        "Thread/OS", "Yes (local)", "N/A",
        implemented_by="repro.directors.pncwf.PNCWFDirector",
    ),
)

_COLUMNS = (
    ("Director", "name"),
    ("Actor Interaction", "actor_interaction"),
    ("Computation Driver", "computation_driver"),
    ("Scheduling", "scheduling"),
    ("Time based", "time_based"),
    ("QoS", "qos"),
)


def implemented_directors() -> dict[str, str]:
    """Name -> dotted class path, for every taxon we implement."""
    return {
        taxon.name: taxon.implemented_by
        for taxon in TAXONOMY
        if taxon.implemented_by is not None
    }


def render_table() -> str:
    """Regenerate Table 1 as aligned text, grouped as in the paper."""
    widths = [
        max(len(header), *(len(getattr(t, attr)) for t in TAXONOMY))
        for header, attr in _COLUMNS
    ]
    lines = []
    header = " | ".join(
        header.ljust(width) for (header, _), width in zip(_COLUMNS, widths)
    )
    rule = "-+-".join("-" * width for width in widths)
    lines.append(header)
    lines.append(rule)
    last_group = None
    for taxon in TAXONOMY:
        if last_group is not None and taxon.group != last_group:
            lines.append(rule)
        last_group = taxon.group
        lines.append(
            " | ".join(
                getattr(taxon, attr).ljust(width)
                for (_, attr), width in zip(_COLUMNS, widths)
            )
        )
    return "\n".join(lines)
