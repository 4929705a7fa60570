"""Sparse HEP analysis selections (§5.1's workload).

"one might start with a set of 10⁹ stored events ... and narrow this down
in a number of steps to a smaller set [of] 10⁴ events ... The subsequent
data analysis steps in such an effort will thus examine smaller and smaller
sets (10⁹ down to 10⁴) of larger and larger (100 byte to 10 MB) objects."

:class:`AnalysisChain` models exactly that funnel; each step keeps a random
fraction of the surviving events and reads a (larger) object type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["select_events", "AnalysisStep", "AnalysisChain"]


def select_events(
    event_numbers: Sequence[int],
    fraction: float,
    rng: np.random.Generator,
) -> list[int]:
    """A random sparse selection: each event survives independently with
    probability ``fraction`` (at least one event always survives, since an
    analysis step with an empty output would simply not be run)."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    events = np.asarray(event_numbers)
    mask = rng.random(len(events)) < fraction
    if not mask.any():
        mask[rng.integers(len(events))] = True
    return events[mask].tolist()


@dataclass(frozen=True)
class AnalysisStep:
    """One funnel stage: keep ``keep_fraction`` of events, read ``type_name``."""

    name: str
    keep_fraction: float
    type_name: str

    def __post_init__(self) -> None:
        if not 0 < self.keep_fraction <= 1:
            raise ValueError(f"{self.name}: keep_fraction must be in (0, 1]")


class AnalysisChain:
    """A multi-step selection funnel over an event population."""

    #: The canonical funnel: tag skim, AOD selection, ESD studies of the
    #: final candidates — fractions scaled from the paper's 10⁹ -> 10⁴ story.
    DEFAULT_STEPS = (
        AnalysisStep("tag-skim", 0.10, "tag"),
        AnalysisStep("aod-selection", 0.10, "aod"),
        AnalysisStep("esd-candidates", 0.10, "esd"),
    )

    def __init__(
        self,
        steps: Sequence[AnalysisStep] = DEFAULT_STEPS,
        seed: int = 0,
    ):
        if not steps:
            raise ValueError("an analysis chain needs at least one step")
        self.steps = tuple(steps)
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def run(self, event_numbers: Sequence[int]) -> list[tuple[AnalysisStep, list[int]]]:
        """Apply the funnel; returns (step, surviving events) per stage."""
        surviving = list(event_numbers)
        stages = []
        for step in self.steps:
            surviving = select_events(surviving, step.keep_fraction, self.rng)
            stages.append((step, surviving))
        return stages

    def survivors(self, event_numbers: Sequence[int]) -> list[int]:
        """Event numbers surviving the whole funnel."""
        return self.run(event_numbers)[-1][1]
