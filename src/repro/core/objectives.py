"""Cost objectives for BBC games.

The paper studies two per-node objectives:

* **sum** (Sections 2-4): the preference-weighted *sum* of shortest-path
  distances to all other nodes;
* **max** (Section 5, "BBC-max games"): the preference-weighted *maximum*
  distance.

Both share the same distance semantics, including the disconnection penalty
``M`` for unreachable targets, so the rest of the engine is parameterised by
an :class:`Objective` value rather than duplicated.
"""

from __future__ import annotations

import enum
from typing import Hashable, Mapping

Node = Hashable


class Objective(enum.Enum):
    """Which aggregate of weighted distances a node minimises."""

    SUM = "sum"
    MAX = "max"

    def aggregate(self, weighted_distances: Mapping[Node, float]) -> float:
        """Aggregate a ``{target: weight * distance}`` mapping into a cost."""
        if self is Objective.SUM:
            return float(sum(weighted_distances.values()))
        if not weighted_distances:
            return 0.0
        return float(max(weighted_distances.values()))

    @property
    def description(self) -> str:
        """Human-readable description used in reports."""
        if self is Objective.SUM:
            return "preference-weighted sum of distances"
        return "preference-weighted maximum distance"
