"""The Ω(n²) convergence lower-bound instance of Section 4.3.

Theorem 6 shows that round-robin best-response walks reach strong
connectivity within ``n²`` steps.  The matching lower bound is a ``(n, 1)``
configuration made of a directed ring over ``r >= n/2`` nodes and a directed
path of ``p = n - r`` nodes whose last hop enters the ring: in each round only
one extra ring node can usefully re-point its link at the path's tail, so
Ω(n) rounds of Ω(n) steps each are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core import StrategyProfile, UniformBBCGame
from ..core.errors import InvalidGameDefinition


@dataclass(frozen=True)
class RingWithPathInstance:
    """The lower-bound starting configuration and its recommended schedule."""

    ring_size: int
    path_size: int
    game: UniformBBCGame
    profile: StrategyProfile
    round_order: Tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        """Return ``n = ring_size + path_size``."""
        return self.ring_size + self.path_size


def build_ring_with_path(ring_size: int, path_size: int) -> RingWithPathInstance:
    """Construct the ring+path configuration for the ``(n, 1)``-uniform game.

    Ring nodes are ``0 .. ring_size-1`` with ``i -> (i+1) mod ring_size``;
    path nodes are ``ring_size .. ring_size+path_size-1`` oriented towards the
    ring, entering it at node 0.  The round order starts at the path's tail,
    proceeds along the path, and then around the ring in the ring direction —
    the adversarial schedule from the paper's lower-bound argument.
    """
    if ring_size < 2:
        raise InvalidGameDefinition("the ring needs at least two nodes")
    if path_size < 1:
        raise InvalidGameDefinition("the path needs at least one node")
    if ring_size < path_size:
        raise InvalidGameDefinition(
            "the lower-bound construction requires ring_size >= path_size (r >= n/2)"
        )
    n = ring_size + path_size
    game = UniformBBCGame(n, 1)

    strategies = {}
    for node in range(ring_size):
        strategies[node] = {(node + 1) % ring_size}
    # Path nodes: ring_size is the tail; each points to the next path node,
    # and the last path node points into the ring at node 0.
    for offset in range(path_size):
        node = ring_size + offset
        if offset == path_size - 1:
            strategies[node] = {0}
        else:
            strategies[node] = {node + 1}
    profile = StrategyProfile(strategies)

    # Round order: path tail, rest of the path, then the ring starting at the
    # ring node the path enters (node 0) and following the ring direction.
    round_order: List[int] = list(range(ring_size, n)) + list(range(ring_size))
    return RingWithPathInstance(
        ring_size=ring_size,
        path_size=path_size,
        game=game,
        profile=profile,
        round_order=tuple(round_order),
    )
