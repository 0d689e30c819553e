"""Dense int-indexed view of a :class:`~repro.core.game.BBCGame`.

Game parameters live in sparse ``{(label, label): value}`` dicts with default
fallbacks, which is the right representation for *defining* games but makes
every hot-loop access a tuple construction plus a dict probe.
:class:`IndexedGame` materialises what the hot loops actually read — link
lengths plus each node's positive-preference targets and their weights — once
into flat per-node rows indexed by dense ints, so the cost engine's inner
loops are plain list lookups.

The mapping is fixed at construction: ``labels[i]`` is the label of int node
``i`` and ``index[label]`` inverts it.  Declaration order is preserved, which
keeps engine results deterministic and aligned with the reference
:class:`~repro.core.best_response.DeviationOracle`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..core.game import BBCGame
from ..core.objectives import Objective

Node = Hashable


class IndexedGame:
    """Flat-array snapshot of a game's parameters (labels mapped to ints)."""

    __slots__ = (
        "labels",
        "index",
        "n",
        "length_rows",
        "target_rows",
        "target_weight_rows",
        "penalty",
        "objective",
        "uniform_lengths",
        "unit_length",
        "penalty_dominates",
        "exact_sums",
        "integral_lengths",
        "identity_labels",
        "unit_weight_nodes",
    )

    def __init__(self, game: BBCGame) -> None:
        # Deliberately no back-reference to `game`: the engine registry keys a
        # WeakKeyDictionary by the game object, and holding it here would keep
        # the key alive forever.
        self.labels: Tuple[Node, ...] = game.nodes
        self.index: Dict[Node, int] = {label: i for i, label in enumerate(self.labels)}
        self.n = len(self.labels)
        self.penalty = game.disconnection_penalty
        self.objective: Objective = game.objective
        self.uniform_lengths = game.has_uniform_lengths
        # For uniform-length games every length equals the maximum, which is
        # exactly the scale factor DeviationOracle applies to BFS hop counts.
        self.unit_length = game.max_link_length()
        # A simple path has at most n-1 edges, so every finite distance is at
        # most (n-1) * max length.  When the disconnection penalty is at least
        # that (every default game: M = 10 n * max length), substituting the
        # penalty for `inf` commutes with `min` exactly — the licence for the
        # scorer's C-level fast path over penalty-substituted rows.
        self.penalty_dominates = self.penalty >= (self.n - 1) * self.unit_length

        self.length_rows: List[List[float]] = []
        self.target_rows: List[List[int]] = []
        self.target_weight_rows: List[List[float]] = []
        if self.n >= 2 and game.has_uniform_weights and game.has_uniform_lengths:
            # O(n) snapshot for constant-parameter games (every uniform game):
            # all rows are known without probing the n^2 node pairs, and the
            # constant length/weight rows can be *shared* across nodes — the
            # rows are read-only everywhere downstream, so aliasing one list n
            # times is safe and drops the snapshot from the gigabyte scale
            # that made n ~ 16k games unconstructible.  Only `target_rows`
            # differ per node (each excludes its own index) and stay distinct.
            length = self.unit_length
            shared_lengths = [length] * self.n
            self.length_rows = [shared_lengths] * self.n
            weight = game.weight(self.labels[0], self.labels[1])
            if weight > 0:
                base = list(range(self.n))
                self.target_rows = [base[:u] + base[u + 1 :] for u in range(self.n)]
                shared_weights = [weight] * (self.n - 1)
                self.target_weight_rows = [shared_weights] * self.n
            else:
                empty: List[int] = []
                self.target_rows = [empty] * self.n
                self.target_weight_rows = [empty] * self.n
            self.unit_weight_nodes: List[bool] = [weight == 1.0 or weight <= 0] * self.n
            lengths_integral = float(length).is_integer()
        else:
            for u, source in enumerate(self.labels):
                weights = [game.weight(source, target) for target in self.labels]
                weights[u] = 0.0
                self.length_rows.append(
                    [game.link_length(source, target) for target in self.labels]
                )
                targets = [v for v, w in enumerate(weights) if v != u and w > 0]
                self.target_rows.append(targets)
                self.target_weight_rows.append([weights[v] for v in targets])
            # Whether each node's positive weights are all exactly 1.0, computed
            # once here so per-probe scorer construction is O(1) in n.
            self.unit_weight_nodes = [
                all(w == 1.0 for w in row) for row in self.target_weight_rows
            ]
            lengths_integral = all(
                float(length).is_integer() for row in self.length_rows for length in row
            )
        # When labels already are 0..n-1 (every uniform game), label->int
        # translation is the identity and scorers can skip it entirely.  The
        # type check matters: floats/bools numerically equal to 0..n-1 would
        # pass the == test but cannot index the flat rows.
        self.identity_labels = all(
            type(label) is int for label in self.labels
        ) and self.labels == tuple(range(self.n))
        # With integer-valued lengths every shortest distance is an exact
        # integer; as long as the largest one ((n-1) arcs of the maximum
        # length) stays below 2**53, int64 and float64 agree bit for bit.
        # That is the licence for the numpy backend's exact-int traversal
        # space (hop rows always qualify — hops are plain counts).
        self.integral_lengths = (
            lengths_integral and (self.n - 1) * self.unit_length <= 2.0**53
        )
        # With integer-valued lengths and penalty, every distance, penalty
        # substitution, and cost sum is an exact integer, and as long as the
        # largest possible sum (n addends, each at most the dominating
        # penalty) stays below 2**53, float addition never rounds — so *any*
        # summation order gives the same bits.  That is the licence for
        # vectorised (pairwise-summing) reductions in the scorer's batch path.
        self.exact_sums = (
            float(self.penalty).is_integer()
            and self.n * max(self.penalty, (self.n - 1) * self.unit_length) <= 2.0**53
            and lengths_integral
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGame(n={self.n}, objective={self.objective.value})"
