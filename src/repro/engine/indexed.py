"""Dense int-indexed view of a :class:`~repro.core.game.BBCGame`.

A game keeps its parameters as sparse ``{(label, label): value}`` overrides
over defaults, which suits *defining* games but makes every hot-loop access a
tuple construction plus a dict probe.  :class:`IndexedGame` materialises what
the hot loops read — link lengths plus each node's positive-preference targets
and their weights — into flat per-node rows indexed by dense ints, built from
the overrides (:meth:`~repro.core.game.BBCGame.pair_overrides`) without
probing the n² pairs.  Nodes without overrides share one default row per
parameter, which keeps an n ~ 16k uniform game at megabytes, not gigabytes;
rows are read-only — nothing writes to them and no public method returns one.

The mapping is fixed at construction: ``labels[i]`` is the label of int node
``i`` and ``index[label]`` inverts it.  Declaration order is preserved, which
keeps engine results deterministic and aligned with the reference
:class:`~repro.core.best_response.DeviationOracle`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Tuple

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

        n = self.n
        length_overrides, default_length = game.pair_overrides("link_lengths")
        self.length_rows: List[List[float]] = [[default_length] * n] * n
        for u, row in self._override_rows(length_overrides, default_length).items():
            self.length_rows[u] = row
        # Self pairs are rejected by the game, so the default sits on every
        # diagonal: the lengths present are the default and the overrides.
        lengths_integral = all(
            float(length).is_integer()
            for length in (default_length, *length_overrides.values())
        )

        weight_overrides, default_weight = game.pair_overrides("weights")
        base = list(range(n)) if default_weight > 0 else []
        self.target_rows: List[List[int]] = [base[:u] + base[u + 1 :] for u in range(n)]
        shared_weights = [default_weight] * len(self.target_rows[0])
        self.target_weight_rows: List[List[float]] = [shared_weights] * n
        # Whether each node's positive weights are all exactly 1.0, computed
        # once here so per-probe scorer construction is O(1) in n; a node
        # without targets (n = 1, or a zero default) counts as unit-weight.
        self.unit_weight_nodes = [not shared_weights or default_weight == 1.0] * n
        for u, row in self._override_rows(weight_overrides, default_weight).items():
            row[u] = 0.0
            targets = [v for v, weight in enumerate(row) if weight > 0]
            self.target_rows[u] = targets
            self.target_weight_rows[u] = [row[v] for v in targets]
            self.unit_weight_nodes[u] = all(row[v] == 1.0 for v in targets)
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

    def _override_rows(
        self, overrides: Mapping[Tuple[Node, Node], float], default: float
    ) -> Dict[int, List[float]]:
        """Return the full row of each source in ``overrides``, by int node."""
        rows: Dict[int, List[float]] = {}
        for (source, target), value in overrides.items():
            u = self.index[source]
            if u not in rows:
                rows[u] = [default] * self.n
            rows[u][self.index[target]] = value
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGame(n={self.n}, objective={self.objective.value})"
