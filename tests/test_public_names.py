"""Every public name of the package has a caller or a stated reason to stay.

A public top-level function or class under ``src/repro`` (outside
``repro.tooling``) counts as called when some file under ``src/``,
``scripts/``, ``perfbench/`` or ``examples/`` names it as a word, outside
its own definition and outside package ``__init__.py`` files. Re-exports
and the definition's own tests do not count. A name nothing calls is
either deleted or listed in ``KEPT`` with the reason it stays; a ``KEPT``
entry whose name gained a caller or was deleted is stale and must go.
"""

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "scripts", "perfbench", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

KEPT = {
    # Paper formulas and constructions, checked against the paper's numbers.
    "lemma8_threshold": "Lemma 8's stability threshold for Cayley graphs",
    "willow_cost_spectrum": "Theorem 4's social-cost spectrum over tail lengths",
    "max_distance_cost_row": "Theorem 8's comparison row for one instance",
    "random_k_out_baseline": "the random k-out baseline the optima are compared with",
    "analytic_optimum_total": "the social optimum's analytic lower bound",
    "price_of_anarchy": "the PoA definition over a set of equilibria",
    "price_of_stability": "the PoS definition over a set of equilibria",
    "theorem4_poa_upper_bound": "Theorem 4's PoA upper bound",
    "willow_total_cost_upper_bound": "Theorem 4's social-cost scale without tails",
    "willow_total_cost_lower_bound": "Theorem 4's social-cost scale with maximal tails",
    "verify_figure4_loop": "checks that Figure 4's reconstruction closes its loop",
    "integral_to_fractional": "Theorem 3's lift of an integral profile",
    "reach_vector": "the reach vector of Section 4.3",
    "total_hop_distance": "the social cost of a graph with the penalty M",
    # Oracles and inputs for other tests.
    "floyd_warshall": "dense all-pairs oracle for the per-source searches",
    "is_out_regular": "out-regularity oracle for the Cayley constructions",
    "random_digraph": "random inputs for graph and engine tests",
    "directed_path": "input for graph tests",
    "directed_cycle": "input for graph tests",
    "from_adjacency": "builds test graphs from a successor mapping",
    "pigeonhole_formula": "unsatisfiable input for the SAT tests",
    "tiny_satisfiable_formula": "satisfiable input for the SAT tests",
    # Held for an open ROADMAP item.
    "equilibrium_census_study": "ROADMAP item 6's equilibrium census",
    "random_unsatisfiable_3sat": "ROADMAP item 5's seeded unsatisfiable formulas",
    "engine_reuse_study": "its test checks engine reuse across a walk",
}


def _public_definitions():
    """Map each public top-level name to the (path, first, last) lines defining it."""
    spans = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] == "tooling":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[node.name].append((path, first, node.end_lineno))
    return spans


def _uncalled_names(spans):
    """Return the defined names no caller file names outside their definitions."""
    uncalled = set(spans)
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                for word in uncalled.intersection(WORD.findall(line)):
                    if not any(
                        path == own and first <= number <= last
                        for own, first, last in spans[word]
                    ):
                        uncalled.discard(word)
    return uncalled


def test_every_public_name_has_a_caller_or_a_reason():
    spans = _public_definitions()
    uncalled = _uncalled_names(spans)
    dead = sorted(uncalled - set(KEPT))
    assert not dead, (
        "public names nothing calls; delete them or add them to KEPT with a "
        f"reason: {dead}"
    )
    stale = sorted(set(KEPT) - uncalled)
    assert not stale, f"KEPT entries that are called or no longer defined: {stale}"


def test_package_exports_resolve():
    missing = []
    for init in sorted(PACKAGE.rglob("__init__.py")):
        parts = init.parent.relative_to(PACKAGE.parent).parts
        module = importlib.import_module(".".join(parts))
        missing += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing, f"__all__ entries that do not resolve: {missing}"
