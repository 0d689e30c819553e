"""A compact DPLL SAT solver with unit propagation and pure literals.

The Theorem 2 experiments need ground truth about satisfiability of the small
3-SAT formulas that get reduced to BBC games; this solver provides it without
any external dependency.  It also supports model enumeration, which the
experiment harness uses to count how many stable profiles the reduction
admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from .cnf import Assignment, CNFFormula, Literal, literal_value


@dataclass
class SolverStats:
    """Counters describing the work performed by one solver invocation."""

    decisions: int = 0
    propagations: int = 0
    backtracks: int = 0


class DPLLSolver:
    """Davis–Putnam–Logemann–Loveland solver for CNF formulas."""

    def __init__(self, formula: CNFFormula) -> None:
        self.formula = formula
        self.stats = SolverStats()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self) -> Optional[Assignment]:
        """Return a satisfying assignment, or ``None`` if unsatisfiable.

        The returned assignment is total: every variable is given a value
        (unconstrained variables default to ``False``).
        """
        self.stats = SolverStats()
        result = self._search({})
        if result is None:
            return None
        for variable in self.formula.variables():
            result.setdefault(variable, False)
        return result

    def is_satisfiable(self) -> bool:
        """Return ``True`` when the formula has at least one model."""
        return self.solve() is not None

    # ------------------------------------------------------------------ #
    # DPLL search
    # ------------------------------------------------------------------ #
    def _search(self, assignment: Assignment) -> Optional[Assignment]:
        assignment = dict(assignment)
        status = self._propagate(assignment)
        if status is False:
            return None
        variable = self._choose_variable(assignment)
        if variable is None:
            return assignment
        self.stats.decisions += 1
        for value in (True, False):
            assignment[variable] = value
            result = self._search(assignment)
            if result is not None:
                return result
            del assignment[variable]
            self.stats.backtracks += 1
        return None

    def _propagate(self, assignment: Assignment) -> bool:
        """Apply unit propagation and pure-literal elimination in place.

        Returns ``False`` when a conflict (empty clause) is detected.
        """
        changed = True
        while changed:
            changed = False
            # Unit propagation.
            for clause in self.formula.clauses:
                state = self._clause_state(clause, assignment)
                if state == "satisfied":
                    continue
                unassigned = [lit for lit in clause if literal_value(lit, assignment) is None]
                if not unassigned:
                    return False
                if len(unassigned) == 1:
                    literal = unassigned[0]
                    assignment[abs(literal)] = literal > 0
                    self.stats.propagations += 1
                    changed = True
            # Pure-literal elimination.
            polarity: Dict[int, Set[bool]] = {}
            for clause in self.formula.clauses:
                if self._clause_state(clause, assignment) == "satisfied":
                    continue
                for literal in clause:
                    variable = abs(literal)
                    if variable in assignment:
                        continue
                    polarity.setdefault(variable, set()).add(literal > 0)
            for variable, signs in polarity.items():
                if len(signs) == 1:
                    assignment[variable] = next(iter(signs))
                    self.stats.propagations += 1
                    changed = True
        return True

    def _clause_state(self, clause: Tuple[Literal, ...], assignment: Assignment) -> str:
        for literal in clause:
            value = literal_value(literal, assignment)
            if value is True:
                return "satisfied"
        return "open"

    def _choose_variable(self, assignment: Assignment) -> Optional[int]:
        """Pick the unassigned variable occurring in the most open clauses."""
        counts: Dict[int, int] = {}
        for clause in self.formula.clauses:
            if self._clause_state(clause, assignment) == "satisfied":
                continue
            for literal in clause:
                variable = abs(literal)
                if variable not in assignment:
                    counts[variable] = counts.get(variable, 0) + 1
        if counts:
            return max(counts, key=lambda v: (counts[v], -v))
        for variable in self.formula.variables():
            if variable not in assignment:
                return None  # remaining variables are unconstrained
        return None


def solve(formula: CNFFormula) -> Optional[Assignment]:
    """Convenience wrapper: solve ``formula`` with a fresh :class:`DPLLSolver`."""
    return DPLLSolver(formula).solve()


def is_satisfiable(formula: CNFFormula) -> bool:
    """Convenience wrapper: return whether ``formula`` is satisfiable."""
    return DPLLSolver(formula).is_satisfiable()
