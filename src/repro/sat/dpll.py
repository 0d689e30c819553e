"""A compact DPLL SAT solver with unit propagation and pure literals.

The Theorem 2 experiments need ground truth about satisfiability of the small
3-SAT formulas that get reduced to BBC games; this solver provides it without
any external dependency.  It also supports model enumeration, which the
experiment harness uses to count how many stable profiles the reduction
admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

    def enumerate_models(self, limit: Optional[int] = None) -> Iterator[Assignment]:
        """Yield satisfying total assignments (up to ``limit`` of them).

        Enumeration is by exhaustive search over the free variables of each
        partial model found by DPLL, so it is only intended for the small
        formulas used in the reduction experiments.
        """
        count = 0
        for assignment in self._enumerate({}, self.formula.variables()):
            yield assignment
            count += 1
            if limit is not None and count >= limit:
                return

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

    # ------------------------------------------------------------------ #
    # Model enumeration
    # ------------------------------------------------------------------ #
    def _enumerate(self, assignment: Assignment, variables: List[int]) -> Iterator[Assignment]:
        if not self.formula.evaluate({**assignment}) and all(
            v in assignment for v in variables
        ):
            return
        free = [v for v in variables if v not in assignment]
        if not free:
            if self.formula.evaluate(assignment):
                yield dict(assignment)
            return
        variable = free[0]
        for value in (False, True):
            assignment[variable] = value
            if self._consistent(assignment):
                yield from self._enumerate(assignment, variables)
            del assignment[variable]

    def _consistent(self, assignment: Assignment) -> bool:
        """Return ``False`` only when some clause is already falsified."""
        for clause in self.formula.clauses:
            values = [literal_value(lit, assignment) for lit in clause]
            if values and all(value is False for value in values):
                return False
        return True


def solve(formula: CNFFormula) -> Optional[Assignment]:
    """Convenience wrapper: solve ``formula`` with a fresh :class:`DPLLSolver`."""
    return DPLLSolver(formula).solve()


def is_satisfiable(formula: CNFFormula) -> bool:
    """Convenience wrapper: return whether ``formula`` is satisfiable."""
    return DPLLSolver(formula).is_satisfiable()
