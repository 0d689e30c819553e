"""CNF formula representation for the Theorem 2 reduction experiments.

Literals are non-zero integers in the DIMACS convention: ``+i`` is variable
``i``, ``-i`` is its negation.  A clause is a tuple of literals and a formula
is a list of clauses plus a variable count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Literal = int
Clause = Tuple[Literal, ...]
Assignment = Dict[int, bool]


@dataclass(frozen=True)
class CNFFormula:
    """A propositional formula in conjunctive normal form.

    Attributes
    ----------
    num_variables:
        Variables are numbered ``1..num_variables``.
    clauses:
        Tuple of clauses; each clause is a tuple of non-zero integer literals.
    """

    num_variables: int
    clauses: Tuple[Clause, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if not clause:
                continue  # empty clauses are allowed (trivially unsatisfiable)
            for literal in clause:
                if literal == 0:
                    raise ValueError("literal 0 is not allowed (DIMACS convention)")
                if abs(literal) > self.num_variables:
                    raise ValueError(
                        f"literal {literal} references a variable beyond "
                        f"num_variables={self.num_variables}"
                    )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_clauses(clauses: Iterable[Sequence[Literal]]) -> "CNFFormula":
        """Build a formula, inferring ``num_variables`` from the literals."""
        normalised = tuple(tuple(clause) for clause in clauses)
        highest = 0
        for clause in normalised:
            for literal in clause:
                highest = max(highest, abs(literal))
        return CNFFormula(num_variables=highest, clauses=normalised)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_clauses(self) -> int:
        """Return the number of clauses."""
        return len(self.clauses)

    def variables(self) -> List[int]:
        """Return the variable indices ``1..num_variables``."""
        return list(range(1, self.num_variables + 1))

    def is_3cnf(self) -> bool:
        """Return ``True`` when every clause has at most three literals."""
        return all(len(clause) <= 3 for clause in self.clauses)

    def evaluate(self, assignment: Assignment) -> bool:
        """Return the truth value of the formula under a complete assignment."""
        for clause in self.clauses:
            if not clause_satisfied(clause, assignment):
                return False
        return True


def clause_satisfied(clause: Clause, assignment: Assignment) -> bool:
    """Return ``True`` if some literal of ``clause`` is true under ``assignment``.

    Unassigned variables count as not satisfying the literal, so the helper
    is conservative for partial assignments.
    """
    for literal in clause:
        variable = abs(literal)
        if variable in assignment and assignment[variable] == (literal > 0):
            return True
    return False


def literal_value(literal: Literal, assignment: Assignment) -> Optional[bool]:
    """Return the truth value of ``literal`` or ``None`` if unassigned."""
    variable = abs(literal)
    if variable not in assignment:
        return None
    value = assignment[variable]
    return value if literal > 0 else not value
