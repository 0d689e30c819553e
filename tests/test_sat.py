"""CNF representation and DPLL solver tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import (
    CNFFormula,
    DPLLSolver,
    is_satisfiable,
    pigeonhole_formula,
    random_3sat,
    random_satisfiable_3sat,
    solve,
    tiny_satisfiable_formula,
    tiny_unsatisfiable_formula,
)


def test_formula_construction_and_validation():
    formula = CNFFormula.from_clauses([(1, -2), (2, 3)])
    assert formula.num_variables == 3
    assert formula.num_clauses == 2
    with pytest.raises(ValueError):
        CNFFormula(num_variables=1, clauses=((0,),))
    with pytest.raises(ValueError):
        CNFFormula(num_variables=1, clauses=((5,),))


def test_evaluate_assignment():
    formula = CNFFormula.from_clauses([(1, 2), (-1, 2)])
    assert formula.evaluate({1: True, 2: True})
    assert not formula.evaluate({1: True, 2: False})


def test_solver_on_fixed_formulas():
    sat_model = solve(tiny_satisfiable_formula())
    assert sat_model is not None
    assert tiny_satisfiable_formula().evaluate(sat_model)
    assert solve(tiny_unsatisfiable_formula()) is None


def test_solver_finds_planted_assignment():
    formula = random_satisfiable_3sat(6, 18, seed=11)
    model = solve(formula)
    assert model is not None
    assert formula.evaluate(model)


def test_pigeonhole_is_unsatisfiable():
    assert not is_satisfiable(pigeonhole_formula(2))
    assert not is_satisfiable(pigeonhole_formula(3))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dpll_agrees_with_brute_force(seed):
    formula = random_3sat(4, 10, seed=seed)
    brute = any(
        formula.evaluate({1: a, 2: b, 3: c, 4: d})
        for a in (False, True)
        for b in (False, True)
        for c in (False, True)
        for d in (False, True)
    )
    assert is_satisfiable(formula) == brute


def test_solver_stats_populated():
    solver = DPLLSolver(random_3sat(5, 15, seed=3))
    solver.solve()
    assert solver.stats.propagations >= 0
    assert solver.stats.decisions >= 0
