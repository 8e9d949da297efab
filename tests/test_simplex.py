"""Exact rational simplex solver."""

import random
from fractions import Fraction

import pytest

from cpibounds.simplex import counting, solve_lp

F = Fraction


def test_basic_maximization():
    # max x0 + x1 st x0 + 2 x1 <= 4, 3 x0 + x1 <= 6
    rows = [
        ({0: F(1), 1: F(2)}, "<=", F(4)),
        ({0: F(3), 1: F(1)}, "<=", F(6)),
    ]
    res = solve_lp(2, rows, {0: F(1), 1: F(1)}, "max")
    assert res.status == "optimal"
    assert res.value == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]


def test_equalities_and_minimization():
    # min x0 st x0 + x1 = 1, x0 >= 1/4
    rows = [
        ({0: F(1), 1: F(1)}, "=", F(1)),
        ({0: F(1)}, ">=", F(1, 4)),
    ]
    res = solve_lp(2, rows, {0: F(1)}, "min")
    assert res.status == "optimal"
    assert res.value == F(1, 4)


def test_infeasible():
    rows = [
        ({0: F(1)}, ">=", F(2)),
        ({0: F(1)}, "<=", F(1)),
    ]
    assert solve_lp(1, rows, {0: F(1)}, "min").status == "infeasible"


def test_unbounded():
    res = solve_lp(1, [], {0: F(1)}, "max")
    assert res.status == "unbounded"


def test_negative_rhs_normalization():
    # -x0 <= -3 means x0 >= 3
    res = solve_lp(1, [({0: F(-1)}, "<=", F(-3))], {0: F(1)}, "min")
    assert res.status == "optimal" and res.value == F(3)


def test_zero_rhs_lower_bound_row_starts_on_its_slack():
    # x0 - x1 >= 0 holds at x = 0: no artificial, so no phase-1 pivot
    res = solve_lp(2, [({0: F(1), 1: F(-1)}, ">=", F(0))], {0: F(1)}, "min")
    assert res.status == "optimal" and res.value == F(0)
    assert res.pivots == 0


def test_bad_relation_is_rejected():
    # a tuple row is checked like a LinearConstraint, not solved as "="
    with pytest.raises(ValueError, match="bad relation"):
        solve_lp(1, [({0: 1}, "<", 1)], {0: 1}, "max")


def test_counting_sees_the_lps_solved_inside_it():
    rows = [({0: F(1), 1: F(2)}, "<=", F(4)), ({0: F(3), 1: F(1)}, "<=", F(6))]
    objective = {0: F(1), 1: F(1)}
    with counting() as outer:
        first = solve_lp(2, rows, objective, "max")
        with counting() as inner:
            second = solve_lp(2, rows, objective, "min")
            third = solve_lp(2, [({0: F(1)}, ">=", F(1))], objective, "min")
    solve_lp(2, rows, objective, "max")  # after both scopes closed
    assert first.pivots > 0 and third.pivots > 0
    assert inner.pivots == second.pivots + third.pivots
    assert outer.pivots == first.pivots + second.pivots + third.pivots


def test_degenerate_does_not_cycle():
    # classic degenerate instance (Beale-like); Bland's rule must terminate
    rows = [
        ({0: F(1, 4), 1: F(-8), 2: F(-1), 3: F(9)}, "<=", F(0)),
        ({0: F(1, 2), 1: F(-12), 2: F(-1, 2), 3: F(3)}, "<=", F(0)),
        ({2: F(1)}, "<=", F(1)),
    ]
    objective = {0: F(-3, 4), 1: F(20), 2: F(-1, 2), 3: F(6)}
    res = solve_lp(4, rows, objective, "min")
    assert res.status == "optimal"
    assert res.value == F(-5, 4)


def test_redundant_equalities_are_handled():
    rows = [
        ({0: F(1), 1: F(1)}, "=", F(1)),
        ({0: F(2), 1: F(2)}, "=", F(2)),
    ]
    res = solve_lp(2, rows, {0: F(1)}, "max")
    assert res.status == "optimal" and res.value == F(1)


def test_random_instances_respect_constraints():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {
                j: F(rng.randint(-4, 4)) for j in range(n) if rng.random() < 0.7
            }
            rows.append((coeffs, rng.choice(["<=", ">=", "="]), F(rng.randint(-3, 5))))
        objective = {j: F(rng.randint(-4, 4)) for j in range(n)}
        res = solve_lp(n, rows, objective, rng.choice(["min", "max"]))
        if res.status != "optimal":
            continue
        for coeffs, rel, rhs in rows:
            lhs = sum(c * res.x[j] for j, c in coeffs.items())
            assert (
                (rel == "<=" and lhs <= rhs)
                or (rel == ">=" and lhs >= rhs)
                or (rel == "=" and lhs == rhs)
            )
        assert all(v >= 0 for v in res.x)
        assert res.value == sum(c * res.x[j] for j, c in objective.items())
