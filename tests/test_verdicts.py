"""Every certified inequality returns its verdict in ``passed``; none raises.

A negative tolerance makes each check fail on a correct instance, so the
failure path runs on real numbers: the failed report must carry the same
numbers as the passing one.
"""

import dataclasses

import numpy as np

from genbound import (
    L1Linf,
    L2Ball,
    check_symmetrization_identity,
    check_without_abs_le_abs,
    verify_dudley,
    verify_expectation_bound,
    verify_linear_bound,
)
from genbound.instances import random_discrete_instance, random_evaluated_class
from genbound.linear import random_linear_instance


def assert_fails_with_same_numbers(check, *args, **kwargs):
    passing = check(*args, **kwargs)
    failing = check(*args, tol=-1.0, **kwargs)
    assert passing.passed is True and failing.passed is False
    assert failing == dataclasses.replace(passing, passed=False)


def test_without_abs_comparison():
    assert_fails_with_same_numbers(check_without_abs_le_abs, random_evaluated_class(3, m=4, n=6))


def test_symmetrization_identity():
    inst = random_discrete_instance(5, m=3, support_size=3)
    assert_fails_with_same_numbers(check_symmetrization_identity, inst.support_class, inst.dist, 3)


def test_expectation_bound():
    inst = random_discrete_instance(5, m=3, support_size=3)
    assert_fails_with_same_numbers(verify_expectation_bound, inst.support_class, inst.dist, 3)


def test_linear_bound_in_both_regimes():
    for regime in (L2Ball(1.0, 1.0), L1Linf(1.0, 1.0)):
        assert_fails_with_same_numbers(verify_linear_bound, random_linear_instance(2, regime, 4, 6, 5))


def dudley_case():
    # a small envelope keeps every entry's slack below 1
    cls = random_evaluated_class(6, m=5, n=6, envelope_b=0.01)
    c = float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
    return cls, [(c / 2.0) * i / 7 for i in range(1, 7)]


def test_dudley_fails_at_every_radius():
    cls, grid = dudley_case()
    passing = verify_dudley(cls, grid)
    failing = verify_dudley(cls, grid, tol=-1.0)
    assert all(e.passed for e in passing.entries) and not any(e.passed for e in failing.entries)
    assert failing.entries == tuple(dataclasses.replace(e, passed=False) for e in passing.entries)
    assert (failing.without_abs, failing.best_epsilon) == (passing.without_abs, passing.best_epsilon)


def test_dudley_reports_every_radius_when_one_fails():
    cls, grid = dudley_case()
    passing = verify_dudley(cls, grid)
    slacks = sorted(e.slack for e in passing.entries)
    # only the radius with the smallest slack falls short of this tolerance
    report = verify_dudley(cls, grid, tol=-(slacks[0] + slacks[1]) / 2.0)
    assert [e.epsilon for e in report.entries] == [e.epsilon for e in passing.entries]
    assert [e.passed for e in report.entries] == [e.slack > slacks[0] for e in passing.entries]
    assert sum(not e.passed for e in report.entries) == 1
