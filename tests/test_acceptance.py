"""Acceptance gate: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output) and asserts both the criterion and its runtime limit.
"""

import json
import time

import numpy as np
import pytest

from genbound.cli import canonical_report, main, run_experiment
from genbound.complexity import (
    GridFamily,
    empirical_rademacher,
    empirical_rademacher_mc,
    empirical_rademacher_without_abs,
    expected_rademacher,
    grid_restricted_class,
)
from genbound.concentration import (
    high_probability_epsilon,
    mcdiarmid_bound,
    simulate_tail,
    verify_tail_bound,
)
from genbound.core import DiscreteDistribution, EvaluatedClass, Sample, derive_seed
from genbound.deviation import (
    audit_bounded_difference,
    check_symmetrization_identity,
    verify_expectation_bound,
)
from genbound.entropy import (
    CoverMethod,
    _distance_matrix,
    covering_number_exact,
    covering_number_greedy,
    dudley_bound,
    verify_dudley,
)
from genbound.instances import identity_instance, random_discrete_instance, random_evaluated_class
from genbound.linear import L1Linf, L2Ball, massart_bound, random_linear_instance, verify_linear_bound

from conftest import oracle_cover

MASTER = 20260809


def finish(number, name, limit_s, started, passed, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed and elapsed <= limit_s else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed <= limit_s, f"criterion {number} exceeded its {limit_s}s budget ({elapsed:.1f}s)"


def test_01_estimator_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c1"))
    hits = 0
    for _ in range(50):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 11))
        cls = random_evaluated_class(int(rng.integers(0, 2**32)), m=m, n=n, envelope_b=1.0)
        exact = empirical_rademacher(cls).value
        estimate = empirical_rademacher_mc(cls, 100_000, int(rng.integers(0, 2**32)))
        if estimate.std_error == 0.0:
            hits += estimate.value == exact
        else:
            hits += abs(estimate.value - exact) <= 4.0 * estimate.std_error
    finish(1, "estimator-consistency", 60, started, hits >= 48, f"only {hits}/50 within 4 SE")


def test_02_symmetrization_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c2"))
    worst = 0.0
    for _ in range(500):
        inst = random_discrete_instance(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(1, 5)),
            support_size=int(rng.integers(2, 4)),
        )
        n = int(rng.integers(1, 4))
        report = check_symmetrization_identity(inst.support_class, inst.dist, n, tol=1e-10)
        worst = max(worst, report.abs_diff)
    finish(2, "symmetrization-identity", 60, started, worst <= 1e-10, f"worst gap {worst}")


def test_03_expectation_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c3"))
    worst = np.inf
    for _ in range(200):
        inst = random_discrete_instance(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(1, 5)),
            support_size=int(rng.integers(2, 4)),
        )
        n = int(rng.integers(1, 6))
        report = verify_expectation_bound(inst.support_class, inst.dist, n, tol=1e-10)
        worst = min(worst, report.slack)
    finish(3, "expectation-bound", 120, started, worst >= -1e-10, f"worst slack {worst}")


def test_04_bounded_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c4"))
    clean = True
    for _ in range(200):
        inst = random_discrete_instance(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(1, 5)),
            support_size=int(rng.integers(2, 4)),
        )
        n = int(rng.integers(1, 6))
        audit = audit_bounded_difference(inst.support_class, inst.dist, n)
        clean = clean and audit.passed
    # a constructed instance must come close to the cap, so the audit is not vacuous
    sharp = identity_instance(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]))
    sharp_audit = audit_bounded_difference(sharp.support_class, sharp.dist, 4)
    attained = sharp_audit.max_observed_delta >= 0.5 * sharp_audit.theoretical_cap
    finish(
        4,
        "bounded-differences",
        60,
        started,
        clean and attained,
        f"clean={clean} attained={sharp_audit.max_observed_delta}/{sharp_audit.theoretical_cap}",
    )


def test_05_mcdiarmid_tail():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c5"))
    all_pass = True
    failing = None
    for i in range(20):
        inst = random_discrete_instance(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(1, 5)),
            support_size=int(rng.integers(2, 4)),
            envelope_b=1.0,
        )
        for n in (4, 8):
            rn = expected_rademacher(inst.support_class, inst.dist, n)
            for epsilon in (0.1, 0.25, 0.5):
                experiment = simulate_tail(
                    inst.support_class,
                    inst.dist,
                    n,
                    epsilon,
                    100_000,
                    int(rng.integers(0, 2**32)),
                    rn.value,
                )
                verdict = verify_tail_bound(experiment)
                if not verdict.passed:
                    all_pass = False
                    failing = (i, n, epsilon, experiment.empirical_freq, experiment.theoretical)
    finish(5, "mcdiarmid-tail", 300, started, all_pass, f"first failure {failing}")


def test_06_epsilon_delta_roundtrip():
    started = time.perf_counter()
    deltas = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 30))
    worst = 0.0
    for delta in deltas:
        eps = high_probability_epsilon(float(delta), 16, 1.0)
        worst = max(worst, abs(mcdiarmid_bound(eps, 16, 1.0) - delta) / delta)
    finish(6, "epsilon-delta-roundtrip", 1, started, worst <= 1e-12, f"worst rel err {worst}")


def test_07_linear_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c7"))
    worst_l2 = np.inf
    for _ in range(1000):
        instance = random_linear_instance(
            int(rng.integers(0, 2**32)),
            L2Ball(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))),
            int(rng.integers(1, 9)),
            int(rng.integers(1, 11)),
            int(rng.integers(1, 9)),
        )
        worst_l2 = min(worst_l2, verify_linear_bound(instance, tol=1e-10).slack)
    worst_l1 = np.inf
    for _ in range(1000):
        instance = random_linear_instance(
            int(rng.integers(0, 2**32)),
            L1Linf(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))),
            int(rng.integers(1, 17)),
            int(rng.integers(1, 11)),
            int(rng.integers(1, 9)),
        )
        worst_l1 = min(worst_l1, verify_linear_bound(instance, tol=1e-10).slack)
    finish(
        7,
        "linear-bounds",
        120,
        started,
        worst_l2 >= -1e-10 and worst_l1 >= -1e-10,
        f"worst slack l2={worst_l2} l1={worst_l1}",
    )


def test_08_massart_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c8"))
    worst = np.inf
    for _ in range(500):
        cls = random_evaluated_class(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(1, 9)),
            n=int(rng.integers(1, 11)),
        )
        slack = massart_bound(cls) - empirical_rademacher_without_abs(cls).value
        worst = min(worst, slack)
    finish(8, "massart-bound", 60, started, worst >= -1e-10, f"worst slack {worst}")


def test_09_covering_numbers():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c9"))
    ok = True
    detail = ""
    for _ in range(100):
        cls = random_evaluated_class(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(2, 11)),
            n=int(rng.integers(1, 7)),
        )
        dm = _distance_matrix(cls.evals)
        diameter = float(dm.max())
        radii = np.sort(rng.uniform(0.05, max(diameter * 1.1, 0.1), 5))
        previous = None
        for eps in radii:
            exact = covering_number_exact(cls, float(eps))
            greedy = covering_number_greedy(cls, float(eps))
            size, centers = oracle_cover(dm, float(eps))
            if exact.size != size or exact.center_indices != centers:
                ok, detail = False, f"exact {exact.size}/{exact.center_indices} vs oracle {size}/{centers}"
            if greedy.size < exact.size:
                ok, detail = False, "greedy smaller than exact"
            if previous is not None and exact.size > previous:
                ok, detail = False, "N increased along a sorted radius grid"
            previous = exact.size
    finish(9, "covering-numbers", 120, started, ok, detail)


def test_10_dudley_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER, "c10"))
    worst = np.inf
    for _ in range(200):
        cls = random_evaluated_class(
            int(rng.integers(0, 2**32)),
            m=int(rng.integers(1, 11)),
            n=int(rng.integers(1, 11)),
        )
        c = float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        grid = [(c / 2.0) * i / 17.0 for i in range(1, 17)]
        for method in (CoverMethod.EXACT_MINIMAL, CoverMethod.GREEDY):
            report = verify_dudley(cls, grid, cover_method=method, tol=1e-10)
            worst = min(worst, min(entry.slack for entry in report.entries))
    single = EvaluatedClass([[0.9, -0.4, 0.2]], 1.0)
    exact_four_eps = all(
        dudley_bound(single, eps).bound == 4.0 * eps for eps in (0.05, 0.1, 0.2)
    )
    finish(
        10,
        "dudley-bound",
        300,
        started,
        worst >= -1e-10 and exact_four_eps,
        f"worst slack {worst}, single-function 4eps={exact_four_eps}",
    )


def test_11_determinism(tmp_path):
    started = time.perf_counter()
    configs = [
        {"command": "suite", "seed": 314},
        {
            "command": "tail",
            "instance": {"random": {"m": 4, "support_size": 3, "seed": 5}},
            "n": 6,
            "epsilons": [0.1, 0.5],
            "trials": 20_000,
            "seed": 6,
        },
        {
            "command": "rademacher",
            "class": {"random": {"m": 5, "n": 8, "seed": 7}},
            "method": "mc",
            "draws": 50_000,
            "seed": 8,
        },
    ]
    identical = True
    for config in configs:
        one = run_experiment(config, threads=1)
        eight = run_experiment(config, threads=8)
        identical = identical and canonical_report(one) == canonical_report(eight)
    # and through the real command line with a written report
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"seed": 314}))
    out1, out8 = str(tmp_path / "r1.json"), str(tmp_path / "r8.json")
    code1 = main(["suite", "--config", str(cfg_path), "--out", out1, "--threads", "1"])
    code8 = main(["suite", "--config", str(cfg_path), "--out", out8, "--threads", "8"])
    with open(out1) as f1, open(out8) as f8:
        r1, r8 = json.load(f1), json.load(f8)
    identical = identical and canonical_report(r1) == canonical_report(r8)
    finish(11, "determinism", 120, started, identical and code1 == 0 and code8 == 0, "")


def test_12_grid_restriction():
    started = time.perf_counter()
    sample = Sample([[0.8, -0.3], [0.2, 0.9], [-0.5, 0.4]])
    family = GridFamily(
        parameter_box=((-1.0, 1.0), (-1.0, 1.0)),
        evaluator=lambda w, s: s.points @ w,
        envelope_b=2.0,
        levels=12,
        tolerance=1e-6,
    )
    refinement = grid_restricted_class(family, sample)
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    corner_cls = EvaluatedClass(corners @ sample.points.T, 2.0)
    corner_value = empirical_rademacher(corner_cls).value
    values = refinement.values
    monotone = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    close = abs(values[-1] - corner_value) <= 1e-6
    finish(
        12,
        "grid-restriction",
        10,
        started,
        refinement.converged and monotone and close,
        f"converged={refinement.converged} final={values[-1]} corner={corner_value}",
    )
