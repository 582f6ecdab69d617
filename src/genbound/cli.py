"""Batch experiment runner with seeded reproducibility and JSON/CSV reports.

Usage:
    genbound <command> --config <path> [--seed N] [--out <path>]
                       [--format json|csv] [--threads N]

Commands: rademacher, deviation, symmetrize, tail, linear, dudley, suite.
Configs are JSON; the effective config (seed resolved) is embedded in every
report together with its hash, so any report can be re-run bit-for-bit.  Exit
codes: 0 all checks passed, 2 at least one certified inequality failed (the
report is still written), 1 usage or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from enum import Enum

import numpy as np

from . import complexity, concentration, deviation, entropy, linear
from .core import (
    DEFAULT_PRODUCT_CAP,
    DEFAULT_SIGN_CAP,
    DiscreteDistribution,
    EvaluatedClass,
    GenboundError,
    InequalityViolation,
    InvariantViolation,
    Sample,
    derive_seed,
)
from .instances import (
    DiscreteInstance,
    identity_instance,
    random_discrete_instance,
    random_evaluated_class,
)

COMMANDS = ("rademacher", "deviation", "symmetrize", "tail", "linear", "dudley", "suite")


class UsageError(GenboundError):
    """Bad command line or config; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(config: dict, key: str, command: str):
    if key not in config:
        raise UsageError(f"command {command!r} needs config key {key!r}")
    return config[key]


def _require_seed(config: dict, command: str) -> int:
    seed = config.get("seed")
    if seed is None:
        raise UsageError(f"command {command!r} is randomized and needs an explicit seed")
    return int(seed)


def _parse_class(spec: dict, default_seed) -> EvaluatedClass:
    if "random" in spec:
        r = spec["random"]
        seed = r.get("seed", default_seed)
        if seed is None:
            raise UsageError("random class spec needs a seed")
        return random_evaluated_class(
            int(seed), m=int(r["m"]), n=int(r["n"]), envelope_b=float(r.get("envelope_b", 1.0))
        )
    if "evals" in spec:
        evals = np.asarray(spec["evals"], dtype=np.float64)
        envelope = spec.get("envelope_b")
        if envelope is None:
            envelope = float(np.abs(evals).max(initial=0.0))
        return EvaluatedClass(evals, float(envelope), spec.get("population_means"))
    raise UsageError("class spec needs either 'evals' or 'random'")


def _parse_instance(spec: dict, default_seed) -> DiscreteInstance:
    if "random" in spec:
        r = spec["random"]
        seed = r.get("seed", default_seed)
        if seed is None:
            raise UsageError("random instance spec needs a seed")
        return random_discrete_instance(
            int(seed),
            m=int(r["m"]),
            support_size=int(r["support_size"]),
            envelope_b=float(r.get("envelope_b", 1.0)),
        )
    if spec.get("family") == "identity":
        dist = DiscreteDistribution(spec["support"], spec["probs"])
        return identity_instance(dist)
    if "table" in spec:
        dist = DiscreteDistribution(spec["support"], spec["probs"])
        # envelope semantics belong to the bounded-difference audit, so an
        # understated value must reach it rather than fail at construction
        return DiscreteInstance.from_table(
            spec["table"], float(spec["envelope_b"]), dist, check_envelope=False
        )
    raise UsageError("instance spec needs 'table', 'random', or a known 'family'")


def _caps(config: dict) -> tuple[int, int]:
    caps = config.get("caps", {})
    return int(caps.get("sign", DEFAULT_SIGN_CAP)), int(caps.get("product", DEFAULT_PRODUCT_CAP))


# ---------------------------------------------------------------------------
# Command handlers: each returns (results, violations)
# ---------------------------------------------------------------------------


def _violation(check: str, exc: InequalityViolation) -> dict:
    return {"check": check, "message": str(exc), "payload": exc.payload}


def _cmd_rademacher(config: dict, threads: int):
    sign_cap, _ = _caps(config)
    cls = _parse_class(_require(config, "class", "rademacher"), config.get("seed"))
    method = config.get("method", "auto")
    if method == "auto":
        method = "exact" if cls.n <= sign_cap else "mc"
    row, violations = {}, []
    if method == "exact":
        try:
            comparison = complexity.check_without_abs_le_abs(cls, sign_cap=sign_cap)
            exact = comparison.with_abs
            row = {"without_abs": comparison.without_abs, "comparison_slack": comparison.slack}
        except InvariantViolation as exc:  # its payload carries the whole class
            violations.append({"check": "without_abs_le_abs", "message": str(exc), "payload": {}})
            exact = complexity.empirical_rademacher(cls, sign_cap=sign_cap).value
        value = complexity.ComplexityResult(exact, complexity.Method.EXACT_ENUMERATION)
    elif method == "mc":
        seed = _require_seed(config, "rademacher")
        draws = int(config.get("draws", 100_000))
        value = complexity.empirical_rademacher_mc(cls, draws, seed, threads=threads)
    else:
        raise UsageError(f"unknown rademacher method {method!r}")
    result = {
        "kind": "rademacher",
        "x": cls.n,
        "value": value.value,
        "method": value.method.value,
        "seed": value.seed,
        "draws": value.draws,
        "std_error": value.std_error,
        **row,
    }
    return [result], violations


def _cmd_deviation(config: dict, threads: int):
    sign_cap, product_cap = _caps(config)
    inst = _parse_instance(_require(config, "instance", "deviation"), config.get("seed"))
    n = int(_require(config, "n", "deviation"))
    tol = float(config.get("tol", 1e-10))
    builder = inst.builder()
    results, violations = [], []
    try:
        bound = deviation.verify_expectation_bound(
            builder, inst.dist, n, tol=tol, product_cap=product_cap, sign_cap=sign_cap
        )
        results.append(
            {
                "kind": "expectation_bound",
                "expected_deviation": bound.expected_deviation,
                "twice_rademacher": bound.twice_rademacher,
                "slack": bound.slack,
                "passed": True,
            }
        )
    except InequalityViolation as exc:
        violations.append(_violation("expectation_bound", exc))
    audit = deviation.audit_bounded_difference(builder, inst.dist, n, cap=product_cap)
    results.append(
        {
            "kind": "bounded_difference_audit",
            "max_observed_delta": audit.max_observed_delta,
            "theoretical_cap": audit.theoretical_cap,
            "perturbations_checked": audit.perturbations_checked,
            "passed": not audit.violated,
        }
    )
    if audit.violated:
        violations.append(
            {
                "check": "bounded_difference_audit",
                "message": (
                    f"max single-coordinate delta {audit.max_observed_delta!r} exceeds "
                    f"2b/n = {audit.theoretical_cap!r}; the declared envelope is not a "
                    f"true bound"
                ),
                "payload": {
                    "max_observed_delta": audit.max_observed_delta,
                    "theoretical_cap": audit.theoretical_cap,
                },
            }
        )
    return results, violations


def _cmd_symmetrize(config: dict, threads: int):
    _, product_cap = _caps(config)
    inst = _parse_instance(_require(config, "instance", "symmetrize"), config.get("seed"))
    n = int(_require(config, "n", "symmetrize"))
    results, violations = [], []
    try:
        report = deviation.check_symmetrization_identity(
            inst.builder(), inst.dist, n, tol=float(config.get("tol", 1e-10)), cap=product_cap
        )
        results.append(
            {
                "kind": "symmetrization",
                "lhs": report.lhs,
                "rhs": report.rhs,
                "abs_diff": report.abs_diff,
                "passed": True,
            }
        )
    except InequalityViolation as exc:
        violations.append(_violation("symmetrization", exc))
    return results, violations


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` of a 2-D integer array.

    Rows come out in lexicographic order, and ``distinct[inverse]`` is ``rows``.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _rademacher_for_instance(inst: DiscreteInstance, n, seed, config, threads, sign_cap, product_cap):
    """Exact product-measure complexity when within caps, else a seeded MC fallback.

    Above the sign cap the per-sample average is itself estimated by inner sign
    draws (still unbiased); the report flags the Monte Carlo provenance either way.
    """
    draws = int(config.get("rademacher_draws", 2000))
    inner_draws = int(config.get("rademacher_inner_draws", 2000))
    if inst.dist.size**n <= product_cap and n <= sign_cap:
        return complexity.expected_rademacher(
            inst.builder(), inst.dist, n, product_cap=product_cap, sign_cap=sign_cap
        )
    if draws < 100:
        raise InvariantViolation("Monte Carlo estimation needs at least 100 draws")
    rn_seed = derive_seed(seed, "rn")
    values = np.empty(draws, dtype=np.float64)
    for start in range(0, draws, 4096):
        stop = min(start + 4096, draws)
        idx = inst.dist.draw_index_trials(rn_seed, start, stop - start, n)
        if n <= sign_cap:
            # the sign average is permutation invariant: one per drawn orbit
            orbits, which = _distinct_rows(np.sort(idx, axis=1))
            stack = inst.table[:, orbits].transpose(1, 0, 2)
            values[start:stop] = complexity._sign_averages(stack, sign_cap)[0][which]
            continue
        for j in range(stop - start):
            cls = EvaluatedClass(inst.table[:, idx[j]], inst.envelope_b, validate=False)
            values[start + j] = complexity.empirical_rademacher_mc(
                cls, inner_draws, derive_seed(rn_seed, f"inner:{start + j}"), threads=threads
            ).value
    return complexity._mc_result(values, draws, rn_seed)


def _cmd_tail(config: dict, threads: int):
    sign_cap, product_cap = _caps(config)
    inst = _parse_instance(_require(config, "instance", "tail"), config.get("seed"))
    n = int(_require(config, "n", "tail"))
    seed = _require_seed(config, "tail")
    trials = int(config.get("trials", 10_000))
    epsilons = config.get("epsilons")
    if epsilons is None:
        epsilons = [config.get("epsilon", 0.5)]
    rn = _rademacher_for_instance(inst, n, seed, config, threads, sign_cap, product_cap)
    results, violations = [], []
    for i, eps in enumerate(epsilons):
        experiment = concentration.simulate_tail(
            inst.builder(),
            inst.dist,
            n,
            float(eps),
            trials,
            derive_seed(seed, f"tail:{i}"),
            rn.value,
            rademacher=rn,
            threads=threads,
        )
        verdict = concentration.verify_tail_bound(experiment)
        results.append(
            {
                "kind": "tail",
                "x": float(eps),
                "value": experiment.empirical_freq,
                "theoretical": experiment.theoretical,
                "ci_upper": experiment.ci_upper,
                "freq_lower": verdict.freq_lower,
                "exceed_count": experiment.exceed_count,
                "trials": trials,
                "rademacher_value": rn.value,
                "rademacher_std_error": rn.std_error,
                "method": rn.method.value,
                "seed": experiment.seed,
                "passed": verdict.passed,
            }
        )
        if not verdict.passed:
            violations.append(
                {
                    "check": "tail_bound",
                    "message": (
                        f"simulated exceedance {experiment.empirical_freq!r} significantly "
                        f"exceeds the bound {experiment.theoretical!r} at epsilon {eps!r}"
                    ),
                    "payload": {"epsilon": float(eps)},
                }
            )
    return results, violations


def _cmd_linear(config: dict, threads: int):
    sign_cap, _ = _caps(config)
    seed = _require_seed(config, "linear")
    regime_name = config.get("regime", "l2")
    W = float(config.get("weight_radius", 1.0))
    X = float(config.get("input_radius", 1.0))
    if regime_name == "l2":
        regime = linear.L2Ball(W, X)
    elif regime_name == "l1":
        regime = linear.L1Linf(W, X)
    else:
        raise UsageError(f"unknown linear regime {regime_name!r}")
    d = int(config.get("d", 4))
    n = int(config.get("n", 6))
    m = int(config.get("m", 5))
    count = int(config.get("count", 50))
    results, violations = [], []
    for i in range(count):
        instance = linear.random_linear_instance(derive_seed(seed, f"linear:{i}"), regime, d, n, m)
        try:
            report = linear.verify_linear_bound(
                instance, tol=float(config.get("tol", 1e-10)), sign_cap=sign_cap
            )
            results.append(
                {
                    "kind": "linear",
                    "x": i,
                    "value": report.exact,
                    "bound": report.bound,
                    "slack": report.slack,
                    "method": report.regime,
                    "seed": seed,
                    "passed": True,
                }
            )
        except InequalityViolation as exc:
            violations.append(_violation("linear_bound", exc))
    return results, violations


def _cmd_dudley(config: dict, threads: int):
    sign_cap, _ = _caps(config)
    cover_cap = int(config.get("caps", {}).get("cover", entropy.DEFAULT_COVER_CAP))
    cls = _parse_class(_require(config, "class", "dudley"), config.get("seed"))
    method = config.get("cover", "exact")
    grid_points = config.get("grid_points", 256)
    epsilons = config.get("epsilons")
    if epsilons is None:
        count = int(config.get("epsilon_count", 16))
        c = float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        if c <= 0.0:
            raise UsageError("class is degenerate on the sample; no admissible radii")
        epsilons = [(c / 2.0) * i / (count + 1) for i in range(1, count + 1)]
    results, violations = [], []
    try:
        report = entropy.verify_dudley(
            cls,
            epsilons,
            cover_method=method,
            tol=float(config.get("tol", 1e-10)),
            grid_points=grid_points,
            sign_cap=sign_cap,
            cover_cap=cover_cap,
        )
        for entry in report.entries:
            results.append(
                {
                    "kind": "dudley",
                    "x": entry.epsilon,
                    "value": entry.bound,
                    "lhs": report.without_abs,
                    "slack": entry.slack,
                    "method": report.cover_method.value,
                    "seed": config.get("seed") or 0,
                    "passed": True,
                }
            )
    except InequalityViolation as exc:
        violations.append(_violation("dudley_bound", exc))
    return results, violations


def _cmd_suite(config: dict, threads: int):
    """A bundled smoke corpus exercising every verification harness."""
    seed = _require_seed(config, "suite")
    sign_cap, product_cap = _caps(config)
    results, violations = [], []

    def record(kind: str, passed: bool, message: str = "", **fields):
        results.append({"kind": kind, "passed": passed, **fields})
        if not passed:
            violations.append({"check": kind, "message": message or kind, "payload": fields})

    # estimator consistency and the without-abs comparison
    cls = random_evaluated_class(derive_seed(seed, "class"), m=3, n=6)
    exact = complexity.empirical_rademacher(cls).value
    mc = complexity.empirical_rademacher_mc(cls, 20_000, derive_seed(seed, "mc"), threads=threads)
    gap = abs(mc.value - exact)
    record(
        "rademacher_mc_consistency",
        gap <= 5.0 * mc.std_error,
        f"MC estimate off by {gap!r} with std_error {mc.std_error!r}",
        exact=exact,
        mc=mc.value,
        std_error=mc.std_error,
    )
    comparison = complexity.check_without_abs_le_abs(cls)
    record("without_abs_le_abs", comparison.slack >= -1e-12, slack=comparison.slack)

    # exact identities and bounds on a small random instance
    inst = random_discrete_instance(derive_seed(seed, "instance"), m=3, support_size=2)
    sym = deviation.check_symmetrization_identity(inst.builder(), inst.dist, 2, cap=product_cap)
    record("symmetrization", sym.abs_diff <= 1e-10, lhs=sym.lhs, rhs=sym.rhs, abs_diff=sym.abs_diff)

    inst3 = random_discrete_instance(derive_seed(seed, "instance3"), m=3, support_size=3)
    bound = deviation.verify_expectation_bound(
        inst3.builder(), inst3.dist, 3, product_cap=product_cap, sign_cap=sign_cap
    )
    record("expectation_bound", bound.slack >= -1e-10, slack=bound.slack)

    audit = deviation.audit_bounded_difference(inst3.builder(), inst3.dist, 3, cap=product_cap)
    record(
        "bounded_difference_audit",
        not audit.violated,
        max_observed_delta=audit.max_observed_delta,
        theoretical_cap=audit.theoretical_cap,
    )
    sharp = identity_instance(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]))
    sharp_audit = deviation.audit_bounded_difference(sharp.builder(), sharp.dist, 2)
    record(
        "bounded_difference_attained",
        sharp_audit.max_observed_delta >= 0.5 * sharp_audit.theoretical_cap,
        max_observed_delta=sharp_audit.max_observed_delta,
        theoretical_cap=sharp_audit.theoretical_cap,
    )

    # tail bound on the identity family
    rn = complexity.expected_rademacher(sharp.builder(), sharp.dist, 4)
    experiment = concentration.simulate_tail(
        sharp.builder(), sharp.dist, 4, 0.5, 2000, derive_seed(seed, "tail"), rn.value,
        rademacher=rn, threads=threads,
    )
    verdict = concentration.verify_tail_bound(experiment)
    record(
        "tail_bound",
        verdict.passed,
        empirical_freq=experiment.empirical_freq,
        theoretical=experiment.theoretical,
    )

    # closed-form round trip
    deltas = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 10))
    worst = max(
        abs(concentration.mcdiarmid_bound(concentration.high_probability_epsilon(d, 8, 1.0), 8, 1.0) - d) / d
        for d in deltas
    )
    record("epsilon_roundtrip", worst <= 1e-12, worst_relative_error=worst)

    # linear bounds
    for name, regime in (("l2", linear.L2Ball(1.0, 1.0)), ("l1", linear.L1Linf(1.0, 1.0))):
        worst_slack = np.inf
        for i in range(10):
            instance = linear.random_linear_instance(
                derive_seed(seed, f"{name}:{i}"), regime, 4, 6, 4
            )
            report = linear.verify_linear_bound(instance, sign_cap=sign_cap)
            worst_slack = min(worst_slack, report.slack)
        record(f"linear_{name}", worst_slack >= -1e-10, worst_slack=float(worst_slack))

    # Massart on random classes
    worst_slack = np.inf
    for i in range(20):
        rc = random_evaluated_class(derive_seed(seed, f"massart:{i}"), m=5, n=6)
        slack = linear.massart_bound(rc) - complexity.empirical_rademacher_without_abs(rc).value
        worst_slack = min(worst_slack, slack)
    record("massart_bound", worst_slack >= -1e-10, worst_slack=float(worst_slack))

    # covering consistency and the entropy integral
    cov_cls = random_evaluated_class(derive_seed(seed, "cover"), m=6, n=4)
    dm_ok = True
    c = float(np.sqrt(np.mean(cov_cls.evals**2, axis=1)).max())
    last = None
    for eps in np.linspace(0.1 * c, 1.2 * c, 4):
        exact_cover = entropy.covering_number_exact(cov_cls, float(eps))
        greedy_cover = entropy.covering_number_greedy(cov_cls, float(eps))
        if greedy_cover.size < exact_cover.size:
            dm_ok = False
        if last is not None and exact_cover.size > last:
            dm_ok = False
        last = exact_cover.size
    record("covering_numbers", dm_ok)

    dud_cls = random_evaluated_class(derive_seed(seed, "dudley"), m=6, n=6)
    c = float(np.sqrt(np.mean(dud_cls.evals**2, axis=1)).max())
    grid = [(c / 2.0) * i / 7 for i in range(1, 7)]
    ok = True
    for method in ("exact", "greedy"):
        report = entropy.verify_dudley(dud_cls, grid, cover_method=method, sign_cap=sign_cap)
        ok = ok and all(entry.slack >= -1e-10 for entry in report.entries)
    record("dudley_bound", ok)

    # grid refinement of a linear family against its corner class
    sample = Sample([[1.0, -0.5], [0.5, 1.0]])
    family = complexity.GridFamily(
        parameter_box=((-1.0, 1.0), (-1.0, 1.0)),
        evaluator=lambda w, s: s.points @ w,
        envelope_b=2.0,
        levels=8,
        tolerance=1e-9,
    )
    refinement = complexity.grid_restricted_class(family, sample)
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    corner_cls = EvaluatedClass(corners @ sample.points.T, 2.0)
    corner_value = complexity.empirical_rademacher(corner_cls).value
    values = refinement.values
    monotone = all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    record(
        "grid_refinement",
        refinement.converged and monotone and abs(values[-1] - corner_value) <= 1e-6,
        final=values[-1],
        corner=corner_value,
    )

    # thread-count independence of the seeded estimators
    a = complexity.empirical_rademacher_mc(cls, 20_000, derive_seed(seed, "mc"), threads=1)
    b = complexity.empirical_rademacher_mc(cls, 20_000, derive_seed(seed, "mc"), threads=4)
    t1 = concentration.simulate_tail(
        sharp.builder(), sharp.dist, 4, 0.5, 2000, derive_seed(seed, "tail"), rn.value, threads=1
    )
    t4 = concentration.simulate_tail(
        sharp.builder(), sharp.dist, 4, 0.5, 2000, derive_seed(seed, "tail"), rn.value, threads=4
    )
    record(
        "determinism",
        a.value == b.value and t1.exceed_count == t4.exceed_count,
        mc_value=a.value,
        exceed_count=t1.exceed_count,
    )
    return results, violations


_HANDLERS = {
    "rademacher": _cmd_rademacher,
    "deviation": _cmd_deviation,
    "symmetrize": _cmd_symmetrize,
    "tail": _cmd_tail,
    "linear": _cmd_linear,
    "dudley": _cmd_dudley,
    "suite": _cmd_suite,
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if obj is None or type(obj) in (str, float, int, bool):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def config_hash(config: dict) -> str:
    return _plain_hash(_jsonable(config))


def _plain_hash(plain: dict) -> str:
    canonical = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_experiment(config: dict, *, threads: int = 1) -> dict:
    """Run one effective config and assemble its report, already JSON-ready."""
    command = config.get("command")
    if command not in _HANDLERS:
        raise UsageError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    started = time.perf_counter()
    results, violations = _HANDLERS[command](config, threads)
    wall_ms = (time.perf_counter() - started) * 1000.0
    plain = _jsonable(config)
    return {
        "command": command,
        "config_hash": _plain_hash(plain),
        "seed": plain.get("seed"),
        "config": plain,
        "results": _jsonable(results),
        "violations": _jsonable(violations),
        "wall_ms": wall_ms,
    }


def canonical_report(report: dict) -> str:
    """The report without its timing field, serialized canonically.

    Two runs of the same effective config must agree on this string exactly,
    whatever the thread count.
    """
    stripped = {k: v for k, v in report.items() if k != "wall_ms"}
    return json.dumps(_jsonable(stripped), sort_keys=True, indent=2)


_CURVE_BASE = ("x", "value", "method", "seed")


def emit_curve(results: list[dict], path: str) -> None:
    """Write a homogeneous result set as a CSV curve, sorted by x.

    Columns come in the stable order x, value, method, seed, then any shared
    extra scalar fields sorted by name; floats carry 17 significant digits.
    """
    if not results:
        raise UsageError("no results to emit")
    kinds = {r.get("kind") for r in results}
    if len(kinds) != 1:
        raise UsageError(f"mixed report kinds {sorted(map(str, kinds))}; curves must be homogeneous")
    for row in results:
        if "x" not in row or "value" not in row:
            raise UsageError(f"result kind {row.get('kind')!r} has no (x, value) curve fields")
    shared = set(results[0])
    for row in results[1:]:
        shared &= set(row)
    extras = sorted(
        k
        for k in shared
        if k not in _CURVE_BASE and k not in ("kind",) and isinstance(results[0][k], (int, float, bool))
    )
    columns = [*_CURVE_BASE, *extras]

    def fmt(value) -> str:
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    lines = [",".join(columns)]
    for row in sorted(results, key=lambda r: r["x"]):
        lines.append(",".join(fmt(row.get(col, "")) for col in columns))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="genbound",
        description="Certify generalization-bound inequalities on finite models.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=None, help="report path (default: genbound_report.json)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise UsageError("config must be a JSON object")
    except (OSError, json.JSONDecodeError) as exc:
        print(f"genbound: cannot read config: {exc}", file=sys.stderr)
        return 1

    declared = config.get("command")
    if declared is not None and declared != args.command:
        print(
            f"genbound: config declares command {declared!r} but {args.command!r} was requested",
            file=sys.stderr,
        )
        return 1
    config = dict(config)
    config["command"] = args.command
    if args.seed is not None:
        config["seed"] = args.seed

    out = args.out or config.get("out") or "genbound_report.json"
    try:
        report = run_experiment(config, threads=max(1, args.threads))
        if args.format == "csv":
            emit_curve(report["results"], out)
        else:
            with open(out, "w") as handle:
                handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    except UsageError as exc:
        print(f"genbound: {exc}", file=sys.stderr)
        return 1
    except GenboundError as exc:
        print(f"genbound: {exc}", file=sys.stderr)
        return 1

    for violation in report["violations"]:
        print(f"VIOLATION [{violation['check']}]: {violation['message']}", file=sys.stderr)
    passed = len(report["violations"]) == 0
    print(f"genbound {args.command}: {'ok' if passed else 'FAILED'} ({out})")
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
