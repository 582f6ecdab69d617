"""Batch experiment runner with seeded reproducibility and JSON/CSV reports.

Usage:
    genbound <command> --config <path> [--seed N] [--out <path>]
                       [--format json|csv] [--threads N]

Commands: rademacher, deviation, symmetrize, tail, linear, dudley, suite.
Configs are JSON objects checked against the command's schema before any work.
The effective config (seed resolved) is embedded in every report together with
its hash, so any report can be re-run bit-for-bit.  Exit codes: 0 all checks
passed, 2 at least one certified inequality failed (the report is still
written), 1 usage or config errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import reprlib
import sys
import time

import numpy as np

from . import complexity, concentration, deviation, entropy, linear
from .core import (
    DEFAULT_PRODUCT_CAP,
    DEFAULT_SIGN_CAP,
    DiscreteDistribution,
    EvaluatedClass,
    ExactEnumerationLimit,
    GenboundError,
    derive_seed,
)
from .instances import (
    DiscreteInstance,
    identity_instance,
    random_discrete_instance,
    random_evaluated_class,
)


class UsageError(GenboundError):
    """Bad command line or config; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Config parsing
#
# A schema maps each key to (converter, default); _REQUIRED marks a key that
# must be given.  A converter takes the value and its dotted path, e.g.
# "tail.instance.random.m", and returns the converted value or raises a
# UsageError naming that path.  Defaults pass through the converter too.
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _typed(kind, low=None, high=None):
    """A JSON number (for ``int``, a JSON integer) converted to ``kind``, finite and
    between ``low`` and ``high``."""
    accepted = int if kind is int else (int, float)

    def convert(value, path):
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"{path} must be {kind.__name__}, got {reprlib.repr(value)}")
        try:
            converted = kind(value)
        except OverflowError:
            raise UsageError(f"{path} is out of range, got {reprlib.repr(value)}") from None
        if kind is float and not math.isfinite(converted):
            raise UsageError(f"{path} must be a finite number, got {converted}")
        if low is not None and converted < low:
            raise UsageError(f"{path} must be at least {low}, got {reprlib.repr(converted)}")
        if high is not None and converted > high:
            raise UsageError(f"{path} must be at most {high}, got {reprlib.repr(converted)}")
        return converted

    return convert


# sizes, counts and caps are at least 1, the seeds of random specs at least 0,
# and tolerances, envelopes and radii at least 0
_int, _size, _natural, _nonnegative = _typed(int), _typed(int, 1), _typed(int, 0), _typed(float, 0.0)
# Every array value, envelope and linear radius is at most _MAX_MAGNITUDE in
# absolute value, which keeps each kernel finite: the largest number one forms
# is a squared distance, n * (2b)^2 over n columns, and at 2^24 columns that is
# about 7e207 (a linear value, a weight radius times an input radius, is 1e200).
_MAX_MAGNITUDE = 1e100
_magnitude = _typed(float, 0.0, _MAX_MAGNITUDE)
# counts that size an array stay within bounds whose largest value runs in 3 GB
_draws, _points, _many = _typed(int, None, 1 << 24), _typed(int, 1, 1 << 24), _typed(int, 1, 1 << 16)
_MAX_RANDOM_VALUES = 1 << 24  # of a random spec's table; it is drawn, copied and checked


def _text(value, path):
    if not isinstance(value, str):
        raise UsageError(f"{path} must be a string, got {reprlib.repr(value)}")
    return value


def _array(value, path):
    """A rectangular nested list of JSON numbers, each of magnitude at most
    _MAX_MAGNITUDE, as a float64 array."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path} must be a rectangular array of numbers: {exc}") from None
    # numpy takes strings, booleans and null for numbers; read the leaves themselves
    leaves = [value]
    for _ in range(array.ndim):
        leaves = list(itertools.chain.from_iterable(leaves))
    if not (set(map(type, leaves)) <= {int, float} and (np.abs(array) <= _MAX_MAGNITUDE).all()):
        leaf = next(x for x in leaves if type(x) not in (int, float) or not abs(x) <= _MAX_MAGNITUDE)
        raise UsageError(
            f"{path} must be an array of numbers of magnitude at most {_MAX_MAGNITUDE:g}, "
            f"got {reprlib.repr(leaf)}"
        )
    return array


def _radii(value, path) -> list[float]:
    """A nonempty JSON list of numbers, each at least 0."""
    if not isinstance(value, list) or not value:
        raise UsageError(f"{path} must be a nonempty list of numbers, got {reprlib.repr(value)}")
    return [_nonnegative(item, f"{path}[{i}]") for i, item in enumerate(value)]


def _optional(convert):
    return lambda value, path: None if value is None else convert(value, path)


def _choice(*options):
    def convert(value, path):
        if value not in options:
            raise UsageError(f"{path} must be one of {', '.join(options)}, got {reprlib.repr(value)}")
        return value

    return convert


def _fields(schema: dict, value, path: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{path} must be an object, got {reprlib.repr(value)}")
    for key in value:
        if key not in schema:
            raise UsageError(f"unknown key {path}.{key}")
    parsed = {}
    for key, (convert, default) in schema.items():
        if key not in value and default is _REQUIRED:
            raise UsageError(f"missing required key {path}.{key}")
        parsed[key] = convert(value.get(key, default), f"{path}.{key}")
    return parsed


def _object(schema: dict):
    return lambda value, path: _fields(schema, value, path)


def _one_of(forms: dict):
    """An object in one of several forms, told apart by the first form key it has.

    Converts to ``(form key, fields)``; ``_parse`` builds the library object.
    """

    def convert(value, path):
        if not isinstance(value, dict):
            raise UsageError(f"{path} must be an object, got {reprlib.repr(value)}")
        for form, schema in forms.items():
            if form in value:
                return form, _fields(schema, value, path)
        raise UsageError(f"{path} needs one of the keys {', '.join(forms)}")

    return convert


def _random(width: str):
    """A random spec: m rows of ``width`` values, m * width of them at most _MAX_RANDOM_VALUES."""
    schema = {
        "m": (_size, _REQUIRED),
        "envelope_b": (_magnitude, 1.0),
        "seed": (_optional(_natural), None),
        width: (_size, _REQUIRED),
    }

    def convert(value, path):
        spec = _fields(schema, value, path)
        if spec["m"] * spec[width] > _MAX_RANDOM_VALUES:
            raise UsageError(
                f"{path} needs m * {width} = {spec['m']} * {spec[width]} values, "
                f"above the budget of {_MAX_RANDOM_VALUES}"
            )
        return spec

    return convert


_SEED = (_optional(_int), None)
_MEASURE = {"support": (_array, _REQUIRED), "probs": (_array, _REQUIRED)}
_CLASS_FORMS = {
    "random": {"random": (_random("n"), _REQUIRED)},
    "evals": {
        "evals": (_array, _REQUIRED),
        "envelope_b": (_optional(_magnitude), None),
    },
}
_INSTANCE_FORMS = {
    "random": {"random": (_random("support_size"), _REQUIRED)},
    "family": {"family": (_choice("identity"), _REQUIRED), **_MEASURE},
    "table": {"table": (_array, _REQUIRED), **_MEASURE, "envelope_b": (_magnitude, _REQUIRED)},
}
_CAPS = {
    "sign": (_typed(int, 1, complexity.MAX_SIGN_CAP), DEFAULT_SIGN_CAP),
    "product": (_typed(int, 1, complexity.MAX_PRODUCT_CAP), DEFAULT_PRODUCT_CAP),
    # the exact cover's subset table grows as 2**cap
    "cover": (_typed(int, 1, entropy.MAX_COVER_CAP), entropy.DEFAULT_COVER_CAP),
}
_COMMON = {
    "command": (_text, _REQUIRED),
    "seed": _SEED,
    "out": (_optional(_text), None),
    "caps": (_object(_CAPS), {}),
}
_TOL = {"tol": (_nonnegative, 1e-10)}  # for the commands whose checks compare within it
_SEEDED = {"seed": (_int, _REQUIRED)}
_CLASS = {"class": (_one_of(_CLASS_FORMS), _REQUIRED)}
_INSTANCE = {"instance": (_one_of(_INSTANCE_FORMS), _REQUIRED), "n": (_size, _REQUIRED)}
_REGIMES = {"l2": linear.L2Ball, "l1": linear.L1Linf}
_SCHEMA = {
    "rademacher": {
        **_COMMON,
        **_CLASS,
        "method": (_choice("auto", "exact", "mc"), "auto"),
        "draws": (_draws, 100_000),
    },
    "deviation": {**_COMMON, **_TOL, **_INSTANCE},
    "symmetrize": {**_COMMON, **_TOL, **_INSTANCE},
    "tail": {
        **_COMMON,
        **_SEEDED,
        **_INSTANCE,
        "trials": (_draws, 10_000),
        "epsilon": (_nonnegative, 0.5),
        "epsilons": (_optional(_radii), None),
        "rademacher_draws": (_draws, 2000),
    },
    "linear": {
        **_COMMON,
        **_TOL,
        **_SEEDED,
        "regime": (_choice(*_REGIMES), "l2"),
        "weight_radius": (_magnitude, 1.0),
        "input_radius": (_magnitude, 1.0),
        "d": (_size, 4),
        "n": (_size, 6),
        "m": (_size, 5),
        "count": (_many, 50),
    },
    "dudley": {
        **_COMMON,
        **_TOL,
        **_CLASS,
        "cover": (_choice("exact", "greedy"), "exact"),
        "grid_points": (_optional(_points), 256),
        "epsilons": (_optional(_radii), None),
        "epsilon_count": (_many, 16),
    },
    "suite": {**_COMMON, **_TOL, **_SEEDED},
}
COMMANDS = tuple(_SCHEMA)
# keys that choose the same thing; a config gives at most one of each pair
_EXCLUSIVE = (("epsilons", "epsilon"), ("epsilons", "epsilon_count"))


def _random_args(spec: dict, seed, path: str) -> tuple[int, dict]:
    """The seed and keyword arguments of a ``random`` spec; its own seed wins."""
    kwargs = dict(spec["random"])
    own = kwargs.pop("seed")
    if own is None and seed is None:
        raise UsageError(f"{path}.random.seed is required when the config has no seed")
    if own is None and seed < 0:
        raise UsageError(f"{path}.random.seed falls back to the config seed {seed}, below 0")
    return (seed if own is None else own), kwargs


def _build_class(form: str, spec: dict, seed, path: str) -> EvaluatedClass:
    if form == "random":
        seed, kwargs = _random_args(spec, seed, path)
        return random_evaluated_class(seed, **kwargs)
    envelope = spec["envelope_b"]
    if envelope is None:
        envelope = float(np.abs(spec["evals"]).max(initial=0.0))
    return EvaluatedClass(spec["evals"], envelope)


def _build_instance(form: str, spec: dict, seed, path: str) -> DiscreteInstance:
    if form == "random":
        seed, kwargs = _random_args(spec, seed, path)
        return random_discrete_instance(seed, **kwargs)
    dist = DiscreteDistribution(spec["support"], spec["probs"])
    if form == "family":
        return identity_instance(dist)
    # envelope semantics belong to the bounded-difference audit, so an
    # understated value must reach it rather than fail at construction
    return DiscreteInstance.from_table(spec["table"], spec["envelope_b"], dist, check_envelope=False)


def _check_batches(command: str, cfg: dict) -> None:
    """Refuse, from a random spec's shape alone, a batch that the command would
    refuse only after drawing the spec's table: the count matrix of a tail
    chunk on the support, or the signs and sums of a Monte Carlo rademacher."""
    if command == "tail" and cfg["instance"][0] == "random":
        concentration.check_tail_trials(cfg["instance"][1]["random"]["support_size"], cfg["trials"])
    # "auto" may fall back to Monte Carlo; a class that the exact kernel takes passes
    if command == "rademacher" and cfg["class"][0] == "random" and cfg["method"] != "exact":
        shape, auto = cfg["class"][1]["random"], cfg["method"] == "auto"
        complexity.check_mc_draws(shape["m"], shape["n"], cfg["draws"], sign_cap=cfg["caps"]["sign"] if auto else None)


def _parse(config: dict) -> dict:
    """The config converted by its command's schema, with its class or instance built.

    Raises UsageError, naming the key, on anything the schema rejects.
    """
    command = config.get("command")
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    cfg = _fields(_SCHEMA[command], config, command)
    for first, second in _EXCLUSIVE:
        if cfg.get(first) is not None and second in config:
            raise UsageError(f"{command}.{first} and {command}.{second} cannot both be given")
    _check_batches(command, cfg)
    if "class" in cfg:
        cfg["class"] = _build_class(*cfg["class"], cfg["seed"], f"{command}.class")
    if "instance" in cfg:
        cfg["instance"] = _build_instance(*cfg["instance"], cfg["seed"], f"{command}.instance")
    return cfg


# ---------------------------------------------------------------------------
# Command handlers: each takes a parsed config and returns its JSON-ready rows
# ---------------------------------------------------------------------------


# the check that a row of each kind certifies; any other kind names its own check
_CHECKS = {
    "rademacher": "without_abs_le_abs", "tail": "tail_bound",
    "linear": "linear_bound", "dudley": "dudley_bound",
}
# the message of each check's violation, formatted from its failed row; a
# check not listed here is its own message
_MESSAGES = {
    "without_abs_le_abs": "without-abs value {without_abs!r} exceeds absolute value {value!r}",
    "expectation_bound": (
        "expected deviation {expected_deviation!r} exceeds twice the complexity {twice_rademacher!r}"
    ),
    "bounded_difference_audit": (
        "max single-coordinate delta {max_observed_delta!r} exceeds 2b/n = {theoretical_cap!r}; "
        "the declared envelope is not a true bound"
    ),
    "symmetrization": "symmetrization identity off by {abs_diff!r} (lhs={lhs!r}, rhs={rhs!r})",
    "tail_bound": (
        "simulated exceedance {value!r} significantly exceeds the bound {theoretical!r} at epsilon {x!r}"
    ),
    "linear_bound": "exact complexity {value!r} exceeds the {method} bound {bound!r}",
    "dudley_bound": "without-abs complexity {lhs!r} exceeds the entropy bound {value!r} at radius {x!r}",
    "rademacher_mc_consistency": (
        "MC estimate {mc!r} is more than 5 std_error {std_error!r} from the exact {exact!r}"
    ),
    "box_vertices": "vertex class value {vertices!r} differs from the dual-norm closed form {dual_norm!r}",
}


def _violations(rows: list[dict]) -> list[dict]:
    """One violation per row whose ``passed`` is false, in row order, with the
    row as its payload.  A row without ``passed`` records no verdict, and a
    suite row that carries ``rows`` stands for those rows."""
    violations = []
    for row in rows:
        if "rows" in row:
            violations += _violations(row["rows"])
        elif not row.get("passed", True):
            check = _CHECKS.get(row["kind"], row["kind"])
            message = _MESSAGES.get(check, check).format_map(row)
            violations.append({"check": check, "message": message, "payload": row})
    return violations


def _cmd_rademacher(cfg: dict, threads: int):
    cls, method = cfg["class"], cfg["method"]
    comparison = None
    if method != "mc":  # "auto" falls back to Monte Carlo where the sign cap refuses the exact kernel
        try:
            comparison = complexity.check_without_abs_le_abs(cls, sign_cap=cfg["caps"]["sign"])
        except ExactEnumerationLimit:
            if method == "exact":
                raise
    row = {}
    if comparison is not None:
        value = complexity.ComplexityResult(comparison.with_abs, complexity.Method.EXACT_ENUMERATION)
        row = {"without_abs": comparison.without_abs, "comparison_slack": comparison.slack}
        if not comparison.passed:  # a passing row has no passed field
            row["passed"] = False
    else:
        if cfg["seed"] is None:
            raise UsageError("rademacher.seed is required by the Monte Carlo method")
        value = complexity.empirical_rademacher_mc(cls, cfg["draws"], cfg["seed"], threads=threads)
    return [{
        "kind": "rademacher",
        "x": cls.n,
        "value": value.value,
        "method": value.method.value,
        "seed": value.seed,
        "draws": value.draws,
        "std_error": value.std_error,
        **row,
    }]


def _cmd_deviation(cfg: dict, threads: int):
    inst, n, caps = cfg["instance"], cfg["n"], cfg["caps"]
    cls = inst.support_class
    bound = deviation.verify_expectation_bound(
        cls, inst.dist, n, tol=cfg["tol"], product_cap=caps["product"], sign_cap=caps["sign"]
    )
    audit = deviation.audit_bounded_difference(cls, inst.dist, n, cap=caps["product"])
    return [
        {"kind": "expectation_bound", **vars(bound)},
        {"kind": "bounded_difference_audit", **vars(audit)},
    ]


def _cmd_symmetrize(cfg: dict, threads: int):
    inst = cfg["instance"]
    report = deviation.check_symmetrization_identity(
        inst.support_class, inst.dist, cfg["n"], tol=cfg["tol"], cap=cfg["caps"]["product"]
    )
    return [{"kind": "symmetrization", **vars(report)}]


def _cmd_tail(cfg: dict, threads: int):
    inst, n, seed, trials, caps = cfg["instance"], cfg["n"], cfg["seed"], cfg["trials"], cfg["caps"]
    epsilons = cfg["epsilons"] if cfg["epsilons"] is not None else [cfg["epsilon"]]
    try:  # the exact product-measure complexity within the caps, else a seeded Monte Carlo estimate
        rn = complexity.expected_rademacher(
            inst.support_class, inst.dist, n, product_cap=caps["product"], sign_cap=caps["sign"]
        )
    except ExactEnumerationLimit:
        rn = complexity.expected_rademacher_mc(
            inst.support_class, inst.dist, n, cfg["rademacher_draws"], derive_seed(seed, "rn"),
            threads=threads, sign_cap=caps["sign"],
        )
    rows = []
    for i, eps in enumerate(epsilons):
        experiment = concentration.simulate_tail(
            inst.support_class, inst.dist, n, eps, trials, derive_seed(seed, f"tail:{i}"), rn.value,
            threads=threads,
        )
        verdict = concentration.verify_tail_bound(experiment)
        rows.append({
            "kind": "tail",
            "x": eps,
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
        })
    return rows


def _cmd_linear(cfg: dict, threads: int):
    seed = cfg["seed"]
    regime = _REGIMES[cfg["regime"]](cfg["weight_radius"], cfg["input_radius"])
    seeds = [derive_seed(seed, f"linear:{i}") for i in range(cfg["count"])]
    reports = linear.verify_random_linear_bounds(
        seeds, regime, cfg["d"], cfg["n"], cfg["m"], tol=cfg["tol"], sign_cap=cfg["caps"]["sign"]
    )
    return [
        {
            "kind": "linear",
            "x": i,
            "value": report.exact,
            "bound": report.bound,
            "slack": report.slack,
            "method": report.regime,
            "seed": seed,
            "passed": report.passed,
        }
        for i, report in enumerate(reports)
    ]


def _cmd_dudley(cfg: dict, threads: int):
    cls, caps = cfg["class"], cfg["caps"]
    epsilons = cfg["epsilons"]
    if epsilons is None:
        epsilons = entropy.default_radii(cls, cfg["epsilon_count"])
    else:  # the admissible radii depend on the class, so the schema cannot check them
        half = entropy.largest_norm(cls) / 2.0
        for i, eps in enumerate(epsilons):
            if not 0.0 < eps < half:
                raise UsageError(f"dudley.epsilons[{i}] must lie in (0, {half}), got {eps}")
    report = entropy.verify_dudley(
        cls, epsilons, cover_method=cfg["cover"], tol=cfg["tol"], grid_points=cfg["grid_points"],
        sign_cap=caps["sign"], cover_cap=caps["cover"],
    )
    return [
        {
            "kind": "dudley",
            "x": entry.epsilon,
            "value": entry.bound,
            "lhs": report.without_abs,
            "slack": entry.slack,
            "method": report.cover_method.value,
            "seed": cfg["seed"] or 0,
            "passed": entry.passed,
        }
        for entry in report.entries
    ]


def _box_closed_form(points: list[list[float]]) -> float:
    """The exact Rademacher complexity on ``points`` of the linear class with weights in
    [-1, 1]^d: the mean over sign vectors of the dual (l1) norm of (1/n) sum_k sigma_k x_k."""
    n = len(points)
    return math.fsum(
        math.fsum(abs(math.fsum(s * x for s, x in zip(signs, column)) / n) for column in zip(*points))
        for signs in itertools.product((-1.0, 1.0), repeat=n)
    ) / 2**n


def _cmd_suite(cfg: dict, threads: int):
    """A bundled smoke corpus exercising every verification harness.

    A check that a command makes runs as a small config through that command's
    handler, and its row carries the handler's rows; the other checks run here.
    """
    seed = cfg["seed"]
    results = []

    def record(kind: str, passed: bool, **fields):
        results.append({"kind": kind, "passed": passed, **fields})

    def run(config: dict, threads: int = threads):
        shared = {key: cfg[key] for key in ("caps", "tol") if key in _SCHEMA[config["command"]]}
        parsed = _parse({**shared, **config})
        return _HANDLERS[parsed["command"]](parsed, threads)

    def check(kind: str, config: dict) -> list[dict]:
        rows = run(config)
        passed = not _violations(rows)
        results.append({"kind": kind, "passed": passed, "command": config["command"], "rows": rows})
        return rows

    def random_spec(label: str, **shape) -> dict:
        return {"random": {**shape, "seed": derive_seed(seed, label)}}

    # the without-abs comparison, and estimator consistency from two rows
    rademacher = {"command": "rademacher", "class": random_spec("class", m=3, n=6)}
    mc_config = {**rademacher, "method": "mc", "draws": 20_000, "seed": derive_seed(seed, "mc")}
    exact = check("without_abs_le_abs", {**rademacher, "method": "exact"})[0]
    mc = run(mc_config)[0]
    record(
        "rademacher_mc_consistency",
        abs(mc["value"] - exact["value"]) <= 5.0 * mc["std_error"],
        exact=exact["value"], mc=mc["value"], std_error=mc["std_error"],
    )
    # exact identities and bounds on small random instances
    sym_config = {"command": "symmetrize", "instance": random_spec("instance", m=3, support_size=2), "n": 2}
    check("symmetrization", sym_config)
    dev_config = {"command": "deviation", "instance": random_spec("instance3", m=3, support_size=3), "n": 3}
    check("expectation_bound_and_audit", dev_config)

    sharp = identity_instance(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]))
    sharp_audit = deviation.audit_bounded_difference(sharp.support_class, sharp.dist, 2)
    record(
        "bounded_difference_attained",
        sharp_audit.max_observed_delta >= 0.5 * sharp_audit.theoretical_cap,
        max_observed_delta=sharp_audit.max_observed_delta,
        theoretical_cap=sharp_audit.theoretical_cap,
    )

    # tail bound on the identity family
    identity = {"family": "identity", "support": [-1.0, 1.0], "probs": [0.5, 0.5]}
    tail_config = {"command": "tail", "instance": identity, "n": 4, "epsilon": 0.5, "trials": 2000}
    tail_config["seed"] = derive_seed(seed, "tail")
    check("tail_bound", tail_config)

    # closed-form round trip
    deltas = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 10))
    worst = max(
        abs(concentration.mcdiarmid_bound(concentration.high_probability_epsilon(d, 8, 1.0), 8, 1.0) - d) / d
        for d in deltas
    )
    record("epsilon_roundtrip", bool(worst <= 1e-12), worst_relative_error=float(worst))

    # linear bounds
    for regime in _REGIMES:
        linear_config = {"command": "linear", "regime": regime, "d": 4, "n": 6, "m": 4, "count": 10}
        check(f"linear_{regime}", {**linear_config, "seed": derive_seed(seed, regime)})

    # Massart on random classes
    worst_slack = np.inf
    for i in range(20):
        rc = random_evaluated_class(derive_seed(seed, f"massart:{i}"), m=5, n=6)
        slack = linear.massart_bound(rc) - complexity.empirical_rademacher_without_abs(rc).value
        worst_slack = min(worst_slack, slack)
    record("massart_bound", worst_slack >= -1e-10, worst_slack=float(worst_slack))

    # covering consistency and the entropy integral
    cov_cls = random_evaluated_class(derive_seed(seed, "cover"), m=6, n=4)
    c = entropy.largest_norm(cov_cls)
    radii = np.linspace(0.1 * c, 1.2 * c, 4).tolist()
    exact_sizes = [entropy.covering_number_exact(cov_cls, eps).size for eps in radii]
    greedy_sizes = [entropy.covering_number_greedy(cov_cls, eps).size for eps in radii]
    ordered = exact_sizes == sorted(exact_sizes, reverse=True)
    record("covering_numbers", ordered and all(e <= g for e, g in zip(exact_sizes, greedy_sizes)))

    for cover in ("exact", "greedy"):
        dudley_config = {"command": "dudley", "class": random_spec("dudley", m=6, n=6), "epsilon_count": 6}
        check(f"dudley_{cover}", {**dudley_config, "cover": cover})

    # the box [-1, 1]^2 of linear weights on two points: its vertex class against the closed form
    points = [[1.0, -0.5], [0.5, 1.0]]
    vertices = np.array(list(itertools.product((-1.0, 1.0), repeat=2)))
    vertex_cls = EvaluatedClass((vertices[:, None] * np.array(points)).sum(axis=2), 2.0)
    value, closed = complexity.empirical_rademacher(vertex_cls).value, _box_closed_form(points)
    record("box_vertices", abs(value - closed) <= cfg["tol"], vertices=value, dual_norm=closed)

    # thread-count independence of the seeded estimators
    mc1, mc4, tail1, tail4 = (run(c, t) for c in (mc_config, tail_config) for t in (1, 4))
    record(
        "determinism", mc1 == mc4 and tail1 == tail4,
        mc_value=mc1[0]["value"], exceed_count=tail1[0]["exceed_count"],
    )
    return results


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


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _run(config: dict, threads: int) -> tuple[dict, str]:
    """The report of ``run_experiment`` and the canonical string of its config."""
    started = time.perf_counter()
    cfg = _parse(config)
    results = _HANDLERS[cfg["command"]](cfg, threads)
    canonical = _canonical(config)
    return {
        "command": cfg["command"],
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": config.get("seed"),
        "config": config,
        "results": results,
        "violations": _violations(results),
        "wall_ms": (time.perf_counter() - started) * 1000.0,
    }, canonical


def run_experiment(config: dict, *, threads: int = 1) -> dict:
    """Check one effective config, a JSON-ready dict, against its schema, run
    it, and assemble its JSON-ready report; the report embeds the config as given."""
    return _run(config, threads)[0]


def _report_json(report: dict, canonical_config: str) -> str:
    """``json.dumps(report, sort_keys=True, separators=(",", ":"))`` around the
    config's canonical string, which sorts second: "command" < "config" < the rest."""
    rest = _canonical({k: v for k, v in report.items() if k not in ("command", "config")})
    return f'{{"command":{json.dumps(report["command"])},"config":{canonical_config},{rest[1:]}'


def canonical_report(report: dict) -> str:
    """The report without its timing field, serialized canonically.

    Two runs of the same effective config must agree on this string exactly,
    whatever the thread count.
    """
    stripped = {k: v for k, v in report.items() if k != "wall_ms"}
    return json.dumps(stripped, sort_keys=True, indent=2)


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
    shared = set(results[0]).intersection(*results[1:])
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


# built once at import; every parse_args call fills a new namespace from the defaults
_PARSER = argparse.ArgumentParser(
    prog="genbound",
    description="Certify generalization-bound inequalities on finite models.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="JSON experiment config")
_PARSER.add_argument("--seed", type=int, default=None, help="overrides the config seed")
_PARSER.add_argument("--out", default=None, help="report path (default: genbound_report.json)")
_PARSER.add_argument("--format", choices=("json", "csv"), default="json")
_PARSER.add_argument("--threads", type=int, default=1)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or text encoding
        print(f"genbound: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        if not isinstance(config, dict):
            raise UsageError("config must be a JSON object")
        declared = config.get("command")
        if declared is not None and declared != args.command:
            raise UsageError(f"config declares command {declared!r} but {args.command!r} was requested")
        config = {**config, "command": args.command}
        if args.seed is not None:
            config["seed"] = args.seed
        out = args.out or config.get("out") or "genbound_report.json"
        report, canonical = _run(config, max(1, args.threads))
        if args.format == "csv":
            emit_curve(report["results"], out)
        else:
            with open(out, "w") as handle:
                handle.write(_report_json(report, canonical) + "\n")
    except GenboundError as exc:
        print(f"genbound: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"genbound: cannot write report: {exc}", file=sys.stderr)
        return 1

    for violation in report["violations"]:
        print(f"VIOLATION [{violation['check']}]: {violation['message']}", file=sys.stderr)
    passed = len(report["violations"]) == 0
    print(f"genbound {args.command}: {'ok' if passed else 'FAILED'} ({out})")
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
