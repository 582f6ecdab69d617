import copy
import functools
import itertools
import json
import math
import os
import platform
import resource
import runpy
import subprocess
import sys
import time
import tomllib
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genbound
from genbound import cli, complexity, concentration, core, deviation, entropy, linear
from genbound.cli import (
    UsageError,
    _parse,
    canonical_report,
    config_hash,
    emit_curve,
    main,
    run_experiment,
)
from genbound.core import EvaluatedClass, derive_seed
from genbound.instances import DiscreteInstance, random_discrete_instance, random_evaluated_class

from conftest import oracle_orbit_draws

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def load(path):
    with open(path) as handle:
        return json.load(handle)


class TestCommands:
    def test_rademacher_inline_exact(self, tmp_path):
        cfg = write_config(
            tmp_path, "rad.json", {"class": {"evals": [[1.0, 1.0]], "envelope_b": 1.0}}
        )
        out = str(tmp_path / "report.json")
        assert main(["rademacher", "--config", cfg, "--out", out]) == 0
        report = load(out)
        assert report["command"] == "rademacher"
        assert report["results"][0]["value"] == 0.5
        assert report["results"][0]["method"] == "exact_enumeration"
        assert set(report) >= {"config_hash", "seed", "command", "results", "violations", "wall_ms"}

    def test_rademacher_mc_needs_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "rad.json",
            {"class": {"evals": [[1.0, 1.0]]}, "method": "mc", "draws": 500},
        )
        assert main(["rademacher", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1

    def test_understated_envelope_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "dev.json",
            {
                "instance": {
                    "table": [[0.0, 1.0]],
                    "support": [0.0, 1.0],
                    "probs": [0.5, 0.5],
                    "envelope_b": 0.1,
                },
                "n": 2,
            },
        )
        out = str(tmp_path / "report.json")
        assert main(["deviation", "--config", cfg, "--out", out]) == 2
        report = load(out)
        checks = {v["check"] for v in report["violations"]}
        assert "bounded_difference_audit" in checks

    def test_symmetrize(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sym.json",
            {"instance": {"random": {"m": 3, "support_size": 2, "seed": 5}}, "n": 2},
        )
        out = str(tmp_path / "report.json")
        assert main(["symmetrize", "--config", cfg, "--out", out]) == 0
        assert load(out)["results"][0]["abs_diff"] <= 1e-10

    def test_tail(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "tail.json",
            {
                "instance": {"random": {"m": 3, "support_size": 2, "seed": 4}},
                "n": 4,
                "epsilons": [0.25, 0.5],
                "trials": 2000,
                "seed": 9,
            },
        )
        out = str(tmp_path / "report.json")
        assert main(["tail", "--config", cfg, "--out", out]) == 0
        rows = load(out)["results"]
        assert len(rows) == 2 and all(r["passed"] for r in rows)

    def test_linear(self, tmp_path):
        cfg = write_config(
            tmp_path, "lin.json", {"regime": "l1", "d": 5, "n": 5, "m": 3, "count": 5, "seed": 2}
        )
        out = str(tmp_path / "report.json")
        assert main(["linear", "--config", cfg, "--out", out]) == 0

    @pytest.mark.parametrize(
        "config",
        [
            {"instance": {"family": "identity", "support": [-1.0, 1.0], "probs": [0.5, 0.5]}, "epsilon": 1e300},
            {"instance": {"table": [[1e-200, -1e-200]], "support": [-1.0, 1.0], "probs": [0.5, 0.5],
                          "envelope_b": 1e-200}},
        ],
        ids=["eps squared overflows", "envelope squared underflows"],
    )
    def test_tail_bound_with_squares_outside_the_float_range(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, "tail.json", {**config, "n": 4, "seed": 1, "trials": 1000})
        out = tmp_path / "report.json"
        assert main(["tail", "--config", cfg, "--out", str(out)]) in (0, 2)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and len(captured.out.splitlines()) == 1
        (row,) = load(out)["results"]
        assert row["theoretical"] == 0.0

    def test_tail_mc_fallback_above_product_cap(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "tail.json",
            {
                "instance": {"random": {"m": 2, "support_size": 2, "seed": 3}},
                "n": 4,
                "epsilon": 0.5,
                "trials": 2000,
                "seed": 5,
                "caps": {"product": 10},
                "rademacher_draws": 500,
            },
        )
        out = str(tmp_path / "report.json")
        assert main(["tail", "--config", cfg, "--out", out]) == 0
        row = load(out)["results"][0]
        assert row["method"] == "monte_carlo"
        assert row["rademacher_std_error"] > 0.0

    def test_tail_mc_fallback_over_several_chunks_matches_per_draw_values(self, tmp_path):
        config = {
            "instance": {"random": {"m": 2, "support_size": 2, "seed": 3}},
            "n": 4,
            "trials": 1000,
            "seed": 5,
            "caps": {"product": 10},
            "rademacher_draws": complexity._MC_CHUNK + 9,
        }
        cfg = write_config(tmp_path, "tail.json", config)
        reports = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"report{threads}.json")
            assert main(["tail", "--config", cfg, "--out", out, "--threads", threads]) == 0
            reports.append(load(out))
        assert canonical_report(reports[0]) == canonical_report(reports[1])
        inst = random_discrete_instance(3, m=2, support_size=2)
        draws, rn_seed = config["rademacher_draws"], derive_seed(5, "rn")
        # each draw takes the orbit its one word picks, and that orbit's exact sign average
        reps, orbit = oracle_orbit_draws(inst.dist, 4, rn_seed, draws)
        values = np.array([complexity._orbit_averages(inst.table, rep[None])[0] for rep in reps])
        exact = [complexity.empirical_rademacher(EvaluatedClass(inst.table[:, rep], 1.0)).value for rep in reps]
        np.testing.assert_allclose(values, exact, rtol=1e-12)
        expected = complexity._mc_result(values[orbit], draws, rn_seed)
        row = reports[0]["results"][0]
        assert (row["rademacher_value"], row["rademacher_std_error"]) == (expected.value, expected.std_error)

    @pytest.mark.parametrize("draws", [0, 1, 99])
    def test_tail_mc_fallback_needs_a_hundred_draws(self, tmp_path, capsys, draws):
        cfg = write_config(
            tmp_path,
            "tail.json",
            {
                "instance": {"random": {"m": 2, "support_size": 2, "seed": 3}},
                "n": 4,
                "trials": 2000,
                "seed": 5,
                "caps": {"product": 10},
                "rademacher_draws": draws,
            },
        )
        assert main(["tail", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err == "genbound: Monte Carlo estimation needs at least 100 draws\n"

    @pytest.mark.parametrize(
        "caps, method",
        [
            ({"product": 81}, "exact_enumeration"),  # 3**4 tuples
            ({"product": 80}, "monte_carlo"),
            ({"sign": 4}, "exact_enumeration"),  # n = 4
            ({"sign": 3}, "monte_carlo"),
        ],
        ids=["product 81", "product 80", "sign 4", "sign 3"],
    )
    def test_tail_method_at_the_cap_edges(self, tmp_path, caps, method):
        config = {
            "instance": {"random": {"m": 2, "support_size": 3, "seed": 3}},
            "n": 4,
            "trials": 1000,
            "seed": 5,
            "caps": caps,
            "rademacher_draws": 100,
        }
        out = str(tmp_path / "report.json")
        assert main(["tail", "--config", write_config(tmp_path, "tail.json", config), "--out", out]) == 0
        assert load(out)["results"][0]["method"] == method

    @pytest.mark.parametrize(
        "method, sign_cap, seed, status, expected",
        [
            ("auto", 6, None, 0, "exact_enumeration"),  # n = 6
            ("auto", 5, 3, 0, "monte_carlo"),
            ("auto", 5, None, 1, "genbound: rademacher.seed is required by the Monte Carlo method"),
            ("exact", 5, 3, 1, "genbound: exact sign averaging for n=6 exceeds the exact-enumeration cap of 5"),
            ("mc", 6, 3, 0, "monte_carlo"),
        ],
    )
    def test_rademacher_method_at_the_sign_cap_edge(
        self, tmp_path, capsys, method, sign_cap, seed, status, expected
    ):
        config = {"class": {"random": {"m": 3, "n": 6, "seed": 2}}, "method": method, "draws": 200,
                  "caps": {"sign": sign_cap}}
        if seed is not None:
            config["seed"] = seed
        cfg, out = write_config(tmp_path, "rad.json", config), str(tmp_path / "report.json")
        assert main(["rademacher", "--config", cfg, "--out", out]) == status
        if status == 0:
            assert load(out)["results"][0]["method"] == expected
        else:
            assert capsys.readouterr().err == expected + "\n"

    def test_tail_mc_fallback_above_sign_cap(self, tmp_path):
        config = {
            "instance": {"random": {"m": 3, "support_size": 2, "seed": 4}},
            "n": 6,
            "trials": 2000,
            "seed": 5,
            "caps": {"sign": 4},
            "rademacher_draws": 200,
        }
        cfg = write_config(tmp_path, "tail.json", config)
        reports = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"report{threads}.json")
            assert main(["tail", "--config", cfg, "--out", out, "--threads", threads]) == 0
            reports.append(load(out))
        assert canonical_report(reports[0]) == canonical_report(reports[1])
        row = reports[0]["results"][0]
        assert row["method"] == "monte_carlo"
        inst = random_discrete_instance(4, m=3, support_size=2)
        exact = complexity.expected_rademacher(inst.support_class, inst.dist, 6).value
        assert abs(row["rademacher_value"] - exact) <= 5.0 * row["rademacher_std_error"]

    def test_suite(self, tmp_path):
        cfg = write_config(tmp_path, "suite.json", {"seed": 2026})
        out = str(tmp_path / "report.json")
        assert main(["suite", "--config", cfg, "--out", out]) == 0
        report = load(out)
        assert all(r["passed"] for r in report["results"])

    def test_bad_config_path(self, tmp_path):
        assert main(["suite", "--config", str(tmp_path / "missing.json")]) == 1

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["suite", "--config", str(path)]) == 1

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"command": "tail", "seed": 1})
        assert main(["suite", "--config", cfg]) == 1


def with_tol(monkeypatch, module, name, tol):
    """Run ``module.name`` with ``tol`` whatever the caller passes."""
    check = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: check(*args, **{**kwargs, "tol": tol}))


class TestViolations:
    """A failed check keeps its row, with passed false, and that row is the
    payload of the one violation it adds."""

    def run_failing(self, tmp_path, capsys, command, config, check):
        cfg = write_config(tmp_path, "c.json", config)
        out = str(tmp_path / "report.json")
        assert main([command, "--config", cfg, "--out", out]) == 2
        report = load(out)
        failed = [row for row in report["results"] if row.get("passed") is False]
        assert failed
        assert [v["check"] for v in report["violations"]] == [check] * len(failed)
        assert [v["payload"] for v in report["violations"]] == failed
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"VIOLATION [{check}]: {v['message']}" for v in report["violations"]]
        assert "Traceback" not in "".join(lines)
        return report

    def test_without_abs_le_abs(self, tmp_path, capsys, monkeypatch):
        with_tol(monkeypatch, complexity, "check_without_abs_le_abs", -1.0)
        config = {"class": {"random": {"m": 3, "n": 6, "seed": 1}}, "method": "exact"}
        report = self.run_failing(tmp_path, capsys, "rademacher", config, "without_abs_le_abs")
        row = report["results"][0]
        assert report["violations"][0]["message"] == (
            f"without-abs value {row['without_abs']!r} exceeds absolute value {row['value']!r}"
        )

    def test_expectation_bound(self, tmp_path, capsys, monkeypatch):
        with_tol(monkeypatch, deviation, "verify_expectation_bound", -1.0)
        config = {"instance": RANDOM_INSTANCE, "n": 3}
        report = self.run_failing(tmp_path, capsys, "deviation", config, "expectation_bound")
        assert [(r["kind"], r["passed"]) for r in report["results"]] == [
            ("expectation_bound", False), ("bounded_difference_audit", True)
        ]

    def test_understated_envelope(self, tmp_path, capsys):
        table = {"table": [[0.0, 1.0]], "support": [0.0, 1.0], "probs": [0.5, 0.5], "envelope_b": 0.1}
        report = self.run_failing(
            tmp_path, capsys, "deviation", {"instance": table, "n": 2}, "bounded_difference_audit"
        )
        assert report["results"][1]["kind"] == "bounded_difference_audit"

    def test_symmetrization(self, tmp_path, capsys, monkeypatch):
        with_tol(monkeypatch, deviation, "check_symmetrization_identity", -1.0)
        config = {"instance": RANDOM_INSTANCE, "n": 2}
        report = self.run_failing(tmp_path, capsys, "symmetrize", config, "symmetrization")
        assert report["results"][0]["abs_diff"] <= 1e-10

    def test_tail_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(concentration, "mcdiarmid_bound", lambda *args: 0.0)
        config = {"instance": RANDOM_INSTANCE, "n": 4, "epsilons": [0.0, 0.1, 0.5], "trials": 1000, "seed": 9}
        report = self.run_failing(tmp_path, capsys, "tail", config, "tail_bound")
        # the largest epsilon sees no exceedance, so a zero bound still holds there
        assert [r["passed"] for r in report["results"]] == [False, False, True]

    def test_linear_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linear, "l2_bound", lambda *args: 0.0)
        config = {"regime": "l2", "count": 3, "seed": 2}
        report = self.run_failing(tmp_path, capsys, "linear", config, "linear_bound")
        assert [r["x"] for r in report["results"]] == [0, 1, 2]
        assert report["violations"][0]["message"].endswith("exceeds the l2 bound 0.0")

    def test_dudley_bound_keeps_every_radius(self, tmp_path, capsys, monkeypatch):
        epsilons = [0.05, 0.1, 0.2, 0.3]
        cls = random_evaluated_class(6, m=4, n=5)
        slacks = sorted(e.slack for e in entropy.verify_dudley(cls, epsilons).entries)
        with_tol(monkeypatch, entropy, "verify_dudley", -(slacks[0] + slacks[1]) / 2.0)
        config = {"class": {"random": {"m": 4, "n": 5, "seed": 6}}, "epsilons": epsilons}
        report = self.run_failing(tmp_path, capsys, "dudley", config, "dudley_bound")
        assert [r["x"] for r in report["results"]] == epsilons
        assert sum(not r["passed"] for r in report["results"]) == 1

    def test_box_vertices_refuses_a_wrong_closed_form(self, tmp_path, capsys, monkeypatch):
        # the l2 norm in place of the dual (l1) norm of the box's mean sign-weighted point
        def l2_closed_form(points):
            n = len(points)
            norms = [
                math.sqrt(math.fsum((math.fsum(s * x for s, x in zip(signs, column)) / n) ** 2
                                    for column in zip(*points)))
                for signs in itertools.product((-1.0, 1.0), repeat=n)
            ]
            return math.fsum(norms) / 2**n

        monkeypatch.setattr(cli, "_box_closed_form", l2_closed_form)
        report = self.run_failing(tmp_path, capsys, "suite", {"seed": 1}, "box_vertices")
        row = report["violations"][0]["payload"]
        assert row["vertices"] == 1.0 and row["dual_norm"] < 1.0
        assert report["violations"][0]["message"] == (
            f"vertex class value 1.0 differs from the dual-norm closed form {row['dual_norm']!r}"
        )

    def test_suite_reports_nested_and_inline_failures_in_row_order(self, tmp_path, capsys, monkeypatch):
        # one failure inside the symmetrize handler's rows, one in the suite's own epsilon_roundtrip row
        with_tol(monkeypatch, deviation, "check_symmetrization_identity", -1.0)
        monkeypatch.setattr(concentration, "mcdiarmid_bound", lambda *args: 0.0)
        cfg = write_config(tmp_path, "c.json", {"seed": 1})
        out = str(tmp_path / "report.json")
        assert main(["suite", "--config", cfg, "--out", out]) == 2
        report = load(out)
        rows = {row["kind"]: row for row in report["results"]}
        assert [row["kind"] for row in report["results"] if not row["passed"]] == [
            "symmetrization", "epsilon_roundtrip"
        ]
        assert [v["check"] for v in report["violations"]] == ["symmetrization", "epsilon_roundtrip"]
        nested = rows["symmetrization"]["rows"]
        assert len(nested) == 1 and nested[0]["passed"] is False
        assert [v["payload"] for v in report["violations"]] == [nested[0], rows["epsilon_roundtrip"]]
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"VIOLATION [{v['check']}]: {v['message']}" for v in report["violations"]]


EVALS = {"evals": [[1.0, -1.0]]}
HUGE_TABLE = {"table": [[1e308, -1e308]], "support": [0.0, 1.0], "probs": [0.5, 0.5], "envelope_b": 1e308}
RANDOM_INSTANCE = {"random": {"m": 3, "support_size": 2, "seed": 4}}


class TestConfigErrors:
    # (command, config, the key the message names; None where there is none)
    CASES = {
        "unknown key": ("rademacher", {"class": EVALS, "methd": "mc"}, "rademacher.methd"),
        "unknown nested key": ("rademacher", {"class": EVALS, "caps": {"sgn": 4}}, "rademacher.caps.sgn"),
        # no check of these two commands compares within a tolerance
        "rademacher tol": ("rademacher", {"class": EVALS, "tol": 1e6}, "unknown key rademacher.tol"),
        "tail tol": ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "tol": 1e6}, "unknown key tail.tol"),
        "unknown key of a form": (
            "rademacher",
            {"class": {**EVALS, "random": {"m": 1, "n": 2, "seed": 1}}},
            "rademacher.class.evals",
        ),
        "missing key": ("tail", {"instance": RANDOM_INSTANCE, "seed": 1}, "tail.n"),
        "missing nested key": (
            "rademacher", {"class": {"random": {"n": 4, "seed": 1}}}, "rademacher.class.random.m"
        ),
        "missing seed": ("linear", {}, "linear.seed"),
        "missing random seed": ("dudley", {"class": {"random": {"m": 2, "n": 3}}}, "dudley.class.random.seed"),
        "no form key": ("deviation", {"instance": {"support": [0.0]}, "n": 2}, "deviation.instance"),
        "wrong type": ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "trials": "abc", "seed": 1}, "tail.trials"),
        "wrong nested type": (
            "symmetrize",
            {"instance": {"random": {"m": "x", "support_size": 2, "seed": 1}}, "n": 2},
            "symmetrize.instance.random.m",
        ),
        "null required value": ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": None}, "tail.seed"),
        "bad method": ("rademacher", {"class": EVALS, "method": "fast"}, "rademacher.method"),
        "bad regime": ("linear", {"regime": "l3", "seed": 1}, "linear.regime"),
        "bad cover": ("dudley", {"class": EVALS, "cover": "approx"}, "dudley.cover"),
        "bad family": (
            "symmetrize",
            {"instance": {"family": "square", "support": [0.0, 1.0], "probs": [0.5, 0.5]}, "n": 2},
            "symmetrize.instance.family",
        ),
        "class not an object": ("rademacher", {"class": [[1.0]]}, "rademacher.class"),
        "caps not an object": ("rademacher", {"class": EVALS, "caps": 5}, "rademacher.caps"),
        "random spec not an object": (
            "deviation", {"instance": {"random": 3}, "n": 2}, "deviation.instance.random"
        ),
        "ragged array": ("rademacher", {"class": {"evals": [[1.0, 2.0], [3.0]]}}, "rademacher.class.evals"),
        "scalar epsilons": (
            "tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilons": 0.5}, "tail.epsilons"
        ),
        "epsilon and epsilons": (
            "tail",
            {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilon": 0.3, "epsilons": [0.2]},
            "tail.epsilon",
        ),
        "epsilons and epsilon_count": (
            "dudley", {"class": EVALS, "epsilons": [0.1], "epsilon_count": 3}, "dudley.epsilon_count"
        ),
        # numpy would read each of these leaves as a number
        "string in an array": ("rademacher", {"class": {"evals": [["0.5", True]]}}, "rademacher.class.evals"),
        "boolean among numbers": ("rademacher", {"class": {"evals": [[True, 0.5]]}}, "rademacher.class.evals"),
        "null in an array": (
            "deviation",
            {"instance": {"table": [[0.0, None]], "support": [0.0, 1.0], "probs": [0.5, 0.5], "envelope_b": 1.0},
             "n": 2},
            "deviation.instance.table",
        ),
        "boolean probability": (
            "symmetrize",
            {"instance": {"family": "identity", "support": [0.0, 1.0], "probs": [True, 0.0]}, "n": 2},
            "symmetrize.instance.probs",
        ),
        "NaN probability": (
            "deviation",
            {"instance": {"table": [[0.0, 1.0]], "support": [0.0, 1.0], "probs": [float("nan"), 0.5],
                          "envelope_b": 1.0}, "n": 2},
            "deviation.instance.probs",
        ),
        "infinite value": ("rademacher", {"class": {"evals": [[float("inf"), 0.5]]}}, "rademacher.class.evals"),
        "retired population means key": (
            "rademacher", {"class": {**EVALS, "population_means": [0.0]}},
            "unknown key rademacher.class.population_means",
        ),
        "string epsilon": (
            "tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilons": ["0.5"]}, "tail.epsilons[0]"
        ),
        "boolean dudley epsilon": ("dudley", {"class": EVALS, "epsilons": [0.1, True]}, "dudley.epsilons[1]"),
        "config not an object": ("suite", [1, 2], None),
        "negative config seed for a random spec": (
            "dudley", {"class": {"random": {"m": 2, "n": 3}}, "seed": -1}, "dudley.class.random.seed"
        ),
    }
    # sizes, counts and caps below 1, a random seed below 0, no epsilons,
    # negative envelopes, radii and tolerances, and integers that are not JSON
    # integers; each of these used to end in a traceback, run on a value the
    # config does not hold, or fail later without naming the key
    OUT_OF_RANGE = {
        "random class envelope": (
            "rademacher",
            {"class": {"random": {"m": 2, "n": 3, "seed": 1, "envelope_b": -1.0}}},
            "rademacher.class.random.envelope_b",
        ),
        "random instance envelope": (
            "tail",
            {"instance": {"random": {"m": 3, "support_size": 2, "seed": 4, "envelope_b": -1.0}}, "n": 4, "seed": 1},
            "tail.instance.random.envelope_b",
        ),
        "evals envelope": ("rademacher", {"class": {**EVALS, "envelope_b": -1.0}}, "rademacher.class.envelope_b"),
        "table envelope": (
            "deviation",
            {"instance": {"table": [[0.0, 1.0]], "support": [0.0, 1.0], "probs": [0.5, 0.5], "envelope_b": -0.1},
             "n": 2},
            "deviation.instance.envelope_b",
        ),
        "weight radius": ("linear", {"seed": 1, "weight_radius": -1.0}, "linear.weight_radius"),
        "input radius": ("linear", {"seed": 1, "input_radius": -0.5}, "linear.input_radius"),
        "tail epsilon": ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilon": -0.5}, "tail.epsilon"),
        "negative tol": ("symmetrize", {"instance": RANDOM_INSTANCE, "n": 2, "tol": -1.0}, "symmetrize.tol"),
        "NaN tol": ("symmetrize", {"instance": RANDOM_INSTANCE, "n": 2, "tol": float("nan")}, "symmetrize.tol"),
        "sign cap": ("rademacher", {"class": EVALS, "caps": {"sign": 0}}, "rademacher.caps.sign"),
        "product cap": ("deviation", {"instance": RANDOM_INSTANCE, "n": 2, "caps": {"product": 0}}, "deviation.caps.product"),
        "cover cap": ("dudley", {"class": EVALS, "caps": {"cover": -3}}, "dudley.caps.cover"),
        "grid points": ("dudley", {"class": EVALS, "grid_points": 0}, "dudley.grid_points"),
        "epsilon count": ("dudley", {"class": EVALS, "epsilon_count": 0}, "dudley.epsilon_count"),
        "fractional size": (
            "rademacher", {"class": {"random": {"m": 2.7, "n": 3, "seed": 1}}}, "rademacher.class.random.m"
        ),
        "boolean size": (
            "rademacher", {"class": {"random": {"m": True, "n": 3, "seed": 1}}}, "rademacher.class.random.m"
        ),
        "string count": ("linear", {"seed": 1, "count": "5"}, "linear.count"),
        "fractional seed": ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1.5}, "tail.seed"),
        "random class m": (
            "rademacher", {"class": {"random": {"m": -1, "n": 3, "seed": 1}}}, "rademacher.class.random.m"
        ),
        "random class seed": (
            "rademacher", {"class": {"random": {"m": 2, "n": 3, "seed": -5}}}, "rademacher.class.random.seed"
        ),
        # counts that size an array, each refused before it is allocated
        "random class rows": (
            "rademacher", {"class": {"random": {"m": 10**9, "n": 3, "seed": 1}}}, "rademacher.class.random needs"
        ),
        "random class columns": (
            "rademacher", {"class": {"random": {"m": 4, "n": 10**9, "seed": 1}}}, "rademacher.class.random needs"
        ),
        "random instance support": (
            "deviation", {"instance": {"random": {"m": 2, "support_size": 10**9, "seed": 1}}, "n": 2},
            "deviation.instance.random needs",
        ),
        "rademacher draws": (
            "rademacher", {"class": EVALS, "method": "mc", "seed": 1, "draws": 10**12}, "rademacher.draws"
        ),
        "tail trials": ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "trials": 10**12}, "tail.trials"),
        "tail rademacher draws": (
            "tail",
            {"instance": RANDOM_INSTANCE, "n": 6, "seed": 1, "rademacher_draws": 10**12, "caps": {"product": 10}},
            "tail.rademacher_draws",
        ),
        "dudley grid points": ("dudley", {"class": EVALS, "grid_points": 10**9}, "dudley.grid_points"),
        "dudley epsilon count": ("dudley", {"class": EVALS, "epsilon_count": 10**9}, "dudley.epsilon_count"),
        "linear count above its bound": ("linear", {"seed": 1, "count": 10**8}, "linear.count"),
        "linear n": ("linear", {"seed": 1, "n": 0}, "linear.n"),
        "symmetrize n": ("symmetrize", {"instance": RANDOM_INSTANCE, "n": -1}, "symmetrize.n"),
        "tail epsilons": (
            "tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilons": []}, "tail.epsilons"
        ),
        "linear count": ("linear", {"seed": 1, "count": -1}, "linear.count"),
        "negative tail epsilons entry": (
            "tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilons": [0.2, -0.5]}, "tail.epsilons[1]"
        ),
        "negative dudley epsilons entry": ("dudley", {"class": EVALS, "epsilons": [-0.1]}, "dudley.epsilons[0]"),
        # radii lie in (0, c/2), where c = 1 is the class's largest norm
        "zero dudley radius": ("dudley", {"class": EVALS, "epsilons": [0.1, 0.0]}, "dudley.epsilons[1] must lie in (0, 0.5)"),
        "dudley radius past half the largest norm": (
            "dudley", {"class": EVALS, "epsilons": [1e300]}, "dudley.epsilons[0] must lie in (0, 0.5), got 1e+300"
        ),
        # an infinite tol passes every check, and an infinite envelope overflows the sampler
        "infinite tol": ("symmetrize", {"instance": RANDOM_INSTANCE, "n": 2, "tol": float("inf")}, "symmetrize.tol"),
        "infinite random instance envelope": (
            "tail",
            {"instance": {"random": {"m": 3, "support_size": 2, "seed": 4, "envelope_b": float("inf")}},
             "n": 4, "seed": 1},
            "tail.instance.random.envelope_b",
        ),
        "infinite weight radius": ("linear", {"seed": 1, "weight_radius": float("inf")}, "linear.weight_radius"),
        "infinite epsilons entry": ("dudley", {"class": EVALS, "epsilons": [0.1, float("inf")]}, "dudley.epsilons[1]"),
        "cover cap above the table limit": (
            "dudley", {"class": {"random": {"m": 30, "n": 4, "seed": 1}}, "caps": {"cover": 30}}, "dudley.caps.cover"
        ),
        "sign cap above the kernel limit": (
            "rademacher", {"class": {"random": {"m": 2, "n": 100, "seed": 1}}, "caps": {"sign": 10**30}},
            "rademacher.caps.sign",
        ),
        # on one support point the pair cap passes 2^1030 tuples, all of them sign vectors
        "product cap above the orbit limit": (
            "symmetrize", {"instance": {"family": "identity", "support": [0.5], "probs": [1.0]}, "n": 1030,
                           "caps": {"product": 10**400}},
            "symmetrize.caps.product",
        ),
        # finite values above the magnitude bound of 1e100, each of which overflowed a kernel: a
        # NaN verdict, a report holding Infinity or NaN, an infinite radius, a rejected draw or a traceback
        "huge evals": ("rademacher", {"class": {"evals": [[1e308, -1e308]]}}, "rademacher.class.evals"),
        "huge symmetrize table": ("symmetrize", {"instance": HUGE_TABLE, "n": 2}, "symmetrize.instance.table"),
        "huge deviation table": ("deviation", {"instance": HUGE_TABLE, "n": 2}, "deviation.instance.table"),
        "huge dudley evals": ("dudley", {"class": {"evals": [[1e154, -1e154], [0.5, 0.25]]}}, "dudley.class.evals"),
        "huge linear radii": (
            "linear", {"seed": 1, "weight_radius": 1e308, "input_radius": 1e308}, "linear.weight_radius"
        ),
        "huge input radius": ("linear", {"seed": 1, "input_radius": 1e101}, "linear.input_radius"),
        "huge support": (
            "tail", {"instance": {"table": [[1.0, -1.0]], "support": [1e308, -1e308], "probs": [0.5, 0.5],
                                  "envelope_b": 1.0}, "n": 2, "seed": 1},
            "tail.instance.support",
        ),
        "huge table envelope": (
            "deviation", {"instance": {"table": [[0.0, 1.0]], "support": [0.0, 1.0], "probs": [0.5, 0.5],
                                       "envelope_b": 1e308}, "n": 2},
            "deviation.instance.envelope_b",
        ),
        "huge evals envelope": ("rademacher", {"class": {**EVALS, "envelope_b": 1e101}}, "rademacher.class.envelope_b"),
        "huge random class envelope": (
            "rademacher", {"class": {"random": {"m": 2, "n": 3, "seed": 1, "envelope_b": 1e308}}},
            "rademacher.class.random.envelope_b",
        ),
        "huge random instance envelope": (
            "tail", {"instance": {"random": {"m": 2, "support_size": 3, "seed": 1, "envelope_b": 1e308}},
                     "n": 3, "seed": 1},
            "tail.instance.random.envelope_b",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_one_with_one_line(self, tmp_path, capsys, case):
        command, config, key = self.CASES[case]
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "report.json"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("genbound: ")
        if key is not None:
            assert key in lines[0]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("case", OUT_OF_RANGE)
    def test_out_of_range_exits_one_with_one_line(self, tmp_path, capsys, case):
        command, config, key = self.OUT_OF_RANGE[case]
        cfg = write_config(tmp_path, "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "report.json")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("genbound: ") and key in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_cover_cap_above_the_table_limit_builds_no_table(self, tmp_path, capsys, monkeypatch):
        def refuse(sub):
            raise AssertionError("the subset table was built")

        monkeypatch.setattr(entropy, "_subset_radii", refuse)
        config = {"class": {"random": {"m": 30, "n": 4, "seed": 1}}, "caps": {"cover": 30}}
        cfg = write_config(tmp_path, "c.json", config)
        tracemalloc.start()
        try:
            status = main(["dudley", "--config", cfg, "--out", str(tmp_path / "report.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1 and peak < 1 << 20
        limit = entropy.MAX_COVER_CAP
        assert capsys.readouterr().err == f"genbound: dudley.caps.cover must be at most {limit}, got 30\n"
        parsed = _parse({"command": "dudley", "class": EVALS, "caps": {"cover": limit}})
        assert parsed["caps"]["cover"] == limit

    def test_sign_and_product_caps_parse_up_to_their_bounds(self):
        caps = {"sign": complexity.MAX_SIGN_CAP, "product": complexity.MAX_PRODUCT_CAP}
        assert _parse({"command": "deviation", "instance": IDENTITY, "n": 2, "caps": caps})["caps"] == {
            **caps, "cover": entropy.DEFAULT_COVER_CAP
        }
        for key, limit in caps.items():
            with pytest.raises(UsageError, match=rf"^deviation\.caps\.{key} must be at most {limit}, got "):
                _parse({"command": "deviation", "instance": IDENTITY, "n": 2, "caps": {key: limit + 1}})

    def test_grid_points_null_matches_exact_integration(self, tmp_path):
        config = {
            "class": {"random": {"m": 4, "n": 5, "seed": 6}},
            "epsilons": [0.1, 0.2, 0.4],
            "grid_points": None,
        }
        cfg = write_config(tmp_path, "dud.json", config)
        out = str(tmp_path / "report.json")
        assert main(["dudley", "--config", cfg, "--out", out]) == 0
        rows = load(out)["results"]
        report = entropy.verify_dudley(random_evaluated_class(6, m=4, n=5), [0.1, 0.2, 0.4], grid_points=None)
        assert [(r["x"], r["value"], r["slack"], r["lhs"]) for r in rows] == [
            (e.epsilon, e.bound, e.slack, report.without_abs) for e in report.entries
        ]

    def test_readme_class_and_instance_examples_parse(self):
        text = README.read_text()
        cli = text[text.index("## CLI"):text.index("## Determinism")]
        examples = [line for line in cli.splitlines() if line.startswith(('"class":', '"instance":'))]
        assert len(examples) == 5
        for line in examples:
            spec = json.loads("{" + line + "}")
            if "class" in spec:
                assert isinstance(_parse({"command": "rademacher", **spec})["class"], EvaluatedClass)
            else:
                assert isinstance(_parse({"command": "deviation", "n": 2, **spec})["instance"], DiscreteInstance)


class TestMagnitudeBound:
    """Each command at the magnitude bound of 1e100 writes only finite numbers."""

    TABLE = {"table": [[1e100, -1e100], [-1e100, 0.5]], "support": [-1e100, 1e100], "probs": [0.5, 0.5],
             "envelope_b": 1e100}
    RANDOM = {"random": {"m": 3, "support_size": 4, "seed": 1, "envelope_b": 1e100}}
    EVALS_BOUND = [[1e100, -1e100, 0.5], [0.5, 0.25, -1e100], [-1e100, 1e100, 1e100]]
    AT = {
        "rademacher": ("rademacher", {"class": {"evals": EVALS_BOUND}}),
        "rademacher mc": ("rademacher", {"class": {"evals": EVALS_BOUND}, "method": "mc", "seed": 1, "draws": 500}),
        "deviation": ("deviation", {"instance": TABLE, "n": 3}),
        "symmetrize": ("symmetrize", {"instance": RANDOM, "n": 3}),
        "tail": ("tail", {"instance": TABLE, "n": 4, "seed": 1, "trials": 1000, "epsilons": [0.5, 1e100]}),
        "tail mc": (
            "tail", {"instance": RANDOM, "n": 12, "seed": 1, "trials": 1000, "rademacher_draws": 200,
                     "caps": {"product": 10}},
        ),
        "linear l2": ("linear", {"seed": 1, "weight_radius": 1e100, "input_radius": 1e100, "count": 5}),
        "linear l1": ("linear", {"seed": 1, "regime": "l1", "weight_radius": 1e100, "input_radius": 1e100,
                                 "count": 5}),
        "dudley": ("dudley", {"class": {"evals": EVALS_BOUND}, "epsilon_count": 4}),
        "dudley greedy": (
            "dudley", {"class": {"random": {"m": 30, "n": 8, "seed": 1, "envelope_b": 1e100}}, "cover": "greedy",
                       "grid_points": None},
        ),
    }

    @pytest.mark.parametrize("case", AT)
    def test_report_holds_only_finite_numbers(self, case):
        command, config = self.AT[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in a kernel warns before it reaches the report
            report = run_experiment({"command": command, **config})
        json.dumps(report, allow_nan=False)


IDENTITY = {"family": "identity", "support": [0.0, 1.0], "probs": [0.5, 0.5]}
# one small valid config per command; with n = 10**6 each stops at a cap or at
# the draw budget (200 draws of 10**6 values), but for linear's 2 small instances
SMALL = {
    "rademacher": {"class": {"random": {"m": 2, "n": 3, "seed": 1}}, "draws": 200, "seed": 2, "caps": {"sign": 8}},
    "deviation": {"instance": {"random": {"m": 2, "support_size": 2, "seed": 1}}, "n": 2, "tol": 1e-10},
    "symmetrize": {"instance": {"table": [[0.0, 1.0]], "support": [0.0, 1.0], "probs": [0.5, 0.5],
                                "envelope_b": 1.0}, "n": 2},
    "tail": {"instance": IDENTITY, "n": 3, "seed": 1, "trials": 1000, "rademacher_draws": 200,
             "caps": {"product": 4}},
    "linear": {"seed": 1, "regime": "l1", "d": 2, "n": 3, "m": 2, "count": 2},
    "dudley": {"class": {"evals": [[0.5, -0.5, 0.2], [0.1, 0.3, -0.4]]}, "epsilon_count": 3, "grid_points": 16,
               "caps": {"cover": 4}},
    "suite": {"seed": 3, "tol": 1e-10},
}


def _value(config: dict, path) -> object:
    return functools.reduce(dict.__getitem__, path, config)


def _key_paths(config: dict, prefix=()):
    for key, value in config.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


@st.composite
def mutated_configs(draw):
    """A small valid config with one key dropped, retyped, pushed out of range or added."""
    command = draw(st.sampled_from(sorted(SMALL)))
    config = copy.deepcopy(SMALL[command])
    kind = draw(st.sampled_from(["drop", "retype", "out of range", "add"]))
    paths = list(_key_paths(config))
    if kind == "out of range":
        paths = [p for p in paths if type(_value(config, p)) in (int, float)]
    *outer, key = draw(st.sampled_from(paths))
    parent = _value(config, outer)
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(["x", None, True, 1.5, [], {}, [1.0]]))
    elif kind == "out of range":
        parent[key] = 10**6 if key == "n" else draw(st.sampled_from([-1, 0, -0.5]))
    else:
        parent[draw(st.sampled_from(["extra", "seed", "n"]))] = draw(st.sampled_from([1, 0.5, "x"]))
    return command, config


class TestMutatedConfigs:
    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_small_configs_pass(self, tmp_path, command):
        cfg = write_config(tmp_path, "c.json", SMALL[command])
        assert main([command, "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_configs(), st.sampled_from(["1", "2"]))
    def test_exit_zero_one_or_two_and_one_line_on_error(self, tmp_path, capsys, case, threads):
        command, config = case
        cfg = write_config(tmp_path, "c.json", config)
        status = main([command, "--config", cfg, "--out", str(tmp_path / "report.json"), "--threads", threads])
        err = capsys.readouterr().err
        assert status in (0, 1, 2)
        if status == 1:
            assert len(err.splitlines()) == 1 and err.startswith("genbound: "), err


class TestLargeSampleSize:
    ONE_POINT = {"family": "identity", "support": [0.5], "probs": [1.0]}
    CASES = {
        "one-point deviation": ("deviation", {"instance": ONE_POINT, "n": 10**6}),
        "deviation": ("deviation", {"instance": IDENTITY, "n": 10**6}),
        "symmetrize": ("symmetrize", {"instance": IDENTITY, "n": 10**6}),
        # decided above the cap without building 4**n * 2**n
        "symmetrize at n = 10**12": ("symmetrize", {"instance": IDENTITY, "n": 10**12}),
        "tail": ("tail", {"instance": IDENTITY, "n": 10**6, "seed": 1}),
        "linear": ("linear", {"seed": 1, "n": 10**6}),
        # within the draw budget, so only the sign cap refuses it, before any word is drawn
        "linear at d = 2 in l1": ("linear", {"seed": 1, "n": 10**6, "d": 2, "regime": "l1"}),
        # the sign cap refuses before the one orbit of 10**8 zeros is built
        "one-point deviation at n = 10**8": ("deviation", {"instance": ONE_POINT, "n": 10**8}),
        "one-point tail at n = 10**8": ("tail", {"instance": ONE_POINT, "n": 10**8, "seed": 1}),
        "sign cap above its bound": (
            "rademacher", {"class": {"random": {"m": 2, "n": 100, "seed": 1}}, "caps": {"sign": 10**30}}
        ),
        "product cap above its bound": (
            "symmetrize", {"instance": ONE_POINT, "n": 1030, "caps": {"product": 10**400}}
        ),
        "dudley of 12,000 rows": (
            "dudley", {"class": {"random": {"m": 12000, "n": 8, "seed": 1}}, "cover": "greedy"}
        ),
        # within the product cap, but the count matrices of 500,500 orbits or 1,000 trials
        # on the support exceed the draw budget
        "deviation on 1,000 support points": (
            "deviation", {"instance": {"random": {"m": 2, "support_size": 1000, "seed": 1}}, "n": 2}
        ),
        "tail on 200,000 support points": (
            "tail",
            {"instance": {"random": {"m": 2, "support_size": 200000, "seed": 1}}, "n": 1, "seed": 1, "trials": 1000},
        ),
        # the symmetrization cap counts the s * s pair values before their 2^40 probabilities exist
        "symmetrize on a random support of 2^20 points": (
            "symmetrize", {"instance": {"random": {"m": 1, "support_size": 1 << 20, "seed": 1}}, "n": 2}
        ),
        # refused from the random spec's shape, before its table is drawn
        "tail on a random support of 2^24 points": (
            "tail",
            {"instance": {"random": {"m": 1, "support_size": 1 << 24, "seed": 1}}, "n": 1, "seed": 1, "trials": 1000},
        ),
        "Monte Carlo rademacher on a random 1 x 2^24 class": (
            "rademacher", {"class": {"random": {"m": 1, "n": 1 << 24, "seed": 1}}, "seed": 1, "draws": 100}
        ),
        # 2^20 rows at n = 16: the exact kernel's two block buffers would hold 2^34 values
        # each, and the Monte Carlo sums of a chunk 2^33
        "exact rademacher on a random 2^20 x 16 class": (
            "rademacher", {"class": {"random": {"m": 1 << 20, "n": 16, "seed": 1}}, "method": "exact", "seed": 1}
        ),
        "auto rademacher on a random 2^20 x 16 class": (
            "rademacher", {"class": {"random": {"m": 1 << 20, "n": 16, "seed": 1}}, "seed": 1}
        ),
    }

    @staticmethod
    def run_in_three_gigabytes(tmp_path, command, config) -> subprocess.CompletedProcess:
        cfg = write_config(tmp_path, "c.json", config)
        src = str(Path(genbound.__file__).resolve().parents[1])
        # one BLAS thread, so the limit bounds genbound's own allocations
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        return subprocess.run(
            [sys.executable, "-m", "genbound.cli", command, "--config", cfg, "--out", str(tmp_path / "r.json")],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60,
        )

    @pytest.mark.parametrize("case", CASES)
    def test_exits_one_with_one_line_in_three_gigabytes(self, tmp_path, case):
        out = self.run_in_three_gigabytes(tmp_path, *self.CASES[case])
        assert out.returncode == 1 and len(out.stderr.splitlines()) == 1, out.stderr
        assert out.stderr.startswith("genbound: ") and "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "case",
        [
            "tail on a random support of 2^24 points", "Monte Carlo rademacher on a random 1 x 2^24 class",
            "auto rademacher on a random 2^20 x 16 class",
        ],
    )
    def test_wide_random_specs_are_refused_before_their_tables_are_drawn(self, tmp_path, case):
        started = time.perf_counter()
        out = self.run_in_three_gigabytes(tmp_path, *self.CASES[case])
        elapsed = time.perf_counter() - started
        assert out.returncode == 1 and elapsed < 1.0, (elapsed, out.stderr)

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_sign_kernels_refuse_buffers_above_the_budget(self, tmp_path, capsys, monkeypatch, method):
        # 200 rows at n = 2: exact blocks of 2 words hold 400 values, Monte Carlo sums 100 * 200;
        # an inline class reaches both kernels, past the check of a random spec's shape
        for module in (core, complexity):
            monkeypatch.setattr(module, "MAX_DRAW_ELEMENTS", 256)
        evals = np.resize([0.5, -0.25, 1.0], (200, 2)).tolist()
        config = {"class": {"evals": evals}, "method": method, "seed": 1, "draws": 100}
        cfg = write_config(tmp_path, "c.json", config)
        assert main(["rademacher", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
        refused = {
            "exact": "a block of 2 sign words over 200 class rows exceeds the budget of 256 values",
            "auto": "a batch of 100 draws of 200 values exceeds the budget of 256 values",
        }
        assert capsys.readouterr().err == f"genbound: {refused[method]}\n"

    def test_linear_refuses_n_above_the_sign_cap_before_drawing(self, tmp_path):
        started = time.perf_counter()
        out = self.run_in_three_gigabytes(tmp_path, *self.CASES["linear at d = 2 in l1"])
        elapsed = time.perf_counter() - started
        assert out.returncode == 1 and elapsed < 2.0, (elapsed, out.stderr)
        assert out.stderr == "genbound: exact sign averaging for n=1000000 exceeds the exact-enumeration cap of 20\n"

    def test_one_point_deviation_at_n_1e8_is_refused_before_its_orbit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"instance": self.ONE_POINT, "n": 10**8})
        tracemalloc.start()
        started = time.perf_counter()
        try:
            status = main(["deviation", "--config", cfg, "--out", str(tmp_path / "report.json")])
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1 and elapsed < 2.0 and peak < 100 * 2**20
        err = capsys.readouterr().err
        assert err == "genbound: exact sign averaging for n=100000000 exceeds the exact-enumeration cap of 20\n"


class TestParser:
    def test_one_parser_serves_calls_that_share_no_state(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.argparse, "ArgumentParser", None)  # main must not build another
        cfg = write_config(tmp_path, "lin.json", {"seed": 3, "count": 2})
        first, second = tmp_path / "first.csv", tmp_path / "second.json"
        assert main(["linear", "--config", cfg, "--seed", "5", "--format", "csv", "--out", str(first)]) == 0
        assert main(["linear", "--config", cfg, "--out", str(second)]) == 0
        assert first.read_text().startswith("x,value,method,seed")
        report = load(second)
        assert report["seed"] == 3 and report["config"]["seed"] == 3
        assert canonical_report(report) == canonical_report(run_experiment({"command": "linear", "seed": 3, "count": 2}))

    def test_help_and_usage_errors_exit_as_before(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0 and capsys.readouterr().out.startswith("usage: genbound")
        with pytest.raises(SystemExit) as exit_info:
            main(["linear"])
        assert exit_info.value.code == 2 and "--config" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["lineal", "--config", "c.json"])
        assert exit_info.value.code == 2 and "invalid choice" in capsys.readouterr().err
        cfg = write_config(tmp_path, "lin.json", {"seed": 3, "count": 1})
        assert main(["linear", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0


# numpy's AVX-512 loops, which a child process can disable on a host that has them
AVX512_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"
X86_64 = platform.machine() in ("x86_64", "AMD64")


def assert_same_reports_under_other_kernels(commands, method=None):
    """Each (command, config path) gives the default canonical report under four OpenBLAS
    core types and, where the host has X86_V4, with numpy's AVX-512 loops disabled, each
    set in a child process's environment only.  With ``method``, every row that names a
    method takes it."""
    code = """
import json, sys
from genbound.cli import canonical_report, main
method, reports = sys.argv[1], []
for command, config in zip(sys.argv[2::2], sys.argv[3::2]):
    assert main([command, "--config", config, "--out", config + ".out"]) == 0
    report = json.load(open(config + ".out"))
    if method:
        assert {row.get("method", method) for row in report["results"]} == {method}, report["results"]
    reports.append(canonical_report(report))
print(json.dumps(reports))
"""
    src = str(Path(genbound.__file__).resolve().parents[1])
    unset = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [method or "", *(item for command in commands for item in command)]

    def reports(**setting):
        out = subprocess.run([sys.executable, "-c", code, *argv], env={**env, **setting}, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    default = reports()
    legs = [{"OPENBLAS_CORETYPE": core} for core in ("Prescott", "Nehalem", "SandyBridge", "Haswell")]
    if np._core._multiarray_umath.__cpu_features__.get("X86_V4"):
        legs.append({"NPY_DISABLE_CPU_FEATURES": AVX512_FEATURES})
    for setting in legs:
        assert reports(**setting) == default, setting


class TestDeterminism:
    def test_same_config_same_canonical_report(self, tmp_path):
        config = {
            "command": "tail",
            "instance": {"random": {"m": 3, "support_size": 2, "seed": 4}},
            "n": 4,
            "epsilon": 0.5,
            "trials": 2000,
            "seed": 11,
        }
        first = run_experiment(config)
        second = run_experiment(config)
        assert canonical_report(first) == canonical_report(second)
        assert first["config_hash"] == config_hash(config)

    def test_thread_count_does_not_change_numerics(self, tmp_path):
        config = {"command": "suite", "seed": 77}
        one = run_experiment(config, threads=1)
        eight = run_experiment(config, threads=8)
        assert canonical_report(one) == canonical_report(eight)

    def test_monte_carlo_rademacher_at_n70_is_thread_invariant(self):
        # 70 signs take two words a draw, and 20,000 draws three chunks
        config = {
            "command": "rademacher", "class": {"random": {"m": 5, "n": 70, "seed": 3}},
            "method": "mc", "seed": 8, "draws": 20_000,
        }
        one, two = (run_experiment(config, threads=threads) for threads in (1, 2))
        assert one["results"][0]["method"] == "monte_carlo"
        assert canonical_report(one) == canonical_report(two)

    @pytest.mark.skipif(not X86_64, reason="OpenBLAS core types are x86-64 kernels")
    def test_monte_carlo_rademacher_bits_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # through 0.14.0 a sign matrix times evals.T by GEMM moved the n = 130 value under Prescott
        commands = []
        for m, n, seed in ((4, 21, 21), (4, 70, 70), (3, 130, 0)):
            config = {"class": {"random": {"m": m, "n": n, "seed": seed}}, "method": "mc", "seed": 5, "draws": 3000}
            commands.append(("rademacher", write_config(tmp_path, f"n{n}.json", config)))
        assert_same_reports_under_other_kernels(commands, "monte_carlo")

    @pytest.mark.skipif(not X86_64, reason="OpenBLAS core types are x86-64 kernels")
    def test_exact_orbit_bits_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # the tail's s = 2, n = 12 orbits take the count kernel; the row kernel's GEMM serves the other two
        instance = {"random": {"m": 4, "support_size": 3, "seed": 7}}
        commands = [
            ("deviation", {"instance": instance, "n": 6}),
            ("symmetrize", {"instance": instance, "n": 3}),
            ("tail", {"instance": {"random": {"m": 5, "support_size": 2, "seed": 8}}, "n": 12, "seed": 3,
                      "trials": 3000, "epsilons": [0.2, 0.4]}),
        ]
        commands = [(name, write_config(tmp_path, f"{name}.json", config)) for name, config in commands]
        assert_same_reports_under_other_kernels(commands, "exact_enumeration")

    @pytest.mark.skipif(not X86_64, reason="OpenBLAS core types are x86-64 kernels")
    def test_exact_rademacher_and_linear_bits_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # through 0.17.0 the row kernel's GEMM moved the rademacher reports of sample-exact
        # requests 1, 15 and 16 (seed 1) under Prescott; linear's stacks went through it too
        make_request = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["make_request"]
        configs = [make_request("sample-exact", 1, i).commands[0].config for i in (1, 15, 16)]
        configs.append({"class": {"random": {"m": 6, "n": 17, "seed": 17}}, "method": "exact"})
        commands = [("rademacher", write_config(tmp_path, f"r{i}.json", config)) for i, config in enumerate(configs)]
        assert_same_reports_under_other_kernels(commands, "exact_enumeration")
        linear_configs = [{"seed": 5}, {"seed": 5, "regime": "l1"}]
        commands = [("linear", write_config(tmp_path, f"l{i}.json", config)) for i, config in enumerate(linear_configs)]
        assert_same_reports_under_other_kernels(commands)

    @pytest.mark.skipif(not X86_64, reason="OpenBLAS core types and numpy's AVX-512 loops are x86-64 kernels")
    def test_linear_dudley_and_suite_bits_do_not_depend_on_simd_or_blas(self, tmp_path):
        # through 0.16.0 the ball samplers' log and power loops and the class GEMM moved linear values
        commands = [("suite", {"seed": seed}) for seed in (0, 1, 77)]
        for seed in (0, 1, 77):
            commands += [("linear", {"seed": seed}), ("linear", {"seed": seed, "regime": "l1", "d": 7})]
        for cover in ("exact", "greedy"):
            for grid_points in (256, None):
                config = {"class": {"random": {"m": 14, "n": 8, "seed": 5}}, "cover": cover, "grid_points": grid_points}
                commands.append(("dudley", config))
        commands = [(name, write_config(tmp_path, f"{i}.json", config)) for i, (name, config) in enumerate(commands)]
        assert_same_reports_under_other_kernels(commands)

    def test_rerun_from_embedded_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "rad.json",
            {"class": {"random": {"m": 4, "n": 6, "seed": 3}}, "method": "mc", "draws": 2000,
             "seed": 8},
        )
        out = str(tmp_path / "report.json")
        assert main(["rademacher", "--config", cfg, "--out", out]) == 0
        report = load(out)
        again = run_experiment(report["config"])
        assert canonical_report(report) == canonical_report(again)

    @pytest.mark.parametrize(
        "command, config",
        [
            ("rademacher", {"class": {"evals": [[1.0, -0.25], [0.5, 0.5]]}, "out": "rapport-\u00e9.json"}),
            ("dudley", {"class": {"random": {"m": 30, "n": 6, "seed": 2}}, "cover": "greedy", "seed": 4}),
            ("tail", {"instance": RANDOM_INSTANCE, "n": 4, "seed": 1, "epsilons": [0.2, 0.5], "trials": 1000}),
        ],
    )
    def test_written_report_is_the_sorted_compact_dump(self, tmp_path, monkeypatch, command, config):
        returned = []
        run = cli._run

        def capture(config, threads):
            report, canonical = run(config, threads)
            returned.append(report)
            return report, canonical

        monkeypatch.setattr(cli, "_run", capture)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", write_config(tmp_path, "c.json", config)]) == 0
        (report,) = returned
        out = tmp_path / config.get("out", "genbound_report.json")
        assert out.read_text() == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        assert report["config_hash"] == config_hash(report["config"])

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "rad.json",
            {"class": {"random": {"m": 4, "n": 6, "seed": 3}}, "method": "mc", "draws": 2000,
             "seed": 8},
        )
        out = str(tmp_path / "report.json")
        assert main(["rademacher", "--config", cfg, "--seed", "9", "--out", out]) == 0
        assert load(out)["seed"] == 9


class TestEmitCurve:
    def test_single_row(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_curve([{"kind": "dudley", "x": 0.1, "value": 0.4, "method": "exact", "seed": 0}],
                   str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("x,value,method,seed")
        assert len(lines) == 2

    def test_rows_sorted_by_x(self, tmp_path):
        rows = [
            {"kind": "dudley", "x": 0.3, "value": 1.0, "method": "exact", "seed": 0},
            {"kind": "dudley", "x": 0.1, "value": 2.0, "method": "exact", "seed": 0},
        ]
        path = tmp_path / "curve.csv"
        emit_curve(rows, str(path))
        data = path.read_text().strip().splitlines()[1:]
        xs = [float(line.split(",")[0]) for line in data]
        assert xs == sorted(xs)

    def test_mixed_kinds_rejected(self, tmp_path):
        rows = [
            {"kind": "dudley", "x": 0.1, "value": 1.0},
            {"kind": "tail", "x": 0.1, "value": 0.0},
        ]
        with pytest.raises(UsageError):
            emit_curve(rows, str(tmp_path / "curve.csv"))

    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_curve(
            [{"kind": "dudley", "x": 1.0 / 3.0, "value": 2.0 / 3.0, "method": "exact", "seed": 0}],
            str(path),
        )
        row = path.read_text().strip().splitlines()[1]
        assert row.split(",")[0] == format(1.0 / 3.0, ".17g")

    def test_cli_csv_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "dud.json",
            {"class": {"random": {"m": 4, "n": 5, "seed": 6}}, "epsilon_count": 6},
        )
        out = str(tmp_path / "dud.csv")
        assert main(["dudley", "--config", cfg, "--format", "csv", "--out", out]) == 0
        lines = (tmp_path / "dud.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)

    def test_tail_csv_pairs_frequency_with_theoretical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "tail.json",
            {
                "instance": {"random": {"m": 3, "support_size": 2, "seed": 4}},
                "n": 4,
                "epsilons": [0.1, 0.25, 0.5],
                "trials": 2000,
                "seed": 9,
            },
        )
        out = str(tmp_path / "tail.csv")
        assert main(["tail", "--config", cfg, "--format", "csv", "--out", out]) == 0
        header = (tmp_path / "tail.csv").read_text().splitlines()[0].split(",")
        assert header[:4] == ["x", "value", "method", "seed"]
        assert "theoretical" in header

    def test_cli_csv_on_heterogeneous_results_is_usage_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "dev.json",
            {"instance": {"random": {"m": 2, "support_size": 2, "seed": 1}}, "n": 2},
        )
        out = str(tmp_path / "dev.csv")
        assert main(["deviation", "--config", cfg, "--format", "csv", "--out", out]) == 1


class TestInternals:
    def test_package_version_is_the_project_version(self):
        with open(ROOT / "pyproject.toml", "rb") as handle:
            assert genbound.__version__ == tomllib.load(handle)["project"]["version"]

    def test_runs_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy fail
        identity = {"family": "identity", "support": [-1.0, 1.0], "probs": [0.5, 0.5]}
        runs = []
        for command, config in (
            ("tail", {"instance": identity, "n": 4, "seed": 1, "epsilon": 0.1, "trials": 1000}),
            ("linear", {"seed": 1, "regime": "l2", "count": 3}),
            ("suite", {"seed": 2026}),
        ):
            runs.append((command, write_config(tmp_path, f"{command}.json", config), str(tmp_path / command)))
        code = f"""
import json, sys
sys.modules["scipy"] = None
from genbound.cli import main
statuses = [main([command, "--config", config, "--out", out]) for command, config, out in {runs!r}]
tail = json.load(open({runs[0][2]!r}))["results"][0]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None)
print(json.dumps([statuses, tail["exceed_count"], loaded]))
"""
        src = str(Path(genbound.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        statuses, exceed_count, loaded = json.loads(out.stdout.splitlines()[-1])
        assert statuses == [0, 0, 0]
        assert exceed_count > 0
        assert loaded == []
