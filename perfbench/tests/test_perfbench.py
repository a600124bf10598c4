"""Tests of the benchmark's own code: checks, spans, and traced/untraced parity."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


# -- checks count tampered outputs as failed ----------------------------------------------


def test_tampered_sweep_outputs_count_as_failed():
    expected = workloads.load_expected()
    done = {u: {"pairs": 1, "fails": []} for u in checks.SWEEP_UNITS}
    report = {"mode": "paper-theorems", "n": 5, "checked_pairs": 120,
              "counterexamples": [], "elapsed": 1.0, "complete": True}
    ck = json.dumps({"done": done})

    def failed(rep, ck_text, rc=0):
        return checks.sweep_failed_units("paper-theorems", rc, json.dumps(rep), ck_text,
                                         expected)[0]

    assert failed(report, ck) == 0
    assert failed(report, ck, rc=1) == 120
    assert failed({**report, "counterexamples": [{"kind": "x"}]}, ck) == 120
    assert failed({**report, "checked_pairs": 119}, ck) == 120
    done["12345"] = {"pairs": 1, "fails": [{"kind": "support-not-snp"}]}
    del done["54321"]
    assert failed(report, json.dumps({"done": done})) == 2
    assert failed(report, "{") == 120


def test_scnp_failures_digest_is_checked():
    expected = workloads.load_expected()
    pairs = expected["scnp_failures"]
    report = {"mode": "scnp-pattern", "n": 5, "checked_pairs": 3781,
              "counterexamples": [], "complete": True, "scnp_failures": pairs}
    assert len(pairs) == 77
    assert checks.sweep_report_problem("scnp-pattern", 0, json.dumps(report), expected) is None
    report["scnp_failures"] = pairs[1:]
    assert checks.sweep_report_problem("scnp-pattern", 0, json.dumps(report), expected)


# -- span arithmetic ------------------------------------------------------------------------


def test_self_time_is_exact_on_a_synthetic_tree():
    # clock reads in call order: open/close of root, hull, lp, perm, lp, hull, comp, root
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 10.0, 11.0, 12.0, 16.0, 20.0, 21.0])
    t = Tracer(clock=lambda: next(ticks))
    cli, lp, hull, perm = (t._id(x) for x in ("cli.main", "polytope.hull_contains",
                                             "polytope.hull_vertices", "perm.length"))
    root = t.open(cli, "cli", None)                        # 0 .. 21
    h = t.open(hull, "polytope", t._id("polytope.hull"))  # 1 .. 12
    a = t.open(lp, "polytope", t._id("polytope.lp"))      # 2 .. 4
    t.close(a)
    b = t.open(perm, "perm", None)                         # 7 .. 8
    t.close(b)
    c = t.open(lp, "polytope", t._id("polytope.lp"))      # 10 .. 11
    t.close(c)
    t.close(h)
    d = t.open(t._id("polytope.compositions"), "polytope", None)  # 16 .. 20
    t.close(d)
    t.close(root)
    assert t.self_times() == [21 - 11 - 4, 11 - 2 - 1 - 1, 2, 1, 1, 4]
    # perm under hull is its own layer; compositions under cli takes its layer's name
    assert t.bucket_self() == {"cli": 6.0, "polytope.hull": 7.0, "polytope.lp": 3.0,
                               "perm": 1.0, "polytope": 4.0}
    assert t.calls("polytope.hull_contains") == 2
    assert t.entries("polytope") == 2


def test_install_wraps_and_uninstall_restores_the_package():
    cli = workloads.load_cli()
    modules = workloads.package_modules(cli)
    before = {layer: dict(vars(mod)) for layer, mod in modules.items()}
    poly_cls = dict(vars(modules["poly"].SparsePolynomial))
    tracer = Tracer()
    with tracer.installed(modules):
        assert modules["scnp"].bruhat_leq is not before["scnp"]["bruhat_leq"]
        verdict = modules["scnp"].is_scnp((1, 3, 2, 4), (4, 2, 3, 1))
        assert str(modules["poly"].SparsePolynomial.one(2)) == "1"
    assert verdict.holds is False
    assert {layer: dict(vars(mod)) for layer, mod in modules.items()} == before
    assert dict(vars(modules["poly"].SparsePolynomial)) == poly_cls
    assert tracer.calls("scnp._scnp_decide") == 1
    assert tracer.calls("scnp._scnp_search") == 1
    assert tracer.counts["bruhat.interval.elements"] > 0
    assert set(tracer.bucket_self()) >= {"scnp", "scnp.support_dp", "perm", "bruhat"}


# -- traced and untraced runs issue the same verify commands ----------------------------------


def test_traced_and_untraced_runs_issue_identical_requests(monkeypatch, tmp_path):
    sent: list[tuple[str, list[str]]] = []

    def record(where, mode, jobs):
        sent.append((where, workloads.sweep_argv(mode, jobs, Path("ck.json"))))
        return workloads.SweepRun(0, "{}", [0.0, 0.5, 1.0], 1.0, None)

    monkeypatch.setattr(workloads, "probe_times", lambda script, probes: [0.1] * probes)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "run_sweep_child",
                        lambda mode, jobs, ck: record("child", mode, jobs))
    monkeypatch.setattr(workloads, "run_sweep_inprocess",
                        lambda cli, mode, ck: record("traced", mode, 1))
    for workload, (mode, passes) in workloads.SWEEPS.items():
        sent.clear()
        workloads.measure_sweep(workload, 3)
        parallel_argv = workloads.sweep_argv(mode, workloads.JOBS, Path("ck.json"))
        assert sent == [("child", parallel_argv)] * passes
        sent.clear()
        workloads.trace_sweep(workload, 3)
        (_, traced), (_, serial), (_, parallel) = sent
        assert traced == serial == workloads.sweep_argv(mode, 1, Path("ck.json"))
        assert parallel == parallel_argv


def test_reference_seconds_divide_out_machine_speed(monkeypatch, tmp_path):
    # the reference probe reads twice its nominal time: the machine ran at half speed
    probes = {"setup_probe.py": 0.08, "ref_probe.py": 2 * workloads.REF_PROBE_S}
    monkeypatch.setattr(workloads, "probe_times", lambda script, n: [probes[script]] * n)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "run_sweep_child", lambda mode, jobs, ck: workloads.SweepRun(
        0, "{}", [0.0, 0.01, 0.03, 0.06], 3.0, None))
    metrics, tally, info = workloads.measure_sweep("sweep-mconvex", 1)
    assert metrics["ref_wall_s"] == (1.5, "s")
    assert metrics["ref_ops_per_s"] == (3781 / 1.5, "1/s")
    assert metrics["ref_op_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["setup_s"] == (0.08, "s")
    assert info["measured"]["wall_s"] == 3.0
    assert tally.failed == tally.attempted == 12 * 120  # "{}" is no report
