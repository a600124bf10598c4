"""Single-chain support decisions and the exhaustive sweep harness."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from itertools import accumulate

import pytest

from dualschubert import (
    SaturatedChain,
    all_perms,
    apply_t,
    bruhat_leq,
    chain_weight,
    dual_schubert_table,
    enumerate_chains,
    format_perm,
    greedy_chain,
    identity,
    is_scnp,
    is_snp,
    length,
    parse_perm,
    postnikov_stanley_dp,
    ps_support,
    support_table_above,
    verify_ps_mconvex,
    verify_scnp_pattern,
    verify_theorems,
)
from dualschubert import scnp
from dualschubert.scnp import LOWER_PATTERN, UPPER_PATTERN
from oracles import add_segment, dominant_chain_by_sets, support_table_by_union


def comparable_pairs(n):
    perms = list(all_perms(n))
    return [(u, w) for u in perms for w in perms if bruhat_leq(u, w)]


def test_pattern_constants():
    assert LOWER_PATTERN == (1, 3, 2, 4)
    assert UPPER_PATTERN == (4, 2, 3, 1)


def test_ps_support_matches_polynomial_route_s4():
    for u, w in comparable_pairs(4):
        assert ps_support(u, w) == postnikov_stanley_dp(u, w).support()


def test_support_table_above_matches_union_oracle_s5():
    for u in all_perms(5):
        assert support_table_above(u) == support_table_by_union(u)


def test_support_table_above_matches_pointwise():
    u = (2, 1, 3, 4)
    table = support_table_above(u)
    assert set(table) == {
        w for w in all_perms(4) if bruhat_leq(u, w)
    }
    for w, supp in table.items():
        assert supp == ps_support(u, w)


def test_is_scnp_interval_fixture():
    v = is_scnp((2, 1, 3), (3, 2, 1))
    assert v.holds
    assert v.witness.render() == "213 <(1,3) 312 <(2,3) 321"
    assert v.chains_examined == 2
    assert chain_weight(v.witness).support() == ps_support((2, 1, 3), (3, 2, 1))


def test_is_scnp_greedy_shortcut():
    v = is_scnp((1, 2, 3), (3, 2, 1))
    assert v.holds
    assert v.chains_examined == 1
    assert v.witness.render() == "123 <(2,3) 132 <(1,3) 231 <(1,2) 321"


def test_is_scnp_trivial_pair():
    v = is_scnp((2, 1, 3), (2, 1, 3))
    assert v.holds
    assert v.witness is not None and len(v.witness) == 0


def test_is_scnp_negative_fixture():
    v = is_scnp((1, 3, 2, 4), (4, 2, 3, 1))
    assert not v.holds
    assert v.witness is None
    assert v.chains_examined == 1
    # the separating example: saturated but no single dominant chain
    assert is_snp(postnikov_stanley_dp((1, 3, 2, 4), (4, 2, 3, 1)))


def test_count_criterion_matches_chain_supports_s4():
    for u, w in comparable_pairs(4):
        target = ps_support(u, w)
        floors = scnp._segment_floors(target, 4)
        for chain in enumerate_chains(u, w):
            dominant = chain_weight(chain).support() == target
            assert dominant == (scnp._label_counts(chain.labels, 4) == floors)


def floor_chain(u, labels):
    """The saturated chain that climbs from u by the given labels."""
    return SaturatedChain(tuple(accumulate(labels, lambda v, lab: apply_t(v, *lab),
                                           initial=u)), labels)


def reference_unit(table, holds):
    """The scnp-pattern unit record for a support table, given each verdict."""
    fails = [v for v in sorted(table, key=lambda p: (length(p), p)) if not holds[v]]
    return {"pairs": len(table), "fails": [format_perm(v) for v in fails]}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_route_matches_set_oracle(n):
    for u in all_perms(n):
        table = support_table_above(u)
        covers, floors = scnp._floor_fold(u)
        assert floors.keys() == table.keys()
        holds = {}
        for w, target in table.items():
            assert floors[w] == scnp._segment_floors(target, n)
            verdict = scnp._scnp_decide(u, w, target)
            holds[w] = verdict.holds
            assert verdict.holds == (dominant_chain_by_sets(u, w, target) is not None)
            if verdict.holds:
                assert chain_weight(verdict.witness).support() == target
            path = scnp._floor_path(covers, u, w, floors)
            assert (path is not None) == verdict.holds
            if path is not None:
                assert chain_weight(floor_chain(u, path)).support() == target
        key = format_perm(u)
        assert scnp._run_unit("scnp-pattern", n, key) == reference_unit(table, holds)


@pytest.mark.parametrize("key", ["132456", "214365"])
def test_floor_unit_matches_reference_rank6(key):
    u = parse_perm(key)
    table = support_table_above(u)
    holds = {v: scnp._scnp_decide(u, v, target).holds for v, target in table.items()}
    reference = reference_unit(table, holds)
    assert scnp._run_unit("scnp-pattern", 6, key) == reference


def test_count_route_matches_set_oracle_rank6_sample():
    u = (1, 3, 2, 4, 5, 6)
    table = support_table_above(u)
    covers, floors = scnp._floor_fold(u)

    def greedy_support(w):
        support = frozenset({(0,) * 5})
        for a, b in greedy_chain(u, w).labels:
            support = add_segment(support, a, b)
        return support

    ordered = sorted(table, key=lambda p: (length(p), p))
    sample = [w for w in ordered if greedy_support(w) != table[w]][:40]
    assert len(sample) == 40
    for w in sample:
        verdict = scnp._scnp_decide(u, w, table[w])
        assert verdict.holds == (dominant_chain_by_sets(u, w, table[w]) is not None)
        path = scnp._floor_path(covers, u, w, floors)
        assert (path is not None) == verdict.holds
        if path is not None:
            assert chain_weight(floor_chain(u, path)).support() == table[w]


def test_is_scnp_rejects_bad_pairs():
    with pytest.raises(ValueError):
        is_scnp((2, 1, 3), (1, 3, 2))
    with pytest.raises(ValueError):
        is_scnp((1, 2), (3, 2, 1))


def test_is_scnp_witness_recheck_s4_from_identity():
    e = identity(4)
    for w in all_perms(4):
        v = is_scnp(e, w)
        assert v.holds
        assert chain_weight(v.witness).support() == ps_support(e, w)


def test_scnp_implies_snp_s4():
    for u, w in comparable_pairs(4):
        v = is_scnp(u, w)
        if v.holds:
            assert is_snp(postnikov_stanley_dp(u, w))


def test_verify_ps_mconvex_small():
    r3 = verify_ps_mconvex(3)
    assert r3.ok() and r3.complete
    assert r3.checked_pairs == 19
    assert r3.counterexamples == []
    r4 = verify_ps_mconvex(4)
    assert r4.ok()
    assert r4.checked_pairs == 213


def test_verify_scnp_pattern_s4():
    r = verify_scnp_pattern(4)
    assert r.ok()
    assert r.checked_pairs == 213
    assert r.counterexamples == []
    assert r.scnp_failures == [("1324", "4231")]


def test_verify_scnp_pattern_below_pattern_rank():
    r = verify_scnp_pattern(3)
    assert r.ok()
    assert r.scnp_failures == []


def test_verify_theorems_small():
    r = verify_theorems(3)
    assert r.ok()
    assert r.checked_pairs == 6
    r4 = verify_theorems(4)
    assert r4.ok()
    assert r4.checked_pairs == 24


VERIFY = {
    "ps-mconvex": verify_ps_mconvex,
    "scnp-pattern": verify_scnp_pattern,
    "paper-theorems": verify_theorems,
}


def without_elapsed(report) -> dict:
    out = report.to_json_dict()
    del out["elapsed"]
    return out


def checkpoint_done(path) -> dict:
    return json.loads(path.read_text())["done"]


@pytest.mark.parametrize("mode", list(scnp.SWEEPS))
def test_budget_zero_yields_resumable_partial(mode, tmp_path):
    verify = VERIFY[mode]
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    serial = verify(4, checkpoint_path=serial_path)
    r = verify(4, budget=0, checkpoint_path=path)
    assert not r.complete
    assert not r.ok()
    assert r.checked_pairs == 0
    token = r.resume_token
    assert token["mode"] == mode and token["n"] == 4 and token["done"] == {}
    full = verify(4, resume=token, checkpoint_path=path)
    assert full.ok()
    assert without_elapsed(full) == without_elapsed(serial)
    assert checkpoint_done(path) == checkpoint_done(serial_path)


def test_resume_rejects_mismatched_token():
    r = verify_scnp_pattern(4, budget=0)
    with pytest.raises(ValueError):
        verify_ps_mconvex(4, resume=r.resume_token)
    with pytest.raises(ValueError):
        verify_scnp_pattern(5, resume=r.resume_token)


def test_checkpoint_file_round_trip(tmp_path):
    path = tmp_path / "sweep.json"
    partial = verify_ps_mconvex(3, budget=0, checkpoint_path=path)
    assert not partial.complete
    token = json.loads(path.read_text())
    full = verify_ps_mconvex(3, resume=token, checkpoint_path=path)
    assert full.ok() and full.checked_pairs == 19
    final_token = json.loads(path.read_text())
    assert set(final_token["done"]) == {
        "123", "132", "213", "231", "312", "321",
    }


@pytest.mark.parametrize("mode", list(scnp.SWEEPS))
def test_parallel_sweep_matches_serial(mode, monkeypatch, tmp_path):
    verify = VERIFY[mode]
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    serial = verify(4, checkpoint_path=serial_path)
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)
    lag = []

    def progress(done, total, key):
        lag.append(done - len(checkpoint_done(path)))

    parallel = verify(4, jobs=2, checkpoint_path=path, progress=progress)
    assert parallel.ok()
    assert without_elapsed(parallel) == without_elapsed(serial)
    assert checkpoint_done(path) == checkpoint_done(serial_path)
    assert lag == [0] * 24  # the checkpoint is written after every unit


def test_budget_bounds_a_pool_sweep(monkeypatch):
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)
    start = time.monotonic()
    report = verify_ps_mconvex(6, jobs=2, budget=1.0)
    assert time.monotonic() - start < 15
    assert not report.complete
    assert multiprocessing.active_children() == []


def test_error_in_pool_sweep_stops_the_workers(monkeypatch):
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)

    def fail(done, total, key):
        raise RuntimeError("progress failed")

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="progress failed"):
        verify_scnp_pattern(6, jobs=2, progress=fail)
    assert time.monotonic() - start < 15
    assert multiprocessing.active_children() == []


def test_unit_error_in_a_worker_reaches_the_caller(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched unit only when forked")
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)

    def broken(mode, n, key):
        raise ValueError(f"unit {key} failed")

    monkeypatch.setattr(scnp, "_run_unit", broken)
    with pytest.raises(ValueError, match=r"unit \d+ failed") as info:
        verify_scnp_pattern(4, jobs=2)
    assert "in a worker process" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


def test_dead_worker_is_named_and_finished_units_kept(monkeypatch, tmp_path):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched unit only when forked")
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    verify_scnp_pattern(4, checkpoint_path=serial_path)
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)
    run_unit = scnp._run_unit

    def dying(mode, n, key):
        if key == "2134":
            os._exit(9)
        return run_unit(mode, n, key)

    monkeypatch.setattr(scnp, "_run_unit", dying)
    with pytest.raises(RuntimeError, match="unit 2134 died with exit code 9"):
        verify_scnp_pattern(4, jobs=2, checkpoint_path=path)
    assert multiprocessing.active_children() == []
    done, serial = checkpoint_done(path), checkpoint_done(serial_path)
    assert done and "2134" not in done
    assert done == {key: serial[key] for key in done}


def test_single_usable_cpu_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(scnp, "Process", no_pool)
    report = verify_scnp_pattern(4, jobs=2)
    assert report.ok() and report.scnp_failures == [("1324", "4231")]


def test_failed_checkpoint_write_keeps_previous_checkpoint(monkeypatch, tmp_path):
    path = tmp_path / "sweep.json"
    old = {"mode": "ps-mconvex", "n": 3, "elapsed": 1.0, "done": {}}
    scnp._write_checkpoint(path, old)

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(scnp.os, "replace", crash)
    with pytest.raises(ValueError, match="cannot write checkpoint"):
        scnp._write_checkpoint(path, dict(old, elapsed=2.0))
    assert json.loads(path.read_text()) == old
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_progress_callback_sees_every_unit():
    seen = []
    verify_theorems(3, progress=lambda done, total, key: seen.append((done, total, key)))
    assert len(seen) == 6
    assert all(total == 6 for _, total, _ in seen)
    assert [key for *_, key in seen] == ["123", "132", "213", "231", "312", "321"]


def test_report_json_and_summary():
    r = verify_scnp_pattern(4)
    d = r.to_json_dict()
    assert d["mode"] == "scnp-pattern"
    assert d["complete"] is True
    assert d["scnp_failures"] == [["1324", "4231"]]
    assert json.dumps(d)
    text = r.summary()
    assert "checked pairs    213" in text
    assert "non-dominant pairs  (1324, 4231)" in text


def test_support_table_route_matches_dual_table():
    table = dual_schubert_table(4)
    supports = support_table_above(identity(4))
    for w, f in table.items():
        assert supports[w] == f.support()
