"""Single-chain support decisions and the exhaustive sweep harness."""

from __future__ import annotations

import json

import pytest

from dualschubert import (
    all_perms,
    bruhat_leq,
    chain_weight,
    dual_schubert_table,
    greedy_chain,
    identity,
    is_scnp,
    is_snp,
    postnikov_stanley_dp,
    ps_support,
    support_table_above,
    verify_ps_mconvex,
    verify_scnp_pattern,
    verify_theorems,
)
from dualschubert import scnp
from dualschubert.scnp import LOWER_PATTERN, UPPER_PATTERN


def comparable_pairs(n):
    perms = list(all_perms(n))
    return [(u, w) for u in perms for w in perms if bruhat_leq(u, w)]


def test_pattern_constants():
    assert LOWER_PATTERN == (1, 3, 2, 4)
    assert UPPER_PATTERN == (4, 2, 3, 1)


def test_ps_support_matches_polynomial_route_s4():
    for u, w in comparable_pairs(4):
        assert ps_support(u, w) == postnikov_stanley_dp(u, w).support()


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
    assert v.chains_examined > 1
    # the separating example: saturated but no single dominant chain
    assert is_snp(postnikov_stanley_dp((1, 3, 2, 4), (4, 2, 3, 1)))


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


def test_budget_zero_yields_resumable_partial():
    r = verify_scnp_pattern(4, budget=0)
    assert not r.complete
    assert not r.ok()
    assert r.checked_pairs == 0
    token = r.resume_token
    assert token["mode"] == "scnp-pattern" and token["n"] == 4
    full = verify_scnp_pattern(4, resume=token)
    assert full.ok()
    assert full.checked_pairs == 213
    assert full.scnp_failures == [("1324", "4231")]


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


def test_parallel_sweep_matches_serial():
    serial = verify_scnp_pattern(4)
    parallel = verify_scnp_pattern(4, jobs=2)
    assert parallel.ok()
    assert parallel.checked_pairs == serial.checked_pairs
    assert parallel.scnp_failures == serial.scnp_failures
    assert parallel.counterexamples == serial.counterexamples


def test_single_usable_cpu_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(scnp, "ProcessPoolExecutor", no_pool)
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
