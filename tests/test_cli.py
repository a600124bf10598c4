"""End-to-end command-line checks through main()."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dualschubert import cli
from dualschubert.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_dual_schubert_text(capsys):
    rc, out, _ = run(capsys, "dual-schubert", "321")
    assert rc == 0
    assert out == "1/2*x1^2*x2 + 1/2*x1*x2^2\n"


def test_ps_text_and_json(capsys):
    rc, out, _ = run(capsys, "ps", "213", "321")
    assert rc == 0
    assert out == "x1*x2 + 1/2*x2^2\n"
    rc, out, _ = run(capsys, "ps", "213", "321", "--json")
    assert rc == 0
    assert json.loads(out) == {
        "nvars": 2,
        "terms": [
            {"exp": [1, 1], "num": "1", "den": "1"},
            {"exp": [0, 2], "num": "1", "den": "2"},
        ],
    }


def test_gw_text(capsys):
    rc, out, _ = run(capsys, "gw", "4213")
    assert rc == 0
    assert out == "x1^3*x2 + 2*x1^2*x2^2 + x1*x2^3 + x1^2*x2*x3 + x1*x2^2*x3\n"


def test_support_single_and_pair(capsys):
    rc, out, _ = run(capsys, "support", "213", "321")
    assert rc == 0
    assert out == "1 1\n0 2\n"
    rc, out, _ = run(capsys, "support", "321", "--json")
    assert rc == 0
    assert json.loads(out) == {"nvars": 2, "points": [[2, 1], [1, 2]]}


def test_support_rejects_three_perms(capsys):
    rc, _, err = run(capsys, "support", "213", "231", "321")
    assert rc == 2
    assert err.startswith("error:")


def test_support_rejects_a_rank_mismatch(capsys):
    rc, out, err = run(capsys, "support", "12", "321")
    assert rc == 2
    assert out == ""
    assert err == "error: rank mismatch: 12 vs 321\n"


@pytest.mark.parametrize(
    "command", ["chains", "greedy", "ps", "check-scnp", "support", "check-snp", "check-mconvex"]
)
def test_every_pair_command_names_both_permutations_in_a_rank_mismatch(capsys, command):
    rc, out, err = run(capsys, command, "12", "321")
    assert rc == 2
    assert out == ""
    assert err == "error: rank mismatch: 12 vs 321\n"


def test_newton_text_and_json(capsys):
    rc, out, _ = run(capsys, "newton", "4213")
    assert rc == 0
    assert out.splitlines() == [
        "t1 + t2 + t3 = 4",
        "t1 >= 1",
        "t2 >= 1",
        "t3 >= 0",
        "t1 + t2 >= 3",
        "t1 + t3 >= 1",
        "t2 + t3 >= 1",
    ]
    rc, out, _ = run(capsys, "newton", "321", "--json")
    assert json.loads(out) == {
        "nvars": 2,
        "z": {"{}": 0, "{1}": 1, "{2}": 1, "{1,2}": 3},
    }


def test_newton_on_no_variables(capsys):
    rc, out, _ = run(capsys, "newton", "1")
    assert rc == 0
    assert out == "0 = 0\n"


def test_vertices_methods_agree(capsys):
    expected = "1 2 1\n1 3 0\n2 1 1\n3 1 0\n"
    for method in ["tilings", "coeff1", "hull"]:
        rc, out, _ = run(capsys, "vertices", "4213", "--method", method)
        assert rc == 0
        assert out == expected
    rc, out, _ = run(capsys, "vertices", "4213", "--json")
    assert json.loads(out) == {
        "w": "4213",
        "method": "tilings",
        "vertices": [[1, 2, 1], [1, 3, 0], [2, 1, 1], [3, 1, 0]],
    }


def test_tilings_text_json_render(capsys):
    rc, out, _ = run(capsys, "tilings", "4213")
    assert rc == 0
    assert out.splitlines()[0] == (
        "vertex (3, 1, 0)  rects (1, 1, 1, 3) (2, 1, 2, 2) (3, 1, 3, 1)"
    )
    assert len(out.splitlines()) == 5
    rc, out, _ = run(capsys, "tilings", "4213", "--json")
    data = json.loads(out)
    assert data["w"] == "4213"
    assert len(data["tilings"]) == 5
    rc, out, _ = run(capsys, "tilings", "4213", "--render")
    assert rc == 0
    assert "+---+" in out
    assert out.count("vertex") == 5


@pytest.mark.parametrize("form", [[], ["--json"], ["--render"]])
def test_tilings_of_rank_one_exit_2(capsys, form):
    rc, out, err = run(capsys, "tilings", "1", *form)
    assert rc == 2
    assert out == ""
    assert err == "error: staircase needs rank >= 2, got 1\n"


def test_greedy_text_and_json(capsys):
    rc, out, _ = run(capsys, "greedy", "123", "321")
    assert rc == 0
    assert out == "123 <(2,3) 132 <(1,3) 231 <(1,2) 321\n"
    rc, out, _ = run(capsys, "greedy", "123", "321", "--json")
    assert json.loads(out) == {
        "nodes": ["123", "132", "231", "321"],
        "labels": [[2, 3], [1, 3], [1, 2]],
    }


def test_chains_full_and_limited(capsys):
    rc, out, _ = run(capsys, "chains", "123", "321")
    assert rc == 0
    assert out.splitlines() == [
        "123 <(1,2) 213 <(1,3) 312 <(2,3) 321",
        "123 <(1,2) 213 <(2,3) 231 <(1,2) 321",
        "123 <(2,3) 132 <(1,2) 312 <(2,3) 321",
        "123 <(2,3) 132 <(1,3) 231 <(1,2) 321",
    ]
    rc, out, _ = run(capsys, "chains", "123", "321", "--limit", "2")
    assert out.splitlines()[-1] == "... (stopped after 2 chains)"
    rc, out, _ = run(capsys, "chains", "123", "321", "--limit", "2", "--json")
    data = json.loads(out)
    assert data["truncated"] is True
    assert len(data["chains"]) == 2
    rc, out, _ = run(capsys, "chains", "123", "321", "--json")
    assert json.loads(out)["truncated"] is False


def test_chains_render_draws_the_interval(capsys):
    rc, out, _ = run(capsys, "chains", "123", "321", "--render")
    assert rc == 0
    assert out.splitlines()[:5] == [
        "interval [123, 321]: 6 elements",
        "  length 3: 321",
        "  length 2: 231 312",
        "  length 1: 132 213",
        "  length 0: 123",
    ]
    assert len(out.splitlines()) == 9  # then the four chains


@pytest.mark.parametrize("u, w", [("213", "132"), ("321", "123")])
@pytest.mark.parametrize("flags", [[], ["--render"], ["--json"]])
def test_chains_rejects_incomparable_pairs(capsys, u, w, flags):
    rc, out, err = run(capsys, "chains", u, w, *flags)
    assert rc == 2
    assert out == ""
    assert err == f"error: {u} is not below {w} in Bruhat order\n"


def test_check_snp(capsys):
    rc, out, _ = run(capsys, "check-snp", "1324", "4231")
    assert rc == 0
    assert out == "snp: true\n"
    rc, out, _ = run(capsys, "check-snp", "1234", "4321", "--json")
    assert rc == 0
    assert json.loads(out)["snp"] is True


def test_check_mconvex(capsys):
    rc, out, _ = run(capsys, "check-mconvex", "1324", "4231")
    assert rc == 0
    assert out == "m-convex: true\n"


def test_check_mconvex_names_the_failed_exchange(capsys, monkeypatch):
    # no interval support up to rank 7 fails, so the support is patched
    monkeypatch.setattr(cli, "ps_support", lambda u, w: frozenset({(2, 0), (0, 2)}))
    rc, out, _ = run(capsys, "check-mconvex", "123", "321")
    assert rc == 1
    assert out == "m-convex: false (no exchange for (0, 2) over (2, 0) at coordinate 2)\n"
    rc, out, _ = run(capsys, "check-mconvex", "123", "321", "--json")
    assert rc == 1
    assert json.loads(out) == {
        "u": "123",
        "w": "321",
        "m_convex": False,
        "failure": {"alpha": [0, 2], "beta": [2, 0], "coordinate": 2},
    }


def test_check_scnp_positive(capsys):
    rc, out, _ = run(capsys, "check-scnp", "213", "321")
    assert rc == 0
    assert out.splitlines() == [
        "single-chain property: true",
        "dominant chain: 213 <(1,3) 312 <(2,3) 321",
        "chains examined: 2",
    ]


def test_check_scnp_negative_exit_code(capsys):
    rc, out, _ = run(capsys, "check-scnp", "1324", "4231")
    assert rc == 1
    assert out.splitlines() == [
        "single-chain property: false",
        "chains examined: 1",
    ]
    rc, out, _ = run(capsys, "check-scnp", "1324", "4231", "--json")
    assert rc == 1
    data = json.loads(out)
    assert data["holds"] is False and data["witness"] is None


def test_check_scnp_trivial_interval_names_its_chain(capsys):
    # u == w: the dominant chain has no cover, and both forms name it
    rc, out, _ = run(capsys, "check-scnp", "213", "213")
    assert rc == 0
    assert out.splitlines() == [
        "single-chain property: true",
        "dominant chain: 213",
        "chains examined: 1",
    ]
    rc, out, _ = run(capsys, "check-scnp", "213", "213", "--json")
    assert rc == 0
    assert json.loads(out) == {
        "u": "213", "w": "213", "holds": True,
        "witness": {"nodes": ["213"], "labels": []}, "chains_examined": 1,
    }


def test_verify_summary_and_exit(capsys):
    rc, out, err = run(capsys, "verify", "--mode", "scnp-pattern", "--n", "4")
    assert rc == 0
    assert "checked pairs    213" in out
    assert "non-dominant pairs  (1324, 4231)" in out
    assert "progress: 24/24 units" in err


def test_verify_progress_lines_give_rate_and_eta(capsys):
    _, _, err = run(capsys, "verify", "--mode", "scnp-pattern", "--n", "4", "--jobs", "2")
    lines = err.splitlines()
    assert len(lines) == 24
    for done, line in enumerate(lines, start=1):
        assert re.fullmatch(
            rf"progress: {done}/24 units \(finished \d{{4}}\),"
            r" \d+\.\d\d units/s, ETA \d+:\d\d:\d\d",
            line,
        ), line
    assert lines[-1].endswith("ETA 0:00:00")


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--mode", "ps-mconvex", "--n", "3", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["checked_pairs"] == 19
    assert data["complete"] is True
    assert data["counterexamples"] == []


def test_verify_budget_and_resume(capsys, tmp_path):
    ckpt = tmp_path / "sweep.json"
    rc, out, err = run(
        capsys,
        "verify", "--mode", "scnp-pattern", "--n", "4",
        "--budget", "0", "--checkpoint", str(ckpt),
    )
    assert rc == 0
    assert "complete         no (resumable)" in out
    assert "budget exhausted" in err
    rc, out, _ = run(
        capsys,
        "verify", "--mode", "scnp-pattern", "--n", "4",
        "--resume", str(ckpt),
    )
    assert rc == 0
    assert "checked pairs    213" in out
    assert "complete         yes" in out


def test_verify_resume_mode_mismatch(capsys, tmp_path):
    ckpt = tmp_path / "sweep.json"
    run(capsys, "verify", "--mode", "ps-mconvex", "--n", "3",
        "--budget", "0", "--checkpoint", str(ckpt))
    rc, _, err = run(
        capsys,
        "verify", "--mode", "scnp-pattern", "--n", "3", "--resume", str(ckpt),
    )
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "token",
    [
        [],
        {"mode": "ps-mconvex", "n": 3, "done": {"123": {"pairs": 6}}},
        {"mode": "ps-mconvex", "n": 3, "done": {"123": {"pairs": True, "fails": []}}},
        {"mode": "ps-mconvex", "n": True, "done": {}},
        {"mode": "ps-mconvex", "n": 3, "elapsed": float("nan"), "done": {}},
        {"mode": "ps-mconvex", "n": 3, "elapsed": 10**400, "done": {}},
        {"mode": "ps-mconvex", "n": 3, "done": {"123": {"pairs": -5, "fails": []}}},
        {"mode": "ps-mconvex", "n": 3, "elapsed": -50.0, "done": {}},
    ],
    ids=["json-list", "record-without-fails", "bool-pairs", "bool-n", "nan-elapsed",
         "elapsed-beyond-float", "negative-pairs", "negative-elapsed"],
)
def test_verify_malformed_resume_is_usage_error(capsys, tmp_path, token):
    ckpt = tmp_path / "sweep.json"
    ckpt.write_text(json.dumps(token))
    rc, _, err = run(
        capsys,
        "verify", "--mode", "ps-mconvex", "--n", "3", "--resume", str(ckpt),
    )
    assert rc == 2
    assert err.startswith("error: malformed resume token")
    if token == {"mode": "ps-mconvex", "n": 3, "elapsed": -50.0, "done": {}}:
        assert "non-negative elapsed" in err


@pytest.mark.parametrize(
    "done, error",
    [
        ({"123": {"pairs": 6, "fails": []}, "9999": {"pairs": 7, "fails": ["x"]}},
         "records units that are not permutations of S_3"),
        ({"132": {"pairs": 4, "fails": ["x"]}}, "lists fails that are not permutations"),
        ({"132": {"pairs": 4, "fails": [321]}}, "lists fails that are not permutations"),
        ({"123": {"pairs": 999, "fails": ["123", "123"]}},
         "above their unit, distinct and in (length, v) order"),
    ],
    ids=["foreign-unit", "foreign-fail", "non-string-fail", "invented-fails"],
)
def test_verify_resume_outside_the_group_is_usage_error(capsys, tmp_path, done, error):
    ckpt = tmp_path / "sweep.json"
    ckpt.write_text(json.dumps({"mode": "ps-mconvex", "n": 3, "done": done}))
    rc, _, err = run(
        capsys,
        "verify", "--mode", "ps-mconvex", "--n", "3", "--resume", str(ckpt),
    )
    assert rc == 2
    assert err.startswith("error: resume token") and error in err


@pytest.mark.parametrize(
    "mode, n, done",
    [("paper-theorems", 2, {"12": {"pairs": 999, "fails": []}}),
     ("paper-theorems", 2, {"12": {"pairs": 0, "fails": []}}),
     ("ps-mconvex", 3, {"123": {"pairs": 1, "fails": ["132"]}}),
     ("scnp-pattern", 3, {"123": {"pairs": 0, "fails": []}})],
    ids=["theorems-999", "theorems-0", "mirrored-fewer-than-fails", "mirrored-0"],
)
def test_verify_resume_with_impossible_pair_counts_is_usage_error(capsys, tmp_path,
                                                                  mode, n, done):
    ckpt = tmp_path / "sweep.json"
    ckpt.write_text(json.dumps({"mode": mode, "n": n, "elapsed": 0.0, "done": done}))
    rc, _, err = run(capsys, "verify", "--mode", mode, "--n", str(n), "--resume", str(ckpt))
    assert rc == 2
    assert err.startswith("error: resume token counts pairs its units could not")


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["ps-mconvex", "scnp-pattern", "paper-theorems"])
def test_rank5_sweeps_pass_the_benchmark_output_checks(capsys, tmp_path, mode):
    # the benchmark's own checks and recorded values, read where they live
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    checks = load_by_path("perfbench_checks", bench / "checks.py")
    expected = json.loads((bench / "expected.json").read_text())
    ckpt = tmp_path / "sweep.json"
    rc, out, _ = run(capsys, "verify", "--mode", mode, "--n", "5", "--jobs", "1",
                     "--checkpoint", str(ckpt), "--json")
    assert checks.sweep_failed_units(mode, rc, out, ckpt.read_text(), expected) == (0, [])


@pytest.mark.parametrize(
    "fails",
    [[1, "x"], [{"kind": "support-mismatch"}], [{"kind": 7, "w": "12"}],
     [{"kind": "support-mismatch", "w": "21"}],
     [{"kind": "support-mismatch", "w": "12", "u": "12"}]],
    ids=["not-records", "no-w", "non-string-kind", "another-units-w", "extra-field"],
)
def test_verify_theorems_resume_with_foreign_fails_is_usage_error(capsys, tmp_path, fails):
    ckpt = tmp_path / "sweep.json"
    ckpt.write_text(json.dumps({"mode": "paper-theorems", "n": 2, "elapsed": 0.0,
                                "done": {"12": {"pairs": 1, "fails": fails}}}))
    rc, _, err = run(
        capsys, "verify", "--mode", "paper-theorems", "--n", "2", "--resume", str(ckpt)
    )
    assert rc == 2
    assert err.startswith("error: resume token lists fails that are not records")


def test_verify_theorems_resume_keeps_records_the_unit_could_write(capsys, tmp_path):
    ckpt = tmp_path / "sweep.json"
    record = {"kind": "support-mismatch", "w": "12"}
    ckpt.write_text(json.dumps({"mode": "paper-theorems", "n": 2, "elapsed": 0.0,
                                "done": {"12": {"pairs": 1, "fails": [record]}}}))
    rc, out, _ = run(capsys, "verify", "--mode", "paper-theorems", "--n", "2",
                     "--resume", str(ckpt), "--json")
    assert rc == 1
    assert json.loads(out)["counterexamples"] == [record]


def test_verify_missing_resume_file_is_usage_error(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        "verify", "--mode", "ps-mconvex", "--n", "3",
        "--resume", str(tmp_path / "missing.json"),
    )
    assert rc == 2
    assert err.startswith("error: cannot read resume file")


@pytest.mark.parametrize(
    "content", [b"not json at all", b"\xff\xfe\x00binary"], ids=["text", "binary"]
)
def test_verify_unreadable_resume_file_names_the_file(capsys, tmp_path, content):
    ckpt = tmp_path / "sweep.json"
    ckpt.write_bytes(content)
    rc, _, err = run(
        capsys, "verify", "--mode", "ps-mconvex", "--n", "3", "--resume", str(ckpt)
    )
    assert rc == 2
    assert err.startswith(f"error: cannot read resume file {ckpt}: ")


def test_verify_json_partial_report_carries_its_resume_token(capsys):
    rc, out, err = run(
        capsys, "verify", "--mode", "scnp-pattern", "--n", "4", "--json", "--budget", "0"
    )
    assert rc == 0
    assert "budget exhausted" in err
    data = json.loads(out)
    assert data["complete"] is False
    assert data["checked_pairs"] == 0 and data["counterexamples"] == []
    token = data["resume_token"]
    assert token["mode"] == "scnp-pattern" and token["n"] == 4 and token["done"] == {}


def test_verify_budget_without_checkpoint_says_none_was_written(capsys):
    rc, out, err = run(
        capsys, "verify", "--mode", "ps-mconvex", "--n", "3", "--budget", "0"
    )
    assert rc == 0
    assert "complete         no (resumable)" in out
    assert "budget exhausted; no checkpoint was written" in err
    assert "--resume" not in err


def test_verify_checkpoint_in_missing_directory_is_usage_error(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        "verify", "--mode", "ps-mconvex", "--n", "3",
        "--checkpoint", str(tmp_path / "missing" / "sweep.json"),
    )
    assert rc == 2
    assert err.startswith("error: cannot write checkpoint")
    assert "progress:" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    rc, out, err = run(
        capsys, "verify", "--mode", "ps-mconvex", "--n", "3", "--jobs", jobs,
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: jobs must be at least 1")


@pytest.mark.parametrize("budget", ["inf", "nan"])
def test_verify_rejects_non_finite_budget(capsys, budget):
    rc, out, err = run(
        capsys,
        "verify", "--mode", "ps-mconvex", "--n", "4", "--jobs", "2",
        "--budget", budget,
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: budget must be a finite number of seconds")


@pytest.mark.parametrize("n", ["10", "11"])
def test_verify_rejects_ranks_above_nine_at_once(capsys, n):
    # before any budget, listing S_10 alone took 39 s and 1.7 GB
    started = time.monotonic()
    rc, out, err = run(
        capsys, "verify", "--mode", "scnp-pattern", "--n", n, "--budget", "0",
    )
    assert time.monotonic() - started < 1
    assert rc == 2
    assert out == ""
    assert err == f"error: rank must be <= 9, got {n}\n"


def test_verify_negative_budget_stops_at_once(capsys):
    rc, out, err = run(
        capsys, "verify", "--mode", "ps-mconvex", "--n", "4", "--budget", "-1",
    )
    assert rc == 0
    assert "checked pairs    0" in out
    assert "complete         no (resumable)" in out
    assert "progress:" not in err


def test_malformed_permutation_is_usage_error(capsys):
    rc, _, err = run(capsys, "dual-schubert", "999")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run(capsys, "ps", "213", "132")
    assert rc == 2
    assert "not below" in err
    rc, _, err = run(capsys, "chains", "123", "321", "--limit", "-1")
    assert rc == 2
    assert err.startswith("error: --limit")


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["vertices", "4213", "--method", "nope"])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mode", "nope", "--n", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


# -- one output path: a command returns its forms, and main prints the one asked for --


@pytest.mark.parametrize("argv", [
    ["dual-schubert", "321"], ["support", "213", "321"], ["newton", "4213"],
    ["vertices", "4213"], ["tilings", "4213", "--render"],
    ["chains", "123", "321", "--render", "--limit", "2"], ["check-snp", "4213"],
    ["check-mconvex", "4213"], ["check-scnp", "1324", "4231"],
], ids=" ".join)
def test_a_command_returns_both_forms_and_prints_neither(capsys, argv):
    args = cli.build_parser().parse_args(argv)
    as_json, as_text, code = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert run(capsys, *argv) == (code, as_text() + "\n", "")
    assert run(capsys, *argv, "--json") == (code, json.dumps(as_json()) + "\n", "")


def refuse(*args):
    raise AssertionError("built the output form that was not asked for")


def test_verify_builds_only_the_form_it_prints(capsys, monkeypatch):
    from dualschubert.scnp import ConjectureReport

    argv = ["verify", "--mode", "ps-mconvex", "--n", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(ConjectureReport, "summary", refuse)
        rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0 and json.loads(out)["checked_pairs"] == 19
    monkeypatch.setattr(ConjectureReport, "to_json_dict", refuse)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and "checked pairs    19\n" in out


def test_check_snp_reads_the_support_without_coefficients(capsys, monkeypatch):
    from dualschubert import poly

    monkeypatch.setattr(poly, "postnikov_stanley_dp", refuse)
    monkeypatch.setattr(poly, "_count_table", refuse)
    assert run(capsys, "check-snp", "1324", "4231") == (0, "snp: true\n", "")


def test_dual_schubert_json_never_prints_the_polynomial(capsys, monkeypatch):
    from dualschubert.poly import SparsePolynomial

    monkeypatch.setattr(SparsePolynomial, "__str__", refuse)
    rc, out, _ = run(capsys, "dual-schubert", "321", "--json")
    assert rc == 0 and json.loads(out)["nvars"] == 2


def test_budget_hint_follows_the_report():
    # stdout and stderr into one stream, as a terminal shows them
    joined = io.StringIO()
    with contextlib.redirect_stdout(joined), contextlib.redirect_stderr(joined):
        rc = main(["verify", "--mode", "scnp-pattern", "--n", "4", "--budget", "0"])
    lines = joined.getvalue().splitlines()
    assert rc == 0
    assert lines[0] == "mode             scnp-pattern"
    assert lines[-2:] == [
        "complete         no (resumable)",
        "budget exhausted; no checkpoint was written"
        " (pass --checkpoint FILE to resume later)",
    ]


# -- start-up: a command loads only the modules it runs ---------------------------------


def fresh_interpreter(code: str) -> str:
    """The last line `code` prints, run in a new interpreter on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.splitlines()[-1]


UNUSED_BY_SCNP_PATTERN = ["dualschubert.poly", "dualschubert.polytope", "dualschubert.tiling",
                          "fractions", "dataclasses", "traceback", "multiprocessing"]


def test_package_names_resolve_on_first_read():
    import dualschubert

    for name in dualschubert.__all__:
        home = importlib.import_module(f"dualschubert.{dualschubert._HOME[name]}")
        assert getattr(dualschubert, name) is getattr(home, name)
    assert set(dualschubert.__all__) <= set(dir(dualschubert))
    with pytest.raises(AttributeError):
        dualschubert.no_such_name


def test_scnp_pattern_verify_loads_no_polytope_module():
    # neither the import nor the sweep loads these: below rank 6 its units
    # run in this process, whatever --jobs says
    loaded = json.loads(fresh_interpreter(f"""
import json, sys
unused = {UNUSED_BY_SCNP_PATTERN!r}
import dualschubert
package = sorted(m for m in sys.modules if m.startswith("dualschubert."))
import dualschubert.cli as cli
imported = [m for m in unused if m in sys.modules]
rc = cli.main(["verify", "--mode", "scnp-pattern", "--n", "5", "--jobs", "2", "--json"])
print(json.dumps([package, imported, rc, [m for m in unused if m in sys.modules]]))
"""))
    assert loaded == [[], [], 0, []]


@pytest.mark.parametrize("mode", ["ps-mconvex", "paper-theorems"])
def test_pool_sweep_loads_its_unit_modules_before_the_first_fork(mode):
    # every module the units load in a fresh process is already loaded when
    # the sweep starts its first worker, so no worker compiles one
    start = "import json, sys\nfrom dualschubert import cli, scnp\n"
    used = json.loads(fresh_interpreter(start + f"""
from dualschubert.perm import all_perms, format_perm
before = set(sys.modules)
for key in map(format_perm, all_perms(4)):
    scnp._run_unit("{mode}", 4, key)
print(json.dumps(sorted(set(sys.modules) - before)))
"""))
    at_fork = json.loads(fresh_interpreter(start + f"""
import multiprocessing
at_start = []


class Recorded(multiprocessing.Process):
    def start(self):
        at_start.append(sorted(sys.modules))
        super().start()


multiprocessing.Process, scnp._usable_cpus = Recorded, lambda: 2
scnp._POOL_RANK = 1  # start workers at rank 4
assert cli.main(["verify", "--mode", "{mode}", "--n", "4", "--jobs", "2", "--json"]) == 0
print(json.dumps(at_start[0]))
"""))
    assert {"dualschubert.poly", "dualschubert.polytope", "fractions"} <= set(used)
    assert set(used) <= set(at_fork)
