"""End-to-end command-line checks through main()."""

from __future__ import annotations

import json

import pytest

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
        "chains examined: 9",
    ]
    rc, out, _ = run(capsys, "check-scnp", "1324", "4231", "--json")
    assert rc == 1
    data = json.loads(out)
    assert data["holds"] is False and data["witness"] is None


def test_verify_summary_and_exit(capsys):
    rc, out, err = run(capsys, "verify", "--mode", "scnp-pattern", "--n", "4")
    assert rc == 0
    assert "checked pairs    213" in out
    assert "non-dominant pairs  (1324, 4231)" in out
    assert "progress: 24/24 units" in err


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
    ],
    ids=["json-list", "record-without-fails"],
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


def test_verify_missing_resume_file_is_usage_error(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        "verify", "--mode", "ps-mconvex", "--n", "3",
        "--resume", str(tmp_path / "missing.json"),
    )
    assert rc == 2
    assert err.startswith("error: cannot read resume file")


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


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["vertices", "4213", "--method", "nope"])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mode", "nope", "--n", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
