"""Record the CLI's exit code, stdout and stderr on a fixed corpus of argv.

    PYTHONPATH=src python tests/make_cli_golden.py

writes `tests/cli_golden.json`, one entry per line, from the package on the
import path; `tests/test_cli_golden.py` replays every entry through
`cli.main` and compares the bytes.  The corpus covers every command: on
every permutation of ranks 1 to 3 and every comparable pair of them, in both
output forms; on every other pair of those ranks (incomparable or of two
ranks) and on malformed ASCII strings, in text form, since an error prints
the same in both; `check-snp` and `check-scnp` on every comparable pair of
S_4; the sweeps at ranks 1 to 4, under a zero budget and with bad
arguments; every `--help`.  Sweep timings (`elapsed`, rate, ETA) are
blanked, and help text is laid out for 80 columns.  The file stays under
250 KB.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from itertools import chain, product
from pathlib import Path

from dualschubert.bruhat import bruhat_leq
from dualschubert.cli import main
from dualschubert.perm import all_perms, format_perm, parse_perm

GOLDEN = Path(__file__).with_name("cli_golden.json")

# the permutation arguments and the options of each variant, before the form
SINGLE = [["dual-schubert"], ["gw"], ["newton"], ["vertices"],
          ["vertices", "--method", "coeff1"], ["vertices", "--method", "hull"],
          ["tilings"], ["tilings", "--render"], ["support"], ["check-snp"],
          ["check-mconvex"]]
PAIR = [["ps"], ["support"], ["greedy"], ["chains"], ["chains", "--render"],
        ["chains", "--limit", "1"], ["check-snp"], ["check-mconvex"], ["check-scnp"]]
MALFORMED = ["", "0", "11", "999", "10", "abc", "1 2", "-12", "[]", "[1,2", "[1,x]",
             "[1,,2]", "[0,1]", "[2,2]"]
FORMS = [[], ["--json"]]
COMMANDS = ["dual-schubert", "ps", "gw", "support", "newton", "vertices", "tilings",
            "greedy", "chains", "check-snp", "check-mconvex", "check-scnp", "verify"]
MODES = ["ps-mconvex", "scnp-pattern", "paper-theorems"]

TIMINGS = [
    (re.compile(r"\d+\.\d\d units/s, ETA \d+:\d\d:\d\d"), "R units/s, ETA T"),
    (re.compile(r"^elapsed( +)\d+\.\d\ds$", re.M), r"elapsed\1Ts"),
    (re.compile(r'"elapsed": [-+.\deE]+'), '"elapsed": "T"'),
]


def corpus() -> list[list[str]]:
    perms = [format_perm(p) for n in (1, 2, 3) for p in all_perms(n)]
    pairs = [[u, w] for u, w in product(perms, perms)]
    below = [pair for pair in pairs
             if len(pair[0]) == len(pair[1]) and bruhat_leq(*map(parse_perm, pair))]
    s4 = list(all_perms(4))
    s4_pairs = [list(map(format_perm, pair)) for pair in product(s4, s4) if bruhat_leq(*pair)]
    both_forms = chain(
        ([cmd, p, *opts] for cmd, *opts in SINGLE for p in perms),
        ([cmd, *pair, *opts] for cmd, *opts in PAIR for pair in below),
        (["verify", "--mode", mode, "--n", str(n)] for mode in MODES for n in (1, 2, 3, 4)),
        (["verify", "--mode", mode, "--n", "3", "--budget", "0"] for mode in MODES),
        (["chains", "123", "321", "--limit", "0"],),
    )
    text_only = chain(
        ([cmd, bad, *opts] for cmd, *opts in SINGLE for bad in MALFORMED),
        ([cmd, *pair, *opts] for cmd, *opts in PAIR for pair in pairs if pair not in below),
        ([cmd, bad, "21", *opts] for cmd, *opts in PAIR for bad in MALFORMED),
        ([cmd, *pair] for cmd in ("check-snp", "check-scnp") for pair in s4_pairs),
        (["verify", "--mode", "ps-mconvex", *bad] for bad in (
            ["--n", "0"], ["--n", "10"], ["--n", "3", "--jobs", "0"],
            ["--n", "3", "--budget", "nan"])),
        (["chains", "123", "321", "--limit", "-1"],),
        (["--help"],), ([cmd, "--help"] for cmd in COMMANDS),
    )
    return [argv + form for argv in both_forms for form in FORMS] + list(text_only)


def invoke(argv: list[str]) -> dict:
    """One `main(argv)`: its exit code and output, sweep timings blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    texts = [out.getvalue(), err.getvalue()]
    if argv[0] == "verify":
        for pattern, blank in TIMINGS:
            texts = [pattern.sub(blank, t) for t in texts]
    return {"argv": argv, "code": code, "out": texts[0], "err": texts[1]}


def main_() -> None:
    os.environ["COLUMNS"] = "80"
    entries = [json.dumps(invoke(argv), separators=(",", ":")) for argv in corpus()]
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n")
    print(f"{len(entries)} entries, {GOLDEN.stat().st_size} bytes -> {GOLDEN}")


if __name__ == "__main__":
    main_()
