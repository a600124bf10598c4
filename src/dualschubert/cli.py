"""
Command-line front end.

Permutation arguments accept compact digits ("4213") or a bracketed comma
list ("[4,2,1,3]"), ASCII digits only.  Commands that take an optional lower
endpoint default it to the identity.

There is one output path.  A command computes from its arguments alone and
returns its JSON value and its text as zero-argument callables, its exit
code, and any notes for stderr; it prints nothing to stdout.  `main` builds
the one form asked for (`--json` selects the documented JSON schema, whose
re-serialization reproduces the bytes exactly), prints it, then the notes,
and returns the code.  A ValueError raised while formatting still exits 2.
Options such as `--render` shape only the text.

Exit codes: 0 success / property holds; 1 property fails or a sweep found a
counterexample; 2 usage or malformed input; 3 internal error.

The parser needs only `scnp.SWEEPS`, so importing this module loads `perm`,
`bruhat` and `scnp`; each command imports the rest of what it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import islice
from pathlib import Path

from . import bruhat, scnp
from .bruhat import enumerate_chains, greedy_chain
from .perm import Perm, format_perm, identity, length, parse_perm
from .scnp import is_scnp, ps_support


def _endpoints(*perms: str) -> tuple[Perm, Perm]:
    """Read w alone (identity lower end) or u then w, of one rank."""
    if len(perms) > 2:
        raise ValueError("expected one permutation (w) or two (u w)")
    *u, w = map(parse_perm, perms)
    u = u[0] if u else identity(len(w))
    if len(u) != len(w):
        raise ValueError(f"rank mismatch: {format_perm(u)} vs {format_perm(w)}")
    return u, w


def _rows(rows) -> str:
    """One line per row, its entries separated by spaces."""
    return "\n".join(" ".join(map(str, row)) for row in rows)


# -- polynomial commands --------------------------------------------------------


def _cmd_dual_schubert(args):
    from .poly import dual_schubert

    f = dual_schubert(parse_perm(args.w))
    return f.to_json_dict, f.__str__, 0


def _cmd_ps(args):
    from .poly import postnikov_stanley_dp

    f = postnikov_stanley_dp(*_endpoints(args.u, args.w))
    return f.to_json_dict, f.__str__, 0


def _cmd_gw(args):
    from .poly import global_weight

    f = global_weight(parse_perm(args.w))
    return f.to_json_dict, f.__str__, 0


def _cmd_support(args):
    from .poly import grevlex_key

    u, w = _endpoints(*args.perm)
    points = sorted(ps_support(u, w), key=grevlex_key)
    return (lambda: {"nvars": len(w) - 1, "points": [list(p) for p in points]},
            lambda: _rows(points), 0)


# -- polytope commands -----------------------------------------------------------


def _cmd_newton(args):
    from .polytope import _subset_order, gp_from_inversions

    gp = gp_from_inversions(parse_perm(args.w))

    def text() -> str:
        if gp.nvars == 0:
            return "0 = 0"
        full = frozenset(range(1, gp.nvars + 1))
        others = [s for s in sorted(gp.z, key=_subset_order) if s and s != full]
        return "\n".join(" + ".join(f"t{i}" for i in sorted(s)) + f" {op} {gp.z[s]}"
                         for s, op in [(full, "=")] + [(s, ">=") for s in others])

    return gp.to_json_dict, text, 0


def _cmd_vertices(args):
    from .poly import global_weight
    from .polytope import hull_vertices, newton_vertices_coeff1
    from .tiling import vertices_via_tilings

    w = parse_perm(args.w)
    if args.method == "tilings":
        verts = vertices_via_tilings(w)
    elif args.method == "coeff1":
        verts = newton_vertices_coeff1(w)
    else:
        verts = hull_vertices(global_weight(w).support())
    ordered = sorted(verts)
    return (lambda: {"w": format_perm(w), "method": args.method,
                     "vertices": [list(v) for v in ordered]},
            lambda: _rows(ordered), 0)


def _cmd_tilings(args):
    from .tiling import (
        build_diagram,
        render_diagram,
        render_tiling,
        tiling_vertex_list,
        tilings_json_dict,
    )

    w = parse_perm(args.w)

    def text() -> str:
        pairs = tiling_vertex_list(w)
        if not args.render:
            return "\n".join(f"vertex {v}  rects {' '.join(map(str, t.rects))}"
                             for t, v in pairs)
        d = build_diagram(w)
        return "\n".join([f"diagram for {format_perm(w)}:", render_diagram(d)] + [
            f"\ntiling {idx}: vertex {v}\n{render_tiling(d, t)}"
            for idx, (t, v) in enumerate(pairs, start=1)])

    return lambda: tilings_json_dict(w), text, 0


# -- chain commands ----------------------------------------------------------------


def _cmd_greedy(args):
    chain = greedy_chain(*_endpoints(args.u, args.w))
    return chain.to_json_dict, chain.render, 0


def _render_interval(u: Perm, w: Perm) -> str:
    interval = bruhat.interval_elements(u, w)
    by_len: dict[int, list[str]] = {}
    for v in interval:
        by_len.setdefault(length(v), []).append(format_perm(v))
    lines = [
        f"interval [{format_perm(u)}, {format_perm(w)}]: {len(interval)} elements"
    ]
    for ell in sorted(by_len, reverse=True):
        lines.append(f"  length {ell}: " + " ".join(sorted(by_len[ell])))
    return "\n".join(lines)


def _cmd_chains(args):
    u, w = bruhat._require_below(*_endpoints(args.u, args.w))
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be at least 0, got {args.limit}")
    stream = enumerate_chains(u, w)
    chains = list(islice(stream, args.limit))
    truncated = next(stream, None) is not None

    def text() -> str:
        lines = [_render_interval(u, w)] if args.render else []
        lines += [chain.render() for chain in chains]
        if truncated:
            lines.append(f"... (stopped after {args.limit} chains)")
        return "\n".join(lines)

    return (lambda: {"u": format_perm(u), "w": format_perm(w),
                     "chains": [c.to_json_dict() for c in chains], "truncated": truncated},
            text, 0)


# -- property checks -----------------------------------------------------------------


def _verdict(u: Perm, w: Perm, holds: bool, text, /, **fields):
    """A check's output: u, w and the verdict's fields, the text, and exit
    0 when the property holds, 1 when it fails."""
    return ((lambda: {"u": format_perm(u), "w": format_perm(w), **fields}),
            text, int(not holds))


def _cmd_check_snp(args):
    from .polytope import _snp_support

    u, w = _endpoints(*args.perm)
    snp = _snp_support(ps_support(u, w))
    return _verdict(u, w, snp, lambda: f"snp: {str(snp).lower()}", snp=snp)


def _cmd_check_mconvex(args):
    from .polytope import m_convex_failure

    u, w = _endpoints(*args.perm)
    failure = m_convex_failure(ps_support(u, w))
    if failure is None:
        return _verdict(u, w, True, lambda: "m-convex: true", m_convex=True, failure=None)
    alpha, beta, i = failure
    return _verdict(
        u, w, False,
        lambda: f"m-convex: false (no exchange for {alpha} over {beta} at coordinate {i})",
        m_convex=False, failure={"alpha": list(alpha), "beta": list(beta), "coordinate": i},
    )


def _cmd_check_scnp(args):
    u, w = _endpoints(args.u, args.w)
    verdict = is_scnp(u, w)
    witness = verdict.witness

    def text() -> str:
        lines = [f"single-chain property: {str(verdict.holds).lower()}"]
        if witness is not None:
            lines.append(f"dominant chain: {witness.render()}")
        return "\n".join(lines + [f"chains examined: {verdict.chains_examined}"])

    return _verdict(u, w, verdict.holds, text, holds=verdict.holds,
                    witness=None if witness is None else witness.to_json_dict(),
                    chains_examined=verdict.chains_examined)


# -- sweeps ---------------------------------------------------------------------------


def _cmd_verify(args):
    # built per call, so that patches of these names take effect
    runners = {
        "ps-mconvex": scnp.verify_ps_mconvex,
        "scnp-pattern": scnp.verify_scnp_pattern,
        "paper-theorems": scnp.verify_theorems,
    }
    resume = None
    if args.resume is not None:
        try:
            resume = json.loads(Path(args.resume).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise ValueError(f"cannot read resume file {args.resume}: {exc}") from exc

    # the rate counts only the units this run finishes, not resumed ones
    started, finished = time.monotonic(), 0

    def progress(done: int, total: int, key: str) -> None:
        nonlocal finished
        finished += 1
        rate = finished / max(time.monotonic() - started, 1e-9)
        minutes, seconds = divmod(round((total - done) / rate), 60)
        print(f"progress: {done}/{total} units (finished {key}), {rate:.2f} units/s,"
              f" ETA {minutes // 60}:{minutes % 60:02d}:{seconds:02d}", file=sys.stderr)

    report = runners[args.mode](
        args.n,
        jobs=args.jobs,
        budget=args.budget,
        resume=resume,
        checkpoint_path=args.checkpoint,
        progress=progress,
    )
    if report.complete:
        return report.to_json_dict, report.summary, int(bool(report.counterexamples))
    hint = (
        "rerun with --resume on the checkpoint file"
        if args.checkpoint is not None
        else "no checkpoint was written (pass --checkpoint FILE to resume later)"
    )
    return report.to_json_dict, report.summary, 0, f"budget exhausted; {hint}"


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualschubert",
        description=(
            "Exact dual Schubert / interval weight polynomials, Newton"
            " polytopes, staircase tilings, and exhaustive verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("dual-schubert", _cmd_dual_schubert, "dual Schubert polynomial of w")
    p.add_argument("w")

    p = add("ps", _cmd_ps, "interval weight polynomial for u <= w")
    p.add_argument("u")
    p.add_argument("w")

    p = add("gw", _cmd_gw, "global weight polynomial of w")
    p.add_argument("w")

    p = add("support", _cmd_support, "support of the weight polynomial")
    p.add_argument("perm", nargs="+", metavar="PERM",
                   help="w alone, or u then w")

    p = add("newton", _cmd_newton, "Newton polytope as subset inequalities")
    p.add_argument("w")

    p = add("vertices", _cmd_vertices, "Newton polytope vertices of w")
    p.add_argument("w")
    p.add_argument(
        "--method",
        choices=["tilings", "coeff1", "hull"],
        default="tilings",
        help="enumeration route (default: tilings)",
    )

    p = add("tilings", _cmd_tilings, "corner-anchored staircase tilings of w")
    p.add_argument("w")
    p.add_argument("--render", action="store_true", help="draw ASCII art")

    p = add("greedy", _cmd_greedy, "greedy saturated chain from u to w")
    p.add_argument("u")
    p.add_argument("w")

    p = add("chains", _cmd_chains, "all saturated chains from u to w")
    p.add_argument("u")
    p.add_argument("w")
    p.add_argument("--limit", type=int, default=None, help="stop after N chains")
    p.add_argument("--render", action="store_true",
                   help="also draw the interval by length level")

    p = add("check-snp", _cmd_check_snp,
            "does the weight polynomial support saturate its Newton polytope")
    p.add_argument("perm", nargs="+", metavar="PERM", help="w alone, or u then w")

    p = add("check-mconvex", _cmd_check_mconvex,
            "is the weight polynomial support M-convex")
    p.add_argument("perm", nargs="+", metavar="PERM", help="w alone, or u then w")

    p = add("check-scnp", _cmd_check_scnp,
            "does one chain of [u, w] carry the full support")
    p.add_argument("u")
    p.add_argument("w")

    p = add("verify", _cmd_verify, "exhaustive rank sweeps")
    p.add_argument("--mode", required=True, choices=list(scnp.SWEEPS))
    p.add_argument("--n", required=True, type=int, help="rank to sweep, 1 to 9")
    p.add_argument("--jobs", type=int, default=1,
                   help="at most this many worker processes; every mode runs"
                        " in one process up to rank 5")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds; exceeding it yields a"
                        " partial, resumable report; an in-process run"
                        " (--jobs 1, or a rank that runs in one process) first"
                        " finishes the unit it is running, up to about 4 s at"
                        " rank 7 and minutes at rank 8")
    p.add_argument("--checkpoint", default=None,
                   help="write resume state to this file before the first"
                        " unit, at most once a second while units finish,"
                        " and when the sweep stops for any reason; a hard"
                        " kill loses at most a second's finished units")
    p.add_argument("--resume", default=None,
                   help="resume from a checkpoint file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        as_json, as_text, code, *notes = args.func(args)
        print(json.dumps(as_json()) if args.json else as_text())
        for note in notes:
            print(note, file=sys.stderr)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
