"""
Command-line front end.

Permutation arguments accept compact digits ("4213") or a bracketed comma
list ("[4,2,1,3]").  Commands that take an optional lower endpoint default
it to the identity.  `--json` switches any output command to its documented
JSON schema; re-serializing that JSON reproduces the bytes exactly.

Exit codes: 0 success / property holds; 1 property fails or a sweep found a
counterexample; 2 usage or malformed input; 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bruhat, scnp
from .bruhat import enumerate_chains, greedy_chain
from .perm import Perm, format_perm, identity, length, parse_perm
from .poly import (
    dual_schubert,
    global_weight,
    grevlex_key,
    postnikov_stanley_dp,
)
from .polytope import (
    gp_from_inversions,
    hull_vertices,
    is_snp,
    m_convex_failure,
    newton_vertices_coeff1,
)
from .scnp import is_scnp
from .tiling import (
    build_diagram,
    render_diagram,
    render_tiling,
    tiling_vertex_list,
    tilings_json_dict,
    vertices_via_tilings,
)


def _dumps(obj) -> str:
    return json.dumps(obj)


def _endpoints(args) -> tuple[Perm, Perm]:
    """Read one permutation (identity lower end) or an explicit pair."""
    if len(args.perm) > 2:
        raise ValueError("expected one permutation (w) or two (u w)")
    perms = [parse_perm(s) for s in args.perm]
    if len(perms) == 1:
        return identity(len(perms[0])), perms[0]
    if len(perms[0]) != len(perms[1]):
        raise ValueError(
            f"rank mismatch: {format_perm(perms[0])} vs {format_perm(perms[1])}"
        )
    return perms[0], perms[1]


def _print_points(points, nvars: int, as_json: bool) -> None:
    ordered = sorted(points, key=grevlex_key)
    if as_json:
        print(_dumps({"nvars": nvars, "points": [list(p) for p in ordered]}))
    else:
        for p in ordered:
            print(" ".join(str(x) for x in p))


# -- polynomial commands --------------------------------------------------------


def _cmd_dual_schubert(args) -> int:
    w = parse_perm(args.w)
    f = dual_schubert(w)
    print(_dumps(f.to_json_dict()) if args.json else str(f))
    return 0


def _cmd_ps(args) -> int:
    u, w = parse_perm(args.u), parse_perm(args.w)
    f = postnikov_stanley_dp(u, w)
    print(_dumps(f.to_json_dict()) if args.json else str(f))
    return 0


def _cmd_gw(args) -> int:
    w = parse_perm(args.w)
    f = global_weight(w)
    print(_dumps(f.to_json_dict()) if args.json else str(f))
    return 0


def _cmd_support(args) -> int:
    u, w = _endpoints(args)
    f = postnikov_stanley_dp(u, w)
    _print_points(f.support(), f.nvars, args.json)
    return 0


# -- polytope commands -----------------------------------------------------------


def _cmd_newton(args) -> int:
    w = parse_perm(args.w)
    gp = gp_from_inversions(w)
    if args.json:
        print(_dumps(gp.to_json_dict()))
        return 0
    full = frozenset(range(1, gp.nvars + 1))

    def term(subset) -> str:
        return " + ".join(f"t{i}" for i in sorted(subset))

    if gp.nvars == 0:
        print("0 = 0")
        return 0
    print(f"{term(full)} = {gp.z[full]}")
    for subset in sorted(gp.z, key=lambda s: (len(s), sorted(s))):
        if subset and subset != full:
            print(f"{term(subset)} >= {gp.z[subset]}")
    return 0


def _cmd_vertices(args) -> int:
    w = parse_perm(args.w)
    if args.method == "tilings":
        verts = vertices_via_tilings(w)
    elif args.method == "coeff1":
        verts = newton_vertices_coeff1(w)
    else:
        verts = hull_vertices(global_weight(w).support())
    ordered = sorted(verts)
    if args.json:
        print(
            _dumps(
                {
                    "w": format_perm(w),
                    "method": args.method,
                    "vertices": [list(v) for v in ordered],
                }
            )
        )
    else:
        for v in ordered:
            print(" ".join(str(x) for x in v))
    return 0


def _cmd_tilings(args) -> int:
    w = parse_perm(args.w)
    if args.json:
        print(_dumps(tilings_json_dict(w)))
        return 0
    d = build_diagram(w)
    pairs = tiling_vertex_list(w)
    if args.render:
        print(f"diagram for {format_perm(w)}:")
        print(render_diagram(d))
        for idx, (t, v) in enumerate(pairs, start=1):
            print()
            print(f"tiling {idx}: vertex {v}")
            print(render_tiling(d, t))
    else:
        for t, v in pairs:
            rects = " ".join(str(r) for r in t.rects)
            print(f"vertex {v}  rects {rects}")
    return 0


# -- chain commands ----------------------------------------------------------------


def _cmd_greedy(args) -> int:
    u, w = parse_perm(args.u), parse_perm(args.w)
    chain = greedy_chain(u, w)
    print(_dumps(chain.to_json_dict()) if args.json else chain.render())
    return 0


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


def _cmd_chains(args) -> int:
    u, w = parse_perm(args.u), parse_perm(args.w)
    stream = enumerate_chains(u, w)
    chains = []
    truncated = False
    for chain in stream:
        if args.limit is not None and len(chains) >= args.limit:
            truncated = True
            break
        chains.append(chain)
    if args.json:
        print(
            _dumps(
                {
                    "u": format_perm(u),
                    "w": format_perm(w),
                    "chains": [c.to_json_dict() for c in chains],
                    "truncated": truncated,
                }
            )
        )
        return 0
    if args.render:
        print(_render_interval(u, w))
    for chain in chains:
        print(chain.render())
    if truncated:
        print(f"... (stopped after {args.limit} chains)")
    return 0


# -- property checks -----------------------------------------------------------------


def _cmd_check_snp(args) -> int:
    u, w = _endpoints(args)
    f = postnikov_stanley_dp(u, w)
    verdict = is_snp(f)
    if args.json:
        print(
            _dumps(
                {"u": format_perm(u), "w": format_perm(w), "snp": verdict}
            )
        )
    else:
        print(f"snp: {'true' if verdict else 'false'}")
    return 0 if verdict else 1


def _cmd_check_mconvex(args) -> int:
    u, w = _endpoints(args)
    supp = postnikov_stanley_dp(u, w).support()
    failure = m_convex_failure(supp)
    if args.json:
        rec = None
        if failure is not None:
            alpha, beta, i = failure
            rec = {"alpha": list(alpha), "beta": list(beta), "coordinate": i}
        print(
            _dumps(
                {
                    "u": format_perm(u),
                    "w": format_perm(w),
                    "m_convex": failure is None,
                    "failure": rec,
                }
            )
        )
    else:
        if failure is None:
            print("m-convex: true")
        else:
            alpha, beta, i = failure
            print(
                f"m-convex: false (no exchange for {alpha} over {beta}"
                f" at coordinate {i})"
            )
    return 0 if failure is None else 1


def _cmd_check_scnp(args) -> int:
    u, w = parse_perm(args.u), parse_perm(args.w)
    verdict = is_scnp(u, w)
    if args.json:
        print(
            _dumps(
                {
                    "u": format_perm(u),
                    "w": format_perm(w),
                    "holds": verdict.holds,
                    "witness": verdict.witness.to_json_dict()
                    if verdict.witness
                    else None,
                    "chains_examined": verdict.chains_examined,
                }
            )
        )
    else:
        print(f"single-chain property: {'true' if verdict.holds else 'false'}")
        if verdict.witness is not None:
            print(f"dominant chain: {verdict.witness.render()}")
        print(f"chains examined: {verdict.chains_examined}")
    return 0 if verdict.holds else 1


# -- sweeps ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
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
        except OSError as exc:
            raise ValueError(f"cannot read resume file: {exc}") from exc

    def progress(done: int, total: int, key: str) -> None:
        print(f"progress: {done}/{total} units (finished {key})", file=sys.stderr)

    report = runners[args.mode](
        args.n,
        jobs=args.jobs,
        budget=args.budget,
        resume=resume,
        checkpoint_path=args.checkpoint,
        progress=progress,
    )
    print(_dumps(report.to_json_dict()) if args.json else report.summary())
    if not report.complete:
        print(
            "budget exhausted; rerun with --resume on the checkpoint file",
            file=sys.stderr,
        )
        return 0
    return 1 if report.counterexamples else 0


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
    p.add_argument("--n", required=True, type=int, help="rank to sweep")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds; exceeding it yields a"
                        " partial, resumable report")
    p.add_argument("--checkpoint", default=None,
                   help="write resume state to this file after each unit")
    p.add_argument("--resume", default=None,
                   help="resume from a checkpoint file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
