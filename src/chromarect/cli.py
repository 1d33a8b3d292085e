"""Command-line entry point wiring the pipelines together.

One invocation runs one logical pipeline: construct -> realize ->
translate -> verify -> emit.  Artifacts are canonical JSON (sorted keys,
compact separators, trailing newline) or SVG, written bytewise so that
identical argv always produce byte-identical files.

Exit codes: 0 success, 1 domain/verification error (a machine-readable
JSON object describing the error is printed to stderr), 2 resource-limit
error, including a palette too deep for the interpreter's recursion limit
and a value too long for the interpreter's integer-string limit.
Argument errors count as domain errors so that exit code 2 stays
unambiguous.

Every artifact is checked exactly once before it is written, by the
library code that makes it or here by an oracle independent of that
code; nothing is written with exit 0 unless that check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

from .arithmetic import (
    FiniteAP,
    ap_capture_rectangle,
    difference_stream,
    embed_integers,
    rects_to_D_aps,
    rects_to_pow2_aps,
    van_der_corput,
)
from .construction import (
    DEFAULT_MAX_VERTICES,
    StagedHypergraph,
    build_Gcg,
    build_Hkc,
    find_monochromatic_edge,
)
from .errors import (
    ChromarectError,
    DomainError,
    NodeBudgetExceeded,
    ResourceLimitError,
    SizeLimitExceeded,
    VerificationError,
)
from .geometry import (
    BoxIndex,
    Point2,
    Realization,
    Rect,
    SvgStyle,
    default_sample,
    dominance_hasse,
    emit_svg,
    monochromatic_increasing_path,
    parse_coord,
    realize_Gcg,
    realize_Hkc,
    realize_Hkc_nested,
    verify_realization,
)
from .hypergraph import (
    DEFAULT_NODE_BUDGET,
    Coloring,
    OrderedHypergraph,
    chromatic_number,
    is_c_colorable,
    is_proper_coloring,
)

_STREAM_NAMES = ("primes", "pow2", "pow3")


# ---------------------------------------------------------------------------
# plumbing


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as domain errors (exit 1 with
    JSON on stderr) instead of exiting with status 2, which is reserved
    for resource limits."""

    def error(self, message):
        raise DomainError(f"argument error: {message}")


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "ascii"
    )


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read input: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise DomainError(f"malformed JSON in {path}: {exc}")
    except RecursionError:
        raise DomainError(f"JSON in {path} is nested too deeply")


def _write_artifact(path: Optional[str], data: bytes, stdout) -> None:
    if path is None or path == "-":
        stdout.write(data)
    else:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise DomainError(f"cannot write artifact: {exc}")


def _parse_int_list(text: str) -> List[int]:
    """Accept '1,3,7', '[1, 3, 7]' or '{1 3 7}'."""
    cleaned = text.translate(str.maketrans(",;[]{}()", "        "))
    try:
        vals = [int(tok) for tok in cleaned.split()]
    except ValueError:
        raise DomainError(f"expected a list of integers, got {text!r}")
    if not vals:
        raise DomainError("expected a nonempty list of integers")
    return vals


def _parse_points(d) -> List[Point2]:
    """Points from either a realization payload or a bare points payload."""
    if not isinstance(d, dict) or "points" not in d:
        raise DomainError('input must be a JSON object with a "points" field')
    try:
        return [Point2(parse_coord(x), parse_coord(y)) for x, y in d["points"]]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed point list: {exc}")


def _load_staged(path: str) -> StagedHypergraph:
    return StagedHypergraph.from_json_dict(_load_json(path))


def _load_coloring(path: str) -> Coloring:
    return Coloring.from_json_dict(_load_json(path))


# ---------------------------------------------------------------------------
# command handlers (each returns the process exit code)


def _header_chain(S: Optional[StagedHypergraph]) -> list:
    """The header and parent array of S and of each copy template below it."""
    chain = []
    while S is not None:
        chain.append((S.kind, S.k, S.c, S.m, S.n, S.parent))
        S = S.copy_template
    return chain


def _emit_staged(S: StagedHypergraph, out: Optional[str], stdout) -> int:
    payload = S.to_json_dict()
    # Re-verify the artifact round-trips to the same instance before
    # emitting.  The loader assembles the instance each header names (a gcg
    # one around the auxiliary edges its parents list) and rejects parents
    # or edges that differ from it, so equal headers and parent arrays down
    # the copy-template chain mean equal instances.
    if _header_chain(StagedHypergraph.from_json_dict(payload)) != _header_chain(S):
        raise VerificationError("serialized instance does not round-trip")
    _write_artifact(out, _canonical_json(payload), stdout)
    return 0


def _cmd_construct_hkc(args, stdout) -> int:
    S = build_Hkc(args.k, args.c, max_vertices=args.max_vertices)
    return _emit_staged(S, args.out, stdout)


def _cmd_construct_gcg(args, stdout) -> int:
    S = build_Gcg(args.c, args.g, max_vertices=args.max_vertices)
    return _emit_staged(S, args.out, stdout)


def _cmd_realize(args, stdout) -> int:
    S = _load_staged(args.input)
    if S.kind == "gcg":
        if args.nested:
            raise DomainError(
                "nested rectangles are defined for the staged k-uniform "
                "family only",
                kind=S.kind,
            )
        R = realize_Gcg(S)
    else:
        R = realize_Hkc_nested(S) if args.nested else realize_Hkc(S)
    _write_artifact(args.out, _canonical_json(R.to_json_dict()), stdout)
    if args.svg:
        _write_artifact(args.svg, _checked_svg(R), stdout)
    return 0


def _cmd_verify(args, stdout) -> int:
    R = Realization.from_json_dict(_load_json(args.realization))
    H = OrderedHypergraph.from_json_dict(_load_json(args.hypergraph))
    if len(R.points) != H.n:
        raise VerificationError(
            "point count differs from vertex count", points=len(R.points), n=H.n
        )
    R.hypergraph = H
    count = args.sample if args.sample is not None else default_sample(len(R.rects))
    checked = verify_realization(R, sample_count=count, seed=args.seed)
    mode = "sample" if checked < len(R.rects) else "full"
    _write_artifact(
        None,
        _canonical_json({"verified": True, "rects": len(R.rects), "mode": mode}),
        stdout,
    )
    return 0


def _resolve_difference_set(spec_text: str):
    if spec_text in _STREAM_NAMES:
        return difference_stream(spec_text)
    payload = _load_json(spec_text)
    if not isinstance(payload, list) or not all(isinstance(v, int) for v in payload):
        raise DomainError(
            "difference-set file must hold a JSON array of integers",
            path=spec_text,
        )
    return payload


def _cmd_to_aps(args, stdout) -> int:
    R = Realization.from_json_dict(_load_json(args.input))
    if args.mode == "pow2":
        if args.difference_set is not None:
            raise DomainError("--difference-set applies to --mode general only")
        A = rects_to_pow2_aps(R)
    else:
        if args.difference_set is None:
            raise DomainError("--mode general requires --difference-set")
        A = rects_to_D_aps(R, _resolve_difference_set(args.difference_set))
    # The translators re-verify every progression against its rectangle's
    # member set internally; emitting A means that check already passed.
    _write_artifact(args.out, _canonical_json(A.to_json_dict()), stdout)
    return 0


def _cmd_ap_capture(args, stdout) -> int:
    vals = sorted(set(_parse_int_list(args.set)))
    A = FiniteAP(args.start, args.difference, args.length)
    emb = embed_integers(vals)
    shifted = FiniteAP(A.start + emb.offset, A.difference, A.length)
    rect = ap_capture_rectangle(shifted, [v + emb.offset for v in vals])
    captured = [v for v, p in zip(vals, emb.points) if rect.contains(p)]
    expected = [v for v in vals if v in A]
    if captured != expected:
        raise VerificationError(
            "rectangle capture disagrees with set intersection",
            captured=captured,
            expected=expected,
        )
    payload = {
        "rect": [str(rect.x_lo), str(rect.x_hi), str(rect.y_lo), str(rect.y_hi)],
        "offset": emb.offset,
        "captured": captured,
    }
    _write_artifact(args.out, _canonical_json(payload), stdout)
    return 0


def _load_hypergraph(args) -> OrderedHypergraph:
    """The --input hypergraph, refused above --max-vertices before any
    per-vertex allocation.  A staged file (one with a ``kind``) must also
    load as the staged instance its header names."""
    d = _load_json(args.input)
    H = OrderedHypergraph.from_json_dict(d)
    if H.n > args.max_vertices:
        raise SizeLimitExceeded("too many vertices", n=H.n, max_vertices=args.max_vertices)
    if isinstance(d, dict) and "kind" in d:
        StagedHypergraph.from_json_dict(d)
    return H


def _cmd_chromatic(args, stdout) -> int:
    H = _load_hypergraph(args)
    k = chromatic_number(H, node_budget=args.node_budget)
    col = is_c_colorable(H, k, node_budget=args.node_budget)
    if col is None or not is_proper_coloring(H, col):
        raise VerificationError("search returned an improper coloring", c=k)
    payload = {"chromatic_number": k, "witness": col.to_json_dict()}
    _write_artifact(args.out, _canonical_json(payload), stdout)
    return 0


def _verify_girth_report(H: OrderedHypergraph, report) -> None:
    """Independent validity check of the girth answer before emitting it."""
    if report.witness is None:
        # Acyclic claim: the bipartite incidence graph must be a forest, so
        # no arc may join two nodes already connected (union-find).
        root = list(range(H.n + len(H.edges)))

        def find(x):
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for j, e in enumerate(H.edges):
            for v in e:
                a, b = find(v), find(H.n + j)
                if a == b:
                    raise VerificationError("girth reported Infinite on a cyclic instance")
                root[a] = b
        return
    vs, es = report.witness
    g = int(report.girth)
    if len(vs) != g or len(es) != g:
        raise VerificationError("witness length disagrees with girth", girth=g)
    if len(set(vs)) != g or len(set(es)) != g:
        raise VerificationError("witness repeats a vertex or edge")
    for i in range(g):
        members = H.edges[es[i]]
        if vs[i] not in members or vs[(i + 1) % g] not in members:
            raise VerificationError("witness cycle breaks an incidence", at=i)


def _cmd_girth(args, stdout) -> int:
    from .hypergraph import hypergraph_girth

    H = _load_hypergraph(args)
    # the sweep's own step bound: one breadth-first search per vertex over
    # the incidence graph of n + m nodes and sum |e| arcs
    steps = H.n * (H.n + len(H.edges) + sum(map(len, H.edges)))
    if steps > args.node_budget:
        raise NodeBudgetExceeded(
            "girth sweep would exceed the node budget",
            steps=steps,
            node_budget=args.node_budget,
        )
    report = hypergraph_girth(H)
    _verify_girth_report(H, report)
    _write_artifact(args.out, _canonical_json(report.to_json_dict()), stdout)
    return 0


def _cmd_find_mono(args, stdout) -> int:
    S = _load_staged(args.input)
    col = _load_coloring(args.coloring)
    e = find_monochromatic_edge(S, col)
    members = S.base.edges[e]
    payload = {"edge": e, "vertices": list(members), "color": col.colors[members[0]]}
    _write_artifact(args.out, _canonical_json(payload), stdout)
    return 0


def _check_covers(points: Sequence[Point2], pairs) -> None:
    """Each pair of point indices must be a cover of the dominance order:
    its closed box holds exactly its two endpoints.  Coordinates are
    pairwise distinct, so no other point sits on the boundary, and an
    incomparable pair spans an empty box."""
    index = BoxIndex(points)
    for u, v in pairs:
        p, q = sorted((points[u], points[v]))
        if sorted(index.members(Rect(p.x, q.x, p.y, q.y))) != sorted((u, v)):
            raise VerificationError(
                "pair is not a cover of the dominance order", pair=[u, v]
            )


def _cmd_hasse(args, stdout) -> int:
    points = _parse_points(_load_json(args.input))
    H = dominance_hasse(points)
    _check_covers(points, H.edges)
    _write_artifact(args.out, _canonical_json(H.to_json_dict()), stdout)
    return 0


def _cmd_mono_path(args, stdout) -> int:
    points = _parse_points(_load_json(args.input))
    col = _load_coloring(args.coloring)
    path = monochromatic_increasing_path(points, col, args.k)
    if path is not None:
        if len(path) != args.k:
            raise VerificationError("path has the wrong length", got=len(path))
        shades = {col.colors[v] for v in path}
        for a, b in zip(path, path[1:]):
            if not (points[a].x < points[b].x and points[a].y < points[b].y):
                raise VerificationError("path is not strictly increasing")
        if len(shades) != 1:
            raise VerificationError("path mixes colors")
        _check_covers(points, zip(path, path[1:]))
    _write_artifact(args.out, _canonical_json({"path": path}), stdout)
    return 0


def _mirrored(n: int) -> Fraction:
    """The n-th sequence term by definition: n's binary digits mirrored."""
    digits = format(n, "b")
    return Fraction(int(digits[::-1], 2), 1 << len(digits))


def _cmd_vdc(args, stdout) -> int:
    a = van_der_corput(args.n)
    if a != _mirrored(args.n):
        raise VerificationError("digit-mirror identity failed", n=args.n)
    stdout.write((str(a) + "\n").encode("ascii"))
    return 0


def _checked_svg(R: Realization, style: SvgStyle = SvgStyle()) -> bytes:
    from xml.etree import ElementTree

    data = emit_svg(R, style)
    try:
        ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise VerificationError(f"emitted SVG is not well-formed: {exc}")
    return data


def _cmd_svg(args, stdout) -> int:
    R = Realization.from_json_dict(_load_json(args.input))
    style = SvgStyle() if args.width is None else SvgStyle(width=args.width)
    _write_artifact(args.out, _checked_svg(R, style), stdout)
    return 0


def _cmd_embed(args, stdout) -> int:
    vals = sorted(set(_parse_int_list(args.set)))
    emb = embed_integers(vals)
    for p in emb.points:
        if p.y != _mirrored(int(p.x)):
            raise VerificationError("embedded height disagrees with the sequence")
    payload = {
        "offset": emb.offset,
        "points": [[str(p.x), str(p.y)] for p in emb.points],
    }
    _write_artifact(args.out, _canonical_json(payload), stdout)
    return 0


def _cmd_selftest(args, stdout) -> int:
    from . import acceptance

    numbers = args.criterion if args.criterion else None
    results = acceptance.run_all(numbers, echo=lambda s: stdout.write(
        (s + "\n").encode("utf-8")
    ))
    failed = [r.number for r in results if not r.passed]
    summary = (
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; FAILED: {failed}" if failed else "")
    )
    stdout.write((summary + "\n").encode("utf-8"))
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """argparse ``type`` of the limit flags."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


_LIMIT_DEFAULTS = {"--max-vertices": DEFAULT_MAX_VERTICES, "--node-budget": DEFAULT_NODE_BUDGET}


def _limit(parser: _Parser, flag: str, help: str) -> None:
    parser.add_argument(flag, type=_positive_int, default=_LIMIT_DEFAULTS[flag], help=help)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  Each subcommand's
    handler is bound here, when the parser is built, so a handler replaced
    on the module afterwards is not the one ``run`` dispatches to.  Each
    subcommand takes only the flags its handler reads."""
    p = _Parser(prog="chromarect", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    c = sub.add_parser("construct", help="build a staged instance")
    csub = c.add_subparsers(dest="family", required=True, metavar="FAMILY")
    hkc = csub.add_parser("hkc", help="k-uniform staged family")
    hkc.add_argument("--k", type=int, required=True, help="uniformity")
    hkc.add_argument("--c", type=int, required=True, help="palette size to defeat")
    _limit(hkc, "--max-vertices", "refuse to build instances larger than this")
    hkc.add_argument("--out", help="output path (default stdout)")
    hkc.set_defaults(handler=_cmd_construct_hkc)
    gcg = csub.add_parser("gcg", help="high-girth graph family")
    gcg.add_argument("--c", type=int, required=True, help="palette size to defeat")
    gcg.add_argument("--g", type=int, required=True, help="girth target")
    _limit(gcg, "--max-vertices", "refuse to build instances larger than this")
    gcg.add_argument("--out", help="output path (default stdout)")
    gcg.set_defaults(handler=_cmd_construct_gcg)

    r = sub.add_parser("realize", help="draw an instance as points and rectangles")
    r.add_argument("--input", required=True, help="staged-instance JSON")
    r.add_argument("--nested", action="store_true", help="nested-rectangle variant")
    r.add_argument("--out", help="realization JSON path (default stdout)")
    r.add_argument("--svg", help="also render an SVG to this path")
    r.set_defaults(handler=_cmd_realize)

    v = sub.add_parser("verify", help="check a realization against a hypergraph")
    v.add_argument("--realization", required=True)
    v.add_argument("--hypergraph", required=True)
    v.add_argument("--sample", type=int, default=None, help="check only N seeded rectangles")
    v.add_argument("--seed", type=int, default=0, help="seed of the --sample draw")
    v.set_defaults(handler=_cmd_verify)

    t = sub.add_parser("to-aps", help="translate rectangles to integer progressions")
    t.add_argument("--input", required=True, help="realization JSON")
    t.add_argument("--mode", choices=("pow2", "general"), required=True)
    t.add_argument(
        "--difference-set",
        help="primes, pow2, pow3, or a path to a JSON array of integers",
    )
    t.add_argument("--out", help="output path (default stdout)")
    t.set_defaults(handler=_cmd_to_aps)

    cap = sub.add_parser("ap-capture", help="rectangle cutting a progression out of a set")
    cap.add_argument("--set", required=True, help="comma-separated integers")
    cap.add_argument("--start", type=int, required=True)
    cap.add_argument("--difference", type=int, required=True)
    cap.add_argument("--length", type=int, required=True)
    cap.add_argument("--out", help="output path (default stdout)")
    cap.set_defaults(handler=_cmd_ap_capture)

    ch = sub.add_parser("chromatic", help="exact chromatic number with witness")
    ch.add_argument("--input", required=True, help="hypergraph JSON")
    _limit(ch, "--max-vertices", "refuse inputs with more vertices")
    _limit(ch, "--node-budget", "search-node ceiling of the coloring search")
    ch.add_argument("--out", help="output path (default stdout)")
    ch.set_defaults(handler=_cmd_chromatic)

    gi = sub.add_parser("girth", help="shortest alternating cycle")
    gi.add_argument("--input", required=True, help="hypergraph JSON")
    _limit(gi, "--max-vertices", "refuse inputs with more vertices")
    _limit(gi, "--node-budget", "refuse inputs whose sweep bound n(n + m + sum |e|) is larger")
    gi.add_argument("--out", help="output path (default stdout)")
    gi.set_defaults(handler=_cmd_girth)

    fm = sub.add_parser("find-mono", help="constructively find a monochromatic edge")
    fm.add_argument("--input", required=True, help="staged-instance JSON")
    fm.add_argument("--coloring", required=True, help="coloring JSON")
    fm.add_argument("--out", help="output path (default stdout)")
    fm.set_defaults(handler=_cmd_find_mono)

    ha = sub.add_parser("hasse", help="cover pairs of the dominance order")
    ha.add_argument("--input", required=True, help="realization or points JSON")
    ha.add_argument("--out", help="output path (default stdout)")
    ha.set_defaults(handler=_cmd_hasse)

    mp = sub.add_parser("mono-path", help="same-colored increasing cover chain")
    mp.add_argument("--input", required=True, help="realization or points JSON")
    mp.add_argument("--coloring", required=True, help="coloring JSON")
    mp.add_argument("--k", type=int, required=True, help="chain length (vertices)")
    mp.add_argument("--out", help="output path (default stdout)")
    mp.set_defaults(handler=_cmd_mono_path)

    vd = sub.add_parser("vdc", help="print one digit-mirror sequence value")
    vd.add_argument("--n", type=int, required=True)
    vd.set_defaults(handler=_cmd_vdc)

    sv = sub.add_parser("svg", help="render a realization")
    sv.add_argument("--input", required=True, help="realization JSON")
    sv.add_argument("--out", help="output path (default stdout)")
    sv.add_argument("--width", type=float, default=None)
    sv.set_defaults(handler=_cmd_svg)

    em = sub.add_parser("embed", help="lift integers to sequence points")
    em.add_argument("--set", required=True, help="comma-separated integers")
    em.add_argument("--out", help="output path (default stdout)")
    em.set_defaults(handler=_cmd_embed)

    st = sub.add_parser("selftest", help="run the acceptance criteria")
    st.add_argument(
        "--criterion",
        type=int,
        action="append",
        help="run only this criterion (repeatable)",
    )
    st.set_defaults(handler=_cmd_selftest)

    return p


# ---------------------------------------------------------------------------
# entry points


def run(argv: Sequence[str], stdout=None) -> int:
    """Parse argv, dispatch, and map errors to the exit-code contract.

    ``stdout`` is a binary stream (default: the real one); tests inject a
    buffer to assert byte determinism without spawning processes.
    """
    if stdout is None:
        stdout = sys.stdout.buffer
    try:
        args = _build_parser().parse_args(list(argv))
        return args.handler(args, stdout)
    except RecursionError:
        # the builders and the staged loader recurse once per palette color
        err = ResourceLimitError(
            "recursion depth exceeded", recursion_limit=sys.getrecursionlimit()
        )
    except ValueError as exc:
        # an output value with more digits than the interpreter will print
        if "integer string conversion" not in str(exc):
            raise
        err = ResourceLimitError(
            "integer too long to write", max_digits=sys.get_int_max_str_digits()
        )
    except ChromarectError as exc:
        err = exc
    sys.stderr.write(json.dumps(err.to_json_dict(), sort_keys=True) + "\n")
    return 2 if isinstance(err, ResourceLimitError) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
