"""The program's layers as the traced run sees them.

Each layer is a set of the program's functions; a call into any of them
opens a span named after the layer.  ``METRICS`` lists every per-layer
metric the traced run reports, in ``BENCHMARK.json`` order.
"""

from __future__ import annotations

import os
from typing import Dict, List

from tracer import Span, Tracer, layer_totals, root_time, rss_mb

# name -> unit; a layer that a workload does not reach reports 0.
METRICS: Dict[str, str] = {
    "construction.build.self_s": "s",
    "construction.build.calls": "count",
    "construction.build.vertices": "count",
    "construction.build.edges": "count",
    "construction.find.self_s": "s",
    "construction.find.calls": "count",
    "geometry.realize.self_s": "s",
    "geometry.realize.rss_mb": "MB",
    "geometry.verify.self_s": "s",
    "geometry.verify.rects_checked": "count",
    "geometry.verify.us_per_rect": "us",
    "construction.to_json.self_s": "s",
    "construction.from_json.self_s": "s",
    "cli.json_emit.self_s": "s",
    "cli.json_emit.mb": "MB",
    "cli.json_parse.self_s": "s",
    "cli.json_parse.mb": "MB",
    "cli.command.self_s": "s",
    "arithmetic.diff_seq.self_s": "s",
    "arithmetic.diff_seq.terms": "count",
    "arithmetic.diff_seq.candidates": "count",
    "arithmetic.residue_tree.self_s": "s",
    "geometry.nested_family.self_s": "s",
    "arithmetic.emit.self_s": "s",
    "hypergraph.girth.self_s": "s",
    "hypergraph.girth.calls": "count",
    "hypergraph.colorable.self_s": "s",
    "hypergraph.colorable.calls": "count",
    "geometry.hasse.self_s": "s",
    "geometry.hasse.pairs": "count",
    "geometry.svg.self_s": "s",
    "process.cpu_s": "s",
    "artifact_mb": "MB",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.spans": "count",
}


def prime_candidates(terms, lcms) -> int:
    """Odd integers ``PrimeStream.first_greater`` tests while the greedy
    selection picks ``terms``: term i is the first prime above
    bound_i = 2**i * lcm(terms[:i]), and the stream tests every odd
    number from the first odd above bound_i up to the prime itself."""
    total = 0
    L = 1
    for i, d in enumerate(terms):
        n = (L << i) + 1
        if n > 2:
            n += 1 - n % 2
            total += (d - n) // 2 + 1
        L = lcms[i]
    return total


def _build_counts(args, kwargs, S):
    return {"vertices": S.n, "edges": len(S.base.edges)}


def _verify_counts(args, kwargs, result):
    R = args[0]
    sample = kwargs.get("sample_count", args[1] if len(args) > 1 else None)
    total = len(R.rects)
    return {"rects_checked": total if sample is None else min(sample, total)}


def _emit_counts(args, kwargs, data):
    return {"mb": len(data) / 1e6}


def _parse_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"mb": 0.0 if path == "-" else os.path.getsize(path) / 1e6}


def install(tracer: Tracer, prog) -> None:
    """Wrap every layer function of ``prog`` under all of its names."""
    c, g, h, a, cli = (
        prog.construction,
        prog.geometry,
        prog.hypergraph,
        prog.arithmetic,
        prog.cli,
    )

    def diff_seq_counts(args, kwargs, seq):
        D = args[0] if args else kwargs["D"]
        cand = prime_candidates(seq.terms, seq.lcms) if isinstance(D, a.PrimeStream) else 0
        return {"terms": len(seq.terms), "candidates": cand}

    def realize_counts(args, kwargs, R):
        return {"rss_mb": rss_mb()}

    def hasse_counts(args, kwargs, H):
        return {"pairs": len(H.edges)}

    layers = [
        ("construction.build", [c.build_Hkc, c.build_Gcg], _build_counts),
        ("construction.find", [c.find_monochromatic_edge], None),
        ("geometry.realize", [g.realize_Hkc, g.realize_Hkc_nested, g.realize_Gcg], realize_counts),
        ("geometry.verify", [g.verify_realization], _verify_counts),
        ("cli.json_emit", [cli._canonical_json], _emit_counts),
        ("cli.json_parse", [cli._load_json], _parse_counts),
        ("cli.command", [cli.run], None),
        ("arithmetic.diff_seq", [a.greedy_difference_sequence], diff_seq_counts),
        ("arithmetic.residue_tree", [a.build_residue_tree], None),
        ("geometry.nested_family", [g.extend_to_perfect_nested], None),
        ("arithmetic.emit", [a.rects_to_pow2_aps, a.rects_to_D_aps], None),
        ("hypergraph.girth", [h.hypergraph_girth], None),
        ("hypergraph.colorable", [h.is_c_colorable], None),
        ("geometry.hasse", [g.dominance_hasse], hasse_counts),
        ("geometry.svg", [g.emit_svg], None),
    ]
    modules = prog.package_modules()
    for name, functions, counters in layers:
        for fn in functions:
            tracer.patch_function(modules, fn, name, counters)
    tracer.patch_method(c.StagedHypergraph, "to_json_dict", "construction.to_json")
    tracer.patch_method(c.StagedHypergraph, "from_json_dict", "construction.from_json")


def metrics(spans: List[Span], ops: int, wall_s: float, cpu_s: float, artifact_mb: float) -> Dict[str, float]:
    """Per-layer metrics, each averaged over ``ops`` pipeline runs."""
    totals = layer_totals(spans)
    out = {name: 0.0 for name in METRICS}
    for layer, t in totals.items():
        for key, value in t.items():
            full = f"{layer}.{key}"
            if full in out:
                out[full] = value / ops
    checked = out["geometry.verify.rects_checked"]
    if checked:
        out["geometry.verify.us_per_rect"] = 1e6 * out["geometry.verify.self_s"] / checked
    # rss is a high-water mark, not a per-call amount: report the largest.
    out["geometry.realize.rss_mb"] = max(
        (s.counters.get("rss_mb", 0.0) for s in spans if s.name == "geometry.realize"),
        default=0.0,
    )
    out["process.cpu_s"] = cpu_s / ops
    out["artifact_mb"] = artifact_mb
    out["trace.wall_s"] = wall_s / ops
    out["trace.residual_s"] = (wall_s - root_time(spans)) / ops
    out["trace.spans"] = len(spans) / ops
    return out
