"""The benchmark's workloads.

A workload makes its inputs from the seed (``setup``, untimed but
measured as set-up time), then runs one pipeline of operations
(``pipeline``, timed).  An operation is one CLI command or one top-level
library call.  Each operation names its oracle when it runs; the oracles
run after the timed region (``OpLog.verify``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable, Dict, List, Optional

import oracles
from oracles import expect

# H(3,2): the 3-uniform instance no 2-coloring can properly color.
HKC32_VERTICES = 1_771_497
HKC32_EDGES = 2_184_822
HKC32_MAX_VERTICES = 2_000_000
FINDER_QUERIES = 100
RECT_SAMPLE = 3


class Aborted(Exception):
    """An operation failed; the rest of the pipeline is not attempted."""


@dataclass
class Op:
    name: str
    check: Optional[Callable]
    result: object = None
    files: List[Path] = field(default_factory=list)
    digest_of: Optional[Callable] = None
    error: str = ""


class OpLog:
    """Runs a pipeline's operations, then their oracles, and accounts for
    failures: an operation fails if it raises, exits non-zero, or its
    oracle rejects its output."""

    def __init__(self, prog, out_dir: Path):
        self.prog = prog
        self.out = out_dir
        self.ops: List[Op] = []

    def call(self, name: str, fn: Callable, *args, check=None, digest=None, **kwargs):
        op = Op(name, check, digest_of=digest)
        self.ops.append(op)
        try:
            op.result = fn(*args, **kwargs)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
            raise Aborted(name) from exc
        return op.result

    def cli(self, *argv: str, check=None) -> bytes:
        """One ``chromarect`` command through ``cli.run``; stdout is the
        result, ``--out``/``--svg`` files are its artifacts."""
        op = Op(" ".join(a for a in argv[:2] if not a.startswith("-")), check)
        op.files = [Path(argv[i + 1]) for i, a in enumerate(argv) if a in ("--out", "--svg")]
        self.ops.append(op)
        buf, err = io.BytesIO(), io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = self.prog.cli.run(list(argv), stdout=buf)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
            raise Aborted(op.name) from exc
        if code != 0:
            op.error = f"exit {code}: {err.getvalue().strip()}"
            raise Aborted(op.name)
        op.result = buf.getvalue()
        return op.result

    def verify(self) -> None:
        """Run every completed operation's oracle (outside the timed region)."""
        for op in self.ops:
            if op.error or op.check is None:
                continue
            try:
                op.check(op.result)
            except Exception as exc:  # a crashing oracle rejects the output too
                op.error = f"oracle: {type(exc).__name__}: {exc}"

    def failed(self) -> List[Op]:
        return [op for op in self.ops if op.error]

    def digests(self) -> List[str]:
        """One sha256 per operation over its result and its files."""
        out = []
        for op in self.ops:
            h = hashlib.sha256()
            if op.digest_of is not None:
                h.update(op.digest_of(op.result))
            elif isinstance(op.result, bytes):
                h.update(op.result)
            for path in op.files:
                h.update(path.read_bytes() if path.is_file() else b"<missing>")
            out.append(h.hexdigest())
        return out

    def artifact_bytes(self) -> int:
        """Bytes the operations emitted: files written plus CLI stdout."""
        total = 0
        for op in self.ops:
            if isinstance(op.result, bytes):
                total += len(op.result)
            total += sum(p.stat().st_size for p in op.files if p.is_file())
        return total


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _random_bits(rng: random.Random, n: int) -> bytes:
    """n seeded random colors from {0, 1}, one byte each."""
    return rng.randbytes(n).translate(bytes(b & 1 for b in range(256)))


# ---------------------------------------------------------------------------


class Hkc32Realize:
    """build_Hkc(3, 2), the finder on seeded random 2-colorings, then
    realize_Hkc, all in process.  Writes no JSON."""

    name = "hkc32-realize"

    def __init__(self, prog):
        self.prog = prog

    def setup(self, seed: int, inputs: Path) -> dict:
        rng = random.Random(seed)
        # Each coloring is a window of one random stream: each is a uniform
        # random 2-coloring, and the batch holds 1.8 MB rather than 177 MB.
        stream = memoryview(_random_bits(rng, HKC32_VERTICES + FINDER_QUERIES))
        return {
            "colorings": [stream[i : i + HKC32_VERTICES] for i in range(FINDER_QUERIES)],
            "rect_sample": rng.sample(range(HKC32_EDGES), RECT_SAMPLE),
        }

    def pipeline(self, inp: dict, log: OpLog) -> None:
        c, h, g = self.prog.construction, self.prog.hypergraph, self.prog.geometry
        S = log.call(
            "build_Hkc",
            c.build_Hkc,
            3,
            2,
            max_vertices=HKC32_MAX_VERTICES,
            check=_check_hkc32,
            digest=_digest_staged,
        )
        for colors in inp["colorings"]:
            log.call(
                "find_monochromatic_edge",
                c.find_monochromatic_edge,
                S,
                h.Coloring(2, colors),
                check=partial(_check_finder, S, colors),
                digest=lambda e: str(e).encode(),
            )
        sample = inp["rect_sample"]
        log.call(
            "realize_Hkc",
            g.realize_Hkc,
            S,
            check=partial(_check_rect_sample, S, sample),
            digest=partial(_digest_rects, sample),
        )


def _check_hkc32(S) -> None:
    oracles.check_counts(S.n, S.base.edges, HKC32_VERTICES, HKC32_EDGES, size=3)


def _check_finder(S, colors, e: int) -> None:
    expect(0 <= e < HKC32_EDGES, f"edge index {e} out of range")
    oracles.check_monochromatic(S.base.edges[e], colors)


def _check_rect_sample(S, sample: List[int], R) -> None:
    expect(len(R.points) == HKC32_VERTICES, "one point per vertex expected")
    expect(len(R.rects) == HKC32_EDGES, "one rectangle per edge expected")
    points = oracles.ratios(R.points)
    for r in sample:
        rect = R.rects[r]
        box = (rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi)
        e = R.edge_of_rect[r]
        expect(oracles.members(points, box) == set(S.base.edges[e]), f"rectangle {r} misses edge {e}")


def _digest_staged(S) -> bytes:
    edges = S.base.edges
    return repr((S.n, len(edges), edges[:1000], edges[-1000:])).encode()


def _digest_rects(sample: List[int], R) -> bytes:
    return repr([(R.edge_of_rect[r], tuple(map(str, R.rects[r]))) for r in sample]).encode()


# ---------------------------------------------------------------------------


class Hkc32Artifact:
    """``construct hkc --k 3 --c 2 --out FILE`` then ``find-mono`` on that
    file with a seeded coloring: the JSON layer at H(3,2) scale, no realize."""

    name = "hkc32-artifact"

    def __init__(self, prog):
        self.prog = prog

    def setup(self, seed: int, inputs: Path) -> dict:
        colors = _random_bits(random.Random(seed), HKC32_VERTICES)
        path = _write_json(inputs / "coloring.json", {"c": 2, "colors": list(colors)})
        return {"colors": colors, "coloring": path}

    def pipeline(self, inp: dict, log: OpLog) -> None:
        staged = log.out / "h32.json"
        parsed = {}

        def load():
            if "h" not in parsed:
                parsed["h"] = _read_json(staged)
            return parsed["h"]

        def check_construct(_stdout):
            d = load()
            oracles.check_counts(d["n"], d["edges"], HKC32_VERTICES, HKC32_EDGES, size=3)

        def check_find(_stdout):
            fm = _read_json(log.out / "find-mono.json")
            expect(fm["vertices"] == load()["edges"][fm["edge"]], "vertices differ from the edge")
            color = oracles.check_monochromatic(fm["vertices"], inp["colors"])
            expect(fm["color"] == color, "reported color differs")

        log.cli(
            "construct", "hkc", "--k", "3", "--c", "2",
            "--max-vertices", str(HKC32_MAX_VERTICES), "--out", str(staged),
            check=check_construct,
        )
        log.cli(
            "find-mono", "--input", str(staged), "--coloring", str(inp["coloring"]),
            "--out", str(log.out / "find-mono.json"),
            check=check_find,
        )


# ---------------------------------------------------------------------------

DESK_FIND_COLORINGS = 4
DESK_GIRTHS_CHROMATIC = (5, 7, 9)
DESK_GIRTHS_LARGE = (51, 71)
# The greedy selection roughly squares the running lcm per term, so a
# few terms past the depth the nested H(2,2) drawing needs (11) suffice,
# and more would pass the 4300-digit limit on int-string conversion.
DESK_CUSTOM_TERMS = 13


def _custom_difference_set(rng: random.Random, terms: int) -> List[int]:
    """A strictly increasing list whose greedy growth subsequence has at
    least ``terms`` terms: each kept value exceeds 2**i times the lcm of the
    kept ones, with decoys below each bound that the selection must skip.

    Each kept value is the first integer coprime to the lcm at a small
    seeded offset above its bound, and the offset is 1 while the bound is
    small.  The lcm is then the product of the kept values, so the last
    term has the same number of digits for every seed (1955 for 13 terms)
    and the work and memory of the custom translation do not vary with
    the seed."""
    out: List[int] = []
    L = 1
    for i in range(terms):
        bound = L << i
        lo = out[-1] + 1 if out else 2
        decoys = sorted({rng.randrange(lo, bound + 1) for _ in range(3)}) if bound >= lo else []
        value = bound + (rng.randrange(1, 8) if bound > 1000 else 1)
        while gcd(value, L) != 1:
            value += 1
        out.extend(decoys + [value])
        L *= value
    return out


class DeskCli:
    """The README pipeline through ``cli.run``: H(2,2) through construct,
    realize (plain and nested, with SVG), verify, find-mono, mono-path,
    hasse, chromatic and to-aps in four difference sets; G(2, g) through
    construct, girth, chromatic, realize and hasse."""

    name = "desk-cli"

    def __init__(self, prog):
        self.prog = prog

    def setup(self, seed: int, inputs: Path) -> dict:
        rng = random.Random(seed)
        colorings = []
        for i in range(DESK_FIND_COLORINGS):
            colors = [rng.randrange(2) for _ in range(12)]
            colorings.append((_write_json(inputs / f"coloring{i}.json", {"c": 2, "colors": colors}), colors))
        custom = _write_json(inputs / "custom.json", _custom_difference_set(rng, DESK_CUSTOM_TERMS))
        return {"colorings": colorings, "custom": custom}

    def pipeline(self, inp: dict, log: OpLog) -> None:
        out = log.out
        h22, r22, r22n = out / "h22.json", out / "r22.json", out / "r22n.json"
        j = _read_json

        log.cli("construct", "hkc", "--k", "2", "--c", "2", "--out", str(h22),
                check=lambda _: oracles.check_counts(j(h22)["n"], j(h22)["edges"], 12, 14, size=2))
        for real, nested in ((r22, False), (r22n, True)):
            svg = real.with_suffix(".svg")
            log.cli("realize", "--input", str(h22), *(["--nested"] if nested else []),
                    "--out", str(real), "--svg", str(svg),
                    check=partial(_check_realize, real, h22, svg, nested))
        for real in (r22, r22n):
            log.cli("verify", "--realization", str(real), "--hypergraph", str(h22),
                    check=partial(_check_verify, h22))
        for i, (path, colors) in enumerate(inp["colorings"]):
            fm = out / f"find-mono{i}.json"
            log.cli("find-mono", "--input", str(h22), "--coloring", str(path), "--out", str(fm),
                    check=partial(_check_find_mono, h22, colors, fm))
            mp = out / f"mono-path{i}.json"
            log.cli("mono-path", "--input", str(r22n), "--coloring", str(path), "--k", "2",
                    "--out", str(mp),
                    check=lambda _, mp=mp, colors=colors: oracles.check_mono_path(
                        oracles.points_of(j(r22n)), colors, 2, j(mp)["path"]))
        self._hasse(log, r22n)
        self._chromatic(log, h22)
        for label, mode in (
            ("pow2", ["--mode", "pow2"]),
            ("primes", ["--mode", "general", "--difference-set", "primes"]),
            ("pow3", ["--mode", "general", "--difference-set", "pow3"]),
            ("custom", ["--mode", "general", "--difference-set", str(inp["custom"])]),
        ):
            aps = out / f"aps-{label}.json"
            log.cli("to-aps", "--input", str(r22n), *mode, "--out", str(aps),
                    check=lambda _, aps=aps: oracles.check_progressions(j(r22n), j(aps)))

        for g in DESK_GIRTHS_CHROMATIC + DESK_GIRTHS_LARGE:
            gj, rg = out / f"g2-{g}.json", out / f"rg2-{g}.json"
            log.cli("construct", "gcg", "--c", "2", "--g", str(g), "--out", str(gj),
                    check=lambda _, gj=gj, g=g: oracles.check_counts(
                        j(gj)["n"], j(gj)["edges"], 3 * g, 3 * g, size=2))
            gi = out / f"girth2-{g}.json"
            log.cli("girth", "--input", str(gj), "--out", str(gi),
                    check=lambda _, gj=gj, gi=gi, g=g: oracles.check_girth(j(gj), j(gi), g))
            if g in DESK_GIRTHS_CHROMATIC:
                self._chromatic(log, gj)
            svg = rg.with_suffix(".svg")
            log.cli("realize", "--input", str(gj), "--out", str(rg), "--svg", str(svg),
                    check=partial(_check_realize, rg, gj, svg, False))
            self._hasse(log, rg)

    @staticmethod
    def _hasse(log: OpLog, real: Path) -> None:
        ha = log.out / f"hasse-{real.stem}.json"
        log.cli("hasse", "--input", str(real), "--out", str(ha),
                check=lambda _: oracles.check_hasse(oracles.points_of(_read_json(real)), _read_json(ha)))

    @staticmethod
    def _chromatic(log: OpLog, hyper: Path) -> None:
        ch = log.out / f"chromatic-{hyper.stem}.json"
        log.cli("chromatic", "--input", str(hyper), "--out", str(ch),
                check=lambda _: oracles.check_chromatic(_read_json(hyper), _read_json(ch)))


def _check_realize(real: Path, hyper: Path, svg: Path, nested: bool, _stdout) -> None:
    r, h = _read_json(real), _read_json(hyper)
    oracles.check_realization(r, h, nested)
    oracles.check_svg(svg.read_bytes(), len(r["points"]), len(r["rects"]))


def _check_verify(hyper: Path, stdout: bytes) -> None:
    d = json.loads(stdout)
    expect(d.get("verified") is True, "verify did not report success")
    expect(d.get("rects") == len(_read_json(hyper)["edges"]), "verify checked the wrong count")


def _check_find_mono(hyper: Path, colors: List[int], fm: Path, _stdout) -> None:
    d, h = _read_json(fm), _read_json(hyper)
    expect(d["vertices"] == h["edges"][d["edge"]], "vertices differ from the edge")
    expect(d["color"] == oracles.check_monochromatic(d["vertices"], colors), "reported color differs")


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Hkc32Realize, Hkc32Artifact, DeskCli)
}
