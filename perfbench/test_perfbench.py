"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from program import Program  # noqa: E402
from tracer import Span, Tracer, layer_totals, root_time, self_times  # noqa: E402
from workloads import Aborted, OpLog  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return Program()


# -- span self time -----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", -1, 0.0, 10.0),
        Span("b", 0, 1.0, 4.0),
        Span("c", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0),
        Span("a", -1, 20.0, 21.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(self_times(spans)) == root_time(spans) == 11.0


def test_recursive_calls_count_once_and_keep_outer_counters():
    spans = [
        Span("build", -1, 0.0, 4.0, {"vertices": 10}),
        Span("build", 0, 1.0, 2.0, {"vertices": 3}),
        Span("find", -1, 4.0, 5.0),
    ]
    totals = layer_totals(spans)
    assert totals["build"] == {"self_s": 4.0, "calls": 1, "vertices": 10}
    assert totals["find"] == {"self_s": 1.0, "calls": 1}


def test_tracer_records_nesting_and_restores():
    class Box:
        pass

    box = Box()
    tracer = Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return box.inner(x) * 2

    box.inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer, lambda a, k, r: {"result": r})
    assert traced_outer(1) == 4
    (o, i) = tracer.spans
    assert (o.name, o.parent, i.name, i.parent) == ("outer", -1, "inner", 0)
    assert o.counters == {"result": 4}
    assert o.start <= i.start <= i.end <= o.end


def test_install_patches_every_name_and_restore_undoes_it(prog):
    originals = (prog.cli.build_Hkc, prog.construction.build_Hkc, prog.construction.hypergraph_girth)
    tracer = Tracer()
    layers.install(tracer, prog)
    try:
        assert prog.cli.build_Hkc is prog.construction.build_Hkc
        assert prog.cli.build_Hkc is not originals[0]
        assert prog.construction.hypergraph_girth is prog.hypergraph.hypergraph_girth
        S = prog.cli.build_Hkc(2, 2)
        prog.construction.StagedHypergraph.from_json_dict(S.to_json_dict())
    finally:
        tracer.restore()
    assert (prog.cli.build_Hkc, prog.construction.build_Hkc, prog.construction.hypergraph_girth) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("construction.build") == 2  # H(2,2) recurses into H(2,1)
    assert "construction.to_json" in names and "construction.from_json" in names
    m = layers.metrics(tracer.spans, 1, 1.0, 0.0, 0.0)
    assert set(m) == set(layers.METRICS)
    assert m["construction.build.calls"] == 1 and m["construction.build.vertices"] == 12


# -- prime candidates ---------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_candidates_formula_matches_a_direct_count(prog, monkeypatch, count):
    a = prog.arithmetic
    tested = []
    real = a._is_probable_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(a, "_is_probable_prime", counting)
    seq = a.greedy_difference_sequence(a.PrimeStream(), count)
    assert all(n % 2 for n in tested)
    assert layers.prime_candidates(seq.terms, seq.lcms) == len(tested)


# -- failure accounting -------------------------------------------------------


class _FakeCli:
    @staticmethod
    def run(argv, stdout):
        stdout.write(b"ok\n")
        return int(argv[0])


class _FakeProg:
    cli = _FakeCli


def test_oplog_counts_raise_exit_and_oracle_failures(tmp_path):
    log = OpLog(_FakeProg, tmp_path)
    log.call("fine", lambda: 1, check=lambda r: oracles.expect(r == 1, "bad"))
    log.call("rejected", lambda: 2, check=lambda r: oracles.expect(r == 1, "two is wrong"))
    log.cli("0", "cmd")
    with pytest.raises(Aborted):
        log.cli("1", "cmd")
    log.verify()
    assert [op.name for op in log.failed()] == ["rejected", "1 cmd"]
    assert "two is wrong" in log.ops[1].error and log.ops[3].error.startswith("exit 1")

    log2 = OpLog(_FakeProg, tmp_path)
    with pytest.raises(Aborted):
        log2.call("raises", lambda: 1 / 0)
    log2.verify()
    assert len(log2.ops) == 1 and "ZeroDivisionError" in log2.ops[0].error


class _Toy:
    """Three operations; the second one's oracle always rejects."""

    name = "toy"

    def __init__(self, prog):
        pass

    def setup(self, seed, inputs):
        return seed

    def pipeline(self, inp, log):
        log.call("a", lambda: inp)
        log.call("b", lambda: inp, check=lambda r: oracles.expect(False, "rejected"))
        log.call("c", lambda: inp)


def test_failed_run_is_reported_not_retried(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "toy", _Toy)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "STATE", tmp_path / "state.json")
    out = run.measure("toy", 7, seconds=60.0, trace=True)
    res = out["result"]
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 3, 1)
    assert out["info"]["samples"] == 1
    assert out["info"]["failed_frac"] == pytest.approx(1 / 3)
    assert out["info"]["errors"] == ["b: oracle: Rejected: rejected"]


def test_determinism_record_flags_changed_outputs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE", tmp_path / "state.json")
    assert run.check_determinism("k", ["x", "y"]) == []
    assert run.check_determinism("k", ["x", "y"]) == []
    assert run.check_determinism("k", ["x", "z"]) == [1]
    assert run.check_determinism("other", ["q"]) == []


# -- desk-cli inputs -----------------------------------------------------------


def test_custom_difference_set_has_the_same_size_for_every_seed():
    terms = workloads.DESK_CUSTOM_TERMS
    digits = set()
    for seed in range(6):
        values = workloads._custom_difference_set(random.Random(seed), terms)
        kept, L = [], 1
        for v in values:
            if v > (L << len(kept)):
                kept.append(v)
                L = math.lcm(L, v)
        assert len(kept) == terms and values == sorted(set(values))
        digits.add(len(str(values[-1])))
    assert len(digits) == 1


# -- speed rescaling ----------------------------------------------------------


def test_rescale_leaves_out_probes_and_scales_by_probe_speed():
    nominal = speed.NOMINAL_PROBE_S
    # before the region, two inside it (0.5 s each), after it
    probes = [(-1.0, 0.5, nominal), (2.0, 0.5, nominal), (5.0, 0.5, 2 * nominal), (9.0, 0.5, 2 * nominal)]
    raw, ref = speed.rescale(0.0, 8.0, probes)
    assert raw == pytest.approx(2.0 + 2.5 + 2.5)
    # stretches at factors 1, (1 + 1/2) / 2 and 1/2
    assert ref == pytest.approx(2.0 + 2.5 * 0.75 + 2.5 * 0.5)


def test_rescale_at_nominal_speed_is_the_wall_time():
    n = speed.NOMINAL_PROBE_S
    raw, ref = speed.rescale(10.0, 13.0, [(9.0, 0.1, n), (13.2, 0.1, n)])
    assert raw == pytest.approx(3.0) and ref == pytest.approx(3.0)


def test_speed_clock_probes_inside_its_region():
    with speed.SpeedClock(period=0.01) as clock:
        x = 0
        for i in range(3_000_000):
            x += i
    assert len(clock.probes) > 2
    assert 0 < clock.raw_s and 0 < clock.ref_s


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.METRICS.values())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())


# -- oracles reject wrong outputs --------------------------------------------


def _naive_covers(points):
    out = set()
    for i, j in itertools.combinations(range(len(points)), 2):
        p, q = sorted((points[i], points[j]))
        if p[1] < q[1] and not any(
            p[0] < w[0] < q[0] and p[1] < w[1] < q[1] for w in points
        ):
            out.add((i, j))
    return out


def test_cover_pairs_agree_with_the_definition():
    rng = random.Random(5)
    for n in (1, 2, 7, 30):
        xs, ys = rng.sample(range(1000), n), rng.sample(range(1000), n)
        points = [(Fraction(x, 7), Fraction(y, 3)) for x, y in zip(xs, ys)]
        assert oracles.cover_pairs(points) == _naive_covers(points)


def test_members_agree_with_fraction_comparison():
    rng = random.Random(9)
    pts = [(Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)),
            Fraction(rng.randrange(-50, 50), rng.randrange(1, 9))) for _ in range(300)]
    for _ in range(50):
        x_lo, x_hi = sorted(Fraction(rng.randrange(-60, 60), rng.randrange(1, 9)) for _ in "ab")
        y_lo, y_hi = sorted(Fraction(rng.randrange(-60, 60), rng.randrange(1, 9)) for _ in "ab")
        want = {i for i, (x, y) in enumerate(pts) if x_lo <= x <= x_hi and y_lo <= y <= y_hi}
        assert oracles.members(oracles.ratios(pts), (x_lo, x_hi, y_lo, y_hi)) == want


def test_graph_girth_on_known_graphs():
    cycle = [(i, (i + 1) % 7) for i in range(7)]
    assert oracles.graph_girth(7, cycle) == 7
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert oracles.graph_girth(10, petersen) == 5
    assert oracles.graph_girth(3, [(0, 1), (1, 2)]) == float("inf")


def test_realization_oracle_rejects_a_wrong_rectangle():
    hyper = {"n": 3, "edges": [[0, 1], [1, 2]]}
    real = {
        "points": [["0", "0"], ["1", "1"], ["2", "2"]],
        "rects": [["-1/2", "3/2", "-1/2", "3/2"], ["1/2", "5/2", "1/2", "5/2"]],
        "edge_of_rect": [0, 1],
    }
    oracles.check_realization(real, hyper, nested=False)
    real["rects"][1] = ["-1/2", "5/2", "-1/2", "5/2"]  # also holds point 0
    with pytest.raises(oracles.Rejected):
        oracles.check_realization(real, hyper, nested=False)


def test_progression_oracle_rejects_a_shifted_progression():
    real = {
        "points": [["0", "0"], ["1", "1"], ["2", "2"]],
        "rects": [["-1/2", "5/2", "-1/2", "5/2"]],
        "edge_of_rect": [0],
    }
    good = {"V": ["1", "3", "5"], "aps": [{"start": "1", "difference": "2", "length": 3, "edge": 0}]}
    oracles.check_progressions(real, good)
    bad = {"V": ["1", "3", "5"], "aps": [{"start": "3", "difference": "2", "length": 2, "edge": 0}]}
    with pytest.raises(oracles.Rejected):
        oracles.check_progressions(real, bad)
