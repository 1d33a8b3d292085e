"""End-to-end command tests: exit codes, artifact bytes, error JSON.

Commands run in-process through ``run(argv, stdout=buffer)`` so the exact
artifact bytes can be asserted without subprocesses.
"""

import hashlib
import io
import json
import time

import pytest

from chromarect import cli as cli_module
from chromarect.cli import run
from chromarect.construction import MAX_TYPECODE_VERTICES, StagedHypergraph, build_Gcg
from chromarect import hypergraph
from chromarect.hypergraph import CyclesReport, Infinite, OrderedHypergraph


def cli(*argv):
    """(exit code, stdout bytes) of one invocation."""
    buf = io.BytesIO()
    code = run(list(argv), stdout=buf)
    return code, buf.getvalue()


def cli_ok(*argv):
    code, out = cli(*argv)
    assert code == 0, f"exit {code} from {argv}"
    return out


def err_json(capsys):
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and "message" in payload
    return payload


def one_error(capsys):
    """The single JSON object a failed command wrote to stderr."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def _coord_argv(command, realization, hypergraph, tmp_path):
    """Each command that reads coordinates, on one realization file."""
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"c": 2, "colors": [0, 1] * 6}))
    return {
        "hasse": ["hasse", "--input", str(realization)],
        "mono-path": ["mono-path", "--input", str(realization),
                      "--coloring", str(col), "--k", "2"],
        "verify": ["verify", "--realization", str(realization), "--hypergraph", str(hypergraph)],
        "svg": ["svg", "--input", str(realization)],
    }[command]


def canonical(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.fixture(scope="module")
def h22_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("stage") / "h22.json"
    cli_ok("construct", "hkc", "--k", "2", "--c", "2", "--out", str(path))
    return path


@pytest.fixture(scope="module")
def g25_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("stage") / "g25.json"
    cli_ok("construct", "gcg", "--c", "2", "--g", "5", "--out", str(path))
    return path


@pytest.fixture(scope="module")
def r22n_file(tmp_path_factory, h22_file):
    path = tmp_path_factory.mktemp("real") / "r22n.json"
    cli_ok("realize", "--input", str(h22_file), "--nested", "--out", str(path))
    return path


# ---------------------------------------------------------------------------
# happy paths


class TestConstruct:
    def test_hkc_stdout_counts(self):
        out = cli_ok("construct", "hkc", "--k", "2", "--c", "2")
        d = json.loads(out)
        assert d["n"] == 12
        assert len(d["edges"]) == 14
        assert d["kind"] == "hkc"

    def test_output_is_canonical_json(self):
        out = cli_ok("construct", "hkc", "--k", "2", "--c", "2")
        assert out == canonical(json.loads(out))

    def test_gcg_odd_cycle(self):
        out = cli_ok("construct", "gcg", "--c", "2", "--g", "5")
        d = json.loads(out)
        assert d["n"] == 15
        assert d["kind"] == "gcg"

    def test_file_output(self, h22_file):
        assert json.loads(h22_file.read_bytes())["n"] == 12


class TestRealize:
    def test_plain_and_nested_share_points(self, h22_file):
        plain = json.loads(cli_ok("realize", "--input", str(h22_file)))
        nested = json.loads(cli_ok("realize", "--input", str(h22_file), "--nested"))
        assert plain["points"] == nested["points"]
        assert plain["rects"] != nested["rects"]

    def test_svg_artifact(self, h22_file, tmp_path):
        svg = tmp_path / "out.svg"
        cli_ok("realize", "--input", str(h22_file), "--out",
               str(tmp_path / "r.json"), "--svg", str(svg))
        text = svg.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>")
        assert text.count("<circle") == 12
        assert text.count("<rect") == 14

    def test_sample_zero_rejected(self, h22_file, capsys):
        # realize emits the drawing its builder verified and has no --sample;
        # verify --sample checks an emitted file instead
        for sample in ("0", "5"):
            code, out = cli("realize", "--input", str(h22_file), "--sample", sample)
            assert (code, out) == (1, b"")
            assert one_error(capsys)["error"] == "domain-error"

    def test_nested_on_gcg_is_domain_error(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        cli_ok("construct", "gcg", "--c", "2", "--g", "5", "--out", str(g))
        code, _ = cli("realize", "--input", str(g), "--nested")
        assert code == 1
        assert err_json(capsys)["error"] == "domain-error"


class TestVerify:
    def test_matching(self, h22_file, r22n_file):
        out = cli_ok("verify", "--realization", str(r22n_file),
                     "--hypergraph", str(h22_file))
        assert json.loads(out) == {"verified": True, "rects": 14, "mode": "full"}

    def test_alias(self, h22_file, r22n_file):
        assert cli_ok("verify", "--realization", str(r22n_file),
                      "--hypergraph", str(h22_file))

    def test_mismatch_is_exit_1(self, h22_file, r22n_file, tmp_path, capsys):
        d = json.loads(h22_file.read_bytes())
        d["edges"][0] = [0, 5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, _ = cli("verify", "--realization", str(r22n_file),
                      "--hypergraph", str(bad))
        assert code == 1
        assert err_json(capsys)["error"] == "verification-failed"

    def test_sampled_mode(self, h22_file, r22n_file):
        out = cli_ok("verify", "--realization", str(r22n_file),
                     "--hypergraph", str(h22_file), "--sample", "5")
        assert json.loads(out)["mode"] == "sample"

    def test_sample_above_rect_count_is_full(self, h22_file, r22n_file):
        out = cli_ok("verify", "--realization", str(r22n_file),
                     "--hypergraph", str(h22_file), "--sample", "15", "--seed", "2")
        assert json.loads(out) == {"verified": True, "rects": 14, "mode": "full"}

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_rejected(self, h22_file, r22n_file, sample, capsys):
        code, out = cli("verify", "--realization", str(r22n_file),
                        "--hypergraph", str(h22_file), "--sample", sample)
        assert (code, out) == (1, b"")
        assert err_json(capsys)["error"] == "domain-error"

    def test_zero_denominator_is_domain_error(self, h22_file, r22n_file, tmp_path, capsys):
        d = json.loads(r22n_file.read_bytes())
        d["points"][0][0] = "1/0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, _ = cli("verify", "--realization", str(bad), "--hypergraph", str(h22_file))
        assert code == 1
        assert err_json(capsys)["error"] == "domain-error"


class TestToAps:
    def test_pow2(self, r22n_file):
        d = json.loads(cli_ok("to-aps", "--input", str(r22n_file), "--mode", "pow2"))
        assert len(d["aps"]) == 14
        assert len(d["V"]) == 12
        assert all(int(a["difference"]) & (int(a["difference"]) - 1) == 0
                   for a in d["aps"])

    def test_general_named_stream(self, r22n_file):
        d = json.loads(cli_ok("to-aps", "--input", str(r22n_file),
                              "--mode", "general", "--difference-set", "pow3"))
        assert all(int(a["difference"]) % 3 == 0 for a in d["aps"])

    def test_general_file_stream(self, r22n_file, tmp_path):
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps([2**i for i in range(1, 80)]))
        d = json.loads(cli_ok("to-aps", "--input", str(r22n_file),
                              "--mode", "general", "--difference-set", str(dfile)))
        assert len(d["aps"]) == 14

    def test_pow2_rejects_difference_set(self, r22n_file, capsys):
        code, _ = cli("to-aps", "--input", str(r22n_file), "--mode", "pow2",
                      "--difference-set", "primes")
        assert code == 1
        err_json(capsys)

    def test_general_requires_difference_set(self, r22n_file, capsys):
        code, _ = cli("to-aps", "--input", str(r22n_file), "--mode", "general")
        assert code == 1
        err_json(capsys)

    def test_short_file_stream_exhausts(self, r22n_file, tmp_path, capsys):
        dfile = tmp_path / "short.json"
        dfile.write_text("[2, 3, 5]")
        code, _ = cli("to-aps", "--input", str(r22n_file),
                      "--mode", "general", "--difference-set", str(dfile))
        assert code == 1
        assert err_json(capsys)["error"] == "stream-exhausted"


class TestSmallCommands:
    def test_vdc_prints_exact_fraction(self):
        assert cli_ok("vdc", "--n", "3") == b"3/4\n"
        assert cli_ok("vdc", "--n", "0") == b"0\n"
        assert cli_ok("vdc", "--n", "6") == b"3/8\n"

    def test_vdc_negative(self, capsys):
        code, _ = cli("vdc", "--n", "-1")
        assert code == 1
        err_json(capsys)

    @pytest.mark.parametrize("argv", [("vdc", "--n", "6"), ("embed", "--set", "1,3,7")])
    def test_sequence_check_is_independent(self, argv, monkeypatch, capsys):
        # a wrong bit reversal must not pass the check, wherever it is read
        from chromarect import arithmetic

        def wrong(n, width=None):
            return 0

        monkeypatch.setattr(arithmetic, "bit_reverse", wrong)
        monkeypatch.setattr(cli_module, "bit_reverse", wrong, raising=False)
        code, out = cli(*argv)
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "verification-failed"

    def test_ap_capture_figure_instance(self):
        d = json.loads(cli_ok("ap-capture", "--set", "1,3,7,8,10,15",
                              "--start", "3", "--difference", "2", "--length", "3"))
        assert d["captured"] == [3, 7]
        assert d["offset"] == 0

    def test_ap_capture_negative_values_use_offset(self):
        d = json.loads(cli_ok("ap-capture", "--set=-4,-2,0,2,5",
                              "--start", "-2", "--difference", "2", "--length", "3"))
        assert d["offset"] == 4
        assert d["captured"] == [-2, 0, 2]

    def test_embed(self):
        d = json.loads(cli_ok("embed", "--set", "1,3,7"))
        assert d == {"offset": 0,
                     "points": [["1", "1/2"], ["3", "3/4"], ["7", "7/8"]]}

    def test_chromatic_triangle(self, tmp_path):
        h = tmp_path / "tri.json"
        h.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
        d = json.loads(cli_ok("chromatic", "--input", str(h)))
        assert d["chromatic_number"] == 3

    def test_chromatic_undefined_on_singleton_edge(self, tmp_path, capsys):
        h = tmp_path / "loop.json"
        h.write_text(json.dumps({"n": 2, "edges": [[0]]}))
        code, out = cli("chromatic", "--input", str(h))
        assert (code, out) == (1, b"")
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "domain-error"

    def test_girth_triangle_and_forest(self, tmp_path):
        tri = tmp_path / "tri.json"
        tri.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
        assert json.loads(cli_ok("girth", "--input", str(tri)))["girth"] == 3
        forest = tmp_path / "forest.json"
        forest.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert json.loads(cli_ok("girth", "--input", str(forest)))["girth"] == "Infinite"

    def test_find_mono(self, h22_file, tmp_path):
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"c": 2, "colors": [0, 1] * 6}))
        d = json.loads(cli_ok("find-mono", "--input", str(h22_file),
                              "--coloring", str(col)))
        u, v = d["vertices"]
        assert [0, 1][u % 2] == [0, 1][v % 2] == d["color"]

    def test_hasse_accepts_realization_and_bare_points(self, r22n_file, tmp_path):
        from_real = json.loads(cli_ok("hasse", "--input", str(r22n_file)))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps(
            {"points": json.loads(r22n_file.read_bytes())["points"]}
        ))
        assert json.loads(cli_ok("hasse", "--input", str(pts))) == from_real

    def test_hasse_zero_denominator_is_domain_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [["0", "0"], ["1/0", "1"]]}))
        code, _ = cli("hasse", "--input", str(pts))
        assert code == 1
        assert err_json(capsys)["error"] == "domain-error"

    def test_mono_path_found_and_not(self, r22n_file, tmp_path):
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"c": 2, "colors": [0, 1] * 6}))
        d = json.loads(cli_ok("mono-path", "--input", str(r22n_file),
                              "--coloring", str(col), "--k", "2"))
        assert isinstance(d["path"], list) and len(d["path"]) == 2
        d = json.loads(cli_ok("mono-path", "--input", str(r22n_file),
                              "--coloring", str(col), "--k", "12"))
        assert d["path"] is None

    @pytest.mark.parametrize("width", ["-5", "nan", "inf", "0", "80"])
    def test_svg_width_must_exceed_margins(self, width, r22n_file, capsys):
        # each but 0 exited 0 with a negative or nan size; 0 meant 900
        code, out = cli("svg", "--input", str(r22n_file), "--width", width)
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    def test_svg_command(self, r22n_file):
        out = cli_ok("svg", "--input", str(r22n_file), "--width", "500")
        assert out.startswith(b"<svg ")
        assert b'width="500.000000"' in out

    def test_selftest_single_criterion(self):
        code, out = cli("selftest", "--criterion", "1")
        assert code == 0
        text = out.decode()
        assert "criterion  1 PASS" in text
        assert text.strip().endswith("1/1 criteria passed")

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; nothing one call parses may
        # reach the next (--criterion appends to a list, for one)
        assert cli("selftest", "--criterion", "one") == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"
        for _ in range(2):
            code, out = cli("selftest", "--criterion", "1")
            assert code == 0
            assert out.decode().count("criterion ") == 1
            assert out.decode().strip().endswith("1/1 criteria passed")
        assert cli("vdc", "--n", "6") == (0, b"3/8\n")
        assert capsys.readouterr().err == ""
        assert cli_module._build_parser() is cli_module._build_parser()


# ---------------------------------------------------------------------------
# error contract


# (key path into the H(2,2) file, value put there)
_HEADER_CASES = [
    (["k"], "2"),
    (["k"], True),
    (["k"], 2.0),
    (["c"], "2"),
    (["c"], True),
    (["c"], 2.0),
    (["m"], "2"),
    (["m"], True),
    (["m"], 2.0),
    (["kind"], "hkd"),
    (["kind"], None),
    (["copy_template", "kind"], "gcg"),  # G(1, g) has the same single edge as H(2, 1)
    (["copy_template", "c"], 2),
    (["copy_template", "k"], 3),
    (["copy_template", "n"], 3),
    (["copy_template"], None),
    (["edges", 4, 0], True),  # True == 1, the vertex it replaces
]


# (staged file, {vertex: parent put there})
_BAD_PARENTS = [
    ("h22", {5: 5.0}),  # was a TypeError traceback
    ("h22", {5: "1"}),
    ("h22", {5: 999}),
    ("h22", {5: -3}),  # a negative index would wrap silently
    ("h22", {5: 8}),  # a vertex of the same level
    ("h22", {5: None}),
    ("h22", {5: True}),
    ("h22", {0: 1}),  # a level-0 vertex with a parent
    ("g25", {7: None}),  # a null inside level 1
    ("g25", {2: 0}),  # a level-0 vertex with a parent
    ("g25", {7: 2, 8: 1}),  # one stage's two parents swapped; this loaded
    ("g25", {9: 5}),  # a parent past the auxiliary vertices
]


def _flag_id(argv):
    """Test id: the command (the family for construct) and the last flag."""
    return f"{argv[1] if argv[0] == 'construct' else argv[0]}{argv[-2]}"


class TestErrorContract:
    def test_unknown_subcommand(self, capsys):
        code, _ = cli("frobnicate")
        assert code == 1
        assert err_json(capsys)["error"] == "domain-error"

    def test_unknown_flag(self, capsys):
        code, _ = cli("vdc", "--n", "3", "--frobnicate")
        assert code == 1
        err_json(capsys)

    def test_missing_input_file(self, capsys):
        code, _ = cli("realize", "--input", "/nonexistent/x.json")
        assert code == 1
        err_json(capsys)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = cli("girth", "--input", str(bad))
        assert code == 1
        assert "malformed" in err_json(capsys)["message"]

    def test_size_limit_is_exit_2(self, capsys):
        code, _ = cli("construct", "hkc", "--k", "3", "--c", "2",
                      "--max-vertices", "1000")
        assert code == 2
        assert err_json(capsys)["error"] == "size-limit-exceeded"

    @pytest.mark.parametrize(
        "argv",
        [
            # a cycle of 10**7 + 1 edges was built before the count was
            # compared (45 s, 3.2 GB)
            ("gcg", "--c", "2", "--g", "10000001"),
            # 144 + 12**13 vertices pass the 4-byte typecode's bound, not
            # the vertex limit (was a MemoryError traceback)
            ("hkc", "--k", "2", "--c", "3", "--max-vertices", str(10**15)),
            ("gcg", "--c", "2", "--g", str(MAX_TYPECODE_VERTICES // 3 + 1), "--max-vertices", str(10**15)),
        ],
        ids=["gcg-limit", "hkc-typecode", "gcg-typecode"],
    )
    def test_count_past_a_bound_is_exit_2_at_once(self, argv, capsys):
        start = time.perf_counter()
        code, out = cli("construct", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, b"")
        assert one_error(capsys)["error"] == "size-limit-exceeded"

    def test_astronomical_instance_rejected_fast(self, capsys):
        code, _ = cli("construct", "hkc", "--k", "3", "--c", "3")
        assert code == 2
        err_json(capsys)

    def test_nonpositive_limits_rejected(self, h22_file, capsys):
        # every command that takes a limit flag refuses 0 and -1 as an
        # argument error, before it reads its input
        for argv in (
            ("construct", "hkc", "--k", "2", "--c", "2", "--max-vertices"),
            ("construct", "gcg", "--c", "2", "--g", "5", "--max-vertices"),
            ("girth", "--input", str(h22_file), "--max-vertices"),
            ("girth", "--input", str(h22_file), "--node-budget"),
            ("chromatic", "--input", str(h22_file), "--max-vertices"),
            ("chromatic", "--input", str(h22_file), "--node-budget"),
        ):
            for value in ("0", "-1"):
                code, out = cli(*argv, value)
                assert (code, out) == (1, b""), argv
                err = one_error(capsys)
                assert err["error"] == "domain-error"
                assert argv[-1] in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "hkc", "--k", "2", "--c", "2", "--max-vertices", "12"),
            ("construct", "gcg", "--c", "2", "--g", "5", "--max-vertices", "15"),
            ("girth", "--input", "{h22}", "--max-vertices", "12"),
            ("girth", "--input", "{h22}", "--node-budget", "10000"),
            ("chromatic", "--input", "{h22}", "--max-vertices", "12"),
            ("chromatic", "--input", "{h22}", "--node-budget", "10000"),
            ("verify", "--realization", "{r22n}", "--hypergraph", "{h22}",
             "--sample", "5", "--seed", "3"),
        ],
        ids=_flag_id,
    )
    def test_kept_flags_take_positive_values(self, argv, h22_file, r22n_file):
        paths = {"{h22}": str(h22_file), "{r22n}": str(r22n_file)}
        cli_ok(*(paths.get(a, a) for a in argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "hkc", "--k", "2", "--c", "2", "--seed", "1"),
            ("construct", "hkc", "--k", "2", "--c", "2", "--node-budget", "5"),
            ("construct", "gcg", "--c", "2", "--g", "5", "--provider", "odd-cycle"),
            ("construct", "gcg", "--c", "2", "--g", "5", "--seed", "1"),
            ("construct", "gcg", "--c", "2", "--g", "5", "--node-budget", "5"),
            ("realize", "--input", "h.json", "--max-vertices", "5"),
            ("verify", "--realization", "r.json", "--hypergraph", "h.json",
             "--max-vertices", "5"),
            ("verify", "--realization", "r.json", "--hypergraph", "h.json",
             "--node-budget", "5"),
            ("to-aps", "--input", "r.json", "--mode", "pow2", "--node-budget", "5"),
            ("ap-capture", "--set", "1,3", "--start", "1", "--difference", "2",
             "--length", "2", "--seed", "1"),
            ("chromatic", "--input", "h.json", "--seed", "1"),
            ("girth", "--input", "h.json", "--seed", "1"),
            ("find-mono", "--input", "h.json", "--coloring", "c.json",
             "--max-vertices", "5"),
            ("hasse", "--input", "r.json", "--seed", "1"),
            ("mono-path", "--input", "r.json", "--coloring", "c.json", "--k", "2",
             "--node-budget", "5"),
            ("vdc", "--n", "3", "--seed", "1"),
            ("svg", "--input", "r.json", "--max-vertices", "5"),
            ("embed", "--set", "1,3", "--node-budget", "5"),
            ("selftest", "--seed", "1"),
        ],
        ids=_flag_id,
    )
    def test_flag_a_command_does_not_take_is_argument_error(self, argv, capsys):
        code, out = cli(*argv)
        assert (code, out) == (1, b"")
        err = one_error(capsys)
        assert err["error"] == "domain-error"
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err["message"]

    def test_girth_sweep_bound_over_node_budget_is_exit_2(self, g25_file, capsys):
        # G(2,5) is a 15-cycle: n (n + m + sum |e|) = 15 * (15 + 15 + 30)
        bound = 900
        code, out = cli("girth", "--input", str(g25_file), "--node-budget", str(bound - 1))
        assert (code, out) == (2, b"")
        err = one_error(capsys)
        assert err["error"] == "node-budget-exceeded"
        assert (err["steps"], err["node_budget"]) == (bound, bound - 1)
        out = cli_ok("girth", "--input", str(g25_file), "--node-budget", str(bound))
        assert out == cli_ok("girth", "--input", str(g25_file))

    @pytest.mark.parametrize(
        "coloring",
        [
            {"c": 2, "colors": [-1, 0, 1] + [0, 1] * 4 + [0]},  # exited 0
            {"c": 2, "colors": [5] * 12},  # printed {"color": 5, ...}
            {"c": 0, "colors": [0] * 12},
            {"c": 2.0, "colors": [0] * 12},
            {"c": True, "colors": [0] * 12},
            {"c": "2", "colors": [0] * 12},
            {"c": 2, "colors": [True] + [0] * 11},
            {"c": 2, "colors": [1.0] + [0] * 11},
            {"c": 2, "colors": ["1"] + [0] * 11},
            {"c": 2, "colors": [2] + [0] * 11},
        ],
    )
    @pytest.mark.parametrize("command", ["find-mono", "mono-path"])
    def test_coloring_outside_palette_rejected(
        self, command, coloring, h22_file, r22n_file, tmp_path, capsys
    ):
        col = tmp_path / "col.json"
        col.write_text(json.dumps(coloring))
        source = h22_file if command == "find-mono" else r22n_file
        code, out = cli(command, "--input", str(source), "--coloring", str(col))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 3, "edges": [[1, 2.0]]},  # was a TypeError traceback
            {"n": 3, "edges": [[1, True]]},
            {"n": 3, "edges": [[1, "2"]]},
            {"n": 3.0, "edges": [[1, 2]]},
            {"n": True, "edges": [[0]]},
        ],
    )
    def test_chromatic_non_int_vertex_ids_rejected(self, payload, tmp_path, capsys):
        h = tmp_path / "h.json"
        h.write_text(json.dumps(payload))
        code, out = cli("chromatic", "--input", str(h))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize("command", ["realize", "find-mono"])
    def test_staged_float_vertex_id_rejected(self, command, h22_file, tmp_path, capsys):
        staged = json.loads(h22_file.read_bytes())
        staged["edges"][0][1] = float(staged["edges"][0][1])  # was a TypeError traceback
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"c": 2, "colors": [0, 1] * 6}))
        argv = [command, "--input", str(bad)]
        if command == "find-mono":
            argv += ["--coloring", str(col)]
        code, out = cli(*argv)
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "source,edits",
        _BAD_PARENTS,
        ids=[
            ("" if source == "h22" else source + "-")
            + "-".join(f"{v}-{p}" for v, p in edits.items())
            for source, edits in _BAD_PARENTS
        ],
    )
    def test_staged_bad_parent_rejected(self, source, edits, h22_file, g25_file, tmp_path, capsys):
        staged = json.loads({"h22": h22_file, "g25": g25_file}[source].read_bytes())
        first_leaf = staged["parents"].count(None)
        for v, p in edits.items():
            staged["parents"][v] = p
            if v >= first_leaf:  # the leaf's path edge, rewritten to match
                staged["edges"][v - first_leaf] = [p, v]
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        code, out = cli("realize", "--input", str(bad))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "argv", [["realize"], ["realize", "--nested"], ["find-mono"]], ids=" ".join
    )
    def test_staged_relabelled_parents_rejected(self, argv, h22_file, tmp_path, capsys):
        # H(2,2) with its level-1 parents relabelled 0 <-> 1 and 2 <-> 3 and
        # the path edges rewritten to match: a consistent file, but not of
        # H(2,2).  It was realized, and find-mono reported
        # palette-exceeds-guarantee under [1, 0, ..., 0], although the
        # edge (2, 3) is monochromatic there.
        staged = json.loads(h22_file.read_bytes())
        staged["parents"] = [None] * 4 + [1, 3, 1, 2, 0, 3, 0, 2]
        staged["edges"][:8] = [[p, v] for v, p in enumerate(staged["parents"]) if p is not None]
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"c": 2, "colors": [1] + [0] * 11}))
        if argv == ["find-mono"]:
            argv = argv + ["--coloring", str(col)]
        code, out = cli(*argv, "--input", str(bad))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "parents, edges",
        [([None] * 5 + [0, 1], [[0, 5], [1, 6], [5, 6]]), ([None] * 5, [])],
        ids=["one-aux-edge", "no-aux-edges"],
    )
    @pytest.mark.parametrize("command", ["realize", "chromatic"])
    def test_staged_colorable_auxiliary_rejected(self, command, parents, edges, tmp_path, capsys):
        # a c = 2 gcg file whose auxiliary graph is properly 2-colorable, so
        # the instance it describes is too: realize exited 0, and chromatic
        # reported 2 (1 for the edgeless auxiliary)
        staged = {
            "kind": "gcg", "k": 2, "c": 2, "m": 2, "n": len(parents),
            "parents": parents, "edges": edges,
            "copy_template": build_Gcg(1, 5).to_json_dict(),
        }
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        assert cli(command, "--input", str(bad)) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    def test_staged_short_parents_rejected(self, h22_file, tmp_path, capsys):
        staged = json.loads(h22_file.read_bytes())
        staged["parents"].pop()  # was an IndexError traceback
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        code, out = cli("realize", "--input", str(bad))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize("edge", [[0, 1, 2], []])  # exit 0; a ValueError traceback
    @pytest.mark.parametrize(
        "argv", [["realize"], ["realize", "--nested"], ["find-mono"]], ids=" ".join
    )
    def test_staged_edges_must_match_parents(self, edge, argv, h22_file, tmp_path, capsys):
        staged = json.loads(h22_file.read_bytes())
        staged["edges"][9] = edge
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"c": 2, "colors": [0, 1] * 6}))
        if argv == ["find-mono"]:
            argv = argv + ["--coloring", str(col)]
        code, out = cli(*argv, "--input", str(bad))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "path,value",
        _HEADER_CASES,
        ids=["/".join(map(str, path)) + "=" + repr(value) for path, value in _HEADER_CASES],
    )
    def test_staged_bad_header_rejected(self, path, value, h22_file, tmp_path, capsys):
        staged = json.loads(h22_file.read_bytes())
        target = staged
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        code, out = cli("realize", "--input", str(bad))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    def test_staged_false_vertex_count_rejected_fast(self, tmp_path, capsys):
        # a genuine H(1000, 1) under a 5-vertex H(1000, 2) header: deriving
        # that header's levels would take m ** blocks = 1000 ** (1000 ** 999)
        template = json.loads(cli_ok("construct", "hkc", "--k", "1000", "--c", "1"))
        staged = {
            "kind": "hkc", "k": 1000, "c": 2, "m": 1000, "n": 5,
            "parents": [None] * 5, "edges": [], "copy_template": template,
        }
        bad = tmp_path / "staged.json"
        bad.write_text(json.dumps(staged))
        start = time.perf_counter()
        code, out = cli("realize", "--input", str(bad))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize("index", [0.9, 0.0, "0", True])  # each verified, exit 0
    def test_realization_non_int_edge_index_rejected(
        self, index, h22_file, r22n_file, tmp_path, capsys
    ):
        d = json.loads(r22n_file.read_bytes())
        d["edge_of_rect"][0] = index
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, out = cli("verify", "--realization", str(bad), "--hypergraph", str(h22_file))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)  # was a RecursionError traceback
        code, out = cli("hasse", "--input", str(deep))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "coord",
        [
            0.5,  # hasse exited 0
            True,  # hasse exited 0, read as 1
            1.0,
            None,
            [1],
            {"x": 1},
            "1/0",
            "one",
            # Fraction expanded the exponent digit by digit: hasse was
            # still running after 60 s
            "1e100000000",
            "1.5",
            "+3",
            " 3",
            "3 ",
            "\u0663",  # a non-ASCII digit
        ],
    )
    @pytest.mark.parametrize("command", ["hasse", "mono-path", "verify", "svg"])
    def test_non_rational_coordinate_rejected(
        self, command, coord, h22_file, r22n_file, tmp_path, capsys
    ):
        d = json.loads(r22n_file.read_bytes())
        d["points"][0][0] = coord
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        start = time.perf_counter()
        code, out = cli(*_coord_argv(command, bad, h22_file, tmp_path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize("command", ["hasse", "mono-path", "verify", "svg"])
    def test_negative_rational_coordinate_loads(
        self, command, h22_file, r22n_file, tmp_path
    ):
        # the x-rank-0 point moves to -7/2 and the boxes around it widen to -4
        d = json.loads(r22n_file.read_bytes())
        for p in d["points"]:
            if p[0] == "0":
                p[0] = "-7/2"
        for r in d["rects"]:
            if r[0] == "-1":
                r[0] = "-4"
        good = tmp_path / "good.json"
        good.write_text(json.dumps(d))
        cli_ok(*_coord_argv(command, good, h22_file, tmp_path))

    @pytest.mark.parametrize("coord", [0.5, False, 2.0])
    def test_non_rational_rect_bound_rejected(self, coord, h22_file, r22n_file, tmp_path, capsys):
        d = json.loads(r22n_file.read_bytes())
        d["rects"][0][1] = coord
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, out = cli("verify", "--realization", str(bad), "--hypergraph", str(h22_file))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize(
        "points,pair",
        [
            ([[0, 0], [1, 1], [2, 2]], (0, 2)),  # (1, 1) lies between
            ([[0, 0], [1, 2], [2, 1]], (1, 2)),  # not comparable
        ],
    )
    def test_hasse_recheck_rejects_non_cover(self, points, pair, tmp_path, monkeypatch, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": points}))
        real = cli_module.dominance_hasse

        def with_non_cover(points):
            H = real(points)
            return OrderedHypergraph(H.n, H.edges + [pair])

        monkeypatch.setattr(cli_module, "dominance_hasse", with_non_cover)
        code, out = cli("hasse", "--input", str(pts))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "verification-failed"

    def test_mono_path_recheck_rejects_non_cover(self, tmp_path, monkeypatch, capsys):
        # (1, 1) lies between the two returned points, so they are not a cover
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[0, 0], [1, 1], [2, 2]]}))
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"c": 1, "colors": [0, 0, 0]}))
        argv = ("mono-path", "--input", str(pts), "--coloring", str(col), "--k", "2")
        assert json.loads(cli_ok(*argv)) == {"path": [0, 1]}
        monkeypatch.setattr(cli_module, "monochromatic_increasing_path", lambda p, c, k: [0, 2])
        code, out = cli(*argv)
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "verification-failed"

    def test_girth_recheck_rejects_infinite_on_cyclic(self, tmp_path, monkeypatch, capsys):
        h = tmp_path / "h.json"  # a triangle with a pendant edge
        h.write_text(json.dumps({"n": 4, "edges": [[0, 3], [0, 1], [1, 2], [0, 2]]}))
        monkeypatch.setattr(hypergraph, "hypergraph_girth", lambda H: CyclesReport(Infinite, None))
        code, out = cli("girth", "--input", str(h))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "verification-failed"

    def test_construct_recheck_rejects_another_instance(self, monkeypatch, capsys):
        # a valid staged file, but of G(2,7) where G(2,5) was built
        other = build_Gcg(2, 7).to_json_dict()
        monkeypatch.setattr(StagedHypergraph, "to_json_dict", lambda self: other)
        code, out = cli("construct", "gcg", "--c", "2", "--g", "5")
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "verification-failed"

    @pytest.mark.parametrize("command", ["girth", "chromatic"])
    def test_vertex_count_above_max_vertices_is_exit_2(self, command, h22_file, tmp_path, capsys):
        huge = tmp_path / "huge.json"  # was a MemoryError traceback
        huge.write_text(json.dumps({"n": 10**30, "edges": [[0, 1, 2]]}))
        start = time.perf_counter()
        code, out = cli(command, "--input", str(huge))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, b"")
        assert one_error(capsys)["error"] == "size-limit-exceeded"
        code, out = cli(command, "--input", str(h22_file), "--max-vertices", "11")
        assert (code, out) == (2, b"")
        assert one_error(capsys)["error"] == "size-limit-exceeded"
        cli_ok(command, "--input", str(h22_file), "--max-vertices", "12")

    def test_json_integer_past_digit_limit_is_domain_error(self, h22_file, tmp_path, capsys):
        col = tmp_path / "col.json"  # was a ValueError traceback
        col.write_text('{"c": 2, "colors": [' + "9" * 5000 + "]}")
        code, out = cli("find-mono", "--input", str(h22_file), "--coloring", str(col))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    @pytest.mark.parametrize("command,flag", [("vdc", "--n"), ("embed", "--set")])
    def test_output_past_digit_limit_is_exit_2(self, command, flag, capsys):
        # 4300 nines parse, but the term's denominator 2**14285 has 4301 digits
        code, out = cli(command, flag, "9" * 4300)
        assert (code, out) == (2, b"")
        assert one_error(capsys)["error"] == "resource-limit"

    @pytest.mark.parametrize("extent", ["huge", "tiny"])
    def test_svg_coordinate_beyond_float_is_domain_error(
        self, extent, r22n_file, tmp_path, capsys
    ):
        d = json.loads(r22n_file.read_bytes())
        if extent == "huge":
            d["points"][0][0] = 10**400  # was an OverflowError traceback
        else:
            # a spread of 10**-310 scaled to infinity: exit 0 with "nan" and "inf"
            tiny = "1/1" + "0" * 310
            d = {"points": [["0", "0"], [tiny, tiny]], "rects": [], "edge_of_rect": []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, out = cli("svg", "--input", str(bad))
        assert (code, out) == (1, b"")
        assert one_error(capsys)["error"] == "domain-error"

    def test_find_mono_huge_palette(self, h22_file, tmp_path):
        # the finder built the whole palette: a MemoryError under a 1.5 GB cap
        outs = []
        for c in (2, 10**10):
            col = tmp_path / f"col{c}.json"
            col.write_text(json.dumps({"c": c, "colors": [0, 1] * 6}))
            start = time.perf_counter()
            outs.append(cli_ok("find-mono", "--input", str(h22_file), "--coloring", str(col)))
            assert time.perf_counter() - start < 1.0
        assert outs[0] == outs[1]

    def test_palette_too_deep_to_recurse_is_exit_2(self, capsys):
        # H(1, c) has one vertex, so no size limit stops the recursion of
        # its builder, one frame per color; this was a RecursionError traceback
        code, out = cli("construct", "hkc", "--k", "1", "--c", "1500")
        assert (code, out) == (2, b"")
        assert one_error(capsys)["error"] == "resource-limit"
        assert json.loads(cli_ok("construct", "hkc", "--k", "1", "--c", "300"))["c"] == 300


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, h22_file):
        argv = ("realize", "--input", str(h22_file), "--nested")
        assert cli_ok(*argv) == cli_ok(*argv)

    def test_svg_bytes_stable(self, r22n_file):
        argv = ("svg", "--input", str(r22n_file))
        assert cli_ok(*argv) == cli_ok(*argv)


# sha256 of the girth and hasse artifacts as the all-rotations witness and
# the cubic cover scan (the references in test_hypergraph and test_geometry)
# emit them; the linear witness and the rank-space sweep must match byte
# for byte
_GIRTH_DIGESTS = {
    5: "dcb5d357e7a47513c7732bab5d4f26a831f8633802d8c7e34c615d96604e9b4b",
    7: "660f4d78d9b3103f631652ecb5f1c5681238c13e8738fe777a7e25b2b03f4c96",
    9: "86e39c7fee024dda6c903641053bf8a27b621531d35dfbeaa02d428014961f87",
    51: "773832be90a2189e8ed634f5718058ad96db7f7f7258bd8b9f8c10e6f4fc6353",
    71: "842412e263a3023ab1387ab75a8df2911dc09581a904cc0b8d589bc4dc7cabe2",
}
_HASSE_DIGESTS = {
    5: "4f67049dc42ffd977d54fed624a59eb3d313c66d3d662b0da5822fcb9a4a2d4d",
    7: "00364c8b28490fa499cb3b926317f47e010f42e7c8e25272ab889d4fda85c5bd",
    9: "8013426e8cb663d0e2d6f9cf33593f67d5af13ec61691cacac9243ab9276e539",
    51: "8bd3425096f23fc7c749f1c6318e9f2598df782a8dd76f5532b9de7e9518a8ea",
    71: "d1de56763a4caec074d44fd7e860058708080eef34646e2a7412e86dd75553f3",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedArtifacts:
    @pytest.mark.parametrize("g", sorted(_GIRTH_DIGESTS))
    def test_girth_and_hasse_of_girth_graph(self, g, tmp_path):
        staged, real = tmp_path / "g.json", tmp_path / "r.json"
        cli_ok("construct", "gcg", "--c", "2", "--g", str(g), "--out", str(staged))
        assert _sha256(cli_ok("girth", "--input", str(staged))) == _GIRTH_DIGESTS[g]
        cli_ok("realize", "--input", str(staged), "--out", str(real))
        assert _sha256(cli_ok("hasse", "--input", str(real))) == _HASSE_DIGESTS[g]

    def test_girth_and_hasse_of_h22(self, h22_file, r22n_file):
        assert _sha256(cli_ok("girth", "--input", str(h22_file))) == (
            "a6eb80a0980987a4672bb8b3efd01355d84e5976b33449cea92c1246de8198d8"
        )
        assert _sha256(cli_ok("hasse", "--input", str(r22n_file))) == (
            "a8ca02675a61eb808806de5d3da2e983a30e4e7b02dfbc6a6bbf043ae83caea5"
        )
