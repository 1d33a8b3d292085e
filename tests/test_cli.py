"""End-to-end command tests: exit codes, artifact bytes, error JSON.

Commands run in-process through ``run(argv, stdout=buffer)`` so the exact
artifact bytes can be asserted without subprocesses.
"""

import io
import json

import pytest

from chromarect.cli import run


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


def canonical(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.fixture(scope="module")
def h22_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("stage") / "h22.json"
    cli_ok("construct", "hkc", "--k", "2", "--c", "2", "--out", str(path))
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

    def test_gcg_random_provider_deterministic(self):
        args = ("construct", "gcg", "--c", "2", "--g", "4", "--provider",
                "random", "--node-budget", "20000", "--seed", "1")
        assert cli_ok(*args) == cli_ok(*args)

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
        code, out = cli("realize", "--input", str(h22_file), "--sample", "0")
        assert (code, out) == (1, b"")
        assert err_json(capsys)["error"] == "domain-error"

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


# ---------------------------------------------------------------------------
# error contract


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

    def test_astronomical_instance_rejected_fast(self, capsys):
        code, _ = cli("construct", "hkc", "--k", "3", "--c", "3")
        assert code == 2
        err_json(capsys)

    def test_search_budget_is_exit_2(self, capsys):
        code, _ = cli("construct", "gcg", "--c", "2", "--g", "9",
                      "--provider", "random", "--node-budget", "2")
        assert code == 2
        assert err_json(capsys)["error"] == "search-budget-exceeded"

    def test_nonpositive_limits_rejected(self, capsys):
        code, _ = cli("vdc", "--n", "3", "--node-budget", "-5")
        assert code == 1
        err_json(capsys)


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, h22_file):
        argv = ("realize", "--input", str(h22_file), "--nested", "--seed", "4")
        assert cli_ok(*argv) == cli_ok(*argv)

    def test_svg_bytes_stable(self, r22n_file):
        argv = ("svg", "--input", str(r22n_file))
        assert cli_ok(*argv) == cli_ok(*argv)
