import json
import random
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from oscat.cli import (
    ParseError,
    emit_report,
    format_session,
    main,
    parse_session,
    run_session,
)
from oscat.config import RunConfig
from oscat.osx import M, SpaceElement, norm_at, tens_h, tens_min, tens_proj

GOLDEN_DIR = Path(__file__).parent / "golden"
TUTORIAL = Path(__file__).parents[1] / "src" / "oscat" / "data" / "tutorial.oscat"


class TestParser:
    def test_space_definition(self):
        ast = parse_session("space A = M(2);")
        assert len(ast.statements) == 1 and ast.statements[0].kind == "space"

    def test_check_command(self):
        ast = parse_session("check cptp f : S2 -> S2;")
        st = ast.statements[0]
        assert st.get("kind") == "cptp" and st.get("src") == "S2"

    def test_malformed_space_position(self):
        # the column points into the space expression
        with pytest.raises(ParseError) as exc:
            parse_session("space A = M(2,;")
        assert exc.value.line == 1 and exc.value.col == 15

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_session("alg A = [2]")

    def test_comments_and_blanks(self):
        ast = parse_session("# hi\n\n  alg A = [2];  # trailing\n")
        assert len(ast.statements) == 1

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_session("alg A = [2]; extra")

    @pytest.mark.parametrize(
        "text",
        [
            "alg A = [2];",
            "coalg C = [2,1];",
            "map f = conj_by([[0, 1], [1, 0]]);",
            "map g = choi([2] -> [2], [[1,0,0,1],[0,0,0,0],[0,0,0,0],[1,0,0,1]]);",
            "obj o = tensor(H(A), S(C));",
            "obj p = unitary(A, [[0,1],[1,0]]);",
            "check morphism f : o -> p;",
            "norm cb f trace;",
            "norm haagerup [[1,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,1]] in M(2) (*h) M(2);",
            "demo qswitch 2;",
            "assert laws A;",
        ],
    )
    def test_roundtrip(self, text):
        ast = parse_session(text)
        assert parse_session(format_session(ast)) == ast

    def test_fuzz_small(self):
        rnd = random.Random(99)
        alphabet = "abM()[];:=,+*#->012 \n\tT"
        for _ in range(5000):
            s = "".join(rnd.choice(alphabet) for _ in range(rnd.randrange(0, 40)))
            try:
                parse_session(s)
            except ParseError:
                pass  # the only permitted failure mode


class TestRunner:
    def test_undefined_name_fails_but_continues(self):
        ast = parse_session("check cp nosuch;\nnorm op [[2]];")
        rep = run_session(ast)
        assert [r.status for r in rep.records] == ["fail", "pass"]
        assert rep.exit_code == 1

    def test_duplicate_definition(self):
        ast = parse_session("alg A = [2];\nalg A = [3];\nnorm op [[1]];")
        rep = run_session(ast)
        assert rep.exit_code == 1
        assert any("already defined" in r.detail.get("error", "") for r in rep.records)

    def test_exit_codes(self):
        assert run_session(parse_session("norm op [[1]];")).exit_code == 0
        assert run_session(parse_session("check cp f;")).exit_code == 1
        unknown_session = (
            "alg A = [2];\nmap f = identity([4]);\n"
            "obj h = H(A);\nobj t = tensor(h, h);\ncheck morphism f : t -> t;"
        )
        assert run_session(parse_session(unknown_session)).exit_code == 2

    def test_oversized_structure_fails_cleanly(self):
        rep = run_session(parse_session("alg A = [30];\nnorm op [[2]];\nassert laws A;"))
        assert [r.status for r in rep.records] == ["fail", "pass", "fail"]
        assert "exceeds cap" in rep.records[0].detail["error"]

    def test_memory_error_is_a_fail_record(self, monkeypatch):
        # a layer that runs out of memory fails its statement; later ones still run
        import oscat.cli as cli_mod

        def exhausted(shape):
            raise MemoryError("Unable to allocate 12.0 GiB")

        monkeypatch.setattr(cli_mod, "make_algebra", exhausted)
        rep = run_session(parse_session("alg A = [3];\nnorm op [[2]];"))
        assert [r.status for r in rep.records] == ["fail", "pass"]
        assert rep.records[0].detail["error"] == "out of memory: Unable to allocate 12.0 GiB"
        assert rep.exit_code == 1

    def test_shape_mismatch_surfaced(self):
        ast = parse_session("map f = identity([2]);\ncoalg C = [3];\ncheck cptp f : C -> C;")
        rep = run_session(ast)
        assert rep.records[-1].status == "fail"

    def test_norm_values(self):
        ast = parse_session("norm op [[3,0],[0,1]];\nnorm tr [[1,0],[0,-1]];")
        rep = run_session(ast)
        assert abs(rep.records[0].value - 3.0) < 1e-12
        assert abs(rep.records[1].value - 2.0) < 1e-12

    def test_diamond_bracket(self):
        ast = parse_session("map t = transpose(2);\nnorm diamond t;")
        rep = run_session(ast)
        lo, hi = rep.records[0].bracket
        assert lo <= 2.0 <= hi and hi - lo < 1e-6

    @pytest.mark.parametrize("kind", ["diamond t", "cb t operator"])
    def test_unknown_norm_carries_reason(self, kind, monkeypatch):
        import oscat.normlab.diamond as diamond_mod
        from oscat.normlab.sdp import SdpResult

        monkeypatch.setattr(
            diamond_mod, "sdp_solve",
            lambda p, rel_gap: SdpResult(status="numerical_failure", message="barrier stalled"),
        )
        rep = run_session(parse_session(f"map t = transpose(2);\nnorm {kind};"))
        rec = rep.records[0]
        assert rec.status == "unknown" and rec.value is None
        assert rec.detail["reason"] == "sdp numerical_failure: barrier stalled"
        assert rec.to_json_dict()["detail"]["reason"] == rec.detail["reason"]

    def test_haagerup_size_cap_carries_reason(self, monkeypatch):
        import oscat.normlab.sdp as sdp_mod
        import oscat.osx as osx

        # a cached bracket from an earlier run of the same element would hide the cap
        monkeypatch.setattr(osx, "_NORM_CACHE", OrderedDict())
        monkeypatch.setattr(sdp_mod, "MAX_PSD_DIM", 4)
        rep = run_session(parse_session(
            "norm haagerup [[0,0,1,0],[0,0,0,0],[0,1,0,0],[0,0,0,0]] in M(2) (*h) M(2);"
        ))
        rec = rep.records[0]
        assert rec.status == "pass" and rec.detail["reason"] == "sdp size cap"
        lo, hi = rec.bracket
        assert lo <= 1.0 <= hi

    def test_assert_laws_passes_on_canonical(self):
        ast = parse_session("coalg C = [2];\nassert laws C;")
        rep = run_session(ast)
        assert rep.records[0].status == "pass"

    def test_assert_laws_names_broken_law(self, monkeypatch):
        # a corrupted comultiplication yields a fail record naming the law
        # and later commands still run
        import oscat.cli as cli_mod
        from dataclasses import replace as dc_replace
        from oscat.vnstruct import make_coalgebra

        def corrupted(shape):
            co = make_coalgebra(shape)
            bad = dc_replace(co, comult_mat=co.comult_mat.copy())
            bad.comult_mat[3, 1] += 1e-3
            return bad

        monkeypatch.setattr(cli_mod, "make_coalgebra", corrupted)
        rep = run_session(parse_session("coalg C = [2];\nassert laws C;\nnorm op [[1]];"))
        assert rep.records[0].status == "fail"
        assert "coassociativity" in rep.records[0].detail["failures"]
        assert rep.records[1].status == "pass"


SWAP = "[[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]]"
NORM_KINDS = {"haagerup": ("(*h)", tens_h), "proj": ("(*proj)", tens_proj), "inj": ("(*min)", tens_min)}


def _swap_coords():
    # Σ_ij e_ij ⊗ e_ji over the canonical basis of M(2) ⊗ M(2)
    unit = np.eye(2)
    return sum(
        np.outer(np.outer(unit[i], unit[j]).ravel(), np.outer(unit[j], unit[i]).ravel()).ravel()
        for i in range(2) for j in range(2)
    )


class TestTensorNorms:
    @pytest.mark.parametrize("kind", sorted(NORM_KINDS))
    @pytest.mark.parametrize("op", sorted(op for op, _ in NORM_KINDS.values()))
    def test_kind_must_match_top_tensor(self, kind, op, config):
        rec = run_session(parse_session(f"norm {kind} {SWAP} in M(2) {op} M(2);"), config).records[0]
        want_op, tens = NORM_KINDS[kind]
        if op != want_op:
            assert rec.status == "fail" and rec.value is None
            assert f"needs a {want_op} space" in rec.detail["error"]
            return
        br = norm_at(SpaceElement(tens(M(2), M(2)), 1, _swap_coords()), config)
        assert rec.status == "pass" and rec.bracket == (br.lower, br.upper)
        assert rec.detail["norm_status"] == br.status

    def test_swap_has_unit_min_norm(self, config):
        rec = run_session(parse_session(f"norm inj {SWAP} in M(2) (*min) M(2);"), config).records[0]
        assert rec.status == "pass" and abs(rec.value - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", sorted(NORM_KINDS))
    def test_trace_class_factors_are_unknown_with_reason(self, kind, config):
        op = NORM_KINDS[kind][0]
        rep = run_session(parse_session(f"norm {kind} {SWAP} in T(2) {op} T(2);"), config)
        rec = rep.records[0]
        assert rec.status == "unknown" and rec.value is None
        assert rec.detail["reason"] == f"no route for (T(2) {op} T(2))"
        assert rep.exit_code == 2


class TestDeterminism:
    def test_json_byte_identical(self, config):
        text = TUTORIAL.read_text()
        ast = parse_session(text)
        b1 = emit_report(run_session(ast, config), "json")
        b2 = emit_report(run_session(parse_session(text), config), "json")
        assert b1 == b2

    def test_golden_tutorial(self):
        text = TUTORIAL.read_text()
        report = run_session(parse_session(text), RunConfig(seed=0))
        got = emit_report(report, "json")
        golden = (GOLDEN_DIR / "tutorial.json").read_bytes()
        assert got == golden
        assert report.exit_code == 0

    def test_no_timing_in_json(self, config):
        rep = run_session(parse_session("norm op [[1]];"), config)
        doc = json.loads(emit_report(rep, "json"))
        assert "elapsed" not in json.dumps(doc)
        # timings do appear in the human-readable format
        assert b"ms)" in emit_report(rep, "text")


class TestEdges:
    def test_empty_session(self):
        rep = run_session(parse_session(""))
        assert rep.records == [] and rep.exit_code == 0

    def test_empty_json_report(self):
        rep = run_session(parse_session("# only a comment\n"))
        doc = json.loads(emit_report(rep, "json"))
        assert doc["records"] == []

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.oscat")]) == 3


class TestMain:
    def test_run_file(self, tmp_path, capsys):
        f = tmp_path / "s.oscat"
        f.write_text("norm op [[2]];\n")
        code = main(["run", str(f), "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0 and "norm op" in out

    def test_parse_error_exit_3(self, tmp_path, capsys):
        f = tmp_path / "bad.oscat"
        f.write_text("space A = M(2,;\n")
        assert main(["run", str(f)]) == 3

    def test_json_output(self, tmp_path):
        f = tmp_path / "s.oscat"
        f.write_text("norm tr [[1,0],[0,1]];\n")
        out = tmp_path / "r.json"
        code = main(["run", str(f), "--json", str(out)])
        doc = json.loads(out.read_text())
        assert code == 0 and doc["records"][0]["value"] == 2.0

    def test_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OSCAT_SEED", "17")
        f = tmp_path / "s.oscat"
        f.write_text("norm op [[1]];\n")
        out = tmp_path / "r.json"
        main(["run", str(f), "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 17
        # explicit flag wins over the environment
        main(["run", str(f), "--seed", "4", "--json", str(out)])
        assert json.loads(out.read_text())["config"]["seed"] == 4
