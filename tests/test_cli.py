import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscat import matcore, supop
from oscat.cli import (
    _MAP_CTORS,
    _OBJ_CTORS,
    ParseError,
    _Scanner,
    emit_report,
    format_session,
    main,
    parse_session,
    run_session,
)
from oscat.config import RunConfig
from oscat.errors import InvalidInputError
from oscat.osx import M, SpaceElement, norm_at, tens_h, tens_min, tens_proj

GOLDEN_DIR = Path(__file__).parent / "golden"
# real and not symmetric: neither closed form nor the rank-one face decides
# its diamond or cb norm
NON_HERMITIAN_CHOI = "[[0,0,3,2],[3,1,2,1],[2,0,3,3],[2,3,3,0]]"
# a non-elementary M(2) (*h) M(2) element that only the SDP decides: the
# reweighted closed form and the rank-one face hand it on
SDP_HAAGERUP = "[[2,1,0,1],[3,3,0,2],[3,1,1,0],[0,3,0,0]]"
TUTORIAL = Path(__file__).parents[1] / "src" / "oscat" / "data" / "tutorial.oscat"
README = Path(__file__).parents[1] / "README.md"


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

    @pytest.mark.parametrize("text,col", [("demo qswitch ²;", 14), ("map f = transpose(²);", 19)])
    def test_integer_rejects_digits_int_cannot_read(self, text, col):
        # '²' is a digit to str.isdigit but not to int(): the error keeps its column
        with pytest.raises(ParseError) as exc:
            parse_session(text)
        assert (exc.value.line, exc.value.col, exc.value.expected) == (1, col, "an integer")

    def test_fuzz_small(self):
        rnd = random.Random(99)
        alphabet = "abM()[];:=,+*#->012 \n\tT"
        for _ in range(5000):
            s = "".join(rnd.choice(alphabet) for _ in range(rnd.randrange(0, 40)))
            try:
                parse_session(s)
            except ParseError:
                pass  # the only permitted failure mode


def _bracket_blob_by_characters(sc: _Scanner) -> str:
    """The per-character balanced-bracket scan, kept as the oracle."""
    sc.skip_ws()
    if sc.peek() != "[":
        sc.error("'['")
    depth, start = 0, sc.pos
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                sc.pos += 1
                return sc.text[start : sc.pos]
            if depth < 0:
                sc.error("balanced brackets")
        sc.pos += 1
    sc.error("']'")


def _scan(scan, prefix: str, body: str):
    sc = _Scanner(prefix + body, 1)
    sc.pos = len(prefix)
    try:
        return "blob", scan(sc), sc.pos
    except ParseError as exc:
        return "error", exc.col, exc.expected


class TestBracketBlob:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="f =[]", max_size=4), st.text(alphabet="[], 1", max_size=24))
    def test_matches_per_character_scan(self, prefix, body):
        want = _scan(_bracket_blob_by_characters, prefix, body)
        assert _scan(_Scanner.bracket_blob, prefix, body) == want

    @pytest.mark.parametrize(
        "body,want",
        [
            ("[[1, 2], [3]] rest", ("blob", "[[1, 2], [3]]", 13)),
            ("  [1", ("error", 5, "']'")),
            ("[[1]", ("error", 5, "']'")),
            ("1]", ("error", 1, "'['")),
        ],
    )
    def test_blob_position_and_error_columns(self, body, want):
        assert _scan(_Scanner.bracket_blob, "", body) == want


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

    def test_negative_block_size_fails_at_the_map(self):
        # the definition itself is the fail record, not a later use of the map
        rep = run_session(parse_session("map f = identity([-1]);\nnorm op [[2]];\ncheck cp f;"))
        assert [r.status for r in rep.records] == ["fail", "pass", "fail"]
        assert rep.records[0].command == "map f = identity([-1]);"
        assert rep.records[0].detail["error"] == "block sizes must be >= 0"
        assert rep.records[2].detail["error"] == "undefined name 'f'"

    def test_unitary_must_lie_in_the_algebra(self):
        # U is neither unitary nor in M_2 (+) M_1: its (0, 2) entry is off the blocks
        text = (
            "alg B = [2,1];\n"
            "obj u = unitary(B, [[1,0,0.5],[0,1,0],[0,0,1]]);\n"
            "map f = identity([2,1]);\n"
            "check morphism f : u -> u;\n"
            "obj v = unitary(B, [[0,1,0],[1,0,0],[0,0,-1]]);\n"
        )
        rep = run_session(parse_session(text))
        assert [(r.status, r.detail.get("error")) for r in rep.records] == [
            ("fail", "matrix does not fit the block shape"),
            ("fail", "undefined name 'u'"),
        ]

    def test_par_with_a_unitary_object_reads_its_carrier(self):
        # par(u, h) carries M(2) (*min) M(2), a block carrier through its
        # Kronecker placement; only the source generators stay open
        text = (
            "alg A2 = [2];\nobj u = unitary(A2, [[0,1],[1,0]]);\nobj h = H(A2);\n"
            "obj p = par(u, h);\nmap i = identity([4]);\ncheck morphism i : p -> p;"
        )
        (rec,) = run_session(parse_session(text)).records
        assert (rec.status, rec.detail["reason"]) == ("unknown", "source generators not exhaustive")

    def test_checks_on_many_blocks_stay_per_sector(self):
        # 64 one-by-one blocks: the CP test works sector by sector, never on
        # the 4096 x 4096 big Choi matrix (268 MB)
        import tracemalloc

        ones = ",".join(["1"] * 64)
        text = f"map f = identity([{ones}]);\ncheck cp f;\ncheck tp f;\ncheck unital f;"
        tracemalloc.start()
        try:
            rep = run_session(parse_session(text))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.status for r in rep.records] == ["pass"] * 3
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "expr,status,failures",
        [
            ("identity([0])", "pass", [[], []]),
            ("identity([])", "pass", [[], []]),
            ("identity([2,0])", "pass", [[], []]),
            ("conj_by([[2,0],[0,2]])", "fail", [["tp"], ["unital"]]),
        ],
    )
    def test_cptp_and_cpu_on_zero_spaces(self, expr, status, failures):
        # the cb norm of a CPTP (CPU) map is 0 when its domain (codomain) is zero
        rep = run_session(parse_session(f"map f = {expr};\ncheck cptp f;\ncheck cpu f;"))
        assert [r.status for r in rep.records] == [status, status]
        assert [r.detail["failures"] for r in rep.records] == failures
        if expr in ("identity([0])", "identity([])"):
            assert [r.detail["cb_norm"] for r in rep.records] == [[0.0, 0.0]] * 2

    def test_session_checks_skip_block_matrices_and_unread_flags(self, monkeypatch):
        # check cp|tp|unital read classify, which works on the transfer matrix
        # alone; check alghom|coalghom read no flag, so they do not classify
        counts = {"classify": 0, "blocks": 0}
        inside = []
        classify, init = supop.SuperOp.classify, matcore.BlockMatrix.__init__

        def counted_classify(self, *args):
            counts["classify"] += 1
            inside.append(True)
            try:
                return classify(self, *args)
            finally:
                inside.pop()

        def counted_init(self, blocks):
            counts["blocks"] += bool(inside)
            init(self, blocks)

        monkeypatch.setattr(supop.SuperOp, "classify", counted_classify)
        monkeypatch.setattr(matcore.BlockMatrix, "__init__", counted_init)
        text = "map f = conj_by([[0,1],[1,0]]);\ncheck cp f;\ncheck tp f;\ncheck unital f;"
        rep = run_session(parse_session(text))
        assert [r.status for r in rep.records] == ["pass"] * 3
        assert counts == {"classify": 3, "blocks": 0}
        counts["classify"] = 0
        text = (
            "map f = conj_by([[0,1],[1,0]]);\nalg A = [2];\ncoalg C = [2];\n"
            "check alghom f : A -> A;\ncheck coalghom f : C -> C;"
        )
        rep = run_session(parse_session(text))
        assert [r.status for r in rep.records] == ["pass"] * 2
        assert counts == {"classify": 0, "blocks": 0}

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

    def test_norm_into_dimension_one_codomain(self):
        # the trace on M_2 into [0,1]: max ‖I‖ = 1 on T_2, ‖I‖₁ = 2 on M_2
        text = "map f = choi([2] -> [0,1], [[1,0],[0,1]]);\nnorm diamond f;\nnorm cb f operator;"
        rep = run_session(parse_session(text))
        assert [(r.status, r.value) for r in rep.records] == [("pass", 1.0), ("pass", 2.0)]

    @pytest.mark.parametrize(
        "choi, route, key",
        [
            ("[[1,0,0,1],[0,0,0,0],[0,0,0,0],[1,0,0,1]]", "closed form", None),
            ("[[3,0,1,1],[3,0,2,1],[0,3,0,1],[1,1,0,3]]", "reweighted closed form", "iterations"),
            ("[[1,2,3,3],[0,0,3,3],[0,1,3,1],[1,3,1,1]]", "rank-one face", "iterations"),
            (NON_HERMITIAN_CHOI, "sdp", "sdp_iterations"),
        ],
        ids=["closed form", "reweighted", "rank-one face", "sdp"],
    )
    def test_norm_records_route_iterations(self, choi, route, key):
        # the record carries the route and, where the route iterates, its count
        rep = run_session(parse_session(f"map t = choi([2] -> [2], {choi});\nnorm diamond t;"))
        detail = rep.records[0].detail
        assert detail["route"] == route
        counts = {k: v for k, v in detail.items() if k.endswith("iterations")}
        if key is None:
            assert counts == {}
        else:
            assert list(counts) == [key] and counts[key] >= 1
            assert json.loads(emit_report(rep, "json"))["records"][0]["detail"][key] == counts[key]

    @pytest.mark.parametrize("kind", ["diamond t", "cb t operator"])
    def test_unknown_norm_carries_reason(self, kind, monkeypatch):
        import oscat.normlab.diamond as diamond_mod
        from oscat.normlab.sdp import SdpResult

        monkeypatch.setattr(
            diamond_mod, "sdp_solve",
            lambda p: SdpResult(status="numerical_failure", message="barrier stalled"),
        )
        # a fixed non-Hermitian map that no route before the SDP decides, so the SDP runs
        rep = run_session(parse_session(f"map t = choi([2] -> [2], {NON_HERMITIAN_CHOI});\nnorm {kind};"))
        rec = rep.records[0]
        assert rec.detail["route"] == "sdp"
        assert rec.status == "unknown" and rec.value is None
        assert rec.detail["reason"] == "sdp numerical_failure: barrier stalled"
        assert rec.to_json_dict()["detail"]["reason"] == rec.detail["reason"]

    def test_haagerup_size_cap_carries_reason(self, monkeypatch):
        import oscat.normlab.sdp as sdp_mod

        # the uncapped SDP value is the reference
        session = parse_session(f"norm haagerup {SDP_HAAGERUP} in M(2) (*h) M(2);")
        ref = run_session(session).records[0]
        assert ref.detail["route"] == "sdp"
        monkeypatch.setattr(sdp_mod, "MAX_PSD_DIM", 4)
        rep = run_session(session)
        rec = rep.records[0]
        assert rec.status == "pass" and rec.detail["reason"] == "sdp size cap"
        lo, hi = rec.bracket
        assert lo <= ref.value <= hi

    def test_tiny_proj_element_has_finite_bracket(self):
        rep = run_session(parse_session(
            "norm proj [[1e-20,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]] in M(2) (*proj) M(2);"
        ))
        rec = rep.records[0]
        assert rec.status == "pass" and rec.detail["norm_status"] == "exact"
        lo, hi = rec.bracket
        assert np.isfinite(hi) and lo <= 1e-20 <= hi

    def test_proj_element_below_1e300_is_not_zero(self):
        # only an element whose coordinates are all 0 is exactly 0
        rep = run_session(parse_session(
            "norm proj [[1e-301,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]] in M(2) (*proj) M(2);"
        ))
        rec = rep.records[0]
        assert rec.status == "pass" and rec.detail["norm_status"] == "exact"
        assert rec.bracket == (1e-301, 1e-301)

    @pytest.mark.parametrize("text", [
        "norm inj [[1e308,1e308,0,0],[1e308,1e308,0,0],[0,0,0,0],[0,0,0,0]] in M(2) (*min) M(2);",
        "norm op [[1e308,1e308],[1e308,1e308]];",
        "norm tr [[1e308,1e308],[1e308,1e308]];",
    ])
    def test_overflowing_norm_is_a_fail_record(self, text):
        rep = run_session(parse_session(text + "\nnorm op [[2]];"))
        assert [r.status for r in rep.records] == ["fail", "pass"]
        assert "error" in rep.records[0].detail and rep.records[0].value is None

    @pytest.mark.parametrize("text", [
        "norm inj [[1]] in M(0) (*min) M(1);",
        "norm haagerup [[1]] in M(1) (*h) M(1,0);",
    ])
    def test_empty_tensor_factor_is_a_fail_record(self, text):
        rep = run_session(parse_session(text + "\nnorm op [[2]];"))
        assert [r.status for r in rep.records] == ["fail", "pass"]
        assert "does not tile" in rep.records[0].detail["error"]

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
        if kind == "proj":
            # T(2) ⊗̂ T(2) is the dual of M(2) ⊗min M(2) = M(4): the literal is
            # a representing matrix, and the SWAP's trace norm is 4
            assert rec.status == "pass" and rec.detail["norm_status"] == "exact"
            assert abs(rec.value - 4.0) <= 1e-12 * 4.0 and rep.exit_code == 0
            return
        assert rec.status == "unknown" and rec.value is None
        assert rec.detail["reason"] == f"no route for (T(2) {op} T(2))"
        assert rep.exit_code == 2


class TestLiteralPlacement:
    """A tensor literal is read at the Kronecker placement of its factors' osx placements."""

    def test_off_placement_entry_is_refused(self, config):
        # (M(1) ⊕∞ M(1)) ⊗min M(1) is the diagonal of M(2)
        text = ("norm inj [[1,0],[0,3]] in (M(1) (+inf) M(1)) (*min) M(1);\n"
                "norm inj [[1,2],[0,3]] in (M(1) (+inf) M(1)) (*min) M(1);")
        rep = run_session(parse_session(text), config)
        assert rep.records[0].status == "pass" and rep.records[0].value == 3.0
        assert rep.records[1].status == "fail"
        assert "nonzero entry off the placement" in rep.records[1].detail["error"]

    def test_dual_side_factors(self, config):
        # (T(1) ⊕₁ T(1)) ⊗̂ T(1) is the dual of the diagonal of M(2): the trace norm
        rep = run_session(parse_session("norm proj [[1,0],[0,-2]] in (T(1) (+1) T(1)) (*proj) T(1);"), config)
        rec = rep.records[0]
        assert rec.status == "pass" and rec.detail["norm_status"] == "exact"
        assert abs(rec.value - 3.0) <= 1e-12 * 3.0

    def test_factor_without_placement_fails(self, config):
        rep = run_session(parse_session("norm haagerup [[1]] in M(1) (*h) (M(1) (*h) M(1));"), config)
        assert rep.records[0].status == "fail"
        assert "no flat realization" in rep.records[0].detail["error"]


class TestNamedSpaces:
    NAMED = (
        "space X = M(2);\nspace Y = X (*h) X;\n"
        f"norm haagerup {SDP_HAAGERUP} in Y;\nnorm haagerup {SDP_HAAGERUP} in X (*h) X;\n"
    )

    def test_named_space_gives_the_inline_bracket(self, config):
        inline = run_session(parse_session(f"norm haagerup {SDP_HAAGERUP} in M(2) (*h) M(2);"), config)
        report = run_session(parse_session(self.NAMED), config)
        assert [r.status for r in report.records] == ["pass", "pass"]
        assert [r.bracket for r in report.records] == [inline.records[0].bracket] * 2

    def test_undefined_name_is_a_fail_record(self, config):
        text = "space Y = Z (*h) M(2);\nnorm haagerup [[1]] in W;\nnorm op [[1]];"
        report = run_session(parse_session(text), config)
        assert [r.status for r in report.records] == ["fail", "fail", "pass"]
        assert "undefined space name 'Z'" in report.records[0].detail["error"]
        assert "undefined space name 'W'" in report.records[1].detail["error"]

    def test_round_trip(self):
        ast = parse_session(self.NAMED)
        assert format_session(ast) == self.NAMED
        assert parse_session(format_session(ast)) == ast


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

    def test_no_hidden_global_state(self):
        # a result depends only on (session, seed, tol): no module-level dict,
        # list or set of oscat may grow or change members while one runs
        # (functools.lru_cache memos of pure index helpers are not counted)
        import sys

        from oscat.qglue import density_ops, membership

        def snapshot():
            return {
                (mod, name): (len(val), [id(x) for x in val])
                for mod, m in list(sys.modules.items())
                if mod == "oscat" or mod.startswith("oscat.")
                for name, val in vars(m).items()
                if not name.startswith("__") and isinstance(val, (dict, list, set))
            }

        before = snapshot()
        run_session(parse_session(TUTORIAL.read_text()), RunConfig(seed=0))
        coords = np.random.default_rng(41).standard_normal(16)
        norm_at(SpaceElement(tens_h(M(2), M(2)), 1, coords))
        membership(density_ops((2,)), np.diag([0.25, 0.75]).ravel())
        after = snapshot()
        changed = [key for key in before if before[key] != after.get(key)]
        assert not changed, f"module-level state changed: {changed}"

    def test_only_config_makes_generators(self):
        # nothing outside the acceptance battery draws: its generators all
        # come from RunConfig.rng, seeded by (seed, salt)
        src = Path(__file__).parents[1] / "src" / "oscat"
        users = [p.relative_to(src).as_posix() for p in sorted(src.rglob("*.py"))
                 if "default_rng" in p.read_text(encoding="utf-8")]
        assert users == ["config.py"]

    def test_caches_bounded_and_invisible(self, config):
        # every memo on a module-level function of oscat is bounded, and a
        # report reads the same from cleared caches as from warm ones; the
        # tutorial plus two norms that reach the SDP (its per-shape LMI cache)
        import sys

        from oscat.normlab import diamond as diamond_mod

        caches = {
            id(f): f
            for mod, m in list(sys.modules.items())
            if mod == "oscat" or mod.startswith("oscat.")
            for f in vars(m).values()
            if callable(getattr(f, "cache_info", None))
        }.values()
        names = {f.__qualname__ for f in caches}
        assert {"_diamond_lmi", "block_embedding"} <= names
        for f in caches:
            assert f.cache_info().maxsize is not None, f.__qualname__
        text = TUTORIAL.read_text() + (
            f"\nmap nh = choi([2] -> [2], {NON_HERMITIAN_CHOI});\nnorm diamond nh;\nnorm cb nh operator;\n"
        )
        for f in caches:
            f.cache_clear()
        cold = emit_report(run_session(parse_session(text), config), "json")
        assert diamond_mod._diamond_lmi.cache_info().currsize == 1
        warm = emit_report(run_session(parse_session(text), config), "json")
        assert cold == warm

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

    def test_non_utf8_file_exit_3(self, tmp_path, capsys):
        f = tmp_path / "s.oscat"
        f.write_bytes(b"norm op [[1]];\xff\n")
        assert main(["run", str(f)]) == 3
        assert capsys.readouterr().err.startswith(f"cannot read {f}: ")

    def test_negative_demo_size_is_a_parse_error(self, capsys):
        # the demo's session text does not parse; it is reported, not raised
        assert main(["demo", "qswitch", "-3"]) == 3
        assert "PARSE ERROR: parse error at line 1, col 14: expected an integer" in capsys.readouterr().out

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

    @pytest.mark.parametrize("flags,env", [
        (["--tol", "nan"], {}),
        (["--tol", "-1"], {}),
        ([], {"OSCAT_TOL": "inf"}),
        ([], {"OSCAT_TOL": "abc"}),
        ([], {"OSCAT_SEED": "abc"}),
        ([], {"OSCAT_SEED": "1.5"}),
    ])
    def test_invalid_configuration_exit_3(self, tmp_path, monkeypatch, capsys, flags, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        f = tmp_path / "s.oscat"
        f.write_text("map f = identity([2]);\ncheck tp f;\n")
        assert main(["run", str(f), *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("invalid configuration: ")

    @pytest.mark.parametrize("cmd", [["run", "SESSION"], ["demo", "qswitch", "2"], ["selftest"]],
                             ids=["run", "demo", "selftest"])
    @pytest.mark.parametrize("flags,env", [(["--seed", "-1"], {}), ([], {"OSCAT_SEED": "-1"})],
                             ids=["flag", "env"])
    def test_negative_seed_exit_3(self, tmp_path, monkeypatch, capsys, cmd, flags, env):
        # selftest died in RunConfig.rng with a ValueError traceback
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        f = tmp_path / "s.oscat"
        f.write_text("norm op [[1]];\n")
        argv = [str(f) if a == "SESSION" else a for a in cmd]
        assert main([*argv, *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "invalid configuration: seed must be >= 0, got -1\n"

    def test_tolerance_must_be_finite_and_nonnegative(self):
        for tol in (float("nan"), float("inf"), -1e-12):
            with pytest.raises(InvalidInputError):
                RunConfig(tol=tol)
        assert RunConfig(tol=0.0).tol == 0.0

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


# ---------------------------------------------------------------------------
# hypothesis-generated valid sessions

SESSION_SHAPES = ((1,), (2,), (2, 1), (3,))
UNITARY_LITERALS = {
    1: ("[[1]]", "[[1i]]"),
    2: ("[[0, 1], [1, 0]]", "[[1, 0], [0, -1]]", "[[0, 1i], [1i, 0]]"),
    3: ("[[0, 1, 0], [0, 0, 1], [1, 0, 0]]", "[[1, 0, 0], [0, -1, 0], [0, 0, 1i]]"),
}


def _shape_text(shape) -> str:
    return "[" + ",".join(str(k) for k in shape) + "]"


@st.composite
def valid_sessions(draw):
    """Session text whose every statement is well-formed and shape-consistent.

    Maps come from identity, transpose, depolarize, conj_by (a unitary
    literal), adjoint, compose and tensor, kept to Σ dom · Σ cod ≤ 16.  Each
    check names a map and, where it has a source and target, structures or
    objects of the map's own shapes, declared just before it.
    """
    lines, maps, structs, fresh = [], [], [], iter(range(1000))

    def struct(kind, shape):
        name = f"{kind[0]}{next(fresh)}"
        lines.append(f"{kind} {name} = {_shape_text(shape)};")
        structs.append(name)
        return name

    for shape in draw(st.lists(st.sampled_from(SESSION_SHAPES), max_size=2)):
        struct(draw(st.sampled_from(["alg", "coalg"])), shape)
    base = ["identity", "transpose", "depolarize", "conj_by"]
    derived = ["tensor", "compose", "adjoint"]
    plan = draw(st.lists(st.sampled_from(base), min_size=1, max_size=3))
    plan += draw(st.lists(st.sampled_from(derived), max_size=3))
    for ctor in plan:
        if ctor == "identity":
            shape = draw(st.sampled_from(SESSION_SHAPES))
            expr, dom, cod = f"identity({_shape_text(shape)})", shape, shape
        elif ctor in ("transpose", "depolarize", "conj_by"):
            n = draw(st.integers(1, 3))
            arg = draw(st.sampled_from(UNITARY_LITERALS[n])) if ctor == "conj_by" else n
            expr, dom, cod = f"{ctor}({arg})", (n,), (n,)
        elif ctor == "adjoint":
            f, fdom, fcod = draw(st.sampled_from(maps))
            expr, dom, cod = f"adjoint({f})", fcod, fdom
        else:
            f, fdom, fcod = draw(st.sampled_from(maps))
            if ctor == "compose":
                inner = [m for m in maps if m[2] == fdom]
                if not inner:
                    continue
                g, gdom, _ = draw(st.sampled_from(inner))
                expr, dom, cod = f"compose({f}, {g})", gdom, fcod
            else:
                g, gdom, gcod = draw(st.sampled_from(maps))
                dom = tuple(a * b for a in fdom for b in gdom)
                cod = tuple(a * b for a in fcod for b in gcod)
                if sum(dom) * sum(cod) > 16:
                    continue
                expr = f"tensor({f}, {g})"
        name = f"f{next(fresh)}"
        lines.append(f"map {name} = {expr};")
        maps.append((name, dom, cod))

    kinds = ["diamond", "cb", "op", "tr", "morphism", "laws", "cp", "tp", "unital", "cptp", "cpu", "alghom",
             "coalghom"]
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(kinds))
        f, dom, cod = draw(st.sampled_from(maps))
        if kind in ("op", "tr"):
            e = draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))
            lines.append(f"norm {kind} [[{e[0]}, {e[1]}i], [{e[2]}, {e[3]}]];")
        elif kind in ("diamond", "cb"):
            picture = draw(st.sampled_from(["", " operator", " trace"])) if kind == "cb" else ""
            lines.append(f"norm {kind} {f}{picture};")
        elif kind == "laws":
            target = draw(st.sampled_from(structs)) if structs else struct("alg", dom)
            lines.append(f"assert laws {target};")
        elif kind == "morphism":
            ctor, table = draw(st.sampled_from([("H", "alg"), ("S", "coalg")]))
            objs = []
            for shape in (dom, cod):
                objs.append(f"o{next(fresh)}")
                lines.append(f"obj {objs[-1]} = {ctor}({struct(table, shape)});")
            lines.append(f"check morphism {f} : {objs[0]} -> {objs[1]};")
        elif kind in ("cptp", "cpu", "alghom", "coalghom") and draw(st.booleans()):
            table = "alg" if kind in ("cpu", "alghom") else "coalg"
            src, dst = struct(table, dom), struct(table, cod)
            lines.append(f"check {kind} {f} : {src} -> {dst};")
        else:
            lines.append(f"check {kind} {f};")
    return "\n".join(lines) + "\n"


class TestValidSessions:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(valid_sessions())
    def test_valid_sessions_run_cleanly(self, text):
        report = run_session(parse_session(text))
        errors = [(r.command, r.detail["error"]) for r in report.records if "error" in r.detail]
        assert not errors, (text, errors)
        assert report.exit_code in (0, 1, 2)
        again = run_session(parse_session(text))
        assert emit_report(again, "json") == emit_report(report, "json")


def test_readme_lists_the_constructor_tables():
    # "Map constructors: `identity([shape])`, ... Object constructors: ..."
    import re

    text = " ".join(README.read_text().split())
    maps, objs = re.search(r"Map constructors: (.*?) Object constructors: (.*?)\.\s", text).groups()

    def names(listing):
        return [n for call in re.findall(r"`([\w/]+)\(", listing) for n in call.split("/")]

    assert sorted(names(maps)) == sorted(_MAP_CTORS)
    assert sorted(names(objs)) == sorted(_OBJ_CTORS)
