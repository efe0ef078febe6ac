import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidlab
from matroidlab import GroundSet, Matroid, SetFamily, enumerate_matroids, harness
from matroidlab import classify as classify_module
from matroidlab.classify import _minimality_search
from matroidlab.cli import main, parse_matroid_file
from matroidlab.errors import ParseError, UnequalCardinality
from matroidlab.harness import TheoremCheck


@pytest.fixture
def doc73(tmp_path):
    path = tmp_path / "m73.json"
    path.write_text(json.dumps(
        {"ground_set": ["1", "2", "3"], "bases": [["1", "2"], ["1", "3"]]}
    ))
    return str(path)


@pytest.fixture
def doc121(tmp_path):
    path = tmp_path / "m121.json"
    path.write_text(json.dumps(
        {"ground_set": [1, 2, 3, 4], "bases": [[1, 2], [1, 3], [1, 4]]}
    ))
    return str(path)


# random documents: near-miss matroid objects on at most four labels (so a
# valid one analyzes quickly), arbitrary JSON values, and truncations of both
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=3),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_digits = st.sampled_from(["1", "2", "3", "4"])
_labels = st.one_of(_digits, st.integers(1, 4), _scalars)


@st.composite
def _near_miss(draw):
    doc = {"ground_set": draw(
        st.lists(_digits, min_size=1, max_size=4, unique=True)
        | st.lists(_labels, max_size=4)
    )}
    key = draw(st.sampled_from(["bases", "independents"]))
    doc[key] = draw(st.lists(st.lists(_digits | _labels, max_size=3), max_size=6))
    doc.update(draw(st.dictionaries(
        st.sampled_from(["ground_set", "bases", "independents"]), _values, max_size=1,
    )))
    return doc


_json_text = (_near_miss() | _values).map(json.dumps)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseMatroidFile:
    def test_parses_and_validates(self, doc73):
        m = parse_matroid_file(doc73)
        assert m.rank == 2

    def test_rank_zero_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": ["1"], "bases": [[]]}')
        assert parse_matroid_file(str(path)).rank == 0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            parse_matroid_file(str(path))

    def test_deeply_nested_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError):
            parse_matroid_file(str(path))

    def test_axiom_error_surfaces(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": ["1", "2"], "bases": [["1", "2"], ["1"]]}')
        with pytest.raises(UnequalCardinality):
            parse_matroid_file(str(path))


class TestAnalyze:
    def test_text_report(self, capsys, doc73):
        code, out, _ = run(capsys, "analyze", doc73)
        assert code == 0
        assert "rank: 2" in out
        assert "forming family: {1} {2,3}" in out
        assert "unique expansion: yes" in out
        assert "unique exchange: yes" in out
        assert "union minimal: yes" in out

    def test_json_report(self, capsys, doc73):
        code, out, _ = run(capsys, "analyze", doc73, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 2
        assert doc["forming_family"] == [["1"], ["2", "3"]]
        assert doc["unique_expansion"] is True
        assert doc["union_minimal"] is True
        assert doc["recovered_partition"] == [["1"], ["2", "3"]]

    def test_negative_verdicts_show_witnesses(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"ground_set": ["1", "2", "3"],
             "bases": [["1", "2"], ["1", "3"], ["2", "3"]]}
        ))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        # U(2,3): the four verdict lines, witnesses included, byte for byte
        assert out.splitlines()[-4:] == [
            "unique expansion: no (witness: ExpansionWitness(secondary={1}, "
            "base={2,3}, e1='2', e2='3'))",
            "unique exchange: yes",
            "union minimal: no (witness: SubfamilyWitness(subfamily={{1,2},{1,3}}))",
            "intersection minimal: yes",
        ]

    def test_rank_zero_fields(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": ["1"], "bases": [[]]}')
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["unique_expansion"] is None
        assert doc["unique_exchange"] is True

    def test_search_cap_env_skips_minimality(self, capsys, tmp_path):
        # U(2,7) has 21 bases, one past the search cap of 20
        path = tmp_path / "u27.json"
        path.write_text(json.dumps({
            "ground_set": list("1234567"),
            "bases": [[a, b] for a in "1234567" for b in "1234567" if a < b],
        }))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["union_minimal"] is None
        assert doc["intersection_minimal"] is None
        assert doc["minimality_skipped"] == (
            "base family of size 21 exceeds search cap 20"
        )
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        skipped = "skipped (base family of size 21 exceeds search cap 20)"
        assert out.splitlines()[-2:] == [
            f"union minimal: {skipped}",
            f"intersection minimal: {skipped}",
        ]

    def test_json_verdicts_run_no_search(self, capsys, tmp_path, monkeypatch):
        # every matroid with n <= 4: `analyze --json` answers both minimality
        # questions by the certificate alone, with the search's verdicts
        pop = [m for n in range(1, 5) for m in enumerate_matroids(n)]
        want = [
            tuple(
                _minimality_search(Matroid.from_bases(m.ground, m.bases), kind).verdict
                for kind in ("union", "intersection")
            )
            for m in pop
        ]

        def no_search(*args):
            pytest.fail("analyze --json ran the minimality search")

        monkeypatch.setattr(classify_module, "_least_reduction", no_search)
        path = tmp_path / "m.json"
        for m, (union, intersection) in zip(pop, want):
            path.write_text(json.dumps(m.to_doc()))
            code, out, _ = run(capsys, "analyze", str(path), "--json")
            doc = json.loads(out)
            got = (code, doc["union_minimal"], doc["intersection_minimal"])
            assert got == (0, union, intersection), m

    def test_output_is_pinned_on_every_small_matroid(self, capsys, tmp_path):
        # sha256 of the text report then the JSON report of each of the 497
        # matroids with n <= 5, in enumeration order, witnesses included
        digest = hashlib.sha256()
        path = tmp_path / "m.json"
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                path.write_text(json.dumps(m.to_doc()))
                for extra in ((), ("--json",)):
                    code, out, _ = run(capsys, "analyze", str(path), *extra)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "77047b6b639e9ad0147d40c4bcc7102443363f65e60429dcd98f2fca2f711f9c"
        )

    def test_invalid_matroid_exit_1(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": ["1", "2"], "bases": [["1", "2"], ["1"]]}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "invalid matroid" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 2

    def test_deeply_nested_document_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        _json_text,
        st.tuples(_json_text, st.integers(min_value=0, max_value=60)).map(
            lambda t: t[0][:t[1]]
        ),
        st.text(max_size=30),
    ))
    def test_malformed_documents_never_raise(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            path.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["analyze", str(path)])
        assert code in (0, 1, 2)


class TestDual:
    def test_emits_canonical_document(self, capsys, doc121):
        code, out, _ = run(capsys, "dual", doc121, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bases"] == [["2", "3"], ["2", "4"], ["3", "4"]]

    def test_round_trip_through_dual_twice(self, capsys, doc121, tmp_path):
        _, out, _ = run(capsys, "dual", doc121, "--json")
        path = tmp_path / "dual.json"
        path.write_text(out)
        _, out2, _ = run(capsys, "dual", str(path), "--json")
        original = parse_matroid_file(doc121)
        assert json.loads(out2) == original.to_doc()


class TestForming:
    def test_text(self, capsys, doc73):
        code, out, _ = run(capsys, "forming", doc73)
        assert code == 0
        assert "secondary bases: {1} {2} {3}" in out
        assert "forming family: {1} {2,3}" in out
        assert "forming family wrt {1,2}" in out

    def test_json(self, capsys, doc73):
        code, out, _ = run(capsys, "forming", doc73, "--json")
        doc = json.loads(out)
        assert doc["forming_family"] == [["1"], ["2", "3"]]
        assert len(doc["per_base"]) == 2

    def test_rank_zero_exit_1(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": ["1"], "bases": [[]]}')
        code, _, err = run(capsys, "forming", str(path))
        assert code == 1


class TestConstructors:
    def test_make_upm(self, capsys):
        code, out, _ = run(
            capsys, "make-upm", "--ground", "1,2,3", "--block", "1", "--block", "2,3"
        )
        assert code == 0
        assert json.loads(out) == {
            "ground_set": ["1", "2", "3"],
            "bases": [["1", "2"], ["1", "3"]],
        }

    def test_make_pm_with_caps(self, capsys):
        code, out, _ = run(
            capsys, "make-pm", "--ground", "1,2,3,4,5",
            "--block", "1,2", "--block", "3,4,5", "--cap", "1", "--cap", "2",
        )
        assert code == 0
        assert len(json.loads(out)["bases"]) == 6

    def test_make_pm_cap_count_mismatch(self, capsys):
        code, _, err = run(
            capsys, "make-pm", "--ground", "1,2", "--block", "1", "--cap", "1",
            "--block", "2",
        )
        assert code == 2

    def test_make_upm_overlapping_blocks_rejected(self, capsys):
        code, _, err = run(
            capsys, "make-upm", "--ground", "1,2", "--block", "1,2", "--block", "2"
        )
        assert code == 2

    def test_make_pm_cap_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "make-pm", "--ground", "1,2", "--block", "1,2", "--cap", "5"
        )
        assert code == 2

    def test_make_upm_block_without_labels(self, capsys):
        code, out, err = run(capsys, "make-upm", "--ground", "1,2", "--block", ",")
        assert code == 2
        assert out == ""
        assert err == "error: no labels in ','\n"

    def test_make_pm_duplicate_blocks(self, capsys):
        code, out, err = run(
            capsys, "make-pm", "--ground", "1,2,3", "--block", "1,2", "--block", "1,2",
            "--cap", "1", "--cap", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: duplicate blocks\n"

    def test_constructed_document_round_trips(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "make-upm", "--ground", "a,b,c", "--block", "a", "--block", "b,c"
        )
        path = tmp_path / "upm.json"
        path.write_text(out)
        m = parse_matroid_file(str(path))
        assert m.to_doc() == json.loads(out)


class TestRepeatedCalls:
    """`main` reuses one parser, so no call may see another's arguments."""

    def test_appended_options_do_not_leak(self, capsys):
        code, out, _ = run(
            capsys, "make-pm", "--ground", "1,2,3,4",
            "--block", "1,2", "--block", "3,4", "--cap", "1", "--cap", "2",
        )
        assert code == 0
        assert json.loads(out)["bases"] == [["1", "3", "4"], ["2", "3", "4"]]
        code, out, _ = run(
            capsys, "make-upm", "--ground", "1,2,3", "--block", "1", "--block", "2,3"
        )
        assert code == 0
        assert json.loads(out) == {
            "ground_set": ["1", "2", "3"],
            "bases": [["1", "2"], ["1", "3"]],
        }
        code, out, _ = run(
            capsys, "make-pm", "--ground", "1,2,3", "--block", "1,2,3", "--cap", "2"
        )
        assert code == 0
        assert json.loads(out)["bases"] == [["1", "2"], ["1", "3"], ["2", "3"]]

    def test_success_after_an_error(self, capsys):
        code, out, err = run(
            capsys, "make-pm", "--ground", "1,2,3", "--block", "1,2", "--block", "1,2",
            "--cap", "1", "--cap", "1",
        )
        assert (code, out, err) == (2, "", "error: duplicate blocks\n")
        code, out, err = run(capsys, "make-upm", "--ground", "1,2", "--block", "1,2")
        assert code == 0
        assert err == ""
        assert json.loads(out)["bases"] == [["1"], ["2"]]

    def test_help_after_other_calls(self, capsys, doc73):
        run(capsys, "analyze", doc73, "--json")
        run(capsys, "enumerate", "--n", "2", "--count-only")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: matroidlab ")
        assert "make-upm" in out

    def test_in_process_analyze_matches_a_fresh_process(self, capsys, doc73, doc121):
        run(capsys, "make-upm", "--ground", "1,2", "--block", "1", "--block", "2")
        run(capsys, "analyze", doc73)
        run(capsys, "dual", doc121, "--json")
        code, out, _ = run(capsys, "analyze", doc121, "--json")
        assert code == 0
        src = Path(matroidlab.__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-m", "matroidlab.cli", "analyze", doc121, "--json"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert fresh.stdout == out


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--count-only")
        assert code == 0
        assert out.strip() == "16"

    def test_rank_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--rank", "0")
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs == [{"ground_set": ["1", "2", "3"], "bases": [[]]}]

    def test_documents_parse_back(self, capsys, tmp_path):
        _, out, _ = run(capsys, "enumerate", "--n", "2")
        lines = out.splitlines()
        assert len(lines) == 5
        for line in lines:
            path = tmp_path / "m.json"
            path.write_text(line)
            m = parse_matroid_file(str(path))
            assert json.dumps(m.to_doc()) == line

    def test_size_guard_exit_2(self, capsys):
        # a bad --n is reported before --rank is judged against it
        for argv, n in ((["--n", "9"], "9"), (["--n", "-1", "--rank", "0"], "-1"),
                        (["--n", "7", "--rank", "9"], "7")):
            code, out, err = run(capsys, "enumerate", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: enumeration supports 1..6 elements, got {n}\n"

    @pytest.mark.parametrize("rank", ["-1", "4"])
    def test_rank_out_of_range_exit_2(self, capsys, rank):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--rank", rank)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    # sha256 of each stream, the same digests the benchmark gates on; they pin
    # the canonical order as well as the population
    @pytest.mark.parametrize("n,digest", [
        (1, "d520aa39c3500e69b31279110e3429e0c344619c4626f01c41bf8d98f60e1bcb"),
        (2, "0112775c0c4dc304165268bf46ea74a296237f80422f1667851513d5910d48c1"),
        (3, "39b6963ac6040ec592498cfa1c6734d64057d8dab5810c759222ce64ca14a1fe"),
        (4, "d28550e170b50fed783f4c97dbfaf379332ed4d953d638605a15e3570240d19c"),
        (5, "37a8e6cb2005a4b48fb9def118344100b7d5b890d2a55149d06080ff5c3ab608"),
        (6, "6d0ed340426aec57903712c57e7a049c9d9c3bcd29e415b04a3a98b909b9c0a4"),
    ])
    def test_golden_stream(self, capsys, n, digest):
        code, out, _ = run(capsys, "enumerate", "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 0
        assert "result: PASS" in out
        assert "7 matroids" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["population"]["total"] == 7
        assert len(doc["checks"]) == 28

    def test_check_subset(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "2", "--checks", "prop_100,thm_334", "--json"
        )
        assert code == 0
        assert [c["id"] for c in json.loads(out)["checks"]] == ["prop_100", "thm_334"]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_empty_population_exit_2(self, capsys, n):
        code, out, err = run(capsys, "verify", "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_too_large_n_fails_before_the_sweep(self, capsys, monkeypatch):
        # every size is checked when its stream is made, so n=7 is rejected
        # before any smaller matroid is drawn or checked
        def never(*args, **kwargs):
            raise AssertionError("verify ran")

        monkeypatch.setattr("matroidlab.cli.verify", never)
        code, out, err = run(capsys, "verify", "--n", "7")
        assert code == 2
        assert out == ""
        assert err == "error: enumeration supports 1..6 elements, got 7\n"

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--checks", "nope")
        assert code == 2

    @pytest.mark.parametrize("checks", [",", " ", "", " , ,"])
    def test_no_check_ids_exit_2(self, capsys, checks):
        # a list naming no check must not pass vacuously with 0 checks
        code, out, err = run(capsys, "verify", "--n", "2", "--checks", checks)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("checks", ["thm_33,thm_33", "prop_100, thm_33 ,thm_33"])
    def test_repeated_check_id_exit_2(self, capsys, checks):
        code, out, err = run(capsys, "verify", "--n", "2", "--checks", checks)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "thm_33" in err

    def test_non_matroid_population_exit_3(self, capsys, monkeypatch):
        # an enumerator that let a non-matroid through gets a report and
        # exit 3, not "invalid matroid" and exit 1
        g = GroundSet("1234")
        bad = Matroid._trusted(g, SetFamily(g, [g.subset("1", "3"), g.subset("2", "4")]))
        monkeypatch.setattr("matroidlab.cli.enumerate_matroids", lambda n: [bad])
        code, out, err = run(capsys, "verify", "--n", "1", "--json")
        assert code == 3
        assert err == ""
        rows = {row["id"]: row for row in json.loads(out)["checks"]}
        assert rows["thm_123"]["failed"] == rows["dual_involution"]["failed"] == 1

    def test_failing_sweep_exit_3(self, capsys, monkeypatch):
        rigged = TheoremCheck(
            "rigged", "no matroid exists", lambda m: True, lambda m: "always fails"
        )
        monkeypatch.setattr(harness, "theorem_registry", lambda: [rigged])
        monkeypatch.setattr("matroidlab.cli.theorem_registry", lambda: [rigged])
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 3
        assert "FAIL" in out
