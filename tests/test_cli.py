import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidlab
from matroidlab import (
    GroundSet,
    Matroid,
    Partition,
    SetFamily,
    enumerate_matroids,
    harness,
    make_unique_partition_matroid,
)
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


def _uniform_doc(rank, size):
    """The document of U(rank, size) on the labels 1..size."""
    labels = [str(i) for i in range(1, size + 1)]
    return {"ground_set": labels,
            "bases": [list(c) for c in combinations(labels, rank)]}


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

    def test_exchange_witness_line(self, capsys, tmp_path):
        # Example 3.38: removing 3 from {1,2,3} is repaired by both 4 and 5
        # of {1,4,5}; every verdict is false, so all three witness reprs show
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"ground_set": ["1", "2", "3", "4", "5"],
             "bases": [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"],
                       ["1", "2", "5"], ["1", "4", "5"]]}
        ))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert out.splitlines()[-4:] == [
            "unique expansion: no (witness: ExpansionWitness(secondary={1,2}, "
            "base={1,3,4}, e1='3', e2='4'))",
            "unique exchange: no (witness: ExchangeWitness(base1={1,2,3}, "
            "base2={1,4,5}, removed='3', y1='4', y2='5'))",
            "union minimal: no (witness: SubfamilyWitness(subfamily="
            "{{1,2,3},{1,2,4},{1,2,5}}))",
            "intersection minimal: no (witness: SubfamilyWitness(subfamily="
            "{{1,2,3},{1,2,5},{1,3,4},{1,4,5}}))",
        ]

    def test_wide_member_missing_its_subsets_fails_fast(self, tmp_path):
        # the least missing subset is sought by size, {0} first, so the
        # witness costs no walk over the 2^64 subsets of the member
        labels = [str(i) for i in range(64)]
        path = tmp_path / "closure64.json"
        path.write_text(json.dumps({"ground_set": labels, "independents": [[], labels]}))
        src = Path(matroidlab.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "matroidlab.cli", "analyze", str(path)],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "invalid matroid: {" + ",".join(labels) + "} is present but its subset {0} is not\n"
        )

    def test_rank_zero_fields(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": ["1"], "bases": [[]]}')
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["unique_expansion"] is None
        assert doc["unique_exchange"] is True

    def test_verdicts_past_the_search_cap(self, capsys, tmp_path):
        # U(2,7) has 21 bases, one past the search cap of 20: both verdicts
        # are answered, and the text report prints both flag witnesses, the
        # flag transversals and the complements of the dual's
        path = tmp_path / "u27.json"
        path.write_text(json.dumps(_uniform_doc(2, 7)))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["union_minimal"] is False
        assert doc["intersection_minimal"] is False
        assert "minimality_skipped" not in doc
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert out.splitlines()[-2:] == [
            "union minimal: no (witness: SubfamilyWitness(subfamily="
            "{{1,2},{1,3},{1,4},{1,5},{1,6},{1,7}}))",
            "intersection minimal: no (witness: SubfamilyWitness(subfamily="
            "{{5,6},{5,7},{6,7}}))",
        ]

    def test_json_verdicts_run_no_search(self, capsys, tmp_path, monkeypatch):
        # every matroid with n <= 4: `analyze --json` answers both minimality
        # questions by the certificate alone, with the search's verdicts, and
        # both uniqueness questions by the one pass alone, with the oracles'
        # verdicts, and builds no witness and no dual; then known answers
        # past the search cap of 20 bases
        from oracles import unique_exchange_oracle, unique_expansion_oracle

        pop = [m for n in range(1, 5) for m in enumerate_matroids(n)]
        want = [
            tuple(
                _minimality_search(Matroid.from_bases(m.ground, m.bases), kind).verdict
                for kind in ("union", "intersection")
            )
            for m in pop
        ]
        g = GroundSet("123456789")
        opb = make_unique_partition_matroid(
            g, Partition(SetFamily(g, [g.subset(*b) for b in ("123", "456", "789")]))
        )
        for doc, verdicts in (
            (_uniform_doc(2, 7), (False, False)),
            (_uniform_doc(1, 21), (True, False)),
            (_uniform_doc(6, 7), (False, True)),
            (opb.to_doc(), (True, False)),  # 27 bases, one per block of three
            (opb.dual().to_doc(), (False, True)),
        ):
            pop.append(Matroid.from_doc(doc))
            want.append(verdicts)

        unique = [
            (
                unique_expansion_oracle(m) is None if m.rank > 0 else None,
                unique_exchange_oracle(m) is None,
            )
            for m in pop
        ]

        def no_search(*args, **kwargs):
            pytest.fail("analyze --json built a witness")

        def no_dual(self):
            pytest.fail("analyze --json built a dual")

        for scan in (
            "_least_reduction", "_flag_witness", "_expansion_witness", "_least_triple",
        ):
            monkeypatch.setattr(classify_module, scan, no_search)
        monkeypatch.setattr(Matroid, "dual", no_dual)
        path = tmp_path / "m.json"
        for m, (union, intersection), (expansion, exchange) in zip(pop, want, unique):
            path.write_text(json.dumps(m.to_doc()))
            code, out, _ = run(capsys, "analyze", str(path), "--json")
            doc = json.loads(out)
            got = (
                code, doc["union_minimal"], doc["intersection_minimal"],
                doc["unique_expansion"], doc["unique_exchange"],
            )
            assert got == (0, union, intersection, expansion, exchange), m

    def test_output_is_pinned_on_every_small_matroid(self, capsys, tmp_path):
        # sha256 of the text reports, witnesses included, and of the JSON
        # reports of the 497 matroids with n <= 5, in enumeration order; the
        # JSON digest is unchanged since before the flag witnesses
        digests = {extra: hashlib.sha256() for extra in ((), ("--json",))}
        path = tmp_path / "m.json"
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                path.write_text(json.dumps(m.to_doc()))
                for extra, digest in digests.items():
                    code, out, _ = run(capsys, "analyze", str(path), *extra)
                    assert code == 0
                    digest.update(out.encode())
        assert [d.hexdigest() for d in digests.values()] == [
            "eb7ab38ff974f1b115e88738058f0d82ec75baafb30f549607a0308c0c5926ea",
            "16daaf77e7221d11096b648b47aad7a8b1970b80604398460cdd03b55762ef9f",
        ]

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

    def test_label_of_another_type_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"ground_set": [null, true], "bases": [[null]]}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: label null is neither a string nor a number\n"

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

    @staticmethod
    def _digest(capsys, tmp_path, *flags):
        # sha256 of the dual document of each of the 91 matroids with n <= 4,
        # in enumeration order
        digest = hashlib.sha256()
        path = tmp_path / "m.json"
        pop = [m for n in range(1, 5) for m in enumerate_matroids(n)]
        assert len(pop) == 91
        for m in pop:
            path.write_text(json.dumps(m.to_doc()))
            code, out, _ = run(capsys, "dual", str(path), *flags)
            assert code == 0
            digest.update(out.encode())
        return digest.hexdigest()

    def test_json_is_pinned_on_every_small_matroid(self, capsys, tmp_path):
        assert self._digest(capsys, tmp_path, "--json") == (
            "0686af241feb0c916b529a6fc3d5e9aa981e813a7aa4309a3646112cf1e41df0"
        )

    def test_text_is_pinned_on_every_small_matroid(self, capsys, tmp_path):
        assert self._digest(capsys, tmp_path) == (
            "da28ea513ca16c50e710568c9ceceb555f7c1b463c34fa87ae47a65358c32b5c"
        )


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
        assert err == "error: secondary bases are undefined at rank zero\n"

    @staticmethod
    def _digest(capsys, tmp_path, *flags):
        # sha256 of the report of each of the 87 rank-positive matroids with
        # n <= 4, in enumeration order: every base's forming family
        digest = hashlib.sha256()
        path = tmp_path / "m.json"
        pop = [m for n in range(1, 5) for m in enumerate_matroids(n) if m.rank > 0]
        assert len(pop) == 87
        for m in pop:
            path.write_text(json.dumps(m.to_doc()))
            code, out, _ = run(capsys, "forming", str(path), *flags)
            assert code == 0
            digest.update(out.encode())
        return digest.hexdigest()

    def test_json_is_pinned_on_every_small_matroid(self, capsys, tmp_path):
        assert self._digest(capsys, tmp_path, "--json") == (
            "d3aeadd0dbd36317a1d8a880acc7615ab771f41e58ba482daceaac009f2dcd45"
        )

    def test_text_is_pinned_on_every_small_matroid(self, capsys, tmp_path):
        assert self._digest(capsys, tmp_path) == (
            "8377395239bcef6d5b0b0e17a1b7aecbf8b78389b799b12ea7b3855083a65536"
        )


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

    def test_paired_caps_follow_blocks(self, capsys):
        # each --cap belongs to the --block at its position, whatever order
        # the blocks come in; caps are checked in canonical block order
        ground = ["--ground", "1,2,3,4,5"]
        _, canonical, _ = run(
            capsys, "make-pm", *ground, "--block", "1,2", "--block", "3,4,5",
            "--cap", "1", "--cap", "2",
        )
        code, reordered, err = run(
            capsys, "make-pm", *ground, "--block", "3,4,5", "--block", "1,2",
            "--cap", "2", "--cap", "1",
        )
        assert (code, err) == (0, "")
        assert reordered == canonical
        assert len(json.loads(canonical)["bases"]) == 6
        code, out, err = run(
            capsys, "make-pm", *ground, "--block", "3,4,5", "--block", "1,2",
            "--cap", "9", "--cap", "7",
        )
        assert (code, out) == (2, "")
        assert err == "error: cap 7 out of range for block {1,2} of size 2\n"
        code, out, err = run(
            capsys, "make-pm", *ground, "--block", "3,4,5", "--block", "1,2",
            "--block", "3,4,5", "--cap", "9", "--cap", "1", "--cap", "9",
        )
        assert (code, out, err) == (2, "", "error: duplicate blocks\n")

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

    def test_count_only_builds_no_family(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("counting built a family")

        monkeypatch.setattr(SetFamily, "from_masks", classmethod(refuse))
        monkeypatch.setattr(Matroid, "_trusted", classmethod(refuse))
        for n, count in ((1, 2), (2, 5), (3, 16), (4, 68), (5, 406), (6, 3807)):
            assert run(capsys, "enumerate", "--n", str(n), "--count-only") == (
                0, f"{count}\n", "",
            )
        assert run(capsys, "enumerate", "--n", "6", "--rank", "3", "--count-only") == (
            0, "2053\n", "",
        )

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
                        (["--n", "8", "--rank", "9"], "8")):
            code, out, err = run(capsys, "enumerate", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: enumeration supports 1..7 elements, got {n}\n"

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
        (7, "ae1048b2100d8f87afefb705e1d2ba8359f93951c184a60b5fb5a93a3ae33128"),
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
        # every size is checked when its stream is made, so n=8 is rejected
        # before any smaller matroid is drawn or checked
        def never(*args, **kwargs):
            raise AssertionError("verify ran")

        monkeypatch.setattr("matroidlab.cli.verify", never)
        code, out, err = run(capsys, "verify", "--n", "8")
        assert code == 2
        assert out == ""
        assert err == "error: enumeration supports 1..7 elements, got 8\n"

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
