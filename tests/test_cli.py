"""Tests for the expression grammar and the command-line front end."""

import json
import os
import subprocess
import sys

import pytest

import splitloci
from splitloci import cli, strata, tautring
from splitloci.cli import Node, OLeaf, ParseError, Query

from expressions import queries


class TestParser:
    def test_simple_query(self):
        q = cli.parse("h0(O(1,2,3))")
        assert q == Query("h0", OLeaf((1, 2, 3)))

    def test_nested(self):
        q = cli.parse("h1(Twist(Tensor(Dual(O(2,3)), O(-1)), 4))")
        expected = Query("h1", Node("Twist", (
            Node("Tensor", (Node("Dual", (OLeaf((2, 3)),)),
                            OLeaf((-1,)))), 4)))
        assert q == expected

    def test_whitespace_tolerated(self):
        assert cli.parse(" chi( O( 1 , -2 ) ) ") == \
            Query("chi", OLeaf((1, -2)))

    def test_empty_splitting_type(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h1(O())")
        assert err.value.offset == 5
        assert "empty splitting type" in err.value.message
        assert "integer" in err.value.expected
        assert str(err.value) == \
            "parse error at byte 5: empty splitting type (expected integer)"

    def test_unknown_function(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h2(O(1))")
        assert err.value.offset == 0
        assert set(err.value.expected) == set(cli.QUERY_FUNCS)

    def test_unknown_node(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h0(Sym3(O(1)))")
        assert "'O'" in err.value.expected
        assert "Sym2" in err.value.expected

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            cli.parse("h0(O(1)")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            cli.parse("h0(O(1)) x")

    def test_twist_needs_integer(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h0(Twist(O(1), O(2)))")
        assert "integer" in err.value.expected

    def test_a_number_where_an_expression_belongs(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h0(1)")
        assert err.value.offset == 3
        assert err.value.expected == sorted(["'O'"] + list(cli.NODES))
        assert str(err.value).startswith(
            "parse error at byte 3: got '1' (expected 'O', Dual, End, ")

    def test_a_node_with_too_few_arguments(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h0(Tensor(O(1)))")
        assert str(err.value) == \
            "parse error at byte 14: wrong arity for Tensor (expected ',')"

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            cli.parse("h0(O(1); )")
        assert err.value.offset == 7


class TestRoundTrip:
    def test_print_parse_round_trip(self):
        """Every query of `expressions.queries()`: every query function,
        every node kind in every argument position, and every expression
        of depth <= 2 over leaves of 1, 2 and 4 parts and the ints -9, 0
        and 9."""
        for query in queries():
            assert cli.parse(cli.print_query(query)) == query

    def test_eval_consistent_under_round_trip(self):
        """Every query of `expressions.queries()`, as above, evaluates
        to the same value, or fails with ValueError, after printing and
        parsing it again."""
        for query in queries():
            reparsed = cli.parse(cli.print_query(query))
            try:
                expected = cli.eval_query(query)
            except ValueError:
                # e.g. Wedge2 of a rank-1 operand; must fail either way
                with pytest.raises(ValueError):
                    cli.eval_query(reparsed)
                continue
            assert cli.eval_query(reparsed) == expected


class TestEval:
    def test_values(self):
        assert cli.eval_query(cli.parse("h0(O(2))")) == 3
        assert cli.eval_query(cli.parse("h1(O(-3))")) == 2
        assert cli.eval_query(cli.parse("chi(O(1,1))")) == 4
        assert cli.eval_query(cli.parse("rank(Sym2(O(0,0,0)))")) == 6
        assert cli.eval_query(cli.parse("deg(Wedge2(O(1,2,3)))")) == 12
        assert cli.eval_query(cli.parse("xcodim(O(2,5,5))")) == 4
        assert cli.eval_query(cli.parse("h1(End(O(2,3,5)))")) == 3
        assert cli.eval_query(cli.parse("rank(Sum(O(1), O(2,3)))")) == 3
        assert cli.eval_query(cli.parse("deg(Hom(O(1,2), O(0)))")) == -3


class TestMain:
    def test_eval_table(self, capsys):
        assert cli.main(["eval", "h0(O(2))"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_eval_json(self, capsys):
        assert cli.main(["eval", "xcodim(O(4,9))", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"query": "xcodim(O(4,9))", "value": 4}

    def test_eval_parse_error_exit2(self, capsys):
        assert cli.main(["eval", "h1(O())"]) == 2
        assert "parse error at byte 5" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["h0(O(٣))", "h0(O(²))"],
                             ids=["arabic-indic-three", "superscript-two"])
    def test_eval_non_ascii_digit_is_a_parse_error(self, text, capsys):
        assert cli.main(["eval", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error at byte 5: ")

    def test_usage_error_exit2(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["strata", "--degree", "6", "--genus", "9"]) == 2

    def test_strata_table(self, capsys):
        assert cli.main(["strata", "--degree", "4", "--genus", "9"]) == 0
        out = capsys.readouterr().out
        assert "Sigma8" in out and "(2,4,6)" in out

    def test_strata_genus5_note(self, capsys):
        assert cli.main(["strata", "--degree", "4", "--genus", "5"]) == 0
        assert "genus-5 discrepancy" in capsys.readouterr().out

    @pytest.mark.parametrize("degree,genus", [(4, 5), (4, 9), (5, 8)])
    def test_strata_notes_in_both_formats(self, degree, genus, capsys):
        notes = strata.report_notes(degree, genus)
        assert bool(notes) is ((degree, genus) == (4, 5))
        argv = ["strata", "--degree", str(degree), "--genus", str(genus)]
        assert cli.main(argv) == 0
        table = capsys.readouterr().out
        assert table.endswith("".join("\n" + note for note in notes) + "\n")
        assert (strata.GENUS5_PSI2_NOTE in table) is bool(notes)
        assert cli.main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out).get("notes", []) == notes

    def test_strata_table_reads_report_notes(self, monkeypatch, capsys):
        monkeypatch.setattr(strata, "report_notes",
                            lambda degree, g: ["one %d" % degree, "two %d" % g])
        assert cli.main(["strata", "--degree", "5", "--genus", "8"]) == 0
        assert capsys.readouterr().out.endswith("\none 5\ntwo 8\n")

    def test_strata_json(self, capsys):
        assert cli.main(["strata", "--degree", "5", "--genus", "8",
                         "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cover_degree"] == 5
        assert len(data["strata"]) == 7

    def test_strata_dot(self, capsys):
        assert cli.main(["strata", "--degree", "4", "--genus", "7",
                         "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph strata {")
        assert "->" in out

    def test_strata_bad_genus_exit2(self, capsys):
        assert cli.main(["strata", "--degree", "4", "--genus", "3"]) == 2

    def test_lemma_verify_all(self, capsys):
        assert cli.main(["lemma", "verify", "all"]) == 0
        out = capsys.readouterr().out
        assert "distinctparts-2" in out
        assert "mismatch" in out

    def test_lemma_verify_single_json(self, capsys):
        assert cli.main(["lemma", "verify", "shape1",
                         "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["lemma"] == "shape1"
        assert data[0]["verdict"] == "match"

    def test_lemma_unknown_id_exit2(self, capsys):
        assert cli.main(["lemma", "verify", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown lemma id" in err
        assert err == (
            "unknown lemma id 'nope' (known: twoequalparts, distinctparts-1, "
            "distinctparts-2, distinctparts-3i, distinctparts-3ii, shape1, "
            "forsigma2, forsigma3)\n")

    def test_taut_genus7_both_readings_exit0(self, capsys):
        assert cli.main(["taut", "--genus", "7",
                         "--interpretation", "emended"]) == 0
        assert "gorenstein" in capsys.readouterr().out
        assert cli.main(["taut", "--genus", "7",
                         "--interpretation", "printed-split"]) == 0

    @pytest.mark.parametrize("genus", [8, 9])
    def test_taut_genus8_and_9_corrected_exit0(self, genus, capsys):
        assert cli.main(["taut", "--genus", str(genus),
                         "--interpretation", "corrected"]) == 0
        assert ("socle sits in degree g-2 = %d" % (genus - 2)
                in capsys.readouterr().out)

    def test_taut_genus7_needs_interpretation(self, capsys):
        assert cli.main(["taut", "--genus", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "unknown interpretation (none given) for genus 7; genus 7 "
            "accepts printed-split or emended, and has no default\n")
        assert captured.out == ""
        assert cli.main(["taut", "--genus", "7",
                         "--interpretation", "corrected"]) == 2
        assert capsys.readouterr().err == (
            "unknown interpretation 'corrected' for genus 7; genus 7 "
            "accepts printed-split or emended, and has no default\n")

    @pytest.mark.parametrize("genus", [8, 9])
    def test_taut_genus8_and_9_name_their_readings(self, genus, capsys):
        assert cli.main(["taut", "--genus", str(genus),
                         "--interpretation", "emended"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "unknown interpretation 'emended' for genus %d; genus %d "
            "accepts printed (the default) or corrected\n" % (genus, genus))
        assert captured.out == ""

    def test_taut_genus8_and_9_fail_expectations(self, capsys):
        assert cli.main(["taut", "--genus", "8"]) == 1
        assert cli.main(["taut", "--genus", "9"]) == 1
        out = capsys.readouterr().out
        assert "does not sit in degree g-2" in out

    @pytest.mark.parametrize("genus,reading,code", [
        (7, "emended", 0), (7, "printed-split", 0), (8, None, 1),
        (8, "corrected", 0), (9, None, 1), (9, "corrected", 0)])
    def test_taut_exits_with_the_report_verdict(self, genus, reading, code,
                                                monkeypatch, capsys):
        argv = ["taut", "--genus", str(genus)]
        if reading:
            argv += ["--interpretation", reading]
        assert tautring.quotient_report(genus, reading).is_failure is bool(code)
        assert cli.main(argv) == code
        # the exit code is the report's verdict, whatever it says
        for verdict in (False, True):
            monkeypatch.setattr(tautring.QuotientReport, "is_failure", verdict)
            assert cli.main(argv) == int(verdict)

    def test_taut_json(self, capsys):
        assert cli.main(["taut", "--genus", "9", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["socle_degrees"] == [5, 6]

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert cli.main(["eval", "h0(O(3))", "--out", str(target)]) == 0
        assert target.read_text() == "4\n"
        assert capsys.readouterr().out == ""

    def test_out_to_missing_directory_exit2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        assert cli.main(["eval", "h0(O(1))", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(target) in captured.err

    @staticmethod
    def dual_chain(depth):
        return "h0(" + "Dual(" * depth + "O(1)" + ")" * depth + ")"

    def test_eval_nesting_past_the_limit_is_a_parse_error(self, capsys):
        assert cli.main(["eval", self.dual_chain(1000)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        # the first node past the limit starts after "h0(" and 256 "Dual("
        assert captured.err.startswith(
            "parse error at byte %d" % (3 + 5 * cli.MAX_DEPTH))

    def test_eval_nesting_at_the_limit(self, capsys):
        assert cli.main(["eval", self.dual_chain(cli.MAX_DEPTH)]) == 0
        assert capsys.readouterr().out == "2\n"

    @pytest.mark.parametrize("module", ["splitloci", "splitloci.cli"])
    def test_python_dash_m_runs_cli(self, module):
        # stderr stays empty: no runpy warning about a preloaded module
        src = os.path.dirname(os.path.dirname(os.path.abspath(splitloci.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", module, "eval", "h1(End(O(2,3,5)))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n", "")


class TestTable:
    def test_alignment(self):
        text = cli._table(["a", "bb"], [["xxx", "y"], ["z", "wwww"]])
        lines = text.split("\n")
        assert lines[0] == "a    bb"
        assert lines[1] == "---  ----"
        assert lines[2] == "xxx  y"
        assert lines[3] == "z    wwww"

    @pytest.mark.parametrize("row", [["x"], ["x", "y", "z"]])
    def test_a_ragged_row_raises(self, row):
        # a longer row raised IndexError, a shorter one was padded
        with pytest.raises(ValueError, match="%d cells for 2 headers" % len(row)):
            cli._table(["a", "bb"], [["xxx", "y"], row])
