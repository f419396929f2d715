"""Command-line front end.

Subcommands: eval (bundle-expression queries), strata (enumeration
reports, with DOT output for the dominance diagram), lemma verify
(relation-matrix determinant reports), and taut (graded quotient-ring
reports). Exit code 0 means success, 1 means a verification failure,
2 means a usage or parse error or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Sequence

from . import chowsym, jsontext, splitbundle, strata, tautring
from .record import FrozenRecord
from .splitbundle import SplittingType

# query name -> the function it applies to the evaluated expression
QUERIES = {
    "h0": splitbundle.h0,
    "h1": splitbundle.h1,
    "chi": splitbundle.chi,
    "rank": SplittingType.rank,
    "deg": SplittingType.degree,
    "xcodim": splitbundle.expected_codim,
}
QUERY_FUNCS = tuple(QUERIES)

# node name -> (argument kinds, the function it applies to its arguments)
NODES = {
    "Dual": (("expr",), splitbundle.dual),
    "Twist": (("expr", "int"), splitbundle.twist),
    "Tensor": (("expr", "expr"), splitbundle.tensor),
    "Sym2": (("expr",), splitbundle.sym2),
    "Wedge2": (("expr",), splitbundle.wedge2),
    "End": (("expr",), splitbundle.end),
    "Hom": (("expr", "expr"), splitbundle.hom),
    "Sum": (("expr", "expr"), splitbundle.direct_sum),
}
NODE_ARITIES = {name: kinds for name, (kinds, _) in NODES.items()}


# ---------------------------------------------------------------------------
# expression AST

class OLeaf(FrozenRecord):
    __slots__ = ("parts",)  # tuple[int, ...]


class Node(FrozenRecord):
    __slots__ = ("op", "args")  # str; tuple[Node | OLeaf | int, ...]


class Query(FrozenRecord):
    __slots__ = ("func", "expr")  # str; Node | OLeaf


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: Sequence[str] = ()):
        self.message = message
        self.offset = offset
        self.expected = sorted(set(expected))
        text = "parse error at byte %d: %s" % (offset, message)
        if self.expected:
            text += " (expected %s)" % ", ".join(self.expected)
        super().__init__(text)


# Deeper nesting is a parse error, not a RecursionError in eval_expr.
MAX_DEPTH = 256

# Only ASCII is accepted, so a character offset is also a byte offset.
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_ALNUM = _DIGITS | _LETTERS
_SPACE = frozenset(" \t\n\r\v\f")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """(kind, value, offset); kind in NAME, INT, PUNCT, END."""
        self._skip_ws()
        start = self.pos
        if start >= len(self.text):
            return ("END", "", start)
        ch = self.text[start]
        if ch in _LETTERS:
            end = start
            while end < len(self.text) and self.text[end] in _ALNUM:
                end += 1
            return ("NAME", self.text[start:end], start)
        if ch in _DIGITS or (ch == "-" and start + 1 < len(self.text)
                             and self.text[start + 1] in _DIGITS):
            end = start + 1
            while end < len(self.text) and self.text[end] in _DIGITS:
                end += 1
            return ("INT", self.text[start:end], start)
        if ch in "(),":
            return ("PUNCT", ch, start)
        raise ParseError("unexpected character %r" % ch, start)

    def next(self) -> tuple[str, str, int]:
        kind, value, offset = self.peek()
        if kind != "END":
            self.pos = offset + len(value)
        return (kind, value, offset)

    def expect_punct(self, ch: str) -> None:
        kind, value, offset = self.next()
        if kind != "PUNCT" or value != ch:
            raise ParseError("got %r" % (value or "end of input"), offset,
                             ["'%s'" % ch])


def _parse_int(tok: _Tokenizer) -> int:
    kind, value, offset = tok.next()
    if kind != "INT":
        raise ParseError("got %r" % (value or "end of input"), offset,
                         ["integer"])
    return int(value)


def _parse_expr(tok: _Tokenizer, depth: int = 0) -> Node | OLeaf:
    kind, value, offset = tok.next()
    if kind != "NAME":
        raise ParseError("got %r" % (value or "end of input"), offset,
                         ["'O'"] + sorted(NODE_ARITIES))
    if value == "O":
        tok.expect_punct("(")
        parts: list[int] = []
        kind, nxt, off2 = tok.peek()
        if kind == "PUNCT" and nxt == ")":
            raise ParseError("empty splitting type", off2, ["integer"])
        parts.append(_parse_int(tok))
        while True:
            kind, nxt, _ = tok.peek()
            if kind == "PUNCT" and nxt == ",":
                tok.next()
                parts.append(_parse_int(tok))
            else:
                break
        tok.expect_punct(")")
        return OLeaf(tuple(parts))
    if value not in NODE_ARITIES:
        raise ParseError("unknown node %r" % value, offset,
                         ["'O'"] + sorted(NODE_ARITIES))
    if depth == MAX_DEPTH:
        raise ParseError("nodes nested deeper than %d" % MAX_DEPTH, offset)
    tok.expect_punct("(")
    args: list[Node | OLeaf | int] = []
    for i, want in enumerate(NODE_ARITIES[value]):
        if i:
            kind, nxt, off2 = tok.peek()
            if not (kind == "PUNCT" and nxt == ","):
                raise ParseError("wrong arity for %s" % value, off2, ["','"])
            tok.next()
        args.append(_parse_int(tok) if want == "int"
                    else _parse_expr(tok, depth + 1))
    tok.expect_punct(")")
    return Node(value, tuple(args))


def parse(text: str) -> Query:
    tok = _Tokenizer(text)
    kind, value, offset = tok.next()
    if kind != "NAME" or value not in QUERY_FUNCS:
        raise ParseError("got %r" % (value or "end of input"), offset,
                         list(QUERY_FUNCS))
    func = value
    tok.expect_punct("(")
    expr = _parse_expr(tok)
    tok.expect_punct(")")
    kind, value, offset = tok.peek()
    if kind != "END":
        raise ParseError("trailing input %r" % value, offset,
                         ["end of input"])
    return Query(func, expr)


def print_expr(expr: Node | OLeaf | int) -> str:
    if isinstance(expr, int):
        return str(expr)
    if isinstance(expr, OLeaf):
        return "O(%s)" % ",".join(str(p) for p in expr.parts)
    return "%s(%s)" % (expr.op, ",".join(print_expr(a) for a in expr.args))


def print_query(q: Query) -> str:
    return "%s(%s)" % (q.func, print_expr(q.expr))


def eval_expr(expr: Node | OLeaf) -> SplittingType:
    if isinstance(expr, OLeaf):
        return SplittingType(expr.parts)
    kinds, func = NODES[expr.op]
    return func(*(arg if kind == "int" else eval_expr(arg)
                  for kind, arg in zip(kinds, expr.args)))


def eval_query(q: Query) -> int:
    return QUERIES[q.func](eval_expr(q.expr))


# ---------------------------------------------------------------------------
# output helpers

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """The rows under the headers, each column left-aligned to its widest
    cell; a row with more or fewer cells than headers raises ValueError."""
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("a table row has %d cells for %d headers"
                             % (len(row), len(headers)))
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join("%%-%ds" % w for w in widths)
    lines = [line % tuple(headers), line % tuple("-" * w for w in widths)]
    lines.extend(line % tuple(row) for row in rows)
    return "\n".join(text.rstrip() for text in lines)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eval(args) -> int:
    query = parse(args.expression)
    value = eval_query(query)
    if args.format == "json":
        _emit(jsontext.dumps({"query": print_query(query), "value": value}),
              args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _cmd_strata(args) -> int:
    records = strata.enumerate_strata(args.degree, args.genus)
    if args.format == "json":
        _emit(jsontext.dumps(strata.strata_report(records)), args.out)
    elif args.format == "dot":
        _, dot = strata.hasse(records)
        _emit(dot, args.out)
    else:
        rows = [[rec.label or "-", e, f, str(rec.codim),
                 str(rec.expected_e), str(rec.expected_f),
                 str(rec.correction),
                 "yes" if rec.in_psi else "no",
                 ";".join(rec.flags) or "-",
                 "yes" if rec.lower_gonality else "no"]
                for rec, (e, f) in zip(records, strata.part_texts(records))]
        text = _table(["label", "e", "f", "codim", "xe", "xf",
                       "corr", "psi", "flags", "lowgon"], rows)
        for note in strata.report_notes(args.degree, args.genus):
            text += "\n" + note
        _emit(text, args.out)
    return 0


def _cmd_lemma(args) -> int:
    if args.target == "all":
        reports = chowsym.verify_all_lemmas()
    else:
        reports = [chowsym.verify_lemma(args.target)]
    if args.format == "json":
        _emit(jsontext.dumps([r.to_dict() for r in reports]), args.out)
    else:
        rows = [[r.lemma, r.verdict,
                 r.det_computed, r.det_claimed or "-",
                 str(len(r.evaluations)),
                 "yes" if r.nonvanishing else "no"]
                for r in reports]
        _emit(_table(["lemma", "verdict", "det computed", "det claimed",
                      "evals", "nonvanishing"], rows), args.out)
    return 1 if any(r.is_failure for r in reports) else 0


def _cmd_taut(args) -> int:
    report = tautring.quotient_report(args.genus, args.interpretation)
    if args.format == "json":
        _emit(jsontext.dumps(report.to_dict()), args.out)
    else:
        rows = [
            ["weights", ",".join(str(w) for w in report.weights)],
            ["generator degrees", ",".join(str(d) for d in report.generator_degrees)],
            ["hilbert", ",".join(str(h) for h in report.hilbert)],
            ["socle degrees", ",".join(str(d) for d in report.socle_degrees) or "-"],
            ["socle dims", ",".join(str(d) for d in report.socle_dims) or "-"],
            ["gorenstein", "yes" if report.gorenstein else "no"],
            ["artinian", "yes" if report.artinian else "no"],
            ["minimal generators", str(report.minimal_generator_count)],
            ["complete intersection", "yes" if report.ci_verdict else "no"],
        ]
        text = _table(["field", "value"], rows)
        for note in report.notes:
            text += "\nnote: " + note
        _emit(text, args.out)
    return 1 if report.is_failure else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="splitloci",
        description="verification toolkit for splitting-type stratifications")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a bundle-expression query")
    p_eval.add_argument("expression")
    p_eval.add_argument("--format", choices=("table", "json"), default="table")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_strata = sub.add_parser("strata", help="enumerate pair strata")
    p_strata.add_argument("--degree", type=int, choices=(4, 5), required=True)
    p_strata.add_argument("--genus", type=int, required=True)
    p_strata.add_argument("--format", choices=("table", "json", "dot"),
                          default="table")
    p_strata.add_argument("--out", default=None)
    p_strata.set_defaults(func=_cmd_strata)

    p_lemma = sub.add_parser("lemma", help="verify relation-matrix lemmas")
    p_lemma.add_argument("action", choices=("verify",))
    p_lemma.add_argument("target",
                         help="a lemma id, or 'all'")
    p_lemma.add_argument("--format", choices=("table", "json"),
                         default="table")
    p_lemma.add_argument("--out", default=None)
    p_lemma.set_defaults(func=_cmd_lemma)

    p_taut = sub.add_parser("taut", help="verify a built-in quotient ring")
    p_taut.add_argument("--genus", type=int, choices=(7, 8, 9), required=True)
    p_taut.add_argument("--interpretation",
                        choices=("printed", "printed-split", "emended",
                                 "corrected"),
                        default=None)
    p_taut.add_argument("--format", choices=("table", "json"),
                        default="table")
    p_taut.add_argument("--out", default=None)
    p_taut.set_defaults(func=_cmd_taut)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        # an OSError here is an --out path that cannot be written
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
