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
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from . import chowsym, splitbundle, strata, tautring
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

@dataclass(frozen=True)
class OLeaf:
    parts: Tuple[int, ...]


@dataclass(frozen=True)
class Node:
    op: str
    args: Tuple[Union["Node", OLeaf, int], ...]


@dataclass(frozen=True)
class Query:
    func: str
    expr: Union[Node, OLeaf]


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

    def peek(self) -> Tuple[str, str, int]:
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

    def next(self) -> Tuple[str, str, int]:
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


def _parse_expr(tok: _Tokenizer, depth: int = 0) -> Union[Node, OLeaf]:
    kind, value, offset = tok.next()
    if kind != "NAME":
        raise ParseError("got %r" % (value or "end of input"), offset,
                         ["'O'"] + sorted(NODE_ARITIES))
    if value == "O":
        tok.expect_punct("(")
        parts: List[int] = []
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
    args: List[Union[Node, OLeaf, int]] = []
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


def print_expr(expr: Union[Node, OLeaf, int]) -> str:
    if isinstance(expr, int):
        return str(expr)
    if isinstance(expr, OLeaf):
        return "O(%s)" % ",".join(str(p) for p in expr.parts)
    return "%s(%s)" % (expr.op, ",".join(print_expr(a) for a in expr.args))


def print_query(q: Query) -> str:
    return "%s(%s)" % (q.func, print_expr(q.expr))


def eval_expr(expr: Union[Node, OLeaf]) -> SplittingType:
    if isinstance(expr, OLeaf):
        return SplittingType(expr.parts)
    kinds, func = NODES[expr.op]
    return func(*(arg if kind == "int" else eval_expr(arg)
                  for kind, arg in zip(kinds, expr.args)))


def eval_query(q: Query) -> int:
    return QUERIES[q.func](eval_expr(q.expr))


# ---------------------------------------------------------------------------
# output helpers

def _emit(text: str, out_path: Optional[str]) -> None:
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
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eval(args) -> int:
    try:
        query = parse(args.expression)
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return 2
    value = eval_query(query)
    if args.format == "json":
        _emit(json.dumps({"query": print_query(query), "value": value},
                         indent=2), args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _cmd_strata(args) -> int:
    records = strata.enumerate_strata(args.degree, args.genus)
    if args.format == "json":
        _emit(strata.strata_report_json(records), args.out)
    elif args.format == "dot":
        _, dot = strata.hasse(records)
        _emit(dot, args.out)
    else:
        rows = []
        for rec in records:
            rows.append([
                rec.label or "-",
                str(rec.e), str(rec.f), str(rec.codim),
                str(rec.expected_e), str(rec.expected_f),
                str(rec.correction),
                "yes" if rec.in_psi else "no",
                ";".join(strata.flag_str(f) for f in rec.flags) or "-",
                "yes" if rec.lower_gonality else "no",
            ])
        text = _table(["label", "e", "f", "codim", "xe", "xf",
                       "corr", "psi", "flags", "lowgon"], rows)
        if args.degree == 4 and args.genus == 5:
            text += "\n" + strata.GENUS5_PSI2_NOTE
        _emit(text, args.out)
    return 0


def _cmd_lemma(args) -> int:
    if args.action != "verify":
        print("unknown lemma action %r" % args.action, file=sys.stderr)
        return 2
    if args.target == "all":
        reports = chowsym.verify_all_lemmas()
    elif args.target in chowsym.LEMMAS:
        reports = [chowsym.verify_lemma(args.target)]
    else:
        print("unknown lemma id %r (known: %s)"
              % (args.target, ", ".join(chowsym.LEMMAS)), file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports], indent=2), args.out)
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
    try:
        report = tautring.quotient_report(args.genus, args.interpretation)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(report.to_json(), args.out)
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
    if args.genus == 7:
        # both documented readings are reports, not expectations
        return 0
    expected = (report.artinian and report.gorenstein
                and report.socle_degrees == [args.genus - 2]
                and report.socle_dims == [1])
    return 0 if expected else 1


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


def main(argv: Optional[Sequence[str]] = None) -> int:
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
