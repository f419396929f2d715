"""Every bundle-expression query of one bounded domain, for the exhaustive
parse/print round trips of tests/test_cli.py and of criterion 10.

The domain is every expression of depth <= 2 (a leaf has depth 0, a node
one more than its deepest argument) whose leaves are O(-9), O(0, 9) and
O(9, -9, 0, 9), and whose Twist amounts are -9, 0 and 9: 8,163
expressions, in which every node kind stands in every argument position
of every node kind. Each is asked under one query function, taken in
turn from `cli.QUERY_FUNCS`, so every function meets some 1,360 of them.
The parser and the printer treat every integer token and every nesting
level alike, so these cover the grammar: a sign, a zero, a list of one
or more parts, each node's argument kinds, and a node inside a node.
"""

from itertools import cycle, product

from splitloci import cli

LEAVES = (cli.OLeaf((-9,)), cli.OLeaf((0, 9)), cli.OLeaf((9, -9, 0, 9)))
INTS = (-9, 0, 9)


def expressions(depth):
    """Every expression of depth at most `depth` over LEAVES and INTS."""
    if depth == 0:
        return list(LEAVES)
    below = expressions(depth - 1)
    return list(LEAVES) + [
        cli.Node(op, args) for op, kinds in sorted(cli.NODE_ARITIES.items())
        for args in product(*(INTS if kind == "int" else below
                              for kind in kinds))]


def queries():
    """The domain above: each expression of depth <= 2 under its query
    function."""
    return [cli.Query(func, expr)
            for func, expr in zip(cycle(cli.QUERY_FUNCS), expressions(2))]
