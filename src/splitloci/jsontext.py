"""The one JSON writer of the reports.

`dumps(obj)` returns exactly the text of `json.dumps(obj, indent=2)`.
The standard library encodes with its C encoder only when `indent` is
None; with an indent it runs its pure-Python generator chain, which
made up a large share of the time of each JSON report. This writer
builds each container's text with one join and writes scalars inside
the loop over their container, without a call of their own: against a
writer that calls itself once per scalar, that lowered the strata-sweep
bench's `pass_cal` in each of 10 alternating pairs of runs. Any other
value, or a subclass of an accepted type, goes through one lookup along
its type's MRO. Strings are quoted by `_json.encode_basestring_ascii`,
the standard library's own C quoting, which `json.encoder` re-exports,
so non-ASCII and control characters come out escaped as before. Taken
from `_json`, it spares each CLI call the import of the `json` package,
its decoder and its scanner.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote

# the text of a scalar, by its type
_SCALARS = {str: _quote, int: int.__repr__,
            bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)` for obj built from dicts with str keys,
    lists, tuples, strs, ints, bools and None. Any other value, a
    floating-point number or a Fraction among them, or a dict key that
    is not a str, raises TypeError."""
    return _text(obj, "\n")


def _text(value, newline: str) -> str:
    """value's text; newline is the line break and indent of the line
    that value starts on."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in value.items():
            scalar = _SCALARS.get(type(item))
            # _quote raises TypeError on a key that is not a str
            items.append(_quote(key) + ": "
                         + (scalar(item) if scalar else _text(item, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = []
        for item in value:
            scalar = _SCALARS.get(type(item))
            items.append(scalar(item) if scalar else _text(item, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    for kind in type(value).__mro__:  # a subclass is written as its base
        scalar = _SCALARS.get(kind)
        if scalar:
            return scalar(value)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)
