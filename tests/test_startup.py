"""What a CLI call pays before it does any work.

Every call starts a fresh interpreter that imports the package and
builds the argument parser. Two rules keep that start-up short: the
package loads neither `dataclasses` nor the modules its import pulls in,
and every import under src/ sits at module level, so no import cost is
hidden in a function body that a request would pay instead.
"""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# dataclasses and the modules its import loads
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def heavy_modules_loaded(code):
    """The HEAVY modules loaded in a fresh interpreter of this one, with
    this sys.path, after it runs `code`."""
    script = ("import sys\nsys.path[:] = %r\n%s\n"
              "print(' '.join(m for m in %r if m in sys.modules))\n"
              % (sys.path, code, HEAVY))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return set(out.split())


def test_cli_start_up_loads_no_heavy_module():
    # a site hook may load some of them in every interpreter; those are
    # not the package's doing
    bare = heavy_modules_loaded("")
    loaded = heavy_modules_loaded(
        "import splitloci.cli\nsplitloci.cli.build_parser()")
    assert loaded - bare == set()


def test_every_import_under_src_is_at_module_level():
    found = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += 1
                assert id(node) in top, "%s:%d: import inside a block" % (
                    path.relative_to(SRC), node.lineno)
    assert found > 0
