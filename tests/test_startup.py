"""What a CLI call pays before it does any work.

Every call starts a fresh interpreter that imports the package and
builds the argument parser. Four rules keep that start-up short: the
package loads neither `dataclasses` nor the modules its import pulls in,
nor the `json` package (its writer takes the C quoting from `_json`),
nor `typing` (annotations are never evaluated, so builtin generics and
`collections.abc` serve them), and every import under src/ sits at
module level, so no import cost is hidden in a function body that a
request would pay instead.

The interpreters are started with -S, without the site module. A `.pth`
hook in site-packages may import modules into every interpreter; a hook
that imports `certifi`, for one, loads `typing`, and under it the typing
rule would pass whatever the package imports. The explicit sys.path
still finds the package and everything it needs.
"""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# dataclasses and the modules its import loads
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
START_UP = "import splitloci.cli\nsplitloci.cli.build_parser()"


def modules_loaded(code):
    """The names in sys.modules of a fresh interpreter of this one, with
    this sys.path, after it runs `code`."""
    script = ("import sys\nsys.path[:] = %r\n%s\n"
              "print(' '.join(sys.modules))\n" % (sys.path, code))
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return set(out.split())


def test_cli_start_up_loads_no_heavy_module():
    # what the bare interpreter loads is not the package's doing
    added = modules_loaded(START_UP) - modules_loaded("")
    assert added & set(HEAVY) == set()


def test_cli_start_up_loads_no_json_module():
    bare, loaded = modules_loaded(""), modules_loaded(START_UP)
    assert {m for m in loaded - bare if m.split(".")[0] == "json"} == set()
    # the writer's quoting comes from _json, the C accelerator
    assert "_json" in loaded


def test_cli_start_up_loads_no_typing_module():
    added = modules_loaded(START_UP) - modules_loaded("")
    assert {m for m in added
            if m.split(".")[0] in ("typing", "_typing")} == set()


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
