"""No dead public API: every public module-level function and class under
src/splitloci is named somewhere under src/ outside its own definition,
or is on the allow-list below with the reason it has no caller there.
A reference is a name loaded bare (`f`) or as an attribute of a module
of the package (`tautring.f`, `sb.f`). Names are matched as identifiers,
not resolved, but an attribute of anything else, such as a dataclass
field read as `self.f`, and a name that is only assigned, such as that
field's declaration, do not count."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "splitloci"

# functions whose only callers are tests/test_acceptance.py (criterion
# N) or the bench, until a CLI command runs them
ALLOWED = {
    "strata.star_union_check": "criterion 3: the codimension of a star union",
    "strata.single_locus_coincidence": "criterion 4; bench/workloads.py",
    "chowsym.chern_total": "criterion 7: the splitting-principle displays",
    "chowsym.pfaffian4": "criterion 5: each 4x4 minor's Pfaffian",
    "chowsym.principal_minor": "criterion 5: the 4x4 minors",
    "chowsym.pfaffians": "criterion 5; bench/workloads.py",
    "chowsym.generic_skew5": "criterion 5: the generic skew matrix",
    "chowsym.ce_rank": "criterion 8: the syzygy bundle ranks",
    "chowsym.quadric_count": "criterion 8: quadrics through a canonical curve",
    "chowsym.sym2_chern_check": "criterion 8; bench/workloads.py",
}


def _modules(tree):
    """The names a module binds to modules of the package, by
    `from . import x` or `from . import x as y`."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            and node.module is None for alias in node.names}


def _names(node, modules):
    """Every identifier a node and its children load as a bare name, or
    as an attribute of one of the modules."""
    return Counter(
        x.id if isinstance(x, ast.Name) else x.attr for x in ast.walk(node)
        if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load)
        or isinstance(x, ast.Attribute) and isinstance(x.value, ast.Name)
        and x.value.id in modules)


def unreferenced(src=SRC):
    """The public module-level functions and classes that nothing under
    src refers to outside their own definitions, as "module.name"."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    modules = {module: _modules(tree) for module, tree in trees.items()}
    everywhere = sum((_names(tree, modules[module])
                      for module, tree in trees.items()), Counter())
    return sorted(
        "%s.%s" % (module, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == _names(node, modules[module])[node.name])


def test_every_public_definition_has_a_caller_or_a_reason():
    dead = unreferenced()
    assert [name for name in dead if name not in ALLOWED] == [], (
        "no caller under src/: delete it, or allow-list it with a reason")
    assert [name for name in ALLOWED if name not in dead] == [], (
        "allow-listed but now called, or gone: drop the entry")


def test_a_definition_named_only_by_itself_is_dead(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Shadow:\n    def used(self):\n        return self.used\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text("from . import a\nx = a.Shadow\n",
                                    encoding="utf-8")
    assert unreferenced(tmp_path) == ["a.recursive"]


def test_a_field_and_self_attribute_of_the_same_name_do_not_count(tmp_path):
    # the function's only namesakes are a dataclass field, its keyword in
    # the constructor call and a read of self.verdict
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n"
        "def verdict(x):\n    return x > 0\n\n"
        "@dataclass\nclass Report:\n    verdict: bool\n\n"
        "    def text(self):\n        return 'yes' if self.verdict else 'no'\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\nreport = a.Report(verdict=True)\n",
        encoding="utf-8")
    assert unreferenced(tmp_path) == ["a.verdict"]
