"""Every public function, class and method of `finkgqa` is used by the package.

A public name that nothing in `src/` refers to is either dead or a helper
that only the tests call, which belongs under `tests/`. A reference is a
`Name`, an `Attribute` or an import alias anywhere in `src/` outside the
name's own definition.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finkgqa"

# module.name -> why it stays public with no caller in the package.
ALLOWED = {
    "evaluator.parse_program": "bench/test_corpus.py executes the corpus's gold "
                               "programs, and the program-executing reasoner will call it",
    "evaluator.execute_program": "bench/test_corpus.py executes the corpus's gold "
                                 "programs, and the program-executing reasoner will call it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST) -> Counter:
    """How often each name is referred to within `node`."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
            names[sub.asname] += 1
    return names


def _public_definitions(tree: ast.Module):
    """The module's public functions and classes, and their public methods."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def unreferenced_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if everywhere[node.name] <= _references(node)[node.name]:
                unused.append(f"{module}.{qualname}")
    return unused


def test_public_names_are_referenced_in_the_package():
    assert sorted(unreferenced_public_names()) == sorted(ALLOWED)
