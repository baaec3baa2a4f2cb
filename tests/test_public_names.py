"""Every public function, class and method of `finkgqa` is used by the package.

A public name that nothing in `src/` refers to is either dead or a helper
that only the tests call, which belongs under `tests/`. A reference is a
`Name`, an `Attribute` or an import alias anywhere in `src/` outside the
name's own definition. A `Name` inside a function that has a parameter of
that name refers to the parameter, so it is no reference.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(node) -> set[str]:
    a = node.args
    return {arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            if arg is not None}


def _references(node: ast.AST, params: frozenset = frozenset()) -> Counter:
    """How often each name is referred to within `node`, where `params` are the
    parameters of the functions enclosing it."""
    names = Counter()
    if isinstance(node, ast.Name):
        if node.id not in params:
            names[node.id] += 1
    elif isinstance(node, ast.Attribute):
        names[node.attr] += 1
    elif isinstance(node, ast.alias):
        names[node.name] += 1
        names[node.asname] += 1
    if isinstance(node, _SCOPES):
        # Defaults, annotations and decorators are read outside the function.
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = params | _parameters(node)
        for child in ast.iter_child_nodes(node):
            names += _references(child, inner if child in body else params)
    else:
        for child in ast.iter_child_nodes(node):
            names += _references(child, params)
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


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """The public names of the modules (module name -> source) that no module refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if everywhere[node.name] <= _references(node)[node.name]:
                unused.append(f"{module}.{qualname}")
    return unused


def test_public_names_are_referenced_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unreferenced_public_names(sources)) == sorted(ALLOWED)


def test_a_parameter_of_the_same_name_is_no_reference():
    source = ("def helper():\n    return 1\n\n\n"
              "def user(helper=None, *, scale=lambda helper: helper):\n"
              "    return scale(helper)\n\n\n"
              "user()\n")
    assert unreferenced_public_names({"m": source}) == ["m.helper"]
    # A default is read outside the function, so it refers to the module's helper.
    assert unreferenced_public_names({"m": source.replace("=None", "=helper")}) == []
