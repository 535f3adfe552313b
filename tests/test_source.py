"""Checks on the source tree of grnn itself."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "grnn")
CALLED_ONLY_FROM_SCRIPTS = {"synthetic.write_bundle", "synthetic.write_sine"}


def test_every_src_definition_is_named_by_other_src_code():
    """Every module-level function and class, and every method that is not a
    dunder, is named somewhere in src/grnn outside its own definition and
    outside __init__.py's re-exports; the synthetic-data writers, which
    scripts/ call, are the exceptions."""
    trees = {}
    for file in sorted(os.listdir(SRC)):
        if file.endswith(".py"):
            with open(os.path.join(SRC, file), encoding="utf-8") as fh:
                trees[file[:-3]] = ast.parse(fh.read())
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{sub.name}", sub.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for module, tree in trees.items() if module != "__init__"
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert {where for where, name in defined if name not in named} == CALLED_ONLY_FROM_SCRIPTS
