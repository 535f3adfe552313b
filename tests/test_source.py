"""Checks on the source tree of grnn itself."""

import ast
import os
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "grnn")
CALLED_ONLY_FROM_SCRIPTS = {"synthetic.write_bundle", "synthetic.write_sine"}


def test_every_src_definition_is_named_by_other_src_code():
    """Every module-level function and class, and every method that is not a
    dunder, is named somewhere in src/grnn outside its own definition; the
    synthetic-data writers, which scripts/ call, are the exceptions."""
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
             for tree in trees.values()
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert {where for where, name in defined if name not in named} == CALLED_ONLY_FROM_SCRIPTS


def test_the_package_binds_no_name_but_its_version():
    """grnn/__init__.py re-exports nothing, so no name of the package can hide
    a module of it."""
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    statements = [ast.unparse(node) for node in body
                  if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert [statement.split(" = ")[0] for statement in statements] == ["__version__"]
    import grnn.train as train_module

    assert isinstance(train_module, types.ModuleType)
