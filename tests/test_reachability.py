"""Every function and class in src/talentrank is named by something that
runs it: other code in src, perfbench, or the acceptance criteria."""

import ast
import os
import re

import talentrank

SRC = os.path.dirname(talentrank.__file__)
ROOT = os.path.dirname(os.path.dirname(SRC))
PERFBENCH = os.path.join(ROOT, "perfbench")

# name -> why it may stand unnamed
HOOKS = {"log_message": "a BaseHTTPRequestHandler hook, called by the http.server machinery"}

# a string that names code, as perfbench's span targets ("synth_corpus",
# "search_service.do_POST") and getattr do; prose is not a reference
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def python_files(directory):
    return sorted(os.path.join(directory, name) for name in os.listdir(directory)
                  if name.endswith(".py"))


def names_used(tree):
    """Each identifier `tree` names: variables, attributes, imports and
    dotted-name strings other than docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                docstrings.add(id(node.body[0].value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and _DOTTED_NAME.fullmatch(node.value)):
            yield from node.value.split(".")


def test_every_definition_in_src_is_named_elsewhere():
    """Dunder methods are called by the language, so they are not checked."""
    sources = python_files(SRC)
    readers = [*sources, *python_files(PERFBENCH), os.path.join(ROOT, "tests", "test_acceptance.py")]
    trees = {}
    for path in readers:
        with open(path, encoding="utf-8") as f:
            trees[path] = ast.parse(f.read(), path)
    used = set()
    for tree in trees.values():
        used.update(names_used(tree))
    unnamed = []
    for path in sources:
        for node in ast.walk(trees[path]):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used and node.name not in HOOKS):
                unnamed.append(f"{os.path.basename(path)}:{node.lineno} {node.name}")
    assert not unnamed, "defined in src but named nowhere that runs it: " + ", ".join(unnamed)
    assert HOOKS.keys().isdisjoint(used), "a hook that something names needs no allowance"
