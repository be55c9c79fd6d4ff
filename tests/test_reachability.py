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
HOOKS = {
    "log_message": "a BaseHTTPRequestHandler hook, called by the http.server machinery",
    "handle_error": "a socketserver hook, called by the server machinery; it names itself "
                    "only through super()",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# a string that names code, as perfbench's span targets ("synth_corpus",
# "search_service.do_POST") and getattr do; prose is not a reference
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def python_files(directory):
    return sorted(os.path.join(directory, name) for name in os.listdir(directory)
                  if name.endswith(".py"))


def names_used(tree):
    """(identifier, enclosing definitions) for each identifier `tree` names:
    variables, attributes, imports and dotted-name strings other than
    docstrings, with the function and class definitions the use sits in."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)):
            if node.body and isinstance(node.body[0], ast.Expr):
                docstrings.add(id(node.body[0].value))

    def visit(node, within):
        if isinstance(node, DEFINITIONS):
            within = within | {node}
        if isinstance(node, ast.Name):
            yield node.id, within
        elif isinstance(node, ast.Attribute):
            yield node.attr, within
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], within
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and _DOTTED_NAME.fullmatch(node.value)):
            for name in node.value.split("."):
                yield name, within
        for child in ast.iter_child_nodes(node):
            yield from visit(child, within)

    yield from visit(tree, frozenset())


def unnamed_definitions(trees, defining, hooks=()):
    """Checks the function and class definitions of the `defining` paths
    against the uses in every tree of `trees` (path -> module AST).

    A definition is unnamed when no use of its name counts, found to a
    fixpoint: a use inside the definition itself, or inside a definition
    already found unnamed, does not count. Dunder methods, which the
    language calls, and `hooks`, which a framework calls, are never
    unnamed. Returns (unnamed, named hooks) as `file:line name` strings:
    a hook whose name counts somewhere needs no allowance.
    """
    uses = {}
    for tree in trees.values():
        for name, within in names_used(tree):
            uses.setdefault(name, []).append(within)
    definitions = [(path, node) for path in defining for node in ast.walk(trees[path])
                   if isinstance(node, DEFINITIONS)
                   and not (node.name.startswith("__") and node.name.endswith("__"))]
    unnamed = set()

    def named(node):
        return any(node not in within and unnamed.isdisjoint(within)
                   for within in uses.get(node.name, ()))

    grew = True
    while grew:
        grew = False
        for _, node in definitions:
            if node not in unnamed and node.name not in hooks and not named(node):
                unnamed.add(node)
                grew = True

    def label(path, node):
        return f"{os.path.basename(path)}:{node.lineno} {node.name}"

    return ([label(path, node) for path, node in definitions if node in unnamed],
            [label(path, node) for path, node in definitions
             if node.name in hooks and named(node)])


def test_every_definition_in_src_is_named_elsewhere():
    sources = python_files(SRC)
    readers = [*sources, *python_files(PERFBENCH),
               os.path.join(ROOT, "tests", "test_acceptance.py")]
    trees = {}
    for path in readers:
        with open(path, encoding="utf-8") as f:
            trees[path] = ast.parse(f.read(), path)
    unnamed, named_hooks = unnamed_definitions(trees, sources, HOOKS)
    assert not unnamed, "defined in src but named nowhere that runs it: " + ", ".join(unnamed)
    assert not named_hooks, "a hook that something names needs no allowance: " + ", ".join(
        named_hooks)


def test_a_chain_of_dead_definitions_is_unnamed():
    """Code named only by its own body, or only by code already unnamed,
    is unnamed too; a hook that something names is reported."""
    module = ast.parse(
        "def run():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return dead_helper()\n\n"
        "def dead_helper():\n    return dead_leaf() + dead_helper()\n\n"
        "def dead_leaf():\n    return 2\n\n"
        "class Server:\n"
        "    def hook(self):\n        return super().hook()\n\n"
        "    def called(self):\n        return 3\n\n"
        "    def __len__(self):\n        return 0\n")
    caller = ast.parse("run()\nServer().called()\n")
    trees = {"m.py": module, "caller.py": caller}
    unnamed, named_hooks = unnamed_definitions(trees, ["m.py"], {"hook": "test"})
    assert unnamed == ["m.py:7 dead", "m.py:10 dead_helper", "m.py:13 dead_leaf"]
    assert named_hooks == []
    unnamed, named_hooks = unnamed_definitions(trees, ["m.py"], {"called": "test"})
    assert unnamed == ["m.py:7 dead", "m.py:10 dead_helper", "m.py:13 dead_leaf", "m.py:17 hook"]
    assert named_hooks == ["m.py:20 called"]
