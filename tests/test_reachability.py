"""Every function and class in src/talentrank is named by something that
runs it: other code in src, or perfbench. A definition that only an
acceptance criterion runs stands in CRITERIA, checked against the
criterion's test."""

import ast
import os
import re

import pytest

import talentrank

SRC = os.path.dirname(talentrank.__file__)
ROOT = os.path.dirname(os.path.dirname(SRC))
PERFBENCH = os.path.join(ROOT, "perfbench")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")

# name -> why it may stand unnamed
HOOKS = {
    "log_message": "a BaseHTTPRequestHandler hook, called by the http.server machinery",
    "handle_error": "a socketserver hook, called by the server machinery; it names itself "
                    "only through super()",
    "parse_request": "a BaseHTTPRequestHandler hook, called by handle_one_request; it names "
                     "itself only through super()",
}

# name -> the criterion whose test runs it: the definitions that exist to
# be checked (c02's gradient checker, c03's reference distributions, c10's
# DSSM replay scorer), which the program itself does not run. What they
# name counts through them: flatten_grads and _param_arrays, for one.
CRITERIA = {
    "empirical_first_order": "c03",
    "empirical_second_order": "c03",
    "gradient_check": "c02",
    "dssm_scorer": "c10",
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


def read_trees(paths):
    """path -> module AST of each file of `paths`."""
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            trees[path] = ast.parse(f.read(), path)
    return trees


def unnamed_definitions(trees, defining, hooks=()):
    """Checks the function and class definitions of the `defining` paths
    against the uses in every tree of `trees` (path -> module AST).

    A definition is unnamed when no use of its name counts, found to a
    fixpoint: a use inside the definition itself, or inside a definition
    already found unnamed, does not count. Dunder methods, which the
    language calls, and `hooks`, which a framework or a criterion calls,
    are never unnamed. Returns (unnamed, named hooks) as `file:line name`
    strings: a hook whose name counts somewhere needs no allowance.
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


def criteria_not_named(tree, criteria):
    """The `criteria` entries (name -> criterion, as "c03") whose name the
    criterion's test in `tree`, test_<criterion>_*, does not name."""
    named = {(name, node.name.split("_")[1]) for name, within in names_used(tree)
             for node in within if node.name.startswith("test_c")}
    return [f"{name} ({criterion})" for name, criterion in criteria.items()
            if (name, criterion) not in named]


def reachability_errors(src, roots, acceptance, hooks, criteria):
    """The check's failures for the definitions in the python files of
    `src`, against the uses in those files and in the python files of the
    directories `roots`: definitions named nowhere, hooks or criteria
    entries that something there names, and criteria entries that their
    criterion's test in the file `acceptance` does not name."""
    sources = python_files(src)
    trees = read_trees(sources + [path for root in roots for path in python_files(root)])
    unnamed, allowed_but_named = unnamed_definitions(trees, sources, {**hooks, **criteria})
    errors = []
    if unnamed:
        errors.append("defined in src but named nowhere that runs it: " + ", ".join(unnamed))
    if allowed_but_named:
        errors.append("an allowance for a name that a root names: "
                      + ", ".join(allowed_but_named))
    [tree] = read_trees([acceptance]).values()
    missing = criteria_not_named(tree, criteria)
    if missing:
        errors.append("a criteria entry its criterion does not name: " + ", ".join(missing))
    return errors


def test_every_definition_in_src_is_named_elsewhere():
    assert reachability_errors(SRC, [PERFBENCH], ACCEPTANCE, HOOKS, CRITERIA) == []


def write_tree(directory, files):
    """Write `files` (name -> source) into `directory`; returns its path."""
    directory.mkdir()
    for name, source in files.items():
        (directory / name).write_text(source)
    return str(directory)


ACCEPTANCE_STUB = "def test_c03_x():\n    reference()\n"


def test_a_name_outside_the_roots_does_not_count(tmp_path):
    src = write_tree(tmp_path / "src", {"m.py": "def run():\n    return 1\n\n"
                                                 "def reference():\n    return 2\n\n"
                                                 "def test_only():\n    return 3\n"})
    bench = write_tree(tmp_path / "bench", {"b.py": "from m import run\nrun()\n"})
    tests = write_tree(tmp_path / "tests", {"test_m.py": "from m import test_only\ntest_only()\n",
                                            "test_acceptance.py": ACCEPTANCE_STUB})
    acceptance = os.path.join(tests, "test_acceptance.py")
    errors = reachability_errors(src, [bench], acceptance, {}, {"reference": "c03"})
    assert errors == ["defined in src but named nowhere that runs it: m.py:7 test_only"]
    # with the tests among the roots, test_only counts, and so does the
    # criterion's own name, which then needs no allowance
    assert reachability_errors(src, [bench, tests], acceptance, {}, {"reference": "c03"}) == [
        "an allowance for a name that a root names: m.py:4 reference"]


@pytest.mark.parametrize("caller", ["src", "bench"])
def test_a_criteria_entry_that_a_root_names_is_reported(tmp_path, caller):
    files = {"src": {"m.py": "def reference():\n    return 2\n"}, "bench": {}}
    files[caller]["n.py"] = "from m import reference\n"
    src = write_tree(tmp_path / "src", files["src"])
    bench = write_tree(tmp_path / "bench", files["bench"])
    acceptance = str(tmp_path / "test_acceptance.py")
    (tmp_path / "test_acceptance.py").write_text(ACCEPTANCE_STUB)
    assert reachability_errors(src, [bench], acceptance, {}, {"reference": "c03"}) == [
        "an allowance for a name that a root names: m.py:1 reference"]


def test_a_criteria_entry_its_criterion_does_not_name_is_reported(tmp_path):
    src = write_tree(tmp_path / "src", {"m.py": "def reference():\n    return 2\n\n"
                                                 "def other():\n    return 3\n"})
    (tmp_path / "test_acceptance.py").write_text(
        ACCEPTANCE_STUB + "\ndef test_c04_y():\n    other()\n")
    acceptance = str(tmp_path / "test_acceptance.py")
    criteria = {"reference": "c04", "other": "c04", "gone": "c03"}
    assert reachability_errors(src, [], acceptance, {}, criteria) == [
        "a criteria entry its criterion does not name: reference (c04), gone (c03)"]


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
