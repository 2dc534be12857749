"""Rules that hold over the source of the package."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "kacvmrt")


def _nodes():
    """(file name, AST node) for every node of every module."""
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            yield name, node


def test_no_tuple_of_a_generator():
    """`tuple(x for x in ...)` sizes its result by a guess of 10 and then
    resizes it, so every call moves a tuple from CPython's size-10 free
    list to the free list of its final size.  Only a full collection
    empties those lists, and a program that makes no reference cycles gets
    none: they fill up and keep their memory.  `tuple([...])` allocates the
    final size at once."""
    found = []
    for name, node in _nodes():
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and node.args
                and isinstance(node.args[0], ast.GeneratorExp)):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_dataclasses_or_exec():
    """The value types are slotted classes on `roots.Record`.  Importing
    `dataclasses` costs every process its import (with `inspect`, `ast`,
    `dis` and `tokenize`), and each decorator exec-compiles its generated
    methods, on every cold start."""
    found = []
    for name, node in _nodes():
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "exec"):
            found.append(f"{name}:{node.lineno}")
    assert found == []
