"""Every runtime helper is emitted by its emitter or called by another helper.

The packed, vector and Eraser kernels import their helpers from three
runtime modules.  A helper that no emitter names and no helper calls is dead
code every kernel still imports.  The test reads the modules' source, so it
needs no NumPy.  It does not count what the corpus kernels reach: most
helpers serve operators only fixture designs use.
"""

import ast
import os
import re

import pytest

from repro.sim import codegen

_SIM_DIR = os.path.dirname(codegen.__file__)

#: Each runtime module and every emitter module that writes calls to it: the
#: lane skeletons in ``emitter`` spell the packed and vector ``_publish`` calls.
_EMITTERS = {
    "packed_runtime": ("codegen", "emitter"),
    "vector_runtime": ("codegen", "emitter"),
    "eraser_runtime": ("eraser_codegen",),
}


def _parse(module):
    with open(os.path.join(_SIM_DIR, f"{module}.py"), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _emitted_text(tree):
    """The emitter's string literals, docstrings left out: the code it writes."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    return "\n".join(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    )


def _called_names(fn):
    """Names read in ``fn``'s own body (nested functions' bodies left out)."""
    names = set()
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("runtime", sorted(_EMITTERS))
def test_every_runtime_function_is_named_by_its_emitter_or_a_helper(runtime):
    emitted = "\n".join(_emitted_text(_parse(module)) for module in _EMITTERS[runtime])
    functions = [
        node for node in ast.walk(_parse(runtime)) if isinstance(node, ast.FunctionDef)
    ]
    assert functions
    unnamed = [
        fn.name
        for fn in functions
        if not re.search(rf"(?<!\w){fn.name}(?!\w)", emitted)
        and not any(fn.name in _called_names(other) for other in functions if other is not fn)
    ]
    assert not unnamed, f"{runtime} defines functions nothing names: {unnamed}"
