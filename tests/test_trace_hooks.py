"""The benchmark's traced run can wrap every entry point it names.

``perfbench/spans.py`` wraps each :data:`WRAPPED` row's attribute in place,
reading it from its owner's own ``vars()``: a method that moves into a base
class (or a function that moves to another module) makes ``--trace 1``
raise ``KeyError``.  This loads the module (as ``tests/test_perf_gate.py``
loads the gate) and checks every row against the library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_is_in_its_owners_own_dict(spans):
    missing = []
    for module_name, class_name, attr, span in spans.WRAPPED:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        if attr not in vars(owner):
            missing.append(f"{module_name}.{class_name or ''}.{attr} ({span})")
    assert not missing, f"the traced run cannot wrap: {missing}"
