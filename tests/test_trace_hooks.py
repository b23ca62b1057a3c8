"""The benchmark's traced run can wrap every entry point it names.

``perfbench/spans.py`` wraps each :data:`WRAPPED` row's attribute in place,
reading it from its owner's own ``vars()``: a method that moves into a base
class (or a function that moves to another module) makes ``--trace 1``
raise ``KeyError``.  This loads the module (as ``tests/test_perf_gate.py``
loads the gate) and checks every row against the library, and that the
wrapped source generators still see every kernel the loaders generate.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.designs.registry import get_benchmark
from repro.sim import codegen
from repro.sim.vector import np as _vector_np

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


#: The kernel loads whose generation the tracer must see, one per source generator.
_LOADS = {
    "packed": lambda design: codegen.load_kernel(
        design, use_cache=False, layout=codegen.packed_layout(design, 9)
    ),
    "vector": lambda design: codegen.load_vector_kernel(design, use_cache=False),
}


@pytest.mark.parametrize(
    "kernel",
    [
        "packed",
        pytest.param(
            "vector",
            marks=pytest.mark.skipif(_vector_np is None, reason="NumPy not installed"),
        ),
    ],
)
def test_each_kernel_load_records_one_generate_span(spans, kernel):
    """A loader reaches its generator through the wrapped module global.

    A loader that generated its source some other way would leave
    ``emitter.generate`` and ``emitter.source_kb`` reading zero.
    """
    design = get_benchmark("apb").compile()
    tracer = spans.Tracer()
    tracer.install()
    try:
        _LOADS[kernel](design)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("emitter.generate") == 1
    assert tracer.source_chars > 0
