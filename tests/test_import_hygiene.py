"""NumPy and the process-pool stack load only when a campaign uses them.

``import repro``, an interpreted Eraser campaign and a packed campaign run
inline load neither NumPy (the optional ``vector`` extra) nor
``multiprocessing`` / ``concurrent.futures``, and resolving ``engine="auto"``
for one machine loads no NumPy.  Each check runs in a fresh interpreter,
since this test process has long imported all of them.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro

#: Imports repro, runs one step per campaign kind on apb and prints, after
#: each step, which of the watched modules the process has loaded.
_CHILD_SCRIPT = """
import json
import sys

WATCHED = ("numpy", "multiprocessing", "concurrent.futures")


def loaded():
    return [name for name in WATCHED if name in sys.modules]


report = {}
import repro

report["import"] = loaded()
design, stimulus = repro.load_benchmark("apb", cycles=40)
faults = repro.generate_stuck_at_faults(design)
eraser = repro.EraserSimulator(design, mode=repro.EraserMode.FULL).run(stimulus, faults)
report["eraser"] = loaded()
packed = repro.run_multiprocess(design, stimulus, faults, workers=1)
report["packed_campaign"] = loaded()
report["same_verdicts"] = eraser.coverage.same_verdicts(packed.coverage)
repro.make_engine(design, "auto")
report["auto_engine"] = loaded()
if "--vector" in sys.argv:
    import repro.api
    import repro.sim.vector

    report["same_class"] = (
        repro.api.VectorFaultSimulator is repro.sim.vector.VectorFaultSimulator
    )
    report["engine"] = type(repro.make_engine(design, "packed-numpy")).__name__
    report["vector"] = loaded()
print(json.dumps(report))
"""

HAS_NUMPY = importlib.util.find_spec("numpy") is not None


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The child's report: loaded modules after each step, plus the vector checks."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CODEGEN_CACHE"] = str(tmp_path_factory.mktemp("codegen-cache"))
    argv = [sys.executable, "-c", _CHILD_SCRIPT] + (["--vector"] if HAS_NUMPY else [])
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_import_repro_loads_neither_numpy_nor_the_pool_stack(report):
    assert report["import"] == []


def test_eraser_campaign_loads_neither_numpy_nor_the_pool_stack(report):
    assert report["eraser"] == []


def test_inline_packed_campaign_loads_neither_numpy_nor_the_pool_stack(report):
    assert report["same_verdicts"]
    assert report["packed_campaign"] == []


def test_single_machine_auto_engine_loads_no_numpy(report):
    assert "numpy" not in report["auto_engine"]


@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
def test_vector_names_load_numpy_on_first_use(report):
    assert report["same_class"]
    assert report["engine"] == "VectorCodegenEngine"
    assert "numpy" in report["vector"]
