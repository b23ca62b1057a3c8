"""The verdict-plane leak check counts only the test process's own planes.

A campaign another process runs meanwhile (a benchmark, a second test run)
creates planes too; the suite's autouse leak check must not blame a test for
them, and must still catch a plane the test process strands.
"""

import os
import subprocess
import sys

import pytest

import repro
from plane_leaks import SHM_DIR, no_leaked_verdict_planes, verdict_plane_segments
from repro.sim.verdict_plane import VerdictPlane, segment_prefix

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="needs POSIX shared memory under /dev/shm"
)

#: Creates a plane, prints its name, holds it until a line arrives on stdin.
_CHILD_SCRIPT = """
import sys
from repro.sim.verdict_plane import VerdictPlane
plane = VerdictPlane.create(8)
print(plane.name, flush=True)
sys.stdin.readline()
plane.close()
plane.unlink()
"""


def test_create_names_the_segment_after_the_creating_process():
    with VerdictPlane.create(4) as plane:
        assert plane.name.startswith(segment_prefix())
        assert segment_prefix() == f"rvp{os.getpid()}_"
        assert len(plane.name) < 31  # macOS caps names at 31 with the slash
        assert plane.name in verdict_plane_segments(os.getpid())


def test_a_plane_another_process_creates_during_a_test_is_not_a_leak():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        with no_leaked_verdict_planes():
            name = child.stdout.readline().strip()
            assert name.startswith(segment_prefix(child.pid))
            assert name in verdict_plane_segments()  # live while the check runs
    finally:
        child.stdin.write("\n")
        child.stdin.close()
        child.wait(timeout=60)
        child.stdout.close()
    assert child.returncode == 0
    assert name not in verdict_plane_segments()


def test_a_plane_the_test_process_strands_is_still_a_leak():
    plane = None
    try:
        with pytest.raises(AssertionError, match="leaked verdict-plane"):
            with no_leaked_verdict_planes():
                plane = VerdictPlane.create(4)
    finally:
        if plane is not None:
            plane.close()
            plane.unlink()
