import os
import subprocess
import sys
from pathlib import Path

import pytest

from ttdbeam import dictionary
from ttdbeam.dictionary import worker_count

# the CPUs this process may run on
AUTO = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def test_explicit_request_wins():
    assert worker_count(3) == 3
    assert worker_count(1) == 1


def test_unset_means_auto():
    assert worker_count() == AUTO
    assert worker_count(None) == AUTO


def test_invalid_values_rejected():
    for requested in (0, -2):
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            worker_count(requested)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_auto_honours_cpu_affinity():
    # a process pinned to one CPU gets one worker, however many CPUs the machine has
    code = (
        "import os; from ttdbeam.dictionary import worker_count; "
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "print(worker_count())"
    )
    src = str(Path(dictionary.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.strip() == "1"
