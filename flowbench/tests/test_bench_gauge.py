"""The host gauge does the same fixed work on every run, without flowdoc."""

import subprocess
import sys

import host_gauge


def test_gauge_work_is_fixed():
    assert host_gauge.main() == host_gauge.main()


def test_gauge_runs_without_flowdoc():
    code = ("import sys, runpy; runpy.run_path(sys.argv[1]); "
            "assert not any(m.startswith('flowdoc') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code, host_gauge.__file__],
                   check=True, capture_output=True)
