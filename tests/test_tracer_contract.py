"""The benchmark's tracer still finds and sees every layer it wraps.

``flowbench/tracing.py`` wraps flowdoc functions by name from outside. A
renamed, removed or no longer called target makes the traced benchmark run
raise or record failed checks, so this guards the names from the tier-1
suite.
"""

import shlex
import sys
from pathlib import Path

import pytest

from flowdoc import cli

from conftest import FIXTURES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "flowbench"))
import tracing  # noqa: E402


def test_every_target_resolves():
    mods = tracing.flowdoc_modules()
    for mod_name, attr, _, _ in tracing.TARGETS:
        owner = mods[mod_name]
        for part in attr.split("."):
            assert hasattr(owner, part), f"{mod_name}.{attr}"
            owner = getattr(owner, part)


@pytest.mark.parametrize("fixture", ["demo", "xlink"])
def test_every_target_is_called_by_all(fixture, tmp_path, capsys):
    tracer = tracing.Tracer()
    with tracer:
        run = tracer.new_run()
        code = cli.main(["all", str(FIXTURES / fixture),
                         "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert tracing.leftover_wrappers() == []
    summary = tracer.summary(run)
    for _, _, name, _ in tracing.TARGETS:
        assert summary.get(name, {}).get("calls", 0) > 0, name


def test_every_render_process_is_counted(tmp_path, capsys):
    """A traced run that renders starts each renderer through the tracer's
    ``cli.subprocess``, which counts it as a spawn of the render span."""
    stub = Path(tracing.__file__).with_name("stub_render.sh")
    tracer = tracing.Tracer()
    with tracer:
        run = tracer.new_run()
        code = cli.main(["all", str(FIXTURES / "xlink"), "--out-dir", str(tmp_path),
                         "--render-cmd", f"sh {shlex.quote(str(stub))} {{input}}", "--werror"])
    capsys.readouterr()
    assert code == 0
    assert tracing.leftover_wrappers() == []
    diagrams = sorted((tmp_path / "aux_files").glob("*.txt"))
    assert diagrams and all(d.with_suffix(".svg").is_file() for d in diagrams)
    assert tracer.summary(run)[tracing.RENDER_SPAN]["spawns"] == len(diagrams)
