"""The tracer sees every layer and leaves no wrapper behind."""

import random

import tracing
from flowdoc import annotations, cli, cxx_structure, ioutil, scanner

from test_bench_oracle import SMALL, _run_flowdoc


def _originals():
    return (scanner.line_code_map, cxx_structure.line_code_map,
            annotations.line_code_map, ioutil.atomic_write_text,
            cli.atomic_write_text, cxx_structure.CodeStream.__init__,
            cli.subprocess)


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = _originals()
    c = SMALL["render"](random.Random(1))
    tracer = tracing.Tracer()
    with tracer:
        assert scanner.line_code_map is not before[0]
        assert annotations.line_code_map is cxx_structure.line_code_map
        run = tracer.new_run()
        code, _, _ = _run_flowdoc(c, "render", tmp_path)
    assert code == 0
    assert _originals() == before
    assert tracing.leftover_wrappers() == []
    summary = tracer.summary(run)
    for _, _, name, _ in tracing.TARGETS:
        assert summary[name]["calls"] > 0, name
    assert (summary[tracing.RENDER_SPAN]["spawns"]
            == len(c.oracle["diagrams"]))


def test_wrappers_are_removed_when_the_run_raises(tmp_path):
    before = _originals()
    try:
        with tracing.Tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    assert _originals() == before


def test_counts_repeat_and_self_time_excludes_children(tmp_path):
    c = SMALL["monolith"](random.Random(2))
    tracer = tracing.Tracer()
    runs = []
    with tracer:
        for k in range(2):
            runs.append(tracer.new_run())
            _run_flowdoc(c, "monolith", tmp_path, out_name=f"out{k}")
    a, b = (tracer.summary(r) for r in runs)
    assert {n: v["calls"] for n, v in a.items()} == \
        {n: v["calls"] for n, v in b.items()}
    assert a["flowdb.analyze_source"]["calls"] == 3 * len(c.files)
    total = sum(v["self_s"] for v in a.values())
    top = [s for s in tracer.spans if s.run == runs[0] and s.parent < 0]
    assert abs(total - sum(s.end - s.start for s in top)) < 1e-6
