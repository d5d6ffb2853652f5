"""flowdoc benchmark: one workload, one seed, a fixed measuring time.

    python3 flowbench/run.py --workload monolith --seed 1 --seconds 30 --trace 0

Run it from the root of a flowdoc checkout; it imports flowdoc from
``src/``. The corpus and every output tree live under ``.bench_work/`` in
that root and are removed at exit; a traced run leaves its spans there, in
``spans-<workload>.jsonl``.

``--trace 0`` times ``flowdoc all`` and the three phases as child
processes, the way users and build systems run them, and prints the
end-to-end metrics, scaled by the ``host_gauge.py`` runs around them.
``--trace 1`` runs the pipeline in-process through ``cli.main`` with spans
around every layer and prints the per-layer metrics. Both check every output tree against the corpus oracle. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import corpus
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
STUB = Path(__file__).resolve().parent / "stub_render.sh"
GAUGE = Path(__file__).resolve().parent / "host_gauge.py"
# Every reported time is scaled to a host on which host_gauge.py takes this
# long, about its median on the 2-vCPU host of the baseline.
GAUGE_SECONDS = 0.19
SETUP_PER_REP = 2
MIN_REPS = 3


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _render_args(workload: str) -> list[str]:
    if workload != "render":
        return []
    return ["--render-cmd", f"sh {STUB} {{input}}"]


def _spawn(argv: list[str], cwd: Path, stderr_path: Path):
    """Run a child to completion: (wall seconds, exit code, max RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _argv(command: str, out: Path, workload: str) -> list[str]:
    return [command, "src", "--out-dir", str(out)] + _render_args(workload)


def _flowdoc(command: str, out: Path, workload: str) -> list[str]:
    return [sys.executable, "-m", "flowdoc"] + _argv(command, out, workload)


def measure_setup(work: Path, n: int) -> list[float]:
    """Seconds from process start until ``import flowdoc.cli`` is done."""
    code = ("import flowdoc.cli, time, sys; "
            "sys.stdout.write(repr(time.monotonic()))")
    samples = []
    for _ in range(n):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=work,
                              env=_env(), capture_output=True, text=True,
                              check=True)
        samples.append(float(done.stdout) - start)
    return samples


def repeat(seconds: float, body) -> None:
    """Call body(rep) while the next repetition should end within seconds.

    At least MIN_REPS repetitions run, unless they would take more than
    four times the measuring time.
    """
    start = time.perf_counter()
    rep = 0
    while True:
        elapsed = time.perf_counter() - start
        per_rep = elapsed / rep if rep else 0.0
        if elapsed + per_rep > (4 if rep < MIN_REPS else 1) * seconds:
            if rep:
                break
        body(rep)
        rep += 1


def write_corpus(c: corpus.Corpus, work: Path) -> Path:
    cdir = work / "corpus"
    for rel, text in c.files.items():
        path = cdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return cdir


# ---------------------------------------------------------------------------
# timed runs, tracing off

def gauge(work: Path) -> float:
    """Wall seconds of one host_gauge.py child: the host's current speed."""
    wall, code, _ = _spawn([sys.executable, str(GAUGE)], work,
                           work / "gauge.err")
    if code != 0:
        raise RuntimeError(f"host_gauge.py exited {code}")
    return wall


def timed(workload: str, c: corpus.Corpus, cdir: Path, work: Path,
          seconds: float, checks: check.Checks, log) -> dict:
    """Time flowdoc child processes, each between two host gauges.

    A time is reported as its wall time times GAUGE_SECONDS over the mean of
    the gauge right before and right after it. On a shared host the speed of
    the same code drifts by up to 2x; the gauge drifts with it, so the scaled
    times spread less than half as much from run to run as the wall times.
    """
    oracle = c.oracle
    render = workload == "render"
    per_tree = check.checks_per_tree(oracle, render)
    per_diag = check.checks_per_diagnostics(oracle)
    samples: dict[str, list[float]] = {"setup_s": [], "all_s": [],
                                       "phased_s": [], "peak_rss_mb": []}
    walls: dict[str, list[float]] = {"setup_s": [], "all_s": [],
                                     "phased_s": [], "gauge_s": []}
    digests: list[str] = []
    measure_setup(work, 1)  # warms the bytecode and file caches
    before = gauge(work)

    def record(name: str, raw: list[float]) -> None:
        nonlocal before
        after = gauge(work)
        scale = GAUGE_SECONDS / ((before + after) / 2)
        samples[name] += [w * scale for w in raw]
        walls[name] += raw
        walls["gauge_s"].append(after)
        before = after

    def rep_once(rep: int) -> None:
        record("setup_s", measure_setup(work, SETUP_PER_REP))
        out_all, out_ph = work / f"all{rep}", work / f"phased{rep}"
        err = work / "all.err"
        phase_codes = []
        for mode in ("all", "phased") if rep % 2 == 0 else ("phased", "all"):
            if mode == "all":
                wall, code, rss = _spawn(_flowdoc("all", out_all, workload),
                                         cdir, err)
                record("all_s", [wall])
                samples["peak_rss_mb"].append(rss / 1024)
                continue
            total = 0.0
            for phase in ("build-db", "makeflows", "makehtml"):
                w, pcode, _ = _spawn(_flowdoc(phase, out_ph, workload),
                                     cdir, work / "phase.err")
                total += w
                phase_codes.append(pcode)
            record("phased_s", [total])
        if code != 0:
            checks.fail_all(per_tree + per_diag + 2,
                            f"flowdoc all exited {code}")
        else:
            check.check_tree(out_all, oracle, checks, render)
            check.check_diagnostics(err.read_text(encoding="utf-8"), oracle,
                                    checks)
            digests.append(check.tree_digest(out_all))
            checks.expect(digests[-1] == digests[0],
                          "output tree differs between repetitions")
            checks.expect(phase_codes == [0, 0, 0]
                          and check.tree_digest(out_ph) == digests[-1],
                          "phased tree differs from the all tree")
        shutil.rmtree(out_all, ignore_errors=True)
        shutil.rmtree(out_ph, ignore_errors=True)

    repeat(seconds, rep_once)
    all_s = statistics.median(samples["all_s"])
    metrics = {
        "all_s": (all_s, "s", len(samples["all_s"])),
        "phased_s": (statistics.median(samples["phased_s"]), "s",
                     len(samples["phased_s"])),
        "src_lines_per_s": (c.source_lines / all_s, "lines/s",
                            len(samples["all_s"])),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB",
                        len(samples["peak_rss_mb"])),
        "setup_s": (statistics.median(samples["setup_s"]), "s",
                    len(samples["setup_s"])),
    }
    for name, xs in walls.items():
        log(f"  {workload} {name} unscaled wall median = "
            f"{statistics.median(xs):.6g} s (n={len(xs)})")
    for name, xs in samples.items():
        if len(xs) >= 4:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            log(f"  {workload} {name} quartiles: {q1:.6g} {q3:.6g} (n={len(xs)})")
    return metrics


# ---------------------------------------------------------------------------
# traced run, in-process

# per-layer metrics read from the spans of one traced ``all`` run
_LAYER_FIELDS = (
    ("scanner.scan", ("calls", "self_s")),
    ("scanner.line_code_map", ("calls", "self_s")),
    ("cxx_structure.CodeStream", ("calls", "self_s", "lexemes")),
    ("cxx_structure.find_definitions", ("self_s",)),
    ("cxx_structure.parse_body", ("calls", "self_s")),
    ("annotations.collect", ("calls", "self_s")),
    ("flowdb.analyze_source", ("calls",)),
    ("flowdb.annotated_functions", ("self_s",)),
    ("flowdb.load_merge", ("calls", "self_s")),
    ("flowdb.FlowDb.resolve", ("calls", "self_s", "linked", "unlinked")),
    ("activity_ir.build_activity", ("calls", "self_s")),
    ("activity_ir.project", ("calls", "self_s")),
    ("plantuml_emit.render_function", ("calls", "self_s", "diagrams")),
    ("html_emit.emit_page", ("calls", "self_s", "bytes")),
    ("html_emit.emit_index", ("self_s",)),
    ("ioutil.atomic_write_text", ("calls", "self_s", "bytes")),
    (tracing.RENDER_SPAN, ("self_s",)),
)
_UNITS = {"self_s": "s", "bytes": "B"}

def _in_process(argv: list[str], cdir: Path) -> tuple[float, int, str]:
    from flowdoc import cli
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(cdir)
    try:
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return wall, code, err.getvalue()


def traced(workload: str, c: corpus.Corpus, cdir: Path, work: Path,
           seconds: float, checks: check.Checks, log) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    oracle = c.oracle
    render = workload == "render"
    per_tree = check.checks_per_tree(oracle, render)
    tracer = tracing.Tracer()
    sums: list[dict] = []
    walls: dict[str, list[float]] = {"traced": [], "untraced": [],
                                     "build-db": [], "makeflows": [],
                                     "makehtml": []}
    tree: dict[str, int] = {}

    def rep_once(rep: int) -> None:
        out_t, out_u, out_p = (work / f"traced{rep}", work / f"plain{rep}",
                               work / f"phased{rep}")
        if rep % 2:  # alternate which of the pair runs first
            u_wall, u_code, _ = _in_process(_argv("all", out_u, workload), cdir)
        with tracer:
            run = tracer.new_run()
            wall, code, _ = _in_process(_argv("all", out_t, workload), cdir)
            tracer.new_run()  # phase spans stay out of the all run's counts
            for phase in ("build-db", "makeflows", "makehtml"):
                w, pcode, _ = _in_process(_argv(phase, out_p, workload), cdir)
                walls[phase].append(w)
                code = code or pcode
        if rep % 2 == 0:
            u_wall, u_code, _ = _in_process(_argv("all", out_u, workload), cdir)
        walls["traced"].append(wall)
        walls["untraced"].append(u_wall)
        sums.append(tracer.summary(run))
        checks.expect(not tracing.leftover_wrappers(),
                      "wrappers left installed after the traced run")
        if code or u_code:
            checks.fail_all(per_tree + 1, "in-process flowdoc run failed")
        else:
            check.check_tree(out_t, oracle, checks, render)
            checks.expect(check.tree_digest(out_t) == check.tree_digest(out_u)
                          == check.tree_digest(out_p),
                          "traced, untraced and phased trees differ")
        if not tree:
            files = [p for p in out_t.rglob("*") if p.is_file()]
            tree["outputs"] = sum(1 for p in files if p.suffix != ".svg")
            tree["diagrams"] = sum(1 for p in files if p.suffix == ".txt")
        for out in (out_t, out_u, out_p):
            shutil.rmtree(out, ignore_errors=True)

    repeat(seconds, rep_once)

    def counts(summary):
        return {(name, key): value for name, agg in summary.items()
                for key, value in agg.items() if key != "self_s"}

    checks.expect(all(counts(s) == counts(sums[0]) for s in sums[1:]),
                  "per-layer counts differ between traced runs")
    first = sums[0]
    for _, _, name, _ in tracing.TARGETS:
        checks.expect(first.get(name, {}).get("calls", 0) > 0,
                      f"{name} recorded no call")
    if render:
        checks.expect(first.get(tracing.RENDER_SPAN, {}).get("spawns", 0) > 0,
                      "the render phase started no process")
    if len(sums) > 1:  # the first repetition warms the caches
        for xs in walls.values():
            del xs[0]
        del sums[0]
    outputs, diagrams = tree["outputs"], tree["diagrams"]
    tracer.dump(work.parent / f"spans-{workload}.jsonl")

    def cnt(name, key="calls"):
        return first.get(name, {}).get(key, 0)

    def self_s(name):
        return statistics.median([s.get(name, {}).get("self_s", 0.0)
                                  for s in sums])

    n_src = len(c.files)
    n = len(sums)
    m: dict[str, tuple[float, str, int]] = {}
    for name, fields in _LAYER_FIELDS:
        for key in fields:
            value = self_s(name) if key == "self_s" else cnt(name, key)
            m[f"{name}.{key}"] = (value, _UNITS.get(key, "count"), n)
    # render processes started, not calls of the phase
    m["cli.render.calls"] = (cnt(tracing.RENDER_SPAN, "spawns"), "count", n)
    m["scanner.scans_per_source"] = (cnt("scanner.scan") / n_src, "ratio", n)
    m["cxx_structure.lexes_per_source"] = (
        cnt("cxx_structure.CodeStream") / n_src, "ratio", n)
    m["flowdb.analyses_per_source"] = (
        cnt("flowdb.analyze_source") / n_src, "ratio", n)
    m["plantuml_emit.renders_per_diagram"] = (
        cnt("plantuml_emit.render_function", "diagrams") / max(diagrams, 1),
        "ratio", n)
    m["ioutil.writes_per_output"] = (
        cnt("ioutil.atomic_write_text") / max(outputs, 1), "ratio", n)
    for phase in ("build-db", "makeflows", "makehtml"):
        m[f"cli.{phase.replace('-', '_')}.s"] = (
            statistics.median(walls[phase]), "s", len(walls[phase]))
    emitted, distinct = cnt("cli.run", "emitted"), cnt("cli.run", "distinct")
    m["cli.diagnostics.emitted"] = (emitted, "count", n)
    m["cli.diagnostics.distinct"] = (distinct, "count", n)
    m["cli.diagnostics.dup_ratio"] = (emitted / max(distinct, 1), "ratio", n)
    m["trace.overhead_s"] = (
        statistics.median(walls["traced"])
        - statistics.median(walls["untraced"]), "s",
        len(walls["traced"]))
    return m


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 log) -> tuple[check.Checks, dict]:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        c = corpus.generate(workload, seed)
        cdir = write_corpus(c, work)
        log(f"{workload} seed={seed}: {len(c.files)} files, "
            f"{c.source_lines} lines, {len(c.oracle['index'])} functions, "
            f"{len(c.oracle['diagrams'])} diagrams")
        checks = check.Checks()
        measure = traced if trace else timed
        metrics = measure(workload, c, cdir, work, seconds, checks, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    for name, (value, unit, n) in metrics.items():
        log(f"  {workload} {name} = {value:.6g} {unit} (n={n})")
    log(f"  {workload} fail_ratio = {ratio:.6g} ratio "
        f"(n={checks.attempted} checks)")
    for example in checks.examples:
        log(f"  FAILED: {example}")
    return checks, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so children are killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "flowdoc" / "cli.py").is_file():
        print(f"flowbench: no flowdoc sources under {SRC}; run from the "
              f"root of a flowdoc checkout", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    names = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in names:
        checks, got = run_workload(workload, args.seed, args.seconds,
                                   bool(args.trace), log)
        attempted += checks.attempted
        failed += checks.failed
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, (value, unit, _) in got.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
