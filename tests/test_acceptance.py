"""End-to-end acceptance checks.

Each test prints one ``[criterion N] PASS/FAIL: ...`` line (run with -s to
see them on success) and then asserts, so a red run still shows which
criterion fell over and why.
"""

import hashlib
import random
import subprocess
import sys
import time
from collections import Counter

from flowdoc import activity_ir, annotations, cxx_structure, scanner
from flowdoc.cli import main
from flowdoc.flowdb import FlowDb, annotated_functions

from conftest import FIXTURES, GOLDEN, check_links, in_place_and_apart


def report(n, desc, ok, detail=""):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}" + (f" ({detail})" if detail else "")


def run_pipeline(sources, out_dir, *extra):
    return main(["all", *[str(s) for s in sources],
                 "--out-dir", str(out_dir), *extra])


def tree_digest(root):
    digest = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digest


# --------------------------------------------------------------------------
# 1. worked-example reproduction

def test_criterion_1(tmp_path):
    sources = [FIXTURES / "demo" / "main.cpp",
               FIXTURES / "demo" / "src" / "aux.cpp"]
    started = time.perf_counter()
    code = run_pipeline(sources, tmp_path)
    elapsed = time.perf_counter() - started

    aux = tmp_path / "aux_files"
    main_txt = (aux / "main__main__zoom0.txt").read_text()
    zoom0 = (aux / "aux__VINCIA__shower__zoom0.txt").read_text()
    zoom1 = (aux / "aux__VINCIA__shower__zoom1.txt").read_text()

    checks = {
        "exit status": code == 0,
        "main golden": main_txt == (GOLDEN / "demo_main_zoom0.txt").read_text(),
        "ask action": ":ask user whether to proceed;" in main_txt,
        "branch label": "if (control_flag==1) then (yes)" in main_txt,
        "linked call": ("call shower\n[[../aux.html#VINCIA__shower "
                        "VINCIA::shower()]]" in main_txt),
        "zoom0 golden": zoom0 == (GOLDEN / "demo_aux_zoom0.txt").read_text(),
        "single action": zoom0.count("\n:") == 1,
        "zoom1 golden": zoom1 == (GOLDEN / "demo_aux_zoom1.txt").read_text(),
        "zoom1 order": (zoom1.index("1) prepare system of partons")
                        < zoom1.index("2) do phase 1 of shower")
                        < zoom1.index("3)...")),
        "db max zoom": (tmp_path / "aux.flowdb").read_text()
                       == "VINCIA::shower\taux.html#VINCIA__shower\t1\n",
        "runtime": elapsed < 1.0,
    }
    bad = [k for k, v in checks.items() if not v]
    report(1, "worked example reproduced byte-exactly in "
              f"{elapsed * 1000:.0f} ms", not bad, f"failing: {bad}")


# --------------------------------------------------------------------------
# 2. annotation-grammar conformance snapshots

def test_criterion_2(tmp_path):
    cases = [
        ("hello.cpp", "hello__main__zoom0.txt", "hello_zoom0.txt"),
        ("two_actions.cpp", "two_actions__class__activity_method__zoom0.txt",
         "two_actions_zoom0.txt"),
        ("nested_if.cpp", "nested_if__activity_function__zoom0.txt",
         "nested_if_zoom0.txt"),
        ("return_note.cpp", "return_note__compute__zoom0.txt",
         "return_note_zoom0.txt"),
        ("parallel.cpp", "parallel__run_tasks__zoom0.txt",
         "parallel_zoom0.txt"),
    ]
    bad = []
    for src, produced, golden in cases:
        out = tmp_path / src.replace(".cpp", "")
        code = run_pipeline([FIXTURES / "lang" / src], out)
        got = (out / "aux_files" / produced).read_text()
        want = (GOLDEN / golden).read_text()
        if code != 0 or got != want:
            bad.append(src)
    report(2, f"{len(cases)} grammar fixtures match snapshots byte-exactly",
           not bad, f"failing: {bad}")


# --------------------------------------------------------------------------
# 3. zoom monotonicity on generated fixtures

def _generate_fixture(rng):
    counter = [0]

    def action_lines(depth):
        zoom = rng.choice((0, 0, 0, 1, 1, 2, 3))
        counter[0] += 1
        tag = "<parallel> " if rng.random() < 0.2 else ""
        marker = f"//${zoom}" if zoom else "//$"
        pad = "    " * depth
        return [f"{pad}{marker} {tag}step {counter[0]}",
                f"{pad}do_work_{counter[0]}();"]

    def block(depth, budget):
        out = []
        while budget[0] > 0:
            budget[0] -= 1
            roll = rng.random()
            pad = "    " * depth
            if roll < 0.5 or depth >= 3:
                out.extend(action_lines(depth))
            elif roll < 0.7:
                if rng.random() < 0.4:
                    out.append(f"{pad}//$ [condition {counter[0]}]")
                out.append(f"{pad}if (x > {counter[0]}) {{")
                out.extend(block(depth + 1, [rng.randint(1, 3)]))
                out.append(pad + "}")
                if rng.random() < 0.5:
                    out.append(pad + "else {")
                    out.extend(block(depth + 1, [rng.randint(0, 2)]))
                    out.append(pad + "}")
            elif roll < 0.85:
                style = rng.random()
                if style < 0.5:
                    out.append(f"{pad}while (n < {counter[0]}) {{")
                    out.extend(block(depth + 1, [rng.randint(1, 3)]))
                    out.append(pad + "}")
                elif style < 0.8:
                    out.append(f"{pad}for (int i = 0; i < 4; ++i) {{")
                    out.extend(block(depth + 1, [rng.randint(1, 3)]))
                    out.append(pad + "}")
                else:
                    out.append(pad + "do {")
                    out.extend(block(depth + 1, [rng.randint(1, 2)]))
                    out.append(pad + f"}} while (n < {counter[0]});")
            else:
                out.append(f"{pad}helper_{counter[0]}(x);")
        return out

    body = block(1, [rng.randint(4, 10)])
    if rng.random() < 0.3:
        body.append("    return;")
    return "\n".join(["void generated_fn(int x, int n) {"] + body + ["}", ""])


def _action_multiset(nodes):
    bag = Counter()
    for node in nodes:
        if isinstance(node, activity_ir.ActionNode):
            bag[node.text] += 1
        elif isinstance(node, activity_ir.BranchNode):
            for arm in node.arms:
                bag += _action_multiset(arm.body)
        elif isinstance(node, activity_ir.LoopNode):
            bag += _action_multiset(node.body)
        elif isinstance(node, activity_ir.ForkNode):
            bag += _action_multiset(node.actions)
    return bag


def test_criterion_3():
    violations = []
    depth_seen = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        text = _generate_fixture(rng)
        name = f"gen{seed}.cpp"
        view = cxx_structure.CodeStream(text, name, [])
        defs = cxx_structure.find_definitions(view)
        af = annotated_functions(view, defs, annotations.collect(view, defs), {})[0]
        tree = activity_ir.build_activity(af, FlowDb({}), [])
        depth_seen[af.max_zoom] += 1
        prev = None
        for level in range(af.max_zoom + 1):
            bag = _action_multiset(activity_ir.project(tree, level))
            if prev is not None and (prev - bag):
                violations.append((seed, level, sorted(prev - bag)))
            prev = bag
    spread_ok = max(depth_seen) >= 2
    report(3, "zoom monotonicity holds on 200 generated fixtures "
              f"(max_zoom histogram {dict(sorted(depth_seen.items()))})",
           not violations and spread_ok,
           f"violations: {violations[:3]}")


# --------------------------------------------------------------------------
# 4. scanner robustness fuzz

def _fuzz_case(rng):
    """(source, expected annotation offsets). Fragments are newline-joined
    so no fragment can change how its neighbour tokenizes."""
    def code(rng):
        return rng.choice([
            "int x = a / b;", "foo(1, 2);", "{", "}", "if (x) { y(); }",
            "int v[3] = {1, 2, 3};", "auto l = 1'000'000;", "x = y < z > w;",
        ])

    def plain_line_comment(rng):
        return rng.choice([
            "// ordinary note",
            "// contains //$ inside a plain comment {",
            "//no space, mentions } and //$9 too",
            "/// doxygen style with //$ marker text",
            "//! qt style //$",
        ])

    def annotation(rng):
        return rng.choice([
            "//$ do the thing", "//$2 detailed step {", "//$ [maybe]",
            "//$ <parallel> twin task", "//$17 very deep } text", "//$",
        ])

    def string_lit(rng):
        return rng.choice([
            '"//$ not an annotation"', '"braces { } inside"',
            '"escaped quote \\" then //$"', '"line comment start // and //$"',
            '"backslash at end\\\\"', 'const char* s = "//$ nope {";',
        ])

    def char_lit(rng):
        return rng.choice(["'{'", "'}'", "'\\''", "'$'", "char c = '/';"])

    def raw_string(rng):
        return rng.choice([
            'R"(//$ hidden { } ")"', 'R"xy(raw with //$ and )" inside)xy"',
            'u8R"(multi\nline //$ raw })"', 'LR"(//$)"',
        ])

    def block_comment(rng):
        return rng.choice([
            "/* block with //$ inside */", "/* spans\n   lines //$2 { } */",
            "/**/", "/* almost ends * / //$ */",
        ])

    def preprocessor(rng):
        return rng.choice([
            "#define LIMIT 42", "#include <vector>",
            "#define WIDE(a, b) \\\n    ((a) + (b))", "#pragma once",
            "   #ifdef FLAG",
        ])

    makers = [code, plain_line_comment, string_lit, char_lit, raw_string,
              block_comment, preprocessor]
    parts, expected, offset = [], [], 0
    for _ in range(rng.randint(3, 12)):
        if rng.random() < 0.3:
            frag = annotation(rng)
            expected.append(offset + frag.index("//$"))
        else:
            frag = rng.choice(makers)(rng)
        parts.append(frag)
        offset += len(frag) + 1
    return "\n".join(parts) + "\n", expected


def test_criterion_4():
    rng = random.Random(20260819)
    cases = 10_000
    bad = None
    for case in range(cases):
        src, expected = _fuzz_case(rng)
        diags = []
        lexemes, markers = scanner.scan(src, "fuzz.cpp", diags)
        if (not in_place_and_apart(src, lexemes, markers)
                or [m.offset for m in markers] != expected or diags):
            bad = (case, src)
            break
    report(4, f"scanner keeps each lexeme and marker in place, with exact "
              f"marker identification, on {cases} fuzz cases", bad is None, repr(bad))


# --------------------------------------------------------------------------
# 5. cross-link closure

def _run_subprocess(sources, out_dir):
    return subprocess.run(
        [sys.executable, "-m", "flowdoc", "all",
         *[str(s) for s in sources], "--out-dir", str(out_dir)],
        capture_output=True, text=True)


def test_criterion_5(tmp_path):
    sources = sorted((FIXTURES / "xlink").glob("*.cpp"))
    full_out = tmp_path / "full"
    proc = _run_subprocess(sources, full_out)
    refs = [r for r in check_links(full_out)
            if r.source.startswith("aux_files/")]
    full_ok = (proc.returncode == 0 and proc.stderr == ""
               and len(refs) == 5 and all(r.ok for r in refs))

    # same corpus with one callee's annotations removed
    broken_src = tmp_path / "src"
    broken_src.mkdir()
    for src in sources:
        text = src.read_text()
        if src.name == "c.cpp":
            text = text.replace("//$ write one log line\n", "")
        (broken_src / src.name).write_text(text)
    broken_out = tmp_path / "broken"
    proc2 = _run_subprocess(sorted(broken_src.glob("*.cpp")), broken_out)
    variant_ok = (proc2.returncode == 0
                  and proc2.stderr.count("[no-link]") == 1
                  and "c_log" in proc2.stderr)

    report(5, "5/5 cross-file links resolve; removing one callee's "
              "annotations gives exactly one no-link warning and exit 0",
           full_ok and variant_ok,
           f"full=({proc.returncode}, {len(refs)} refs, {proc.stderr!r}) "
           f"variant=({proc2.returncode}, {proc2.stderr!r})")


# --------------------------------------------------------------------------
# 6. Doxygen coexistence

_DOXY_STYLES = (
    "/// @brief {0} computes a value.\n/// @param x the input\n",
    "//! {0} in exclamation style.\n//! @return the result\n",
    "/**\n * @brief {0} block style.\n * @param x input value\n */\n",
    "/** \\brief {0} with backslash commands. \\sa other_call */\n",
)


def _write_doxygen_corpus(root):
    count = 0
    for f in range(3):
        parts = ["#include <vector>", ""]
        for k in range(20):
            name = f"api_call_{f}_{k}"
            head = _DOXY_STYLES[k % len(_DOXY_STYLES)].format(name)
            parts.append(f"{head}int {name}(int x) {{\n"
                         f"    // internal note about x\n"
                         f"    return x + {k};\n}}\n")
            count += 1
        (root / f"mod{f}.cpp").write_text("\n".join(parts))
    return count


def test_criterion_6(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    count = _write_doxygen_corpus(corpus)
    sources = sorted(corpus.glob("*.cpp"))

    false_positives = 0
    functions_seen = 0
    for src in sources:
        view = cxx_structure.CodeStream(src.read_text(), src.name, [])
        defs = cxx_structure.find_definitions(view)
        functions_seen += len(defs)
        # markers collected: a highlight's call sites share its line
        false_positives += sum(len({a.line for a in annos})
                               for annos in annotations.collect(view, defs).values())

    out = tmp_path / "out"
    code = run_pipeline(sources, out, "--quiet")
    diagrams = list((out / "aux_files").glob("*.txt")) \
        if (out / "aux_files").is_dir() else []
    dbs = [p for p in out.glob("*.flowdb") if p.read_text()]

    report(6, f"Doxygen corpus of {functions_seen} functions yields zero "
              "diagrams and zero annotations",
           (count >= 50 and functions_seen >= 50 and code == 0
            and not false_positives and not diagrams and not dbs),
           f"count={count} fns={functions_seen} code={code} "
           f"fp={false_positives} diagrams={len(diagrams)}")


# --------------------------------------------------------------------------
# 7. determinism / idempotence

def test_criterion_7(tmp_path):
    sources = ([FIXTURES / "demo" / "main.cpp",
                FIXTURES / "demo" / "src" / "aux.cpp"]
               + sorted((FIXTURES / "xlink").glob("*.cpp")))
    out = tmp_path / "out"
    code1 = run_pipeline(sources, out)
    first = tree_digest(out)
    code2 = run_pipeline(sources, out)
    second = tree_digest(out)
    ok = code1 == 0 and code2 == 0 and first == second and len(first) > 10
    changed = sorted(k for k in first.keys() | second.keys()
                     if first.get(k) != second.get(k))
    report(7, f"two consecutive runs produce byte-identical trees "
              f"({len(first)} files)", ok, f"changed: {changed}")
