import math

from hypothesis import given
from hypothesis import strategies as st

from flowdoc.activity_ir import (ActionNode, BranchArm, BranchNode, ForkNode,
                                 LoopNode, StopNode, project)
from flowdoc.cli import main
from flowdoc.plantuml_emit import _texts, render_function


def emit(root):
    """Render one (already projected) activity tree to PlantUML text: the
    reference each zoom level of ``render_function`` is checked against."""
    return _texts(root, [math.inf])[0]


def tree(*nodes):
    return list(nodes) + [StopNode()]


class TestActions:
    def test_plain_action(self):
        assert emit(tree(ActionNode("do a thing"))) == (
            "@startuml\nstart\n:do a thing;\nstop\n@enduml\n")

    def test_action_with_linked_call(self):
        node = ActionNode("call shower",
                          calls=[("VINCIA::shower()", "aux.html#VINCIA__shower")])
        assert emit(tree(node)) == (
            "@startuml\nstart\n:call shower\n"
            "[[../aux.html#VINCIA__shower VINCIA::shower()]];\n"
            "stop\n@enduml\n")

    def test_unlinked_call_is_plain_text(self):
        node = ActionNode("", calls=[("mystery()", None)])
        assert ":mystery();" in emit(tree(node))

    def test_empty_action_renders_a_box(self):
        assert ": ;" in emit(tree(ActionNode("")))

    def test_semicolon_ending_gets_padding_when_not_last(self):
        node = ActionNode("reset;", calls=[("go()", None)])
        assert ":reset; \ngo();" in emit(tree(node))

    def test_final_line_keeps_its_ending(self):
        assert ":reset;;" in emit(tree(ActionNode("reset;")))

    def test_link_opener_in_text_is_broken_up(self):
        assert ":see [ [here;" in emit(tree(ActionNode("see [[here")))

    def test_tabs_and_newlines_become_spaces(self):
        assert ":a b c;" in emit(tree(ActionNode("a\tb\nc")))


class TestConstructs:
    def test_branch_full_chain(self):
        node = BranchNode([
            BranchArm("a", [ActionNode("one")]),
            BranchArm("b", [ActionNode("two")]),
            BranchArm(None, [ActionNode("three")], is_else=True)])
        assert emit(tree(node)) == (
            "@startuml\nstart\n"
            "if (a) then (yes)\n:one;\n"
            "elseif (b) then (yes)\n:two;\n"
            "else (no)\n:three;\n"
            "endif\nstop\n@enduml\n")

    def test_described_else(self):
        node = BranchNode([
            BranchArm("a", [ActionNode("one")]),
            BranchArm("fallback", [ActionNode("two")], is_else=True)])
        assert "else (fallback)" in emit(tree(node))

    def test_while_loop(self):
        node = LoopNode(False, "has input",
                        [ActionNode("consume")])
        assert emit(tree(node)) == (
            "@startuml\nstart\nwhile (has input)\n:consume;\n"
            "endwhile\nstop\n@enduml\n")

    def test_do_while_loop(self):
        node = LoopNode(True, "retry needed",
                        [ActionNode("attempt")])
        assert emit(tree(node)) == (
            "@startuml\nstart\nrepeat\n:attempt;\n"
            "repeat while (retry needed)\nstop\n@enduml\n")

    def test_fork(self):
        node = ForkNode([ActionNode("a"), ActionNode("b"), ActionNode("c")])
        assert emit(tree(node)) == (
            "@startuml\nstart\nfork\n:a;\nfork again\n:b;\n"
            "fork again\n:c;\nend fork\nstop\n@enduml\n")

    def test_stop_with_text(self):
        out = emit([StopNode("return value")])
        assert out == "@startuml\nstart\n:return value;\nstop\n@enduml\n"

    def test_label_whitespace_collapses(self):
        node = BranchNode([BranchArm("a  &&\n b", [ActionNode("x")])])
        assert "if (a && b) then (yes)" in emit(tree(node))

    def test_empty_label_placeholder(self):
        node = BranchNode([BranchArm("", [ActionNode("x")])])
        assert "if (...) then (yes)" in emit(tree(node))


class TestRenderFunction:
    def two_level_tree(self):
        return [ActionNode("coarse", zoom=0), ActionNode("fine", zoom=1), StopNode()]

    def test_one_file_per_zoom_under_aux_files(self, tmp_path, capsys):
        src = tmp_path / "b.cpp"
        src.write_text("void B::go() {\n//$ coarse\na();\n//$1 fine\nb();\n}\n")
        assert main(["makeflows", str(src), "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        aux = tmp_path / "out" / "aux_files"
        assert sorted(p.name for p in aux.iterdir()) == [
            "b__B__go__zoom0.txt", "b__B__go__zoom1.txt"]
        assert [(aux / f"b__B__go__zoom{k}.txt").read_text()
                for k in (0, 1)] == render_function(self.two_level_tree(), 1)

    def test_projection_applied_per_level(self):
        texts = render_function(self.two_level_tree(), 1)
        assert ":fine;" not in texts[0]
        assert ":fine;" in texts[1]

    def test_default_link_base_points_up(self):
        t = [ActionNode("x", calls=[("g()", "c.html#g")]), StopNode()]
        assert "[[../c.html#g g()]]" in render_function(t, 0)[0]

    def test_filename_shape(self, tmp_path, capsys):
        # <stem>__<anchor>__zoom<level>.txt, the page's image the same name as .svg
        src = tmp_path / "main.cpp"
        src.write_text("void ns::f(int) {\n//$ a\nx();\n}\n"
                       "void ns::f(double) {\n//$3 deep\ny();\n}\n")
        out = tmp_path / "out"
        assert main(["all", str(src), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert "main__ns__f__2__zoom3.txt" in {p.name for p in (out / "aux_files").iterdir()}
        assert 'data="aux_files/main__ns__f__2__zoom3.svg"' in (out / "main.html").read_text()

    def test_deterministic(self):
        assert (render_function(self.two_level_tree(), 1)
                == render_function(self.two_level_tree(), 1))


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_any_action_text_stays_on_marked_lines(text):
    out = emit(tree(ActionNode(text)))
    lines = out.split("\n")[:-1]
    assert lines[0] == "@startuml" and lines[-1] == "@enduml"
    body = lines[2:-2]  # between "start" and "stop"
    assert body[0].startswith(":") and body[-1].endswith(";")
    for line in body:
        assert "[[" not in line


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_any_label_emits_one_balanced_if_line(label):
    out = emit(tree(BranchNode([BranchArm(label, [ActionNode("x")])])))
    if_lines = [l for l in out.splitlines() if l.startswith("if (")]
    assert len(if_lines) == 1
    assert if_lines[0].endswith(") then (yes)")


# Activity trees of every node shape, nested up to 5 constructs deep. The
# texts may hold any character, so escaping is exercised along the way.
_words = st.text(max_size=4)
_zooms = st.integers(0, 9)
_actions = st.builds(
    ActionNode, _words, _zooms,
    calls=st.lists(st.tuples(_words, st.none() | _words),
                   max_size=2))
_forks = _zooms.flatmap(lambda z: st.lists(
    st.builds(ActionNode, _words, st.just(z), st.just(True)),
    min_size=2, max_size=3)).map(ForkNode)
_stops = st.builds(StopNode, st.none() | _words)


def _sequences(depth):
    leaves = _actions | _forks | _stops
    if depth == 0:
        return st.lists(leaves, max_size=3)
    inner = _sequences(depth - 1)
    arms = st.tuples(
        st.builds(BranchArm, _words, inner),
        st.lists(st.builds(BranchArm, _words, inner), max_size=2),
        st.none() | st.builds(BranchArm, st.none() | _words, inner,
                              st.just(True)))
    branches = arms.map(lambda a: BranchNode(
        [a[0], *a[1]] + ([a[2]] if a[2] else [])))
    loops = st.builds(LoopNode, st.booleans(), _words, inner)
    return st.lists(leaves | branches | loops, max_size=3)


def _max_zoom(nodes):
    zooms = [0]
    for node in nodes:
        if isinstance(node, ActionNode):
            zooms.append(node.zoom)
        elif isinstance(node, ForkNode):
            zooms.append(node.actions[0].zoom)
        elif isinstance(node, BranchNode):
            zooms += [_max_zoom(arm.body) for arm in node.arms]
        elif isinstance(node, LoopNode):
            zooms.append(_max_zoom(node.body))
    return max(zooms)


@given(_sequences(5))
def test_one_walk_gives_each_projected_level(t):
    max_zoom = _max_zoom(t)
    assert render_function(t, max_zoom) == [emit(project(t, level))
                                            for level in range(max_zoom + 1)]
