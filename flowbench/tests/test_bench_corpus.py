"""The generator is a pure function of (workload, seed)."""

import pytest

import corpus


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_corpus_and_oracle(workload):
    a, b = corpus.generate(workload, 7), corpus.generate(workload, 7)
    assert a.files == b.files
    assert a.oracle_json() == b.oracle_json()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_seed_changes_names_but_not_shape(workload):
    a, b = corpus.generate(workload, 1), corpus.generate(workload, 2)
    assert a.files != b.files
    assert len(a.files) == len(b.files)
    assert a.source_lines == b.source_lines
    assert len(a.oracle["diagrams"]) == len(b.oracle["diagrams"])
    assert a.oracle["diagnostics"] == b.oracle["diagnostics"]


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        corpus.generate("nope", 1)


def test_workload_shapes():
    mono = corpus.generate("monolith", 1)
    assert len(mono.files) == 2
    assert len(mono.oracle["index"]) == 80
    many = corpus.generate("many-files", 1)
    assert len(many.oracle["flowdb"]) == 100
    assert {"ambiguous-callee", "no-link"} == set(many.oracle["diagnostics"])
    fan = corpus.generate("zoom-fanout", 1)
    assert max(int(name.rsplit("zoom", 1)[1][:-4])
               for name in fan.oracle["diagrams"]) == 9
    assert 200 <= len(corpus.generate("render", 1).oracle["diagrams"]) <= 400
