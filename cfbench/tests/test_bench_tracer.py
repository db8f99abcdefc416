import types

import pytest

from tracer import Tracer, layer_table, self_times


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 with children 1..4 and 5..9; the first child has a child 2..3.
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def _toy_program():
    mod = types.SimpleNamespace()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def middle(x):
        return mod.leaf(x) + mod.leaf(x)

    def outer(x):
        return mod.middle(x) + mod.helper(x)

    def helper(x):
        return 0

    mod.leaf, mod.middle, mod.outer, mod.helper = leaf, middle, outer, helper
    return mod


def test_spans_calls_folding_and_restore():
    mod = _toy_program()
    original_leaf = mod.leaf
    tracer = Tracer()
    tracer.install([
        (mod, "leaf", "exactnum.mul", None),
        (mod, "middle", "measures.moment", None),
        (mod, "outer", "cli.compute", None),
        (mod, "helper", "cli.compute", None),  # called inside a span of its own name
    ])
    try:
        assert mod.outer(3) == 6
    finally:
        tracer.uninstall()
    assert mod.leaf is original_leaf
    table, by_name = layer_table(tracer)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names.count("cli.compute") == 1
    assert table["exactnum.mul.calls"] == 2
    assert table["measures.moment.calls"] == 1
    assert tracer.span_parent == [-1, 0, 1, 1]
    root = tracer.span_end[0] - tracer.span_start[0]
    assert sum(by_name.values()) == pytest.approx(root)
    modules = ("exactnum", "measures", "cli")
    assert sum(table[f"{m}.self_s"] for m in modules) == pytest.approx(root)


def test_an_exception_counts_once_in_the_span_that_raised_it():
    mod = _toy_program()
    tracer = Tracer()
    tracer.install([(mod, "leaf", "exactnum.mul", None), (mod, "middle", "measures.moment", None)])
    try:
        with pytest.raises(ValueError):
            mod.middle(-1)
    finally:
        tracer.uninstall()
    table, _ = layer_table(tracer)
    assert table["exactnum.errors"] == 1
    assert table["measures.errors"] == 0
