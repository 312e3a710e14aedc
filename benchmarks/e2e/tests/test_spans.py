import types

import pytest

import spans
from spans import Recorder, SpanRow, aggregate, install, root_ns


def test_self_time_with_nested_and_sibling_children():
    # root [0, 100) has siblings a [10, 30) and b [40, 90); b has a
    # nested child c [50, 70).
    trace = [
        (0, -1, "root", 0, 100, 7),
        (1, 0, "a", 10, 30, 7),
        (2, 0, "b", 40, 90, 7),
        (3, 2, "c", 50, 70, 7),
    ]
    totals = aggregate(trace)
    assert totals["root"].total_ns == 100
    assert totals["root"].self_ns == 100 - 20 - 50   # siblings, not c
    assert totals["b"].self_ns == 50 - 20
    assert totals["a"].self_ns == 20 and totals["c"].self_ns == 20
    assert root_ns(trace) == 100
    # Self times partition the root: nothing is counted twice.
    assert sum(entry.self_ns for entry in totals.values()) == 100


def test_same_name_spans_fold_together():
    totals = aggregate([(0, -1, "x", 0, 10, 0), (1, -1, "x", 20, 50, 1)])
    assert totals["x"].calls == 2
    assert totals["x"].total_ns == 40
    assert totals["x"].mean_us == pytest.approx(0.02)


def _toy_module():
    module = types.ModuleType("toy_layer")

    def inner(value):
        return value + 1

    def outer(value):
        return module.inner(value) * 2

    def broken():
        raise KeyError("boom")

    module.inner, module.outer, module.broken = inner, outer, broken
    return module


def _toy_table(monkeypatch, rows):
    module = _toy_module()
    monkeypatch.setitem(__import__("sys").modules, "toy_layer", module)
    return module, tuple(SpanRow(name, "toy_layer", attr, **extra)
                         for name, attr, extra in rows)


def test_install_records_parents_and_uninstall_restores(monkeypatch):
    module, table = _toy_table(monkeypatch, [
        ("toy.outer_us", "outer", {}),
        ("toy.inner_us", "inner",
         {"counts": (("toy.odd", lambda result: result % 2 == 1),)}),
    ])
    originals = (module.outer, module.inner)
    with install(table=table) as installed:
        assert module.outer is not originals[0]
        installed.recorder.op = 41
        assert module.outer(2) == 6
    assert (module.outer, module.inner) == originals

    recorded = list(installed.recorder.spans())
    by_name = {name: (sid, parent, op)
               for sid, parent, name, _, _, op in recorded}
    assert by_name["toy.outer_us"][1] == -1
    assert by_name["toy.inner_us"][1] == by_name["toy.outer_us"][0]
    # inner(2) == 3 is odd: one zero-length mark under the inner span.
    assert by_name["toy.odd"][1] == by_name["toy.inner_us"][0]
    assert {op for _, _, op in by_name.values()} == {41}
    assert aggregate(recorded)["toy.odd"].total_ns == 0


def test_span_closes_when_the_wrapped_call_raises(monkeypatch):
    module, table = _toy_table(monkeypatch, [("toy.broken_us", "broken", {})])
    with install(table=table) as installed:
        with pytest.raises(KeyError):
            module.broken()
        module.broken.__wrapped__  # still the wrapper inside the block
    assert len(installed.recorder) == 1


def test_missing_attribute_is_a_hard_error_and_leaves_nothing_wrapped(
        monkeypatch):
    module, table = _toy_table(monkeypatch, [
        ("toy.outer_us", "outer", {}),
        ("toy.gone_us", "moved_elsewhere", {}),
    ])
    original = module.outer
    with pytest.raises(AttributeError, match="moved_elsewhere"):
        install(table=table)
    assert module.outer is original


def test_the_real_table_installs_and_restores_every_binding():
    before = [vars(spans._resolve(row.owner))[row.attr]
              for row in spans.SPAN_TABLE]
    with install() as installed:
        during = [vars(spans._resolve(row.owner))[row.attr]
                  for row in spans.SPAN_TABLE]
        assert all(a is not b for a, b in zip(before, during))
        assert installed.recorder.names[:len(before)] == [
            row.name for row in spans.SPAN_TABLE]
    after = [vars(spans._resolve(row.owner))[row.attr]
             for row in spans.SPAN_TABLE]
    assert all(a is b for a, b in zip(before, after))


def test_missing_rows_are_reported_per_binding(monkeypatch):
    module, table = _toy_table(monkeypatch, [
        ("toy.shared_us", "outer", {"on": ("w",)}),
        ("toy.shared_us", "broken", {"on": ("w",)}),
    ])
    with install(table=table) as installed:
        module.outer(1)
    missing = spans.missing_rows(installed.recorder, "w", table)
    assert missing == ["no call recorded for toy.shared_us (toy_layer.broken)"]
    assert spans.missing_rows(installed.recorder, "other", table) == []


def test_drop_before_and_ndjson_round_trip(tmp_path):
    recorder = Recorder()
    recorder.names = ["n"]
    for op in (-1, 3, 5, 9):
        recorder.op = op
        recorder.close(recorder.open(0))
    recorder.drop_before(5)
    assert [span[5] for span in recorder.spans()] == [5, 9]
    path = tmp_path / "trace.ndjson"
    spans.write_ndjson(path, recorder, {"workload": "w"})
    read, trailer = spans.read_ndjson(path)
    assert trailer == {"workload": "w"}
    assert [(s[0], s[2], s[5]) for s in read] == [(2, "n", 5), (3, "n", 9)]
    assert min(s[3] for s in read) == 0    # no absolute clock reading
