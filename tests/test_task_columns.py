"""`TaskColumns`, the form the loaders give each model's counts in: three
columns read as a `Sequence[TaskCounts]` that equals the list of
`TaskCounts` it stands for, and reports the same bytes as that list."""

import copy
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau import TaskColumns, TaskCounts
from covertau.report import build_report, bundle_json

# n up to past int64, where a column holds Python ints instead of array('q')
trials = st.one_of(st.integers(1, 300), st.integers(1, 2**70)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))
)
rows = st.dictionaries(st.text(min_size=1, max_size=4), trials, min_size=1, max_size=12).map(
    lambda by_task: [TaskCounts(task, n, c) for task, (n, c) in sorted(by_task.items())]
)


def columns(counts):
    """The view of sorted `counts`, its n and c in array('q') where they fit."""
    tasks, n, c = [tc.task for tc in counts], [tc.n for tc in counts], [tc.c for tc in counts]
    if max(n) < 2**63:
        n, c = array("q", n), array("q", c)
    return TaskColumns(tasks, n, c)


@settings(max_examples=300, deadline=None)
@given(rows, st.data())
def test_view_equals_the_list_it_stands_for(counts, data):
    view = columns(counts)
    assert view == counts and counts == view and not view != counts and not counts != view
    assert view == TaskColumns.of(counts) == TaskColumns.of(list(reversed(counts)))
    assert TaskColumns.of(view) is view
    assert len(view) == len(counts) and list(view) == counts
    i = data.draw(st.integers(0, len(counts) - 1))
    assert view[i] == counts[i] and view[-1 - i] == counts[-1 - i]
    start, stop = data.draw(st.integers(-15, 15)), data.draw(st.integers(-15, 15))
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    assert view[start:stop:step] == counts[start:stop:step]
    assert pickle.loads(pickle.dumps(view)) == counts and copy.deepcopy(view) == counts
    if len(counts) > 1:
        assert view != counts[:-1] and counts[1:] != view and view != list(reversed(counts))
    assert view != tuple(counts)  # as a list is not equal to a tuple


@settings(max_examples=100, deadline=None)
@given(rows, rows)
def test_report_of_views_is_the_report_of_lists(first, second):
    shared = first[:1] + [tc for tc in second if tc.task != first[0].task]
    counts = {"A": first, "B": sorted(shared, key=lambda tc: tc.task)}
    views = {model: columns(tcs) for model, tcs in counts.items()}
    assert bundle_json(build_report(views)) == bundle_json(build_report(counts))


def test_out_of_order_rows_are_sorted_by_task():
    view = TaskColumns._take(["b", "c", "a"], array("q", [2, 3, 1]), array("q", [0, 3, 1]))
    assert view == [TaskCounts("a", 1, 1), TaskCounts("b", 2, 0), TaskCounts("c", 3, 3)]
    assert view.n == array("q", [1, 2, 3]) and view.c == array("q", [1, 0, 3])
    assert TaskColumns._take(view.tasks, view.n, view.c, [0, 2]) == [view[0], view[2]]


def test_take_builds_no_checked_columns(monkeypatch):
    # its callers hand it rows that are checked already
    monkeypatch.setattr(TaskColumns, "__init__", lambda self, *columns: pytest.fail("columns checked again"))
    assert TaskColumns._take(["b", "a"], [1, 2], [0, 2]) == [TaskCounts("a", 2, 2), TaskCounts("b", 1, 0)]


def test_tuple_columns_are_taken_into_lists():
    view = TaskColumns._take(("t2", "t1"), (4, 5), (1, 2))
    assert (view.tasks, view.n, view.c) == (["t1", "t2"], [5, 4], [2, 1])
    counts = {"a": TaskColumns(("t1", "t2"), (4, 4), (1, 2)), "b": TaskColumns(("t1",), (4,), (1,))}
    lists = {"a": [TaskCounts("t1", 4, 1), TaskCounts("t2", 4, 2)], "b": [TaskCounts("t1", 4, 1)]}
    bundle = build_report(counts)
    assert bundle.dropped_tasks == {"a": ("t2",)}
    assert bundle_json(bundle) == bundle_json(build_report(lists))


@pytest.mark.parametrize(
    "tasks, n, c, message",
    [
        (["b", "a"], [1, 1], [0, 0], "tasks must be unique and in sorted order"),
        (["a", "a"], [1, 1], [0, 0], "tasks must be unique and in sorted order"),
        (["a"], [1, 2], [0], "columns differ in length: 1 tasks, 2 n and 1 c"),
        ([""], [1], [0], "task must be a nonempty string, got ''"),
        (["a", "b\ud800"], [1, 1], [0, 0], "task 'b\\\\ud800' holds a surrogate code point, which UTF-8 cannot encode"),
        (["a", "b"], [1, 0], [0, 0], "n must be >= 1 for task 'b', got 0"),
        (["a", "b"], [2, 2], [1, 3], r"need 0 <= c <= n for task 'b', got c=3, n=2"),
        (["a"], [2], [-1], r"need 0 <= c <= n for task 'a', got c=-1, n=2"),
        (["a"], [True], [0], "n must be an integer for task 'a', got True"),
        (["a"], [2], [1.0], "c must be an integer for task 'a', got 1.0"),
    ],
)
def test_constructor_rejects_what_task_counts_rejects(tasks, n, c, message):
    with pytest.raises(ValueError, match=message):
        TaskColumns(tasks, n, c)


def test_view_is_read_only_and_unhashable():
    view = TaskColumns(["a"], array("q", [2]), array("q", [1]))
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        view.n = array("q", [3])
    with pytest.raises(TypeError):
        view[0] = TaskCounts("a", 2, 2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(view)
    assert not hasattr(view, "append") and not hasattr(view, "__dict__")
