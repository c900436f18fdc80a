"""What parsed counts and a persisted run body hold in memory: a slotted
`TaskCounts`, one task string shared by every model's row for that task, and
a run body rendered, hashed and written one model at a time."""

import json
import pickle
import tracemalloc

import pytest

from covertau import TaskCounts, build_manifest, load_run, parse_records, persist_run
from covertau import ingest
from covertau.ingest import read_log


def test_task_counts_has_no_instance_dict():
    tc = TaskCounts("t", 4, 1)
    assert not hasattr(tc, "__dict__")
    with pytest.raises(AttributeError, match="cannot assign to field 'c'"):
        tc.c = 2
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del tc.n
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        tc.extra = 0
    assert (tc.task, tc.n, tc.c) == ("t", 4, 1) and not hasattr(tc, "extra")
    assert pickle.loads(pickle.dumps(tc)) == tc


def test_task_counts_equality_and_hash_are_by_value():
    a, b = TaskCounts("t", 4, 1), TaskCounts("".join(["t"]), 2 + 2, 1)
    assert a == b and hash(a) == hash(b) == hash(("t", 4, 1))
    assert a != TaskCounts("t", 4, 2) and a != TaskCounts("u", 4, 1)
    assert {a, b, TaskCounts("t", 4, 2)} == {a, TaskCounts("t", 4, 2)}


# model, then task: the block path; a blank line sends a block through json.loads
AGGREGATED = [json.dumps({"model": m, "task": f"task-{t}", "n": 4, "c": t}) for m in ("m1", "m2") for t in range(3)]


def _task_identities(counts):
    first, second = counts["m1"], counts["m2"]
    assert [tc.task for tc in first] == [tc.task for tc in second] == ["task-0", "task-1", "task-2"]
    return [a.task is b.task for a, b in zip(first, second)]


@pytest.mark.parametrize("lines", [AGGREGATED, AGGREGATED[:3] + [""] + AGGREGATED[3:]], ids=["blocks", "per-line"])
def test_read_log_shares_one_string_per_task(tmp_path, lines):
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert all(_task_identities(read_log(log).counts))


def test_parse_records_shares_one_string_per_task():
    assert all(_task_identities(parse_records(AGGREGATED).counts))


def test_load_run_shares_one_string_per_task(tmp_path):
    counts = {m: [TaskCounts(f"task-{t}", 4, t) for t in range(3)] for m in ("m1", "m2")}
    path = persist_run(build_manifest(counts, {}, "aggregated"), counts, tmp_path / "run.jsonl")
    assert all(_task_identities(load_run(path)[1]))


def _peak(call):
    """(result, peak bytes traced while `call` runs)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_body_is_rendered_one_model_at_a_time(tmp_path):
    # 10 models x 2000 tasks: a body rendered whole peaks near 3x its size
    counts = {f"model-{m}": [TaskCounts(f"task-{t:05d}", 256, (7 * m + t) % 257) for t in range(2000)]
              for m in range(10)}
    manifest, build_peak = _peak(lambda: build_manifest(counts, {"log": "0" * 64}, "aggregated"))
    path, persist_peak = _peak(lambda: persist_run(manifest, counts, tmp_path / "run.jsonl"))
    chunks = list(ingest._body_chunks(counts))
    body = path.read_bytes().split(b"\n", 1)[1]
    assert len(chunks) == 10 and body == "".join(chunks).encode("utf-8")
    assert build_peak < len(body) / 2, f"build_manifest peaked at {build_peak / len(body):.2f}x the body"
    assert persist_peak < len(body) / 2, f"persist_run peaked at {persist_peak / len(body):.2f}x the body"
