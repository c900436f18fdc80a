"""The contract every value type keeps: keyword construction with its
defaults, equality and hash by field, the `Name(field=value, ...)` repr,
pickle and copy round-trips, and no assignment, deletion or new attribute
once built (`SampleTally`, a running tally, is the one mutable type)."""

import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from covertau import (
    CoverCurve,
    CrossoverResult,
    DominanceReport,
    GoldAnswer,
    GuesserSpec,
    PassCurve,
    ProfileSpec,
    RunManifest,
    SampleRecord,
    SuccessProfile,
    TaskCounts,
)
from covertau.ingest import ParsedLog, SampleTally
from covertau.report import ReportBundle, build_report

F = Fraction


def _bundle_fields():
    bundle = build_report({m: [TaskCounts("t0", 4, c), TaskCounts("t1", 2, 1)] for m, c in (("A", 1), ("B", 3))})
    names = ("models", "taus", "k_grid", "aggregation", "metric_names", "metrics", "rankings", "cover_curves",
             "pass_curves", "dominance", "crossovers", "dropped_tasks", "notes", "bootstrap")
    return {name: getattr(bundle, name) for name in names}


# (class, its required fields as keywords, then its defaulted fields and defaults), each in field order
EXAMPLES = [
    (SampleRecord, {"model": "m", "task": "t", "sample_index": 0}, {"answer": None, "correct": None}),
    (TaskCounts, {"task": "t", "n": 4, "c": 1}, {}),
    (SuccessProfile, {"model": "m", "entries": (("t0", F(1, 3)), ("t1", F(1)))}, {}),
    (GoldAnswer, {"task": "t", "answer": "42"}, {}),
    (CoverCurve, {"model": "m", "breakpoints": (F(0), F(1, 2), F(1)), "values": (F(1), F(1, 2), F(0)),
                  "num_tasks": 2}, {}),
    (PassCurve, {"model": "m", "ks": (1, 2), "values": (0.5, 0.75)}, {}),
    (CrossoverResult, {"pair": ("a", "b"), "k_star": None, "direction": "no crossover"}, {}),
    (DominanceReport, {"models": ("a", "b"), "auc_plus": ((F(0), F(1, 4)), (F(0), F(0))),
                       "avg_auc_plus": (F(1, 4), F(0)), "rankings": {"avg_auc_plus": [("a", 0.25, 1), ("b", 0.0, 2)]}},
     {}),
    (SampleTally, {}, {"stop": 0, "ahead": set(), "n": 0, "c": 0, "answers": Counter(), "first_ungraded": None}),
    (ParsedLog, {"records": None, "counts": {"m": [TaskCounts("t", 4, 1)]}}, {"source": "<stream>", "digest": None}),
    (RunManifest, {"run_id": "r", "source_digests": {"log": "0" * 64}, "record_count": 1, "verdict_source": "flags"},
     {}),
    (ReportBundle, _bundle_fields(), {"provenance": {}}),
    (GuesserSpec, {"support_size": 2, "tasks": 1, "trials": 3, "seed": 0}, {"model": "guesser"}),
    (ProfileSpec, {"kind": "constant-p", "tasks": 1},
     {"seed": 0, "model": "synthetic", "p": None, "low": None, "high": None, "ratio": None, "values": None}),
]
IDS = [cls.__name__ for cls, _, _ in EXAMPLES]


@pytest.fixture(params=EXAMPLES, ids=IDS)
def example(request):
    cls, required, defaults = request.param
    return cls, cls(**required), {**required, **defaults}


def test_keyword_construction_and_defaults(example):
    cls, value, fields = example
    assert type(value) is cls
    assert {name: getattr(value, name) for name in fields} == fields


def test_equality_and_hash_are_by_field(example):
    cls, value, fields = example
    twin = cls(**fields)
    assert value == twin and not value != twin
    assert value != object() and value != fields
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:  # a field is a dict or a set
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == expected


def test_repr_names_every_field(example):
    cls, value, fields = example
    assert repr(value) == f"{cls.__name__}({', '.join(f'{name}={field!r}' for name, field in fields.items())})"


def test_pickle_and_copy_round_trip(example):
    cls, value, fields = example
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value
        assert {name: getattr(twin, name) for name in fields} == fields


def test_no_instance_dict_and_no_new_attribute(example):
    cls, value, fields = example
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 0
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("cls, required, defaults", [e for e in EXAMPLES if e[0] is not SampleTally],
                         ids=[name for name in IDS if name != "SampleTally"])
def test_fields_are_neither_assigned_nor_deleted(cls, required, defaults):
    value, fields = cls(**required), {**required, **defaults}
    for name, field in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == fields


def test_sample_tally_is_mutable_and_unhashable():
    tally = SampleTally()
    tally.n += 2
    tally.ahead.add(5)
    assert tally == SampleTally(n=2, ahead={5}) and tally != SampleTally()
    assert SampleTally.__hash__ is None
    # each tally gets its own set and counter
    assert SampleTally().ahead is not SampleTally().ahead and SampleTally().answers is not SampleTally().answers


def test_parsed_logs_differing_only_in_digest_are_equal():
    counts = {"m": [TaskCounts("t", 4, 1)]}
    a, b = ParsedLog(None, counts, "log.jsonl", "a" * 64), ParsedLog(None, counts, "log.jsonl", "b" * 64)
    assert a == b and a.digest != b.digest
    assert a != ParsedLog(None, counts, "other.jsonl", "a" * 64)
    assert pickle.loads(pickle.dumps(a)).digest == "a" * 64


def test_equality_needs_the_same_class():
    class Counts(TaskCounts):
        __slots__ = ()

    assert Counts("t", 4, 1) == Counts("t", 4, 1) and hash(Counts("t", 4, 1)) == hash(("t", 4, 1))
    assert Counts("t", 4, 1) != TaskCounts("t", 4, 1) and TaskCounts("t", 4, 1) != Counts("t", 4, 1)
