"""One rule for a random stream, and one set of flags per `simulate` kind.

`records.random_stream(seed, stream)` is the only constructor of a numpy
`Generator` in the package: Philox keyed on (seed mod 2**64, stream).  A
simulated log's task i draws from stream i, and every other use from a named
stream far above any task index, so the uniform-random profile's p values
are independent of every task's trials.

`simulate` refuses a flag that only another kind takes, before it draws.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import covertau
import covertau.cli
from covertau import ProfileSpec, make_profile, simulate_completions
from covertau.cli import MAX_TASKS, main
from covertau.records import BOOTSTRAP_STREAM, PROFILE_STREAM, random_stream

GENERATOR_BUILDERS = ("Philox", "Generator", "default_rng", "RandomState", "PCG64", "MT19937", "SFC64")


def uniform_random_log(seed, tasks, trials):
    """(p values, {task: [verdict per trial]}) of a uniform-random profile's simulated log."""
    profile = make_profile(ProfileSpec(kind="uniform-random", tasks=tasks, seed=seed))
    verdicts = {task: [] for task in profile.tasks}
    for record in simulate_completions(profile, trials, seed):
        verdicts[record.task].append(record.correct)
    return profile.probabilities, verdicts


class TestStreams:
    def test_named_streams_are_distinct_and_above_every_task_index(self):
        streams = (BOOTSTRAP_STREAM, PROFILE_STREAM)
        assert len(set(streams)) == len(streams)
        assert all(stream > MAX_TASKS for stream in streams)
        assert [stream.to_bytes(4, "big") for stream in streams] == [b"boot", b"prof"]

    @pytest.mark.parametrize("seed", [0, 3, -1, 2**64 + 5, -(2**70)])
    def test_a_stream_is_philox_keyed_on_the_seed_mod_2_64(self, seed):
        key = np.array([seed % 2**64, BOOTSTRAP_STREAM], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).integers(0, 1000, size=50)
        assert random_stream(seed, BOOTSTRAP_STREAM).integers(0, 1000, size=50).tolist() == expected.tolist()
        assert random_stream(seed + 2**64, BOOTSTRAP_STREAM).integers(0, 1000, size=50).tolist() == expected.tolist()

    def test_task_i_draws_from_stream_i(self):
        profile = make_profile(ProfileSpec(kind="constant-p", tasks=3, p=Fraction(1, 7)))
        records = simulate_completions(profile, 20, 11)
        for i, task in enumerate(profile.tasks):
            verdicts = [r.correct for r in records if r.task == task]
            assert verdicts == (random_stream(11, i).integers(0, 7, size=20) < 1).tolist()

    def test_random_stream_is_the_only_generator_in_the_package(self):
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in Path(covertau.__file__).parent.glob("*.py")}
        counts = {name: len(generator_calls(tree)) for name, tree in trees.items()}
        assert {name: n for name, n in counts.items() if n} == {"records.py": 2}
        function = next(node for node in ast.walk(trees["records.py"])
                        if isinstance(node, ast.FunctionDef) and node.name == "random_stream")
        assert len(generator_calls(function)) == 2


def generator_calls(node):
    """The calls under `node` that build a numpy bit generator or `Generator`."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", None)) in GENERATOR_BUILDERS]


class TestUniformRandomProfile:
    def test_the_first_trial_of_t0000_passes_at_its_rate(self):
        # p_0 is uniform on [0, 1], so the first trial passes in about half the seeds
        passes = sum(uniform_random_log(seed, 8, 1)[1]["t0000"][0] for seed in range(200))
        assert passes >= 60

    def test_t0000_trials_do_not_follow_the_other_tasks_p_values(self):
        # trial j of t0000 and "p_j < p_0" agree on 2/3 of trials when they
        # are independent, and on every trial when they share one stream
        agree = total = 0
        for seed in range(50):
            ps, verdicts = uniform_random_log(seed, 64, 64)
            for j in range(1, 64):
                agree += verdicts["t0000"][j] == (ps[j] < ps[0])
                total += 1
        assert agree < 0.9 * total


class TestKindFlags:
    @pytest.mark.parametrize("argv, err", [
        (["--kind", "uniform-random", "--p", "0.3", "--low", "0.1"], "--p applies to the constant-p kind only"),
        (["--kind", "uniform-random", "--low", "0.1"], "--low applies to the two-point kind only"),
        (["--kind", "constant-p", "--p", "1/2", "--ratio", "1/2"], "--ratio applies to the two-point kind only"),
        (["--kind", "guesser", "--p", "0.3"], "--p applies to the constant-p kind only"),
        (["--kind", "guesser", "--high", "1"], "--high applies to the two-point kind only"),
        (["--kind", "constant-p", "--p", "1/2", "--gold-out", "{d}/gold.jsonl"],
         "--gold-out applies to the guesser kind only"),
    ], ids=["p-low-to-uniform", "low-to-uniform", "ratio-to-constant", "p-to-guesser", "high-to-guesser",
            "gold-out-to-constant"])
    def test_a_flag_of_another_kind_is_refused_before_any_draw(self, tmp_path, monkeypatch, capsys, argv, err):
        def draw(*args):
            raise AssertionError("drew")

        for name in ("make_profile", "guesser_profile", "guesser_log", "completions_log"):
            monkeypatch.setattr(covertau.cli, name, draw)
        argv = [arg.format(d=tmp_path) for arg in argv]
        assert main(["simulate", *argv, "--tasks", "2", "--trials", "3", "--out", str(tmp_path / "log.jsonl")]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert list(tmp_path.iterdir()) == []
