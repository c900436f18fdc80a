"""The bytes of every rendered output, pinned across versions.

Each command runs on one small fixed aggregated log and every file it
writes, plus its stdout, is compared by sha256 against digests recorded
from an earlier version.  Names hold the characters that CSV quoting, SVG
escaping and file-stem mapping treat specially.  Every n is 1, 2 or 4 and
every k a power of two up to 8, so each pass@k term is a dyadic rational
and every float is exact whatever the summation order.  A change to any
renderer, or to `__version__` (bundle provenance), changes a digest here.
"""

import hashlib
import json

import pytest

from covertau.cli import main

M1, M2, M3 = 'm<1>&"x"', "lab/m2", "plain"
COUNTS = [  # (model, task, n, c)
    (M1, "g1/t&1", 4, 3), (M1, "g1/t<2>", 2, 1), (M1, 'g2/"q"', 4, 0), (M1, "g2/t,4", 1, 1), (M1, "g3/t5", 4, 4),
    (M2, "g1/t&1", 4, 1), (M2, "g1/t<2>", 4, 4), (M2, 'g2/"q"', 2, 2), (M2, "g2/t,4", 4, 2), (M2, "g3/t5", 1, 0),
    (M3, "g1/t&1", 2, 1), (M3, "g1/t<2>", 2, 1), (M3, 'g2/"q"', 4, 1), (M3, "g2/t,4", 4, 3), (M3, "g3/t5", 4, 2),
    (M3, "g4/only-plain", 4, 4),
]
K_GRID = ["--k", "1,2,4,8"]
COMMANDS = {
    "compute": ["compute", "--bootstrap", "20", "--group-delimiter", "/", *K_GRID],
    "dominance": ["dominance", *K_GRID],
    "curves": ["curves", *K_GRID],
}
EXPECTED = {
    "compute": {
        "bundle.json": "7de4182e1fedf85f61248922965845922f600805af09eb8e5fd2485f2ce88394",
        "metrics.csv": "6863600548f6ec58a09d8b00cf1885d4bd9367b6de0963753e99df95c9b390d6",
        "stdout": "73f99923104521b32d994e1466d02bdd6e94e7a7befd19db7950a1ae0c4af627",
    },
    "curves": {
        "cover_curve_lab_m2.csv": "1bd3d88acff878e6d9b8d6832499e85260eb335d595aee7f9637d383e2c70908",
        "cover_curve_m_1_x_.csv": "103532ef6c540a824f9d17840723230b54043dd87b80839e17d6ce7448e82dfd",
        "cover_curve_plain.csv": "42f9267adce46cde2a15613c424b94f418109b37c6f91f3763949994459060f2",
        "cover_curves.svg": "41381199039b87205bf076a5d49349751bdedaca073b25e67c09b79ca43927db",
        "pass_curve_lab_m2.csv": "8aac722192dfcf33c35cfd15d54a6f889feec439cc699f00236a0d5786d02aa9",
        "pass_curve_m_1_x_.csv": "d511c7f5b9a6ec886c75dad87880df85fa11a4d1aa6df6f1c256804989ed80bd",
        "pass_curve_plain.csv": "eb4c9c564b501a66013287049a9547ed363d15dfd725b22643cc8bfc592d9a29",
        "pass_curves.svg": "14f74e0d23b6c40142e1c2dcba94a1c446b08dac3a74135dd5fb8381ffec397b",
        "stdout": "cff95ac2c6f81766408029fd5e92648c6e1a8d8ca842fb98c7860ade26a8e6e4",
    },
    "dominance": {
        "dominance.json": "e46a574bc935a091c4d6390024ff0929ed67ff3f76b2d1c0ad909a36eb0a086a",
        "stdout": "6384d9c4d8a6b7ab38318eff6f17b608b8681bb462a807d941988b0f498738ca",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rendered_digests(tmp_path, capsys, command: str) -> dict[str, str]:
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({"model": m, "task": t, "n": n, "c": c}) + "\n" for m, t, n, c in COUNTS),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main([*COMMANDS[command], "--input", str(log), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    return {"stdout": _sha(stdout.encode("utf-8")), **{p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_rendered_bytes_are_pinned(tmp_path, capsys, command):
    assert rendered_digests(tmp_path, capsys, command) == EXPECTED[command]
