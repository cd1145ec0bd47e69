"""Drift guard: the byte-stable outputs of every report command, pinned by SHA-256.

Each case runs one CLI command with ``--no-timings`` on a fixed noisy
synthetic corpus and hashes what it writes (for ``index-build``, the index
file).  The hashes were recorded before a refactor of the index's write
path and must not move: a change that means to alter a report, a
prediction or the index file re-pins them and says so in CHANGES.md.
"""

import hashlib

import pytest

from botdna.cli import main

from conftest import BOT_KIND_CYCLES, HUMAN_KIND_CYCLES, corpus_to_jsonl, synthetic_corpus


def _corpus(path, seed):
    users = synthetic_corpus(60, 80, seed=seed, noise=0.85,
                             bot_cycles=BOT_KIND_CYCLES, human_cycles=HUMAN_KIND_CYCLES)
    corpus_to_jsonl(users, path)
    return [user.user_id for user in users]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("drift")
    ids = _corpus(root / "gt.jsonl", seed=101)
    _corpus(root / "other.jsonl", seed=202)
    (root / "gt_ids.txt").write_text("\n".join(ids[i] for i in range(len(ids)) if i % 3) + "\n")
    (root / "test_ids.txt").write_text("\n".join(ids[::3]) + "\n")
    assert main(["index-build", str(root / "gt.jsonl"), "--out", str(root / "index.bdix")]) == 0
    return root


CASES = {
    "evaluate": ("evaluate", "{gt}"),
    "evaluate-split-file": ("evaluate", "{gt}", "--split-file", "{root}/gt_ids.txt,{root}/test_ids.txt"),
    "grid-search": ("grid-search", "{gt}", "--k-grid", "3,4", "--threshold-grid", "0.3,0.6",
                    "--alphabet-grid", "B3/B3,B5"),
    # Serially a grid shares each alphabet subset's encodings; in a pool each group encodes alone.
    "grid-search-jobs-2": ("grid-search", "{gt}", "--k-grid", "3,4", "--threshold-grid", "0.3,0.6",
                           "--alphabet-grid", "B3/B3,B5", "--jobs", "2"),
    "early-detection": ("early-detection", "{gt}", "--caps", "20,40,80"),
    "gt-sweep": ("gt-sweep", "{gt}", "--fractions", "0.2,0.5"),
    "cross-dataset": ("cross-dataset", "{gt}", "{other}"),
    "index-query": ("index-query", "{root}/index.bdix", "{other}"),
}

PINNED = {
    "evaluate": "2c8e0dc0837919a0a03fa5a24c0f611bffa45ba6fbd3be7f9bd381facc7ba901",
    "evaluate-split-file": "62f6593824143210b825f4906199bce281a081a78a5a700a3928a7a71a38a0bb",
    "grid-search": "cacabed744174199df7f1c4840625b1fadb8da76e10af1d15a11e4c58dd2bb3a",
    "grid-search-jobs-2": "cacabed744174199df7f1c4840625b1fadb8da76e10af1d15a11e4c58dd2bb3a",
    "early-detection": "aa3ae8e185a39898068348cebe4e374275da90f5364ab1f1aaedc8cbab2ecc5f",
    "gt-sweep": "0621c10fdf27a5a315fcec11e1cbd545485203717a305a41dd7dbe591d60cb77",
    "cross-dataset": "90dc97d4ccc721f4a550706aa7cff0eff55707428f77d97b03477369b32a2641",
    "index-query": "b3d4070f236af2234a1a8e42252cd7bb63dcc4726387274c360af0cc60d8a7cb",
    "index-build": "7986d4827ae649c4a083a10ffa7e8dd4f091739df569f2858cfaceb8ad03976a",
}


def _output(files, name):
    if name == "index-build":
        return (files / "index.bdix").read_bytes()
    paths = {"root": files, "gt": files / "gt.jsonl", "other": files / "other.jsonl"}
    out = files / f"{name}.json"
    argv = [arg.format(**paths) for arg in CASES[name]]
    assert main(argv + ["--no-timings", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_is_pinned(files, name):
    assert hashlib.sha256(_output(files, name)).hexdigest() == PINNED[name]
