"""Each setting has one rule, and every entry point taking the setting follows it.

A table per setting gives its boundary values, whether the rule accepts
each, and the entry points that take the setting.  An entry point refuses
a value with ``ValueError``; the signature readers and the index file
reader raise ``FormatError``, and the command line exits 2 naming the
setting before it reads any file.
"""

import json
import math
import re

import numpy as np
import pytest

from botdna.classify import classify, classify_many
from botdna.cli import main
from botdna.data import Dataset, SplitSpec, cap_tweets
from botdna.encoding import DnaSequence
from botdna.errors import FormatError
from botdna.lsh import BandingPlan, LshIndex, lsh_plan
from botdna.minhash import MinHashSignature, minhash, rng_for, shingle
from botdna.pipeline import RunConfig, check_caps, early_detection, grid_configs, grid_search, gt_sweep

from conftest import signature_blob, synthetic_corpus
from test_lsh import read_index_file, small_index, write_index_file

NAN = float("nan")

# setting -> {value: accepted by the rule}
RULES = {
    "num_perm": {1: False, 2: True, 8192: True, 8193: False},
    "seed": {-1: False, 0: True, 2**64 - 1: True, 2**64: False},
    "threshold": {0.0: False, 1.0: True, 1.5: False, NAN: False},
    "jaccard_floor": {-0.1: False, 0.0: True, 1.0: True, 1.5: False, NAN: False},
    "k_shingle": {0: False, 1: True, 15: True, 16: False},
    "gt_fraction": {0.0: False, 0.5: True, 1.0: False},
    "max_tweets": {0: False, 1: True},
    "jobs": {0: False, 1: True},
}


def tiny_dataset():
    return Dataset("tiny", synthetic_corpus(8, 12, seed=3))


def one_user_index(num_perm=8):
    index = LshIndex(BandingPlan(0.5, 4, num_perm // 4), num_perm, 1)
    index.insert(MinHashSignature("a", num_perm, 1, np.arange(num_perm, dtype=np.uint64)), "bot")
    return index


def probe(num_perm=8):
    return MinHashSignature("q", num_perm, 1, np.arange(num_perm, dtype=np.uint64))


def blob_round_trip(num_perm=8, seed=5):
    """Read a blob packed by hand, which ``to_bytes`` packs back the same."""
    if not 0 <= seed < 1 << 64:  # no blob carries it, and no signature holds it
        MinHashSignature("u", num_perm, seed, np.zeros(num_perm, dtype=np.uint64))
    blob = signature_blob("u", num_perm, seed, np.zeros(num_perm))
    assert MinHashSignature.from_bytes(blob).to_bytes() == blob


def debug_json_round_trip(num_perm=8, seed=5):
    """Read a document written by hand, which ``to_debug_json`` writes back the same."""
    doc = {"format": "minhash-signature", "version": 1, "user_id": "u", "num_perm": num_perm,
           "seed": seed, "values": [0] * num_perm}
    assert json.loads(MinHashSignature.from_debug_json(json.dumps(doc)).to_debug_json()) == doc


def index_file(tmp_path, **changes):
    """Load an index file whose header carries ``changes`` (an empty index when they name num_perm)."""
    _, path = small_index(tmp_path)
    fields, body = read_index_file(path)
    if "num_perm" in changes:
        fields |= {"bands": 1, "rows": changes["num_perm"], "users": 0}
        body = bytes(8)  # no users: one id offset, nothing else
    write_index_file(path, fields | changes, body)
    LshIndex.load(path)


def cli_option(tmp_path, capsys, option, value):
    """Run evaluate with one option against a missing file; the error says which check stopped it."""
    capsys.readouterr()
    assert main(["evaluate", str(tmp_path / "missing.jsonl"), option, str(value)]) == 2
    err = capsys.readouterr().err
    if "no such file" not in err:
        raise ValueError(err)


# setting -> {entry point name: a call taking (value, tmp_path, capsys)}
ENTRY_POINTS = {
    "num_perm": {
        "RunConfig": lambda v, *_: RunConfig(num_perm=v),
        "MinHashSignature": lambda v, *_: MinHashSignature("u", v, 1, np.zeros(round(v), dtype=np.uint64)),
        "lsh_plan": lambda v, *_: lsh_plan(0.5, v),
        "minhash": lambda v, *_: minhash(shingle(DnaSequence("u", ("B3",), "ACTA"), 2), v, 1),
        "LshIndex": lambda v, *_: LshIndex(BandingPlan(0.5, 1, v), v, 1),
        "to_bytes->from_bytes": lambda v, *_: blob_round_trip(num_perm=v),
        "from_debug_json": lambda v, *_: debug_json_round_trip(num_perm=v),
        "index file": lambda v, tmp, _: index_file(tmp, num_perm=v),
        "cli --num-perm": lambda v, tmp, cap: cli_option(tmp, cap, "--num-perm", v),
    },
    # The blob stores its seed as a u64, so it cannot carry a refused one.
    "seed": {
        "RunConfig": lambda v, *_: RunConfig(seed=v),
        "MinHashSignature": lambda v, *_: MinHashSignature("u", 8, v, np.zeros(8, dtype=np.uint64)),
        "SplitSpec": lambda v, *_: SplitSpec(seed=v),
        "rng_for": lambda v, *_: rng_for(v, 1),
        "minhash": lambda v, *_: minhash(shingle(DnaSequence("u", ("B3",), "ACTA"), 2), 8, v),
        "LshIndex": lambda v, *_: LshIndex(BandingPlan(0.5, 4, 2), 8, v),
        "to_bytes->from_bytes": lambda v, *_: blob_round_trip(seed=v),
        "from_debug_json": lambda v, *_: debug_json_round_trip(seed=v),
        "index file": lambda v, tmp, _: index_file(tmp, seed=v),
        "cli --seed": lambda v, tmp, cap: cli_option(tmp, cap, "--seed", v),
    },
    "threshold": {
        "RunConfig": lambda v, *_: RunConfig(threshold=v),
        "grid_configs": lambda v, *_: grid_configs(RunConfig(), [4], [v], [("B3",)]),
        "lsh_plan": lambda v, *_: lsh_plan(v, 8),
        "LshIndex": lambda v, *_: LshIndex(BandingPlan(v, 4, 2), 8, 1),
        "index file": lambda v, tmp, _: index_file(tmp, threshold=v),
        "cli --threshold": lambda v, tmp, cap: cli_option(tmp, cap, "--threshold", v),
    },
    "jaccard_floor": {
        "RunConfig": lambda v, *_: RunConfig(jaccard_floor=v),
        "neighbor_votes": lambda v, *_: one_user_index().neighbor_votes([probe()], v),
        "classify": lambda v, *_: classify(one_user_index(), probe(), v),
        "classify_many": lambda v, *_: classify_many(one_user_index(), [probe()], v),
        "cli --jaccard-floor": lambda v, tmp, cap: cli_option(tmp, cap, "--jaccard-floor", v),
    },
    "k_shingle": {
        "RunConfig": lambda v, *_: RunConfig(k_shingle=v),
        "grid_configs": lambda v, *_: grid_configs(RunConfig(), [v], [0.4], [("B3",)]),
        "shingle": lambda v, *_: shingle(DnaSequence("u", ("B3",), "ACTA" * 4), v),
        "LshIndex recipe": lambda v, *_: LshIndex(BandingPlan(0.5, 4, 2), 8, 1, (("B3",), v)),
        "index file": lambda v, tmp, _: index_file(tmp, k_shingle=v),
        "cli --k-shingle": lambda v, tmp, cap: cli_option(tmp, cap, "--k-shingle", v),
    },
    "gt_fraction": {
        "SplitSpec": lambda v, *_: SplitSpec(gt_fraction=v),
        "fixed-lists SplitSpec": lambda v, *_: SplitSpec(mode="fixed_lists", gt_fraction=v),
        "gt_sweep": lambda v, *_: gt_sweep(tiny_dataset(), RunConfig(k_shingle=2), [v]),
        "cli --gt-fraction": lambda v, tmp, cap: cli_option(tmp, cap, "--gt-fraction", v),
    },
    "max_tweets": {
        "RunConfig": lambda v, *_: RunConfig(max_tweets=v),
        "cap_tweets": lambda v, *_: cap_tweets(tiny_dataset(), v),
        "check_caps": lambda v, *_: check_caps([v]),
        "early_detection": lambda v, *_: early_detection(tiny_dataset(), RunConfig(k_shingle=1), [v]),
        "cli --max-tweets": lambda v, tmp, cap: cli_option(tmp, cap, "--max-tweets", v),
    },
    # The command line's --jobs is refused by tests/test_cli.py before any file is read.
    "jobs": {
        "grid_search": lambda v, *_: grid_search(tiny_dataset(), RunConfig(k_shingle=2), ks=[2],
                                                 thresholds=[0.5], alphabet_subsets=[("B3",)], jobs=v),
    },
}

CASES = [
    pytest.param(setting, entry, value, accepted, id=f"{setting}-{entry}-{value!r}")
    for setting, values in RULES.items()
    for entry in ENTRY_POINTS[setting]
    for value, accepted in values.items()
]


@pytest.mark.parametrize("setting,entry,value,accepted", CASES)
def test_entry_point_follows_the_rule(setting, entry, value, accepted, tmp_path, capsys):
    call = ENTRY_POINTS[setting][entry]
    if accepted:
        call(value, tmp_path, capsys)
        return
    with pytest.raises((ValueError, FormatError)) as excinfo:
        call(value, tmp_path, capsys)
    message = str(excinfo.value)
    assert setting in message
    shown = "nan" if isinstance(value, float) and math.isnan(value) else repr(value)
    assert message.rstrip().endswith(f"got {shown}")


# setting -> [(value, accepted)]: an integer is an int or a numpy integer,
# never a bool or a float, even one equal to an accepted int.
TYPES = {
    "num_perm": [(8.0, False), (np.float64(8), False), (True, False), (np.int64(8), True), (np.uint16(8), True)],
    "seed": [(1.0, False), (True, False), (np.bool_(True), False), (np.uint64(1), True), (np.int8(1), True)],
    "k_shingle": [(4.0, False), (True, False), (np.bool_(True), False), (np.int64(4), True), (np.uint8(2), True)],
    "max_tweets": [(2.5, False), (2.0, False), (True, False), (np.int64(2), True)],
    "jobs": [(2.5, False), (1.0, False), (True, False), (np.int32(1), True)],
}
TYPED_ENTRY_POINTS = {
    "num_perm": ["RunConfig", "MinHashSignature", "lsh_plan", "minhash", "LshIndex"],
    "seed": ["RunConfig", "MinHashSignature", "SplitSpec", "rng_for", "minhash", "LshIndex"],
    "k_shingle": ["RunConfig", "grid_configs", "shingle", "LshIndex recipe"],
    "max_tweets": ["RunConfig", "cap_tweets", "check_caps", "early_detection"],
    "jobs": ["grid_search"],
}


@pytest.mark.parametrize("setting,entry,value,accepted", [
    pytest.param(setting, entry, value, accepted, id=f"{setting}-{entry}-{type(value).__name__}")
    for setting, values in TYPES.items()
    for entry in TYPED_ENTRY_POINTS[setting]
    for value, accepted in values
])
def test_entry_point_takes_only_integers(setting, entry, value, accepted):
    # A float num_perm was once stored, and to_bytes then died in struct;
    # k_shingle=True once sketched with k=1.
    call = ENTRY_POINTS[setting][entry]
    if accepted:
        call(value, None, None)
        return
    with pytest.raises(ValueError, match=f"^{setting} must be an integer, got {re.escape(repr(value))}$"):
        call(value, None, None)


# setting -> [(value, accepted)]: a share in [0, 1] is never a bool, though True compares as 1.
NUMBERS = {
    "threshold": [(True, False), (np.bool_(True), False), (1, True), (np.float64(0.5), True)],
    "jaccard_floor": [(True, False), (False, False), (np.bool_(False), False), (0, True), (np.float32(0.5), True)],
}
NUMBER_ENTRY_POINTS = {
    "threshold": ["RunConfig", "grid_configs", "lsh_plan", "LshIndex"],
    "jaccard_floor": ["RunConfig", "neighbor_votes", "classify", "classify_many"],
}


@pytest.mark.parametrize("setting,entry,value,accepted", [
    pytest.param(setting, entry, value, accepted, id=f"{setting}-{entry}-{value!r}")
    for setting, values in NUMBERS.items()
    for entry in NUMBER_ENTRY_POINTS[setting]
    for value, accepted in values
])
def test_entry_point_takes_no_bool_for_a_number(setting, entry, value, accepted):
    call = ENTRY_POINTS[setting][entry]
    if accepted:
        call(value, None, None)
        return
    with pytest.raises(ValueError, match=f"^{setting} must be a number, got {re.escape(repr(value))}$"):
        call(value, None, None)


def test_caps_are_integers():
    # Every cap follows the max_tweets rule, wherever it stands in the list.
    for caps, refused in (([20.5, 40], 20.5), ([20, 40.0], 40.0), ([True, 40], True)):
        for call in (check_caps, lambda c: early_detection(tiny_dataset(), RunConfig(k_shingle=1), c)):
            with pytest.raises(ValueError, match=f"^max_tweets must be an integer, got {refused!r}$"):
                call(caps)
    assert check_caps([np.int64(20), 40]) == [20, 40]
    assert all(type(cap) is int for cap in check_caps([np.int64(20), np.uint16(40)]))


def test_numpy_integers_are_kept_as_int():
    # So that every report, document and index file holding them is JSON.
    cfg = RunConfig(num_perm=np.int64(16), seed=np.uint64(3), k_shingle=np.int8(5), max_tweets=np.uint32(7),
                    split=SplitSpec(seed=np.int32(4)))
    sig = MinHashSignature("u", np.int64(8), np.uint64(3), np.zeros(8, dtype=np.uint64))
    index = LshIndex(BandingPlan(0.5, 4, 2), np.int64(8), np.uint64(3), (("B3",), np.int16(4)))
    for value in (cfg.num_perm, cfg.seed, cfg.k_shingle, cfg.max_tweets, cfg.split.seed, sig.num_perm, sig.seed,
                  index.num_perm, index.seed, index.recipe[1]):
        assert type(value) is int


def test_readers_refuse_with_format_error():
    # The rule's ValueError reaches a reader's caller as a FormatError.  No
    # signature holds a refused value, so the blobs and documents are made
    # by hand.
    doc = json.loads(MinHashSignature("u", 2, 5, np.zeros(2, dtype=np.uint64)).to_debug_json())
    for num_perm in (1, 8193):
        for reader, text in ((MinHashSignature.from_bytes, signature_blob("u", num_perm, 5, np.zeros(num_perm))),
                             (MinHashSignature.from_debug_json,
                              json.dumps(doc | {"num_perm": num_perm, "values": [0] * num_perm}))):
            with pytest.raises(FormatError, match=f"num_perm must be in \\[2, 8192\\], got {num_perm}"):
                reader(text)
    with pytest.raises(FormatError, match=r"seed must be in \[0, 2\*\*64\), got -1"):
        MinHashSignature.from_debug_json(json.dumps(doc | {"seed": -1}))
    # So do the constructor's other refusals.
    with pytest.raises(FormatError, match="user_id must be a str, got 7"):
        MinHashSignature.from_debug_json(json.dumps(doc | {"user_id": 7}))
    with pytest.raises(FormatError, match=r"values must be 2 integers in \[0, 2\*\*64\), got uint64 of shape \(3,\)"):
        MinHashSignature.from_debug_json(json.dumps(doc | {"values": [0, 1, 2]}))


def test_minhash_refuses_a_width_outside_the_rule():
    # Sketching follows the rule for storing, reading and banding, so no
    # sketch makes a blob that from_bytes refuses; the width is checked
    # before any hash family is drawn.
    s = shingle(DnaSequence("u", ("B3",), "ACTA"), 2)
    for num_perm in (0, 1, 8193, 200_000):
        with pytest.raises(ValueError, match=rf"num_perm must be in \[2, 8192\], got {num_perm}$"):
            minhash(s, num_perm, 1)
