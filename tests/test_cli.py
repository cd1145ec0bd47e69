import csv
import json
from dataclasses import replace

import pytest

from botdna import pipeline
from botdna.cli import main
from botdna.data import Dataset
from botdna.classify import classify_many
from botdna.data import load
from botdna.encoding import encode_user
from botdna.lsh import LshIndex, lsh_plan
from botdna.minhash import minhash, shingle
from botdna.pipeline import RunConfig, _sketch, build_index, evaluate

from conftest import corpus_to_jsonl, synthetic_corpus


@pytest.fixture
def corpus_file(tmp_path):
    users = synthetic_corpus(40, 60, seed=5)
    return corpus_to_jsonl(users, tmp_path / "corpus.jsonl")


def run(*argv):
    return main([str(a) for a in argv])


SPLIT = ("--gt-fraction", "--split-file")
# The shared options each subcommand does not take: every one of them was
# overwritten or never read when all subcommands took all of them.
DROPPED = {
    "evaluate": (),
    "grid-search": ("--alphabets", "--k-shingle", "--threshold"),
    "early-detection": ("--max-tweets",),
    "gt-sweep": SPLIT,
    "cross-dataset": SPLIT,
    "encode": ("--k-shingle", "--threshold", "--num-perm", "--seed", *SPLIT, "--max-tweets",
               "--jaccard-floor", "--no-floor", "--no-timings"),
    "index-build": (*SPLIT, "--jaccard-floor", "--no-floor", "--no-timings"),
    "index-query": ("--alphabets", "--k-shingle", "--num-perm", "--seed", "--threshold", *SPLIT),
}
POSITIONALS = {"cross-dataset": 2, "index-query": 2}
# Settings a report echoes: option -> (value, echo key, echoed value).
SETTINGS = {
    "--alphabets": ("B9,B3", "alphabets", ["B3", "B9"]),
    "--k-shingle": ("3", "k_shingle", 3),
    "--threshold": ("0.2", "threshold", 0.2),
    "--num-perm": ("64", "num_perm", 64),
    "--seed": ("7", "seed", 7),
    "--max-tweets": ("30", "max_tweets", 30),
    "--jaccard-floor": ("0.1", "jaccard_floor", 0.1),
}
FLAG_VALUES = {opt: value for opt, (value, _, _) in SETTINGS.items()} | {
    "--gt-fraction": "0.5", "--split-file": "gt.txt,test.txt"}


def series_reports(doc):
    return [entry["report"] for entry in doc["series"]]


# A small run of each report command, and where its reports sit in the output.
RUNS = {
    "evaluate": ((), lambda doc: [doc]),
    "grid-search": (("--k-grid", "3,4", "--threshold-grid", "0.2,0.5", "--alphabet-grid", "B3/B9"),
                    lambda doc: doc["grid"]),
    "early-detection": (("--caps", "20,40"), series_reports),
    "gt-sweep": (("--fractions", "0.3,0.5"), series_reports),
    "cross-dataset": ((), lambda doc: [doc]),
}


def run_reports(command, corpus_file, tmp_path, *argv):
    extra, reports = RUNS[command]
    out = tmp_path / f"{command}.json"
    positionals = [corpus_file] * POSITIONALS.get(command, 1)
    assert run(command, *positionals, *extra, *argv, "--no-timings", "--out", out) == 0
    return out.read_bytes(), reports(json.loads(out.read_text()))


class TestSharedOptions:
    @pytest.mark.parametrize(
        "command,option", [(c, o) for c, options in DROPPED.items() for o in options]
    )
    def test_dropped_option_is_a_usage_error(self, command, option):
        value = (FLAG_VALUES[option],) if option in FLAG_VALUES else ()
        with pytest.raises(SystemExit) as excinfo:
            run(command, *["missing.jsonl"] * POSITIONALS.get(command, 1), option, *value)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["grid-search", "early-detection", "gt-sweep", "cross-dataset"])
    def test_kept_settings_reach_every_report(self, command, corpus_file, tmp_path):
        kept = {opt: v for opt, v in SETTINGS.items() if opt not in DROPPED[command]}
        argv = [arg for opt, (value, _, _) in kept.items() for arg in (opt, value)]
        if "--gt-fraction" not in DROPPED[command]:
            argv += ["--gt-fraction", "0.5"]
        _, reports = run_reports(command, corpus_file, tmp_path, *argv)
        assert len(reports) == {"grid-search": 8, "cross-dataset": 1}.get(command, 2)
        for report in reports:
            cfg = report["config"]
            for _, key, echoed in kept.values():
                assert cfg[key] == echoed
            if cfg["split"]["mode"] == "random_fraction":  # early-detection freezes its split
                assert cfg["split"]["seed"] == 7
            if "--gt-fraction" not in DROPPED[command]:
                assert report["counts"]["ground_truth_users"] == 20  # half of 40

    @pytest.mark.parametrize("command", ["grid-search", "early-detection"])
    def test_split_file_reaches_every_report(self, command, corpus_file, tmp_path):
        users = [json.loads(line)["user_id"] for line in corpus_file.read_text().splitlines()]
        (tmp_path / "gt.txt").write_text("\n".join(users[:30]) + "\n")
        (tmp_path / "test.txt").write_text("\n".join(users[30:]) + "\n")
        _, reports = run_reports(command, corpus_file, tmp_path,
                                 "--split-file", f"{tmp_path / 'gt.txt'},{tmp_path / 'test.txt'}")
        for report in reports:
            assert report["config"]["split"]["mode"] == "fixed_lists"
            assert report["config"]["split"]["gt_count"] == 30

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_no_floor_output_equals_floor_zero(self, command, corpus_file, tmp_path):
        no_floor, reports = run_reports(command, corpus_file, tmp_path, "--no-floor")
        floor_zero, _ = run_reports(command, corpus_file, tmp_path, "--jaccard-floor", "0")
        assert no_floor == floor_zero
        assert all(r["config"]["jaccard_floor"] == 0.0 for r in reports)

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "--alphabets", ","),
            ("evaluate", "--jaccard-floor", "2"),
            ("evaluate", "--jaccard-floor", "-0.1"),
            ("evaluate", "--seed", "-1"),
            ("evaluate", "--seed", str(1 << 64)),
            ("grid-search", "--alphabet-grid", "B3/,", "--k-grid", "4", "--threshold-grid", "0.4"),
            ("cross-dataset", "--alphabets", ","),
        ],
        ids=["no-alphabet", "floor-above-1", "floor-below-0", "seed-below-0", "seed-2**64",
             "empty-grid-subset", "cross-no-alphabet"],
    )
    def test_bad_setting_is_input_error(self, argv, corpus_file):
        command, *options = argv
        assert run(command, *[corpus_file] * POSITIONALS.get(command, 1), *options) == 2

    @pytest.mark.parametrize("option,value", [("--alphabets", "B3,B3"), ("--alphabet-grid", "B3,B3/B5")])
    def test_repeated_alphabet_is_a_usage_error(self, option, value, corpus_file):
        # As RunConfig(alphabets=("B3", "B3")) raises, the option does not collapse the repeat.
        command = "evaluate" if option == "--alphabets" else "grid-search"
        with pytest.raises(SystemExit) as excinfo:
            run(command, corpus_file, option, value)
        assert excinfo.value.code == 2


class TestEvaluateCommand:
    def test_writes_report(self, corpus_file, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", corpus_file, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["f1"] == 1.0
        assert doc["config"]["alphabets"] == ["B3"]
        assert "timings" in doc

    def test_no_timings_is_byte_reproducible(self, corpus_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("evaluate", corpus_file, "--no-timings", "--out", out1) == 0
        assert run("evaluate", corpus_file, "--no-timings", "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_reach_config(self, corpus_file, tmp_path):
        out = tmp_path / "report.json"
        assert (
            run(
                "evaluate", corpus_file,
                "--alphabets", "B9,B3",
                "--k-shingle", "3",
                "--threshold", "0.2",
                "--num-perm", "64",
                "--seed", "7",
                "--gt-fraction", "0.5",
                "--max-tweets", "30",
                "--jaccard-floor", "0.1",
                "--out", out,
            )
            == 0
        )
        cfg = json.loads(out.read_text())["config"]
        assert cfg["alphabets"] == ["B3", "B9"]  # canonical order
        assert cfg["k_shingle"] == 3
        assert cfg["threshold"] == 0.2
        assert cfg["num_perm"] == 64
        assert cfg["seed"] == 7
        assert cfg["split"] == {"mode": "random_fraction", "gt_fraction": 0.5, "seed": 7}
        assert cfg["max_tweets"] == 30
        assert cfg["jaccard_floor"] == 0.1

    def test_missing_file_is_input_error(self, tmp_path):
        assert run("evaluate", tmp_path / "ghost.jsonl") == 2

    def test_integrity_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"user_id": "u1", "label": "bot",
                           "tweets": [{"ts": 1, "kind": "plain", "urls": 0, "hashtags": 0, "mentions": 0}]})
        path.write_text(good + "\n" + "{broken\n" * 10)
        assert run("evaluate", path) == 3

    def test_odd_tweets_fields_are_malformed_records(self, corpus_file, tmp_path):
        odd = ['{"user_id": "null", "label": "bot", "tweets": null}\n',
               '{"user_id": "number", "label": "bot", "tweets": 5}\n',
               '{"user_id": "overflow", "label": "bot", "tweets": [{"ts": 1e400, "kind": "plain"}]}\n']
        path = tmp_path / "odd.jsonl"
        path.write_text(corpus_file.read_text() + "".join(odd))
        out = tmp_path / "report.json"
        assert run("evaluate", path, "--out", out) == 0
        # The overflowing user's only tweet is malformed, and so is the user left without posts.
        assert json.loads(out.read_text())["counts"]["malformed_records"] == 4

    def test_split_file_fixed_lists(self, corpus_file, tmp_path):
        users = [json.loads(line)["user_id"] for line in corpus_file.read_text().splitlines()]
        gt_file = tmp_path / "gt.txt"
        test_file = tmp_path / "test.txt"
        gt_file.write_text("\n".join(users[:30]) + "\n")
        test_file.write_text("\n".join(users[30:]) + "\n")
        out = tmp_path / "report.json"
        assert run("evaluate", corpus_file, "--split-file", f"{gt_file},{test_file}", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["split"]["mode"] == "fixed_lists"
        assert doc["counts"]["test_users"] == 10

    def test_evaluate_names_an_unknown_split_id(self, corpus_file, tmp_path, capsys):
        (tmp_path / "gt.txt").write_text("bot00000\nhum00001\n")
        (tmp_path / "test.txt").write_text("zz\n")
        split_file = f"{tmp_path / 'gt.txt'},{tmp_path / 'test.txt'}"
        assert run("evaluate", corpus_file, "--split-file", split_file) == 2
        assert "'zz' is not among the dataset's users" in capsys.readouterr().err

    def test_bad_split_file_argument(self, corpus_file):
        assert run("evaluate", corpus_file, "--split-file", "only-one-path.txt") == 2


class TestGridSearchCommand:
    def test_grid_json_and_csv(self, corpus_file, tmp_path):
        out = tmp_path / "grid.json"
        csv_out = tmp_path / "grid.csv"
        assert (
            run(
                "grid-search", corpus_file,
                "--k-grid", "2,4",
                "--threshold-grid", "0.2,0.6",
                "--alphabet-grid", "B3/B3,B9",
                "--out", out,
                "--csv-out", csv_out,
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert len(doc["grid"]) == 8
        rows = list(csv.DictReader(csv_out.read_text().splitlines()))
        assert len(rows) == 8
        assert rows[0]["rank"] == "1"

    def test_k_grid_range_syntax(self, corpus_file, tmp_path):
        out = tmp_path / "grid.json"
        assert (
            run(
                "grid-search", corpus_file,
                "--k-grid", "2..4",
                "--threshold-grid", "0.4",
                "--alphabet-grid", "B3",
                "--out", out,
            )
            == 0
        )
        assert len(json.loads(out.read_text())["grid"]) == 3

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_input_error(self, corpus_file, jobs):
        assert run("grid-search", corpus_file, "--k-grid", "4", "--threshold-grid", "0.4",
                   "--alphabet-grid", "B3", "--jobs", jobs) == 2

    def test_stepped_range_syntax(self, corpus_file, tmp_path):
        out = tmp_path / "early.json"
        assert run("early-detection", corpus_file, "--caps", "20..60..20", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert [entry["max_tweets"] for entry in doc["series"]] == [20, 40, 60]


class TestSweepCommands:
    def test_early_detection_series(self, corpus_file, tmp_path):
        out = tmp_path / "early.json"
        csv_out = tmp_path / "early.csv"
        assert (
            run("early-detection", corpus_file, "--caps", "20,40", "--out", out, "--csv-out", csv_out)
            == 0
        )
        doc = json.loads(out.read_text())
        assert [entry["max_tweets"] for entry in doc["series"]] == [20, 40]
        rows = list(csv.DictReader(csv_out.read_text().splitlines()))
        assert [r["max_tweets"] for r in rows] == ["20", "40"]

    def test_gt_sweep_series(self, corpus_file, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("gt-sweep", corpus_file, "--fractions", "0.1,0.3", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert [entry["gt_fraction"] for entry in doc["series"]] == [0.1, 0.3]


class TestCrossDatasetCommand:
    def test_same_corpus_both_sides(self, corpus_file, tmp_path):
        out = tmp_path / "cross.json"
        assert run("cross-dataset", corpus_file, corpus_file, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["f1"] == 1.0


class TestEncodeCommand:
    def test_dumps_dna_strings(self, tmp_path):
        users = synthetic_corpus(4, 10, seed=3)
        data = corpus_to_jsonl(users, tmp_path / "d.jsonl")
        out = tmp_path / "dna.jsonl"
        assert run("encode", data, "--alphabets", "B3", "--out", out) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 4
        by_id = {d["user_id"]: d for d in lines}
        assert by_id["bot00000"]["symbols"] == "C" * 10
        assert by_id["hum00001"]["symbols"] == "AT" * 5


class TestIndexCommands:
    def test_build_then_query_round_trip(self, corpus_file, tmp_path):
        index_path = tmp_path / "gt.idx"
        assert run("index-build", corpus_file, "--out", index_path) == 0
        assert index_path.exists()

        queries = corpus_to_jsonl(synthetic_corpus(10, 60, seed=99), tmp_path / "queries.jsonl")
        out = tmp_path / "preds.json"
        assert run("index-query", index_path, queries, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["predictions"]) == 10
        for pred in doc["predictions"]:
            expected = "bot" if pred["user_id"].startswith("bot") else "human"
            assert pred["predicted"] == expected
        assert doc["report"]["metrics"]["f1"] == 1.0

    def test_index_build_requires_out(self, corpus_file):
        assert run("index-build", corpus_file) == 2

    def test_index_build_checks_out_before_loading(self, corpus_file, monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("index-build loaded its data without --out")

        monkeypatch.setattr("botdna.cli.load", no_load)
        assert run("index-build", corpus_file) == 2

    def test_index_build_rejects_negative_seed_before_sketching(self, corpus_file, tmp_path, monkeypatch):
        sketched = []

        def counting_minhash(*args, **kwargs):
            sig = minhash(*args, **kwargs)
            sketched.append(sig)
            return sig

        monkeypatch.setattr(pipeline, "minhash", counting_minhash)
        index_path = tmp_path / "gt.idx"
        assert run("index-build", corpus_file, "--seed", "-1", "--out", index_path) == 2
        assert sketched == []
        assert not index_path.exists()

    def test_index_build_rejects_negative_seed_without_labeled_users(self, tmp_path, capsys):
        # No user is sketched, so the seed reaches only the index header.
        users = [replace(user, label=None) for user in synthetic_corpus(4, 60, seed=5)]
        corpus = corpus_to_jsonl(users, tmp_path / "unlabeled.jsonl")
        index_path = tmp_path / "gt.idx"
        assert run("index-build", corpus, "--seed", "-1", "--out", index_path) == 2
        assert "seed" in capsys.readouterr().err
        assert not index_path.exists()

    def test_long_id_round_trips_through_index_commands(self, tmp_path):
        users = synthetic_corpus(4, 60, seed=5)
        long_id = "\u00e9" * 35_000  # 70,000 UTF-8 bytes
        users[2] = replace(users[2], user_id=long_id)
        corpus = corpus_to_jsonl(users, tmp_path / "long_id.jsonl")
        index_path, out = tmp_path / "gt.idx", tmp_path / "preds.json"
        assert run("index-build", corpus, "--out", index_path) == 0
        assert long_id in LshIndex.load(index_path).labels
        assert run("index-query", index_path, corpus, "--out", out) == 0
        assert long_id in {p["user_id"] for p in json.loads(out.read_text())["predictions"]}

    def test_lone_surrogate_user_id_is_a_malformed_record(self, tmp_path):
        users = synthetic_corpus(20, 60, seed=5)
        users[3] = replace(users[3], user_id="\ud800")
        corpus = corpus_to_jsonl(users, tmp_path / "surrogate.jsonl")
        index_path = tmp_path / "gt.idx"
        assert run("index-build", corpus, "--out", index_path) == 0
        assert load(corpus).malformed_count == 1
        assert len(LshIndex.load(index_path)) == 19

    def test_settings_reach_index_and_query(self, corpus_file, tmp_path):
        index_path = tmp_path / "gt.idx"
        assert run("index-build", corpus_file, "--alphabets", "B9,B3", "--k-shingle", "3",
                   "--num-perm", "64", "--seed", "7", "--threshold", "0.3", "--max-tweets", "40",
                   "--out", index_path) == 0
        index = LshIndex.load(index_path)
        assert (index.num_perm, index.seed, index.plan.threshold) == (64, 7, 0.3)
        assert index.recipe == (("B3", "B9"), 3)
        out = tmp_path / "preds.json"
        # The recipe comes from the index; only the query-time settings are given.
        assert run("index-query", index_path, corpus_file,
                   "--max-tweets", "20", "--jaccard-floor", "0.1", "--out", out) == 0
        cfg = json.loads(out.read_text())["report"]["config"]
        assert cfg["alphabets"] == ["B3", "B9"]
        assert (cfg["k_shingle"], cfg["max_tweets"], cfg["jaccard_floor"]) == (3, 20, 0.1)
        assert (cfg["num_perm"], cfg["seed"], cfg["threshold"]) == (64, 7, 0.3)

    def test_query_no_floor_equals_floor_zero(self, corpus_file, tmp_path):
        index_path = tmp_path / "gt.idx"
        assert run("index-build", corpus_file, "--out", index_path) == 0
        outs = [tmp_path / "no_floor.json", tmp_path / "zero.json"]
        for out, floor in zip(outs, (["--no-floor"], ["--jaccard-floor", "0"])):
            assert run("index-query", index_path, corpus_file, *floor, "--no-timings", "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_query_against_garbage_index(self, corpus_file, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"nope")
        assert run("index-query", bad, corpus_file) == 2

    def test_query_predictions_equal_library_classify(self, corpus_file, tmp_path):
        index_path, out = tmp_path / "gt.idx", tmp_path / "preds.json"
        assert run("index-build", corpus_file, "--alphabets", "B5", "--k-shingle", "2",
                   "--out", index_path) == 0
        assert run("index-query", index_path, corpus_file, "--out", out) == 0
        cfg = RunConfig(alphabets=("B5",), k_shingle=2)
        index = build_index(load(corpus_file).labeled(), cfg)
        want = [(p.query_id, p.predicted, p.neighbor_count)
                for p in classify_many(index, _sketch(load(corpus_file).users, cfg))]
        got = [(p["user_id"], p["predicted"], p["neighbor_count"])
               for p in json.loads(out.read_text())["predictions"]]
        assert got == want

    @pytest.mark.parametrize("fault", ["version 1", "no recipe", "corrupt header", "checksum"])
    def test_query_rejects_unusable_index(self, fault, corpus_file, tmp_path, capsys):
        index_path = tmp_path / "gt.idx"
        if fault == "no recipe":
            index = LshIndex(lsh_plan(0.4, 128), 128, 42)
            index.insert(minhash(shingle(encode_user(synthetic_corpus(1, 60, seed=1)[0], ("B3",)), 4),
                                 128, 42), "bot")
            index.save(index_path)
        else:
            assert run("index-build", corpus_file, "--out", index_path) == 0
            blob = bytearray(index_path.read_bytes())
            if fault == "version 1":
                blob[4] = 1
            elif fault == "corrupt header":
                blob[9] = ord("[")
            else:
                blob[-1] ^= 1
            index_path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run("index-query", index_path, corpus_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        message = {"version 1": "rebuild the index with index-build", "no recipe": "rebuild it with index-build",
                   "corrupt header": "corrupt index header", "checksum": "checksum"}[fault]
        assert message in err


class TestCliMatchesLibrary:
    def test_evaluate_output_equals_library_call(self, corpus_file, tmp_path):
        out = tmp_path / "cli.json"
        assert run("evaluate", corpus_file, "--no-timings", "--out", out) == 0
        from botdna.data import load

        ds = load(corpus_file)
        report = evaluate(ds, RunConfig())
        assert out.read_text() == report.to_json(include_timings=False)
