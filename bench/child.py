"""One measured pass of a workload, run in a fresh process.

Every pass runs in a fresh process, so that it pays the same cold caches a
command-line run of botdna pays.

Modes:

* ``untraced``: the end-to-end pass.  Set-up (loading the inputs from
  disk) is timed, then the workload's focus protocol runs first, then the
  other protocols, each timed as one public call.
* ``reference``: the focus protocol once, untraced, with counters on the
  sketch and plan calls the pipeline makes; the baseline the traced pass's
  overhead is measured against.
* ``trace``: the same protocol, rebuilt from each layer's public functions
  with a span around every call.

``run.py`` starts this script once per run (see ``serve``) and sends it one
job per pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
import tracemalloc
import traceback
from itertools import product
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from botdna import data, pipeline  # noqa: E402
from botdna.classify import NeighborSet, classify, score, vote  # noqa: E402
from botdna.data import Dataset  # noqa: E402
from botdna.encoding import encode_user  # noqa: E402
from botdna.lsh import LshIndex, lsh_plan  # noqa: E402
from botdna.minhash import MinHashSignature, minhash, shingle  # noqa: E402
from botdna.pipeline import RunConfig, canonical_alphabets, signature_for  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, scaled  # noqa: E402

_clock = time.perf_counter
_cpu_clock = time.thread_time


def config(workload, alphabets=None, k_shingle=None, threshold=None) -> RunConfig:
    return RunConfig(
        alphabets=canonical_alphabets(alphabets or workload.alphabets),
        k_shingle=k_shingle or workload.k_shingle,
        threshold=threshold or workload.threshold,
    )


def grid_cells(workload) -> list[RunConfig]:
    """The cells grid_search evaluates, in its own order."""
    return [
        config(workload, alphas, k, t)
        for alphas, k, t in product(workload.grid_alphabets, workload.grid_ks, workload.grid_thresholds)
    ]


def subset(ds: Dataset, users) -> Dataset:
    return Dataset(ds.name, list(users), ds.provenance, ds.malformed_count)


def sides(workload, ds: Dataset, queries: Dataset | None, cfg: RunConfig):
    """Index users and query users of the serve protocol."""
    if queries is not None:
        return ds.users[: workload.index_users], queries.users[: workload.query_users]
    gt, test = data.split(ds, cfg.split)
    return gt.users[: workload.index_users], test.users[: workload.query_users]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def report_core(report) -> str:
    return report.to_json(include_timings=False)


def confusion(report) -> list[int]:
    return [report.tp, report.fp, report.tn, report.fn]


def cell_key(cfg: RunConfig) -> str:
    return f"{'+'.join(cfg.alphabets)}/k{cfg.k_shingle}/t{cfg.threshold}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Attempted and failed operations of one pass; a failure is an
    exception or an output check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def run(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # one failed operation must not hide the others
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None


# --- untraced pass ----------------------------------------------------

# Seconds one ``probe`` call takes at the reference machine speed.
REFERENCE_PROBE_S = 217e-6
# Seconds between two speed readings while a pass runs.
PROBE_PERIOD_S = 0.01

_PROBE_KEYS = [str(i).encode() for i in range(300)]


def probe() -> None:
    """A fixed mix of the work botdna does: hashing, dict inserts and uint64
    array arithmetic, on a working set small enough to leave the caches to
    the pass."""
    table = {}
    for key in _PROBE_KEYS:
        table[hashlib.blake2b(key, digest_size=8).digest()] = key
    values = np.arange(2_000, dtype=np.uint64)
    for _ in range(5):
        values = (values * np.uint64(6364136223846793005) + np.uint64(1)) >> np.uint64(3)


class Speedometer:
    """Reads the machine's speed all through a pass, to scale its timings
    to the reference speed.

    The host's speed drifts by up to 2.4x within a minute and changes within
    a second as other tenants come and go, so readings at the two ends of a
    one-second span miss most of it.  While the speedometer is on, a timer
    signal interrupts the pass every ``PROBE_PERIOD_S`` to time one
    ``probe``, by the wall clock and by the thread's CPU clock.  A timed
    interval is scaled by the mean speed (reference probe time over probe
    time, on the interval's clock) of the readings within one period of it,
    after the probes run inside it are taken out.  Raw times keep the probes
    out too.  What a probe leaves behind, caches to refill, stays in: a
    closed-loop query a probe interrupts reads 3-10% slower than one it
    does not.
    """

    def __init__(self):
        self.readings: list[tuple[float, float, float, float]] = []

    def _read(self, *_) -> None:
        wall, cpu = _clock(), _cpu_clock()
        probe()
        self.readings.append((wall, _clock(), cpu, _cpu_clock()))

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._read()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._read()

    def seconds(self, starts, ends, cpu_starts=None, cpu_ends=None) -> tuple[np.ndarray, np.ndarray]:
        """Raw and reference-speed seconds of each interval [start, end] of
        the wall clock; with ``cpu_starts`` and ``cpu_ends``, of the CPU
        time the intervals took."""
        starts, ends = np.asarray(starts), np.asarray(ends)
        probe_starts, probe_ends, probe_cpu_starts, probe_cpu_ends = np.asarray(self.readings).T
        if cpu_starts is None:
            taken, took = ends - starts, probe_ends - probe_starts
        else:
            taken = np.asarray(cpu_ends) - np.asarray(cpu_starts)
            took = probe_cpu_ends - probe_cpu_starts
        took_sum = np.concatenate([[0.0], np.cumsum(took)])
        speed_sum = np.concatenate([[0.0], np.cumsum(REFERENCE_PROBE_S / took)])
        # A probe runs between two bytecodes, so it lies wholly inside or
        # wholly outside an interval.
        first = np.searchsorted(probe_starts, starts)
        last = np.maximum(np.searchsorted(probe_ends, ends, side="right"), first)
        raw = taken - (took_sum[last] - took_sum[first])
        lo = np.searchsorted(probe_starts, starts - PROBE_PERIOD_S)
        hi = np.searchsorted(probe_ends, ends + PROBE_PERIOD_S, side="right")
        # No reading near: a long C call held the signal back; take the
        # reading that came next (the last one is taken on leaving).
        lo = np.minimum(lo, len(probe_starts) - 1)
        hi = np.maximum(hi, lo + 1)
        return raw, raw * (speed_sum[hi] - speed_sum[lo]) / (hi - lo)


def untraced(job, workload, checks: Checks) -> dict:
    cfg = config(workload)
    out, spans, digests = {}, {}, {}
    loop_starts, loop_ends, loop_cpu_starts, loop_cpu_ends = [], [], [], []

    def span(name, started, users=None):
        """Record a timed span; with ``users``, its metric is users per second."""
        spans[name] = started, _clock(), users

    with Speedometer() as meter:
        t = _clock()
        ds = data.load(job["corpus"])
        queries = data.load(job["queries"]) if job["queries"] else None
        loaded = LshIndex.load(job["index"]) if workload.focus == "serve" else None
        span("setup_s", t)
        if loaded is None:
            loaded = LshIndex.load(job["index"])
        gt_users, test_users = sides(workload, ds, queries, cfg)

        def run_evaluate():
            t = _clock()
            report = pipeline.evaluate(subset(ds, ds.users[: workload.evaluate_users]), cfg)
            span("evaluate_s", t)
            digests["evaluate"] = digest([report_core(report)])
            if workload.focus == "evaluate":
                out["f1"] = report.f1

        def run_grid():
            t = _clock()
            reports = pipeline.grid_search(
                subset(ds, ds.users[: workload.grid_users]),
                cfg,
                ks=workload.grid_ks,
                thresholds=workload.grid_thresholds,
                alphabet_subsets=workload.grid_alphabets,
                jobs=1,
            )
            span("grid_s", t)
            digests["grid"] = digest(report_core(r) for r in reports)
            if workload.focus == "grid":
                out["f1"] = reports[0].f1

        def run_serve():
            t = _clock()
            index = pipeline.build_index(gt_users, cfg)
            span("build_users_per_s", t, len(gt_users))
            t = _clock()
            predictions, report = pipeline.classify_against_index(loaded, subset(ds, test_users), cfg)
            span("query_users_per_s", t, len(test_users))
            digests["predictions"] = digest(predictions)
            if workload.focus == "serve":
                out["f1"] = report.f1
            loop_predictions = []
            for i in range(workload.loop_queries):
                user = test_users[i % len(test_users)]
                loop_starts.append(_clock())
                loop_cpu_starts.append(_cpu_clock())
                loop_predictions.append(classify(index, signature_for(user, cfg)))
                loop_cpu_ends.append(_cpu_clock())
                loop_ends.append(_clock())
            # The reloaded index must answer exactly like the one just built.
            by_id = {p.query_id: p for p in predictions}
            checks.check(
                all(by_id.get(p.query_id) == p for p in loop_predictions),
                "predictions of the reloaded index differ from the in-memory index",
            )

        protocols = {"evaluate": run_evaluate, "grid": run_grid, "serve": run_serve}
        for name in [workload.focus] + [p for p in protocols if p != workload.focus]:
            checks.run(name, protocols[name])

    raw = {}
    if spans:
        starts, ends, counts = zip(*spans.values())
        for name, count, *times in zip(spans, counts, *meter.seconds(starts, ends)):
            raw[name], out[name] = (float(count / x if count else x) for x in times)
    # The run takes the closed-loop percentiles over all its passes' queries.
    # A query's latency is the CPU time it took: on a shared host the wall
    # clock's tail is the hypervisor running other guests for milliseconds
    # while the query waits, which no change to botdna moves.
    raw_ms, scaled_ms = meter.seconds(loop_starts, loop_ends, loop_cpu_starts, loop_cpu_ends)
    out["latencies_ms"] = (scaled_ms * 1e3).tolist()
    out["raw_latencies_ms"] = (raw_ms * 1e3).tolist()
    out["digests"] = digests
    out["raw"] = raw
    out["peak_rss_mb"] = peak_rss_mb()
    return out


# --- reference pass with counters -------------------------------------------


class CountingSketch:
    """Stands in for the ``minhash`` the pipeline calls; counts calls and
    distinct (user, shingle set, hash family) inputs."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.keys = set()

    def __call__(self, shingles, num_perm, seed):
        self.calls += 1
        self.keys.add((shingles.user_id, shingles.k, hash(shingles.shingles), num_perm, seed))
        return self.fn(shingles, num_perm, seed)


class CountingPlan:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def reference(job, workload, checks: Checks) -> dict:
    cfg = config(workload)
    ds = data.load(job["corpus"])
    queries = data.load(job["queries"]) if job["queries"] else None
    sketch = CountingSketch(pipeline.minhash)
    plan = CountingPlan(pipeline.lsh_plan)
    pipeline.minhash, pipeline.lsh_plan = sketch, plan
    out = {}
    if workload.focus == "evaluate":
        t = _clock()
        reports = [pipeline.evaluate(subset(ds, ds.users[: workload.evaluate_users]), cfg)]
        out["wall_s"] = _clock() - t
        out["confusion"] = {cell_key(cfg): confusion(reports[0])}
    elif workload.focus == "grid":
        t = _clock()
        reports = pipeline.grid_search(
            subset(ds, ds.users[: workload.grid_users]),
            cfg,
            ks=workload.grid_ks,
            thresholds=workload.grid_thresholds,
            alphabet_subsets=workload.grid_alphabets,
            jobs=1,
        )
        out["wall_s"] = _clock() - t
        out["confusion"] = {
            cell_key(config(workload, r.config["alphabets"], r.config["k_shingle"],
                            r.config["threshold"])): confusion(r)
            for r in reports
        }
    else:
        gt_users, test_users = sides(workload, ds, queries, cfg)
        path = Path(job["work"]) / "reference.idx"
        t = _clock()
        index = pipeline.build_index(gt_users, cfg)
        index.save(path)
        loaded = LshIndex.load(path)
        _, report = pipeline.classify_against_index(loaded, subset(ds, test_users), cfg)
        out["wall_s"] = _clock() - t
        out["confusion"] = {cell_key(cfg): confusion(report)}
    out["sketch_calls"] = sketch.calls
    out["distinct_sketches"] = len(sketch.keys)
    out["plan_calls"] = plan.calls
    if workload.focus == "serve":
        # The serve path's reports carry no timings; take them from
        # evaluate on the same corpus.
        reports = [pipeline.evaluate(subset(ds, ds.users[: workload.evaluate_users]), cfg)]
    for key in ("preprocess_s", "build_s", "classify_s"):
        out[key] = sum(r.timings[key] for r in reports)
    checks.check(sketch.calls > 0, "the pipeline made no minhash call the counters could see")
    return out


# --- traced pass ------------------------------------------------------------


class Mirror:
    """The protocols rebuilt from each layer's public calls, traced."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.vocab: set[str] = set()

    def sketch(self, user, cfg: RunConfig) -> MinHashSignature:
        tr, uid = self.tr, user.user_id
        span = tr.begin("pipeline.signature_for", uid)
        seq = tr.call("encoding.encode_user", encode_user, user, cfg.alphabets, user=uid)
        shingles = tr.call("minhash.shingle", shingle, seq, cfg.k_shingle, user=uid)
        sig = tr.call("minhash.minhash", minhash, shingles, cfg.num_perm, cfg.seed, user=uid)
        tr.end(span)
        tr.count("minhash.shingles", len(shingles.shingles))
        self.vocab.update(shingles.shingles)
        return sig

    def build(self, users, cfg: RunConfig) -> tuple[LshIndex, list]:
        tr = self.tr
        plan = tr.call("lsh.lsh_plan", lsh_plan, cfg.threshold, cfg.num_perm)
        index = LshIndex(plan, cfg.num_perm, cfg.seed)
        sigs = []
        for user in users:
            sig = self.sketch(user, cfg)
            tr.call("lsh.insert", index.insert, sig, user.label, user=user.user_id)
            sigs.append((sig, user.label))
        return index, sigs

    def classify(self, index: LshIndex, users, cfg: RunConfig):
        tr, floor = self.tr, cfg.effective_floor()
        predictions = []
        for user in users:
            sig = self.sketch(user, cfg)
            span = tr.begin("classify.classify", user.user_id)
            neighbors = tr.call("lsh.query", index.query, sig, user=user.user_id)
            kept = [nb for nb in neighbors if nb.jaccard >= floor]
            predictions.append(
                tr.call("classify.vote", vote, NeighborSet(sig.user_id, kept), user=user.user_id)
            )
            tr.end(span)
            tr.count("lsh.candidates", len(neighbors))
            tr.count("classify.kept", len(kept))
        truth = {u.user_id: u.label for u in users}
        return tr.call("classify.score", score, predictions, truth)

    def evaluate(self, ds: Dataset, cfg: RunConfig):
        tr = self.tr
        filtered, _ = tr.call("data.filter_min_length", data.filter_min_length, ds,
                              cfg.k_shingle, cfg.alphabets)
        gt, test = tr.call("data.split", data.split, filtered, cfg.split)
        index, sigs = self.build(gt.users, cfg)
        return index, sigs, self.classify(index, test.users, cfg)


class Occupancy:
    """Bucket sizes over every index built, from the public band digests."""

    def __init__(self):
        self.largest = 0
        self.entries = 0
        self.buckets = 0

    def add(self, index: LshIndex, sigs) -> None:
        digests = np.stack([index.band_digests(sig.values) for sig, _ in sigs])
        for band in digests.T:
            _, sizes = np.unique(band, return_counts=True)
            self.largest = max(self.largest, int(sizes.max()))
            self.entries += int(sizes.sum())
            self.buckets += len(sizes)


def index_bytes_per_user(index: LshIndex, sigs) -> float:
    """Bytes a fresh index keeps per user, signature copies included."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = LshIndex(index.plan, index.num_perm, index.seed)
        for sig, label in sigs:
            fresh.insert(MinHashSignature(sig.user_id, sig.num_perm, sig.seed, sig.values.copy()), label)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / len(sigs)


def traced(job, workload, checks: Checks) -> dict:
    cfg = config(workload)
    tr = Tracer()
    mirror = Mirror(tr)
    ds = tr.call("data.load", data.load, job["corpus"])
    queries = tr.call("data.load", data.load, job["queries"]) if job["queries"] else None
    loaded_sets = [ds] + ([queries] if queries else [])
    records = sum(len(d.users) + sum(len(u.posts) for u in d.users) for d in loaded_sets)
    path = Path(job["work"]) / "traced.idx"
    confusions, occupancy, primary = {}, Occupancy(), None

    def serve(_, cell):
        gt_users, test_users = sides(workload, ds, queries, cell)
        index, sigs = mirror.build(gt_users, cell)
        tr.call("lsh.save", index.save, path)
        loaded = tr.call("lsh.load", LshIndex.load, path)
        return index, sigs, mirror.classify(loaded, test_users, cell)

    if workload.focus == "grid":
        cells, protocol = grid_cells(workload), mirror.evaluate
        cell_ds = subset(ds, ds.users[: workload.grid_users])
    else:
        cells, protocol = [cfg], mirror.evaluate if workload.focus == "evaluate" else serve
        cell_ds = subset(ds, ds.users[: workload.evaluate_users])
    # Only the cells' spans count as the traced protocol's time; the
    # occupancy bookkeeping between them is the benchmark's own.
    for cell in cells:
        span = tr.begin("bench.cell")
        index, sigs, report = protocol(cell_ds, cell)
        tr.end(span)
        confusions[cell_key(cell)] = confusion(report)
        occupancy.add(index, sigs)
        if cell == cfg:
            primary = index, sigs
        del index, sigs
    mirror_s = sum(tr.durations_s("bench.cell"))

    if workload.focus != "serve":
        tr.call("lsh.save", primary[0].save, path)
        tr.call("lsh.load", LshIndex.load, path)
    file_bytes = path.stat().st_size
    candidates = np.asarray(tr.counts["lsh.candidates"])
    kept = np.asarray(tr.counts["classify.kept"])

    def mean_us(name):
        return float(np.mean(tr.durations_s(name))) * 1e6

    load_s = sum(tr.durations_s("data.load"))
    metrics = {
        "data.load_s": load_s,
        "data.records_per_s": records / load_s,
        "encoding.encode_us_per_user": mean_us("encoding.encode_user"),
        "minhash.shingle_us_per_user": mean_us("minhash.shingle"),
        "minhash.minhash_us_per_user": mean_us("minhash.minhash"),
        "minhash.shingles_per_user": float(np.mean(tr.counts["minhash.shingles"])),
        "minhash.vocab_size": len(mirror.vocab),
        "lsh.insert_us_per_user": mean_us("lsh.insert"),
        "lsh.index_bytes_per_user": index_bytes_per_user(*primary),
        "lsh.query_us": mean_us("lsh.query"),
        "lsh.candidates_p50": float(np.percentile(candidates, 50)),
        "lsh.candidates_p95": float(np.percentile(candidates, 95)),
        "lsh.candidates_max": int(candidates.max()),
        "lsh.bucket_max": occupancy.largest,
        "lsh.bucket_mean": occupancy.entries / occupancy.buckets,
        "lsh.save_s": sum(tr.durations_s("lsh.save")),
        "lsh.load_s": sum(tr.durations_s("lsh.load")),
        "lsh.file_bytes_per_user": file_bytes / len(primary[1]),
        "lsh.plan_ms": mean_us("lsh.lsh_plan") / 1e3,
        "classify.vote_us": mean_us("classify.vote"),
        "classify.floor_kept_ratio": float(kept.sum() / candidates.sum()) if candidates.sum() else 0.0,
        "classify.no_neighbor_ratio": float(np.mean(kept == 0)),
        "classify.score_ms": mean_us("classify.score") / 1e3,
    }
    for layer, seconds in tr.self_time_s().items():
        metrics[f"{layer}.self_s"] = seconds
    trace_path = job.get("trace_out")
    if trace_path:
        tr.write(trace_path)
    return {"metrics": metrics, "mirror_s": mirror_s, "confusion": confusions}


MODES = {"untraced": untraced, "reference": reference, "trace": traced}


def run_pass(job) -> dict:
    workload = scaled(WORKLOADS[job["workload"]], job["scale"])
    checks = Checks()
    result = checks.run(job["mode"], MODES[job["mode"]], job, workload, checks) or {}
    result.update(attempted=checks.attempted, failed=checks.failed, errors=checks.errors)
    return result


def serve(jobs, replies) -> None:
    """Fork one process per job line and answer with its exit code.

    This process only imports botdna, so each forked pass starts with the
    package loaded but every cache cold, as a command-line run does,
    without paying the interpreter start-up and imports each time.  A pass
    writes its result to the job's ``result`` file.
    """
    for line in jobs:
        job = json.loads(line)
        pid = os.fork()
        if pid == 0:
            os.dup2(2, 1)  # stdout belongs to the reply channel
            code = 1
            try:
                Path(job["result"]).write_text(json.dumps(run_pass(job)))
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        replies.write(f"{os.waitstatus_to_exitcode(status)}\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
