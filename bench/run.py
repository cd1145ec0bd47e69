"""botdna benchmark: one workload, end-to-end or traced per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload evaluate-sparse --seed 1 --seconds 30 --trace 0

The workload's corpus is generated from ``--seed`` and written to JSONL
under ``.bench_work/`` before anything is timed.  The run then checks the
outputs and prints a table for people, followed by one JSON line::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {...}, ...}}

``--trace 0`` repeats untraced passes, each in a fresh process, until
``--seconds`` is spent and at least four times, and reports each end-to-end
metric as its median over the passes, except the closed-loop p50 and p99,
which are taken over the queries of all passes together and count the CPU
time each query took (the wall clock's tail on a shared host is time the
hypervisor gave to other guests).  Every time is scaled to a reference
machine speed, read by a timer-driven probe every 10 ms all through the
pass (see ``child.Speedometer``): on a shared 2-vCPU virtual machine the
speed drifted by up to 2.4x within a minute, more than any bound could
absorb.  The raw figures are printed beside the scaled ones.

``--trace 1`` runs the focus protocol once untraced with counters, once
rebuilt from the layers' public calls with a span around each, and reports
the per-layer metrics, each layer's self time and the tracing overhead.
Spans are written to ``.bench_out/``.

``failed / attempted`` is the error rate: an operation fails when it raises
or when one of the output checks does not hold (see ``prepare`` and
``child.py``).  Load comes from one process at a time and ``grid_search``
runs with ``jobs=1``, so the figures measure botdna, not the scheduler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 4
# Closed-loop latency percentiles, taken over the queries of all passes.
POOLED = {"query_p50_ms": 50, "query_p99_ms": 99}
# Every run must end within 180 s; no pass is started that would end later.
DEADLINE_S = 165.0
PROBE_QUERIES = 40

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """Declared metric names and units, in BENCHMARK.json's order."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every user count (the smoke test runs tiny corpora)")
    return parser.parse_args(argv)


class Run:
    def __init__(self, args, workload, work: Path):
        self.args = args
        self.workload = workload
        self.work = work
        self.started = time.monotonic()
        self.measure_start = 0.0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.server = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    def start_passes(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def stop_passes(self) -> None:
        """Kill the pass server and any pass still running, and wait for them."""
        server, self.server = self.server, None
        if server is None:
            return
        server.stdin.close()
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
        server.stdout.close()

    def child(self, mode: str, job: dict, label: str) -> dict | None:
        """Run one pass in a fresh process; None when it did not finish."""
        path = self.work / f"{label}.result.json"
        self.server.stdin.write(json.dumps(dict(job, mode=mode, result=str(path))) + "\n")
        self.server.stdin.flush()
        budget = max(DEADLINE_S - self.elapsed(), 1.0)
        if not select.select([self.server.stdout], [], [], budget)[0]:
            self.stop_passes()
            self.check(False, f"{label}: no result within the time limit")
            return None
        code = self.server.stdout.readline().strip()
        if code != "0":
            self.check(False, f"{label}: exited with code {code or 'unknown'}")
            return None
        result = json.loads(path.read_text())
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for error in result["errors"]:
            self.notes.append(f"FAILED in {label}: {error}")
        return result


# --- preparation and output checks on the prebuilt index ----------------------


def prepare(run: Run, job: dict) -> None:
    """Build and save the workload's index; check LSH outputs and the regimes.

    For a sample of query users, every neighbour's reported Jaccard must
    equal the brute-force share of equal signature positions, and every
    indexed user sharing a band digest must be among the candidates.  Each
    probe's candidate counts must stay in its workload's regime.
    """
    from botdna import data
    from botdna.lsh import LshIndex, lsh_plan

    import child
    from workloads import philox

    w = run.workload
    ds = data.load(job["corpus"])
    queries = data.load(job["queries"]) if job["queries"] else None
    cfg = child.config(w)
    gt_users, test_users = child.sides(w, ds, queries, cfg)
    rng = philox(run.args.seed, 3)
    sample = [test_users[i] for i in rng.permutation(len(test_users))[:PROBE_QUERIES]]
    by_cfg = {}

    def build_and_check(pcfg):
        index = LshIndex(lsh_plan(pcfg.threshold, pcfg.num_perm), pcfg.num_perm, pcfg.seed)
        values, digests, ids = [], [], []
        for user in gt_users:
            sig = child.signature_for(user, pcfg)
            index.insert(sig, user.label)
            values.append(sig.values)
            digests.append(index.band_digests(sig.values))
            ids.append(user.user_id)
        values, digests, ids = np.stack(values), np.stack(digests), np.asarray(ids)
        counts = []
        for user in sample:
            sig = child.signature_for(user, pcfg)
            neighbors = index.query(sig)
            counts.append(len(neighbors))
            exact = dict(zip(ids, np.count_nonzero(values == sig.values, axis=1) / pcfg.num_perm))
            run.check(
                all(nb.jaccard == exact[nb.user_id] for nb in neighbors),
                f"{user.user_id}: a neighbour's Jaccard differs from the brute-force estimate",
            )
            sharing = ids[(digests == index.band_digests(sig.values)).any(axis=1)]
            run.check(
                set(sharing) <= {nb.user_id for nb in neighbors},
                f"{user.user_id}: a user sharing a band digest is missing from the candidates",
            )
        by_cfg[pcfg] = index, counts

    build_and_check(cfg)
    by_cfg[cfg][0].save(job["index"])
    for probe in w.probes:
        pcfg = child.config(w, probe.alphabets, probe.k_shingle, probe.threshold)
        if pcfg not in by_cfg:
            build_and_check(pcfg)
        index, counts = by_cfg[pcfg]
        p50, p95 = np.percentile(counts, [50, 95])
        if probe.regime == "dense":
            ok = p50 >= probe.share * len(index)
            rule = f"candidates p50 {p50:g} >= {probe.share:g} x index size {len(index)}"
        else:
            ok = p95 <= probe.share * len(index)
            rule = f"candidates p95 {p95:g} <= {probe.share:g} x index size {len(index)}"
        name = f"regime {probe.regime} at {child.cell_key(pcfg)}: {rule}"
        run.check(ok, name)
        run.notes.append(f"{name}: {'ok' if ok else 'FLIPPED'}")


# --- the two kinds of run ------------------------------------------------------


def end_to_end(run: Run, job: dict) -> dict:
    passes = []
    while len(passes) < MIN_PASSES or (
        run.elapsed() - run.measure_start + statistics.mean(p["pass_s"] for p in passes)
        <= run.args.seconds
    ):
        if passes and run.elapsed() + max(p["pass_s"] for p in passes) > DEADLINE_S:
            break
        t = time.monotonic()
        result = run.child("untraced", job, f"pass{len(passes)}")
        if result is None:
            break
        result["pass_s"] = time.monotonic() - t
        passes.append(result)
    if not passes:
        return {}
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], 1):
        run.check(p["digests"] == first, f"pass{i}: output digests differ from pass0")
    run.notes.append(f"output digests: {json.dumps(first, sort_keys=True)}")

    metrics = {}
    latencies = [x for p in passes for x in p.get("latencies_ms", [])]
    raw_latencies = [x for p in passes for x in p.get("raw_latencies_ms", [])]
    if latencies:
        for name, q in POOLED.items():
            metrics[name] = float(np.percentile(latencies, q))
            run.notes.append(
                f"{name}: p{q} {metrics[name]:.6g}, raw {np.percentile(raw_latencies, q):.6g}, "
                f"over n={len(latencies)} queries of {len(passes)} passes"
            )
    for name in declared("end_to_end"):
        if name in POOLED:
            continue
        samples = [p[name] for p in passes if p.get(name) is not None]
        if len(samples) < len(passes):
            continue
        metrics[name] = statistics.median(samples)
        raw = [p["raw"][name] for p in passes if name in p["raw"]]
        shown = f", raw median {statistics.median(raw):.6g}" if raw else ""
        run.notes.append(
            f"{name}: median {metrics[name]:.6g}{shown}, range {min(samples):.6g}.."
            f"{max(samples):.6g}, n={len(samples)} passes"
        )
    return metrics


def per_layer(run: Run, job: dict) -> dict:
    ref = run.child("reference", job, "reference")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    trace_job = dict(job, trace_out=str(out / f"trace-{run.args.workload}-seed{run.args.seed}.json"))
    traced = run.child("trace", trace_job, "trace")
    if ref is None or traced is None:
        return {}
    run.check(
        traced["confusion"] == ref["confusion"],
        "the traced pass's confusion counts differ from the protocol's",
    )
    metrics = dict(traced["metrics"])
    for key in ("preprocess_s", "build_s", "classify_s", "sketch_calls", "distinct_sketches"):
        metrics[f"pipeline.{key}"] = ref[key]
    metrics["pipeline.sketch_reuse_ratio"] = ref["distinct_sketches"] / ref["sketch_calls"]
    metrics["lsh.plan_calls"] = ref["plan_calls"]
    metrics["trace.overhead_ratio"] = traced["mirror_s"] / ref["wall_s"] - 1.0
    run.notes.append(
        f"protocol untraced {ref['wall_s']:.3f} s, traced {traced['mirror_s']:.3f} s; "
        f"spans in {trace_job['trace_out']}"
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the running pass is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "botdna" / "__init__.py").is_file():
        print(f"bench: botdna sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS, scaled, write_corpus

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = scaled(WORKLOADS[args.workload], args.scale)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    run = Run(args, workload, work)
    try:
        corpus, queries = write_corpus(workload, args.seed, work)
        job = {
            "workload": args.workload,
            "scale": args.scale,
            "corpus": corpus,
            "queries": queries,
            "index": str(work / "prebuilt.idx"),
            "work": str(work),
        }
        run.start_passes()
        prepare(run, job)
        run.measure_start = run.elapsed()
        if args.trace:
            metrics, units = per_layer(run, job), declared("per_layer")
        else:
            metrics, units = end_to_end(run, job), declared("end_to_end")
    finally:
        run.stop_passes()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale:g}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, {platform.machine()}")
    print(f"why: {next(w['why'] for w in SPEC['workloads'] if w['name'] == args.workload)}")
    for note in run.notes:
        print(note)
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    print(f"error rate: {run.failed}/{run.attempted}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
