"""Seeded synthetic corpora for the benchmark workloads.

The real corpora the paper evaluates on (Cresci-2015/2017) cannot be
redistributed, so every workload is generated from a Philox seed and written
to the JSONL interchange format before anything is timed.  The same seed
always yields byte-identical files.

Two corpus shapes cover the banding regimes of Leskovec, Rajaraman & Ullman
(*Mining of Massive Datasets*, ch. 3):

* behaviour families: users copy their family's repeating post pattern
  (kind, entities and gap per post) with per-post noise.  Families are
  small, so under B3+B5+B9 a query collides only with its own family and
  banding filters almost everything (the sparse regime).
* uniform-random B3 timelines, the shape of acceptance criterion 8.  B3
  with k=4 has an 81-shingle universe that every 200-post timeline nearly
  covers, so every query collides with every indexed user (the dense
  regime).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

KINDS = ("plain", "retweet", "reply")
# (urls, hashtags, mentions) giving each B5 symbol: X, U, H, M, N.
ENTITIES = ((1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
# One gap inside each B9 bucket, in seconds: B, D, E, F, G, J, K, I, L.
GAPS = (600, 10_800, 28_800, 43_200, 64_800, 79_200, 259_200, 1_209_600, 5_184_000)

_EPOCH = 1_600_000_000
_POST = '{"ts": %d, "kind": "%s", "urls": %d, "hashtags": %d, "mentions": %d}'


def philox(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream), stable across numpy versions."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


@dataclass(frozen=True)
class FamilyShape:
    """A corpus of behaviour families."""

    users: int
    posts: int
    family_size: int
    cycle: int  # posts in a family's repeating pattern; fixed, so seeds differ only in content
    noise: float


@dataclass(frozen=True)
class UniformShape:
    """A corpus of uniform-random B3 timelines with one-hour gaps."""

    users: int
    posts: int
    bot_share_of_5: int  # user i is a bot when i % 5 < bot_share_of_5


def _user_line(user_id: str, label: str, kinds, entities, gaps, start: int) -> str:
    ts = start + np.cumsum(np.asarray(gaps, dtype=np.int64))
    posts = ", ".join(
        _POST % (t, KINDS[k], *ENTITIES[e]) for t, k, e in zip(ts.tolist(), kinds, entities)
    )
    return '{"user_id": "%s", "label": "%s", "tweets": [%s]}\n' % (user_id, label, posts)


def family_lines(shape: FamilyShape, seed: int, stream: int) -> list[str]:
    """JSONL lines of a family corpus; families alternate bot and human."""
    rng = philox(seed, stream)
    n_families = max(2, shape.users // shape.family_size)
    cycles = []
    for _ in range(n_families):
        cycles.append(
            (
                rng.integers(0, len(KINDS), shape.cycle),
                rng.integers(0, len(ENTITIES), shape.cycle),
                rng.integers(0, len(GAPS), shape.cycle),
            )
        )
    order = rng.permutation(shape.users)
    lines = []
    for i in order.tolist():
        family = i % n_families
        kind_c, ent_c, gap_c = cycles[family]
        phase = int(rng.integers(0, shape.cycle))
        pos = (np.arange(shape.posts) + phase) % shape.cycle
        kinds, ents, gaps = kind_c[pos], ent_c[pos], gap_c[pos]
        noisy = rng.random(shape.posts) < shape.noise
        n = int(noisy.sum())
        kinds[noisy] = rng.integers(0, len(KINDS), n)
        ents[noisy] = rng.integers(0, len(ENTITIES), n)
        gaps[noisy] = rng.integers(0, len(GAPS), n)
        label = "bot" if family % 2 == 0 else "human"
        start = _EPOCH + int(rng.integers(0, 86_400 * 365))
        lines.append(
            _user_line(f"f{family:04d}u{i:05d}", label, kinds.tolist(), ents.tolist(),
                       [GAPS[g] for g in gaps.tolist()], start)
        )
    return lines


def uniform_lines(shape: UniformShape, seed: int, stream: int, prefix: str) -> list[str]:
    """JSONL lines of uniform-random B3 timelines with a fixed bot share."""
    rng = philox(seed, stream)
    no_entities = [4] * shape.posts
    gaps = [3600] * shape.posts
    lines = []
    for i in range(shape.users):
        kinds = rng.integers(0, len(KINDS), shape.posts).tolist()
        label = "bot" if i % 5 < shape.bot_share_of_5 else "human"
        lines.append(_user_line(f"{prefix}{i:05d}", label, kinds, no_entities, gaps, _EPOCH + i))
    return lines


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# --- workload definitions --------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """A banding regime a workload must stay in, checked on every run.

    ``dense``: the median query collides with at least ``share`` of the
    indexed users.  ``sparse``: the 95th-percentile candidate count stays
    at or below ``share`` of the index.
    """

    alphabets: tuple[str, ...]
    k_shingle: int
    threshold: float
    regime: str
    share: float


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Every workload runs every protocol, so every run reports every
    end-to-end metric; ``focus`` names the protocol the corpus is sized
    for, which runs first in each pass (on cold caches, as a command line
    run would).  The other protocols run on fixed subsets:
    ``evaluate_users`` and ``grid_users`` are leading users of the corpus,
    ``index_users`` and ``query_users`` leading users of the ground-truth
    and test sides (serve-dense indexes the corpus and queries a second
    file).  Each pass issues ``loop_queries`` closed-loop queries, a
    multiple of ``query_users`` so that every query user weighs the same,
    and enough for one pass's p99 to have ten samples beyond it; the run
    takes its percentiles over the queries of all its passes.
    """

    name: str
    focus: str
    corpus: FamilyShape | UniformShape
    queries: UniformShape | None
    alphabets: tuple[str, ...]
    k_shingle: int
    threshold: float
    evaluate_users: int
    index_users: int
    query_users: int
    grid_users: int
    loop_queries: int
    grid_alphabets: tuple[tuple[str, ...], ...]
    grid_ks: tuple[int, ...]
    grid_thresholds: tuple[float, ...]
    probes: tuple[Probe, ...]


# Sized so that a pass takes 4-7 s on two vCPUs and a 30-second run makes
# four to six passes: seventy runs of the three workloads fit in an hour.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evaluate-sparse",
            focus="evaluate",
            corpus=FamilyShape(users=1000, posts=200, family_size=10, cycle=32, noise=0.05),
            queries=None,
            alphabets=("B3", "B5", "B9"),
            k_shingle=6,
            threshold=0.2,
            evaluate_users=1000,
            index_users=500,
            query_users=300,
            grid_users=300,
            loop_queries=1200,
            grid_alphabets=(("B3", "B5", "B9"),),
            grid_ks=(6,),
            grid_thresholds=(0.2, 0.4),
            probes=(Probe(("B3", "B5", "B9"), 6, 0.2, "sparse", 0.05),),
        ),
        Workload(
            name="serve-dense",
            focus="serve",
            corpus=UniformShape(users=1000, posts=200, bot_share_of_5=3),
            queries=UniformShape(users=200, posts=200, bot_share_of_5=3),
            alphabets=("B3",),
            k_shingle=4,
            threshold=0.5,
            evaluate_users=800,
            index_users=1000,
            query_users=200,
            grid_users=500,
            loop_queries=1000,
            grid_alphabets=(("B3",),),
            grid_ks=(4,),
            grid_thresholds=(0.5, 0.7),
            probes=(Probe(("B3",), 4, 0.5, "dense", 1.0),),
        ),
        Workload(
            name="grid-small",
            focus="grid",
            corpus=FamilyShape(users=1000, posts=120, family_size=30, cycle=16, noise=0.05),
            queries=None,
            alphabets=("B3", "B5"),
            k_shingle=4,
            threshold=0.4,
            evaluate_users=1000,
            index_users=700,
            query_users=300,
            grid_users=300,
            loop_queries=1200,
            grid_alphabets=(("B3",), ("B3", "B5"), ("B3", "B5", "B9")),
            grid_ks=(3, 4, 6),
            grid_thresholds=(0.2, 0.4, 0.6),
            # Family cycles do not cover all 27 B3 3-grams, so a few pairs
            # of users can miss each other even in the dense cell.
            probes=(
                Probe(("B3",), 3, 0.2, "dense", 0.9),
                Probe(("B3", "B5", "B9"), 6, 0.6, "sparse", 0.05),
            ),
        ),
    )
}


def scaled(workload: Workload, scale: float) -> Workload:
    """The workload with every user count multiplied by ``scale``."""
    if scale == 1.0:
        return workload

    def n(count: int) -> int:
        return max(20, round(count * scale))

    def shape(s):
        if s is None:
            return None
        if isinstance(s, FamilyShape):
            # Families shrink with the corpus, so a query still collides with
            # the same share of the index and the workload keeps its regime.
            s = replace(s, family_size=max(2, round(s.family_size * scale)))
        return replace(s, users=n(s.users))

    return replace(
        workload,
        corpus=shape(workload.corpus),
        queries=shape(workload.queries),
        evaluate_users=n(workload.evaluate_users),
        index_users=n(workload.index_users),
        query_users=n(workload.query_users),
        grid_users=n(workload.grid_users),
        loop_queries=n(workload.loop_queries),
    )


def write_corpus(workload: Workload, seed: int, directory) -> tuple[str, str | None]:
    """Write the workload's JSONL input(s); returns (corpus path, queries path)."""
    directory = Path(directory)
    corpus = directory / "corpus.jsonl"
    if isinstance(workload.corpus, FamilyShape):
        write_lines(corpus, family_lines(workload.corpus, seed, 1))
    else:
        write_lines(corpus, uniform_lines(workload.corpus, seed, 1, "g"))
    if workload.queries is None:
        return str(corpus), None
    queries = directory / "queries.jsonl"
    write_lines(queries, uniform_lines(workload.queries, seed, 2, "q"))
    return str(corpus), str(queries)
