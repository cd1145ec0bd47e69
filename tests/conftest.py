"""Shared synthetic-data builders for the test suite."""

import json
import struct

import numpy as np
from hypothesis import strategies as st

from botdna.encoding import PostRecord, UserTimeline
from botdna.lsh import BandingPlan, LshIndex
from botdna.minhash import MinHashSignature, ShingleSet

TOKEN_WIDTH = 16


def make_tokens(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct fixed-width hex tokens, deterministic for a given rng state."""
    out: set[str] = set()
    while len(out) < n:
        for v in rng.integers(0, 1 << 60, size=n):
            out.add(format(int(v), f"0{TOKEN_WIDTH}x"))
            if len(out) >= n:
                break
    return sorted(out)


def make_set_pair(exact_jaccard: float, union_size: int, rng: np.random.Generator):
    """Two ShingleSets whose exact Jaccard is round(j*u)/u by construction.

    Built as shared-core-plus-disjoint-tails: |A ∩ B| = m tokens common to
    both, the remaining union elements split between the two sides.
    """
    m = round(exact_jaccard * union_size)
    tokens = make_tokens(rng, union_size)
    core = tokens[:m]
    rest = tokens[m:]
    half = len(rest) // 2
    a = frozenset(core + rest[:half])
    b = frozenset(core + rest[half:])
    return (
        ShingleSet("set-a", TOKEN_WIDTH, a),
        ShingleSet("set-b", TOKEN_WIDTH, b),
    )


def exact_jaccard(a: ShingleSet, b: ShingleSet) -> float:
    union = a.shingles | b.shingles
    return len(a.shingles & b.shingles) / len(union) if union else 1.0


def signature_blob(user_id: str, num_perm: int, seed: int, values) -> bytes:
    """A signature blob packed field by field, as ``to_bytes`` lays it out.

    It may carry what no signature holds, such as a num_perm outside the
    rule, so that a test can show a reader refusing it.
    """
    uid = user_id.encode("utf-8")
    header = struct.pack("<4sBQIH", b"BDSG", 1, seed, num_perm, len(uid))
    return header + uid + np.asarray(values, dtype="<u8").tobytes()


def counting_digests(monkeypatch) -> list[tuple[int, ...]]:
    """Patch ``LshIndex.band_digests`` to log the shape of each call's values."""
    calls, band_digests = [], LshIndex.band_digests
    monkeypatch.setattr(LshIndex, "band_digests",
                        lambda self, values: calls.append(np.shape(values)) or band_digests(self, values))
    return calls


def floors_around(num_perm: int, counts) -> list[float]:
    """Each quotient ``m / num_perm`` of ``counts`` and the floats just below and above it, in [0, 1]."""
    quotients = np.asarray(counts) / num_perm
    near = np.concatenate([quotients, np.nextafter(quotients, -1.0), np.nextafter(quotients, 2.0)])
    return sorted(set(near[(near >= 0.0) & (near <= 1.0)].tolist()))


def draw_index_parts(data):
    """Draw an empty small index, labeled signatures and query signatures.

    ``data`` is hypothesis's ``st.data()``.  Any factorization of num_perm
    may be drawn, ``rows=1`` and ``bands=1`` included.  Signature values
    come from an alphabet of one to four symbols, and a signature may
    repeat an earlier one's values, so band digests collide often and a
    query can match most of the index.  The queries are every signature
    to insert plus one more.
    """
    num_perm = data.draw(st.sampled_from([2, 4, 6, 8, 12]), label="num_perm")
    bands = data.draw(
        st.sampled_from([b for b in range(1, num_perm + 1) if num_perm % b == 0]), label="bands"
    )
    threshold = data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]), label="threshold")
    symbols = data.draw(st.integers(1, 4), label="symbols")
    count = data.draw(st.integers(0, 12), label="count")
    index = LshIndex(BandingPlan(threshold, bands, num_perm // bands), num_perm, seed=5)

    drawn = []

    def signature(user_id):
        if drawn and data.draw(st.booleans(), label="repeat"):
            values = data.draw(st.sampled_from(drawn), label="repeated values")
        else:
            values = data.draw(
                st.lists(st.integers(0, symbols - 1), min_size=num_perm, max_size=num_perm)
            )
            drawn.append(values)
        return MinHashSignature(user_id, num_perm, 5, np.array(values, dtype=np.uint64))

    entries = [
        (signature(f"u{i}"), data.draw(st.sampled_from(["human", "bot"]))) for i in range(count)
    ]
    probes = [sig for sig, _ in entries] + [signature("probe")]
    return index, entries, probes


# --- synthetic behavioral corpora ------------------------------------------

BOT_KIND_CYCLES = [("retweet",), ("retweet", "retweet", "plain")]
HUMAN_KIND_CYCLES = [("plain", "reply"), ("plain", "plain", "reply", "retweet")]

KINDS = ("plain", "retweet", "reply")


def archetype_timeline(
    user_id: str,
    label: str,
    cycle: tuple,
    n_posts: int,
    rng: np.random.Generator,
    noise: float = 0.0,
    gap_seconds: int = 3600,
) -> UserTimeline:
    """Timeline following a repeating kind pattern, optionally noise-flipped."""
    posts = []
    ts = 1_000_000
    flips = rng.random(n_posts) < noise if noise > 0 else np.zeros(n_posts, dtype=bool)
    noisy_kinds = rng.integers(0, len(KINDS), size=n_posts)
    for i in range(n_posts):
        kind = KINDS[noisy_kinds[i]] if flips[i] else cycle[i % len(cycle)]
        posts.append(PostRecord(ts, kind))
        ts += gap_seconds
    return UserTimeline(user_id, label, posts)


def synthetic_corpus(
    n_users: int,
    n_posts: int,
    seed: int,
    noise: float = 0.0,
    bot_cycles=None,
    human_cycles=None,
) -> list[UserTimeline]:
    """Balanced corpus of bot/human archetype timelines."""
    bot_cycles = bot_cycles or BOT_KIND_CYCLES[:1]
    human_cycles = human_cycles or HUMAN_KIND_CYCLES[:1]
    rng = np.random.Generator(np.random.Philox(key=seed))
    users = []
    for i in range(n_users):
        if i % 2 == 0:
            cycle = bot_cycles[(i // 2) % len(bot_cycles)]
            users.append(archetype_timeline(f"bot{i:05d}", "bot", cycle, n_posts, rng, noise))
        else:
            cycle = human_cycles[(i // 2) % len(human_cycles)]
            users.append(archetype_timeline(f"hum{i:05d}", "human", cycle, n_posts, rng, noise))
    return users


def family_corpus(families: int, size: int, posts: int, cycle: int, noise: float, seed: int):
    """Users of behaviour families, shuffled, as evaluate-sparse's corpus is made.

    A family repeats one pattern of ``cycle`` posts (kind, entities and
    gap), each member from its own phase, with each post redrawn at rate
    ``noise``; families alternate bot and human.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    entities = [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    gaps = [600, 10_800, 28_800, 43_200, 64_800, 79_200, 259_200, 1_209_600, 5_184_000]
    patterns = [rng.integers(0, [3, 5, 9], size=(cycle, 3)) for _ in range(families)]
    users = []
    for i in rng.permutation(families * size).tolist():
        family = i % families
        rows = patterns[family][(np.arange(posts) + rng.integers(0, cycle)) % cycle]
        noisy = rng.random(posts) < noise
        rows[noisy] = rng.integers(0, [3, 5, 9], size=(int(noisy.sum()), 3))
        ts = np.cumsum([gaps[g] for g in rows[:, 2].tolist()]).tolist()
        records = [PostRecord(t, KINDS[k], *entities[e]) for t, (k, e, _) in zip(ts, rows.tolist())]
        users.append(UserTimeline(f"f{family:02d}u{i:03d}", "bot" if family % 2 == 0 else "human", records))
    return users


def corpus_to_jsonl(users, path):
    """Serialize timelines into the neutral JSONL interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        for user in users:
            doc = {
                "user_id": user.user_id,
                "label": user.label,
                "tweets": [
                    {
                        "ts": p.timestamp,
                        "kind": p.kind,
                        "urls": p.url_count,
                        "hashtags": p.hashtag_count,
                        "mentions": p.mention_count,
                    }
                    for p in user.posts
                ],
            }
            fh.write(json.dumps(doc) + "\n")
    return path

