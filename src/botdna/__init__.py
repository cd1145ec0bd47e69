"""Training-free social bot detection toolkit.

Pipeline: encode user timelines as behavioral DNA strings, fingerprint
them with shingling + MinHash, index labeled fingerprints with banded LSH,
and classify unknown users by majority vote over approximate nearest
neighbors.
"""

from .classify import EvaluationReport, NeighborSet, Prediction, classify, classify_many, score, vote
from .data import Dataset, SplitSpec, cap_tweets, filter_min_length, load, read_id_list, split
from .encoding import (
    ALPHABETS,
    B3_TYPE,
    B5_CONTENT,
    B9_TEMPORAL,
    Alphabet,
    DnaSequence,
    PostRecord,
    UserTimeline,
    encode_b3,
    encode_b5,
    encode_b9,
    encode_user,
)
from .errors import (
    BotDnaError,
    DuplicateUser,
    EmptySet,
    EmptyTimeline,
    FormatError,
    IncompatibleSignatures,
    IntegrityError,
    MissingLabel,
    SequenceTooShort,
    UnknownUser,
)
from .lsh import BandingPlan, LshIndex, Neighbor, lsh_plan
from .minhash import MinHashSignature, ShingleSet, estimate_jaccard, minhash, shingle
from .pipeline import (
    RunConfig,
    build_index,
    cross_dataset,
    early_detection,
    evaluate,
    grid_search,
    gt_sweep,
    signature_for,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABETS",
    "Alphabet",
    "B3_TYPE",
    "B5_CONTENT",
    "B9_TEMPORAL",
    "BandingPlan",
    "BotDnaError",
    "Dataset",
    "DnaSequence",
    "DuplicateUser",
    "EmptySet",
    "EmptyTimeline",
    "EvaluationReport",
    "FormatError",
    "IncompatibleSignatures",
    "IntegrityError",
    "LshIndex",
    "MinHashSignature",
    "MissingLabel",
    "Neighbor",
    "NeighborSet",
    "PostRecord",
    "Prediction",
    "RunConfig",
    "SequenceTooShort",
    "ShingleSet",
    "SplitSpec",
    "UnknownUser",
    "UserTimeline",
    "build_index",
    "cap_tweets",
    "classify",
    "classify_many",
    "cross_dataset",
    "early_detection",
    "encode_b3",
    "encode_b5",
    "encode_b9",
    "encode_user",
    "estimate_jaccard",
    "evaluate",
    "filter_min_length",
    "grid_search",
    "gt_sweep",
    "load",
    "lsh_plan",
    "minhash",
    "read_id_list",
    "score",
    "shingle",
    "signature_for",
    "split",
    "vote",
]
