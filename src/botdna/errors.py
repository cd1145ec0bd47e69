"""Exception types raised across the toolkit."""


class BotDnaError(Exception):
    """Base class for all toolkit errors."""


class EmptyTimeline(BotDnaError):
    """A user timeline with zero posts cannot be encoded."""


class SequenceTooShort(BotDnaError):
    """A DNA sequence shorter than the shingle window cannot be shingled."""


class EmptySet(BotDnaError):
    """An empty shingle set has no MinHash signature."""


class IncompatibleSignatures(BotDnaError):
    """Signatures that cannot be compared: built with different num_perm or seed, or
    sketched under another encoding recipe (alphabets in order, k_shingle) than an index's."""


class DuplicateUser(BotDnaError):
    """A user id was inserted into an index more than once, or repeats within
    a dataset given to a protocol (``pipeline.preprocess``)."""


class FormatError(BotDnaError):
    """An input file could not be parsed at all."""


class IntegrityError(BotDnaError):
    """An input file parsed, but too many records were malformed."""


class UnknownUser(BotDnaError):
    """A fixed split list referenced a user id absent from the dataset."""


class MissingLabel(BotDnaError):
    """A prediction could not be scored because its user has no truth label."""
