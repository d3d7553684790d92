"""Exception types shared across the pipeline.

Each class mirrors one error named in a module contract; all inherit from
TopicEnsembleError so callers can catch pipeline failures in one clause.
"""


class TopicEnsembleError(Exception):
    pass


# corpus
class MalformedRecord(TopicEnsembleError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}" if line else reason)
        self.line = line
        self.reason = reason


class DuplicateId(TopicEnsembleError):
    pass


class EmptyText(TopicEnsembleError):
    pass


class DuplicateShortName(TopicEnsembleError):
    pass


class MissingDescription(TopicEnsembleError):
    pass


class NestingTooDeep(TopicEnsembleError):
    pass


# annotator
class BackendUnavailable(TopicEnsembleError):
    pass


class BadStatus(TopicEnsembleError):
    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status
        self.body = body


class Unparseable(TopicEnsembleError):
    pass


class CacheError(TopicEnsembleError):
    pass


class FailureBudgetExceeded(TopicEnsembleError):
    pass


# relevancy
class ZeroNormVector(TopicEnsembleError):
    pass


# agreement
class IncompleteRatings(TopicEnsembleError):
    pass


class DegenerateChance(TopicEnsembleError):
    pass


class OutOfRange(TopicEnsembleError):
    pass


class TooFewModels(TopicEnsembleError):
    pass


# ensemble
class ZeroVariance(TopicEnsembleError):
    pass


# evaluation
class LengthMismatch(TopicEnsembleError):
    pass


class NoPositives(TopicEnsembleError):
    pass


# stubserver
class PortInUse(TopicEnsembleError):
    pass


# cli / pipeline
class ConfigInvalid(TopicEnsembleError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MissingUpstreamArtifact(TopicEnsembleError):
    pass
