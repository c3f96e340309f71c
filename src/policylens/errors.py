"""Exception hierarchy shared across the package."""


class PolicyLensError(Exception):
    """Base class for all errors raised by this package."""


class PolicySyntaxError(PolicyLensError):
    """Policy text is not well-formed (cannot be read at all)."""


class SchemaError(PolicyLensError):
    """Policy text parsed but violates the document schema."""


class RegexSyntaxError(PolicyLensError):
    """Regular-expression surface text is malformed."""


class UnsupportedConstruct(RegexSyntaxError):
    """Regex uses a construct outside the supported dialect."""


class AlphabetError(PolicyLensError):
    """A character falls outside the printable-ASCII alphabet."""


class StateBlowup(PolicyLensError):
    """An automaton construction exceeded the configured state cap."""


class CubeBlowup(PolicyLensError):
    """A request-set operation exceeded the configured cube cap."""


class EmptyLanguage(PolicyLensError):
    """Sampling was asked to draw from an empty language."""


class InsufficientLanguage(PolicyLensError):
    """A request side (allowed or denied) is empty, so it cannot be sampled."""


class ProviderError(PolicyLensError):
    """An LLM provider failed (transport error or timeout) after its retry budget."""


class VerificationError(PolicyLensError, RuntimeError):
    """A sampled request failed its re-check against the exact request sets."""
