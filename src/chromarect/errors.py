"""Error taxonomy shared by every module.

Two broad classes matter to callers (and to the CLI's exit codes):

* :class:`DomainError` — the input itself is invalid (exit code 1).
* :class:`ResourceLimitError` — the input is fine but a configured budget
  (vertex count, search nodes) was exceeded (exit code 2).

Every error carries a short machine-readable ``code`` and an optional
``details`` dict so the CLI can emit structured JSON on stderr.
"""

from __future__ import annotations


class ChromarectError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json_dict(self) -> dict:
        out = {"error": self.code, "message": str(self)}
        out.update(self.details)
        return out


class DomainError(ChromarectError):
    """Invalid input: malformed structures, violated preconditions."""

    code = "domain-error"


class ResourceLimitError(ChromarectError):
    """A configured resource budget was exceeded."""

    code = "resource-limit"


class NodeBudgetExceeded(ResourceLimitError):
    """An exact search's node budget ran out before an answer was proved,
    or the search's step bound exceeds the budget before it starts."""

    code = "node-budget-exceeded"


class SizeLimitExceeded(ResourceLimitError):
    """A construction would exceed the configured vertex limit."""

    code = "size-limit-exceeded"


class PaletteExceedsGuarantee(DomainError):
    """The constructive finder was given a coloring with more colors than
    the structure guarantees a monochromatic edge for, and none was found
    on the traversed blocks."""

    code = "palette-exceeds-guarantee"


class VerificationError(ChromarectError):
    """A mandatory self-check failed.

    Raised by builders that must verify their own output (realizers,
    AP translators).  Signals an implementation bug, never user error.
    """

    code = "verification-failed"


class StreamExhausted(DomainError):
    """A difference stream ended before the greedy recursion was satisfied."""

    code = "stream-exhausted"
