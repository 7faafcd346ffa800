"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class InvalidInstanceError(ReproError):
    """An MQDP instance violates a structural invariant.

    Raised for example when a post carries an empty label set, when a label
    referenced by a post is missing from the declared universe, or when the
    distance threshold ``lam`` is negative.
    """


class InvalidCoverError(ReproError):
    """A candidate solution is not a valid lambda-cover of its instance."""


class AlgorithmBudgetExceeded(ReproError):
    """An exact algorithm was asked to solve an instance beyond its budget.

    The exact dynamic program (:mod:`repro.core.opt`) and the brute-force
    solver (:mod:`repro.core.brute_force`) are exponential; they refuse, with
    this exception, inputs whose projected state space exceeds the configured
    limit rather than silently running forever.
    """


class StreamOrderError(ReproError):
    """Posts were fed to a streaming algorithm out of timestamp order."""


class EmissionInvariantError(ReproError):
    """A streaming algorithm violated an emission invariant.

    Raised by the stream driver (and by the resilience supervisor) when an
    algorithm emits the same post twice, emits a post that never arrived, or
    stamps an emission before the post's own timestamp.  These used to be
    bare ``assert`` statements, but asserts vanish under ``python -O`` and
    invariant enforcement must not depend on interpreter flags.
    """


class SanitizationError(ReproError):
    """A malformed post was rejected by a ``raise`` sanitization policy.

    The resilience supervisor raises this when its
    :class:`~repro.resilience.policies.SanitizationPolicy` is configured to
    refuse (rather than quarantine or repair) a malformed arrival: a
    non-finite diversity value, an empty label set, or a duplicate uid.
    """


class CheckpointError(ReproError):
    """A supervisor checkpoint could not be restored.

    Raised when a serialized checkpoint is malformed, or when replaying its
    arrival journal does not reproduce the recorded emission sequence (the
    recovery-equivalence check failed).
    """


class LoaderError(ReproError):
    """A data file could not be read after the configured retry budget.

    Raised by :func:`repro.datagen.loaders.read_text_with_retry` once every
    attempt of the exponential-backoff loop has failed; the original
    ``OSError`` is attached as ``__cause__``.
    """


class IngestError(ReproError):
    """The durable ingest pipeline hit an unrecoverable condition.

    Raised by :mod:`repro.ingest` for misconfiguration (bad directories,
    invalid windows) and for protocol violations that replay cannot fix.
    """


class WalCorruptionError(IngestError):
    """A write-ahead-log segment is damaged beyond framing recovery.

    A torn *tail* record (the crash-mid-append case) is repaired silently
    by truncation; this error means corruption struck *inside* the log —
    a mangled magic marker or an unskippable frame — so the byte stream
    can no longer be trusted as a replay source.
    """


class UnknownAlgorithmError(ReproError):
    """A name passed to the algorithm registry does not match any algorithm."""


class ReductionError(ReproError):
    """The CNF-to-MQDP reduction received a malformed formula."""
