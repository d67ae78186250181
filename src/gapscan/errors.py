"""The package's own exception types, kept only where a class changes an
exit code (a RuntimeError exits 3 where a ValueError exits 2) or a
handler.  Every other check raises a plain ValueError."""


class IdentityCheckError(RuntimeError):
    """An exact arithmetic identity failed on genuine pair data.  This is an
    internal error (an arithmetic bug), never a mathematical finding, and it
    aborts the scan that detected it."""


class CheckpointCorruptError(RuntimeError):
    """Checkpoint file is unreadable or structurally invalid."""


class CheckpointMismatchError(ValueError):
    """Checkpoint belongs to a different scan configuration (or an
    unsupported checkpoint version); `load_checkpoint` lets it through
    where it turns every other ValueError into CheckpointCorruptError."""
