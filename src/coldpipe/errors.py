"""Exception types shared across the package.  `cli.main` exits 1 on
LimitError, 2 on ConfigError and 3 on InfeasibleError; others propagate."""


class ColdpipeError(Exception):
    """Base class for coldpipe-specific failures."""


class ConfigError(ColdpipeError):
    """Bad config: unreadable, malformed, unknown keys, zero compute or link rate."""


class LimitError(ColdpipeError, ValueError):
    """Past a size limit: DP table bytes, brute force, float64 exactness."""


class PlanError(ColdpipeError):
    """A plan breaks contiguity or device uniqueness: an internal fault."""


class InfeasibleError(PlanError):
    """A plan, or every plan, breaks the per-device memory constraints."""
