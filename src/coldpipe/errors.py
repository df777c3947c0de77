"""Exception types shared across the package; `cli` gives each its exit
code."""


class ColdpipeError(Exception):
    """Base class for coldpipe-specific failures."""


class ConfigError(ColdpipeError):
    """Bad config: unreadable, malformed, unknown keys, zero compute or link
    rate, or a rate so small that plan times overflow."""


class LimitError(ColdpipeError, ValueError):
    """Past a size limit.  Every limit raises it before the work it guards:
    cost-table bytes (`cost_tables.check_bytes`), DP table and fill scratch
    bytes (`dp_scheduler.check_fill_bytes`), the brute-force oracle's
    candidate count (`baselines.MAX_ORACLE_PLANS`) and a token count whose
    per-layer sizes pass float64 exactness (`model_profile.layer_sizes`)."""


class PlanError(ColdpipeError):
    """A plan breaks contiguity or device uniqueness: an internal fault."""


class InfeasibleError(PlanError):
    """A plan, or every plan, breaks the per-device memory constraints."""
