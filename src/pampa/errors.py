class PampaError(Exception):
    """Base class for solver errors."""


class ConfigError(PampaError):
    """Invalid run configuration or arguments."""


class DomainError(PampaError):
    """A state left the invariant domain where validity is required."""
