"""Context-conditioned EMA correlation-network analysis for n-of-1 sensing data."""

__version__ = "0.3.4"
