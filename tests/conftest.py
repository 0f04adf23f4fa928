"""Shared helpers for the test suite."""

from invariant_control.dynamics import tls_fidelity  # noqa: F401
