"""Test-only reference implementations that production code replaced.

Each module keeps the literal algorithm a fast path supersedes, so the
differential tests can compare production against it byte for byte.
"""
