"""Shared exception types."""

__all__ = ["RejectionError"]


class RejectionError(Exception):
    """A mathematically meaningful rejection: a violated invariant or criterion.

    Distinct from malformed input.  The command line tool reports these as
    structured rejections with exit status 1; input errors exit with status 2.
    """
