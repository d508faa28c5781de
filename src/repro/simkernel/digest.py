"""Canonical JSON and SHA-256 digests: the one form every fingerprint uses.

Determinism witnesses across the platform — chaos fingerprints, fleet
fingerprints, the service response log, ledger block hashes — are all
SHA-256 over *canonical* JSON: sorted keys, no whitespace, UTF-8.  They
share these helpers so the canonical form cannot drift between them.
"""

import hashlib
import json
from typing import Any, Callable, Optional

__all__ = ["canonical_json", "canonical_sha256", "sha256_hex"]


def canonical_json(obj: Any, default: Optional[Callable[[Any], Any]] = None) -> str:
    """``obj`` as sorted-key, whitespace-free JSON (``default`` as in json.dumps)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of ``text`` encoded as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_sha256(obj: Any, default: Optional[Callable[[Any], Any]] = None) -> str:
    """Hex SHA-256 of :func:`canonical_json` of ``obj``."""
    return sha256_hex(canonical_json(obj, default))
