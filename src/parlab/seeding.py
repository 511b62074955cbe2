"""Deterministic seed derivation.

All randomness in the package flows through seeds derived here, so episodes,
sub-agent draws and training runs replay identically across processes. The
seeds are the same on every platform, but the float arithmetic of a run
(policy softmax, gradients, and through them the sampled tokens) is byte for
byte reproducible only per machine type, i.e. per numpy SIMD level and BLAS
kernel (ROADMAP item 1).
Python's builtin ``hash`` is salted per process for strings, hence the
explicit SHA-256 construction.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from an arbitrary tuple of parts.

    Parts are joined by their ``str`` form, so ``derive_seed("rollout", 3, 0)``
    is reproducible everywhere. Distinct part tuples give independent streams.
    """
    text = "\x1f".join(map(str, parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
