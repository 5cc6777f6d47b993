"""Deterministic seed derivation.

Every stochastic operation takes an explicit seed derived from a single
top-level seed plus the identifiers of the computation (operation tag,
scenario label, ...). The shuffle test's permutation bank, for one, is
seeded by (seed, "shuffle-perm"). Results are then independent of
evaluation order and worker count.
"""

import hashlib


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of ints/strings, each part UTF-8 encoded.

    An ASCII part encodes to the same bytes under ASCII and UTF-8.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if not isinstance(part, (int, str)):
            raise TypeError(f"unsupported seed part {part!r}")
        h.update(str(part).encode("utf-8"))
        h.update(b"|")
    return int.from_bytes(h.digest(), "big")
