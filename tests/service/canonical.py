"""A reference encoder of the canonical syndrome digest, for the tests.

Written out byte by byte, independently of
:func:`repro.service.requests.syndrome_digest`, so the suites can pin the
digest's definition rather than its implementation.
"""

from __future__ import annotations

import hashlib


def reference_digest(data: bytes) -> str:
    """The canonical digest form, written out byte by byte.

    A scheme tag and the length ``n``; then, when ``8·k ≤ n`` for the ``k``
    nonzero bytes, ``k`` plus the ascending offsets (``<u8``) and their
    values, else the raw bytes.
    """
    n = len(data)
    nonzero = [offset for offset, value in enumerate(data) if value]
    if 8 * len(nonzero) <= n:
        scheme = "sparse-sha256"
        body = (len(nonzero).to_bytes(8, "little")
                + b"".join(offset.to_bytes(8, "little") for offset in nonzero)
                + bytes(data[offset] for offset in nonzero))
    else:
        scheme, body = "dense-sha256", bytes(data)
    form = scheme.encode() + b"\0" + n.to_bytes(8, "little") + body
    return f"{scheme}:{hashlib.sha256(form).hexdigest()}"
