"""Forge ``repro.container`` bytes the way a hostile writer would.

The hostile-input tests of snapshot segments, checkpoint payloads and saved
models alter a good container's JSON header and hand the result to the one
reader; these helpers re-lay the bytes so that only the tampered field is
wrong.
"""

import json
import zlib

from repro import container


def reheader(good: bytes, tamper) -> bytes:
    """Container ``good`` with its JSON header altered in place by
    ``tamper`` (the arenas move with the header's length, so their offsets
    stay valid)."""
    prefix = container._PREFIX
    magic, version, hlen = prefix.unpack_from(good, 0)
    header = json.loads(good[prefix.size : prefix.size + hlen])
    tamper(header)
    text = json.dumps(header).encode()
    start = container._aligned(prefix.size + len(text))
    return (
        prefix.pack(magic, version, len(text)) + text
        + bytes(start - prefix.size - len(text)) + good[container._aligned(prefix.size + hlen) :]
    )


def refile(good: bytes, tamper) -> bytes:
    """Payload file ``good`` re-headered by ``tamper``, under a CRC-32 that
    matches again: only the container's own checks stand in the way."""
    body = reheader(good[:-4], tamper)
    return body + zlib.crc32(body).to_bytes(4, "little")
