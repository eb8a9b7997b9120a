"""Shared binary container: magic bytes, version, JSON header, packed payload.

Both the dataset file format and the network checkpoint format use this
envelope so round-trips are bit-exact and headers stay human-inspectable.
Layout: magic (4 bytes), u32 version, u64 header length, UTF-8 JSON header,
raw payload bytes. All integers little-endian.

Payloads stream: :func:`write_envelope` writes the head and then each chunk
it is handed, and :func:`read_envelope` reads only the head of an open file,
leaving the caller to read the payload, whose size comes from ``os.fstat``.
"""

import json
import os
import struct


class EnvelopeError(ValueError):
    """Malformed container file."""


def encode_header(header: dict) -> bytes:
    # canonical JSON so identical content always yields identical bytes
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_envelope(path, magic: bytes, version: int, header: dict, chunks) -> None:
    """Write the head, then each bytes-like object of ``chunks`` in order;
    each chunk is written before the next is drawn, so a generator may reuse
    one buffer."""
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    head = encode_header(header)
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<IQ", version, len(head)) + head)
        for chunk in chunks:
            f.write(chunk)


def read_envelope(f, magic: bytes, max_version: int):
    """Read the head of the open binary file ``f`` and leave ``f`` at the
    payload. Return (version, header, payload size in bytes). Raises
    EnvelopeError, naming ``f.name``, on any defect."""
    size = os.fstat(f.fileno()).st_size
    if size < 16:
        raise EnvelopeError(f"{f.name}: file too short ({size} bytes) for envelope")
    raw = f.read(16)
    if raw[:4] != magic:
        raise EnvelopeError(f"{f.name}: bad magic {raw[:4]!r}, expected {magic!r}")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if not 1 <= version <= max_version:
        raise EnvelopeError(f"{f.name}: unsupported version {version}")
    if 16 + header_len > size:
        raise EnvelopeError(f"{f.name}: header length {header_len} overruns file")
    try:
        header = json.loads(f.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EnvelopeError(f"{f.name}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise EnvelopeError(f"{f.name}: header must be a JSON object")
    return version, header, size - 16 - header_len
