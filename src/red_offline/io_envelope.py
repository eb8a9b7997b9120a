"""Shared binary container: magic bytes, version, JSON header, packed payload.

Both the dataset file format and the network checkpoint format use this
envelope so round-trips are bit-exact and headers stay human-inspectable.
Layout: magic (4 bytes), u32 version, u64 header length, UTF-8 JSON header,
raw payload bytes. All integers little-endian.
"""

import json
import struct


class EnvelopeError(ValueError):
    """Malformed container file."""


def encode_header(header: dict) -> bytes:
    # canonical JSON so identical content always yields identical bytes
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_envelope(path, magic: bytes, version: int, header: dict, payload: bytes) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    head = encode_header(header)
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", version))
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        f.write(payload)


def read_envelope(path, magic: bytes, max_version: int):
    """Return (version, header, payload), the payload as a read-only
    ``memoryview`` of the file bytes. Raises EnvelopeError on any defect."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise EnvelopeError(f"{path}: file too short ({len(raw)} bytes) for envelope")
    if raw[:4] != magic:
        raise EnvelopeError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if not 1 <= version <= max_version:
        raise EnvelopeError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    if 16 + header_len > len(raw):
        raise EnvelopeError(f"{path}: header length {header_len} overruns file")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EnvelopeError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise EnvelopeError(f"{path}: header must be a JSON object")
    return version, header, memoryview(raw)[16 + header_len :]
