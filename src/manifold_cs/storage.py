"""Single-file container: magic, JSON manifest, then a raw float64 blob.

Layout (all integers little-endian):

    bytes 0..7    magic (ASCII tag identifying the payload kind)
    bytes 8..15   uint64 byte length of the manifest
    manifest      UTF-8 JSON text
    blob          little-endian float64 arrays, in the order and shapes the
                  manifest gives
"""

import json
import os
import struct

from .errors import FileFormatError

DICT_MAGIC = b"MCSDICT1"
MATRIX_MAGIC = b"MCSMTRX1"


def write_container(path, magic, manifest, blob):
    if len(magic) != 8:
        raise ValueError("magic must be 8 bytes")
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(manifest_bytes)))
        fh.write(manifest_bytes)
        fh.write(blob)


def read_container(path, magic):
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head != magic:
            raise FileFormatError("bad header: expected %r, got %r" % (magic, head))
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise FileFormatError("truncated file: missing manifest length")
        (mlen,) = struct.unpack("<Q", raw_len)
        if mlen > os.fstat(fh.fileno()).st_size - 16:
            raise FileFormatError("truncated file: manifest cut short")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FileFormatError("unreadable manifest: %s" % exc) from exc
        if not isinstance(manifest, dict):
            raise FileFormatError("manifest is a JSON %s, not an object" % type(manifest).__name__)
        blob = fh.read()
    return manifest, blob
