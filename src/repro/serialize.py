"""Compact binary codecs for wire/storage records.

Hand-rolled length-prefixed format (no pickle: objects cross a trust
boundary, and footprint numbers must reflect honest wire sizes for the
metadata-expansion experiments, Fig. 2b / Fig. 7).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import StorageError


class Writer:
    """Append-only buffer of length-prefixed fields."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def bytes_field(self, value: bytes) -> "Writer":
        self._chunks.append(struct.pack(">I", len(value)))
        self._chunks.append(value)
        return self

    def str_field(self, value: str) -> "Writer":
        return self.bytes_field(value.encode("utf-8"))

    def u32(self, value: int) -> "Writer":
        if not 0 <= value < 2 ** 32:
            raise StorageError(f"u32 out of range: {value}")
        self._chunks.append(struct.pack(">I", value))
        return self

    def u64(self, value: int) -> "Writer":
        if not 0 <= value < 2 ** 64:
            raise StorageError(f"u64 out of range: {value}")
        self._chunks.append(struct.pack(">Q", value))
        return self

    def str_list(self, values) -> "Writer":
        values = list(values)
        self.u32(len(values))
        for value in values:
            self.str_field(value)
        return self

    def bytes_list(self, values) -> "Writer":
        values = list(values)
        self.u32(len(values))
        for value in values:
            self.bytes_field(value)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """Sequential field reader with bounds checking."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, n: int) -> bytes:
        if self._offset + n > len(self._data):
            raise StorageError("truncated record")
        chunk = self._data[self._offset:self._offset + n]
        self._offset += n
        return chunk

    def bytes_field(self) -> bytes:
        (length,) = struct.unpack(">I", self._take(4))
        return self._take(length)

    def str_field(self) -> str:
        try:
            return self.bytes_field().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError("malformed UTF-8 in string field") from exc

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def str_list(self) -> List[str]:
        return [self.str_field() for _ in range(self.u32())]

    def bytes_list(self) -> List[bytes]:
        return [self.bytes_field() for _ in range(self.u32())]

    def expect_end(self) -> None:
        if self._offset != len(self._data):
            raise StorageError("trailing bytes in record")


def split_signed(data: bytes) -> Tuple[bytes, bytes]:
    """Split ``payload || u32-len || signature`` envelope."""
    if len(data) < 4:
        raise StorageError("record too short for a signature envelope")
    (sig_len,) = struct.unpack(">I", data[-4:])
    if sig_len + 4 > len(data):
        raise StorageError("corrupt signature envelope")
    payload = data[:-(sig_len + 4)]
    signature = data[-(sig_len + 4):-4]
    return payload, signature


def join_signed(payload: bytes, signature: bytes) -> bytes:
    return payload + signature + struct.pack(">I", len(signature))
