"""Length-prefixed JSON frames: the cluster's wire encoding.

Every message between the router and a worker is one *frame*: a 4-byte
big-endian length header followed by a UTF-8 JSON object.  The format is
deliberately boring — the interesting wire work is done by the
``to_dict``/``from_dict`` methods on every domain object, and frames
just carry those dicts across an asyncio stream.  The bulk of the bytes
is a digest answer's instance, which ``Instance.to_dict`` encodes as
columns (uids, values, one label bitmask and one text per post) rather
than one JSON object per post.  The values column is one base64 string
of little-endian float64s; the others are JSON lists.  One decoder,
``InstanceColumns.decode``, checks the columns for both
``Instance.from_dict`` and ``DigestResult.from_dict``.

Two failure modes matter and both are rejected *before* any unbounded
read, so a hostile or corrupt peer can never hang a reader mid-frame:

* **oversized frames** — a header announcing more than ``max_frame``
  bytes raises :class:`FrameTooLargeError` immediately; the body is
  never read.  (After a length desync there is no way to resynchronise a
  length-prefixed stream, so callers must drop the connection.)
* **truncated frames** — EOF inside a header or body raises
  :class:`TruncatedFrameError`.  A clean EOF *between* frames returns
  ``None``, which is how a peer politely hangs up.

:class:`FrameDecoder` is the synchronous incremental twin of
:func:`read_frame` — same states, same rejections, byte-at-a-time
feedable — used by the wire-format fuzz tests to prove the codec never
accepts a frame the async reader would reject (and vice versa).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, List, Optional

from ..errors import ReproError

__all__ = [
    "FrameDecoder",
    "FrameError",
    "FrameTooLargeError",
    "MAX_FRAME",
    "TruncatedFrameError",
    "encode_frame",
    "read_frame",
]

# Generous enough for a scatter leg carrying a full day-scale instance
# (the 13,278-post fig13 day, texts included, is 0.51 MB as columns
# with packed values), small enough that a corrupt header can't trigger
# a multi-GiB read.
MAX_FRAME = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class FrameError(ReproError):
    """A frame violated the wire protocol."""


class FrameTooLargeError(FrameError):
    """A header announced a body larger than the frame limit."""


class TruncatedFrameError(FrameError):
    """The stream ended inside a frame (header or body)."""


def encode_frame(
    payload: Dict[str, Any], max_frame: int = MAX_FRAME
) -> bytes:
    """One JSON object as a length-prefixed frame."""
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > max_frame:
        raise FrameTooLargeError(
            f"frame body is {len(body)} bytes; limit is {max_frame}"
        )
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise FrameError(f"undecodable frame body: {error}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


async def read_frame(
    reader: "asyncio.StreamReader", max_frame: int = MAX_FRAME
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF between frames.

    The length is validated before the body read starts, so a reader
    can never be left awaiting an announced-but-absurd byte count.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean hangup between frames
        raise TruncatedFrameError(
            f"stream ended {len(error.partial)} bytes into a header"
        ) from None
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame; limit is {max_frame}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise TruncatedFrameError(
            f"stream ended {len(error.partial)}/{length} bytes into "
            "a frame body"
        ) from None
    return _decode_body(body)


class FrameDecoder:
    """Incremental synchronous decoder (fuzz-test twin of the reader).

    Feed arbitrary byte chunks; complete frames come back as decoded
    payloads in order.  Oversized headers raise at the moment the header
    completes, exactly like :func:`read_frame`.  :meth:`close` asserts
    the stream ended on a frame boundary.
    """

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self.frames = 0

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer.extend(data)
        out: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return out
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise FrameTooLargeError(
                    f"peer announced a {length}-byte frame; limit is "
                    f"{self.max_frame}"
                )
            if len(self._buffer) < _HEADER.size + length:
                return out
            body = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            out.append(_decode_body(body))
            self.frames += 1

    def close(self) -> None:
        """Assert a clean end-of-stream (no partial frame buffered)."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended with {len(self._buffer)} buffered bytes "
                "of an incomplete frame"
            )
