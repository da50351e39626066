"""The length-prefixed, digest-checked frame protocol shared by network code.

One wire format serves both sides of the distributed story: the shard
worker protocol (:mod:`repro.worker` / ``SocketTransport``) frames every
message through here, and the JSONL certificate service reuses the same
*limits* for its line framing, so a stalled or unbounded peer is cut off
by the same two constants everywhere.

A frame is::

    u32 header length (big-endian) | header JSON (ascii) | body bytes

where the header always carries ``type``, ``body`` (the body length) and,
for non-empty bodies, ``sha256`` — the hex digest of the body bytes.  The
receiver re-hashes what it actually read; a mismatch raises
:class:`FrameError` rather than handing corrupt bytes to ``pickle``.  The
header length is capped at :data:`MAX_LINE_BYTES` (the same cap the
service applies to a request line) and the body at
:data:`MAX_FRAME_BYTES`, so no peer can make a reader allocate without
bound.

The functions below work on blocking file-like objects (``socket
.makefile``); deadlines are the caller's business via ``settimeout`` —
:data:`READ_DEADLINE` is the shared default for "how long may a peer go
silent before the connection is presumed dead".

Trust model: the digest protects *integrity*, never *authenticity* — a
frame's sha256 says the bytes survived the wire, not that the peer is
allowed to send them.  Because the worker protocol carries pickles in
both directions (attach/plan payloads to the daemon, result bodies back
to the coordinator), accepting a frame from an unauthenticated peer is
arbitrary code execution on the receiver.  The HMAC helpers below
implement the mutual challenge–response both sides run *before any
pickle.loads* (the same construction as
``multiprocessing.connection``): each side proves knowledge of the
shared :data:`AUTH_KEY_ENV_VAR` secret over the other's fresh nonce.
Keyless operation is refused outright on non-loopback addresses, on
both the bind side and the connect side.
"""

from __future__ import annotations

import hashlib
import hmac
import ipaddress
import json
import os
import secrets
import struct
from typing import Any, Dict, Optional, Tuple

#: Cap on a JSONL request line *and* a frame header.  Anything legitimate
#: is a few hundred bytes; past this the peer is broken or hostile.
MAX_LINE_BYTES = 64 * 1024

#: Cap on a frame body (attach payloads, shard results).  Far above any real
#: payload, far below "allocate until the OOM killer arrives".
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Default quiet-time deadline (seconds): how long a reader waits for the
#: next line/frame before declaring the peer gone.  Heartbeats make the
#: effective gap on a healthy worker connection a fraction of this.
READ_DEADLINE = 600.0

#: Worker protocol tag, echoed in attach handshakes.  /2 added the
#: mandatory hello/auth handshake ahead of ``attach``; /3 carries the Φ
#: plan inside the ``attach`` payload and drops the ``need-plan``/``plan``
#: exchange.
WORKER_PROTOCOL = "repro-worker/3"

#: Shared-secret knob for the worker protocol: both the daemon and the
#: coordinator read it (the daemon also takes ``--key-file``).  Any
#: non-empty string works; generate one with
#: ``python -c "import secrets; print(secrets.token_hex(32))"``.
AUTH_KEY_ENV_VAR = "REPRO_WORKER_KEY"

#: Domain separation for the worker-protocol HMAC, so a digest produced
#: here can never double as anything else keyed by the same secret.
_AUTH_CONTEXT = b"repro-worker-hmac-v1:"

_LEN = struct.Struct("!I")


class FrameError(Exception):
    """A frame failed to parse, verify its digest, or respect the limits."""


class AuthError(FrameError):
    """The peer failed (or refused) the HMAC handshake."""


def load_auth_key(value: Optional[str] = None) -> Optional[bytes]:
    """The shared worker-protocol secret as bytes, or ``None`` if unset.

    ``value`` overrides the :data:`AUTH_KEY_ENV_VAR` environment lookup;
    surrounding whitespace is stripped so key files may end in a newline.
    An empty (post-strip) value counts as "no key".
    """
    if value is None:
        value = os.environ.get(AUTH_KEY_ENV_VAR)
    if value is None:
        return None
    stripped = value.strip()
    return stripped.encode("utf-8") if stripped else None


def new_nonce() -> str:
    """A fresh 256-bit challenge nonce, hex-encoded for frame headers."""
    return secrets.token_hex(32)


def auth_digest(key: bytes, nonce: str) -> str:
    """HMAC-SHA256 proof of ``key`` over a peer's challenge ``nonce``."""
    return hmac.new(
        key, _AUTH_CONTEXT + nonce.encode("ascii"), hashlib.sha256
    ).hexdigest()


def check_auth_digest(key: bytes, nonce: str, claimed: Any) -> bool:
    """Constant-time check of a peer's answer to our challenge."""
    if not isinstance(claimed, str):
        return False
    return hmac.compare_digest(auth_digest(key, nonce), claimed)


def is_loopback_host(host: str) -> bool:
    """True when ``host`` can only name this machine's loopback.

    Hostnames other than ``localhost`` answer False even if they happen
    to resolve to 127.0.0.1 — the keyless worker protocol is allowed
    only where the name alone proves the traffic never leaves the host.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def _read_exact(rfile, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`FrameError`.

    A clean EOF *before any byte* raises ``FrameError("connection
    closed")`` so callers can distinguish an orderly hangup from a frame
    torn mid-transfer.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = rfile.read(remaining)
        if not chunk:
            if remaining == count:
                raise FrameError("connection closed")
            raise FrameError(
                f"frame torn mid-transfer: expected {count} bytes, "
                f"got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_frame(
    frame_type: str, meta: Optional[Dict[str, Any]] = None, body: bytes = b""
) -> bytes:
    """One frame as bytes: length-prefixed header JSON plus raw body."""
    header: Dict[str, Any] = {"type": frame_type, "body": len(body)}
    if meta:
        header.update(meta)
    if body:
        header["sha256"] = hashlib.sha256(body).hexdigest()
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    if len(blob) > MAX_LINE_BYTES:
        raise FrameError(
            f"frame header is {len(blob)} bytes; the cap is {MAX_LINE_BYTES}"
        )
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body is {len(body)} bytes; the cap is {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(blob)) + blob + body


def send_frame(
    wfile,
    frame_type: str,
    meta: Optional[Dict[str, Any]] = None,
    body: bytes = b"",
) -> int:
    """Write one frame; returns the byte count that hit the wire."""
    data = encode_frame(frame_type, meta, body)
    wfile.write(data)
    wfile.flush()
    return len(data)


def recv_frame(rfile) -> Tuple[Dict[str, Any], bytes, int]:
    """Read one frame; returns ``(header, body, bytes_read)``.

    Raises :class:`FrameError` on EOF, torn transfer, oversized header or
    body, malformed header JSON, or a body whose sha256 does not match the
    advertised digest (a corrupt frame must never reach ``pickle``).
    """
    raw_len = _read_exact(rfile, _LEN.size)
    (header_len,) = _LEN.unpack(raw_len)
    if header_len > MAX_LINE_BYTES:
        raise FrameError(
            f"frame header claims {header_len} bytes; the cap is "
            f"{MAX_LINE_BYTES}"
        )
    try:
        header = json.loads(_read_exact(rfile, header_len))
        if not isinstance(header, dict) or "type" not in header:
            raise ValueError("header is not an object with a 'type'")
        body_len = int(header.get("body", 0))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed frame header: {exc}") from None
    if body_len < 0 or body_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body claims {body_len} bytes; the cap is {MAX_FRAME_BYTES}"
        )
    body = _read_exact(rfile, body_len) if body_len else b""
    if body:
        digest = hashlib.sha256(body).hexdigest()
        if digest != header.get("sha256"):
            raise FrameError(
                f"corrupt frame: body hashes to {digest[:16]}…, header "
                f"advertised {str(header.get('sha256'))[:16]}…"
            )
    return header, body, _LEN.size + header_len + body_len
