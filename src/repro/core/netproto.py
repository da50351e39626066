"""The digest-checked frame protocol shared by network code.

One wire format serves both sides of the distributed story: the shard
worker protocol (:mod:`repro.worker` / ``SocketTransport``) frames every
message here, and the certificate service (:mod:`repro.service`) every
reply (its requests are bare JSON lines under the same line cap).  A
frame is::

    header JSON line (ascii, sorted keys, newline-terminated) | body bytes

The header always names an ``event``.  When a body follows, the header
also carries ``bytes`` (the body length) and ``digest`` (the sha256 hex
of the body); exactly that many raw bytes follow the newline, and the
receiver re-hashes what it actually read, so a mismatch raises
:class:`FrameError` rather than handing corrupt bytes to ``pickle`` or
to a certificate parser.  Bodies ride outside JSON: a megabyte
certificate is never escaped or split across lines.  The header line is
capped at :data:`MAX_LINE_BYTES`, newline included (the same cap the
service applies to a request line), and the body at
:data:`MAX_FRAME_BYTES`, so no peer can make a reader allocate without
bound.

The functions below work on blocking file-like objects (``socket
.makefile``); deadlines are the caller's business via ``settimeout`` —
:data:`READ_DEADLINE` is the shared default for "how long may a peer go
silent before the connection is presumed dead".  The asyncio server
writes through :func:`encode_header` directly.

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
from typing import Any, Dict, Optional, Tuple

#: Cap on a request line *and* a frame header line, newline included.
#: Anything legitimate is a few hundred bytes; past this the peer is
#: broken or hostile.
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
#: exchange; /4's ``attach`` payload is exactly the pool initializer's,
#: and a daemon refuses one with a missing or unknown field; /5 trades
#: the u32 length prefix for the service's JSON header line.
WORKER_PROTOCOL = "repro-worker/5"

#: Shared-secret knob for the worker protocol: both the daemon and the
#: coordinator read it (the daemon also takes ``--key-file``).  Any
#: non-empty string works; generate one with
#: ``python -c "import secrets; print(secrets.token_hex(32))"``.
AUTH_KEY_ENV_VAR = "REPRO_WORKER_KEY"

#: Domain separation for the worker-protocol HMAC, so a digest produced
#: here can never double as anything else keyed by the same secret.
_AUTH_CONTEXT = b"repro-worker-hmac-v1:"


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


def encode_header(
    event: str, meta: Optional[Dict[str, Any]] = None, body: bytes = b""
) -> bytes:
    """The header line that announces ``body`` (no ``bytes``/``digest`` if empty).

    A ``digest`` already in ``meta`` is taken as the body's sha256, so a
    caller that holds one (the certificate cache names every object by
    it) does not hash the body twice; the receiver re-hashes either way.
    """
    header: Dict[str, Any] = {"event": event}
    if meta:
        header.update(meta)
    if body:
        if len(body) > MAX_FRAME_BYTES:
            raise FrameError(
                f"frame body is {len(body)} bytes; the cap is {MAX_FRAME_BYTES}"
            )
        header["bytes"] = len(body)
        if "digest" not in header:
            header["digest"] = hashlib.sha256(body).hexdigest()
    line = (json.dumps(header, sort_keys=True) + "\n").encode("ascii")
    if len(line) > MAX_LINE_BYTES:
        raise FrameError(
            f"frame header is {len(line)} bytes; the cap is {MAX_LINE_BYTES}"
        )
    return line


def send_frame(
    wfile,
    event: str,
    meta: Optional[Dict[str, Any]] = None,
    body: bytes = b"",
) -> int:
    """Write one frame; returns the byte count that hit the wire.

    A closed link file raises ``FrameError("connection closed")``.
    """
    line = encode_header(event, meta, body)
    try:
        wfile.write(line)
        if body:
            wfile.write(body)
        wfile.flush()
    except ValueError:
        raise FrameError("connection closed") from None
    return len(line) + len(body)


def recv_frame(rfile) -> Tuple[Dict[str, Any], bytes, int]:
    """Read one frame; returns ``(header, body, bytes_read)``.

    Raises :class:`FrameError` on a clean EOF or a closed link file
    (both "connection closed"), a first byte other than ``{`` (a peer
    speaking another framing — refused at once, not after a deadline),
    an unterminated or over-cap header line, malformed header JSON, a
    header without ``event``, a negative or over-cap ``bytes``, a body
    torn mid-transfer, or a body whose sha256 is not the header's
    ``digest`` (a corrupt frame must never reach ``pickle``).
    """
    try:
        line = rfile.read(1)
        if line == b"{":
            line += rfile.readline(MAX_LINE_BYTES - 1)
    except ValueError:
        raise FrameError("connection closed") from None
    if not line:
        raise FrameError("connection closed")
    if not line.startswith(b"{"):
        raise FrameError(
            f"frame starts with {line!r}, not a JSON header line: the peer "
            "speaks another framing (repro-worker/4 and older put a u32 "
            "length prefix first)"
        )
    if not line.endswith(b"\n"):
        if len(line) >= MAX_LINE_BYTES:
            raise FrameError(f"frame header line exceeds {MAX_LINE_BYTES} bytes")
        raise FrameError(
            f"frame torn mid-transfer: header line ends without a newline "
            f"after {len(line)} bytes"
        )
    try:
        header = json.loads(line)
        if not isinstance(header, dict) or "event" not in header:
            raise ValueError("header is not an object with an 'event'")
        size = int(header.get("bytes", 0))
    except (TypeError, ValueError) as exc:
        raise FrameError(f"malformed frame header: {exc}") from None
    if size < 0 or size > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body claims {size} bytes; the cap is {MAX_FRAME_BYTES}"
        )
    if not size:
        return header, b"", len(line)
    try:
        body = rfile.read(size)
    except ValueError:
        raise FrameError("connection closed") from None
    if len(body) != size:
        raise FrameError(
            f"frame torn mid-transfer: expected {size} body bytes, "
            f"got {len(body)}"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("digest"):
        raise FrameError(
            f"corrupt frame: body hashes to {digest[:16]}…, header "
            f"advertised {str(header.get('digest'))[:16]}…"
        )
    return header, body, len(line) + size
