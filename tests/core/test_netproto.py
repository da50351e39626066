"""The shared frame protocol: round-trips, tears, limits, corruption."""

from __future__ import annotations

import hashlib
import io
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netproto import (
    FrameError,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    encode_header,
    recv_frame,
    send_frame,
)


def roundtrip(event, meta=None, body=b""):
    wire = io.BytesIO()
    sent = send_frame(wire, event, meta, body)
    wire.seek(0)
    header, got_body, read = recv_frame(wire)
    assert sent == read == len(wire.getvalue())
    return header, got_body


def header_line(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")


class TestRoundTrip:
    def test_empty_body(self):
        header, body = roundtrip("heartbeat")
        assert header == {"event": "heartbeat"}
        assert body == b""

    def test_meta_and_body(self):
        header, body = roundtrip(
            "result", {"index": 3, "attempt": 2}, b"\x00\xff payload"
        )
        assert header["index"] == 3
        assert header["attempt"] == 2
        assert header["bytes"] == len(body)
        assert header["digest"] == hashlib.sha256(body).hexdigest()
        assert body == b"\x00\xff payload"

    def test_header_is_one_sorted_json_line(self):
        body = b"artifact bytes"
        line = encode_header("artifact", {"cache": "hit"}, body)
        assert line == header_line(
            {
                "bytes": len(body),
                "cache": "hit",
                "digest": hashlib.sha256(body).hexdigest(),
                "event": "artifact",
            }
        )

    @settings(max_examples=50, deadline=None)
    @given(body=st.binary(max_size=4096), index=st.integers(0, 1 << 30))
    def test_arbitrary_bodies_survive(self, body, index):
        header, got = roundtrip("shard", {"index": index}, body)
        assert got == body
        assert header["index"] == index

    def test_two_frames_back_to_back(self):
        wire = io.BytesIO()
        send_frame(wire, "a", body=b"one")
        send_frame(wire, "b", body=b"two")
        wire.seek(0)
        assert recv_frame(wire)[1] == b"one"
        assert recv_frame(wire)[1] == b"two"


class TestRejection:
    def test_clean_eof_is_connection_closed(self):
        with pytest.raises(FrameError, match="connection closed"):
            recv_frame(io.BytesIO(b""))

    def test_closed_link_file_is_connection_closed(self):
        left, right = socket.socketpair()
        with left, right:
            rfile = left.makefile("rb")
            wfile = right.makefile("wb")
            rfile.close()
            wfile.close()
            with pytest.raises(FrameError, match="connection closed"):
                recv_frame(rfile)
            with pytest.raises(FrameError, match="connection closed"):
                send_frame(wfile, "heartbeat")

    def test_torn_frame_is_not_a_clean_close(self):
        body = b"x" * 100
        data = encode_header("result", body=body) + body
        with pytest.raises(FrameError, match="torn mid-transfer"):
            recv_frame(io.BytesIO(data[: len(data) - len(body) // 2]))

    def test_unterminated_header_at_eof_is_torn(self):
        line = header_line({"event": "result"})
        with pytest.raises(FrameError, match="torn mid-transfer"):
            recv_frame(io.BytesIO(line[:-1]))

    def test_corrupt_body_fails_the_digest(self):
        body = b"x" * 100
        data = encode_header("result", body=body) + body
        flipped = data[:-1] + bytes([data[-1] ^ 0xFF])
        with pytest.raises(FrameError, match="corrupt frame"):
            recv_frame(io.BytesIO(flipped))

    def test_oversized_header_claim_rejected(self):
        wire = b'{"event": "x", "pad": "' + b"y" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(io.BytesIO(wire))

    def test_header_at_the_cap_is_accepted(self):
        line = header_line({"event": "x", "pad": ""})
        pad = "y" * (MAX_LINE_BYTES - len(line))
        line = header_line({"event": "x", "pad": pad})
        assert len(line) == MAX_LINE_BYTES
        assert recv_frame(io.BytesIO(line))[0]["pad"] == pad

    def test_oversized_body_claim_rejected(self):
        wire = header_line(
            {"event": "result", "bytes": MAX_FRAME_BYTES + 1, "digest": "0"}
        )
        with pytest.raises(FrameError, match="body claims"):
            recv_frame(io.BytesIO(wire))

    def test_negative_body_claim_rejected(self):
        wire = header_line({"event": "result", "bytes": -1})
        with pytest.raises(FrameError, match="body claims"):
            recv_frame(io.BytesIO(wire))

    def test_malformed_header_json_rejected(self):
        with pytest.raises(FrameError, match="malformed frame header"):
            recv_frame(io.BytesIO(b"{not json at all!\n"))

    def test_header_without_event_rejected(self):
        wire = header_line({"type": "result"})
        with pytest.raises(FrameError, match="malformed frame header"):
            recv_frame(io.BytesIO(wire))

    def test_length_prefixed_frame_is_refused_at_once(self):
        """A repro-worker/4 frame starts with its u32 header length; the
        reader names the framing instead of waiting for a newline."""
        blob = json.dumps({"type": "hello", "body": 0}).encode("ascii")
        wire = len(blob).to_bytes(4, "big") + blob
        with pytest.raises(FrameError, match="u32 length prefix"):
            recv_frame(io.BytesIO(wire))

    def test_encode_refuses_oversized_header(self):
        with pytest.raises(FrameError, match="header is"):
            encode_header("x", {"pad": "y" * (MAX_LINE_BYTES + 1)})


class TestAuthHelpers:
    """The HMAC handshake primitives gating every pickled payload."""

    def test_load_auth_key_strips_and_encodes(self, monkeypatch):
        from repro.core.netproto import AUTH_KEY_ENV_VAR, load_auth_key

        assert load_auth_key("sesame\n") == b"sesame"
        assert load_auth_key("   ") is None
        monkeypatch.setenv(AUTH_KEY_ENV_VAR, "from-env")
        assert load_auth_key() == b"from-env"
        monkeypatch.delenv(AUTH_KEY_ENV_VAR)
        assert load_auth_key() is None

    def test_digest_depends_on_key_and_nonce(self):
        from repro.core.netproto import auth_digest, new_nonce

        nonce = new_nonce()
        assert auth_digest(b"k1", nonce) == auth_digest(b"k1", nonce)
        assert auth_digest(b"k1", nonce) != auth_digest(b"k2", nonce)
        assert auth_digest(b"k1", nonce) != auth_digest(b"k1", new_nonce())

    def test_check_rejects_wrong_or_non_string_answers(self):
        from repro.core.netproto import (
            auth_digest,
            check_auth_digest,
            new_nonce,
        )

        nonce = new_nonce()
        good = auth_digest(b"key", nonce)
        assert check_auth_digest(b"key", nonce, good)
        # Change the last hex digit to one it is not, so the answer is
        # always wrong (setting it to "0" left 1 digest in 16 unchanged).
        wrong = good[:-1] + ("1" if good[-1] == "0" else "0")
        assert not check_auth_digest(b"key", nonce, wrong)
        assert not check_auth_digest(b"key", nonce, None)
        assert not check_auth_digest(b"key", nonce, 12345)

    def test_nonces_are_fresh(self):
        from repro.core.netproto import new_nonce

        assert len({new_nonce() for _ in range(32)}) == 32

    @pytest.mark.parametrize(
        "host,expected",
        [
            ("127.0.0.1", True),
            ("127.8.8.8", True),
            ("::1", True),
            ("localhost", True),
            ("0.0.0.0", False),
            ("10.0.0.7", False),
            ("example.com", False),
            ("", False),
        ],
    )
    def test_is_loopback_host(self, host, expected):
        from repro.core.netproto import is_loopback_host

        assert is_loopback_host(host) is expected
