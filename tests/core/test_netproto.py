"""The shared frame protocol: round-trips, tears, limits, corruption."""

from __future__ import annotations

import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netproto import (
    FrameError,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
)


def roundtrip(frame_type, meta=None, body=b""):
    wire = io.BytesIO()
    sent = send_frame(wire, frame_type, meta, body)
    wire.seek(0)
    header, got_body, read = recv_frame(wire)
    assert sent == read == len(wire.getvalue())
    return header, got_body


class TestRoundTrip:
    def test_empty_body(self):
        header, body = roundtrip("heartbeat")
        assert header["type"] == "heartbeat"
        assert header["body"] == 0
        assert body == b""
        assert "sha256" not in header

    def test_meta_and_body(self):
        header, body = roundtrip(
            "result", {"index": 3, "attempt": 2}, b"\x00\xff payload"
        )
        assert header["index"] == 3
        assert header["attempt"] == 2
        assert body == b"\x00\xff payload"

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

    def test_torn_frame_is_not_a_clean_close(self):
        data = encode_frame("result", body=b"x" * 100)
        with pytest.raises(FrameError, match="torn mid-transfer"):
            recv_frame(io.BytesIO(data[: len(data) // 2]))

    def test_corrupt_body_fails_the_digest(self):
        data = encode_frame("result", body=b"x" * 100)
        flipped = data[:-1] + bytes([data[-1] ^ 0xFF])
        with pytest.raises(FrameError, match="corrupt frame"):
            recv_frame(io.BytesIO(flipped))

    def test_oversized_header_claim_rejected(self):
        wire = struct.pack("!I", MAX_LINE_BYTES + 1)
        with pytest.raises(FrameError, match="header claims"):
            recv_frame(io.BytesIO(wire))

    def test_oversized_body_claim_rejected(self):
        blob = json.dumps(
            {"type": "result", "body": MAX_FRAME_BYTES + 1}
        ).encode("ascii")
        wire = struct.pack("!I", len(blob)) + blob
        with pytest.raises(FrameError, match="body claims"):
            recv_frame(io.BytesIO(wire))

    def test_negative_body_claim_rejected(self):
        blob = json.dumps({"type": "result", "body": -1}).encode("ascii")
        wire = struct.pack("!I", len(blob)) + blob
        with pytest.raises(FrameError, match="body claims"):
            recv_frame(io.BytesIO(wire))

    def test_malformed_header_json_rejected(self):
        blob = b"not json at all!"
        wire = struct.pack("!I", len(blob)) + blob
        with pytest.raises(FrameError, match="malformed frame header"):
            recv_frame(io.BytesIO(wire))

    def test_header_without_type_rejected(self):
        blob = json.dumps({"body": 0}).encode("ascii")
        wire = struct.pack("!I", len(blob)) + blob
        with pytest.raises(FrameError, match="malformed frame header"):
            recv_frame(io.BytesIO(wire))

    def test_encode_refuses_oversized_header(self):
        with pytest.raises(FrameError, match="header is"):
            encode_frame("x", {"pad": "y" * (MAX_LINE_BYTES + 1)})


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
