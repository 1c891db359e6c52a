"""Tests for frame codec, RS-232 link and USB transport models."""

import pytest

from repro.comm.frames import (
    FRAME_LEN, FrameDecoder, FrameError, encode_frame,
)
from repro.comm.rs232 import Rs232Link
from repro.comm.usb import UsbTransport
from repro.errors import CommError


class TestFrameCodec:
    def test_roundtrip(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(2, 17, -123456)) == [(2, 17, -123456)]
        assert decoder.frames_decoded == 1

    def test_frame_is_fixed_length(self):
        assert len(encode_frame(1, 1, 1)) == FRAME_LEN

    def test_field_ranges_checked(self):
        with pytest.raises(FrameError):
            encode_frame(300, 0, 0)
        with pytest.raises(FrameError):
            encode_frame(1, 0x1_0000, 0)

    def test_negative_value_roundtrip(self):
        assert FrameDecoder().feed(encode_frame(1, 5, -1)) == [(1, 5, -1)]

    def test_decoder_skips_leading_garbage(self):
        decoder = FrameDecoder()
        out = decoder.feed(b"\x00\x01\x02" + encode_frame(3, 4, 5))
        assert out == [(3, 4, 5)]
        assert decoder.framing_errors == 3

    def test_corrupted_checksum_detected_and_resynced(self):
        good = encode_frame(3, 4, 5)
        bad = bytearray(good)
        bad[-1] ^= 0xFF
        decoder = FrameDecoder()
        out = decoder.feed(bytes(bad) + good)
        assert out == [(3, 4, 5)]
        assert decoder.checksum_errors >= 1

    def test_decode_frame_rejects_corruption(self):
        bad = bytearray(encode_frame(1, 2, 3))
        bad[5] ^= 0x01  # a payload byte: only the checksum can tell
        decoder = FrameDecoder()
        assert decoder.feed(bytes(bad)) == []
        assert decoder.checksum_errors == 1
        assert decoder.frames_decoded == 0

    def test_partial_feed_buffers(self):
        frame = encode_frame(9, 9, 9)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:4]) == []
        assert decoder.feed(frame[4:]) == [(9, 9, 9)]


class TestRs232Link:
    def test_byte_time_at_115200(self):
        link = Rs232Link(115200)
        assert round(link.byte_time_us()) == 87  # 10 bits / 115200 baud

    def test_transmission_duration_scales_with_bytes(self):
        link = Rs232Link(9600)  # ~1042us per byte
        start, done = link.transmit(0, 10)
        assert start == 0
        assert done == round(10 * link.byte_time_us())

    def test_line_serializes_back_to_back_frames(self):
        link = Rs232Link(115200)
        _, done1 = link.transmit(0, 10)
        start2, done2 = link.transmit(0, 10)
        assert start2 == done1            # queued behind the first frame
        assert done2 > done1

    def test_idle_line_starts_immediately(self):
        link = Rs232Link(115200)
        link.transmit(0, 10)
        start, _ = link.transmit(100_000, 10)
        assert start == 100_000

    def test_invalid_params_rejected(self):
        with pytest.raises(CommError):
            Rs232Link(0)
        with pytest.raises(CommError):
            Rs232Link(9600).transmit(0, 0)


class TestUsbTransport:
    def test_cost_model(self):
        usb = UsbTransport(latency_us=125, per_word_us=2)
        assert usb.transaction_cost_us(4) == 125 + 8
        assert usb.transactions == 1
        assert usb.words_moved == 4

    def test_negative_params_rejected(self):
        with pytest.raises(CommError):
            UsbTransport(latency_us=-1)
        with pytest.raises(CommError):
            UsbTransport().transaction_cost_us(-1)
