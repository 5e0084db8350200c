"""Binary and JSON wire formats: golden bytes, round-trips, rejection."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqs
from fqs import (
    GridSpec,
    MalformedInputError,
    client_summarize,
    decode_message,
    encode_message,
    exit_code_for,
    message_from_json,
    message_to_json,
)

from .conftest import rng

# silo "s", k=1, no trim, one group "a" with three samples all equal to 0.5;
# worked out by hand from the layout: magic, id length + id, k, trim,
# group count, then per group label length + label, count, k values
GOLDEN_HEX = (
    "46515331"          # magic "FQS1"
    "0100" "73"          # silo id: length 1, "s"
    "01000000"          # k = 1
    "0000000000000000"  # trim_epsilon = 0.0
    "0100"              # one group
    "0100" "61"          # label: length 1, "a"
    "0300000000000000"  # count = 3
    "000000000000e03f"  # quantile value 0.5
)


def golden_message():
    return client_summarize("s", {"a": [0.5, 0.5, 0.5]}, GridSpec(k=1))


def test_golden_bytes_exact():
    assert encode_message(golden_message()).hex() == GOLDEN_HEX


def test_golden_bytes_decode():
    msg = decode_message(bytes.fromhex(GOLDEN_HEX))
    assert msg.silo_id == "s"
    assert msg.grid == GridSpec(k=1)
    assert list(msg.entries) == ["a"]
    assert msg.entries["a"].count == 3
    np.testing.assert_array_equal(msg.entries["a"].values, [0.5])


def random_message(gen, k=None):
    k = k or int(gen.integers(1, 12))
    grid = GridSpec(k=k, trim_epsilon=float(gen.choice([0.0, 0.05, 0.2])))
    silo_id = "silo-" + str(gen.integers(0, 1000))
    groups = {}
    for i in range(int(gen.integers(1, 4))):
        groups[f"g{i}"] = gen.normal(size=int(gen.integers(1, 50)))
    return client_summarize(silo_id, groups, grid)


def test_binary_round_trip_many():
    gen = rng(307)
    for _ in range(100):
        msg = random_message(gen)
        back = decode_message(encode_message(msg))
        assert back.silo_id == msg.silo_id
        assert back.grid == msg.grid
        assert list(back.entries) == list(msg.entries)
        for label, sketch in msg.entries.items():
            assert back.entries[label].count == sketch.count
            np.testing.assert_array_equal(back.entries[label].values, sketch.values)


def test_json_round_trip_many():
    gen = rng(311)
    for _ in range(50):
        msg = random_message(gen)
        back = message_from_json(message_to_json(msg))
        assert back.silo_id == msg.silo_id
        assert back.grid == msg.grid
        for label, sketch in msg.entries.items():
            assert back.entries[label].count == sketch.count
            np.testing.assert_array_equal(back.entries[label].values, sketch.values)


def test_json_and_binary_agree():
    gen = rng(313)
    msg = random_message(gen)
    via_json = message_from_json(message_to_json(msg))
    assert encode_message(via_json) == encode_message(msg)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_binary_round_trip_property(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    msg = random_message(gen)
    assert encode_message(decode_message(encode_message(msg))) == encode_message(msg)


# ---------------------------------------------------------------- rejection

def expect_rejection(blob, code=None):
    with pytest.raises(MalformedInputError) as e:
        decode_message(blob)
    if code is not None:
        assert e.value.code == code
    assert exit_code_for(e.value) == 3


def test_every_truncation_rejected():
    blob = encode_message(golden_message())
    for cut in range(len(blob)):
        expect_rejection(blob[:cut], "malformed-message")


def test_truncations_of_larger_message_rejected():
    gen = rng(331)
    blob = encode_message(random_message(gen, k=3))
    for cut in range(len(blob)):
        with pytest.raises(MalformedInputError):
            decode_message(blob[:cut])


def decode_or_reject(blob):
    """Decode, or reject with MalformedInputError and no other exception."""
    try:
        return decode_message(blob)
    except MalformedInputError as exc:
        assert exit_code_for(exc) == 3
        return None


def test_decode_fuzz_raises_only_malformed_input():
    # random bit flips, some followed by a truncation
    gen = rng(347)
    for _ in range(40):
        blob = encode_message(random_message(gen, k=int(gen.integers(1, 6))))
        for _ in range(50):
            mutated = bytearray(blob)
            for bit in gen.integers(0, 8 * len(blob), size=int(gen.integers(1, 4))):
                mutated[bit // 8] ^= 1 << (bit % 8)
            if gen.random() < 0.25:
                mutated = mutated[: int(gen.integers(0, len(blob)))]
            decode_or_reject(bytes(mutated))


def length_fields(msg):
    """Offset and format of every length field and count of an encoded message."""
    sid = len(msg.silo_id.encode("utf-8"))
    fields = {"silo-id length": (4, "<H"), "k": (6 + sid, "<I"), "group count": (18 + sid, "<H")}
    pos = 20 + sid
    for label in sorted(msg.entries):
        lab = len(label.encode("utf-8"))
        fields[f"label length {label}"] = (pos, "<H")
        fields[f"count {label}"] = (pos + 2 + lab, "<Q")
        pos += 2 + lab + 8 + 8 * msg.grid.k
    return fields


def test_length_fields_at_their_maximum():
    gen = rng(349)
    for _ in range(20):
        msg = random_message(gen)
        blob = encode_message(msg)
        for name, (pos, fmt) in length_fields(msg).items():
            size = struct.calcsize(fmt)
            mutated = bytearray(blob)
            mutated[pos : pos + size] = struct.pack(fmt, 2 ** (8 * size) - 1)
            got = decode_or_reject(bytes(mutated))
            if name.startswith("count"):
                # a count is no length: the largest u64 is a valid count
                assert got is not None and encode_message(got) == bytes(mutated)
            else:
                assert got is None, name


def test_bad_magic_rejected():
    blob = encode_message(golden_message())
    expect_rejection(b"XQS1" + blob[4:], "malformed-message")


def test_future_version_rejected():
    blob = encode_message(golden_message())
    expect_rejection(b"FQS2" + blob[4:], "unsupported-version")


def test_trailing_bytes_rejected():
    blob = encode_message(golden_message())
    expect_rejection(blob + b"\x00", "malformed-message")


def test_duplicate_labels_rejected():
    # two groups both named "a": build by patching the golden layout
    entry = bytes.fromhex("0100" "61" "0300000000000000" "000000000000e03f")
    head = bytes.fromhex("46515331" "0100" "73" "01000000" "0000000000000000")
    blob = head + struct.pack("<H", 2) + entry + entry
    expect_rejection(blob, "malformed-message")


def test_zero_count_rejected():
    blob = bytearray(encode_message(golden_message()))
    # count sits after magic, id header, k, trim, group count, label header
    blob[24:32] = struct.pack("<Q", 0)
    expect_rejection(bytes(blob), "invalid-sketch")


def test_nan_value_rejected():
    blob = bytearray(encode_message(golden_message()))
    blob[-8:] = struct.pack("<d", float("nan"))
    expect_rejection(bytes(blob), "invalid-sketch")


def test_unsorted_values_rejected():
    msg = client_summarize("s", {"a": [0.0, 1.0, 2.0, 3.0]}, GridSpec(k=4))
    blob = bytearray(encode_message(msg))
    # swap the first two quantile values so the vector decreases
    tail = blob[-32:]
    blob[-32:] = tail[8:16] + tail[:8] + tail[16:]
    expect_rejection(bytes(blob), "invalid-sketch")


def test_invalid_sketch_names_silo_and_group():
    msg = client_summarize("east", {"a": [1.0, 2.0], "b": [0.0, 1.0, 2.0, 3.0]}, GridSpec(k=4))
    blob = bytearray(encode_message(msg))
    # group "b" is written last: swap its first two values so they decrease
    tail = blob[-32:]
    blob[-32:] = tail[8:16] + tail[:8] + tail[16:]
    with pytest.raises(MalformedInputError) as e:
        decode_message(bytes(blob))
    assert e.value.code == "invalid-sketch"
    assert e.value.message == "silo 'east', group 'b': sketch values must be nondecreasing"


def test_zero_k_rejected():
    blob = bytearray(encode_message(golden_message()))
    blob[7:11] = struct.pack("<I", 0)
    with pytest.raises(MalformedInputError):
        decode_message(bytes(blob))


def test_zero_groups_rejected():
    head = bytes.fromhex("46515331" "0100" "73" "01000000" "0000000000000000")
    expect_rejection(head + struct.pack("<H", 0))


def test_json_rejects_garbage():
    for text in ("", "{", "[]", '{"format": "nope"}', '{"silo_id": 3}'):
        with pytest.raises(MalformedInputError):
            message_from_json(text)
