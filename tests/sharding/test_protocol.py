"""Wire framing, packed batch evidence and snapshot serialisation."""

import base64
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import BatchEvidence, numpy_backend
from repro.obs import Recorder
from repro.sharding import (
    ProtocolError,
    read_frame,
    snapshot_from_json,
    snapshot_to_json,
    write_frame,
)
from repro.sharding.protocol import (
    BATCH_DTYPES,
    MAX_FRAME_BYTES,
    pack_batch_evidence,
    unpack_batch_evidence,
)


class TestFraming:
    def test_roundtrip(self):
        buffer = io.BytesIO()
        message = {"id": 3, "op": "match", "entity": {"uri": "a", "pairs": []}}
        write_frame(buffer, message)
        buffer.seek(0)
        assert read_frame(buffer) == message

    def test_multiple_frames_in_sequence(self):
        buffer = io.BytesIO()
        for i in range(5):
            write_frame(buffer, {"id": i})
        buffer.seek(0)
        assert [read_frame(buffer)["id"] for _ in range(5)] == list(range(5))
        assert read_frame(buffer) is None

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_floats_survive_bit_exactly(self):
        values = [0.1 + 0.2, 1 / 3, 1e-300, math.pi, 2.0**53 - 1]
        buffer = io.BytesIO()
        write_frame(buffer, {"scores": values})
        buffer.seek(0)
        decoded = read_frame(buffer)["scores"]
        assert all(a == b for a, b in zip(decoded, values))

    def test_unicode_payload(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"uri": "café 寿司"})
        buffer.seek(0)
        assert read_frame(buffer)["uri"] == "café 寿司"

    def test_bad_length_prefix(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            read_frame(io.BytesIO(b"xyz\n{}\n"))

    def test_oversized_length(self):
        huge = str(MAX_FRAME_BYTES + 1).encode()
        with pytest.raises(ProtocolError, match="out of bounds"):
            read_frame(io.BytesIO(huge + b"\n"))

    def test_truncated_payload(self):
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(io.BytesIO(b"100\n{}"))

    def test_non_json_payload(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            read_frame(io.BytesIO(b"3\nabc\n"))

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(io.BytesIO(b"2\n[]\n"))


N_ENTITIES, ID_SPACE = 3, 10


def sample_evidence():
    """Entity 0 -> KB2 4 and 7, entity 1 -> nothing, entity 2 -> KB2 9;
    the three columns hold those pairs back."""
    return BatchEvidence(
        np.array([2, 0, 1], np.int32),
        np.array([4, 7, 9], np.int32),
        np.array([0.5, 0.25, 1 / 3]),
        np.array([4, 7, 9], np.int32),
        np.array([1, 1, 1], np.int32),
        np.array([0, 0, 2], np.int32),
        np.array([0.5, 0.25, 1 / 3]),
    )


def packed(field, values):
    """``values`` packed as ``field`` would be, little-endian."""
    return base64.b64encode(np.asarray(values, BATCH_DTYPES[field]).tobytes()).decode("ascii")


def reply(**fields):
    """A packed ``batch`` reply of :func:`sample_evidence`, some fields
    replaced by raw ``values`` lists (packed) or strings (as they are)."""
    message = {"id": 1, "ok": True, "service_ms": 0.5, **pack_batch_evidence(sample_evidence())}
    for field, value in fields.items():
        message[field] = value if isinstance(value, (str, int)) else packed(field, value)
    return message


def fields_of(evidence):
    return [
        [v.hex() if isinstance(v, float) else v for v in field.tolist()] for field in evidence
    ]


class TestPackedBatchEvidence:
    def test_roundtrip_through_a_frame(self):
        buffer = io.BytesIO()
        write_frame(buffer, reply())
        buffer.seek(0)
        decoded = unpack_batch_evidence(read_frame(buffer), N_ENTITIES, ID_SPACE)
        assert fields_of(decoded) == fields_of(sample_evidence())

    def test_little_endian_int32_and_float64(self):
        message = reply()
        assert base64.b64decode(message["row_ids"]) == struct.pack("<3i", 4, 7, 9)
        assert base64.b64decode(message["row_scores"]) == struct.pack("<3d", 0.5, 0.25, 1 / 3)

    def test_ndarrays_pack_like_arrays(self):
        native = BatchEvidence(
            *(field.astype(np.int64 if field.dtype == np.int32 else np.float64)
              for field in sample_evidence())
        )
        assert pack_batch_evidence(native) == pack_batch_evidence(sample_evidence())

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"row_ids": "!!not base64!!"}, "not base64"),
            ({"row_scores": 12}, "not base64"),
            ({"col_scores": "ünïcode"}, "not base64"),
            ({"row_ids": base64.b64encode(b"12345").decode()}, "not a multiple of 4"),
            ({"col_scores": base64.b64encode(bytes(20)).decode()}, "not a multiple of 8"),
            ({"row_lengths": [2, 0, 2]}, "row lengths sum to 4"),
            ({"row_lengths": [3, 0]}, "2 rows for 3 entities"),
            ({"row_lengths": [3, -1, 1]}, "negative row length"),
            ({"row_scores": [0.5, 0.25]}, "for 3 ids and 2 scores"),
            ({"row_ids": [4, 7, 10]}, "row id outside"),
            ({"row_ids": [4, -1, 9]}, "row id outside"),
            ({"col_ids": [0, 0, 3]}, "column id outside"),
            ({"col_lengths": [1, 2]}, "2 lengths for 3 columns"),
            ({"col_lengths": [1, 1, 2]}, "column lengths sum to 4"),
            ({"col_nodes": [4, 7, 10]}, "column node outside"),
            ({"col_nodes": [4, 4, 9]}, "not strictly ascending"),
            ({"col_nodes": [7, 4, 9]}, "not strictly ascending"),
        ],
    )
    def test_malformed_reply_rejected(self, fields, message):
        with pytest.raises(ProtocolError, match=message):
            unpack_batch_evidence(reply(**fields), N_ENTITIES, ID_SPACE)

    def test_missing_field_rejected(self):
        message = reply()
        del message["col_nodes"]
        with pytest.raises(ProtocolError, match="lacks 'col_nodes'"):
            unpack_batch_evidence(message, N_ENTITIES, ID_SPACE)

    @given(
        data=st.data(),
        field=st.sampled_from(BatchEvidence._fields),
        cap=st.sampled_from([None, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_field_is_rejected_or_merges(self, data, field, cap):
        """Whatever one field holds, the reply is a :class:`ProtocolError`
        or evidence the merge kernel takes without an error."""
        value = data.draw(
            st.one_of(
                st.binary(max_size=40).map(lambda raw: base64.b64encode(raw).decode()),
                st.text(max_size=12),
                st.lists(st.integers(-2, 11), max_size=8)
                if BATCH_DTYPES[field] == "<i4"
                else st.lists(st.floats(allow_nan=False), max_size=8),
            )
        )
        try:
            evidence = unpack_batch_evidence(reply(**{field: value}), N_ENTITIES, ID_SPACE)
        except ProtocolError:
            return
        value_1, value_2 = numpy_backend.merge_batch_evidence(
            [evidence, sample_evidence()], N_ENTITIES, ID_SPACE, 4, (0.2, 3), cap
        )
        assert len(list(value_1)) == N_ENTITIES
        assert len(list(value_2)) == ID_SPACE


class TestSnapshotCodec:
    def test_roundtrip_preserves_spans_and_metrics(self):
        recorder = Recorder()
        with recorder.span("outer", label="x"):
            with recorder.span("inner"):
                pass
        recorder.count("worker.requests", 3)
        recorder.gauge("worker.up", 1)
        recorder.observe("worker.latency_ms", 1.25)
        recorder.observe("worker.latency_ms", 0.5)
        snapshot = recorder.snapshot()

        rebuilt = snapshot_from_json(snapshot_to_json(snapshot))
        assert rebuilt.trace_id == snapshot.trace_id
        assert rebuilt.counters == snapshot.counters
        assert rebuilt.gauges == snapshot.gauges
        assert rebuilt.histograms == snapshot.histograms
        assert [s.name for s in rebuilt.spans] == [s.name for s in snapshot.spans]
        assert [s.parent_id for s in rebuilt.spans] == [
            s.parent_id for s in snapshot.spans
        ]

    def test_rebuilt_snapshot_merges_into_a_recorder(self):
        child = Recorder()
        with child.span("shard.work"):
            pass
        child.count("shard.ops", 2)
        rebuilt = snapshot_from_json(snapshot_to_json(child.snapshot()))

        parent = Recorder()
        with parent.span("shard.worker") as span:
            pass
        parent.merge(rebuilt, span)
        assert "shard.work" in parent.span_names()
        assert parent.counter_value("shard.ops") == 2
