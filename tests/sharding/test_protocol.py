"""Wire framing, sectioned batch replies and snapshot serialisation."""

import io
import json
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
from repro.serving.format import parse_header
from repro.sharding.protocol import FRAME_MAGIC, MAX_FRAME_BYTES, evidence_of


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


def frame_bytes(message):
    buffer = io.BytesIO()
    write_frame(buffer, message)
    return buffer.getvalue()


def over_the_wire(message):
    """``message`` as :func:`read_frame` hands it to the router."""
    return read_frame(io.BytesIO(frame_bytes(message)))


def reply(**fields):
    """A ``batch`` reply of :func:`sample_evidence`, some fields replaced:
    lists become arrays of the field's dtype, anything else goes as it is
    (bytes as a ``u1`` section, strings and numbers as JSON fields)."""
    message = {"id": 1, "ok": True, "service_ms": 0.5, **sample_evidence()._asdict()}
    for field, value in fields.items():
        message[field] = np.asarray(value, message[field].dtype) if isinstance(value, list) else value
    return message


def fields_of(evidence):
    return [
        [v.hex() if isinstance(v, float) else v for v in field.tolist()] for field in evidence
    ]


def sectioned(table, body=b"", header=None):
    """A sectioned reply frame laid out by hand: magic, header length,
    ``header`` (JSON of the reply fields and ``table``), padding, ``body``."""
    if header is None:
        header = json.dumps({"id": 1, "ok": True, "sections": table}).encode()
    payload = FRAME_MAGIC + struct.pack("<I", len(header)) + header
    payload += bytes(-len(payload) % 64) + body
    return b"%d\n%s\n" % (len(payload), payload)


class TestPackedBatchEvidence:
    def test_roundtrip_through_a_frame(self):
        decoded = evidence_of(over_the_wire(reply()), N_ENTITIES, ID_SPACE)
        assert fields_of(decoded) == fields_of(sample_evidence())
        assert not decoded.row_ids.flags.writeable

    def test_little_endian_int32_and_float64(self):
        payload = frame_bytes(reply()).split(b"\n", 1)[1][:-1]
        header, base = parse_header(payload, len(payload), FRAME_MAGIC, "frame")
        table = {section["name"]: section for section in header["sections"]}

        def raw(name, size):
            start = base + table[name]["offset"]
            return payload[start : start + size]

        assert raw("row_ids", 12) == struct.pack("<3i", 4, 7, 9)
        assert raw("row_scores", 24) == struct.pack("<3d", 0.5, 0.25, 1 / 3)
        assert all(table[name]["offset"] % 64 == 0 for name in table)

    def test_ndarrays_pack_like_arrays(self):
        native = BatchEvidence(
            *(field.astype(np.int64 if field.dtype == np.int32 else np.float64)
              for field in sample_evidence())
        )
        assert frame_bytes(native._asdict()) == frame_bytes(sample_evidence()._asdict())

    def test_reply_bytes_are_the_arrays(self):
        """A sectioned frame is its arrays plus a bounded overhead: the
        header, the length line and at most 63 padding bytes a section."""
        evidence = sample_evidence()
        arrays = sum(field.nbytes for field in evidence)
        header = len(json.dumps({"id": 1, "ok": True, "service_ms": 0.5}))
        overhead = len(frame_bytes(reply())) - arrays
        assert overhead < 64 + header + 7 * (64 + 64)

    def test_json_frames_are_unchanged(self):
        assert frame_bytes({"id": 3, "op": "match", "tokens": ["a"]}) == (
            b'36\n{"id":3,"op":"match","tokens":["a"]}\n'
        )

    @pytest.mark.parametrize(
        "fields,message",
        [
            # The first ids are those the cases had when replies were base64.
            pytest.param(
                {"row_ids": b"12345"}, "'row_ids' is not an array section",
                id="fields3-not a multiple of 4",
            ),
            pytest.param(
                {"col_scores": bytes(20)}, "'col_scores' is not an array section",
                id="fields4-not a multiple of 8",
            ),
            pytest.param(
                {"row_lengths": [2, 0, 2]}, "row_ids: list bounds do not cover the 3 ids",
                id="fields5-row lengths sum to 4",
            ),
            pytest.param(
                {"row_lengths": [3, 0]}, "row_ids: 2 lists for 3 rows",
                id="fields6-2 rows for 3 entities",
            ),
            pytest.param(
                {"row_lengths": [3, -1, 1]}, "row_ids: a list has negative length",
                id="fields7-negative row length",
            ),
            pytest.param(
                {"row_scores": [0.5, 0.25]}, "3 row_ids and 2 float64 row_scores",
                id="fields8-for 3 ids and 2 scores",
            ),
            pytest.param({"row_ids": [4, 7, 10]}, "row_ids: id outside", id="fields9-row id outside"),
            pytest.param({"row_ids": [4, -1, 9]}, "row_ids: id outside", id="fields10-row id outside"),
            pytest.param(
                {"col_ids": [0, 0, 3]}, "col_ids: id outside", id="fields11-column id outside"
            ),
            pytest.param(
                {"col_lengths": [1, 2]}, "col_ids: 2 lists for 3 rows",
                id="fields12-2 lengths for 3 columns",
            ),
            pytest.param(
                {"col_lengths": [1, 1, 2]}, "col_ids: list bounds do not cover",
                id="fields13-column lengths sum to 4",
            ),
            pytest.param(
                {"col_nodes": [4, 7, 10]}, "col_nodes: id outside",
                id="fields14-column node outside",
            ),
            pytest.param(
                {"col_nodes": [4, 4, 9]}, "col_nodes: ids do not ascend strictly",
                id="fields15-not strictly ascending",
            ),
            pytest.param(
                {"col_nodes": [7, 4, 9]}, "col_nodes: ids do not ascend strictly",
                id="fields16-not strictly ascending",
            ),
            pytest.param(
                {"row_scores": np.array([1, 2, 3], np.int32)}, "3 row_ids and 3 int32 row_scores",
                id="integer scores",
            ),
            pytest.param(
                {"col_ids": "@@ 0 0 2 @@"}, "'col_ids' is not an array section: '@@ 0 0 2 @@'",
                id="a JSON field",
            ),
        ],
    )
    def test_malformed_reply_rejected(self, fields, message):
        with pytest.raises(ProtocolError, match=message):
            evidence_of(over_the_wire(reply(**fields)), N_ENTITIES, ID_SPACE)

    def test_missing_field_rejected(self):
        message = reply()
        del message["col_nodes"]
        with pytest.raises(ProtocolError, match="'col_nodes' is not an array section"):
            evidence_of(over_the_wire(message), N_ENTITIES, ID_SPACE)

    @pytest.mark.parametrize(
        "frame,message",
        [
            pytest.param(
                sectioned([{"name": "row_ids", "dtype": "i4", "offset": 0, "count": 3}], bytes(8)),
                "truncated frame file: section 'row_ids' ends at byte",
                id="section past the frame",
            ),
            pytest.param(
                sectioned([{"name": "row_ids", "dtype": "i8", "offset": 0, "count": 1}], bytes(8)),
                "section 'row_ids' has unknown dtype 'i8'",
                id="unknown dtype",
            ),
            pytest.param(
                sectioned([{"name": "row_ids", "dtype": "i4", "offset": 0, "count": 1.25}], bytes(8)),
                "section 'row_ids' is not a whole number of aligned items",
                id="bytes not whole items",
            ),
            pytest.param(
                sectioned([{"name": "row_ids", "dtype": "i4", "offset": 3, "count": 1}], bytes(8)),
                "section 'row_ids' is not a whole number of aligned items",
                id="unaligned section",
            ),
            pytest.param(sectioned([], header=b'{"id": 1, '), "corrupt frame header", id="header not JSON"),
            pytest.param(sectioned([], header=b'{"id": 1}'), "corrupt frame header: KeyError", id="no section table"),
            pytest.param(FRAME_MAGIC[:-1] + b"\x03", "not JSON", id="foreign magic"),
        ],
    )
    def test_malformed_container_rejected(self, frame, message):
        if not frame[:1].isdigit():
            frame = b"%d\n%s\n" % (len(frame), frame)
        with pytest.raises(ProtocolError, match=message):
            read_frame(io.BytesIO(frame))

    @given(
        data=st.data(),
        field=st.sampled_from(BatchEvidence._fields),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_field_is_rejected_or_merges(self, data, field):
        """Whatever one section holds, the reply is a
        :class:`ProtocolError` or evidence the merge kernel takes
        without an error."""
        dtype = sample_evidence()._asdict()[field].dtype
        value = data.draw(
            st.one_of(
                st.binary(max_size=40),
                st.binary(max_size=40).map(
                    lambda raw: np.frombuffer(raw[: len(raw) // dtype.itemsize * dtype.itemsize], dtype)
                ),
                st.text(max_size=12),
                st.lists(st.integers(-2, 11), max_size=8)
                if dtype == np.int32
                else st.lists(st.floats(allow_nan=False), max_size=8),
            )
        )
        self._rejected_or_merges(lambda: over_the_wire(reply(**{field: value})))

    @given(position=st.integers(0, 10**6), byte=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_flipped_byte_is_rejected_or_merges(self, position, byte):
        """One byte of the frame's payload (header, padding or a section)
        overwritten: a :class:`ProtocolError` or a mergeable reply."""
        frame = bytearray(frame_bytes(reply()))
        start = frame.index(b"\n") + 1
        frame[start + position % (len(frame) - start - 1)] = byte
        self._rejected_or_merges(lambda: read_frame(io.BytesIO(bytes(frame))))

    @staticmethod
    def _rejected_or_merges(receive):
        try:
            evidence = evidence_of(receive(), N_ENTITIES, ID_SPACE)
        except ProtocolError:
            return
        value_1, value_2 = numpy_backend.merge_batch_evidence(
            [evidence, sample_evidence()], N_ENTITIES, ID_SPACE, 4, (0.2, 3)
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
