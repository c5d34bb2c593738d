"""The audit and provenance record codec against ``dataclasses.asdict``.

``to_dict`` builds its dict from the schema tuples with shallow copies of
the container fields; ``to_line`` is the one canonical JSONL encoder.
Both must stay exactly what ``asdict`` + ``json.dumps`` produced, and a
field added to a record without its schema tuple must fail here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from hypothesis import given, settings, strategies as st

from repro.obs.audit import AUDIT_FIELDS, AUDIT_RULES, AuditRecord, DecisionAuditLog
from repro.obs.provenance import PROVENANCE_FIELDS, ProvenanceLog, ProvenanceRecord

ints = st.integers(min_value=-(2**40), max_value=2**40)
floats = st.floats(allow_nan=False)
optional_floats = st.none() | floats
texts = st.text(max_size=12)

audit_records = st.builds(
    AuditRecord,
    slot=ints,
    monitor=ints,
    tagged=ints,
    rule=st.sampled_from(AUDIT_RULES),
    diagnosis=texts,
    deterministic=st.booleans(),
    detail=texts,
    p_value=optional_floats,
    statistic=optional_floats,
    threshold=optional_floats,
    sample_size=ints,
)

provenance_records = st.builds(
    ProvenanceRecord,
    verdict_id=texts,
    slot=ints,
    monitor=ints,
    tagged=ints,
    rule=st.sampled_from(AUDIT_RULES),
    diagnosis=texts,
    deterministic=st.booleans(),
    detail=texts,
    observation_ids=st.lists(ints, max_size=30),
    observation_slots=st.lists(ints, max_size=30),
    window_start=st.none() | ints,
    window_end=st.none() | ints,
    dictated=st.lists(floats, max_size=30),
    estimated=st.lists(floats, max_size=30),
    statistic=optional_floats,
    p_value=optional_floats,
    threshold=optional_floats,
    sample_size=ints,
    rho=floats,
    arma_alpha=floats,
    quarantine_drops=st.dictionaries(texts, ints, max_size=4),
    skipped_samples=ints,
)


def _old_line(record) -> str:
    return json.dumps(asdict(record), sort_keys=True, separators=(",", ":"))


def test_schema_tuples_list_every_field_in_order():
    assert AUDIT_FIELDS == tuple(f.name for f in fields(AuditRecord))
    assert PROVENANCE_FIELDS == tuple(f.name for f in fields(ProvenanceRecord))


@settings(max_examples=200, deadline=None)
@given(record=audit_records)
def test_audit_codec_matches_asdict(record):
    data = record.to_dict()
    assert data == asdict(record)
    assert list(data) == list(AUDIT_FIELDS)
    assert record.to_line() == _old_line(record)
    log = DecisionAuditLog([record, record])
    assert DecisionAuditLog.from_jsonl(log.to_jsonl()).to_jsonl() == log.to_jsonl()


@settings(max_examples=200, deadline=None)
@given(record=provenance_records)
def test_provenance_codec_matches_asdict(record):
    data = record.to_dict()
    assert data == asdict(record)
    assert list(data) == list(PROVENANCE_FIELDS)
    assert record.to_line() == _old_line(record)
    log = ProvenanceLog([record, record])
    assert ProvenanceLog.from_jsonl(log.to_jsonl()).to_jsonl() == log.to_jsonl()


@settings(max_examples=50, deadline=None)
@given(record=provenance_records)
def test_mutating_to_dict_output_leaves_the_record_alone(record):
    before = asdict(record)
    line = record.to_line()
    data = record.to_dict()
    for name, value in data.items():
        if isinstance(value, list):
            value.append(1)
        elif isinstance(value, dict):
            value["mutated"] = 1
    assert asdict(record) == before
    assert record.to_line() == line
