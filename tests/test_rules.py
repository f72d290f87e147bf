from __future__ import annotations

import gc
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from cryptodep import (
    RULES,
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    Direction,
    SecurityRating,
    Source,
    UnknownVertexError,
    VertexKind,
    apply_overlay,
    assemble_bundle,
    build_graph,
    explain_edge,
    load_bundle,
    load_default_registry,
    parse_overlay,
    parse_profiles,
    parse_registry,
    validate_bundle,
)
from cryptodep.ingest import parse_entry
from cryptodep.registry import parse_registry_text
from cryptodep.model import InventoryBundle, RefOrigin
from cryptodep.rules import CRYPTO_RULES, Edge, _Builder

import inventory_gen
from conftest import CLOUD_FILES, CLOUD_MINIMAL, HYBRID, HYBRID_FILES
from oracle import edges_oracle, merged_edges_oracle

ROOT = Path(__file__).resolve().parent.parent


def triples(graph):
    return {(e.frm, e.to, e.rule) for e in graph.edges}


def kinds(graph):
    return {v.id: v.kind for v in graph.vertices}


def graph_from(records, registry=None):
    bundle, _ = assemble_bundle(records, registry or load_default_registry())
    return build_graph(bundle)


def codes(diags):
    return [d.code for d in diags]


def src(name="t.csv", ref="r"):
    return Source(name, ref)


HIGH = ClassificationBinding(
    "High", (SecurityRating.approval("approved"),), rank=0, source=src("c.csv", "High")
)


# --------------------------------------------------------------------------
# whole-graph shape on the bundled minimal fixture
# --------------------------------------------------------------------------

def test_cloud_minimal_graph_is_exactly_the_expected_eight_vertices(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    assert kinds(graph) == {
        "Approval:approved": VertexKind.SECURITY_LEVEL,
        "Approval:not-approved": VertexKind.SECURITY_LEVEL,
        "High": VertexKind.CLASSIFICATION,
        "Data1": VertexKind.DATA_ASSET,
        "DB1": VertexKind.PROCESSOR,
        "WWW1": VertexKind.PROCESSOR,
        "certkey1": VertexKind.KEY,
        "RSA[1024]": VertexKind.PRIMITIVE_CONFIG,
    }
    assert triples(graph) == {
        ("Approval:approved", "High", "SL1"),
        ("High", "Data1", "DC1"),
        ("Data1", "DB1", "D1"),
        ("DB1", "WWW1", "AC1"),
        ("WWW1", "DB1", "AC1"),
        ("certkey1", "WWW1", "K1"),
        ("WWW1", "certkey1", "M1"),
        ("certkey1", "RSA[1024]", "K4"),
        ("RSA[1024]", "Approval:not-approved", "SL2"),
    }


def test_graph_is_canonically_ordered(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    assert [v.id for v in graph.vertices] == sorted(v.id for v in graph.vertices)
    keys = [(e.frm, e.to, e.rule) for e in graph.edges]
    assert keys == sorted(keys)
    assert build_graph(cloud_minimal_bundle) == graph


# --------------------------------------------------------------------------
# level handling
# --------------------------------------------------------------------------

def test_levels_exist_only_for_required_dimensions():
    registry, _ = parse_registry_text(
        '{"name": "X", "configurations": [{"flags": ["1"], "security": 80, '
        '"NIST-approval": "approved"}]}',
        "r",
    )
    key = CryptoObjectRecord(
        id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY,
        algorithm="X", config_flags=("1",), source=src(),
    )
    graph = graph_from([HIGH, key], registry)
    assert "Bits:80" not in kinds(graph)
    assert ("X[1]", "Approval:approved", "SL2") in triples(graph)

    wants_bits = ClassificationBinding(
        "Paranoid", (SecurityRating.bits(128),), rank=1, source=src("c.csv", "Paranoid")
    )
    wider = graph_from([HIGH, wants_bits, key], registry)
    assert ("X[1]", "Bits:80", "SL2") in triples(wider)
    assert ("Bits:128", "Paranoid", "SL1") in triples(wider)


def test_sl1_connects_every_required_level():
    binding = ClassificationBinding(
        "Dual",
        (SecurityRating.approval("approved"), SecurityRating.quantum("quantum-safe")),
        source=src("c.csv", "Dual"),
    )
    graph = graph_from([binding])
    assert triples(graph) == {
        ("Approval:approved", "Dual", "SL1"),
        ("QuantumSafety:quantum-safe", "Dual", "SL1"),
    }


def test_unrated_configuration_gets_a_vertex_but_no_levels():
    key = CryptoObjectRecord(
        id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY,
        algorithm="HOMEBREW", config_flags=("9",), source=src(),
    )
    graph = graph_from([HIGH, key])
    assert kinds(graph)["HOMEBREW[9]"] is VertexKind.PRIMITIVE_CONFIG
    assert triples(graph) == {
        ("Approval:approved", "High", "SL1"),
        ("K1", "HOMEBREW[9]", "K4"),
    }


# --------------------------------------------------------------------------
# data rules
# --------------------------------------------------------------------------

def test_data_storage_rule_follows_location_kind():
    records = [
        AssetRecord(id="Box", kind=AssetKind.PROCESSOR, source=src()),
        AssetRecord(id="Wire", kind=AssetKind.CHANNEL, source=src()),
        AssetRecord(id="Job", kind=AssetKind.PROCESS, source=src()),
        DataRecord(id="D1", storage_locations=("Box", "Wire", "Job", "Ghost"), source=src()),
    ]
    graph = graph_from(records)
    assert ("D1", "Box", "D1") in triples(graph)
    assert ("D1", "Wire", "D2") in triples(graph)
    assert ("D1", "Job", "D3") in triples(graph)
    # unknown storage behaves as an undeclared processor
    assert ("D1", "Ghost", "D1") in triples(graph)
    assert kinds(graph)["Ghost"] is VertexKind.PROCESSOR


def test_classification_vertex_is_shared():
    records = [
        HIGH,
        DataRecord(id="D1", classification="High", source=src("d.csv", "D1")),
        DataRecord(id="D2", classification="High", source=src("d.csv", "D2")),
    ]
    graph = graph_from(records)
    assert [v.id for v in graph.vertices if v.kind is VertexKind.CLASSIFICATION] == ["High"]
    assert ("High", "D1", "DC1") in triples(graph)
    assert ("High", "D2", "DC1") in triples(graph)


# --------------------------------------------------------------------------
# key and certificate rules
# --------------------------------------------------------------------------

def _on_processor(object_type, **kwargs):
    return [
        AssetRecord(id="Host", kind=AssetKind.PROCESSOR, source=src()),
        CryptoObjectRecord(
            id="Obj", object_type=object_type, location="Host", source=src("k.csv", "Obj"), **kwargs
        ),
    ]


def test_private_key_on_processor():
    graph = graph_from(_on_processor(CryptoObjectType.PRIVATE_KEY))
    assert triples(graph) == {("Obj", "Host", "K1"), ("Host", "Obj", "M1")}


def test_symmetric_key_on_processor():
    graph = graph_from(_on_processor(CryptoObjectType.SYMMETRIC_KEY))
    assert triples(graph) == {("Obj", "Host", "K1"), ("Host", "Obj", "M1")}


def test_public_key_on_processor():
    graph = graph_from(_on_processor(CryptoObjectType.PUBLIC_KEY))
    assert triples(graph) == {("Obj", "Host", "K3"), ("Host", "Obj", "M2")}


def test_certificate_on_processor_is_stored_not_depended_on():
    graph = graph_from(_on_processor(CryptoObjectType.CERTIFICATE, algorithm="RSA", config_flags=("2048",)))
    assert ("Host", "Obj", "M2") in triples(graph)
    assert ("Obj", "Host", "K1") not in triples(graph)
    assert ("Obj", "Host", "K7") not in triples(graph)
    assert ("Obj", "RSA[2048]", "K6") in triples(graph)


def test_ca_certificate_relies_on_its_storage():
    graph = graph_from(_on_processor(CryptoObjectType.CA_CERTIFICATE, algorithm="RSA", config_flags=("2048",)))
    assert ("Obj", "Host", "K7") in triples(graph)
    assert ("Host", "Obj", "M2") in triples(graph)


def test_key_on_channel_has_no_storage_backedge():
    records = [
        AssetRecord(id="Wire", kind=AssetKind.CHANNEL, source=src()),
        CryptoObjectRecord(
            id="Obj", object_type=CryptoObjectType.PRIVATE_KEY, location="Wire", source=src()
        ),
    ]
    graph = graph_from(records)
    assert triples(graph) == {("Obj", "Wire", "K1")}


def test_key_management_location_applies_to_every_object_type():
    for object_type in CryptoObjectType:
        records = [
            CryptoObjectRecord(
                id="Obj",
                object_type=object_type,
                key_locations=("KMS",),
                algorithm="RSA" if object_type.value.endswith("ertificate") else None,
                config_flags=("2048",) if object_type.value.endswith("ertificate") else (),
                source=src(),
            )
        ]
        graph = graph_from(records)
        assert ("Obj", "KMS", "K1") in triples(graph), object_type


@pytest.mark.parametrize("referrer", ["D1", "E1"])
def test_a_dangling_storage_location_naming_a_data_record_leaves_it_data_in_either_id_order(referrer):
    """Every record claims its id before any reference is followed, so a
    dangling reference met before the record it names cannot take its vertex."""
    records = [
        DataRecord(id=referrer, storage_locations=("D2",), source=src()),
        DataRecord(id="D2", source=src()),
        DataRecord(id="D3", storage_locations=("D2",), source=src()),
    ]
    bundle, diags = assemble_bundle(records, load_default_registry())
    assert diags == []
    found = []
    graph = build_graph(bundle, found)
    assert graph.kinds["D2"] is VertexKind.DATA_ASSET
    assert [d.code for d in found] == ["dangling-reference"] * 2
    assert {(referrer, "D2", "D1"), ("D3", "D2", "D1")} <= triples(graph)


def test_a_key_named_as_a_creator_stays_a_key():
    records = [
        CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.PRIVATE_KEY, algorithm="RSA", config_flags=("2048",),
            created_by="K2", source=src(),
        ),
        CryptoObjectRecord(
            id="K2", object_type=CryptoObjectType.PRIVATE_KEY, algorithm="RSA", config_flags=("2048",), source=src()
        ),
    ]
    bundle, _ = assemble_bundle(records, load_default_registry())
    found = []
    graph = build_graph(bundle, found)
    assert graph.kinds["K2"] is VertexKind.KEY
    assert [(d.code, d.message) for d in found] == [
        ("dangling-reference", "crypto object 'K1' was created by 'K2' but no such asset exists")
    ]
    assert ("K1", "K2", "K5") in triples(graph)


def test_key_links_to_configuration_and_creator():
    records = [
        AssetRecord(id="Provisioner", kind=AssetKind.PROCESS, source=src()),
        CryptoObjectRecord(
            id="Obj",
            object_type=CryptoObjectType.SYMMETRIC_KEY,
            algorithm="AES",
            config_flags=("128",),
            created_by="Provisioner",
            source=src(),
        ),
    ]
    graph = graph_from(records)
    assert ("Obj", "AES[128]", "K4") in triples(graph)
    assert ("Obj", "Provisioner", "K5") in triples(graph)


def test_certificates_take_creator_edges():
    for object_type in (CryptoObjectType.CERTIFICATE, CryptoObjectType.CA_CERTIFICATE):
        records = [
            AssetRecord(id="Provisioner", kind=AssetKind.PROCESS, source=src()),
            CryptoObjectRecord(
                id="Obj",
                object_type=object_type,
                algorithm="RSA",
                config_flags=("2048",),
                created_by="Provisioner",
                source=src(),
            ),
        ]
        assert ("Obj", "Provisioner", "K5") in triples(graph_from(records)), object_type


def test_crypto_rules_cover_every_object_type():
    assert CRYPTO_RULES.keys() == set(CryptoObjectType)
    for object_type, row in CRYPTO_RULES.items():
        assert row.kind in (VertexKind.KEY, VertexKind.CERTIFICATE), object_type
        assert row.held and row.algorithm, object_type
        assert {rule for rule in row[1:] if rule} <= RULES.keys(), object_type


# the value each crypto field takes in a cell of the table below: the
# holder is an asset of the cell's vertex kind, where the object is located
# in the cells of the fields that do not name an asset, and the other id is
# a CA certificate
_FIELD_VALUES = {
    "location": "Holder", "key_locations": ("Holder",), "created_by": "Holder",
    "algorithm": "AES", "matched_key": "Other", "issuer_cert": "Other",
}


def _field_outcome(object_type, field, holder_kind):
    """The edges, assembly and validation codes, and whether the row reader
    rejects the row, that setting ``field`` on an object at the holder adds."""
    def built(record):
        records = [
            AssetRecord(id="Holder", kind=holder_kind, source=src("a.csv", "Holder")),
            CryptoObjectRecord(
                id="Other", object_type=CryptoObjectType.CA_CERTIFICATE, algorithm="RSA", source=src("k.csv", "Other")
            ),
            record,
        ]
        bundle, diags = assemble_bundle(records, load_default_registry())
        return triples(build_graph(bundle)), Counter(codes(diags + validate_bundle(bundle)))

    value = _FIELD_VALUES[field]
    located = None if value in ("Holder", ("Holder",)) else "Holder"
    base = CryptoObjectRecord(id="Obj", object_type=object_type, location=located, source=src("k.csv", "Obj"))
    base_edges, base_codes = built(base)
    edges, found = built(replace(base, **{field: value}))
    entry = {
        "record_kind": "crypto", "id": "Obj", "object_type": object_type.value, "location": located,
        "algorithm": "AES", field: list(value) if isinstance(value, tuple) else value,
    }
    rejected = False
    try:
        parse_entry(entry)
    except ValueError as exc:
        assert "only valid for" in str(exc), exc
        rejected = True
    return edges - base_edges, set(found - base_codes), rejected


@pytest.mark.parametrize("holder_kind", [AssetKind.PROCESSOR, AssetKind.CHANNEL, AssetKind.PROCESS])
@pytest.mark.parametrize("field", sorted(_FIELD_VALUES))
@pytest.mark.parametrize("object_type", list(CryptoObjectType))
def test_every_crypto_field_gives_an_edge_or_a_word(object_type, field, holder_kind):
    """Each (object type, field, holder vertex kind) cell gives an edge of
    the object, a row rejection, or a diagnostic that names the field."""
    edges, found, rejected = _field_outcome(object_type, field, holder_kind)
    assert all("Obj" in edge[:2] for edge in edges)
    words = found & {"location-unused", "field-not-applicable"}
    assert rejected == ("field-not-applicable" in words)  # a record built in code is told what a row is
    assert edges or words, (object_type, field, holder_kind)
    assert not (edges and words)


def test_matched_key_edges():
    records = [
        CryptoObjectRecord(id="Priv", object_type=CryptoObjectType.PRIVATE_KEY, source=src()),
        CryptoObjectRecord(
            id="Pub", object_type=CryptoObjectType.PUBLIC_KEY, matched_key="Priv", source=src()
        ),
        CryptoObjectRecord(
            id="Cert",
            object_type=CryptoObjectType.CERTIFICATE,
            algorithm="RSA",
            config_flags=("2048",),
            matched_key="Pub",
            source=src(),
        ),
    ]
    graph = graph_from(records)
    assert ("Pub", "Priv", "K3") in triples(graph)
    assert ("Cert", "Pub", "K6") in triples(graph)


def test_issuer_chain_stops_at_self_signed_roots():
    records = [
        CryptoObjectRecord(
            id="Leaf",
            object_type=CryptoObjectType.CERTIFICATE,
            algorithm="RSA",
            config_flags=("2048",),
            issuer_cert="Root",
            source=src(),
        ),
        CryptoObjectRecord(
            id="Root",
            object_type=CryptoObjectType.CA_CERTIFICATE,
            algorithm="RSA",
            config_flags=("2048",),
            issuer_cert="Root",
            source=src(),
        ),
    ]
    graph = graph_from(records)
    assert ("Leaf", "Root", "K6") in triples(graph)
    assert ("Root", "Root", "K6") not in triples(graph)


@pytest.mark.parametrize("cert_id,key_id", [("C1", "K9"), ("Z1", "A0")])
def test_a_declared_key_named_as_issuer_stays_a_key_in_either_id_order(cert_id, key_id):
    records = [
        CryptoObjectRecord(
            id=cert_id, object_type=CryptoObjectType.CERTIFICATE, issuer_cert=key_id, source=src()
        ),
        CryptoObjectRecord(id=key_id, object_type=CryptoObjectType.PRIVATE_KEY, name="Issuer key", source=src()),
    ]
    graph = graph_from(records)
    vertex = graph.vertex_map()[key_id]
    assert (vertex.kind, vertex.display) == (VertexKind.KEY, "Issuer key")
    assert (cert_id, key_id, "K6") in triples(graph)


def test_protocol_configurations_expand_to_members():
    records = [
        HIGH,
        CryptoObjectRecord(
            id="Cert",
            object_type=CryptoObjectType.CERTIFICATE,
            algorithm="TLS",
            config_flags=("1.2",),
            source=src(),
        ),
    ]
    graph = graph_from(records)
    got = triples(graph)
    assert ("Cert", "TLS[1.2]", "K6") in got
    assert ("TLS[1.2]", "RSA[2048]", "P2") in got
    assert ("TLS[1.2]", "ECDH[P-256]", "P2") in got
    assert ("TLS[1.2]", "AES[128]", "P2") in got
    # members contribute their own level edges
    assert ("RSA[2048]", "Approval:approved", "SL2") in got


def test_protocol_cycles_and_respelt_flags_expand_to_one_vertex():
    registry, diags = parse_registry_text(
        '[{"name": "P", "configurations": [{"flags": ["2", "1"], "NIST-approval": "approved", "uses": ["Q"]}]},'
        ' {"name": "Q", "configurations": [{"flags": [], "uses": ["P[2,1.0]"]}]}]',
        "r",
    )
    assert diags == []
    records = [HIGH] + [
        CryptoObjectRecord(
            id=ident, object_type=CryptoObjectType.SYMMETRIC_KEY, algorithm="P", config_flags=flags, source=src()
        )
        for ident, flags in (("K1", ("1", "2")), ("K2", ("2", "1")))
    ]
    graph = graph_from(records, registry)
    assert [v.id for v in graph.vertices if v.kind is VertexKind.PRIMITIVE_CONFIG] == ["P[1,2]", "Q[]"]
    assert {t for t in triples(graph) if t[2] in ("P2", "SL2", "K4")} == {
        ("P[1,2]", "Q[]", "P2"),
        ("Q[]", "P[1,2]", "P2"),
        ("P[1,2]", "Approval:approved", "SL2"),
        ("K1", "P[1,2]", "K4"),
        ("K2", "P[1,2]", "K4"),
    }


# --------------------------------------------------------------------------
# typed reference columns
# --------------------------------------------------------------------------

def _reference_fixture(owner_kind, target_id):
    records = [
        AssetRecord(id="Box", kind=AssetKind.PROCESSOR, source=src("a.csv", "Box")),
        AssetRecord(id="Svc", kind=AssetKind.SERVICE, source=src("a.csv", "Svc")),
        AssetRecord(id="Wire", kind=AssetKind.CHANNEL, source=src("a.csv", "Wire")),
        AssetRecord(id="Job", kind=AssetKind.PROCESS, source=src("a.csv", "Job")),
        AssetRecord(id="App", kind=AssetKind.SOFTWARE, source=src("a.csv", "App")),
        DataRecord(id="D1", source=src("d.csv", "D1")),
        CryptoObjectRecord(id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, source=src("k.csv", "K1")),
        AssetRecord(
            id="Owner",
            kind=owner_kind,
            accesses=(
                AccessRef(target_id, origin=RefOrigin.ASSET_FIELD, source=src("a.csv", "Owner")),
            ),
            source=src("a.csv", "Owner"),
        ),
    ]
    return graph_from(records)


@pytest.mark.parametrize(
    "owner_kind,target,expected",
    [
        (AssetKind.PROCESSOR, "K1", ("Owner", "K1", "M3")),
        (AssetKind.SERVICE, "K1", ("Owner", "K1", "M3")),
        (AssetKind.PROCESS, "K1", ("Owner", "K1", "PR4")),
        (AssetKind.CHANNEL, "K1", ("Owner", "K1", "CH1")),
        (AssetKind.PROCESSOR, "RSA[2048]", ("Owner", "RSA[2048]", "M3")),
        (AssetKind.PROCESS, "RSA[2048]", ("Owner", "RSA[2048]", "PR1")),
        (AssetKind.SOFTWARE, "RSA[2048]", ("Owner", "RSA[2048]", "PR1")),
        (AssetKind.CHANNEL, "RSA[2048]", ("Owner", "RSA[2048]", "CH1")),
        (AssetKind.PROCESSOR, "D1", ("D1", "Owner", "D1")),
        (AssetKind.PROCESS, "D1", ("D1", "Owner", "D3")),
        (AssetKind.CHANNEL, "D1", ("D1", "Owner", "D2")),
        (AssetKind.PROCESS, "Box", ("Owner", "Box", "PR2")),
        (AssetKind.PROCESS, "App", ("Owner", "App", "PR3")),
        (AssetKind.PROCESS, "Job", ("Owner", "Job", "PR3")),
    ],
)
def test_reference_rule_dispatch(owner_kind, target, expected):
    graph = _reference_fixture(owner_kind, target)
    assert expected in triples(graph)


def test_channel_references_couple_both_ways():
    graph = _reference_fixture(AssetKind.PROCESSOR, "Wire")
    assert ("Owner", "Wire", "CH2") in triples(graph)
    assert ("Wire", "Owner", "CH2") in triples(graph)
    graph = _reference_fixture(AssetKind.CHANNEL, "Box")
    assert ("Owner", "Box", "CH2") in triples(graph)
    assert ("Box", "Owner", "CH2") in triples(graph)


def test_processor_to_asset_reference_is_an_access_pair():
    graph = _reference_fixture(AssetKind.PROCESSOR, "Svc")
    assert ("Svc", "Owner", "AC1") in triples(graph)
    assert ("Owner", "Svc", "AC1") in triples(graph)


def test_unresolvable_reference_materialises_an_asset():
    graph = _reference_fixture(AssetKind.PROCESSOR, "Mystery")
    assert kinds(graph)["Mystery"] is VertexKind.PROCESSOR
    assert ("Mystery", "Owner", "AC1") in triples(graph)
    assert ("Owner", "Mystery", "AC1") in triples(graph)


def test_a_malformed_algorithm_spec_is_an_undeclared_asset():
    # "RSA[1024" names no algorithm, so it is read as any unknown target is
    graph = _reference_fixture(AssetKind.PROCESSOR, "RSA[1024")
    assert kinds(graph)["RSA[1024"] is VertexKind.PROCESSOR
    assert ("RSA[1024", "Owner", "AC1") in triples(graph)
    assert ("Owner", "RSA[1024", "AC1") in triples(graph)


def test_serves_couples_both_directions():
    records = [
        AssetRecord(id="Web", kind=AssetKind.PROCESSOR, serves=("Crm",), source=src()),
    ]
    graph = graph_from(records)
    assert ("Web", "Crm", "AC1") in triples(graph)
    assert ("Crm", "Web", "AC1") in triples(graph)


def test_read_only_access_gives_a_single_edge():
    records = [
        AssetRecord(id="A", kind=AssetKind.PROCESSOR, source=src("a.csv", "A")),
        AssetRecord(id="S", kind=AssetKind.SERVICE, source=src("a.csv", "S")),
        AssetRecord(
            id="A",
            accesses=(
                AccessRef(
                    "S",
                    direction=Direction.READ_ONLY,
                    origin=RefOrigin.ACCESS_RECORD,
                    source=src("x.csv", "A->S"),
                ),
            ),
            source=src("x.csv", "A->S"),
        ),
    ]
    graph = graph_from(records)
    assert ("S", "A", "AC1") in triples(graph)
    assert ("A", "S", "AC1") not in triples(graph)


def test_duplicate_references_merge_provenance():
    def ref(fname):
        return AssetRecord(
            id="A",
            accesses=(
                AccessRef("S", origin=RefOrigin.ACCESS_RECORD, source=src(fname, "A->S")),
            ),
            source=src(fname, "A->S"),
        )

    graph = graph_from([ref("one.csv"), ref("two.csv")])
    edge = next(e for e in graph.edges if (e.frm, e.to) == ("A", "S"))
    assert [s.file for s in edge.provenance] == ["one.csv", "two.csv"]


def test_provenance_is_one_source_or_every_source_in_file_ref_order():
    def access(fname, ref):
        source = src(fname, ref)
        return AssetRecord(
            id="A", accesses=(AccessRef("S", origin=RefOrigin.ACCESS_RECORD, source=source),), source=source
        )

    records = [
        access("z.csv", "A->S"), access("a.csv", "r2"), access("z.csv", "A->S"), access("a.csv", "r1"),
        AssetRecord(id="B", kind=AssetKind.PROCESSOR, serves=("C",), source=src("b.csv", "B")),
    ]
    graph = graph_from(records)
    provenance = {(e.frm, e.to): e.provenance for e in graph.edges}
    assert provenance["A", "S"] == (src("a.csv", "r1"), src("a.csv", "r2"), src("z.csv", "A->S"))
    assert provenance["B", "C"] == (src("b.csv", "B"),)
    assert all(type(e.provenance) is tuple for e in graph.edges)


def test_graph_is_the_same_with_cyclic_gc_on_or_off():
    bundle, _, _ = inventory_gen.random_bundle(random.Random(5), n_data=400, n_assets=400, n_crypto=400)
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    collections = sum(stats["collections"] for stats in gc.get_stats())
    try:
        gc.enable()
        gc.set_threshold(50, 2, 2)  # collect often while the builder holds its tables
        with_gc = build_graph(bundle)
        assert sum(stats["collections"] for stats in gc.get_stats()) > collections
        gc.disable()
        without_gc = build_graph(bundle)
    finally:
        gc.set_threshold(*thresholds)
        if enabled:
            gc.enable()
    assert with_gc == without_gc  # edges compare with their provenance
    assert len(with_gc.edges) > 1000


@pytest.mark.parametrize("keep_diagnostics", [False, True])
def test_building_a_graph_needs_little_more_memory_than_the_graph_keeps(keep_diagnostics):
    """A count, not a timing: the bytes allocated at the peak of
    ``build_graph`` against the bytes the finished graph, and the
    diagnostics list when one is passed, hold.  Tables the builder keeps
    beside the edges (a dict keyed by (from, to, rule), a provenance tuple
    per edge) push the ratio past 1.5, and a vertex dict or a second edge
    list alive while ``finish`` sorts and merges pushes it past 1.15.  The
    id maps the builder reads are the bundle's, memoised on it, so they are
    made before the count.  The bundle gives about 1,700 diagnostics."""
    bundle, _, _ = inventory_gen.random_bundle(random.Random(5), n_data=3000, n_assets=3000, n_crypto=3000)
    # read once, so memoised before the count
    bundle.asset_map, bundle.data_map, bundle.crypto_map, bundle.classification_map
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        diags = [] if keep_diagnostics else None
        graph = build_graph(bundle, diags)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.edges) > 20_000
    assert diags is None or len(diags) > 1000
    assert (peak - base) / (kept - base) <= 1.15


def test_building_a_graph_frees_the_builders_tables_before_the_edges_are_merged(monkeypatch):
    """The same count over ``finish`` alone: it sorts the builder's edge
    list in place and merges the runs in that list, so at its peak it holds
    little beyond the vertex and edge tuples it returns.  Merging into a
    second list and copying that into the tuple reads about 1.8."""
    bundle, _, _ = inventory_gen.random_bundle(random.Random(5), n_data=3000, n_assets=3000, n_crypto=3000)
    finish, counted = _Builder.finish, []

    def traced_finish(self):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph = finish(self)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counted.append((kept - base, peak - base))
        return graph

    monkeypatch.setattr(_Builder, "finish", traced_finish)
    graph = build_graph(bundle)
    assert len(graph.edges) > 20_000
    [(kept, peak)] = counted
    assert peak / kept <= 1.1


def test_finish_merges_duplicate_edges_like_the_dict_keyed_oracle():
    a1, a2, b1 = (Source("a.csv", "1"),), (Source("a.csv", "2"),), (Source("b.csv", "1"),)
    edges = [
        Edge("X", "Y", "R1", a1), Edge("X", "Y", "R1", a1),  # one source twice
        Edge("X", "Y", "R2", a2), Edge("X", "Y", "R2", b1),  # two sources
        Edge("Y", "X", "R1", b1), Edge("Y", "X", "R1", a2), Edge("Y", "X", "R1", a1),  # added in reverse
        Edge("X", "Z", "R1", a2),
    ]
    rng = random.Random(11)
    names, rules, sources = "VWXYZ", ("R1", "R2"), (a1, a2, b1)
    edges += [Edge(*rng.sample(names, 2), rng.choice(rules), rng.choice(sources)) for _ in range(300)]
    for _ in range(20):
        rng.shuffle(edges)
        builder = _Builder(InventoryBundle())
        for edge in edges:
            builder.edge(*edge)
        graph = builder.finish()
        assert [tuple(edge) for edge in graph.edges] == merged_edges_oracle(edges)
        # a run with one source keeps the tuple its records share
        assert all(any(edge.provenance is s for s in sources) for edge in graph.edges if len(edge.provenance) == 1)


def test_no_self_loops():
    records = [
        AssetRecord(
            id="A",
            kind=AssetKind.PROCESSOR,
            accesses=(AccessRef("A", origin=RefOrigin.ASSET_FIELD, source=src()),),
            source=src(),
        ),
        CryptoObjectRecord(
            id="Pub", object_type=CryptoObjectType.PUBLIC_KEY, matched_key="Pub", source=src()
        ),
    ]
    graph = graph_from(records)
    assert not [e for e in graph.edges if e.frm == e.to]


def test_the_edges_are_those_the_rule_text_gives():
    """``build_graph`` against the oracle written from the text of ``RULES``
    and the README's rule table, on generated bundles of every size."""
    seen = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        bundle, _, _ = inventory_gen.random_bundle(
            rng, n_data=rng.randint(1, 8), n_assets=rng.randint(2, 10), n_crypto=rng.randint(1, 10)
        )
        graph = build_graph(bundle)
        expected_kinds, expected_edges = edges_oracle(bundle)
        assert kinds(graph) == expected_kinds, seed
        assert [tuple(edge) for edge in graph.edges] == expected_edges, seed
        seen.update(edge.rule for edge in graph.edges)
    assert seen.keys() == RULES.keys() and min(seen.values()) >= 10, seen


def test_the_readme_rule_table_lists_exactly_the_catalogue():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = readme[readme.index("## Rule catalogue"):readme.index("## Library use")]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| [^|]+ \|$", readme, re.MULTILINE)
    assert dict((ident, text.strip()) for ident, text in rows) == RULES
    assert len(rows) == len(RULES)


def _built_bundle(source: str, directory):
    """The bundle of a sample inventory, of a seeded generated one, or of
    the hybrid sample under the golden overlay."""
    if source == "cloud_minimal":
        registry, _ = parse_registry(CLOUD_MINIMAL / "crypto.json")
        paths, profiles = [CLOUD_MINIMAL / f for f in CLOUD_FILES], []
    elif source == "generated":
        tables = inventory_gen.make_tables(
            random.Random(4), n_classes=4, n_data=200, n_assets=200, n_crypto=200, n_access=20,
        )
        registry, paths = load_default_registry(), inventory_gen.write_tables(directory, tables)
        profiles = parse_profiles(directory / "profiles.json")
    else:
        registry, paths = load_default_registry(), [HYBRID / f for f in HYBRID_FILES]
        profiles = parse_profiles(HYBRID / "profiles.json")
    bundle, _ = load_bundle(paths, profiles, registry, use_builtin_profiles=True)
    if source == "overlaid":
        overlay = Path(__file__).parent / "golden" / "overlay.json"
        bundle, _ = apply_overlay(bundle, parse_overlay(overlay.read_text()))
    return bundle


@pytest.mark.parametrize("source", ["cloud_minimal", "hybrid_enterprise", "generated", "overlaid"])
def test_edges_carry_catalogued_rules_and_levels_meet_only_sl1_and_sl2(tmp_path, source):
    # detection reads a level with out-edges as required and one with
    # predecessors as provided, which holds only while SL1 edges alone
    # leave a level and SL2 edges alone enter one
    graph = build_graph(_built_bundle(source, tmp_path))
    kinds = {v.id: v.kind for v in graph.vertices}
    assert {e.rule for e in graph.edges} <= RULES.keys()
    out_of_levels = {e.rule for e in graph.edges if kinds[e.frm] is VertexKind.SECURITY_LEVEL}
    into_levels = {e.rule for e in graph.edges if kinds[e.to] is VertexKind.SECURITY_LEVEL}
    assert (out_of_levels, into_levels) == ({"SL1"}, {"SL2"})


# --------------------------------------------------------------------------
# explain_edge
# --------------------------------------------------------------------------

def test_explain_edge_reports_rule_and_provenance(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    assert explain_edge(graph, "WWW1", "DB1") == [
        ("AC1", Source("cloudconfig.csv", "WWW1->DB1"))
    ]
    assert explain_edge(graph, "Data1", "RSA[1024]") == []
    with pytest.raises(UnknownVertexError):
        explain_edge(graph, "WWW1", "Ghost")
