from __future__ import annotations

import hashlib
import random

import pytest

from cryptodep import (
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    Direction,
    IngestError,
    SecurityRating,
    Source,
    VulnerabilityClass,
    assemble_bundle,
    builtin_profiles,
    load_bundle,
    load_default_registry,
    validate_bundle,
)
from cryptodep.ingest import (
    RecordKind,
    Role,
    Severity,
    file_digest,
    match_profile,
    parse_profiles,
    parse_registry_text,
    parse_tabular,
    read_input,
    text_digest,
)
from cryptodep.model import RefOrigin

import inventory_gen
from conftest import HYBRID, HYBRID_FILES


def codes(diags, severity=None):
    return [d.code for d in diags if severity is None or d.severity is severity]


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------

def test_builtin_profiles_cover_the_standard_layout():
    profiles = {p.inventory: p for p in builtin_profiles()}
    assert set(profiles) == {
        "classifications.csv", "data.csv", "cloudconfig.csv", "cryptoinventory.csv",
    }
    assert profiles["cloudconfig.csv"].kind is RecordKind.ACCESS
    assert profiles["cryptoinventory.csv"].columns["Keysize"] is Role.CONFIG_FLAG


def test_parse_profiles_accepts_wrapper_and_bare_list(tmp_path):
    entry = '{"inventory": "x.csv", "kind": "data", "columns": {"ID": "id"}}'
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text('{"profiles": [%s]}' % entry)
    bare = tmp_path / "bare.json"
    bare.write_text("[%s]" % entry)
    assert parse_profiles(wrapped) == parse_profiles(bare)
    assert parse_profiles(wrapped)[0].columns == {"ID": Role.ID}


@pytest.mark.parametrize(
    "doc",
    [
        '{"profiles": 3}',
        '{"profiles": ["nope"]}',
        '[{"inventory": "x.csv", "kind": "widget", "columns": {}}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": {"ID": "serial"}}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": {"Name": "name"}}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": {"A": "id", "B": "id"}}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": [["ID", "id"]]}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": {"ID": "id"}, "defaults": 3}]',
        'not json',
    ],
)
def test_parse_profiles_rejects_bad_documents(tmp_path, doc):
    path = tmp_path / "profiles.json"
    path.write_text(doc)
    with pytest.raises(IngestError):
        parse_profiles(path)


def test_match_profile_precedence(tmp_path):
    custom = builtin_profiles()[1]
    custom = type(custom)("data.csv", RecordKind.DATA, {"ID": Role.ID, "Tag": Role.NAME})
    picked = match_profile("/somewhere/data.csv", ["ID", "Tag"], [custom], allow_builtin=True)
    assert picked is custom

    by_name = match_profile("data.csv", ["anything"], [], allow_builtin=True)
    assert by_name is not None and by_name.inventory == "data.csv"

    by_header = match_profile(
        "renamed.csv", ["ID", "Location", "Classification"], [], allow_builtin=True
    )
    assert by_header is not None and by_header.kind is RecordKind.DATA

    assert match_profile("renamed.csv", ["ID"], [], allow_builtin=True) is None
    assert match_profile("data.csv", ["ID"], [], allow_builtin=False) is None


# --------------------------------------------------------------------------
# tabular parsing
# --------------------------------------------------------------------------

def _parse(tmp_path, filename, text, profile=None):
    if profile is None:
        profile = next(p for p in builtin_profiles() if p.inventory == filename)
    return parse_tabular(text, tmp_path / filename, [profile])


def test_parse_classifications(tmp_path):
    records, diags = _parse(
        tmp_path,
        "classifications.csv",
        "Classification,Security\nHigh,NIST-approved\nOdd,sideways\n,128\n",
    )
    assert [r.label for r in records] == ["High"]
    assert records[0].required == (SecurityRating.approval("approved"),)
    assert codes(diags) == ["bad-security-level", "blank-id"]


def test_parse_data_rows(tmp_path):
    records, diags = _parse(
        tmp_path,
        "data.csv",
        "ID,Location,Classification\nD1,Srv1; Srv2,High\nD2,-,High\n",
    )
    assert records[0].storage_locations == ("Srv1", "Srv2")
    assert records[1].storage_locations == ()
    assert not diags


def test_parse_data_retention(tmp_path):
    from cryptodep.ingest import MappingProfile

    profile = MappingProfile(
        "d.csv",
        RecordKind.DATA,
        {"ID": Role.ID, "Keep": Role.RETENTION_YEARS},
    )
    records, diags = _parse(
        tmp_path, "d.csv", "ID,Keep\nD1,7\nD2,\nD3,soon\nD4,-3\n", profile
    )
    assert [(r.id, r.retention_years) for r in records] == [("D1", 7.0), ("D2", None)]
    assert codes(diags) == ["bad-retention", "bad-retention"]


def test_parse_asset_rows(tmp_path):
    from cryptodep.ingest import MappingProfile

    profile = MappingProfile(
        "assets.csv",
        RecordKind.ASSET,
        {
            "ID": Role.ID,
            "Kind": Role.OBJECT_TYPE,
            "Serves": Role.SERVES,
            "Uses": Role.ACCESSES_TARGET,
        },
    )
    records, diags = _parse(
        tmp_path,
        "assets.csv",
        "ID,Kind,Serves,Uses\n"
        "A1,Database,A2,K1; K2\n"
        "A2,toaster,A2,\n",
        profile,
    )
    a1, a2 = records
    assert a1.kind is AssetKind.PROCESSOR
    assert [r.target for r in a1.accesses] == ["K1", "K2"]
    assert all(r.origin is RefOrigin.ASSET_FIELD for r in a1.accesses)
    assert a1.accesses[0].source == Source("assets.csv", "A1")
    assert a2.kind is None  # unrecognised kind word degrades with a warning
    assert a2.serves == ()  # self-references dropped
    assert codes(diags) == ["unknown-asset-kind"]


def test_parse_access_rows(tmp_path):
    records, diags = _parse(
        tmp_path,
        "cloudconfig.csv",
        "Asset,Service\nWWW1,DB1\n,DB1\n",
    )
    assert len(records) == 1
    ref = records[0].accesses[0]
    assert (records[0].id, ref.target) == ("WWW1", "DB1")
    assert ref.direction is Direction.TWO_WAY
    assert ref.origin is RefOrigin.ACCESS_RECORD
    assert records[0].source == Source("cloudconfig.csv", "WWW1->DB1")
    assert codes(diags) == ["blank-id"]


def test_parse_access_direction(tmp_path):
    from cryptodep.ingest import MappingProfile

    profile = MappingProfile(
        "access.csv",
        RecordKind.ACCESS,
        {"Asset": Role.ID, "Service": Role.ACCESSES_TARGET, "Access": Role.ACCESS_DIRECTION},
    )
    records, diags = _parse(
        tmp_path,
        "access.csv",
        "Asset,Service,Access\nA,B,read-only\nC,D,sometimes\n",
        profile,
    )
    assert records[0].accesses[0].direction is Direction.READ_ONLY
    assert records[1].accesses[0].direction is Direction.TWO_WAY
    assert codes(diags) == ["invalid-direction"]


def test_parse_crypto_rows(tmp_path):
    records, diags = _parse(
        tmp_path,
        "cryptoinventory.csv",
        "ID,Location,Type,Algorithm,Keysize\n"
        "K1,WWW1,SSL/TLS Certificate,RSA,1024.0\n"
        "K2,WWW1,certificate,,\n"
        "K3,,public key,ECDSA,P-256\n",
    )
    assert [r.id for r in records] == ["K1", "K3"]
    assert records[0].object_type is CryptoObjectType.CERTIFICATE
    assert records[0].config_flags == ("1024",)
    assert records[1].location is None
    assert codes(diags) == ["missing-algorithm"]


def test_parse_crypto_field_applicability(tmp_path):
    from cryptodep.ingest import MappingProfile

    profile = MappingProfile(
        "crypto.csv",
        RecordKind.CRYPTO,
        {
            "ID": Role.ID,
            "Type": Role.OBJECT_TYPE,
            "Algorithm": Role.ALGORITHM,
            "Matched": Role.MATCHED_KEY,
            "Issuer": Role.ISSUER_CERT,
        },
    )
    text = (
        "ID,Type,Algorithm,Matched,Issuer\n"
        "K1,symmetric key,AES,K9,\n"
        "K2,public key,RSA,,K9\n"
        "K3,certificate,RSA,K1,K1\n"
    )
    records, diags = _parse(tmp_path, "crypto.csv", text, profile)
    assert [r.id for r in records] == ["K3"]
    assert codes(diags) == ["field-not-applicable", "field-not-applicable"]


def test_quoted_newline_stays_in_the_cell(tmp_path):
    records, diags = _parse(
        tmp_path,
        "data.csv",
        'ID,Location,Classification\n"Data\n1",S1,High\n,S2,High\n"D3",S3,"Hi,gh"\n',
    )
    assert [(r.id, r.classification) for r in records] == [("Data\n1", "High"), ("D3", "Hi,gh")]
    assert [(d.code, d.line) for d in diags] == [("blank-id", 4)]


def test_rows_spanning_lines_keep_later_line_numbers(tmp_path):
    text = 'ID,Location,Classification\r\n"a\r\nb\r\nc",S1,High\r\n\r\n,S2,High\r\nD4,S4,High\r\n,S5,High\r\n'
    records, diags = _parse(tmp_path, "data.csv", text)
    assert [r.id for r in records] == ["a\r\nb\r\nc", "D4"]
    assert [d.line for d in diags] == [6, 8]


def test_parse_tabular_reports_unmapped_columns(tmp_path):
    records, diags = _parse(
        tmp_path,
        "data.csv",
        "ID,Location,Classification,Comment\nD1,S1,High,hello\n\n",
    )
    assert codes(diags) == ["ignored-column"]
    assert diags[0].line == 1
    assert len(records) == 1  # blank line skipped silently


def test_parse_tabular_requires_header(tmp_path):
    with pytest.raises(IngestError, match="missing header row"):
        parse_tabular("", tmp_path / "data.csv", [builtin_profiles()[1]])


# --------------------------------------------------------------------------
# registry parsing
# --------------------------------------------------------------------------

def test_registry_accepts_json_and_python_literal_forms():
    json_doc = '[{"name": "RSA", "configurations": [{"flags": ["1024"], "security": 80}]}]'
    literal_doc = "[{'name': 'RSA', 'configurations': [{'flags': ['1024'], 'security': 80}]}]"
    a, da = parse_registry_text(json_doc, "a")
    b, db = parse_registry_text(literal_doc, "b")
    assert not da and not db
    assert a.algorithm_names() == b.algorithm_names() == ("RSA",)
    config = a.lookup("RSA", ("1024",))
    assert config is not None
    assert config.rating_for(SecurityRating.bits(80).dimension) == SecurityRating.bits(80)


def test_registry_single_entry_document():
    registry, diags = parse_registry_text(
        '{"name": "AES", "configurations": [{"flags": ["128"]}]}', "r"
    )
    assert registry.lookup("AES", ("128",)) is not None
    assert not diags


def test_registry_rejects_garbage():
    for text in ("][ nope", "{[]: 1}", "[" * 100_000, "-" * 100_000 + "1"):
        with pytest.raises(IngestError):
            parse_registry_text(text, "r")


def test_registry_skips_malformed_parts():
    doc = """[
      {"name": "DES", "configurations": 5},
      {"name": "RSA", "configurations": [
         {"flags": "1024"}, {"flags": ["2048"], "uses": 3},
         {"flags": ["3072"], "security": Infinity},
         {"flags": ["4096"], "source": {"file": {"x": 1}, "ref": "t"}}
      ]}
    ]"""
    registry, diags = parse_registry_text(doc, "r")
    assert codes(diags) == ["registry-entry-invalid"] * 3 + ["unknown-registry-value"]
    assert registry.algorithm_names() == ("RSA",)
    assert registry.lookup("RSA", ("4096",)).source == Source("r", "RSA[4096]")


def test_registry_entry_diagnostics():
    doc = """[
      {"configurations": []},
      {"name": "RSA", "configurations": [
         {"flags": ["1024"], "security": "eighty", "shoesize": 9},
         {"flags": ["1024"], "security": 80},
         "what"
      ]}
    ]"""
    registry, diags = parse_registry_text(doc, "r")
    assert codes(diags) == [
        "registry-entry-invalid",
        "unknown-registry-key",
        "unknown-registry-value",
        "duplicate-config",
        "registry-entry-invalid",
    ]
    # first definition of RSA[1024] wins
    config = registry.lookup("RSA", ("1024",))
    assert config.ratings == ()


def test_registry_vulnerability_class_inference():
    doc = """[
      {"name": "RSA", "configurations": [{"flags": ["2048"]}]},
      {"name": "AES", "configurations": [{"flags": ["128"]}]},
      {"name": "ECDH", "configurations": [{"flags": ["P-256"]}]},
      {"name": "SPHINCS+", "configurations": [{"flags": ["128s"]}]},
      {"name": "HOMEBREW", "configurations": [{"flags": ["1"]}, {"flags": ["2"], "class": "EllipticCurve"}]},
      {"name": "ML-KEM", "configurations": [{"flags": ["768"], "class": "astrology"}]}
    ]"""
    registry, diags = parse_registry_text(doc, "r")
    assert registry.lookup("RSA", ("2048",)).vulnerability_class is VulnerabilityClass.INTEGER_FACTORING
    assert registry.lookup("AES", ("128",)).vulnerability_class is VulnerabilityClass.SYMMETRIC_SEARCH
    assert registry.lookup("ECDH", ("P-256",)).vulnerability_class is VulnerabilityClass.ELLIPTIC_CURVE
    assert registry.lookup("SPHINCS+", ("128s",)).vulnerability_class is VulnerabilityClass.HASH_BASED
    assert registry.lookup("HOMEBREW", ("1",)).vulnerability_class is VulnerabilityClass.UNKNOWN
    assert registry.lookup("HOMEBREW", ("2",)).vulnerability_class is VulnerabilityClass.ELLIPTIC_CURVE
    # explicit but unrecognised class falls back to the family table
    assert registry.lookup("ML-KEM", ("768",)).vulnerability_class is VulnerabilityClass.PQC
    assert codes(diags) == ["unknown-registry-value"]


def test_registry_break_estimate_and_uses():
    doc = """[{"name": "TLS", "configurations": [
        {"flags": ["1.2"], "uses": ["RSA[2048]", "AES[128]", "broken["]},
        {"flags": ["1.3"], "break-qubits": 1e9, "break-time": "a while"},
        {"flags": ["1.1"], "break-qubits": "lots"}
    ]}]"""
    registry, diags = parse_registry_text(doc, "r")
    assert registry.lookup("TLS", ("1.2",)).uses == ("AES[128]", "RSA[2048]")
    # the break estimate keys are accepted; a non-numeric qubit count warns
    assert registry.lookup("TLS", ("1.3",)) is not None
    assert codes(diags) == ["unknown-registry-value", "unknown-registry-value"]
    assert "break-qubits must be numeric" in diags[1].message


def test_default_registry_is_clean_and_rates_the_usual_suspects():
    registry = load_default_registry()
    rsa1024 = registry.lookup("RSA", ("1024",))
    assert rsa1024.rating_for(SecurityRating.approval("approved").dimension).value == "not-approved"
    assert rsa1024.vulnerability_class is VulnerabilityClass.INTEGER_FACTORING
    mlkem = registry.lookup("ML-KEM", ("768",))
    assert mlkem.rating_for(SecurityRating.approval("approved").dimension).value == "approved"
    assert registry.lookup("TLS", ("1.2",)).uses != ()


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def _registry():
    return load_default_registry()


def test_assemble_merges_asset_parts():
    from cryptodep.model import AccessRef

    declared = AssetRecord(
        id="A1", kind=AssetKind.SERVICE, serves=("A2",), source=Source("assets.csv", "A1")
    )
    from_access = AssetRecord(
        id="A1",
        accesses=(AccessRef("A3", source=Source("access.csv", "A1->A3")),),
        source=Source("access.csv", "A1->A3"),
    )
    bundle, diags = assemble_bundle([from_access, declared], _registry())
    merged = bundle.asset_map()["A1"]
    assert merged.kind is AssetKind.SERVICE
    assert merged.serves == ("A2",)
    assert [r.target for r in merged.accesses] == ["A3"]
    assert merged.source == Source("assets.csv", "A1")
    assert not codes(diags, Severity.ERROR)
    # referenced assets materialise
    assert set(bundle.asset_map()) == {"A1", "A2", "A3"}
    assert bundle.asset_map()["A2"].kind is None


def test_assemble_duplicate_ids_resolve_the_same_both_ways():
    a = DataRecord(id="D1", classification="High", source=Source("data.csv", "D1"))
    b = DataRecord(id="D1", classification="Low", source=Source("data.csv", "D1"))
    one, d1 = assemble_bundle([a, b], _registry())
    two, d2 = assemble_bundle([b, a], _registry())
    assert one.data == two.data
    assert codes(d1) == codes(d2) == ["duplicate-id"]


def test_assemble_conflicting_kind():
    recs = [
        AssetRecord(id="A1", kind=AssetKind.CHANNEL, source=Source("x.csv", "A1")),
        AssetRecord(id="A1", kind=AssetKind.SERVICE, source=Source("y.csv", "A1")),
    ]
    bundle, diags = assemble_bundle(recs, _registry())
    assert codes(diags) == ["conflicting-kind"]
    assert bundle.asset_map()["A1"].kind is AssetKind.CHANNEL


def test_assemble_classification_rows_merge_dimensions():
    rows = [
        ClassificationBinding("High", (SecurityRating.approval("approved"),), source=Source("c.csv", "High")),
        ClassificationBinding("High", (SecurityRating.bits(128),), source=Source("c.csv", "High")),
        ClassificationBinding("High", (SecurityRating.approval("not-approved"),), source=Source("c.csv", "High")),
        ClassificationBinding("Low", (SecurityRating.bits(80),), source=Source("c.csv", "Low")),
    ]
    bundle, diags = assemble_bundle(rows, _registry())
    by_label = bundle.classification_map()
    assert by_label["High"].rank == 0 and by_label["Low"].rank == 1
    assert {r.key for r in by_label["High"].required} == {"Approval:approved", "Bits:128"}
    assert codes(diags) == ["conflicting-level"]


def test_assemble_does_not_materialise_typed_reference_targets():
    from cryptodep.model import AccessRef

    recs = [
        DataRecord(id="D1", source=Source("d.csv", "D1")),
        CryptoObjectRecord(id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, source=Source("k.csv", "K1")),
        AssetRecord(
            id="A1",
            accesses=(
                AccessRef("K1", origin=RefOrigin.ASSET_FIELD, source=Source("a.csv", "A1")),
                AccessRef("D1", origin=RefOrigin.ASSET_FIELD, source=Source("a.csv", "A1")),
                AccessRef("RSA[2048]", origin=RefOrigin.ASSET_FIELD, source=Source("a.csv", "A1")),
                AccessRef("A9", origin=RefOrigin.ASSET_FIELD, source=Source("a.csv", "A1")),
            ),
            source=Source("a.csv", "A1"),
        ),
    ]
    bundle, _ = assemble_bundle(recs, _registry())
    # crypto ids, data ids and registry algorithms stay out of the asset map;
    # a plain unresolved name becomes an undeclared asset
    assert set(bundle.asset_map()) == {"A1", "A9"}


def test_bundle_is_sorted_and_order_independent():
    rng = random.Random(4)
    records = inventory_gen.random_records(rng)
    # classification order is meaningful (it is the sensitivity ranking), so
    # only the other records may be reordered freely
    bindings = [r for r in records if isinstance(r, ClassificationBinding)]
    rest = [r for r in records if not isinstance(r, ClassificationBinding)]
    random.Random(5).shuffle(rest)
    one, _ = assemble_bundle(records, _registry())
    two, _ = assemble_bundle(bindings + rest, _registry())
    assert one == two
    assert [d.id for d in one.data] == sorted(d.id for d in one.data)
    assert [a.id for a in one.assets] == sorted(a.id for a in one.assets)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_reports_each_cross_reference_problem():
    recs = [
        ClassificationBinding("High", (SecurityRating.bits(128),), source=Source("c.csv", "High")),
        ClassificationBinding("K1", (SecurityRating.bits(8),), source=Source("c.csv", "K1")),
        DataRecord(id="D1", classification="Mystery", storage_locations=("Ghost",), source=Source("d.csv", "D1")),
        DataRecord(id="Twin", source=Source("d.csv", "Twin")),
        AssetRecord(id="Twin", source=Source("a.csv", "Twin")),
        CryptoObjectRecord(
            id="K1",
            object_type=CryptoObjectType.PUBLIC_KEY,
            location="Nowhere",
            matched_key="K9",
            created_by="NoProc",
            algorithm="FOO",
            source=Source("k.csv", "K1"),
        ),
        CryptoObjectRecord(
            id="K2",
            object_type=CryptoObjectType.CERTIFICATE,
            algorithm="RSA",
            config_flags=("1024",),
            issuer_cert="K9",
            source=Source("k.csv", "K2"),
        ),
    ]
    bundle, _ = assemble_bundle(recs, _registry())
    diags = validate_bundle(bundle)
    got = sorted(codes(diags))
    assert got == sorted(
        [
            "namespace-collision",   # Twin is both data and asset
            "label-collision",       # classification K1 vs crypto K1
            "unknown-classification",
            "dangling-reference",    # D1 -> Ghost
            "dangling-reference",    # K1 -> Nowhere
            "dangling-reference",    # K1 matched K9
            "dangling-reference",    # K1 created by NoProc
            "dangling-reference",    # K2 issuer K9
            "unknown-algorithm",     # FOO is unrated
        ]
    )


def test_validate_accepts_self_signed_certificates():
    recs = [
        CryptoObjectRecord(
            id="RootCA",
            object_type=CryptoObjectType.CA_CERTIFICATE,
            algorithm="RSA",
            config_flags=("2048",),
            issuer_cert="RootCA",
            source=Source("k.csv", "RootCA"),
        ),
    ]
    bundle, _ = assemble_bundle(recs, _registry())
    assert codes(validate_bundle(bundle), Severity.ERROR) == []


def test_validate_clean_fixture(cloud_minimal_bundle):
    assert validate_bundle(cloud_minimal_bundle) == []


# --------------------------------------------------------------------------
# reading input files
# --------------------------------------------------------------------------

def test_digest_helpers(tmp_path):
    assert text_digest("abc") == hashlib.sha256(b"abc").hexdigest()
    raw = b"\xef\xbb\xbfID,Location\r\nD1,S1\r\n"
    path = tmp_path / "x.csv"
    path.write_bytes(raw)
    assert read_input(path, "inventory") == ("ID,Location\r\nD1,S1\r\n", hashlib.sha256(raw).hexdigest())
    assert file_digest(raw) == hashlib.sha256(raw).hexdigest()


def test_bom_and_crlf_inventories_load_like_plain_ones(tmp_path):
    for variant in ("lf", "bom", "crlf"):
        (tmp_path / variant).mkdir()
        for name in HYBRID_FILES:
            raw = (HYBRID / name).read_bytes()
            raw = {"lf": raw, "bom": b"\xef\xbb\xbf" + raw, "crlf": raw.replace(b"\n", b"\r\n")}[variant]
            (tmp_path / variant / name).write_bytes(raw)
    profiles = parse_profiles(HYBRID / "profiles.json")
    loaded = {
        variant: load_bundle(
            [tmp_path / variant / f for f in HYBRID_FILES], profiles=profiles, registry=_registry()
        )
        for variant in ("lf", "bom", "crlf")
    }
    assert loaded["bom"] == loaded["crlf"] == loaded["lf"]
    for variant, (bundle, _) in loaded.items():
        assert bundle.input_digests == {
            str(tmp_path / variant / f): hashlib.sha256((tmp_path / variant / f).read_bytes()).hexdigest()
            for f in HYBRID_FILES
        }


# --------------------------------------------------------------------------
# round trip through the parsed records
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_bundle_round_trip(seed):
    bundle, records, _ = inventory_gen.random_bundle(random.Random(seed))
    assert bundle.records == tuple(records)
    clone, _ = assemble_bundle(bundle.records, bundle.registry)
    assert clone == bundle
    assert clone.records == bundle.records


def test_load_bundle_applies_profiles_per_file(cloud_minimal_bundle):
    bundle = cloud_minimal_bundle
    assert [c.label for c in bundle.classifications] == ["High"]
    assert [d.id for d in bundle.data] == ["Data1"]
    assert set(bundle.asset_map()) == {"DB1", "WWW1"}
    assert [c.id for c in bundle.crypto_objects] == ["certkey1"]
    assert bundle.crypto_objects[0].object_type is CryptoObjectType.PRIVATE_KEY


def test_load_bundle_requires_a_profile(tmp_path):
    path = tmp_path / "mystery.csv"
    path.write_text("A,B\n1,2\n")
    with pytest.raises(IngestError):
        load_bundle([path], profiles=[], registry=_registry())
