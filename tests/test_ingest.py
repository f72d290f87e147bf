from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from cryptodep import (
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    Direction,
    IngestError,
    InventoryBundle,
    MappingProfile,
    SecurityRating,
    Source,
    VulnerabilityClass,
    assemble_bundle,
    build_graph,
    builtin_profiles,
    load_bundle,
    load_default_registry,
    validate_bundle,
)
from cryptodep.ingest import (
    _KINDS,
    RecordKind,
    Role,
    file_digest,
    match_profile,
    parse_profiles,
    parse_tabular,
    read_input,
    text_digest,
)
import cryptodep.registry as registry_module
from cryptodep.registry import parse_registry_text
from cryptodep.model import APPROVED, QUANTUM_VULNERABLE, RefOrigin, Severity

import inventory_gen
from oracle import assemble_oracle
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
        '[{"inventory": "x.csv", "kind": "data", "columns": {"ID": "id"}, "defaults": {"name": ["High"]}}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": {"ID": "id"}, "defaults": {"retention_years": null}}]',
        '[{"inventory": "x.csv", "kind": "data", "columns": {"ID": "id"}, "defaults": {"name": true}}]',
        '[{"inventory": ["x.csv"], "kind": "data", "columns": {"ID": "id"}}]',
        '[{"inventory": null, "kind": "data", "columns": {"ID": "id"}}]',
    ],
)
def test_parse_profiles_rejects_bad_documents(tmp_path, doc):
    path = tmp_path / "profiles.json"
    path.write_text(doc)
    with pytest.raises(IngestError):
        parse_profiles(path)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "data", "columns": {"ID": "id"}, "defaults": {"colour": "red"}},
         "unknown role 'colour' in defaults"),
        ({"kind": "access", "columns": {"Asset": "id"}},
         "access profile does not assign the accesses_target role"),
        ({"kind": "classification", "columns": {"Classification": "classification"}},
         "classification profile does not assign the security_level role"),
        ({"kind": "classification", "columns": {"Security": "security_level"}},
         "classification profile does not assign the classification role"),
        ({"kind": "crypto", "columns": {"ID": "id", "Algorithm": "algorithm"}},
         "crypto profile does not assign the object_type role"),
        ({"kind": "data", "columns": {"ID": "id", "Owner": "created_by", "Notes": "ignore"}},
         "data records do not read the role 'created_by'"),
        ({"kind": "access", "columns": {"Asset": "id", "Service": "accesses_target"}, "defaults": {"name": "x"}},
         "access records do not read the role 'name'"),
        ({"kind": "classification", "columns": {"ID": "id", "Class": "classification", "Level": "security_level"}},
         "classification records do not read the role 'id'"),
    ],
    ids=["unknown-default-role", "access-without-target", "classification-without-level",
         "classification-without-label", "crypto-without-object-type", "column-role-not-read",
         "default-role-not-read", "id-not-read"],
)
def test_profile_role_errors_name_the_profile(tmp_path, entry, message):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([{"inventory": "x.csv", **entry}]))
    with pytest.raises(IngestError) as info:
        parse_profiles(path)
    assert str(info.value) == f"{path}: profile #1: {message}"


def test_the_readme_tables_list_what_each_record_kind_reads():
    """The README's kind/role table and ``add_records`` table list, in order,
    the roles and fields ``_KINDS`` gives each kind, the required ones in bold."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def table(start: str, end: str, row: str) -> dict:
        section = readme[readme.index(start):readme.index(end)]
        return {
            kind: [(bold == "**", name) for bold, name in re.findall(r"(\*\*)?`(\w+)`", cell)]
            for kind, cell in re.findall(row, section, re.MULTILINE)
        }

    roles = table("### Inventory CSVs", "### Algorithm registry", r"^\| `(\w+)` \| ([^|]+) \|$")
    assert roles == {
        kind.value: [(role in required, role.value) for role in fields]
        for kind, (_, required, fields) in _KINDS.items()
    }
    fields = table("### Overlays", "### Scoring policy", r"^\| `(\w+)` \| ([^|]*`[^|]*) \|[^|]*\|$")
    assert fields == {
        kind.value: [(role in required, field) for role, field in fields.items() if field]
        for kind, (_, required, fields) in _KINDS.items()
        if any(fields.values())
    }


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


def test_a_repeated_scalar_column_reads_its_first_non_empty_cell(tmp_path):
    records, diags = _parse(tmp_path, "data.csv", "ID,Location,ID\nD1,S1,D9\n,S2,D2\n-,S3,\n")
    assert [(r.id, r.storage_locations) for r in records] == [("D1", ("S1",)), ("D2", ("S2",))]
    assert codes(diags) == ["blank-id"]


def test_parse_data_retention(tmp_path):
    from cryptodep.ingest import MappingProfile

    profile = MappingProfile(
        "d.csv",
        RecordKind.DATA,
        {"ID": Role.ID, "Keep": Role.RETENTION_YEARS},
    )
    records, diags = _parse(
        tmp_path, "d.csv", "ID,Keep\nD1,7\nD2,\nD3,soon\nD4,-3\nD5,nan\nD6,inf\n", profile
    )
    assert [(r.id, r.retention_years) for r in records] == [("D1", 7.0), ("D2", None), ("D6", float("inf"))]
    assert codes(diags) == ["bad-retention", "bad-retention", "bad-retention"]
    assert diags[-1].message == "retention for 'D5' must be a non-negative number, got 'nan'"


def test_profile_defaults_may_be_numbers(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text('[{"inventory": "x.csv", "kind": "data", "columns": {"ID": "id"}, "defaults": {"name": 7}}]')
    assert parse_profiles(path)[0].defaults == {Role.NAME: "7"}


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


@pytest.mark.parametrize(
    "spelling,object_type",
    [
        ("SymmetricKey", CryptoObjectType.SYMMETRIC_KEY),
        ("PrivateKey", CryptoObjectType.PRIVATE_KEY),
        ("PublicKey", CryptoObjectType.PUBLIC_KEY),
        ("CACertificate", CryptoObjectType.CA_CERTIFICATE),
        ("cacertificate", CryptoObjectType.CA_CERTIFICATE),
    ],
)
def test_crypto_type_column_takes_the_overlay_spellings(tmp_path, spelling, object_type):
    records, diags = _parse(
        tmp_path, "cryptoinventory.csv", f"ID,Location,Type,Algorithm,Keysize\nK1,WWW1,{spelling},RSA,2048\n"
    )
    assert diags == []
    assert records[0].object_type is object_type


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


def test_assembly_reports_a_field_a_record_built_in_code_carries_for_no_rule():
    """The row reader rejects these rows; a record built in code keeps its
    other fields, and assembly names each field the build gives no edge."""
    source = Source("k.csv", "r")
    records = [
        CryptoObjectRecord(
            id="S1", object_type=CryptoObjectType.SYMMETRIC_KEY, matched_key="P1", issuer_cert="C1", source=source
        ),
        CryptoObjectRecord(
            id="P1", object_type=CryptoObjectType.PUBLIC_KEY, matched_key="S1", issuer_cert="C1", source=source
        ),
        CryptoObjectRecord(
            id="C1", object_type=CryptoObjectType.CERTIFICATE, matched_key="P1", issuer_cert="C1", source=source
        ),
    ]
    bundle, diags = assemble_bundle(records, _registry())
    assert [d.render() for d in diags] == [
        "error: k.csv: field-not-applicable: matched_key is only valid for public keys and certificates, found on 'S1'",
        "error: k.csv: field-not-applicable: issuer_cert is only valid for certificates, found on 'S1'",
        "error: k.csv: field-not-applicable: issuer_cert is only valid for certificates, found on 'P1'",
        "error: k.csv: missing-algorithm: certificate 'C1' must name its signature algorithm",
    ]
    assert [r.id for r in bundle.crypto_objects] == ["C1", "P1", "S1"]


@pytest.mark.parametrize("object_type", [CryptoObjectType.CERTIFICATE, CryptoObjectType.CA_CERTIFICATE])
def test_assembly_reports_a_certificate_built_in_code_without_a_signature_algorithm(object_type):
    """The row reader rejects such a row; the record built in code keeps its
    holder's edge, and assembly says that its K6 edge is missing."""
    record = CryptoObjectRecord(id="C1", object_type=object_type, location="H", source=Source("k.csv", "C1"))
    bundle, diags = assemble_bundle([record], _registry())
    assert [d.render() for d in diags] == [
        "error: k.csv: missing-algorithm: certificate 'C1' must name its signature algorithm",
    ]
    assert bundle.crypto_objects == (record,)


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
    assert list(a.algorithms) == list(b.algorithms) == ["RSA"]
    config = a.lookup("RSA", ("1024",))
    assert config is not None
    assert config.ratings == (SecurityRating.bits(80),)


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
    assert list(registry.algorithms) == ["RSA"]
    assert registry.lookup("RSA", ("4096",)).source == Source("r", "RSA[4096]")


def test_registry_names_and_flags_are_not_stringified():
    doc = """[
      {"name": ["RSA"], "configurations": [{"flags": ["1"], "security": 80}]},
      {"name": 7, "configurations": []},
      {"name": "RSA", "configurations": [
         {"flags": [[1]], "security": 80}, {"flags": [1024]},
         {"flags": ["2048"], "security": 112, "uses": [3, "AES[128]"]}
      ]}
    ]"""
    registry, diags = parse_registry_text(doc, "r")
    assert codes(diags) == ["registry-entry-invalid"] * 4 + ["unknown-registry-value"]
    assert "cannot parse member primitive 3" in diags[-1].message
    assert list(registry.algorithms) == ["RSA"]
    [config] = registry.algorithms["RSA"]
    assert (config.flags, config.uses) == (("2048",), ("AES[128]",))


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


def test_registry_reads_each_level_key_in_its_own_dimension_only():
    doc = """[{"name": "RSA", "configurations": [
        {"flags": ["1024"], "security": 80, "NIST-approval": "112", "quantum-safety": "NIST-approved"},
        {"flags": ["2048"], "NIST-approval": "approved", "quantum-safety": "Not-Quantum-Safe"}
    ]}]"""
    registry, diags = parse_registry_text(doc, "r")
    assert registry.lookup("RSA", ("1024",)).ratings == (SecurityRating.bits(80),)
    assert [(d.code, d.message) for d in diags] == [
        ("unknown-registry-value", "RSA[1024]: cannot interpret NIST-approval value '112'"),
        ("unknown-registry-value", "RSA[1024]: cannot interpret quantum-safety value 'NIST-approved'"),
    ]
    assert registry.lookup("RSA", ("2048",)).ratings == (
        SecurityRating.approval(APPROVED), SecurityRating.quantum(QUANTUM_VULNERABLE)
    )


def test_an_inconsistent_builtin_registry_is_an_ingest_error(monkeypatch):
    monkeypatch.setattr(
        registry_module, "default_registry_text",
        lambda: '[{"name": "RSA", "configurations": [{"flags": ["1024"], "security": "eighty"}]}]',
    )
    with pytest.raises(IngestError, match="built-in registry is inconsistent: warning: default_registry.json: "
                                          "unknown-registry-value: RSA.1024.: security must be"):
        registry_module.load_default_registry()


def test_default_registry_is_clean_and_rates_the_usual_suspects():
    registry = load_default_registry()
    rsa1024 = registry.lookup("RSA", ("1024",))
    assert SecurityRating.approval("not-approved") in rsa1024.ratings
    assert rsa1024.vulnerability_class is VulnerabilityClass.INTEGER_FACTORING
    mlkem = registry.lookup("ML-KEM", ("768",))
    assert SecurityRating.approval("approved") in mlkem.ratings
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
    merged = bundle.asset_map["A1"]
    assert merged.kind is AssetKind.SERVICE
    assert merged.serves == ("A2",)
    assert [r.target for r in merged.accesses] == ["A3"]
    assert merged.source == Source("assets.csv", "A1")
    assert not codes(diags, Severity.ERROR)
    # referenced assets materialise
    assert set(bundle.asset_map) == {"A1", "A2", "A3"}
    assert bundle.asset_map["A2"].kind is None


def test_assemble_duplicate_ids_resolve_the_same_both_ways():
    a = DataRecord(id="D1", classification="High", source=Source("data.csv", "D1"))
    b = DataRecord(id="D1", classification="Low", source=Source("data.csv", "D1"))
    one, d1 = assemble_bundle([a, b], _registry())
    two, d2 = assemble_bundle([b, a], _registry())
    assert one.data == two.data
    assert codes(d1) == codes(d2) == ["duplicate-id"]


def test_an_identical_repeated_row_is_kept_once_without_a_duplicate_id():
    data = DataRecord(id="D1", classification="High", source=Source("data.csv", "D1"))
    key = CryptoObjectRecord(id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, source=Source("k.csv", "K1"))
    again = [DataRecord(id="D1", classification="High", source=Source("data.csv", "D1")),
             CryptoObjectRecord(id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, source=Source("k.csv", "K1"))]
    bundle, diags = assemble_bundle([data, key, *again], _registry())
    assert (bundle.data, bundle.crypto_objects) == ((data,), (key,))
    assert "duplicate-id" not in codes(diags)


def test_assemble_conflicting_kind():
    # a.csv only serves A1 and 0.csv only names it: the error names the
    # first file among the rows that declare a kind
    recs = [
        AssetRecord(id="A1", kind=AssetKind.CHANNEL, source=Source("x.csv", "A1")),
        AssetRecord(id="A1", kind=AssetKind.SERVICE, source=Source("y.csv", "A1")),
        AssetRecord(id="B", serves=("A1",), source=Source("a.csv", "B")),
        AssetRecord(id="A1", source=Source("0.csv", "A1")),
    ]
    for order in (recs, recs[::-1]):
        bundle, diags = assemble_bundle(order, _registry())
        assert [d.render() for d in diags] == [
            "error: x.csv: conflicting-kind: asset 'A1' is declared with kinds Channel, Service; keeping Channel"
        ]
        assert bundle.asset_map["A1"].kind is AssetKind.CHANNEL


def test_assemble_classification_rows_merge_dimensions():
    rows = [
        ClassificationBinding("High", (SecurityRating.approval("approved"),), source=Source("c.csv", "High")),
        ClassificationBinding("High", (SecurityRating.bits(128),), source=Source("c.csv", "High")),
        ClassificationBinding("High", (SecurityRating.approval("not-approved"),), source=Source("c.csv", "High")),
        ClassificationBinding("Low", (SecurityRating.bits(80),), source=Source("c.csv", "Low")),
    ]
    bundle, diags = assemble_bundle(rows, _registry())
    by_label = bundle.classification_map
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
    assert set(bundle.asset_map) == {"A1", "A9"}


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


def _more_asset_rows(rng: random.Random, records: list) -> list:
    """Asset rows that give assembly more to merge: rows that only name an
    id, rows that declare an id again (often with another kind), serves and
    access rows, each from a file that sorts before, among or after the
    generator's files."""
    ids = sorted({r.id for r in records if isinstance(r, AssetRecord)}) + ["X1", "KMS", "Z9"]
    rows = []
    for _ in range(rng.randint(1, 6)):
        ident = rng.choice(ids)
        source = Source(rng.choice(["0.csv", "assets.csv", "zz.csv"]), rng.choice([ident, "r1", "r0"]))
        shape = rng.choice(["id-only", "declare", "serves", "access"])
        if shape == "id-only":
            rows.append(AssetRecord(id=ident, source=source))
        elif shape == "declare":
            kind = rng.choice(list(AssetKind))
            rows.append(AssetRecord(id=ident, kind=kind, name=rng.choice([None, "N", "M"]), source=source))
        elif shape == "serves":
            rows.append(AssetRecord(id=ident, serves=tuple(rng.sample(ids, 2)), source=source))
        else:
            target = rng.choice(ids + ["K0", "D0", "RSA[2048]"])
            ref = AccessRef(target, Direction.TWO_WAY, RefOrigin.ACCESS_RECORD, source)
            rows.append(AssetRecord(id=ident, accesses=(ref,), source=source))
    return rows


def test_assembly_matches_the_stub_oracle():
    registry = _registry()
    seen = dict.fromkeys(["referenced-only", "id-only", "serves", "access-record", "conflicting-kind"], 0)
    for seed in range(150):
        rng = random.Random(seed)
        records = inventory_gen.random_records(
            rng, n_data=rng.randint(1, 5), n_assets=rng.randint(2, 8), n_crypto=rng.randint(1, 5)
        )
        records += _more_asset_rows(rng, records)
        rng.shuffle(records)
        bundle, diags = assemble_bundle(records, registry)
        expected, expected_diags = assemble_oracle(records, registry)
        assert bundle == expected, seed  # an asset's equality takes in its source
        assert diags == expected_diags, seed

        rows = [r for r in records if isinstance(r, AssetRecord)]
        declared = {r.id for r in rows}
        seen["referenced-only"] += sum(a.id not in declared for a in bundle.assets)
        seen["id-only"] += sum(not (r.kind or r.name or r.serves or r.accesses) for r in rows)
        seen["serves"] += sum(len(r.serves) for r in rows)
        seen["access-record"] += sum(ref.origin is RefOrigin.ACCESS_RECORD for r in rows for ref in r.accesses)
        seen["conflicting-kind"] += codes(diags).count("conflicting-kind")
    assert min(seen.values()) >= 20, seen


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
            "namespace-collision",   # classification K1 vs crypto K1
            "unknown-classification",
            "dangling-reference",    # D1 -> Ghost
            "dangling-reference",    # K1 -> Nowhere
            "dangling-reference",    # K1 matched K9
            "dangling-reference",    # K1 created by NoProc
            "dangling-reference",    # K2 issuer K9
            "unknown-algorithm",     # FOO is unrated
        ]
    )


def test_a_cell_naming_nothing_in_a_bundle_built_in_code_dangles_and_builds_as_assembly_would():
    """Assembly makes a reference cell that names no record or algorithm an
    undeclared asset; a bundle built without it still validates and builds."""
    asset = AssetRecord(
        id="A", source=Source("a.csv", "A"),
        accesses=(AccessRef("Ghost", Direction.TWO_WAY, RefOrigin.ASSET_FIELD, Source("a.csv", "A")),),
    )
    registry = load_default_registry()
    bundle = InventoryBundle(assets=(asset,), registry=registry)
    assert [d.render() for d in validate_bundle(bundle)] == [
        "error: a.csv: dangling-reference: asset 'A' references 'Ghost' "
        "but no such record or algorithm exists"
    ]
    assembled, diags = assemble_bundle([asset], registry)
    assert diags == [] and validate_bundle(assembled) == []
    graph = build_graph(bundle)
    assert graph == build_graph(assembled)
    assert [edge[:3] for edge in graph.edges] == [("A", "Ghost", "AC1"), ("Ghost", "A", "AC1")]


@pytest.mark.parametrize("access_record", [False, True])
def test_an_asset_target_naming_a_record_collides_in_a_bundle_built_in_code_as_once_assembled(access_record):
    """Assembly declares every serves and access-record target an asset, so
    one naming a crypto or data record collides with it; a bundle built
    without assembly gets the same single line, and an assembled one no
    second copy."""
    if access_record:
        asset = AssetRecord(id="A", accesses=(AccessRef("D1"),))
        other, what = DataRecord(id="D1", storage_locations=("A",)), "'D1' appears in both data/asset"
    else:
        asset = AssetRecord(id="A", serves=("K1",))
        other = CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.PRIVATE_KEY, algorithm="RSA", config_flags=("2048",)
        )
        what = "'K1' appears in both asset/crypto"
    registry = load_default_registry()
    expected = [f"error: <bundle>: namespace-collision: identifier {what} inventories"]
    assembled, _ = assemble_bundle([asset, other], registry)
    assert [d.render() for d in validate_bundle(assembled)] == expected
    records = {"crypto_objects" if isinstance(other, CryptoObjectRecord) else "data": (other,)}
    bundle = InventoryBundle(assets=(asset,), registry=registry, **records)
    assert [d.render() for d in validate_bundle(bundle)] == expected


def test_validate_reports_ids_spelled_like_the_levels_and_configurations_the_build_makes():
    """The build gives a vertex id to the first record that claims it, so a
    record or label spelled like a level or configuration vertex would take
    that vertex over."""
    recs = [
        ClassificationBinding("High", (SecurityRating.bits(128),), source=Source("c.csv", "High")),
        ClassificationBinding("Bits:128", (SecurityRating.bits(128),), source=Source("c.csv", "Bits:128")),
        DataRecord(id="Bits:80", source=Source("d.csv", "Bits:80")),  # RSA[1024]'s registry rating
        # the registry rates RSA[1024] quantum-vulnerable, but nothing requires that dimension
        DataRecord(id="QuantumSafety:quantum-vulnerable", source=Source("d.csv", "Q")),
        AssetRecord(id="RSA[2048]", source=Source("a.csv", "RSA[2048]")),  # rated, used by no record
        AssetRecord(id="FOO[1]", source=Source("a.csv", "FOO[1]")),  # unrated, named by K1
        CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, algorithm="FOO", config_flags=("1",),
            source=Source("k.csv", "K1"),
        ),
    ]
    bundle, _ = assemble_bundle(recs, _registry())
    collisions = [d.message for d in validate_bundle(bundle) if d.code == "namespace-collision"]
    assert collisions == [
        f"identifier {ident!r} is also a level or configuration"
        for ident in ("Bits:128", "Bits:80", "FOO[1]", "RSA[2048]")
    ]


@pytest.mark.parametrize("cell, collides", [("RSA[999.0]", True), ("RSA[999]", False)])
def test_a_cell_spelling_a_configuration_like_a_record_id_is_a_namespace_collision(cell, collides):
    """``RSA[999.0]`` names no record, so the build reads it as an algorithm
    and its configuration vertex ``RSA[999]`` is the data record's; spelled
    exactly, the cell names the record."""
    recs = [
        DataRecord(id="RSA[999]", source=Source("d.csv", "RSA[999]")),
        AssetRecord(
            id="P1", kind=AssetKind.PROCESS, source=Source("a.csv", "P1"),
            accesses=(AccessRef(cell, Direction.TWO_WAY, RefOrigin.ASSET_FIELD, Source("a.csv", "P1")),),
        ),
    ]
    bundle, diags = assemble_bundle(recs, _registry())
    assert diags == []
    assert [(d.code, d.message) for d in validate_bundle(bundle) if d.severity is Severity.ERROR] == [
        ("namespace-collision", "identifier 'RSA[999]' is also a level or configuration"),
    ][:collides]


def test_validate_reports_an_id_spelled_like_an_unrated_protocol_member():
    registry, diags = parse_registry_text(
        '[{"name": "TLS", "configurations": [{"flags": ["1.2"], "uses": ["FOO[9]"]}]}]', "r.json"
    )
    assert not diags
    recs = [
        ClassificationBinding("High", (SecurityRating.bits(128),), source=Source("c.csv", "High")),
        AssetRecord(id="FOO[9]", source=Source("a.csv", "FOO[9]")),  # would take TLS[1.2]'s P2 edge
    ]
    bundle, _ = assemble_bundle(recs, registry)
    assert [(d.code, d.message) for d in validate_bundle(bundle) if d.severity is Severity.ERROR] == [
        ("namespace-collision", "identifier 'FOO[9]' is also a level or configuration"),
    ]


@pytest.mark.parametrize(
    "asset_kind, vertex_kind",
    [(AssetKind.PROCESSOR, None), (AssetKind.SERVICE, None), (None, None),
     (AssetKind.CHANNEL, "Channel"), (AssetKind.PROCESS, "Process"), (AssetKind.SOFTWARE, "Process")],
)
def test_validate_warns_of_a_certificate_location_that_gives_no_edge(asset_kind, vertex_kind):
    """Only a processor holding a plain certificate gives it an edge; keys
    and CA certificates rely on wherever they are located."""
    records = [AssetRecord(id="Holder", kind=asset_kind, source=Source("a.csv", "Holder"))] + [
        CryptoObjectRecord(id=object_type.value, object_type=object_type, location="Holder", source=Source("k.csv", "r"))
        for object_type in CryptoObjectType
    ]
    bundle, _ = assemble_bundle(records, _registry())
    expected = [] if vertex_kind is None else [
        f"warning: k.csv: location-unused: crypto object 'Certificate' names location 'Holder', "
        f"a {vertex_kind}, but only a processor gives a Certificate an edge"
    ]
    assert [d.render() for d in validate_bundle(bundle)] == expected


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


@pytest.mark.parametrize("size", [0, 55, 56, 63, 64, 65, 1 << 20])
def test_digests_match_hashlib_across_block_boundaries(size):
    # SHA-256 pads in 64-byte blocks; 55 and 56 bytes straddle the length field
    data = bytes(i * 7 % 256 for i in range(size))
    assert file_digest(data) == hashlib.sha256(data).hexdigest()
    text = ("ü→数" * size)[:size]
    assert text_digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    assert set(bundle.asset_map) == {"DB1", "WWW1"}
    assert [c.id for c in bundle.crypto_objects] == ["certkey1"]
    assert bundle.crypto_objects[0].object_type is CryptoObjectType.PRIVATE_KEY


def test_load_bundle_requires_a_profile(tmp_path):
    path = tmp_path / "mystery.csv"
    path.write_text("A,B\n1,2\n")
    with pytest.raises(IngestError):
        load_bundle([path], profiles=[], registry=_registry())


# --------------------------------------------------------------------------
# one string object per distinct value
# --------------------------------------------------------------------------

def _record_strings(record) -> list[str]:
    """The strings a record takes from its cells (not its Source)."""
    if isinstance(record, ClassificationBinding):
        return [record.label]
    if isinstance(record, DataRecord):
        return [record.id, *record.storage_locations, record.classification, record.name]
    if isinstance(record, AssetRecord):
        return [record.id, *record.serves, *(ref.target for ref in record.accesses), record.name]
    return [
        record.id, record.location, *record.key_locations, record.algorithm, *record.config_flags,
        record.matched_key, record.issuer_cert, record.created_by, record.name,
    ]


def test_load_bundle_keeps_one_object_per_distinct_value(tmp_path):
    tables = inventory_gen.make_tables(random.Random(5), n_classes=3, n_data=40, n_assets=30, n_crypto=40)
    paths = inventory_gen.write_tables(tmp_path, tables)
    bundle, _ = load_bundle(
        paths, parse_profiles(tmp_path / "profiles.json"), _registry(), use_builtin_profiles=True
    )
    assets = bundle.asset_map
    references = [
        *(location for record in bundle.data for location in record.storage_locations),
        *(location for record in bundle.crypto_objects for location in (record.location, *record.key_locations)),
        *(target for record in bundle.assets for target in record.serves),
        *(ref.target for record in bundle.assets for ref in record.accesses),
    ]
    named = [ref for ref in references if ref in assets]
    assert len(named) > 100
    assert all(ref is assets[ref].id for ref in named)

    strings = [
        value
        for record in (*bundle.records, *bundle.data, *bundle.assets, *bundle.crypto_objects, *bundle.classifications)
        for value in _record_strings(record)
        if value is not None
    ]
    assert len(strings) > 3 * len(set(strings))
    assert len({id(value) for value in strings}) == len(set(strings))


def test_parse_tabular_shares_equal_values_within_a_file_and_a_given_table(tmp_path):
    # one member cell, a split one and two columns of one role all share
    profile = MappingProfile("data.csv", RecordKind.DATA, {
        "ID": Role.ID, "Location": Role.STORAGE_LOCATION, "Backup": Role.STORAGE_LOCATION,
        "Classification": Role.CLASSIFICATION,
    })
    path = tmp_path / "data.csv"
    path.write_text("ID,Location,Backup,Classification\nD1,S1,,High\nD2,S2;S1,-,High\nD3, S2 ,S1,High\n")
    records, _ = parse_tabular(path.read_text(), path, [profile])
    assert [r.storage_locations for r in records] == [("S1",), ("S2", "S1"), ("S2", "S1")]
    s1, s2 = records[0].storage_locations[0], records[1].storage_locations[0]
    assert records[1].storage_locations[1] is s1
    assert records[2].storage_locations[0] is s2 and records[2].storage_locations[1] is s1
    assert records[0].classification is records[1].classification is records[2].classification

    # the builtin profile's one Location column, whose cells may be split
    path.write_text("ID,Location,Classification\nD1,S2,High\nD2,S1;S2,High\n")
    strings: dict[str, str] = {}
    first, _ = parse_tabular(path.read_text(), path, [], use_builtin_profiles=True, strings=strings)
    assert first[1].storage_locations == ("S1", "S2")
    assert first[1].storage_locations[1] is first[0].storage_locations[0]
    other = tmp_path / "more" / "data.csv"
    other.parent.mkdir()
    other.write_text("ID,Location,Classification\nD9,S1,High\n")
    second, _ = parse_tabular(other.read_text(), other, [], use_builtin_profiles=True, strings=strings)
    assert second[0].storage_locations[0] is first[1].storage_locations[0]
    assert second[0].classification is first[0].classification
    assert strings["High"] is first[0].classification


def test_load_bundle_keeps_one_tuple_per_distinct_member_list(tmp_path):
    # single-member cells, split cells and ".0" key sizes, across rows,
    # fields and files
    files = {
        "data.csv": "ID,Location,Classification\nD1,S1,High\nD2,S1,High\nD3,S1;S2,High\nD4, S1 ; S2 ,High\n",
        "assets.csv": "ID,Kind,Serves\nS1,processor,S2\nS3,processor,S2\nS4,processor,S1;S2\nS5,processor,S1;S2\n",
        "crypto.csv": "ID,Type,Algorithm,Size,KeyLocation\n"
        "K1,symmetric,AES,256,S1\nK2,symmetric,AES,256.0,S1\nK3,symmetric,AES,256,S1;S2\n",
    }
    profiles = [
        MappingProfile("data.csv", RecordKind.DATA, {
            "ID": Role.ID, "Location": Role.STORAGE_LOCATION, "Classification": Role.CLASSIFICATION,
        }),
        MappingProfile("assets.csv", RecordKind.ASSET, {
            "ID": Role.ID, "Kind": Role.OBJECT_TYPE, "Serves": Role.SERVES,
        }),
        MappingProfile("crypto.csv", RecordKind.CRYPTO, {
            "ID": Role.ID, "Type": Role.OBJECT_TYPE, "Algorithm": Role.ALGORITHM,
            "Size": Role.CONFIG_FLAG, "KeyLocation": Role.STORAGE_LOCATION,
        }),
    ]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    bundle, _ = load_bundle([tmp_path / name for name in files], profiles, _registry())
    fields = ("storage_locations", "serves", "key_locations", "config_flags")
    tuples = [value for record in bundle.records for value in (getattr(record, name, ()) for name in fields) if value]
    assert sorted(set(tuples)) == [("256",), ("S1",), ("S1", "S2"), ("S2",)]
    assert len(tuples) == 14
    assert len({id(value) for value in tuples}) == 4
