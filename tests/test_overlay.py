"""Overlays against their oracle: the same edit made by hand to the parsed
records and assembled with ``assemble_bundle``."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from cryptodep import (
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    Overlay,
    SecurityRating,
    Severity,
    Source,
    apply_overlay,
    assemble_bundle,
    build_graph,
    find_violations,
    load_default_registry,
)
from cryptodep.ingest import _ASSET_KIND_ALIASES, MappingProfile, RecordKind, Role, parse_tabular
from cryptodep.model import RefOrigin, parse_primitive_spec, primitive_key

import inventory_gen

REPLACEMENT_TARGETS = [inventory_gen._spec(pair) for pair in inventory_gen.ALGORITHMS]


def _source(source: Source) -> dict:
    return {"file": source.file, "ref": source.ref}


def _entry(record) -> dict:
    """The ``add_records`` entry that stands for ``record``."""
    if isinstance(record, ClassificationBinding):
        return {
            "record_kind": "classification", "label": record.label,
            "required": [r.to_dict() for r in record.required], "source": _source(record.source),
        }
    if isinstance(record, DataRecord):
        return {
            "record_kind": "data", "id": record.id, "classification": record.classification,
            "storage_locations": list(record.storage_locations),
            "retention_years": record.retention_years, "source": _source(record.source),
        }
    if isinstance(record, AssetRecord):
        return {
            "record_kind": "asset", "id": record.id, "name": record.name,
            "kind": record.kind.value if record.kind else None,
            "serves": list(record.serves),
            "accesses": [
                {"target": ref.target, "direction": ref.direction.value,
                 "origin": ref.origin.value, "source": _source(ref.source)}
                for ref in record.accesses
            ],
            "source": _source(record.source),
        }
    return {
        "record_kind": "crypto", "id": record.id, "object_type": record.object_type.value,
        "location": record.location, "key_locations": list(record.key_locations),
        "algorithm": record.algorithm, "config_flags": list(record.config_flags),
        "matched_key": record.matched_key, "issuer_cert": record.issuer_cert,
        "created_by": record.created_by, "source": _source(record.source),
    }


def _key(spec: str) -> str:
    return primitive_key(*parse_primitive_spec(spec))


def hand_edit(bundle, records, removed, replacements, added):
    """What editing the files would give: rows of removed ids go, replaced
    specs are rewritten where a row names the algorithm, new rows follow.
    Returns the records and how many references were rewritten."""
    swap = {_key(old): new for old, new in replacements}
    names_a_record = set(bundle.asset_map) | set(bundle.data_map) | set(bundle.crypto_map)
    out = []
    rewritten = 0
    for record in records:
        ident = record.label if isinstance(record, ClassificationBinding) else record.id
        if ident in removed:
            continue
        if isinstance(record, CryptoObjectRecord) and record.algorithm:
            new = swap.get(primitive_key(record.algorithm, record.config_flags))
            if new:
                name, flags = parse_primitive_spec(new)
                record = replace(record, algorithm=name, config_flags=flags)
        if isinstance(record, AssetRecord):
            refs = []
            for ref in record.accesses:
                if (
                    ref.origin is RefOrigin.ASSET_FIELD
                    and ref.target not in names_a_record
                    and _key(ref.target) in swap
                ):
                    ref = replace(ref, target=swap[_key(ref.target)])
                    rewritten += 1
                refs.append(ref)
            record = replace(record, accesses=tuple(refs))
        out.append(record)
    return out + list(added), rewritten


def test_overlay_equals_the_hand_edit_on_random_inventories():
    cases_rewriting_a_reference = 0
    for case in range(150):
        rng = random.Random(50_000 + case)
        bundle, records, _ = inventory_gen.random_bundle(rng)
        ids = sorted(
            set(bundle.classification_map) | set(bundle.asset_map)
            | set(bundle.data_map) | set(bundle.crypto_map)
        )
        removed = rng.sample(ids, rng.randint(0, 3))
        crypto_specs = sorted(
            {primitive_key(c.algorithm, c.config_flags) for c in bundle.crypto_objects if c.algorithm}
        )
        uses_specs = sorted(
            {ref.target for a in bundle.assets for ref in a.accesses if "[" in ref.target}
        )
        replaced = set(rng.sample(crypto_specs, min(len(crypto_specs), rng.randint(0, 1))))
        replaced.update(rng.sample(uses_specs, min(len(uses_specs), 1)))
        replacements = [(old, rng.choice(REPLACEMENT_TARGETS)) for old in sorted(replaced)]
        added = [inventory_gen.random_addition(rng, records) for _ in range(rng.randint(0, 2))]
        overlay = Overlay(
            replace_algorithms=tuple(replacements),
            remove_records=tuple(removed),
            add_records=tuple(_entry(r) for r in added),
        )

        overlaid, diags = apply_overlay(bundle, overlay)
        edited, rewritten = hand_edit(bundle, records, set(removed), replacements, added)
        cases_rewriting_a_reference += rewritten > 0
        expected, expected_diags = assemble_bundle(edited, bundle.registry)

        assert overlaid == expected, case
        assert build_graph(overlaid) == build_graph(expected), case
        assert diags[: len(expected_diags)] == expected_diags, case
        assert {d.code for d in diags[len(expected_diags):]} <= {"removed-but-referenced"}, case
    assert cases_rewriting_a_reference >= 10


# --------------------------------------------------------------------------
# regressions: what the overlay used to get wrong
# --------------------------------------------------------------------------

def _records(*extra):
    src = Source
    return [
        ClassificationBinding("High", (SecurityRating.approval("approved"),), source=src("c.csv", "High")),
        DataRecord(id="D1", classification="High", storage_locations=("P1",), source=src("d.csv", "D1")),
        AssetRecord(
            id="P1", kind=AssetKind.PROCESS,
            accesses=(AccessRef("RSA[1024]", origin=RefOrigin.ASSET_FIELD, source=src("a.csv", "P1")),),
            source=src("a.csv", "P1"),
        ),
        *extra,
    ]


def _bundle(*extra):
    bundle, diags = assemble_bundle(_records(*extra), load_default_registry())
    assert diags == []
    return bundle


def _findings(bundle):
    return find_violations(build_graph(bundle), bundle)[0]


def test_replacing_an_algorithm_rewrites_a_process_uses_reference():
    bundle = _bundle()
    assert len(_findings(bundle)) == 1
    overlaid, diags = apply_overlay(bundle, Overlay(replace_algorithms=(("RSA[1024]", "RSA[2048]"),)))
    assert diags == []
    assert [ref.target for ref in overlaid.asset_map["P1"].accesses] == ["RSA[2048]"]
    assert _findings(overlaid) == []
    assert "RSA[1024]" not in build_graph(overlaid).vertex_map()


def test_a_reference_repeating_a_flag_is_rewritten():
    *others, process = _records()
    respelt = replace(process, accesses=(replace(process.accesses[0], target="RSA[1024,1024]"),))
    bundle, _ = assemble_bundle([*others, respelt], load_default_registry())
    assert "RSA[1024]" in build_graph(bundle).vertex_map()
    overlaid, diags = apply_overlay(bundle, Overlay(replace_algorithms=(("RSA[1024]", "RSA[2048]"),)))
    assert diags == []
    assert [ref.target for ref in overlaid.asset_map["P1"].accesses] == ["RSA[2048]"]
    assert _findings(overlaid) == []


def test_added_records_with_existing_ids_merge_or_clash():
    bundle = _bundle(
        CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, location="P1",
            source=Source("k.csv", "K1"),
        ),
    )
    overlay = Overlay(add_records=(
        {"record_kind": "asset", "id": "P1", "name": "Payroll"},
        {"record_kind": "data", "id": "D1", "classification": "High"},
        {"record_kind": "crypto", "id": "K1", "object_type": "PrivateKey"},
    ))
    overlaid, diags = apply_overlay(bundle, overlay)
    assert [a.id for a in overlaid.assets] == ["P1"]
    merged = overlaid.asset_map["P1"]
    assert (merged.kind, merged.name) == (AssetKind.PROCESS, "Payroll")
    assert [(d.severity, d.code) for d in diags] == [(Severity.ERROR, "duplicate-id")] * 2


def test_added_asset_with_null_accesses_has_none():
    entry = {"record_kind": "asset", "id": "Z", "kind": "server", "accesses": None}
    overlaid, diags = apply_overlay(_bundle(), Overlay(add_records=(entry,)))
    assert diags == []
    assert overlaid.asset_map["Z"].accesses == ()


def test_added_asset_kind_takes_the_csv_type_aliases():
    bundle = _bundle()
    for spelling in ("server", "Server", "Processor", "vm", "workflow", "network", "Software"):
        entry = {"record_kind": "asset", "id": "X", "kind": spelling}
        overlaid, diags = apply_overlay(bundle, Overlay(add_records=(entry,)))
        assert diags == []
        assert overlaid.asset_map["X"].kind is _ASSET_KIND_ALIASES[spelling.lower()]


def test_added_object_type_takes_the_csv_type_aliases():
    bundle = _bundle()
    for spelling, object_type in (
        ("private key", CryptoObjectType.PRIVATE_KEY), ("Secret Key", CryptoObjectType.SYMMETRIC_KEY),
        ("cert", CryptoObjectType.CERTIFICATE), ("root certificate", CryptoObjectType.CA_CERTIFICATE),
        ("PublicKey", CryptoObjectType.PUBLIC_KEY),
    ):
        entry = {"record_kind": "crypto", "id": "X", "object_type": spelling, "algorithm": "RSA"}
        overlaid, diags = apply_overlay(bundle, Overlay(add_records=(entry,)))
        assert diags == []
        assert overlaid.crypto_map["X"].object_type is object_type


def test_removing_a_referenced_asset_warns_that_it_comes_back():
    bundle = _bundle()
    overlaid, diags = apply_overlay(bundle, Overlay(remove_records=("P1",)))
    # D1 still names P1 as its storage, which materialises no asset; the
    # process row is gone, so P1 is no longer a process anywhere
    assert "P1" not in overlaid.asset_map
    assert diags == []

    bundle = _bundle(
        AssetRecord(id="Web", kind=AssetKind.PROCESSOR, serves=("P1",), source=Source("a.csv", "Web")),
    )
    overlaid, diags = apply_overlay(bundle, Overlay(remove_records=("P1",)))
    assert overlaid.asset_map["P1"].kind is None  # an undeclared asset, not a process
    assert [(d.severity, d.code) for d in diags] == [(Severity.WARNING, "removed-but-referenced")]
    assert "'P1'" in diags[0].message


def test_a_reference_naming_an_asset_is_not_rewritten():
    # an access row makes an asset called RSA[1024]; the process's Uses
    # cell then names that asset, not the algorithm
    row = Source("cloudconfig.csv", "Gw->RSA[1024]")
    bundle = _bundle(AssetRecord(id="Gw", accesses=(AccessRef("RSA[1024]", source=row),), source=row))
    overlaid, _ = apply_overlay(bundle, Overlay(replace_algorithms=(("RSA[1024]", "RSA[2048]"),)))
    assert [ref.target for ref in overlaid.asset_map["P1"].accesses] == ["RSA[1024]"]


# --------------------------------------------------------------------------
# an added record is the record the same CSV row gives
# --------------------------------------------------------------------------

CLASSIFICATION_SHEET = {"label": Role.CLASSIFICATION, "level": Role.SECURITY_LEVEL}
DATA_SHEET = {
    "id": Role.ID, "name": Role.NAME, "classification": Role.CLASSIFICATION,
    "storage": Role.STORAGE_LOCATION, "retention": Role.RETENTION_YEARS,
}
ASSET_SHEET = {"id": Role.ID, "kind": Role.OBJECT_TYPE, "serves": Role.SERVES, "uses": Role.ACCESSES_TARGET}
CRYPTO_SHEET = {
    "id": Role.ID, "type": Role.OBJECT_TYPE, "location": Role.LOCATION, "keys": Role.STORAGE_LOCATION,
    "algorithm": Role.ALGORITHM, "flags": Role.CONFIG_FLAG, "matched": Role.MATCHED_KEY,
    "issuer": Role.ISSUER_CERT, "creator": Role.CREATED_BY,
}


def _asset_field(target: str) -> dict:
    return {"target": target, "direction": "two-way", "origin": "asset-field"}


@pytest.mark.parametrize(
    "kind,columns,row,entry",
    [
        (RecordKind.CLASSIFICATION, CLASSIFICATION_SHEET, [" Secret ", " NIST-approved "],
         {"label": " Secret ", "required": [" NIST-approved "]}),
        (RecordKind.CLASSIFICATION, CLASSIFICATION_SHEET, ["Secret", "128 bits"],
         {"label": "Secret", "required": [{"dimension": "Bits", "value": 128}]}),
        (RecordKind.CLASSIFICATION, CLASSIFICATION_SHEET, ["Secret", "128; quantum-safe"],
         {"label": "Secret", "required": ["128", "quantum-safe"]}),
        (RecordKind.DATA, DATA_SHEET, [" D1 ", "-", " High ", "S1; S2", "7"],
         {"id": " D1 ", "name": "-", "classification": " High ", "storage_locations": ["S1", " S2 "],
          "retention_years": 7}),
        (RecordKind.DATA, DATA_SHEET, ["D1", "Payroll", "-", "S1;S2", "-"],
         {"id": "D1", "name": "Payroll", "classification": "-", "storage_locations": ["S1;S2", "-"],
          "retention_years": "-"}),
        (RecordKind.ASSET, ASSET_SHEET, [" A1 ", "server", "A1; B1", "K1;RSA[2048]"],
         {"id": " A1 ", "kind": "server", "serves": ["A1", "B1"],
          "accesses": [_asset_field(" K1 "), _asset_field("RSA[2048]"), _asset_field("A1")]}),
        (RecordKind.ASSET, ASSET_SHEET, ["A1", "-", "-", "-"],
         {"id": "A1", "kind": "-", "serves": ["-"], "accesses": [_asset_field("-")]}),
        (RecordKind.CRYPTO, CRYPTO_SHEET, [" K1 ", "PrivateKey", "A1", "-", "RSA", "2048.0", "", "", "A2"],
         {"object_type": "private key", "id": " K1 ", "location": "A1", "key_locations": ["-"],
          "algorithm": "RSA", "config_flags": ["2048.0"], "created_by": "A2"}),
        (RecordKind.CRYPTO, CRYPTO_SHEET,
         ["C1", "root certificate", "A1", "KMS; HSM", "ECDSA", "P-256", "-", "C0", ""],
         {"object_type": "CACertificate", "id": "C1", "location": "A1", "key_locations": ["KMS", "HSM"],
          "algorithm": "ECDSA", "config_flags": ["P-256"], "matched_key": "-", "issuer_cert": " C0 "}),
        (RecordKind.CRYPTO, CRYPTO_SHEET, ["C2", "cert", "-", "", "RSA", "3072", "K1", "C1", ""],
         {"object_type": "Certificate", "id": "C2", "location": "-", "algorithm": "RSA",
          "config_flags": ["3072"], "matched_key": "K1", "issuer_cert": "C1"}),
    ],
)
def test_an_added_record_equals_the_same_csv_row(kind, columns, row, entry):
    profile = MappingProfile("sheet.csv", kind, columns)
    text = ",".join(columns) + "\n" + ",".join(f'"{cell}"' for cell in row) + "\n"
    parsed, diags = parse_tabular(text, "sheet.csv", [profile])
    assert diags == []
    overlaid, diags = apply_overlay(
        _bundle(), Overlay(add_records=({"record_kind": kind.value, **entry},))
    )
    added = overlaid.records[-1]
    assert _without_sources(added) == _without_sources(parsed[0])


def _without_sources(record):
    if isinstance(record, AssetRecord):
        record = replace(record, accesses=tuple(replace(ref, source=None) for ref in record.accesses))
    return replace(record, source=Source("", ""))


def test_an_added_access_without_a_source_takes_the_records():
    entry = {
        "record_kind": "asset", "id": "Z", "accesses": [_asset_field("P1")],
        "source": {"file": "z.csv", "ref": "Z"},
    }
    overlaid, _ = apply_overlay(_bundle(), Overlay(add_records=(entry,)))
    assert overlaid.records[-1].accesses[0].source == Source("z.csv", "Z")
