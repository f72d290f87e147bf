"""Overlays against their oracle: the same edit made by hand to the parsed
records and assembled with ``assemble_bundle``."""

from __future__ import annotations

import random
from dataclasses import replace

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
    names_a_record = set(bundle.asset_map()) | set(bundle.data_map()) | set(bundle.crypto_map())
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
            set(bundle.classification_map()) | set(bundle.asset_map())
            | set(bundle.data_map()) | set(bundle.crypto_map())
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
    assert [ref.target for ref in overlaid.asset_map()["P1"].accesses] == ["RSA[2048]"]
    assert _findings(overlaid) == []
    assert "RSA[1024]" not in build_graph(overlaid).vertex_map()


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
    merged = overlaid.asset_map()["P1"]
    assert (merged.kind, merged.name) == (AssetKind.PROCESS, "Payroll")
    assert [(d.severity, d.code) for d in diags] == [(Severity.ERROR, "duplicate-id")] * 2


def test_removing_a_referenced_asset_warns_that_it_comes_back():
    bundle = _bundle()
    overlaid, diags = apply_overlay(bundle, Overlay(remove_records=("P1",)))
    # D1 still names P1 as its storage, which materialises no asset; the
    # process row is gone, so P1 is no longer a process anywhere
    assert "P1" not in overlaid.asset_map()
    assert diags == []

    bundle = _bundle(
        AssetRecord(id="Web", kind=AssetKind.PROCESSOR, serves=("P1",), source=Source("a.csv", "Web")),
    )
    overlaid, diags = apply_overlay(bundle, Overlay(remove_records=("P1",)))
    assert overlaid.asset_map()["P1"].kind is None  # an undeclared asset, not a process
    assert [(d.severity, d.code) for d in diags] == [(Severity.WARNING, "removed-but-referenced")]
    assert "'P1'" in diags[0].message


def test_a_reference_naming_an_asset_is_not_rewritten():
    # an access row makes an asset called RSA[1024]; the process's Uses
    # cell then names that asset, not the algorithm
    row = Source("cloudconfig.csv", "Gw->RSA[1024]")
    bundle = _bundle(AssetRecord(id="Gw", accesses=(AccessRef("RSA[1024]", source=row),), source=row))
    overlaid, _ = apply_overlay(bundle, Overlay(replace_algorithms=(("RSA[1024]", "RSA[2048]"),)))
    assert [ref.target for ref in overlaid.asset_map()["P1"].accesses] == ["RSA[1024]"]
