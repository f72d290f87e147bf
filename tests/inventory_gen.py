"""Seeded random inventories for the property suites.

Two layers: record-level generation for fast library round trips, and CSV
file generation (plus a mapping profile for the extra asset sheet) for
end-to-end CLI runs.  Everything draws from a caller-supplied random.Random
so any case reproduces from its seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from cryptodep import (
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    Direction,
    DataRecord,
    SecurityRating,
    Source,
    assemble_bundle,
    load_default_registry,
)
from cryptodep.model import RefOrigin

LABELS = ["Critical", "High", "Moderate", "Low"]
LEVELS = [
    "NIST-approved",
    "not-NIST-approved",
    "quantum-safe",
    "quantum-vulnerable",
    "80",
    "112",
    "128",
    "256",
]
# (algorithm column, keysize column) pairs that resolve in the default registry,
# plus a protocol and a flagless hash.
ALGORITHMS = [
    ("RSA", "1024"),
    ("RSA", "2048"),
    ("ECDSA", "P-256"),
    ("AES", "128"),
    ("AES", "256"),
    ("ML-KEM", "768"),
    ("TLS", "1.2"),
    ("SHA-256", ""),
]
KIND_WORDS = {
    None: "",
    AssetKind.PROCESSOR: "server",
    AssetKind.SERVICE: "service",
    AssetKind.CHANNEL: "channel",
    AssetKind.PROCESS: "process",
    AssetKind.SOFTWARE: "software",
}
TYPE_WORDS = {
    CryptoObjectType.SYMMETRIC_KEY: "symmetric key",
    CryptoObjectType.PRIVATE_KEY: "private key",
    CryptoObjectType.PUBLIC_KEY: "public key",
    CryptoObjectType.CERTIFICATE: "certificate",
    CryptoObjectType.CA_CERTIFICATE: "CA certificate",
}


def _spec(pair: tuple[str, str]) -> str:
    name, flag = pair
    return f"{name}[{flag}]" if flag else name


def random_classifications(rng: random.Random, count: int) -> list[ClassificationBinding]:
    out = []
    for rank, label in enumerate(LABELS[:count]):
        picks = rng.sample(LEVELS, rng.randint(1, 2))
        ratings = []
        dims = set()
        for raw in picks:
            rating = SecurityRating.parse(raw)
            if rating.dimension in dims:
                continue
            dims.add(rating.dimension)
            ratings.append(rating)
        out.append(
            ClassificationBinding(
                label=label,
                required=tuple(ratings),
                rank=rank,
                source=Source("classifications.csv", label),
            )
        )
    return out


def random_records(
    rng: random.Random,
    n_classes: int = 2,
    n_data: int = 4,
    n_assets: int = 5,
    n_crypto: int = 4,
) -> list:
    """A plausible mixed record set.  Mostly well-formed; some dangling refs."""
    asset_ids = [f"A{i}" for i in range(n_assets)]
    data_ids = [f"D{i}" for i in range(n_data)]
    crypto_ids = [f"K{i}" for i in range(n_crypto)]
    labels = LABELS[:n_classes]

    records: list = list(random_classifications(rng, n_classes))

    for ident in data_ids:
        storage = tuple(
            rng.sample(asset_ids + ["DB9"], rng.randint(1, 2))
        )
        label = rng.choice(labels) if rng.random() < 0.9 else "Mystery"
        retention = rng.choice([None, 5.0, 10.0, 30.0])
        records.append(
            DataRecord(
                id=ident,
                storage_locations=storage,
                classification=label,
                retention_years=retention,
                source=Source("data.csv", ident),
            )
        )

    ref_targets = asset_ids + crypto_ids + data_ids + ["X1", "KMS"]
    for ident in asset_ids:
        kind = rng.choice(list(KIND_WORDS))
        serves = (
            (rng.choice(asset_ids + ["X1"]),) if rng.random() < 0.3 else ()
        )
        accesses = []
        for _ in range(rng.randint(0, 2)):
            target = rng.choice(ref_targets + [_spec(rng.choice(ALGORITHMS))])
            if target == ident:
                continue
            accesses.append(
                AccessRef(
                    target=target,
                    direction=rng.choice([Direction.TWO_WAY, Direction.READ_ONLY]),
                    origin=RefOrigin.ASSET_FIELD,
                    source=Source("assets.csv", ident),
                )
            )
        records.append(
            AssetRecord(
                id=ident,
                kind=kind,
                serves=serves,
                accesses=tuple(accesses),
                source=Source("assets.csv", ident),
            )
        )
    # a few stand-alone access rows
    for _ in range(rng.randint(0, 2)):
        owner, target = rng.sample(asset_ids, 2)
        records.append(
            AssetRecord(
                id=owner,
                accesses=(
                    AccessRef(
                        target=target,
                        direction=rng.choice(list(Direction)),
                        origin=RefOrigin.ACCESS_RECORD,
                        source=Source("access.csv", f"{owner}->{target}"),
                    ),
                ),
                source=Source("access.csv", f"{owner}->{target}"),
            )
        )

    for ident in crypto_ids:
        object_type = rng.choice(list(CryptoObjectType))
        if rng.random() < 0.85:
            algorithm, flag = rng.choice(ALGORITHMS)
            flags = (flag,) if flag else ()
        elif rng.random() < 0.5:
            algorithm, flags = "FOO", ()
        else:
            algorithm, flags = None, ()
        matched = None
        if object_type in (CryptoObjectType.PUBLIC_KEY, CryptoObjectType.CERTIFICATE):
            if rng.random() < 0.4:
                matched = rng.choice(crypto_ids)
        issuer = None
        if object_type in (CryptoObjectType.CERTIFICATE, CryptoObjectType.CA_CERTIFICATE):
            if rng.random() < 0.4:
                issuer = rng.choice(crypto_ids)
        records.append(
            CryptoObjectRecord(
                id=ident,
                object_type=object_type,
                location=rng.choice(asset_ids + [None]),
                key_locations=("KMS",) if rng.random() < 0.3 else (),
                algorithm=algorithm,
                config_flags=flags,
                matched_key=matched,
                issuer_cert=issuer,
                created_by=rng.choice(asset_ids) if rng.random() < 0.2 else None,
                source=Source("crypto.csv", ident),
            )
        )

    rng.shuffle(records)
    return records


def random_bundle(rng: random.Random, **sizes):
    records = random_records(rng, **sizes)
    bundle, diags = assemble_bundle(records, load_default_registry())
    return bundle, records, diags


def random_addition(rng: random.Random, records: list):
    """One extra record whose insertion may only grow the graph.

    Fresh identifiers live in a Z-prefixed namespace so they can never
    collide with ids or reference targets the base generator hands out.
    """
    asset_ids = sorted({r.id for r in records if isinstance(r, AssetRecord)})
    data_ids = sorted({r.id for r in records if isinstance(r, DataRecord)})
    crypto_ids = sorted({r.id for r in records if isinstance(r, CryptoObjectRecord)})
    labels = sorted({r.label for r in records if isinstance(r, ClassificationBinding)})
    flavour = rng.choice(["data", "crypto", "asset", "access", "classification"])

    if flavour == "classification":
        return ClassificationBinding(
            label="Zclass",
            required=(SecurityRating.parse(rng.choice(LEVELS)),),
            rank=len(labels),
            source=Source("extra.csv", "Zclass"),
        )
    if flavour == "data":
        return DataRecord(
            id="Zdata",
            storage_locations=(rng.choice(asset_ids + ["Zstore"]),),
            classification=rng.choice(labels + ["Zlabel"]),
            source=Source("extra.csv", "Zdata"),
        )
    if flavour == "crypto":
        algorithm, flag = rng.choice(ALGORITHMS)
        object_type = rng.choice(list(CryptoObjectType))
        location = rng.choice(asset_ids + ["Zhost"])
        key_locations = ("KMS",) if rng.random() < 0.5 else ()
        matched = rng.choice(crypto_ids) if crypto_ids and rng.random() < 0.3 else None
        if object_type in (CryptoObjectType.SYMMETRIC_KEY, CryptoObjectType.PRIVATE_KEY):
            matched = None  # a row of these types may not carry a matched key
        return CryptoObjectRecord(
            id="Zkey",
            object_type=object_type,
            location=location,
            key_locations=key_locations,
            algorithm=algorithm,
            config_flags=(flag,) if flag else (),
            matched_key=matched,
            source=Source("extra.csv", "Zkey"),
        )
    if flavour == "access":
        owner = rng.choice(asset_ids)
        target = rng.choice([a for a in asset_ids if a != owner] or ["Zpeer"])
        return AssetRecord(
            id=owner,
            accesses=(
                AccessRef(
                    target=target,
                    direction=rng.choice(list(Direction)),
                    origin=RefOrigin.ACCESS_RECORD,
                    source=Source("extra.csv", f"{owner}->{target}"),
                ),
            ),
            source=Source("extra.csv", f"{owner}->{target}"),
        )
    targets = asset_ids + data_ids + crypto_ids + ["Zfar"]
    return AssetRecord(
        id="Zasset",
        kind=rng.choice(list(KIND_WORDS)),
        serves=(rng.choice(asset_ids),) if asset_ids and rng.random() < 0.4 else (),
        accesses=(
            AccessRef(
                target=rng.choice(targets),
                direction=Direction.TWO_WAY,
                origin=RefOrigin.ASSET_FIELD,
                source=Source("extra.csv", "Zasset"),
            ),
        ),
        source=Source("extra.csv", "Zasset"),
    )


ASSET_SHEET_PROFILE = {
    "profiles": [
        {
            "inventory": "assets.csv",
            "kind": "asset",
            "columns": {
                "ID": "id",
                "Kind": "object_type",
                "Serves": "serves",
                "Uses": "accesses_target",
            },
        }
    ]
}


def make_tables(
    rng: random.Random,
    n_classes: int = 2,
    n_data: int = 5,
    n_assets: int = 6,
    n_crypto: int = 5,
    n_access: int = 3,
) -> dict[str, tuple[list[str], list[list[str]]]]:
    """CSV tables as filename -> (header, rows).  Rows parse without warnings."""
    asset_ids = [f"A{i}" for i in range(n_assets)]
    labels = LABELS[:n_classes]

    class_rows = []
    seen_dims: dict[str, set] = {}
    for label in labels:
        for raw in rng.sample(LEVELS, rng.randint(1, 2)):
            dim = SecurityRating.parse(raw).dimension
            if dim in seen_dims.setdefault(label, set()):
                continue
            seen_dims[label].add(dim)
            class_rows.append([label, raw])

    data_rows = [
        [f"D{i}", rng.choice(asset_ids), rng.choice(labels)] for i in range(n_data)
    ]

    asset_rows = []
    for ident in asset_ids:
        serves = rng.choice(asset_ids + [""])
        uses = rng.choice(asset_ids + [f"K{rng.randrange(n_crypto)}", ""])
        asset_rows.append([ident, KIND_WORDS[rng.choice(list(KIND_WORDS))],
                           "" if serves == ident else serves,
                           "" if uses == ident else uses])

    crypto_rows = []
    for i in range(n_crypto):
        algorithm, flag = rng.choice(ALGORITHMS)
        crypto_rows.append(
            [f"K{i}", rng.choice(asset_ids), TYPE_WORDS[rng.choice(list(CryptoObjectType))],
             algorithm, flag]
        )

    access_rows = []
    for _ in range(n_access):
        owner, target = rng.sample(asset_ids, 2)
        access_rows.append([owner, target])

    return {
        "classifications.csv": (["Classification", "Security"], class_rows),
        "data.csv": (["ID", "Location", "Classification"], data_rows),
        "assets.csv": (["ID", "Kind", "Serves", "Uses"], asset_rows),
        "cryptoinventory.csv": (["ID", "Location", "Type", "Algorithm", "Keysize"], crypto_rows),
        "cloudconfig.csv": (["Asset", "Service"], access_rows),
    }


def write_tables(
    directory: Path,
    tables: dict[str, tuple[list[str], list[list[str]]]],
    shuffle_with: random.Random | None = None,
) -> list[Path]:
    """Write the CSV files plus the asset-sheet profile; returns inventory paths.

    When shuffle_with is given, every file's rows are reordered except the
    classification sheet, whose row order carries the sensitivity ranking.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for filename, (header, rows) in tables.items():
        rows = list(rows)
        if shuffle_with is not None and filename != "classifications.csv":
            shuffle_with.shuffle(rows)
        lines = [",".join(header)] + [",".join(row) for row in rows]
        path = directory / filename
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    (directory / "profiles.json").write_text(
        json.dumps(ASSET_SHEET_PROFILE, indent=2) + "\n", encoding="utf-8"
    )
    return paths
