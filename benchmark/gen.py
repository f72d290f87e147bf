"""Seeded inventory generator for the benchmark.

The row shapes follow the five-file layout the CLI reads with
``--paper-defaults`` plus an asset sheet bound by ``profiles.json``.  The
generator is written out here rather than imported from the test helpers,
so that edits to the tests cannot shift the benchmark's inputs.

Everything the cost of a run depends on is fixed: the classification sheet,
the number of rows of each kind and the mix of kinds, types and algorithms.
The seed only decides the wiring (which asset a row names) and the order in
which those fixed mixes are dealt out, so two seeds give inventories of the
same size and shape but different graphs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Classification label -> levels it requires.  Row order is the sensitivity
# ranking, so it is never shuffled.
CLASSIFICATIONS = [
    ("Critical", ["128", "NIST-approved"]),
    ("High", ["112", "NIST-approved"]),
    ("Moderate", ["112"]),
    ("Low", ["80"]),
]

# (kind word, share of asset rows)
ASSET_KINDS = [("server", 4), ("service", 2), ("process", 2), ("channel", 1), ("software", 1)]
# (type word, share of crypto rows)
CRYPTO_TYPES = [
    ("symmetric key", 3),
    ("private key", 3),
    ("public key", 2),
    ("certificate", 2),
    ("CA certificate", 1),
]
# (algorithm, keysize, share of crypto rows)
ALGORITHMS = [
    ("RSA", "1024", 1),
    ("RSA", "2048", 4),
    ("ECDSA", "P-256", 3),
    ("AES", "128", 3),
    ("AES", "256", 4),
    ("ML-KEM", "768", 2),
    ("TLS", "1.2", 2),
    ("SHA-256", "", 1),
]

# what-if scenarios: (name, from spec, to spec)
OVERLAYS = [
    ("rsa1024", "RSA[1024]", "RSA[3072]"),
    ("ecdsa", "ECDSA[P-256]", "ML-DSA[65]"),
    ("aes128", "AES[128]", "AES[256]"),
]

ASSET_PROFILE = {
    "profiles": [
        {
            "inventory": "assets.csv",
            "kind": "asset",
            "columns": {"ID": "id", "Kind": "object_type", "Serves": "serves", "Uses": "accesses_target"},
        }
    ]
}

FILES = ["classifications.csv", "data.csv", "assets.csv", "cryptoinventory.csv", "cloudconfig.csv"]


def _deal(rng: random.Random, mix, count: int) -> list:
    """``count`` items in the fixed proportions of ``mix``, in seeded order."""
    total = sum(weight for *_, weight in mix)
    out = []
    for *item, weight in mix:
        out.extend([tuple(item)] * (count * weight // total))
    while len(out) < count:
        out.append(tuple(mix[len(out) % len(mix)][:-1]))
    rng.shuffle(out)
    return out


def make_tables(
    seed: int,
    n_data: int,
    n_assets: int,
    n_crypto: int,
    n_access: int,
    rsa_uses: int = 0,
) -> dict[str, tuple[list[str], list[list[str]]]]:
    """CSV tables as filename -> (header, rows).

    ``rsa_uses`` process and channel rows name ``RSA[1024]`` in their Uses
    column instead of another asset, the form that rule PR1/CH1 reads as an
    algorithm reference.
    """
    rng = random.Random(seed)
    asset_ids = [f"A{i}" for i in range(n_assets)]
    labels = [label for label, _ in CLASSIFICATIONS]

    class_rows = [[label, level] for label, levels in CLASSIFICATIONS for level in levels]

    data_rows = [
        [f"D{i}", rng.choice(asset_ids), labels[i % len(labels)]] for i in range(n_data)
    ]

    kinds = [kind for (kind,) in _deal(rng, ASSET_KINDS, n_assets)]
    rsa_rows = set(
        rng.sample([i for i, k in enumerate(kinds) if k in ("process", "channel")], rsa_uses)
    )
    asset_rows = []
    for i, ident in enumerate(asset_ids):
        serves = rng.choice(asset_ids) if rng.random() < 0.5 else ""
        if i in rsa_rows:
            uses = "RSA[1024]"
        else:
            uses = rng.choice(asset_ids) if rng.random() < 0.8 else ""
        asset_rows.append([
            ident,
            kinds[i],
            "" if serves == ident else serves,
            "" if uses == ident else uses,
        ])

    types = _deal(rng, CRYPTO_TYPES, n_crypto)
    algorithms = _deal(rng, ALGORITHMS, n_crypto)
    crypto_rows = [
        [f"K{i}", rng.choice(asset_ids), types[i][0], algorithms[i][0], algorithms[i][1]]
        for i in range(n_crypto)
    ]

    access_rows = [rng.sample(asset_ids, 2) for _ in range(n_access)]

    return {
        "classifications.csv": (["Classification", "Security"], class_rows),
        "data.csv": (["ID", "Location", "Classification"], data_rows),
        "assets.csv": (["ID", "Kind", "Serves", "Uses"], asset_rows),
        "cryptoinventory.csv": (["ID", "Location", "Type", "Algorithm", "Keysize"], crypto_rows),
        "cloudconfig.csv": (["Asset", "Service"], access_rows),
    }


def replace_algorithm(tables, old: str, new: str):
    """A copy of ``tables`` with ``old`` rewritten to ``new`` wherever the CSV
    text names it: the Algorithm/Keysize columns of crypto rows and the Uses
    column of asset rows.  This is the hand edit a what-if overlay stands for.
    """
    old_name, _, old_flag = old.rstrip("]").partition("[")
    new_name, _, new_flag = new.rstrip("]").partition("[")
    out = dict(tables)
    header, rows = tables["cryptoinventory.csv"]
    out["cryptoinventory.csv"] = (header, [
        row[:3] + [new_name, new_flag] if (row[3], row[4]) == (old_name, old_flag) else row
        for row in rows
    ])
    header, rows = tables["assets.csv"]
    out["assets.csv"] = (header, [row[:3] + [new] if row[3] == old else row for row in rows])
    return out


def write_tables(directory: Path, tables) -> list[str]:
    """Write the CSV files and the asset-sheet profile; returns the CSV paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for filename in FILES:
        header, rows = tables[filename]
        lines = [",".join(header)] + [",".join(row) for row in rows]
        (directory / filename).write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(directory / filename))
    (directory / "profiles.json").write_text(json.dumps(ASSET_PROFILE, indent=2) + "\n", encoding="utf-8")
    return paths


def write_overlay(path: Path, old: str, new: str) -> None:
    path.write_text(
        json.dumps({"replace_algorithms": [{"from": old, "to": new}]}) + "\n", encoding="utf-8"
    )


def written_sources(tables) -> set[tuple[str, str]]:
    """Every (file, ref) provenance a row of ``tables`` can give rise to."""
    refs = set()
    for label, _level in tables["classifications.csv"][1]:
        refs.add(("classifications.csv", label))
    for filename in ("data.csv", "assets.csv", "cryptoinventory.csv"):
        refs.update((filename, row[0]) for row in tables[filename][1])
    refs.update(("cloudconfig.csv", f"{owner}->{target}") for owner, target in tables["cloudconfig.csv"][1])
    return refs
