"""Byte-for-byte regression of the CLI on the sample inventories.

Each case runs one command in process from the repository root, with
repository-relative paths so the input-digest keys stay stable, and compares
its exit code, stdout and stderr with the files under ``tests/golden/``.  A
case over a generated inventory runs from the directory the inventory is
written to, with bare file names.
After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import inventory_gen
from conftest import CLOUD_FILES, HYBRID_FILES, run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

_CLOUD = [f"sample_inventories/cloud_minimal/{f}" for f in CLOUD_FILES] + [
    "--registry", "sample_inventories/cloud_minimal/crypto.json", "--paper-defaults",
]
_HYBRID = [f"sample_inventories/hybrid_enterprise/{f}" for f in HYBRID_FILES] + [
    "--profiles", "sample_inventories/hybrid_enterprise/profiles.json",
]
# every load and validation diagnostic, each with its rendered message
_BROKEN = [
    f"tests/golden/broken/{f}"
    for f in ("classifications.csv", "data.csv", "assets.csv", "access.csv", "crypto.csv")
] + [
    "--profiles", "tests/golden/broken/profiles.json", "--registry", "tests/golden/broken/registry.json",
]
_WITNESS = [
    "classifications.csv", "data.csv", "assets.csv", "cryptoinventory.csv", "cloudconfig.csv",
    "--profiles", "profiles.json", "--paper-defaults",
]


def _witness_inventory(directory: Path) -> None:
    """2,128 rows whose scan finds 93 witnesses of four level pairs, 50 of
    them, the limit, for one pair."""
    inventory_gen.write_tables(directory, inventory_gen.make_tables(
        random.Random(4), n_classes=4, n_data=700, n_assets=700, n_crypto=700, n_access=23,
    ))


# name -> (arguments, exit code)
CASES: dict[str, tuple[list[str], int]] = {
    "cloud_scan_v": (["scan", *_CLOUD, "-v"], 1),
    "cloud_scan_json": (["scan", *_CLOUD, "--format", "json"], 1),
    "cloud_graph": (["graph", *_CLOUD], 0),
    "cloud_validate": (["validate", *_CLOUD], 0),
    "hybrid_scan_v": (["scan", *_HYBRID, "-v"], 1),
    "hybrid_scan_json": (["scan", *_HYBRID, "--format", "json"], 1),
    "hybrid_graph": (["graph", *_HYBRID], 0),
    "hybrid_validate": (["validate", *_HYBRID], 0),
    "hybrid_whatif_json": (
        ["whatif", *_HYBRID, "--overlay", "tests/golden/overlay.json", "--format", "json"], 1,
    ),
    "broken_validate": (["validate", *_BROKEN], 1),
    "witness_scan_json": (["scan", *_WITNESS, "--witnesses", "50", "--format", "json"], 1),
    # pins the vertex and edge order of a graph of about 5k edges
    "witness_graph": (["graph", *_WITNESS], 0),
}
# name -> writer of the inventory the case scans, for the cases that do not
# read files of the repository
GENERATED = {"witness_scan_json": _witness_inventory, "witness_graph": _witness_inventory}


def _run(name: str) -> tuple[int, str, str]:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        write = GENERATED.get(name)
        if write:
            write(Path(scratch))
        os.chdir(scratch if write else ROOT)
        try:
            return run_cli(CASES[name][0])
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, out, err = _run(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", ["0", "987654"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_in_its_own_process_under_a_fixed_hash_seed(tmp_path, name, seed):
    """In process, every case runs under the session's one random hash
    seed, so output that hung on the order of a set would show only as a
    flake.  Here the case is its own ``python -m cryptodep`` process under
    a fixed ``PYTHONHASHSEED``."""
    write = GENERATED.get(name)
    if write:
        write(tmp_path)
    run = subprocess.run(
        [sys.executable, "-m", "cryptodep", *CASES[name][0]], cwd=tmp_path if write else ROOT, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8"},
    )
    assert run.returncode == CASES[name][1]
    assert run.stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert run.stderr == (GOLDEN / f"{name}.err").read_bytes()


def test_traced_harness_reproduces_a_golden_case(tmp_path):
    """``benchmark/traced.py`` wraps functions by the names its callers look
    them up by, so a move or rename it misses fails here, not in a traced
    benchmark run."""
    args, expected_code = CASES["hybrid_whatif_json"]
    spans, output = tmp_path / "spans.json", tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "benchmark/traced.py", str(spans), str(output), "op", "--", *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
    )
    assert run.returncode == expected_code
    assert run.stderr == (GOLDEN / "hybrid_whatif_json.err").read_text(encoding="utf-8")
    assert output.read_text(encoding="utf-8") == (GOLDEN / "hybrid_whatif_json.out").read_text(encoding="utf-8")
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.digest", "ingest.registry", "ingest.load", "ingest.parse", "ingest.assemble"} <= names


if __name__ == "__main__":
    for name in sorted(CASES):
        _, out, err = _run(name)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
