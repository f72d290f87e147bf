"""Hostile input against the exit-code contract.

The CLI runs in process on random CSV bytes, on damaged or malformed JSON
for every other input file, and on random flag values.  Whatever the input,
it exits 0, 1 or 2 and prints no traceback: an uncaught exception would
exit 1, which a CI script reads as "findings".
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CLOUD_FILES, CLOUD_MINIMAL, run_cli

csv_bytes = st.builds(
    lambda bom, pieces: bom + b"".join(pieces),
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(
        st.sampled_from([
            b"ID", b"Location", b"Classification", b"Type", b"Algorithm", b"Keysize",
            b"Asset", b"Service", b"Security", b"Data1", b"DB1", b"WWW1", b"High", b"RSA",
            b"1024", b"private key", b"certificate", b"NIST-approved", b"\xc2\xb2", b"9" * 5000,
            b"-", b";", b" ", b",", b'"', b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3",
            b"x" * 140_000,
        ]),
        max_size=40,
    ),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.just(10**400) | st.floats()
    | st.sampled_from(["data", "id", "RSA[1024]", "RSA[", "Bits", "DB1", "High", "128", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "file", "ref", "x"]), inner, max_size=3),
    max_leaves=6,
)

# one well-formed document per file flag, which the fuzz damages
TEMPLATES = {
    "--profiles": {"profiles": [{
        "inventory": "data.csv", "kind": "data",
        "columns": {"ID": "id", "Location": "storage_location", "Classification": "classification"},
        "defaults": {"retention_years": "3"},
    }]},
    "--registry": [{"name": "RSA", "configurations": [{
        "flags": ["1024"], "security": 80, "NIST-approval": "not-NIST-approved",
        "quantum-safety": "quantum-vulnerable", "class": "IntegerFactoring", "break-qubits": 4000,
        "uses": ["AES[128]"], "source": {"file": "nist.pdf", "ref": "table 2"},
    }]}],
    "--policy": {"class_weights": {"IntegerFactoring": 3, "PQC": 1}, "longevity_multiplier": 2},
    "--horizon": {"migration_years": 5, "quantum_horizon_years": 15},
    "--overlay": {
        "replace_algorithms": [{"from": "RSA[1024]", "to": "RSA[1024]"}],
        "remove_records": ["Data1"],
        "add_records": [
            {"record_kind": "classification", "label": "Top",
             "required": ["128", {"dimension": "Bits", "value": 192}]},
            {"record_kind": "data", "id": "D2", "classification": "Top", "storage_locations": ["DB1"],
             "retention_years": 30},
            {"record_kind": "asset", "id": "A2", "kind": "Processor", "serves": ["DB1"], "accesses": [
                {"target": "DB1", "direction": "two-way", "origin": "asset-field",
                 "source": {"file": "x.csv", "ref": "A2"}}]},
            {"record_kind": "crypto", "id": "K2", "object_type": "Certificate", "location": "A2",
             "algorithm": "RSA", "config_flags": ["1024"], "issuer_cert": "K2",
             "source": {"file": "x.csv", "ref": "K2"}},
        ],
    },
}

# the file flags each command takes, and whether it takes the analysis flags
COMMANDS = {
    "scan": (("--profiles", "--registry", "--policy", "--horizon", "--overlay"), True),
    "whatif": (("--profiles", "--registry", "--policy", "--horizon"), True),
    "graph": (("--profiles", "--registry"), False),
    "validate": (("--profiles", "--registry"), False),
}
ANALYSIS_FLAGS = [["--witnesses", "2"], ["--witnesses", "50"], ["--format", "json"], ["-v"], ["-q"]] * 3 + [
    ["--witnesses", "0"], ["--witnesses", "x"], ["--format", "dot"], ["--format", "xml"],
]


def _slots(doc):
    """(container, key) for every value inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


def _mostly() -> st.SearchStrategy[bool]:
    return st.sampled_from([True] * 9 + [False])


@st.composite
def json_bytes(draw, flag: str) -> bytes:
    """A file for ``flag``: its template with up to three values replaced,
    sometimes truncated or with a byte that is not UTF-8; or junk."""
    if not draw(_mostly()):
        return draw(st.binary(max_size=20) | st.sampled_from([b"[" * 100_000, b"9" * 5000, b"NaN"]))
    root = {"doc": json.loads(json.dumps(TEMPLATES[flag]))}
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(_slots(root))))
        container[key] = draw(json_values)
    raw = json.dumps(root["doc"]).encode()
    return draw(st.sampled_from([raw] * 8 + [raw[:-1], raw + b"\xff"]))


@st.composite
def cli_args(draw, root: Path) -> list:
    """A command line over the cloud inventories, written to ``root``, some
    of them with random bytes appended or in place of their rows."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    file_flags, analysis = COMMANDS[command]
    args = [command]
    for name in CLOUD_FILES:
        raw = (CLOUD_MINIMAL / name).read_bytes()
        change = draw(st.sampled_from(["keep", "keep", "append", "replace"]))
        if change != "keep":
            raw = (raw if change == "append" else b"") + draw(csv_bytes)
        (root / name).write_bytes(raw)
        args.append(root / name)
    chosen = draw(st.lists(st.sampled_from(file_flags), unique=True))
    for flag in chosen + ["--overlay"] * (command == "whatif"):
        path = root / f"{flag.strip('-')}.json"
        if draw(_mostly()):  # else the file is missing
            path.write_bytes(draw(json_bytes(flag)))
        args += [flag, path]
    if draw(_mostly()):
        args.append("--paper-defaults")
    for flag in draw(st.lists(st.sampled_from(ANALYSIS_FLAGS), max_size=3)) if analysis else ():
        args += flag
    return args


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run_cli(data.draw(cli_args(Path(tmp))))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
