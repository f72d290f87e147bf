from __future__ import annotations

import builtins
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from cryptodep import cli, ingest

from conftest import CLOUD_FILES, CLOUD_MINIMAL, cloud_minimal_args, hybrid_args, run_cli
from oracle import read_dot

CLEARING_OVERLAY = json.dumps(
    {"replace_algorithms": [{"from": "RSA[1024]", "to": "ML-KEM[768]"}]}
)


def cloud_args_default_registry(command: str, *extra: str) -> list[str]:
    """Cloud fixture args without --registry, so overlays may introduce
    algorithms the fixture registry does not rate."""
    args = cloud_minimal_args(command, *extra)
    i = args.index("--registry")
    return args[:i] + args[i + 2 :]


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------

def test_scan_finds_the_violation_and_exits_1():
    code, out, err = run_cli(cloud_minimal_args("scan"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "dependency scan (8 vertices, 9 edges)"
    assert "1 finding" in lines
    assert "warning: data.csv: retention-unknown:" in err
    # the report stays on stdout, diagnostics stay on stderr
    assert "retention-unknown" not in out
    assert "dependency scan" not in err


def test_scan_json_format():
    code, out, err = run_cli(cloud_minimal_args("scan", "--format", "json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["findings"]) == 1
    digest_names = {name.rsplit("/", 1)[-1] for name in doc["input_digests"]}
    assert digest_names == {
        "classifications.csv",
        "data.csv",
        "cloudconfig.csv",
        "cryptoinventory.csv",
        "crypto.json",
    }


def test_scan_dot_format():
    code, out, _ = run_cli(cloud_minimal_args("scan", "--format", "dot"))
    assert code == 1
    nodes, edges = read_dot(out)
    assert len(nodes) == 8
    assert len(edges) == 9
    assert nodes["certkey1"].get("color") == "red"


def test_scan_quiet_and_verbose():
    _, quiet, _ = run_cli(cloud_minimal_args("scan", "-q"))
    assert "[1]" not in quiet
    assert "1 finding" in quiet

    _, loud, _ = run_cli(cloud_minimal_args("scan", "-v"))
    assert "WWW1 -[M1]-> certkey1" in loud


def test_scan_is_repeatable():
    for fmt in ("text", "json", "dot"):
        first = run_cli(cloud_minimal_args("scan", "--format", fmt))
        second = run_cli(cloud_minimal_args("scan", "--format", fmt))
        assert first == second


def test_scan_file_order_does_not_matter():
    args = cloud_minimal_args("scan")
    flipped = [args[0]] + args[1:5][::-1] + args[5:]
    assert run_cli(args) == run_cli(flipped)


def test_scan_policy_file_changes_scores(tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"class_weights": {"IntegerFactoring": 7}}))
    code, out, _ = run_cli(cloud_minimal_args("scan", "--policy", str(policy)))
    assert code == 1
    assert "score: sensitivity 1 x class 7 = 7" in out


def test_scan_overlay_clears_the_finding(tmp_path):
    overlay = tmp_path / "fix.json"
    overlay.write_text(CLEARING_OVERLAY)
    code, out, _ = run_cli(
        cloud_args_default_registry("scan", "--overlay", str(overlay))
    )
    assert code == 0
    assert "0 findings" in out


def test_scan_clean_inventory_exits_0(tmp_path):
    (tmp_path / "classifications.csv").write_text(
        "Classification,Security\nHigh,approved\n"
    )
    (tmp_path / "data.csv").write_text("ID,Location,Classification\n")
    code, out, err = run_cli(
        [
            "scan",
            str(tmp_path / "classifications.csv"),
            str(tmp_path / "data.csv"),
            "--paper-defaults",
        ]
    )
    assert code == 0, err
    assert "0 findings" in out


# --------------------------------------------------------------------------
# whatif
# --------------------------------------------------------------------------

def test_whatif_reports_the_resolution_and_exits_0(tmp_path):
    overlay = tmp_path / "fix.json"
    overlay.write_text(CLEARING_OVERLAY)
    code, out, _ = run_cli(
        cloud_args_default_registry("whatif", "--overlay", str(overlay))
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "what-if comparison: baseline 1 finding, scenario 0"
    assert "resolved (1):" in lines


def test_whatif_json(tmp_path):
    overlay = tmp_path / "fix.json"
    overlay.write_text(CLEARING_OVERLAY)
    code, out, _ = run_cli(
        cloud_args_default_registry("whatif", "--overlay", str(overlay), "--format", "json")
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["diff"]["resolved"]) == 1
    assert doc["diff"]["introduced"] == []


def test_whatif_exit_follows_the_scenario(tmp_path):
    overlay = tmp_path / "noop.json"
    overlay.write_text("{}")
    code, out, _ = run_cli(cloud_minimal_args("whatif", "--overlay", str(overlay)))
    assert code == 1
    assert "unchanged (1):" in out


def test_whatif_requires_an_overlay():
    code, _, err = run_cli(cloud_minimal_args("whatif"))
    assert code == 2
    assert "--overlay" in err


# --------------------------------------------------------------------------
# graph / validate
# --------------------------------------------------------------------------

def test_graph_exits_0_despite_findings():
    code, out, _ = run_cli(cloud_minimal_args("graph"))
    assert code == 0
    nodes, _ = read_dot(out)
    assert all("color" not in attrs for attrs in nodes.values())


def test_validate_clean_fixture(cloud_minimal_bundle):
    code, out, err = run_cli(cloud_minimal_args("validate"))
    assert code == 0
    records = (
        len(cloud_minimal_bundle.classifications)
        + len(cloud_minimal_bundle.data)
        + len(cloud_minimal_bundle.assets)
        + len(cloud_minimal_bundle.crypto_objects)
    )
    assert out == f"{records} records, 0 errors, 0 warnings\n"
    assert err == ""


def test_validate_reports_errors_on_stdout(tmp_path):
    (tmp_path / "data.csv").write_text(
        "ID,Location,Classification\nData1,DB9,Mystery\n"
    )
    code, out, err = run_cli(["validate", str(tmp_path / "data.csv"), "--paper-defaults"])
    assert code == 1
    assert "unknown-classification" in out
    assert "dangling-reference" in out
    assert out.rstrip().endswith("1 records, 2 errors, 0 warnings")
    assert err == ""


# --------------------------------------------------------------------------
# fatal conditions
# --------------------------------------------------------------------------

def test_missing_inventory_is_fatal():
    code, out, err = run_cli(["scan", "nowhere.csv", "--paper-defaults"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read inventory nowhere.csv")


def test_unmatched_inventory_is_fatal(tmp_path):
    mystery = tmp_path / "mystery.csv"
    mystery.write_text("A,B\n1,2\n")
    code, _, err = run_cli(["scan", str(mystery)])
    assert code == 2
    assert err.startswith("error: ")


def test_bad_registry_is_fatal(tmp_path):
    registry = tmp_path / "reg.json"
    registry.write_text("not a mapping at all ][")
    code, _, err = run_cli(cloud_minimal_args("scan")[:-3] + ["--registry", str(registry)])
    assert code == 2
    assert err.startswith("error: ")


def test_bad_overlay_is_fatal(tmp_path):
    overlay = tmp_path / "bad.json"
    overlay.write_text(json.dumps({"replace_algorithms": [{"from": "RSA[1024]"}]}))
    code, _, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"add_records": [{"record_kind": "classification", "label": "Internal",
                          "required": ["sort of secure"]}]},
        {"add_records": [{"record_kind": "classification", "label": "Internal",
                          "required": ["128"], "rank": 0}]},
        {"add_records": [{"record_kind": "data"}]},
        {"add_records": [{"record_kind": "data", "id": 9}]},
        {"add_records": [{"record_kind": "data", "id": "D9", "storage_locations": "DB1"}]},
        {"add_records": [{"record_kind": "asset", "id": "Z", "accesses": [
            {"target": 5, "direction": "two-way", "origin": "asset-field"}]}]},
        {"add_records": [{"record_kind": "data", "id": "Z", "source": {"file": 1, "ref": "Z"}}]},
        {"add_records": 5},
        {"replace_algorithms": [{"from": 1024, "to": "RSA[2048]"}]},
        {"add_records": [{"record_kind": "data", "id": "D9", "retention_years": 10**400}]},
    ],
)
def test_overlay_input_errors_exit_2_with_one_line(tmp_path, doc):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps(doc))
    for command in ("scan", "whatif"):
        code, out, err = run_cli(cloud_minimal_args(command, "--overlay", str(overlay)))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def test_overlay_is_validated_with_the_scenario(tmp_path):
    overlay = tmp_path / "add.json"
    overlay.write_text(json.dumps({"add_records": [
        {"record_kind": "data", "id": "Audit1", "classification": "High",
         "storage_locations": ["Nowhere"]},
    ]}))
    code, _, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    assert code == 1
    assert "error: overlay: dangling-reference: data 'Audit1' names storage location 'Nowhere'" in err
    # the baseline alone is clean apart from its finding
    assert "dangling-reference" not in run_cli(cloud_minimal_args("scan"))[2]


def test_bad_horizon_is_fatal(tmp_path):
    horizon = tmp_path / "h.json"
    horizon.write_text(json.dumps({"quantum_horizon_years": -3}))
    code, _, err = run_cli(cloud_minimal_args("scan", "--horizon", str(horizon)))
    assert code == 2
    assert err.startswith("error: bad horizon file")


@pytest.mark.parametrize(
    "flag,doc,message",
    [
        ("--policy", [1], "a policy must be a JSON object, got [1]"),
        ("--policy", {"class_weights": [3]}, "class_weights must be a JSON object, got [3]"),
        ("--policy", {"class_weights": {"PQC": "high"}}, "PQC must be a number, got 'high'"),
        ("--policy", {"longevity_multiplier": None}, "longevity_multiplier must be a number, got None"),
        ("--horizon", [], "a horizon must be a JSON object, got []"),
        ("--horizon", {"migration_years": [1]}, "migration_years must be a number, got [1]"),
        ("--horizon", {"quantum_horizon_years": True}, "quantum_horizon_years must be a number, got True"),
        ("--policy", {"class_weights": {"PQC": float("nan")}}, "PQC must be a number, got nan"),
        ("--horizon", {"migration_years": float("inf")}, "migration_years must be a number, got inf"),
    ],
)
def test_policy_and_horizon_shape_errors_exit_2_with_one_line(tmp_path, flag, doc, message):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(doc))
    what = flag.lstrip("-")
    code, out, err = run_cli(cloud_minimal_args("scan", flag, str(path)))
    assert code == 2
    assert out == ""
    assert err == f"error: bad {what} file {path}: {message}\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_witnesses_below_one_is_rejected(value):
    code, out, err = run_cli(cloud_minimal_args("scan", "--witnesses", value))
    assert code == 2
    assert out == ""
    assert f"argument --witnesses: must be at least 1, got {value}" in err


@pytest.mark.parametrize(
    "record,message",
    [
        ({"record_kind": "crypto", "id": "C9", "object_type": "Certificate", "location": "WWW1"},
         "certificate 'C9' must name its signature algorithm"),
        ({"record_kind": "crypto", "id": "C9", "object_type": "SymmetricKey", "algorithm": "AES",
          "config_flags": ["128"], "issuer_cert": "certkey1"},
         "issuer_cert is only valid for certificates, found on 'C9'"),
        ({"record_kind": "crypto", "id": "C9", "object_type": "PrivateKey", "algorithm": "RSA",
          "config_flags": ["1024"], "matched_key": "certkey1"},
         "matched_key is only valid for public keys and certificates, found on 'C9'"),
        ({"record_kind": "asset", "id": ""}, "asset row has an empty id"),
        ({"record_kind": "data", "id": ""}, "data row has an empty id"),
        ({"record_kind": "classification", "label": "", "required": ["128"]},
         "classification row has an empty label"),
    ],
)
def test_added_records_get_the_row_checks(tmp_path, record, message):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"add_records": [record]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    assert code == 2
    assert out == ""
    assert err == f"error: bad added record: {message}\n"


def test_added_certificate_fails_like_the_same_csv_row(tmp_path):
    rows = (CLOUD_MINIMAL / "cryptoinventory.csv").read_text()
    edited = tmp_path / "cryptoinventory.csv"
    edited.write_text(rows.rstrip("\n") + "\nC9,WWW1,certificate,,\n")
    args = cloud_minimal_args("validate")
    args[args.index(str(CLOUD_MINIMAL / "cryptoinventory.csv"))] = str(edited)
    _, out, _ = run_cli(args)
    message = "certificate 'C9' must name its signature algorithm"
    assert f"missing-algorithm: {message}" in out


# --------------------------------------------------------------------------
# input files: read once, decoded as spreadsheets write them
# --------------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["--profiles", "--registry", "--policy", "--horizon", "--overlay"])
@pytest.mark.parametrize("doc", ["[" * 100_000, "9" * 5000], ids=["deep", "long-int"])
def test_json_past_the_parser_limits_exits_2_with_one_line(tmp_path, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(doc)
    code, out, err = run_cli(cloud_minimal_args("scan", flag, str(path)))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def _cloud_copy(tmp_path) -> list:
    """A copy of the cloud fixture with a profile, policy, horizon and
    overlay file, and the ``whatif`` arguments that read all nine files."""
    for name in [*CLOUD_FILES, "crypto.json"]:
        (tmp_path / name).write_bytes((CLOUD_MINIMAL / name).read_bytes())
    (tmp_path / "profiles.json").write_text('{"profiles": []}')
    (tmp_path / "policy.json").write_text('{"longevity_multiplier": 2}')
    (tmp_path / "horizon.json").write_text('{"migration_years": 5}')
    (tmp_path / "overlay.json").write_text('{"remove_records": ["certkey1"]}')
    return ["whatif", *(tmp_path / f for f in CLOUD_FILES), "--paper-defaults"] + [
        arg for flag, name in (
            ("--registry", "crypto.json"), ("--profiles", "profiles.json"), ("--policy", "policy.json"),
            ("--horizon", "horizon.json"), ("--overlay", "overlay.json"),
        ) for arg in (flag, tmp_path / name)
    ]


def test_each_input_file_is_opened_once(tmp_path, monkeypatch):
    args = _cloud_copy(tmp_path)
    opened, reads = Counter(), Counter()
    real_open, real_read = io.open, ingest.read_input

    def counting_open(file, *rest, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *rest, **kwargs)

    def counting_read(path, *rest):
        reads[str(path)] += 1
        return real_read(path, *rest)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(ingest, "read_input", counting_read)
    monkeypatch.setattr(cli, "read_input", counting_read)
    code, out, err = run_cli(args)
    assert (code, err) == (0, "")
    assert "resolved" in out
    inputs = {str(tmp_path / f) for f in [*CLOUD_FILES, "crypto.json"]} | {
        str(tmp_path / f"{name}.json") for name in ("profiles", "policy", "horizon", "overlay")
    }
    assert reads == {path: 1 for path in inputs}
    assert {path: n for path, n in opened.items() if path.startswith(str(tmp_path))} == reads


def test_bom_inventory_scans_like_the_plain_one(tmp_path):
    args = _cloud_copy(tmp_path)
    data = tmp_path / "data.csv"
    data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    golden = Path(__file__).parent / "golden"
    code, out, err = run_cli(["scan", *args[1:6], "--registry", tmp_path / "crypto.json", "-v"])
    assert code == 1
    assert out == (golden / "cloud_scan_v.out").read_text(encoding="utf-8")
    assert err == (golden / "cloud_scan_v.err").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, tail, message",
    [
        ("data.csv", b"\xff\n", "cannot read inventory {path}: line 3 is not UTF-8: invalid start byte"),
        ("cryptoinventory.csv", b"k2,WWW1,\xe9,RSA,1024\n", "cannot read inventory {path}: line 3 is not UTF-8"),
        ("crypto.json", b"\xff", "cannot read registry file {path}: line "),
        ("profiles.json", b"\xff", "cannot read profile file {path}: line 1 is not UTF-8"),
        ("policy.json", b"\xff", "cannot read policy file {path}: line 1 is not UTF-8"),
        ("horizon.json", b"\xc3", "cannot read horizon file {path}: line 1 is not UTF-8"),
        ("overlay.json", b"\xff", "cannot read overlay file {path}: line 1 is not UTF-8"),
        ("data.csv", b"D9," + b"x" * 140_000 + b"\n", "cannot read inventory {path}: line 3: field larger"),
    ],
    ids=["data", "crypto", "registry", "profiles", "policy", "horizon", "overlay", "long-cell"],
)
def test_undecodable_or_oversized_input_exits_2_with_one_line(tmp_path, name, tail, message):
    args = _cloud_copy(tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + tail)
    code, out, err = run_cli(args)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=path))
    assert err.count("\n") == 1


# --------------------------------------------------------------------------
# odds and ends
# --------------------------------------------------------------------------

def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert out.startswith("cryptodep ")


def test_no_command_is_an_argparse_error():
    code, _, err = run_cli([])
    assert code == 2
    assert "command" in err


def test_hybrid_fixture_scans_with_a_finding():
    code, out, _ = run_cli(hybrid_args("scan"))
    assert code == 1
    assert "RSA[1024]" in out
