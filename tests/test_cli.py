from __future__ import annotations

import json

import pytest

from conftest import CLOUD_MINIMAL, cloud_minimal_args, hybrid_args, run_cli
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
