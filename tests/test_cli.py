from __future__ import annotations

import builtins
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cryptodep import cli, ingest
from cryptodep.model import AssetRecord, CryptoObjectRecord, DataRecord
from cryptodep.rules import DependencyGraph

from conftest import CLOUD_FILES, CLOUD_MINIMAL, HYBRID, cloud_minimal_args, hybrid_args, run_cli
from oracle import read_dot

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
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


def test_scan_text_shows_urgent_longevity_in_the_score(tmp_path):
    horizon = tmp_path / "horizon.json"
    horizon.write_text(json.dumps({"quantum_horizon_years": 0}))  # any known retention outlasts it
    code, out, _ = run_cli(hybrid_args("scan", "--horizon", str(horizon), "--format", "json"))
    urgent = [f["score"] for f in json.loads(out)["findings"] if f["score"]["longevity_flag"]]
    assert code == 1 and urgent
    _, out, _ = run_cli(hybrid_args("scan", "--horizon", str(horizon)))
    lines = [line.strip() for line in out.splitlines() if "longevity urgent" in line]
    assert lines == [
        f"score: sensitivity {s['sensitivity_weight']:g} x class {s['vuln_class_weight']:g} x longevity urgent"
        f" = {s['total']:g}"
        for s in urgent
    ]


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


def test_a_repeated_key_size_is_the_same_configuration(tmp_path):
    # a Keysize cell of "1024;1024" names RSA[1024]: the graph, the registry
    # rating and the overlay's replacement all agree on it
    for name in CLOUD_FILES:
        text = (CLOUD_MINIMAL / name).read_text()
        (tmp_path / name).write_text(text.replace("RSA,1024", "RSA,1024;1024"))
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"name": "RSA", "configurations": [
        {"flags": ["1024"], "security": 80, "NIST-approval": "not-approved"},
        {"flags": ["3072"], "security": 128, "NIST-approval": "approved"},
    ]}))
    overlay = tmp_path / "fix.json"
    overlay.write_text(json.dumps({"replace_algorithms": [{"from": "RSA[1024]", "to": "RSA[3072]"}]}))
    args = [tmp_path / name for name in CLOUD_FILES] + ["--registry", registry, "--paper-defaults"]

    code, out, _ = run_cli(["scan", *args])
    assert code == 1
    assert "    approved → High → Data1 → DB1 → WWW1 → certkey1 → RSA[1024] → not-approved" in out.splitlines()
    code, out, _ = run_cli(["whatif", *args, "--overlay", overlay])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "what-if comparison: baseline 1 finding, scenario 0"
    assert "resolved (1):" in lines


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
        + len(cloud_minimal_bundle.undeclared_assets)  # DB1, which only an access row names
        + len(cloud_minimal_bundle.crypto_objects)
    )
    assert out == f"{records} records, 0 errors, 0 warnings\n" == "5 records, 0 errors, 0 warnings\n"
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


@pytest.mark.parametrize(
    "ident",
    [
        "Approval:approved",  # the level High requires: the path through High went
        "RSA[1024]",  # the configuration: its class weight 3 went
    ],
)
def test_an_id_spelled_like_a_level_or_configuration_is_a_namespace_collision(tmp_path, ident):
    for name in CLOUD_FILES:
        (tmp_path / name).write_text((CLOUD_MINIMAL / name).read_text())
    with open(tmp_path / "cloudconfig.csv", "a") as fh:
        fh.write(f"{ident},DB1\n")
    inputs = [*[tmp_path / name for name in CLOUD_FILES], "--registry", CLOUD_MINIMAL / "crypto.json"]
    inputs.append("--paper-defaults")
    message = f"error: <bundle>: namespace-collision: identifier {ident!r} is also a level or configuration"
    code, out, _ = run_cli(["validate", *inputs])
    assert code == 1 and message in out.splitlines()
    code, _, err = run_cli(["scan", *inputs])
    assert code == 1 and message in err.splitlines()


def test_a_label_spelled_like_an_asset_id_is_a_namespace_collision(tmp_path):
    """The label ``High`` and the service ``High`` would share one vertex, so
    the scan would report ``approved → High → WWW2 → certkey2`` as if the
    label required the access relation ``WWW2 → High``."""
    for name in CLOUD_FILES:
        (tmp_path / name).write_text((CLOUD_MINIMAL / name).read_text())
    (tmp_path / "cloudconfig.csv").write_text("Asset,Service\nWWW1,DB1\nWWW2,High\n")
    (tmp_path / "cryptoinventory.csv").write_text(
        "ID,Location,Type,Algorithm,Keysize\n"
        "certkey1,WWW1,private key,RSA,3072\ncertkey2,WWW2,private key,RSA,1024\n"
    )
    inputs = [*[tmp_path / name for name in CLOUD_FILES], "--registry", CLOUD_MINIMAL / "crypto.json"]
    inputs.append("--paper-defaults")
    message = "error: <bundle>: namespace-collision: identifier 'High' appears in both classification/asset inventories"
    code, out, _ = run_cli(["validate", *inputs])
    assert code == 1 and message in out.splitlines()
    assert "label-collision" not in out and out.endswith("8 records, 1 errors, 1 warnings\n")
    code, _, err = run_cli(["scan", *inputs, "-v"])
    assert code == 1 and message in err.splitlines()


def _hybrid_copy(tmp_path, uses: str | None = None) -> list[str]:
    """The ``validate`` arguments of a copy of ``hybrid_enterprise`` in
    ``tmp_path``, with ``uses`` appended to ``UserAuth1``'s ``Uses`` cell."""
    inputs = hybrid_args("validate")[1:]
    for index, path in enumerate(inputs):
        if path.startswith(str(HYBRID)):
            copy = tmp_path / Path(path).name
            copy.write_text(Path(path).read_text())
            inputs[index] = str(copy)
    if uses:
        assets = tmp_path / "assets.csv"
        cell = "UserAuth1,Process,Building A,-,-,-,-,-,-,CR004; CR005"
        assets.write_text(assets.read_text().replace(cell, f"{cell}; {uses}"))
    return inputs


def test_a_label_spelled_like_a_configuration_an_asset_cell_names_is_a_namespace_collision(tmp_path):
    """Only ``UserAuth1``'s ``Uses`` cell names ``RSA[999]``; it became the
    algorithm's vertex, which the label had already taken."""
    inputs = _hybrid_copy(tmp_path, "RSA[999]")
    with open(tmp_path / "classifications.csv", "a") as fh:
        fh.write("RSA[999],128\n")
    code, out, _ = run_cli(["validate", *inputs])
    assert code == 1
    assert "error: <bundle>: namespace-collision: identifier 'RSA[999]' is also a level or configuration" in out
    # the default registry rates no RSA[999], so the cell's dependency is unrated too
    assert "warning: assets.csv: unknown-algorithm: RSA[999] used by 'UserAuth1' is not rated in the registry" in out
    assert out.endswith(", 1 errors, 1 warnings\n")


def test_a_label_spelled_like_a_configuration_nothing_names_is_no_collision(tmp_path):
    """No cell names ``RSA[999]`` and the registry rates no such
    configuration, so the build makes no vertex the label could take."""
    inputs = _hybrid_copy(tmp_path)
    with open(tmp_path / "classifications.csv", "a") as fh:
        fh.write("RSA[999],128\n")
    code, out, _ = run_cli(["validate", *inputs])
    assert code == 0 and "namespace-collision" not in out
    code, out, _ = run_cli(["graph", *inputs])
    [vertex] = [line for line in out.splitlines() if line.startswith('  "RSA[999]" [')]
    assert code == 0 and 'shape=box,' not in vertex  # the label's vertex, not a configuration's box


def test_an_unrated_configuration_a_reference_cell_names_is_an_unknown_algorithm(tmp_path):
    """A process's dependency on an unrated configuration can reach no
    finding, whether a crypto object or a reference cell names it.  The rules
    meet the assets before the crypto objects."""
    inputs = _hybrid_copy(tmp_path, "RSA[4096]")
    with open(tmp_path / "crypto.csv", "a") as fh:
        fh.write("CR006,PA001010,WebServer1,Extra_Key,Private Key,RSA,4096,KMS\n")
    code, out, _ = run_cli(["validate", *inputs])
    assert code == 0
    assert [line for line in out.splitlines() if "unknown-algorithm" in line] == [
        "warning: assets.csv: unknown-algorithm: RSA[4096] used by 'UserAuth1' is not rated in the registry",
        "warning: crypto.csv: unknown-algorithm: RSA[4096] used by 'CR006' is not rated in the registry",
    ]


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


def test_registry_names_and_flags_must_be_strings(tmp_path):
    registry = tmp_path / "reg.json"
    registry.write_text(json.dumps([
        {"name": ["RSA"], "configurations": [{"flags": ["1024"], "security": 80}]},
        {"name": "RSA", "configurations": [{"flags": [[1]], "security": 80}, {"flags": [1024], "security": 80}]},
    ]))
    code, out, _ = run_cli(cloud_minimal_args("validate")[:-3] + ["--registry", str(registry), "--paper-defaults"])
    assert code == 1
    assert out.count("registry-entry-invalid") == 3
    assert "unknown-algorithm: RSA[1024] used by 'certkey1' is not rated" in out
    assert "['RSA']" not in out


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
        pytest.param({"add_records": [{"record_kind": "data", "id": "D9", "storage_location": ["Nowhere"]}]},
                     id="unknown-field"),
        pytest.param({"add_records": [{"record_kind": "asset", "id": "Z", "accesses": "DB1"}]},
                     id="accesses-string"),
        pytest.param({"add_records": [{"record_kind": "asset", "id": "Z", "accesses": ["DB1"]}]},
                     id="accesses-strings"),
        pytest.param({"add_records": [{"record_kind": "data", "id": "Audit1", "location": "Nowhere"}]},
                     id="crypto-field-on-data"),
        pytest.param({"add_records": [{"record_kind": "data", "id": "Audit1", "accesses": [
            {"target": "DB1", "direction": "two-way", "origin": "asset-field"}]}]},
                     id="accesses-on-data"),
        pytest.param({"add_records": [{"record_kind": "asset", "id": "Z", "object_type": "server"}]},
                     id="object-type-on-asset"),
        pytest.param({"add_records": [{"record_kind": "crypto", "id": "K9", "object_type": "PrivateKey",
                                       "kind": "server"}]},
                     id="kind-on-crypto"),
        pytest.param({"add_records": [{"record_kind": "classification", "label": "Internal",
                                       "required": ["128"], "id": "X"}]},
                     id="id-on-classification"),
        pytest.param({"add_records": [{"record_kind": "classification", "label": "Internal",
                                       "required": None}]},
                     id="required-null"),
        pytest.param({"add_records": [{"record_kind": "asset", "id": "Z", "accesses": [
            {"target": "A1", "direction": "two-way", "origin": "access-record",
             "sorce": {"file": "x.csv", "ref": "Z"}}]}]},
                     id="unknown-access-field"),
        pytest.param({"add_records": [{"record_kind": "classification", "label": "Internal",
                                       "required": [{"dimension": "Bits", "value": 128, "junk": 1}]}]},
                     id="unknown-level-field"),
        pytest.param({"replace_algorithm": [{"from": "RSA[1024]", "to": "RSA[2048]"}]}, id="unknown-overlay-key"),
        pytest.param("not json", id="not-json"),
        pytest.param({"replace_algorithms": [{"from": "RSA[1024]", "to": "RSA[2048]", "note": "x"}]},
                     id="unknown-replacement-key"),
        pytest.param({"add_records": [{"record_kind": "asset", "id": "Z", "accesses": [
            {"target": "DB1", "direction": "two-way", "origin": "field"}]}]},
                     id="bad-access-origin"),
        pytest.param({"add_records": [{"record_kind": "asset", "id": "Z", "accesses": [
            {"target": "DB1", "direction": "sideways", "origin": "asset-field"}]}]},
                     id="bad-access-direction"),
    ],
)
def test_overlay_input_errors_exit_2_with_one_line(tmp_path, doc, request):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for command in ("scan", "whatif"):
        code, out, err = run_cli(cloud_minimal_args(command, "--overlay", str(overlay)))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if request.node.callspec.id in OVERLAY_ERRORS:
            assert err == f"error: {OVERLAY_ERRORS[request.node.callspec.id]}\n"


def test_an_overlay_that_replaces_one_spec_twice_is_rejected(tmp_path):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"replace_algorithms": [
        {"from": "RSA[1024]", "to": "RSA[2048]"}, {"from": "RSA[1024]", "to": "ML-KEM[768]"}]}))
    code, out, err = run_cli(cloud_args_default_registry("scan", "--overlay", str(overlay)))
    assert (code, out, err) == (2, "", "error: RSA[1024] is replaced by both RSA[2048] and ML-KEM[768]\n")

    # two spellings of one target are the same replacement
    overlay.write_text(json.dumps({"replace_algorithms": [
        {"from": "RSA[1024]", "to": "RSA[2048]"}, {"from": "RSA[1024.0]", "to": "RSA[2048.0]"}]}))
    code, out, _ = run_cli(cloud_args_default_registry("scan", "--overlay", str(overlay)))
    assert code == 0 and "0 findings" in out


def test_an_overlay_cannot_add_an_access_record(tmp_path):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"add_records": [{"record_kind": "access", "id": "WWW1"}]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    assert (code, out, err) == (2, "", "error: bad added record: cannot add records of kind 'access'\n")


def test_an_overlay_record_of_an_unknown_kind_is_fatal(tmp_path):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"add_records": [{"record_kind": "widget", "id": "W1"}]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    assert (code, out, err) == (2, "", "error: bad added record: unknown record_kind 'widget'\n")


#: the error line of the cases above whose wording is pinned, by case id, after ``error: ``
OVERLAY_ERRORS = {
    "unknown-field": "bad added record: data record 'D9' has unknown key 'storage_location'; "
                     "expected record_kind, id, storage_locations, classification, retention_years, name, source",
    "accesses-string": "bad added record: the accesses of 'Z' must be a list of objects with target, direction "
                       "and origin",
    "accesses-strings": "bad added record: the accesses of 'Z' must be a list of objects with target, direction "
                        "and origin",
    "crypto-field-on-data": "bad added record: data record 'Audit1' has unknown key 'location'; "
                            "expected record_kind, id, storage_locations, classification, retention_years, name, "
                            "source",
    "accesses-on-data": "bad added record: data record 'Audit1' has unknown key 'accesses'; "
                        "expected record_kind, id, storage_locations, classification, retention_years, name, source",
    "object-type-on-asset": "bad added record: asset record 'Z' has unknown key 'object_type'; "
                            "expected record_kind, id, kind, accesses, serves, name, source",
    "kind-on-crypto": "bad added record: crypto record 'K9' has unknown key 'kind'; expected record_kind, id, "
                      "object_type, location, key_locations, algorithm, config_flags, matched_key, issuer_cert, "
                      "created_by, name, source",
    "id-on-classification": "bad added record: classification record 'Internal' has unknown key 'id'; "
                            "expected record_kind, label, required, source",
    "required-null": "bad added record: classification 'Internal' needs a list of required levels",
    "unknown-access-field": "bad added record: an access of 'Z' has unknown key 'sorce'; "
                            "expected target, direction, origin, source",
    "unknown-level-field": "bad added record: a required level of 'Internal' has unknown key 'junk'; "
                           "expected dimension, value",
    "unknown-overlay-key": "the overlay has unknown key 'replace_algorithm'; "
                           "expected replace_algorithms, remove_records, add_records",
    "not-json": "the overlay is not valid JSON: Expecting value: line 1 column 1 (char 0)",
    "unknown-replacement-key": "a replace_algorithms entry has unknown key 'note'; expected from, to",
    "bad-access-origin": "bad added record: an access of 'Z' has origin 'field'; expected access-record, asset-field",
    "bad-access-direction": "bad added record: an access of 'Z' has direction 'sideways'; "
                            "expected two-way, read-only",
}


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


def test_an_overlay_that_removes_a_duplicate_reports_like_the_hand_edit(tmp_path):
    # the baseline's duplicate-id error belongs to rows the scenario deletes
    base, edited = tmp_path / "base", tmp_path / "edited"
    for directory in (base, edited):
        directory.mkdir()
        for name in CLOUD_FILES:
            (directory / name).write_text((CLOUD_MINIMAL / name).read_text())
    with open(base / "data.csv", "a") as fh:
        fh.write("Data2,DB1,High\nData2,WWW1,High\n")
    crypto = edited / "cryptoinventory.csv"
    crypto.write_text(crypto.read_text().replace("RSA,1024", "ML-KEM,768"))
    overlay = tmp_path / "fix.json"
    overlay.write_text(json.dumps({
        "remove_records": ["Data2"], "replace_algorithms": [{"from": "RSA[1024]", "to": "ML-KEM[768]"}],
    }))
    code, _, err = run_cli(["scan", *[base / name for name in CLOUD_FILES], "--paper-defaults"])
    assert code == 1 and "error: data.csv: duplicate-id: data id 'Data2'" in err

    hand_code, hand_out, hand_err = run_cli(["scan", *[edited / name for name in CLOUD_FILES], "--paper-defaults"])
    assert hand_code == 0 and "0 findings" in hand_out.splitlines()
    for command in ("scan", "whatif"):
        args = [command, *[base / name for name in CLOUD_FILES], "--paper-defaults", "--overlay", overlay]
        code, _, err = run_cli(args)
        assert (code, err) == (hand_code, hand_err), command


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
        # a misspelt key would otherwise leave its default in force without a word
        ("--policy", {"longevity_multipler": 3},
         "a policy has unknown key 'longevity_multipler'; expected class_weights, longevity_multiplier"),
        ("--policy", {"weights": {"PQC": 2}},
         "a policy has unknown key 'weights'; expected class_weights, longevity_multiplier"),
        ("--horizon", {"migration_years": 5, "quantum_horizon": 20},
         "a horizon has unknown key 'quantum_horizon'; expected migration_years, quantum_horizon_years"),
        ("--policy", "not json", "a policy is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("--policy", {"class_weights": {"PQC": 2, "Bogus": 2}},
         "class_weights has unknown key 'Bogus'; "
         "expected EllipticCurve, IntegerFactoring, SymmetricSearch, PQC, HashBased, Unknown"),
    ],
)
def test_policy_and_horizon_shape_errors_exit_2_with_one_line(tmp_path, flag, doc, message):
    path = tmp_path / "settings.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    what = flag.lstrip("-")
    code, out, err = run_cli(cloud_minimal_args("scan", flag, str(path)))
    assert code == 2
    assert out == ""
    assert err == f"error: bad {what} file {path}: {message}\n"


@pytest.mark.parametrize(
    "command,extra",
    [("scan", ["--format", "json"]), ("scan", []), ("whatif", ["--overlay", str(GOLDEN / "overlay.json")])],
)
def test_a_policy_that_overflows_a_score_exits_2_with_one_line(tmp_path, command, extra):
    # a finite weight can still give an infinite score, which JSON cannot hold
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"class_weights": {"IntegerFactoring": 1e308}}))
    code, out, err = run_cli(hybrid_args(command, "--policy", str(path), *extra))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad policy file {path}: its weights give finding ")
    assert err.endswith(" the score inf, which is not a finite number\n")
    assert err.count("\n") == 1


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
        ({"record_kind": "data", "id": "D-neg", "retention_years": -5},
         "retention for 'D-neg' must be a non-negative number, got -5"),
        ({"record_kind": "data", "id": "D-x", "retention_years": "abc"},
         "retention for 'D-x' must be a non-negative number, got 'abc'"),
        ({"record_kind": "data", "id": "D-x", "retention_years": [5]},
         "retention for 'D-x' must be a non-negative number, got [5]"),
        ({"record_kind": "asset", "id": "srv-x", "kind": "toaster"},
         "asset kind 'toaster' for 'srv-x' is not recognised"),
        ({"record_kind": "data", "id": "D-nan", "retention_years": float("nan")},
         "retention for 'D-nan' must be a non-negative number, got nan"),
    ],
)
def test_added_records_get_the_row_checks(tmp_path, record, message):
    """An entry the row reader rejects is a bad overlay.  A crypto field the
    entry's type takes no edge from, and a certificate without an algorithm,
    are the rule pass's errors, as for a row: the scan reports them and goes on."""
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"add_records": [record]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    if record["record_kind"] == "crypto":
        rule = "missing-algorithm" if "signature algorithm" in message else "field-not-applicable"
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error")] == [f"error: overlay: {rule}: {message}"]
        assert out.startswith("dependency scan")
        return
    assert code == 2
    assert out == ""
    assert err == f"error: bad added record: {message}\n"


def test_added_asset_kind_takes_the_csv_aliases(tmp_path):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"add_records": [{"record_kind": "asset", "id": "srv-x", "kind": "server"}]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--format", "dot", "--overlay", str(overlay)))
    assert code == 1
    assert "error" not in err
    nodes, _ = read_dot(out)
    assert "srv-x" in nodes


def test_unknown_object_type_gets_the_csv_message_in_both_paths(tmp_path):
    message = "object type 'hologram' for 'C9' is not one of the supported kinds"
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"add_records": [
        {"record_kind": "crypto", "id": "C9", "object_type": "hologram", "location": "WWW1"},
    ]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--overlay", str(overlay)))
    assert (code, out, err) == (2, "", f"error: bad added record: {message}\n")

    rows = (CLOUD_MINIMAL / "cryptoinventory.csv").read_text()
    edited = tmp_path / "cryptoinventory.csv"
    edited.write_text(rows.rstrip("\n") + "\nC9,WWW1,hologram,AES,128\n")
    args = cloud_minimal_args("validate")
    args[args.index(str(CLOUD_MINIMAL / "cryptoinventory.csv"))] = str(edited)
    _, out, _ = run_cli(args)
    assert f"bad-object-type: {message}" in out


@pytest.mark.parametrize(
    "profile,message",
    [
        ({"defaults": {"classification": ["High"]}},
         "default for 'classification' must be a string or a number, got ['High']"),
        ({"defaults": {"retention_years": None}},
         "default for 'retention_years' must be a string or a number, got None"),
        ({"inventory": ["data.csv"]}, "inventory must be a string, got ['data.csv']"),
    ],
)
def test_profile_values_that_are_not_strings_exit_2_with_one_line(tmp_path, profile, message):
    path = tmp_path / "profiles.json"
    entry = {"inventory": "data.csv", "kind": "data", "columns": {"ID": "id"}, **profile}
    path.write_text(json.dumps({"profiles": [entry]}))
    code, out, err = run_cli(cloud_minimal_args("scan", "--profiles", str(path)))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: profile #1: {message}\n"


def test_a_profile_role_its_kind_does_not_read_exits_2_with_one_line(tmp_path):
    # a data record has no creator: the column would be dropped without a word
    path = tmp_path / "profiles.json"
    entry = {"inventory": "data.csv", "kind": "data", "columns": {"ID": "id", "Owner": "created_by"}}
    path.write_text(json.dumps({"profiles": [entry]}))
    code, out, err = run_cli(cloud_minimal_args("validate", "--profiles", str(path)))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: profile #1: data records do not read the role 'created_by'\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        # a misspelt key would otherwise be dropped, here with its default
        ({"profiles": [{"inventory": "data.csv", "kind": "data", "columns": {"ID": "id"},
                        "default": {"retention_years": "30"}}]},
         "profile #1 has unknown key 'default'; expected inventory, kind, columns, defaults"),
        ({"profiles": [], "extra": 1}, "the profile document has unknown key 'extra'; expected profiles"),
        ("not json", "the profile document is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ({"profiles": [{"inventory": "data.csv", "kind": "data", "columns": ["ID"]}]},
         "profile #1: columns must be a JSON object, got ['ID']"),
    ],
    ids=["entry", "document", "not-json", "columns-list"],
)
def test_unknown_profile_keys_exit_2_with_one_line(tmp_path, doc, message):
    path = tmp_path / "profiles.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(cloud_minimal_args("scan", "--profiles", str(path)))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_added_certificate_fails_like_the_same_csv_row(tmp_path):
    rows = (CLOUD_MINIMAL / "cryptoinventory.csv").read_text()
    edited = tmp_path / "cryptoinventory.csv"
    edited.write_text(rows.rstrip("\n") + "\nC9,WWW1,certificate,,\n")
    args = cloud_minimal_args("validate")
    args[args.index(str(CLOUD_MINIMAL / "cryptoinventory.csv"))] = str(edited)
    _, out, _ = run_cli(args)
    message = "certificate 'C9' must name its signature algorithm"
    assert f"missing-algorithm: {message}" in out



@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "error: out of memory"),
        (RuntimeError("boom"), "error: internal error: RuntimeError: boom"),
    ],
    ids=["memory", "internal"],
)
@pytest.mark.parametrize("command", ["scan", "whatif", "graph"])
def test_running_out_of_memory_or_a_bug_exits_2_with_one_error_line(tmp_path, monkeypatch, exc, message, command):
    def build_graph(bundle, diagnostics):
        raise exc

    monkeypatch.setattr(cli, "build_graph", build_graph)
    overlay = tmp_path / "noop.json"
    overlay.write_text("{}")
    extra = ["--overlay", str(overlay)] if command == "whatif" else []
    code, out, err = run_cli(cloud_minimal_args(command, *extra))
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [message]
    assert err.endswith(message + "\n")


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

@pytest.mark.parametrize(
    "args,expected,loads",
    [
        (cloud_minimal_args("validate"), 0, True),
        (cloud_minimal_args("scan"), 1, True),
        (["scan", "missing.csv"], 2, True),
        (["scan", "--witnesses", "0", "missing.csv"], 2, False),  # argparse exits
    ],
    ids=["exit-0", "exit-1", "exit-2", "argparse"],
)
def test_main_sets_one_gc_policy_and_restores_the_callers(monkeypatch, args, expected, loads):
    during = []
    real_load = cli.load_bundle

    def load_bundle(*a, **k):
        during.append((gc.get_threshold(), gc.isenabled()))
        return real_load(*a, **k)

    monkeypatch.setattr(cli, "load_bundle", load_bundle)
    saved = gc.get_threshold()
    gc.set_threshold(1234, 5, 6)
    try:
        before = (gc.get_threshold(), gc.isenabled())
        code, _, _ = run_cli(args)
        after = (gc.get_threshold(), gc.isenabled())
    finally:
        gc.set_threshold(*saved)
    assert code == expected
    assert after == before
    assert during == [(cli._GC_THRESHOLDS, before[1])] * loads


def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert out.startswith("cryptodep ")


def test_python_dash_m_runs_the_cli():
    run = subprocess.run(
        [sys.executable, "-m", "cryptodep", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("cryptodep ")


def test_no_command_is_an_argparse_error():
    code, _, err = run_cli([])
    assert code == 2
    assert "command" in err


def test_hybrid_fixture_scans_with_a_finding():
    code, out, _ = run_cli(hybrid_args("scan"))
    assert code == 1
    assert "RSA[1024]" in out


def test_a_registry_chain_deeper_than_the_recursion_limit_scans(tmp_path):
    # P0[1] uses P1[1], which uses P2[1], ... 3,000 deep: the build expands
    # protocol members without recursing once per member
    for name in CLOUD_FILES:
        text = (CLOUD_MINIMAL / name).read_text()
        (tmp_path / name).write_text(text.replace("RSA,1024", "P0,1"))
    depth = 3000
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([
        {
            "name": f"P{i}",
            "configurations": [{
                "flags": ["1"], "security": 80, "NIST-approval": "not-NIST-approved",
                "uses": [f"P{i + 1}[1]"] if i + 1 < depth else [],
            }],
        }
        for i in range(depth)
    ]))
    args = [tmp_path / name for name in CLOUD_FILES] + ["--registry", registry, "--paper-defaults"]
    code, out, err = run_cli(["scan", *args, "--format", "json"])
    assert code in (0, 1)
    assert "Traceback" not in err
    assert json.loads(out)["graph_stats"]["edges_by_rule"]["P2"] == depth - 1
    code, out, err = run_cli(["graph", *args])
    assert code == 0
    assert "Traceback" not in err
    assert '"P0[1]" -> "P1[1]" [label="P2"];' in out
    assert f'"P{depth - 2}[1]" -> "P{depth - 1}[1]" [label="P2"];' in out



def live_while_rendering(monkeypatch, args, renderer, types) -> list[Counter]:
    """The objects of ``types`` alive each time ``renderer`` is called, by
    type name.  Objects that other tests left alive are held, so that no id
    is reused, and left out."""
    gc.collect()
    earlier = [o for o in gc.get_objects() if isinstance(o, types)]
    known = {id(o) for o in earlier}
    live = []
    render = getattr(cli, renderer)

    def counting_render(*a, **k):
        live.append(Counter(
            type(o).__name__ for o in gc.get_objects() if isinstance(o, types) and id(o) not in known
        ))
        return render(*a, **k)

    monkeypatch.setattr(cli, renderer, counting_render)
    code, _, err = run_cli(args)
    assert code in (0, 1), err
    return live


@pytest.mark.parametrize(
    "command, renderer",
    [
        (["scan", "--format", "json"], "render_json"),
        (["scan", "--format", "json", "--overlay"], "render_json"),
        (["whatif", "--format", "json", "--overlay"], "render_whatif_json"),
        (["graph"], "render_dot"),
    ],
    ids=["scan", "scan-overlay", "whatif", "graph"],
)
def test_the_records_do_not_outlive_the_build(tmp_path, monkeypatch, command, renderer):
    overlay = tmp_path / "fix.json"
    overlay.write_text(CLEARING_OVERLAY)
    args = cloud_args_default_registry(*command, *([str(overlay)] if command[-1] == "--overlay" else []))
    assert live_while_rendering(monkeypatch, args, renderer, (AssetRecord, CryptoObjectRecord)) == [Counter()]


@pytest.mark.parametrize(
    "command, renderer, graphs",
    [
        (["scan", "--format", "json"], "render_json", 0),
        (["scan"], "render_text", 0),
        (["whatif", "--format", "json", "--overlay"], "render_whatif_json", 0),
        (["scan", "--format", "dot"], "render_dot", 1),
        (["graph"], "render_dot", 1),
    ],
    ids=["scan-json", "scan-text", "whatif-json", "scan-dot", "graph"],
)
def test_only_dot_keeps_the_graph_while_rendering(tmp_path, monkeypatch, command, renderer, graphs):
    # the report carries what the text and JSON renderers read, so the graph,
    # its index and the data records the scores came from are gone by then
    overlay = tmp_path / "fix.json"
    overlay.write_text(CLEARING_OVERLAY)
    args = cloud_args_default_registry(*command, *([str(overlay)] if command[-1] == "--overlay" else []))
    live = live_while_rendering(monkeypatch, args, renderer, (DependencyGraph, DataRecord))
    assert live == [Counter(DependencyGraph=graphs)]  # a zero count equals a missing one


# --------------------------------------------------------------------------
# a report stdout cannot take
# --------------------------------------------------------------------------

# Buffered, the failure surfaces in the final flush; unbuffered, in a write.
BUFFERING = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])


def run_cli_process(args, stdout, unbuffered: str, **env: str) -> tuple[int, str]:
    """Run the CLI in a child process with ``stdout`` as its standard
    output; returns the exit code and stderr."""
    run = subprocess.run(
        [sys.executable, "-m", "cryptodep.cli", *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered, **env},
    )
    return run.returncode, run.stderr


def assert_one_write_error(code: int, err: str, reason: str) -> None:
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: cannot write the report: {reason}")
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@BUFFERING
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_report_to_a_full_device_exits_2_with_one_line(unbuffered):
    with open("/dev/full", "w") as full:
        code, err = run_cli_process(cloud_minimal_args("scan"), full, unbuffered)
    assert_one_write_error(code, err, "[Errno 28] No space left on device")


@BUFFERING
@pytest.mark.parametrize("command", ["scan", "graph", "validate"])
def test_a_report_to_a_closed_pipe_exits_2_with_one_line(command, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = run_cli_process(cloud_minimal_args(command), write_end, unbuffered)
    finally:
        os.close(write_end)
    assert_one_write_error(code, err, "[Errno 32] Broken pipe")


@pytest.mark.parametrize("command", ["scan", "validate"])
def test_a_report_to_a_closed_stdout_exits_2_with_one_line(command):
    run = subprocess.run(
        [sys.executable, "-m", "cryptodep.cli", *cloud_minimal_args(command)],
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=lambda: os.close(1),
    )
    assert_one_write_error(run.returncode, run.stderr, "stdout is closed")


@BUFFERING
def test_a_report_stdout_cannot_encode_exits_2_with_one_line(unbuffered):
    # the text report joins a witness path with "→"
    code, err = run_cli_process(hybrid_args("scan"), subprocess.DEVNULL, unbuffered, PYTHONIOENCODING="ascii")
    assert_one_write_error(code, err, "'ascii' codec can't encode character '\\u2192'")


# --------------------------------------------------------------------------
# what a CLI process loads
# --------------------------------------------------------------------------

# Runs one command in a fresh interpreter and prints whether OpenSSL's
# hashlib backend was loaded before cryptodep was imported and after the run.
LOADS_OPENSSL = """
import io, json, sys
from contextlib import redirect_stdout
bare = "_hashlib" in sys.modules
from cryptodep import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([bare, code, "_hashlib" in sys.modules]))
"""


@pytest.mark.parametrize(
    "args",
    [
        cloud_minimal_args("scan"),
        hybrid_args("whatif", "--overlay", str(GOLDEN / "overlay.json")),
        cloud_minimal_args("graph"),
        cloud_minimal_args("validate"),
    ],
    ids=["scan", "whatif", "graph", "validate"],
)
def test_no_command_loads_openssl(args):
    # a count, not a timing: libcrypto keeps about 3.4 MB resident once loaded
    run = subprocess.run(
        [sys.executable, "-c", LOADS_OPENSSL, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    bare, code, loaded = json.loads(run.stdout)
    if bare:
        pytest.skip("this interpreter loads _hashlib at startup")
    assert code in (0, 1), run.stderr
    assert not loaded
