"""The cryptodep benchmark.

Usage:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inventories
from the seed, times the real ``cryptodep`` CLI in fresh processes for about
S seconds (whole rounds of the workload's commands), checks every output
against computations made apart from the program, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` each round also runs every
command once more through ``traced.py`` and the metrics are the per-layer
ones.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SAMPLE = ROOT / "sample_inventories" / "cloud_minimal"
WORK = HERE / "work"
REGISTRY_FILE = "default_registry.json"
CLI = [sys.executable, "-c", "import sys; from cryptodep.cli import main; sys.exit(main())"]
SETUP_SAMPLES = 11


@dataclass(frozen=True)
class Workload:
    data: int
    assets: int
    crypto: int
    access: int
    witnesses: int
    whatif: bool = False
    rsa_uses: int = 0


WORKLOADS = {
    # ingest, build_graph and GC dominate; few findings, so scoring and
    # rendering do almost nothing
    "scan_100k": Workload(33_000, 33_000, 33_000, 1_000, witnesses=1),
    # detection, scoring and JSON rendering dominate; ingest is small
    "witness_20k": Workload(6_600, 6_600, 6_600, 200, witnesses=1000),
    # one ingest feeds two builds and detections plus an overlay edit
    "whatif_20k": Workload(6_600, 6_600, 6_600, 200, witnesses=1, whatif=True, rsa_uses=300),
}


@dataclass
class Op:
    name: str
    args: list[str]
    inventory: str = "original"  # the key of the inputs its scenario should equal


ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def execute(argv: list[str], out_path: Path) -> tuple[float, float, int]:
    """Spawn, wait, and return (wall seconds, peak RSS in MB, exit code)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_seconds(work: Path) -> list[float]:
    files = [str(SAMPLE / f) for f in ("classifications.csv", "data.csv", "cloudconfig.csv", "cryptoinventory.csv")]
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code = execute(CLI + ["validate", *files, "--paper-defaults"], work / "validate.out")
        if code != 0:
            raise SystemExit(f"validate on {SAMPLE} exited {code}")
        walls.append(wall)
    return walls


def prepare(workload: Workload, seed: int, work: Path):
    tables = gen.make_tables(
        seed, workload.data, workload.assets, workload.crypto, workload.access, workload.rsa_uses
    )
    inputs = {"original": (tables, gen.write_tables(work / "original", tables))}
    common = ["--profiles", str(work / "original" / "profiles.json"), "--paper-defaults"]
    if not workload.whatif:
        args = ["scan", *inputs["original"][1], *common, "--witnesses", str(workload.witnesses), "--format", "json"]
        return inputs, [Op("scan", args)]
    ops = []
    for name, old, new in gen.OVERLAYS:
        overlay = work / f"overlay-{name}.json"
        gen.write_overlay(overlay, old, new)
        edited = gen.replace_algorithm(tables, old, new)
        inputs[name] = (edited, gen.write_tables(work / f"edited-{name}", edited))
        args = ["whatif", *inputs["original"][1], *common, "--overlay", str(overlay), "--format", "json"]
        ops.append(Op(f"whatif-{name}", args, name))
    return inputs, ops


# --------------------------------------------------------------------------
# checks, run after the timed region
# --------------------------------------------------------------------------

def build_view(paths: list[str]):
    from cryptodep import build_graph, load_bundle, load_default_registry, parse_profiles

    profiles = parse_profiles(str(Path(paths[0]).parent / "profiles.json"))
    bundle, _ = load_bundle(paths, profiles=profiles, registry=load_default_registry(), use_builtin_profiles=True)
    return checks.GraphView(build_graph(bundle))


def expected_exit(report: dict) -> int:
    return 1 if report["findings"] else 0


def parse_output(code: int, data: bytes) -> dict | None:
    """The JSON a command printed, or None when it crashed or printed none."""
    if code not in (0, 1):
        return None
    try:
        return json.loads(data)
    except ValueError:
        return None


def run_checks(workload: Workload, inputs, ops, outputs, work: Path) -> tuple[list[str], set[str]]:
    """(problems, names of failed operations) for the first round's outputs,
    given as op name -> (exit code, stdout)."""
    gc.disable()  # the checker's own graphs need no cycle collection
    problems: list[str] = []
    failed: set[str] = set()
    tables, paths = inputs["original"]
    sources = gen.written_sources(tables)
    view = build_view(paths)
    problems += checks.check_provenance(view, sources, REGISTRY_FILE)
    witnesses = workload.witnesses

    if not workload.whatif:
        code, data = outputs["scan"]
        report = parse_output(code, data)
        if report is None:
            return problems, {"scan"}
        problems += checks.check_report(report, view, witnesses, sources, REGISTRY_FILE)
        if code != expected_exit(report):
            problems.append(f"scan exited {code}")
        problems += checks.self_test(report, view, witnesses, sources, REGISTRY_FILE)
        return problems, failed

    plain_args = ["scan", *paths, "--profiles", str(Path(paths[0]).parent / "profiles.json"),
                  "--paper-defaults", "--format", "json"]
    _, _, code = execute(CLI + plain_args, work / "plain-scan.json")
    plain = parse_output(code, (work / "plain-scan.json").read_bytes())
    if plain is None or code != expected_exit(plain):
        return problems + [f"plain scan exited {code}"], failed
    problems += checks.check_report(plain, view, witnesses, sources, REGISTRY_FILE)
    problems += checks.self_test(plain, view, witnesses, sources, REGISTRY_FILE)
    for op in ops:
        code, data = outputs[op.name]
        doc = parse_output(code, data)
        if doc is None:
            failed.add(op.name)
            continue
        baseline, scenario = doc["baseline"], doc["scenario"]
        for key in ("findings", "diagnostics", "graph_stats"):
            if baseline[key] != plain[key]:
                problems.append(f"{op.name}: baseline {key} differs from a plain scan")
        edited_tables, edited_paths = inputs[op.inventory]
        edited = build_view(edited_paths)
        if not checks.same_graph_and_pairs(scenario, edited):
            failed.add(op.name)
            continue
        problems += [f"{op.name}: {p}" for p in checks.check_report(
            scenario, edited, witnesses, gen.written_sources(edited_tables), REGISTRY_FILE)]
        base_ids = {f["id"] for f in baseline["findings"]}
        over_ids = {f["id"] for f in scenario["findings"]}
        expected_diff = {
            "resolved": sorted(base_ids - over_ids),
            "introduced": sorted(over_ids - base_ids),
            "unchanged": sorted(base_ids & over_ids),
        }
        if doc["diff"] != expected_diff:
            problems.append(f"{op.name}: diff does not match the two finding sets")
        if code != expected_exit(scenario):
            problems.append(f"{op.name} exited {code}")
    return problems, failed


# --------------------------------------------------------------------------
# per-layer figures from the traced run
# --------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.import_s": "s", "ingest.registry_s": "s", "cli.digest_s": "s",
    "ingest.load_s": "s", "ingest.parse_s": "s", "ingest.parse_calls": "count",
    "ingest.rows": "count", "ingest.rows_per_s": "1/s", "ingest.validate_s": "s",
    "ingest.assemble_s": "s", "ingest.assemble_calls": "count",
    "rules.build_s": "s", "rules.build_calls": "count", "rules.vertices": "count",
    "rules.edges": "count", "rules.vertex_map_calls": "count", "rules.adjacency_calls": "count",
    "analysis.detect_s": "s", "analysis.score_s": "s", "analysis.score_calls": "count",
    "analysis.findings": "count", "analysis.overlay_s": "s",
    "report.make_s": "s", "report.render_s": "s", "report.output_bytes": "bytes",
    "gc.pause_s": "s", "gc.collections": "count", "gc.gen2_collections": "count",
    "heap.blocks_peak": "count", "trace.total_s": "s", "trace.overhead_s": "s",
}


def layer_figures(doc: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced command."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _parent, _op in doc["spans"]:
        busy[name] = busy.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    counts = doc["counts"]
    out = {
        "cli.import_s": doc["import_s"],
        "ingest.registry_s": busy.get("ingest.registry", 0.0),
        "cli.digest_s": busy.get("cli.digest", 0.0),
        "ingest.load_s": busy.get("ingest.load", 0.0),
        "ingest.parse_s": busy.get("ingest.parse", 0.0),
        "ingest.parse_calls": calls.get("ingest.parse", 0),
        "ingest.rows": counts.get("ingest.rows", 0),
        "ingest.validate_s": busy.get("ingest.validate", 0.0),
        "ingest.assemble_s": busy.get("ingest.assemble", 0.0),
        "ingest.assemble_calls": calls.get("ingest.assemble", 0),
        "rules.build_s": busy.get("rules.build", 0.0),
        "rules.build_calls": calls.get("rules.build", 0),
        "rules.vertices": counts.get("rules.vertices", 0),
        "rules.edges": counts.get("rules.edges", 0),
        "rules.vertex_map_calls": counts.get("rules.vertex_map_calls", 0),
        "rules.adjacency_calls": counts.get("rules.adjacency_calls", 0),
        "analysis.detect_s": busy.get("analysis.find", 0.0) - busy.get("analysis.score", 0.0),
        "analysis.score_s": busy.get("analysis.score", 0.0),
        "analysis.score_calls": calls.get("analysis.score", 0),
        "analysis.findings": counts.get("analysis.findings", 0),
        "analysis.overlay_s": busy.get("analysis.overlay", 0.0),
        "report.make_s": busy.get("report.make", 0.0),
        "report.render_s": busy.get("report.render", 0.0),
        "report.output_bytes": output_bytes,
        "gc.pause_s": sum(pause for _, pause in doc["gc_pauses"]),
        "gc.collections": len(doc["gc_pauses"]),
        "gc.gen2_collections": sum(1 for generation, _ in doc["gc_pauses"] if generation == 2),
        "heap.blocks_peak": doc["blocks_peak"],
    }
    return out


def round_layers(per_op: list[dict[str, float]], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Sum one round's commands; the heap peak is the largest single one."""
    total = {name: sum(fig[name] for fig in per_op) for name in per_op[0]}
    total["heap.blocks_peak"] = max(fig["heap.blocks_peak"] for fig in per_op)
    total["ingest.rows_per_s"] = total["ingest.rows"] / total["ingest.parse_s"] if total["ingest.parse_s"] else 0.0
    total["trace.total_s"] = traced_wall
    total["trace.overhead_s"] = traced_wall - untraced_wall
    return total


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="cryptodep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cryptodep" / "cli.py").is_file() or not SAMPLE.is_dir():
        print(f"error: no cryptodep sources under {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(SRC))

    inputs, ops = prepare(workload, args.seed, work)
    setup = setup_seconds(work)

    walls: list[float] = []
    rss: list[float] = []
    first: dict[str, tuple[int, bytes]] = {}  # op -> (exit code, stdout) of round 1
    problems: list[str] = []
    layers: list[dict[str, float]] = []
    trace_docs = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        round_walls, traced_walls, per_op = [], [], []
        for op in ops:
            out = work / f"{op.name}.out"
            wall, peak, code = execute(CLI + op.args, out)
            walls.append(wall)
            rss.append(peak)
            round_walls.append(wall)
            result = (code, out.read_bytes())
            if op.name not in first:
                first[op.name] = result
            elif result != first[op.name]:
                problems.append(f"{op.name}: round {rounds + 1} output differs from round 1")
            if args.trace:
                spans_path = work / f"{op.name}.r{rounds + 1}.spans.json"
                traced_out = work / f"{op.name}.traced.out"
                op_id = f"{op.name}#{rounds + 1}"
                twall, _, tcode = execute(
                    [sys.executable, str(HERE / "traced.py"), str(spans_path), str(traced_out), op_id, "--", *op.args],
                    traced_out.with_suffix(".log"),
                )
                if (tcode, traced_out.read_bytes()) != first[op.name]:
                    problems.append(f"{op.name}: traced output differs from the CLI's")
                doc = json.loads(spans_path.read_text(encoding="utf-8"))
                trace_docs.append({"op": op.name, "round": rounds + 1, **doc})
                per_op.append(layer_figures(doc, traced_out.stat().st_size))
                traced_walls.append(twall)
        if args.trace:
            layers.append(round_layers(per_op, sum(traced_walls), sum(round_walls)))
        rounds += 1

    check_problems, failed_ops = run_checks(workload, inputs, ops, first, work)
    problems += check_problems
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        (work / "trace.json").write_text(json.dumps(trace_docs), encoding="utf-8")
        metrics = {
            name: {"value": statistics.median(r[name] for r in layers), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} command walls " + " ".join(f"{w:.3f}" for w in walls))
    print(f"{args.workload} setup walls " + " ".join(f"{w:.3f}" for w in setup))
    print(f"{args.workload} rounds {rounds} commands {len(walls)} failed {rounds * len(failed_ops)}"
          + (f" ({', '.join(sorted(failed_ops))})" if failed_ops else ""))
    result = {
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed_ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
