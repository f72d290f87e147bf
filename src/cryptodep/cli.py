"""Command-line interface.

Four subcommands share one pipeline: ``scan`` (ingest, build, analyse,
report), ``whatif`` (scan twice, once with an overlay, and diff), ``graph``
(ingest, build, emit DOT), and ``validate`` (ingest and consistency checks
only).

Exit codes are the machine contract: 0 for a clean run, 1 when findings or
error diagnostics exist, 2 for fatal problems (unreadable or undecodable
files, bad profiles or overlays).  Stdout carries the report and nothing else;
diagnostics and errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    HorizonConfig,
    Overlay,
    OverlayError,
    ScoringPolicy,
    apply_overlay,
    find_violations,
    parse_overlay,
)
from .ingest import (
    DEFAULT_REGISTRY_LABEL,
    Diagnostic,
    IngestError,
    Severity,
    default_registry_text,
    file_digest,  # not called here: benchmark/traced.py wraps it by this name
    load_bundle,
    parse_profiles_text,
    parse_registry_text,
    read_input,
    text_digest,
    validate_bundle,
)
from .model import InventoryBundle
from .report import (
    make_report,
    render_dot,
    render_json,
    render_text,
    render_whatif_json,
    render_whatif_text,
)
from .rules import build_graph

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2


class _Fatal(Exception):
    """Internal: unwinds to main() which prints the message and exits 2."""


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptodep",
        description="Trace quantum-unsafe reliance chains through enterprise "
        "inventories of data, assets, and cryptographic objects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("inventories", nargs="+", metavar="FILE", help="inventory CSV files")
        p.add_argument("--profiles", metavar="PATH", help="mapping profile JSON")
        p.add_argument("--registry", metavar="PATH", help="algorithm registry JSON")
        p.add_argument(
            "--paper-defaults",
            action="store_true",
            help="match the bundled four-file cloud example profiles by filename",
        )

    def analysis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--policy", metavar="PATH", help="scoring policy JSON")
        p.add_argument("--horizon", metavar="PATH", help="longevity horizon JSON")
        p.add_argument(
            "--witnesses",
            type=_at_least_one,
            default=1,
            metavar="N",
            help="witness paths reported per violating level pair (default 1)",
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "-v", "--verbose", dest="verbosity", action="store_const", const=2, default=1,
            help="show rule trails with record provenance",
        )
        group.add_argument(
            "-q", "--quiet", dest="verbosity", action="store_const", const=0,
            help="summary lines only",
        )

    p_scan = sub.add_parser("scan", help="find reliance violations")
    common(p_scan)
    analysis_flags(p_scan)
    p_scan.add_argument(
        "--format", choices=("text", "json", "dot"), default="text", help="output format"
    )
    p_scan.add_argument("--overlay", metavar="PATH", help="apply a what-if overlay before scanning")

    p_whatif = sub.add_parser("whatif", help="compare baseline against an overlay scenario")
    common(p_whatif)
    analysis_flags(p_whatif)
    p_whatif.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_whatif.add_argument("--overlay", metavar="PATH", required=True, help="scenario overlay JSON")

    p_graph = sub.add_parser("graph", help="emit the dependency graph as DOT")
    common(p_graph)

    p_validate = sub.add_parser("validate", help="check inventories without scanning")
    common(p_validate)

    return parser


# --------------------------------------------------------------------------
# shared pipeline pieces
# --------------------------------------------------------------------------

def _load_inputs(args) -> tuple[InventoryBundle, list[Diagnostic], dict[str, str]]:
    """The bundle, its load diagnostics (registry, parsing, assembly), and
    the input digests.  Validation runs on the bundle that gets used."""
    digests: dict[str, str] = {}

    profiles = []
    if args.profiles:
        text, digests[args.profiles] = read_input(args.profiles, "profile file")
        profiles = parse_profiles_text(text, args.profiles)

    if args.registry:
        text, digests[args.registry] = read_input(args.registry, "registry file")
        registry, registry_diags = parse_registry_text(text, Path(args.registry).name)
    else:
        text = default_registry_text()
        digests[DEFAULT_REGISTRY_LABEL] = text_digest(text)
        registry, registry_diags = parse_registry_text(text, DEFAULT_REGISTRY_LABEL)

    bundle, diags = load_bundle(
        args.inventories,
        profiles=profiles,
        registry=registry,
        use_builtin_profiles=args.paper_defaults,
    )
    digests.update(bundle.input_digests)
    return bundle, registry_diags + diags, digests


def _load_settings(path: str | None, what: str, settings):
    """``settings`` (ScoringPolicy or HorizonConfig) from the JSON file at
    ``path``, or its defaults without one; a malformed file is fatal."""
    if not path:
        return settings()
    text, _ = read_input(path, f"{what} file")
    try:
        return settings.from_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise _Fatal(f"bad {what} file {path}: {exc}") from None


def _load_overlay(args, digests: dict[str, str]) -> Overlay:
    text, digests[args.overlay] = read_input(args.overlay, "overlay file")
    return parse_overlay(text)


def _overlaid(bundle, diagnostics, overlay):
    """The overlaid bundle and its diagnostics before validation: the load
    diagnostics plus those of assembling the edit, each printed once."""
    overlaid, overlay_diags = apply_overlay(bundle, overlay)
    seen = set(diagnostics)
    return overlaid, diagnostics + [d for d in overlay_diags if d not in seen]


def _emit_diagnostics(diagnostics) -> None:
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)


def _has_errors(diagnostics) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def _scan(bundle, diagnostics, policy, horizon, witnesses, digests):
    """Validate, build, detect and report; returns the graph and the report."""
    diagnostics = diagnostics + validate_bundle(bundle)
    graph = build_graph(bundle)
    findings, analysis_diags = find_violations(
        graph, bundle, policy, horizon, max_witnesses=witnesses
    )
    report = make_report(graph, findings, diagnostics + analysis_diags, policy, horizon, digests)
    return graph, report


def _exit_code(report) -> int:
    if report.findings or _has_errors(report.diagnostics):
        return EXIT_FINDINGS
    return EXIT_CLEAN


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_scan(args) -> int:
    bundle, diagnostics, digests = _load_inputs(args)
    policy = _load_settings(args.policy, "policy", ScoringPolicy)
    horizon = _load_settings(args.horizon, "horizon", HorizonConfig)

    if args.overlay:
        bundle, diagnostics = _overlaid(bundle, diagnostics, _load_overlay(args, digests))

    graph, report = _scan(bundle, diagnostics, policy, horizon, args.witnesses, digests)

    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "dot":
        sys.stdout.write(render_dot(graph, highlight=list(report.findings)))
    else:
        sys.stdout.write(render_text(report, verbosity=args.verbosity))
    _emit_diagnostics(report.diagnostics)
    return _exit_code(report)


def cmd_whatif(args) -> int:
    bundle, diagnostics, digests = _load_inputs(args)
    policy = _load_settings(args.policy, "policy", ScoringPolicy)
    horizon = _load_settings(args.horizon, "horizon", HorizonConfig)
    overlaid, over_diags = _overlaid(bundle, diagnostics, _load_overlay(args, digests))

    # one graph at a time: the baseline's is dropped before the scenario's is built
    baseline = _scan(bundle, diagnostics, policy, horizon, args.witnesses, digests)[1]
    scenario = _scan(overlaid, over_diags, policy, horizon, args.witnesses, digests)[1]

    if args.format == "json":
        sys.stdout.write(render_whatif_json(baseline, scenario))
    else:
        sys.stdout.write(render_whatif_text(baseline, scenario, verbosity=args.verbosity))
    _emit_diagnostics(scenario.diagnostics)
    return _exit_code(scenario)


def cmd_graph(args) -> int:
    bundle, diagnostics, _ = _load_inputs(args)
    diagnostics += validate_bundle(bundle)
    graph = build_graph(bundle)
    sys.stdout.write(render_dot(graph))
    _emit_diagnostics(diagnostics)
    return EXIT_CLEAN


def cmd_validate(args) -> int:
    bundle, diagnostics, _ = _load_inputs(args)
    diagnostics += validate_bundle(bundle)
    for diag in diagnostics:
        print(diag.render())
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    records = (
        len(bundle.classifications)
        + len(bundle.data)
        + len(bundle.assets)
        + len(bundle.crypto_objects)
    )
    print(f"{records} records, {errors} errors, {warnings} warnings")
    return EXIT_FINDINGS if errors else EXIT_CLEAN


_COMMANDS = {
    "scan": cmd_scan,
    "whatif": cmd_whatif,
    "graph": cmd_graph,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (_Fatal, IngestError, OverlayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
