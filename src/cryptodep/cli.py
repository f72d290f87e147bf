"""Command-line interface.

Four subcommands share one pipeline: ``scan`` (ingest, build, analyse,
report), ``whatif`` (scan twice, once with an overlay, and diff), ``graph``
(ingest, build, emit DOT), and ``validate`` (ingest and the rule pass,
without a graph).

Exit codes are the machine contract: 0 for a clean run, 1 when findings or
error diagnostics exist, 2 for fatal problems (unreadable or undecodable
files, bad profiles or overlays, a report stdout cannot take, running out
of memory, an internal error).  Stdout carries the report and nothing else;
diagnostics and errors go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
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
    IngestError,
    file_digest,  # not called here: benchmark/traced.py wraps it by this name
    load_bundle,
    parse_profiles_text,
    read_input,
    text_digest,
)
from .model import Diagnostic, InventoryBundle, Severity
from .registry import DEFAULT_REGISTRY_LABEL, default_registry_text, parse_registry_text
from .report import (
    make_report,
    render_dot,
    render_json,
    render_text,
    render_whatif_json,
    render_whatif_text,
)
from .rules import build_graph, validate_bundle

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2


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

def _load_inputs(args) -> tuple[InventoryBundle, list[Diagnostic], list[Diagnostic], dict[str, str]]:
    """The bundle, the diagnostics of reading its inputs (registry and
    parsing, whose diagnostics name a line), those of assembling it, and the
    input digests.  An overlay assembles its edit anew, and its diagnostics
    replace the assembly's.  The rules run on the bundle that gets used."""
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
    parsing = [d for d in diags if d.line is not None]
    return bundle, registry_diags + parsing, [d for d in diags if d.line is None], digests


def _load_settings(path: str | None, what: str, settings):
    """``settings`` (ScoringPolicy or HorizonConfig) from the JSON file at
    ``path``, or its defaults without one; a malformed file is fatal."""
    if not path:
        return settings()
    text, _ = read_input(path, f"{what} file")
    try:
        return settings.from_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"bad {what} file {path}: {exc}") from None


def _load_overlay(args, digests: dict[str, str]) -> Overlay:
    text, digests[args.overlay] = read_input(args.overlay, "overlay file")
    return parse_overlay(text)


def _emit_diagnostics(diagnostics) -> None:
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)


def _build(bundle, diagnostics):
    """Run the rules once; returns the graph, the bundle's scoring view and
    ``diagnostics`` with those of the rules appended.  The view keeps only
    what scoring reads, the classifications and the data, so a caller that
    rebinds its bundle to it lets the records go before detection and
    rendering."""
    graph = build_graph(bundle, diagnostics)
    return graph, InventoryBundle(classifications=bundle.classifications, data=bundle.data), diagnostics


def _detect(args, graph, bundle, diagnostics, policy, horizon, digests):
    """Detect and report on a built graph.  Only a policy's weights can
    overflow a score, so that is fatal."""
    try:
        findings, analysis_diags = find_violations(graph, bundle, policy, horizon, max_witnesses=args.witnesses)
    except OverflowError as exc:
        raise IngestError(f"bad policy file {args.policy}: {exc}") from None
    return make_report(graph, findings, diagnostics + analysis_diags, policy, horizon, digests)


class _UnwritableReport(Exception):
    """Stdout refused the report: a closed pipe, a full device, or a
    character its encoding lacks."""


@contextmanager
def _writing_report():
    """Turns a failed write to stdout into ``_UnwritableReport``.  A broken
    stdout is pointed at the null device first, so that the flush at exit
    does not meet the same error again."""
    if sys.stdout is None:  # the process started with descriptor 1 closed
        raise _UnwritableReport("stdout is closed")
    try:
        yield
    except (OSError, UnicodeEncodeError) as exc:
        if isinstance(exc, OSError):
            _point_stdout_at_null()
        raise _UnwritableReport(exc) from None


def _point_stdout_at_null() -> None:
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor behind it
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _exit_code(report) -> int:
    if report.findings or any(d.severity is Severity.ERROR for d in report.diagnostics):
        return EXIT_FINDINGS
    return EXIT_CLEAN


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_scan(args) -> int:
    bundle, diagnostics, assembly_diags, digests = _load_inputs(args)
    policy = _load_settings(args.policy, "policy", ScoringPolicy)
    horizon = _load_settings(args.horizon, "horizon", HorizonConfig)

    if args.overlay:
        bundle, assembly_diags = apply_overlay(bundle, _load_overlay(args, digests))

    graph, bundle, diagnostics = _build(bundle, diagnostics + assembly_diags)
    report = _detect(args, graph, bundle, diagnostics, policy, horizon, digests)
    del bundle  # the renderers read the report, and only DOT draws the graph
    if args.format != "dot":
        del graph

    with _writing_report():
        if args.format == "json":
            render_json(report, sys.stdout)
        elif args.format == "dot":
            render_dot(graph, sys.stdout, highlight=list(report.findings))
        else:
            render_text(report, sys.stdout, verbosity=args.verbosity)
    _emit_diagnostics(report.diagnostics)
    return _exit_code(report)


def cmd_whatif(args) -> int:
    bundle, read_diags, assembly_diags, digests = _load_inputs(args)
    policy = _load_settings(args.policy, "policy", ScoringPolicy)
    horizon = _load_settings(args.horizon, "horizon", HorizonConfig)
    overlaid, over_diags = apply_overlay(bundle, _load_overlay(args, digests))

    # each side's bundle goes once its graph is built (the rows the two
    # share go with the scenario's), and each side's graph and view go once
    # its report is made, so neither sits under the next build or the render
    graph, bundle, diagnostics = _build(bundle, read_diags + assembly_diags)
    baseline = _detect(args, graph, bundle, diagnostics, policy, horizon, digests)
    del graph, bundle
    graph, overlaid, over_diags = _build(overlaid, read_diags + over_diags)
    scenario = _detect(args, graph, overlaid, over_diags, policy, horizon, digests)
    del graph, overlaid

    with _writing_report():
        if args.format == "json":
            render_whatif_json(baseline, scenario, sys.stdout)
        else:
            render_whatif_text(baseline, scenario, sys.stdout, verbosity=args.verbosity)
    _emit_diagnostics(scenario.diagnostics)
    return _exit_code(scenario)


def cmd_graph(args) -> int:
    bundle, diagnostics, assembly_diags, _ = _load_inputs(args)
    graph, bundle, diagnostics = _build(bundle, diagnostics + assembly_diags)
    del bundle
    with _writing_report():
        render_dot(graph, sys.stdout)
    _emit_diagnostics(diagnostics)
    return EXIT_CLEAN


def cmd_validate(args) -> int:
    bundle, diagnostics, assembly_diags, _ = _load_inputs(args)
    diagnostics += assembly_diags + validate_bundle(bundle)
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    records = (
        len(bundle.classifications)
        + len(bundle.data)
        + len(bundle.assets)
        + len(bundle.crypto_objects)
    )
    with _writing_report():
        for diag in diagnostics:
            print(diag.render())
        print(f"{records} records, {errors} errors, {warnings} warnings")
    return EXIT_FINDINGS if errors else EXIT_CLEAN


_COMMANDS = {
    "scan": cmd_scan,
    "whatif": cmd_whatif,
    "graph": cmd_graph,
    "validate": cmd_validate,
}


# A run keeps nearly every object it allocates (records, vertices, edges)
# until it ends.  Under the default thresholds (700, 10, 10) cyclic GC runs
# every 700 net allocations and rescans the older generations, which hold
# all of them, again and again: a third of a 100k-row scan.
_GC_THRESHOLDS = (100_000, 50, 100)


def main(argv: list[str] | None = None) -> int:
    saved = gc.get_threshold()
    gc.set_threshold(*_GC_THRESHOLDS)
    try:
        args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        with _writing_report():
            sys.stdout.flush()
        return code
    except (IngestError, OverlayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except _UnwritableReport as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_FATAL
    except Exception as exc:  # a bug: the traceback is for its report, and 1 would read as findings
        import traceback  # here, so that a run that does not fail does not pay for the import

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        gc.set_threshold(*saved)


if __name__ == "__main__":
    sys.exit(main())
