"""Parsing of algorithm registries, which rate each primitive configuration.

A registry document lists algorithms, each with the configurations it is
rated in: flags, security bits, NIST approval, quantum safety, vulnerability
class and member primitives.  Malformed entries and values become
diagnostics; only an unreadable file or a document that is neither JSON nor
a Python literal raises :class:`IngestError`.
"""

from __future__ import annotations

import ast
import json
from importlib import resources
from pathlib import Path

from .ingest import IngestError, _named_source, read_input
from .model import (
    Configuration,
    CryptoRegistry,
    Diagnostic,
    RatingDimension,
    SecurityRating,
    Source,
    VulnerabilityClass,
    _error,
    _warning,
    normalise_flag,
    primitive_key,
    spec_key,
)

__all__ = [
    "DEFAULT_REGISTRY_LABEL",
    "default_registry_text",
    "load_default_registry",
    "parse_registry",
    "parse_registry_text",
]

DEFAULT_REGISTRY_LABEL = "default_registry.json"

_KNOWN_CONFIG_KEYS = {
    "flags", "security", "NIST-approval", "quantum-safety", "class",
    "break-qubits", "break-time", "uses", "source",
}

_CLASS_ALIASES = {
    "ellipticcurve": VulnerabilityClass.ELLIPTIC_CURVE,
    "elliptic-curve": VulnerabilityClass.ELLIPTIC_CURVE,
    "integerfactoring": VulnerabilityClass.INTEGER_FACTORING,
    "integer-factoring": VulnerabilityClass.INTEGER_FACTORING,
    "symmetricsearch": VulnerabilityClass.SYMMETRIC_SEARCH,
    "symmetric-search": VulnerabilityClass.SYMMETRIC_SEARCH,
    "pqc": VulnerabilityClass.PQC,
    "hashbased": VulnerabilityClass.HASH_BASED,
    "hash-based": VulnerabilityClass.HASH_BASED,
    "unknown": VulnerabilityClass.UNKNOWN,
}

#: a best-effort class for a configuration that names none, by algorithm family
_FAMILY_CLASSES = {
    "RSA": VulnerabilityClass.INTEGER_FACTORING,
    "DSA": VulnerabilityClass.INTEGER_FACTORING,
    "DH": VulnerabilityClass.INTEGER_FACTORING,
    "DIFFIE-HELLMAN": VulnerabilityClass.INTEGER_FACTORING,
    "ELGAMAL": VulnerabilityClass.INTEGER_FACTORING,
    "DL": VulnerabilityClass.ELLIPTIC_CURVE,
    "ECDSA": VulnerabilityClass.ELLIPTIC_CURVE,
    "ECDH": VulnerabilityClass.ELLIPTIC_CURVE,
    "EDDSA": VulnerabilityClass.ELLIPTIC_CURVE,
    "ED25519": VulnerabilityClass.ELLIPTIC_CURVE,
    "X25519": VulnerabilityClass.ELLIPTIC_CURVE,
    "AES": VulnerabilityClass.SYMMETRIC_SEARCH,
    "DES": VulnerabilityClass.SYMMETRIC_SEARCH,
    "3DES": VulnerabilityClass.SYMMETRIC_SEARCH,
    "CHACHA20": VulnerabilityClass.SYMMETRIC_SEARCH,
    "SHA-1": VulnerabilityClass.SYMMETRIC_SEARCH,
    "SHA-256": VulnerabilityClass.SYMMETRIC_SEARCH,
    "SHA-384": VulnerabilityClass.SYMMETRIC_SEARCH,
    "SHA-512": VulnerabilityClass.SYMMETRIC_SEARCH,
    "SHA-3": VulnerabilityClass.SYMMETRIC_SEARCH,
    "ML-KEM": VulnerabilityClass.PQC,
    "ML-DSA": VulnerabilityClass.PQC,
    "CRYSTALS-KYBER": VulnerabilityClass.PQC,
    "CRYSTALS-DILITHIUM": VulnerabilityClass.PQC,
    "KYBER": VulnerabilityClass.PQC,
    "DILITHIUM": VulnerabilityClass.PQC,
    "FALCON": VulnerabilityClass.PQC,
    "SPHINCS+": VulnerabilityClass.HASH_BASED,
    "XMSS": VulnerabilityClass.HASH_BASED,
    "LMS": VulnerabilityClass.HASH_BASED,
}


def parse_registry(path: str | Path) -> tuple[CryptoRegistry, list[Diagnostic]]:
    return parse_registry_text(read_input(path, "registry file")[0], Path(path).name)


def parse_registry_text(text: str, label: str) -> tuple[CryptoRegistry, list[Diagnostic]]:
    """Parse a registry document.

    Strict JSON is canonical; single-quoted relaxed documents are accepted
    via a Python-literal fallback.  The top level may be one entry object or
    a list of them.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        try:
            doc = ast.literal_eval(text)
        except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError) as exc:
            raise IngestError(f"{label}: registry is neither JSON nor a literal document: {exc}") from None
    entries = doc if isinstance(doc, list) else [doc]
    diags: list[Diagnostic] = []
    algorithms: dict[str, list[Configuration]] = {}
    seen: set[str] = set()
    for index, entry in enumerate(entries):
        configs = entry.get("configurations", []) if isinstance(entry, dict) else None
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(configs, list) or not isinstance(name, str) or not name.strip():
            _error(
                diags, label, None, "registry-entry-invalid",
                f"registry entry #{index + 1} has no usable name or configuration list and was skipped",
            )
            continue
        name = name.strip()
        for config_obj in configs:
            config = _parse_configuration(config_obj, name, label, diags)
            if config is None:
                continue
            key = primitive_key(name, config.flags)
            if key in seen:
                _error(diags, label, None, "duplicate-config", f"duplicate configuration {key}; first definition kept")
                continue
            seen.add(key)
            algorithms.setdefault(name, []).append(config)
    canonical = {
        name: tuple(sorted(configs, key=lambda c: sorted(c.flags)))
        for name, configs in sorted(algorithms.items())
    }
    return CryptoRegistry(canonical), diags


def _parse_configuration(obj, name: str, label: str, diags: list[Diagnostic]) -> Configuration | None:
    if not (
        isinstance(obj, dict)
        and all(isinstance(obj.get(k, []), list) for k in ("flags", "uses"))
        and all(isinstance(f, str) for f in obj.get("flags", []))
    ):
        return _error(
            diags, label, None, "registry-entry-invalid",
            f"configuration of {name!r} is not an object with a list of string flags "
            "and a list of uses, and was skipped",
        )
    for key in obj:
        if key not in _KNOWN_CONFIG_KEYS:
            _warning(
                diags, label, None, "unknown-registry-key",
                f"configuration of {name!r} carries unrecognised key {key!r}",
            )
    flags = tuple(normalise_flag(f) for f in obj.get("flags", []))
    config_key = primitive_key(name, flags)

    def unknown_value(message: str) -> None:
        _warning(diags, label, None, "unknown-registry-value", f"{config_key}: {message}")

    ratings: list[SecurityRating] = []
    security = obj.get("security")
    if security is not None:
        if isinstance(security, (int, float)) and not isinstance(security, bool) and 0 <= security < float("inf"):
            ratings.append(SecurityRating.bits(int(security)))
        else:
            unknown_value(f"security must be a non-negative number, got {security!r}")
    # each key reads a level of its own dimension only
    for key, dimension in (
        ("NIST-approval", RatingDimension.APPROVAL), ("quantum-safety", RatingDimension.QUANTUM_SAFETY)
    ):
        raw = obj.get(key)
        if raw is None:
            continue
        rating = SecurityRating.parse(str(raw))
        if rating is None or rating.dimension is not dimension:
            unknown_value(f"cannot interpret {key} value {raw!r}")
        else:
            ratings.append(rating)
    raw_class = obj.get("class")
    vuln = None if raw_class is None else _CLASS_ALIASES.get(str(raw_class).lower())
    if vuln is None:
        if raw_class is not None:
            unknown_value(f"unrecognised vulnerability class {raw_class!r}")
        vuln = _FAMILY_CLASSES.get(name.upper(), VulnerabilityClass.UNKNOWN)
    # break-qubits and break-time are accepted but not used
    qubits = obj.get("break-qubits")
    if qubits is not None and (not isinstance(qubits, (int, float)) or isinstance(qubits, bool)):
        unknown_value(f"break-qubits must be numeric, got {qubits!r}")
    uses: list[str] = []
    for spec in obj.get("uses", []):
        member = spec_key(spec) if isinstance(spec, str) else None
        if member is None:
            unknown_value(f"cannot parse member primitive {spec!r}")
        else:
            uses.append(member)
    return Configuration(
        flags=flags,
        ratings=tuple(sorted(ratings, key=lambda r: r.sort_key())),
        vulnerability_class=vuln,
        uses=tuple(sorted(uses)),
        source=_named_source(obj.get("source")) or Source(label, config_key),
    )


def default_registry_text() -> str:
    return resources.files("cryptodep.data").joinpath("default_registry.json").read_text("utf-8")


def load_default_registry() -> CryptoRegistry:
    registry, diags = parse_registry_text(default_registry_text(), DEFAULT_REGISTRY_LABEL)
    if diags:  # the shipped registry must always be clean
        raise IngestError(f"built-in registry is inconsistent: {diags[0].render()}")
    return registry
