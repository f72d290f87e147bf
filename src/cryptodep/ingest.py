"""Parsing and validation of inventory files, mapping profiles, and registries.

Tabular inventories arrive as CSV with a mandatory header row.  A mapping
profile assigns a role to each column so arbitrary real-world headers can be
consumed without code changes.  Parsing is total: malformed rows become
diagnostics, only unusable inputs (missing, undecodable or malformed files,
unparseable registries, broken profiles) raise :class:`IngestError`.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from pathlib import Path

from .model import (
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    Configuration,
    CryptoObjectRecord,
    CryptoObjectType,
    CryptoRegistry,
    DataRecord,
    Direction,
    InventoryBundle,
    RefOrigin,
    SecurityRating,
    Source,
    VulnerabilityClass,
    normalise_flag,
    parse_primitive_spec,
    primitive_key,
)

__all__ = [
    "Role",
    "RecordKind",
    "MappingProfile",
    "Severity",
    "Diagnostic",
    "IngestError",
    "read_input",
    "file_digest",
    "text_digest",
    "parse_profiles",
    "parse_profiles_text",
    "builtin_profiles",
    "match_profile",
    "parse_tabular",
    "parse_registry",
    "parse_registry_text",
    "load_default_registry",
    "DEFAULT_REGISTRY_LABEL",
    "load_bundle",
    "assemble_bundle",
    "validate_bundle",
]


class IngestError(Exception):
    """Fatal input problem: unreadable file, broken profile, or unparseable
    registry.  Anything recoverable is reported as a Diagnostic instead."""


def file_digest(data: bytes) -> str:
    """SHA-256 of the bytes read from an input file, as ``sha256sum`` prints it."""
    return hashlib.sha256(data).hexdigest()


def text_digest(text: str) -> str:
    return file_digest(text.encode("utf-8"))


def read_input(path: str | Path, what: str) -> tuple[str, str]:
    """The text of the file at ``path``, decoded as UTF-8 with or without a
    byte-order mark, and the digest of its bytes.  This is the only code that
    opens an input file, and it reads each once; a file that cannot be read
    or decoded raises IngestError, whose message calls it ``what``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path}: {exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"cannot read {what} {path}: line {line} is not UTF-8: {exc.reason}") from None
    return text, file_digest(data)


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    file: str
    code: str
    message: str
    line: int | None = None

    def render(self) -> str:
        where = f"{self.file}:{self.line}" if self.line is not None else self.file
        return f"{self.severity.value}: {where}: {self.code}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "file": self.file,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }


# --------------------------------------------------------------------------
# mapping profiles
# --------------------------------------------------------------------------

class Role(str, Enum):
    ID = "id"
    STORAGE_LOCATION = "storage_location"
    CLASSIFICATION = "classification"
    SECURITY_LEVEL = "security_level"
    ALGORITHM = "algorithm"
    CONFIG_FLAG = "config_flag"
    OBJECT_TYPE = "object_type"
    LOCATION = "location"
    MATCHED_KEY = "matched_key"
    ISSUER_CERT = "issuer_cert"
    CREATED_BY = "created_by"
    ACCESSES_TARGET = "accesses_target"
    ACCESS_DIRECTION = "access_direction"
    RETENTION_YEARS = "retention_years"
    SERVES = "serves"
    NAME = "name"
    IGNORE = "ignore"


#: roles that may be fed by several columns (or ``;``-separated cells)
LIST_ROLES = frozenset(
    {Role.STORAGE_LOCATION, Role.CONFIG_FLAG, Role.ACCESSES_TARGET, Role.SERVES}
)


class RecordKind(str, Enum):
    CLASSIFICATION = "classification"
    DATA = "data"
    ASSET = "asset"
    CRYPTO = "crypto"
    ACCESS = "access"


@dataclass(frozen=True)
class MappingProfile:
    """Declares how one inventory file maps onto the record model.

    ``inventory`` matches a file by full path or basename.  ``columns`` maps
    header names to roles; ``defaults`` supplies constant role values for
    columns a file does not carry.
    """

    inventory: str
    kind: RecordKind
    columns: dict[str, Role] = field(default_factory=dict)
    defaults: dict[Role, str] = field(default_factory=dict)


def _profile_from_dict(obj: dict, where: str) -> MappingProfile:
    try:
        kind = RecordKind(obj["kind"])
    except (KeyError, ValueError):
        raise IngestError(f"{where}: unknown record kind {obj.get('kind')!r}") from None
    for key in ("columns", "defaults"):
        if not isinstance(obj.get(key, {}), dict):
            raise IngestError(f"{where}: {key} must be an object")
    columns: dict[str, Role] = {}
    for column, role_name in obj.get("columns", {}).items():
        try:
            role = Role(role_name)
        except ValueError:
            raise IngestError(f"{where}: unknown role {role_name!r} for column {column!r}") from None
        columns[column] = role
    defaults: dict[Role, str] = {}
    for role_name, value in obj.get("defaults", {}).items():
        try:
            role = Role(role_name)
        except ValueError:
            raise IngestError(f"{where}: unknown role {role_name!r} in defaults") from None
        defaults[role] = str(value)
    profile = MappingProfile(str(obj.get("inventory", "")), kind, columns, defaults)
    _check_profile(profile, where)
    return profile


def _check_profile(profile: MappingProfile, where: str) -> None:
    seen: dict[Role, str] = {}
    for column, role in profile.columns.items():
        if role in seen and role not in LIST_ROLES and role is not Role.IGNORE:
            raise IngestError(
                f"{where}: role {role.value!r} bound to both columns "
                f"{seen[role]!r} and {column!r}"
            )
        seen.setdefault(role, column)
    supplied = set(profile.columns.values()) | set(profile.defaults)
    if profile.kind in (RecordKind.DATA, RecordKind.ASSET, RecordKind.CRYPTO, RecordKind.ACCESS):
        if Role.ID not in supplied:
            raise IngestError(f"{where}: {profile.kind.value} profile does not assign the id role")
    if profile.kind is RecordKind.ACCESS and Role.ACCESSES_TARGET not in supplied:
        raise IngestError(f"{where}: access profile does not assign the accesses_target role")
    if profile.kind is RecordKind.CLASSIFICATION:
        if Role.CLASSIFICATION not in supplied or Role.SECURITY_LEVEL not in supplied:
            raise IngestError(
                f"{where}: classification profile needs the classification and security_level roles"
            )


def parse_profiles(path: str | Path) -> list[MappingProfile]:
    return parse_profiles_text(read_input(path, "profile file")[0], str(path))


def parse_profiles_text(text: str, label: str) -> list[MappingProfile]:
    """Parse a profile document.  Raises IngestError on any structural problem
    so bad profiles are rejected before an inventory file is opened."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"{label}: invalid profile JSON: {exc}") from None
    entries = doc.get("profiles") if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise IngestError(f"{label}: profile document must contain a 'profiles' list")
    profiles = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise IngestError(f"{label}: profile #{index + 1} is not an object")
        profiles.append(_profile_from_dict(entry, where=f"{label}: profile #{index + 1}"))
    return profiles


def builtin_profiles() -> list[MappingProfile]:
    """Profile set for the standard four-file inventory layout.

    These match both by filename and by exact header set, so renamed copies
    of the same shapes are still recognised.
    """
    return [
        MappingProfile(
            "classifications.csv",
            RecordKind.CLASSIFICATION,
            {"Classification": Role.CLASSIFICATION, "Security": Role.SECURITY_LEVEL},
        ),
        MappingProfile(
            "data.csv",
            RecordKind.DATA,
            {"ID": Role.ID, "Location": Role.STORAGE_LOCATION, "Classification": Role.CLASSIFICATION},
        ),
        MappingProfile(
            "cloudconfig.csv",
            RecordKind.ACCESS,
            {"Asset": Role.ID, "Service": Role.ACCESSES_TARGET},
        ),
        MappingProfile(
            "cryptoinventory.csv",
            RecordKind.CRYPTO,
            {
                "ID": Role.ID,
                "Location": Role.LOCATION,
                "Type": Role.OBJECT_TYPE,
                "Algorithm": Role.ALGORITHM,
                "Keysize": Role.CONFIG_FLAG,
            },
        ),
    ]


def match_profile(
    path: str | Path,
    header: list[str],
    profiles: list[MappingProfile],
    allow_builtin: bool = False,
) -> MappingProfile | None:
    """Pick the profile for a file: explicit path match first, then builtin
    filename or header-set match when enabled."""
    name = Path(path).name
    for profile in profiles:
        if profile.inventory in (str(path), name) or Path(profile.inventory).name == name:
            return profile
    if allow_builtin:
        for profile in builtin_profiles():
            if profile.inventory == name:
                return profile
        header_set = {h.strip() for h in header}
        for profile in builtin_profiles():
            if set(profile.columns) == header_set:
                return profile
    return None


# --------------------------------------------------------------------------
# tabular parsing
# --------------------------------------------------------------------------

_ASSET_KIND_ALIASES = {
    "processor": AssetKind.PROCESSOR,
    "server": AssetKind.PROCESSOR,
    "host": AssetKind.PROCESSOR,
    "machine": AssetKind.PROCESSOR,
    "vm": AssetKind.PROCESSOR,
    "container": AssetKind.PROCESSOR,
    "device": AssetKind.PROCESSOR,
    "database": AssetKind.PROCESSOR,
    "service": AssetKind.SERVICE,
    "channel": AssetKind.CHANNEL,
    "network": AssetKind.CHANNEL,
    "link": AssetKind.CHANNEL,
    "connection": AssetKind.CHANNEL,
    "process": AssetKind.PROCESS,
    "workflow": AssetKind.PROCESS,
    "job": AssetKind.PROCESS,
    "software": AssetKind.SOFTWARE,
    "application": AssetKind.SOFTWARE,
    "app": AssetKind.SOFTWARE,
    "library": AssetKind.SOFTWARE,
}

_DIRECTION_ALIASES = {
    "two-way": Direction.TWO_WAY,
    "twoway": Direction.TWO_WAY,
    "read-write": Direction.TWO_WAY,
    "rw": Direction.TWO_WAY,
    "bidirectional": Direction.TWO_WAY,
    "read-only": Direction.READ_ONLY,
    "readonly": Direction.READ_ONLY,
    "ro": Direction.READ_ONLY,
}

_OBJECT_TYPE_ALIASES = {
    "symmetric key": CryptoObjectType.SYMMETRIC_KEY,
    "secret key": CryptoObjectType.SYMMETRIC_KEY,
    "symmetric": CryptoObjectType.SYMMETRIC_KEY,
    "private key": CryptoObjectType.PRIVATE_KEY,
    "public key": CryptoObjectType.PUBLIC_KEY,
    "certificate": CryptoObjectType.CERTIFICATE,
    "cert": CryptoObjectType.CERTIFICATE,
    "ssl/tls certificate": CryptoObjectType.CERTIFICATE,
    "ssl certificate": CryptoObjectType.CERTIFICATE,
    "tls certificate": CryptoObjectType.CERTIFICATE,
    "x.509 certificate": CryptoObjectType.CERTIFICATE,
    "ca certificate": CryptoObjectType.CA_CERTIFICATE,
    "ca cert": CryptoObjectType.CA_CERTIFICATE,
    "root certificate": CryptoObjectType.CA_CERTIFICATE,
}


class _Row:
    """One CSV row seen through a profile: each role reads the columns bound
    to it once per file, when the header was read."""

    def __init__(self, columns: dict[Role, list[int]], defaults: dict[Role, str], cells: list[str]):
        self._columns = columns
        self._defaults = defaults
        self._cells = cells

    def _values(self, role: Role) -> list[str]:
        cells = self._cells
        values = []
        for index in self._columns.get(role, ()):
            value = cells[index].strip() if index < len(cells) else ""
            values.append("" if value == "-" else value)  # spreadsheet convention for "none"
        return values

    def scalar(self, role: Role) -> str:
        for value in self._values(role):
            if value:
                return value
        return self._defaults.get(role, "")

    def many(self, role: Role) -> list[str]:
        values = []
        for cell in self._values(role):
            values.extend(part.strip() for part in cell.split(";") if part.strip())
        if not values and role in self._defaults:
            values = [p.strip() for p in self._defaults[role].split(";") if p.strip()]
        return values


def _csv_rows(text: str, path: str | Path):
    """``(line, cells)`` for each row of CSV ``text`` (RFC 4180 quoting, so
    a quoted cell may span lines), ``line`` being the row's first physical
    line.  A malformed row raises IngestError naming its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1
    try:
        for cells in reader:
            yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise IngestError(f"cannot read inventory {path}: line {reader.line_num}: {exc}") from None


def parse_tabular(text: str, path: str | Path, profiles: list[MappingProfile], use_builtin_profiles: bool = False):
    """Parse the CSV inventory ``text`` read from ``path`` in one pass: the
    header row picks the profile (see :func:`match_profile`) and binds each
    role to its columns, then each data row becomes one record.

    Returns ``(records, diagnostics)`` with one record per well-formed data
    row; malformed rows are reported and skipped.
    """
    rows = _csv_rows(text, path)
    _, header = next(rows, (1, None))
    profile = match_profile(path, header or [], profiles, allow_builtin=use_builtin_profiles)
    if profile is None:
        raise IngestError(f"no mapping profile matches {path}")
    if header is None:
        raise IngestError(f"{path}: missing header row")
    fname = Path(path).name
    diags: list[Diagnostic] = []
    columns: dict[Role, list[int]] = {}
    for index, column in enumerate(h.strip() for h in header):
        role = profile.columns.get(column)
        if role is None and column:
            diags.append(Diagnostic(
                Severity.WARNING, fname, "ignored-column",
                f"column {column!r} is not named in the mapping profile and was ignored", line=1,
            ))
        elif role is not None and role is not Role.IGNORE:
            columns.setdefault(role, []).append(index)
    records: list = []
    for line, cells in rows:
        if not any(cell.strip() for cell in cells):
            continue
        record = _parse_row(profile.kind, _Row(columns, profile.defaults, cells), fname, line, diags)
        if record is not None:
            records.append(record)
    return records, diags


def _error(diags: list[Diagnostic], fname: str, line: int, code: str, message: str) -> None:
    diags.append(Diagnostic(Severity.ERROR, fname, code, message, line=line))


def _record_problem(kind: RecordKind, ident: str, record=None) -> tuple[str, str] | None:
    """The code and message of the first check a record fails, or None: a
    blank id or label, then for a crypto ``record`` a certificate without
    its signature algorithm or a field its object type does not carry.
    Inventory rows and records an overlay adds both pass through here."""
    if not ident:
        noun = "label" if kind is RecordKind.CLASSIFICATION else "id"
        return "blank-id", f"{kind.value} row has an empty {noun}"
    if not isinstance(record, CryptoObjectRecord):
        return None
    if record.is_certificate and not record.algorithm:
        return "missing-algorithm", f"certificate {ident!r} must name its signature algorithm"
    if record.matched_key and not (record.is_certificate or record.object_type is CryptoObjectType.PUBLIC_KEY):
        return (
            "field-not-applicable",
            f"matched_key is only valid for public keys and certificates, found on {ident!r}",
        )
    if record.issuer_cert and not record.is_certificate:
        return "field-not-applicable", f"issuer_cert is only valid for certificates, found on {ident!r}"
    return None


def _rejected(problem, diags: list[Diagnostic], fname: str, line: int) -> bool:
    if problem is not None:
        _error(diags, fname, line, *problem)
    return problem is not None


def _parse_row(kind: RecordKind, row: _Row, fname: str, line: int, diags: list[Diagnostic]):
    if kind is RecordKind.CLASSIFICATION:
        label = row.scalar(Role.CLASSIFICATION)
        if _rejected(_record_problem(kind, label), diags, fname, line):
            return None
        level = row.scalar(Role.SECURITY_LEVEL)
        rating = SecurityRating.parse(level) if level else None
        if rating is None:
            _error(
                diags, fname, line, "bad-security-level",
                f"cannot interpret security level {level!r} for classification {label!r}",
            )
            return None
        return ClassificationBinding(label, (rating,), source=Source(fname, label))

    if kind is RecordKind.DATA:
        ident = row.scalar(Role.ID)
        if _rejected(_record_problem(kind, ident), diags, fname, line):
            return None
        retention: float | None = None
        raw_retention = row.scalar(Role.RETENTION_YEARS)
        if raw_retention:
            try:
                retention = float(raw_retention)
            except ValueError:
                retention = -1.0
            if retention < 0:
                _error(
                    diags, fname, line, "bad-retention",
                    f"retention for {ident!r} must be a non-negative number, got {raw_retention!r}",
                )
                return None
        return DataRecord(
            id=ident,
            storage_locations=tuple(row.many(Role.STORAGE_LOCATION)),
            classification=row.scalar(Role.CLASSIFICATION) or None,
            retention_years=retention,
            name=row.scalar(Role.NAME) or None,
            source=Source(fname, ident),
        )

    if kind is RecordKind.ASSET:
        ident = row.scalar(Role.ID)
        if _rejected(_record_problem(kind, ident), diags, fname, line):
            return None
        asset_kind: AssetKind | None = None
        raw_kind = row.scalar(Role.OBJECT_TYPE)
        if raw_kind:
            asset_kind = _ASSET_KIND_ALIASES.get(raw_kind.lower())
            if asset_kind is None:
                diags.append(
                    Diagnostic(
                        Severity.WARNING, fname, "unknown-asset-kind",
                        f"asset kind {raw_kind!r} for {ident!r} is not recognised; treating as processor",
                        line=line,
                    )
                )
        direction = _parse_direction(row, fname, line, ident, diags)
        accesses = tuple(
            AccessRef(target, direction, RefOrigin.ASSET_FIELD, Source(fname, ident))
            for target in row.many(Role.ACCESSES_TARGET)
            if target != ident
        )
        return AssetRecord(
            id=ident,
            kind=asset_kind,
            serves=tuple(t for t in row.many(Role.SERVES) if t != ident),
            accesses=accesses,
            name=row.scalar(Role.NAME) or None,
            source=Source(fname, ident),
        )

    if kind is RecordKind.ACCESS:
        owner = row.scalar(Role.ID)
        targets = row.many(Role.ACCESSES_TARGET)
        if not owner or not targets:
            _error(diags, fname, line, "blank-id", "access row needs both an asset and a service")
            return None
        direction = _parse_direction(row, fname, line, owner, diags)
        row_source = Source(fname, f"{owner}->{','.join(targets)}")
        refs = tuple(
            AccessRef(target, direction, RefOrigin.ACCESS_RECORD, row_source)
            for target in targets
            if target != owner
        )
        return AssetRecord(id=owner, accesses=refs, source=row_source)

    # crypto
    ident = row.scalar(Role.ID)
    if _rejected(_record_problem(kind, ident), diags, fname, line):
        return None
    raw_type = row.scalar(Role.OBJECT_TYPE)
    object_type = _OBJECT_TYPE_ALIASES.get(raw_type.lower()) if raw_type else None
    if object_type is None:
        _error(
            diags, fname, line, "bad-object-type",
            f"object type {raw_type!r} for {ident!r} is not one of the supported kinds",
        )
        return None
    record = CryptoObjectRecord(
        id=ident,
        object_type=object_type,
        location=row.scalar(Role.LOCATION) or None,
        key_locations=tuple(row.many(Role.STORAGE_LOCATION)),
        algorithm=row.scalar(Role.ALGORITHM) or None,
        config_flags=tuple(normalise_flag(f) for f in row.many(Role.CONFIG_FLAG)),
        matched_key=row.scalar(Role.MATCHED_KEY) or None,
        issuer_cert=row.scalar(Role.ISSUER_CERT) or None,
        created_by=row.scalar(Role.CREATED_BY) or None,
        name=row.scalar(Role.NAME) or None,
        source=Source(fname, ident),
    )
    if _rejected(_record_problem(kind, ident, record), diags, fname, line):
        return None
    return record


def _parse_direction(row: _Row, fname: str, line: int, ident: str, diags: list[Diagnostic]) -> Direction:
    raw = row.scalar(Role.ACCESS_DIRECTION)
    if not raw:
        return Direction.TWO_WAY
    direction = _DIRECTION_ALIASES.get(raw.lower())
    if direction is None:
        diags.append(
            Diagnostic(
                Severity.WARNING, fname, "invalid-direction",
                f"access direction {raw!r} on {ident!r} is not recognised; assuming two-way",
                line=line,
            )
        )
        return Direction.TWO_WAY
    return direction


# --------------------------------------------------------------------------
# registry parsing
# --------------------------------------------------------------------------

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


def _infer_vulnerability_class(name: str) -> VulnerabilityClass:
    """Best-effort family lookup for registries that omit the class key."""
    return _FAMILY_CLASSES.get(name.upper(), VulnerabilityClass.UNKNOWN)


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
    for index, entry in enumerate(entries):
        configs = entry.get("configurations", []) if isinstance(entry, dict) else None
        if not isinstance(configs, list) or not str(entry.get("name", "")).strip():
            diags.append(
                Diagnostic(
                    Severity.ERROR, label, "registry-entry-invalid",
                    f"registry entry #{index + 1} has no usable name or configuration list and was skipped",
                )
            )
            continue
        name = str(entry["name"]).strip()
        for config_obj in configs:
            config = _parse_configuration(config_obj, name, label, diags)
            if config is None:
                continue
            bucket = algorithms.setdefault(name, [])
            clash = next(
                (c for c in bucket if frozenset(c.flags) == frozenset(config.flags)), None
            )
            if clash is not None:
                diags.append(
                    Diagnostic(
                        Severity.ERROR, label, "duplicate-config",
                        f"duplicate configuration {primitive_key(name, config.flags)}; first definition kept",
                    )
                )
                continue
            bucket.append(config)
    canonical = {
        name: tuple(sorted(configs, key=lambda c: sorted(c.flags)))
        for name, configs in sorted(algorithms.items())
    }
    return CryptoRegistry(canonical), diags


def _parse_configuration(obj, name: str, label: str, diags: list[Diagnostic]) -> Configuration | None:
    if not isinstance(obj, dict) or not all(isinstance(obj.get(k, []), list) for k in ("flags", "uses")):
        diags.append(
            Diagnostic(
                Severity.ERROR, label, "registry-entry-invalid",
                f"configuration of {name!r} is not an object with list flags and uses, and was skipped",
            )
        )
        return None
    for key in obj:
        if key not in _KNOWN_CONFIG_KEYS:
            diags.append(
                Diagnostic(
                    Severity.WARNING, label, "unknown-registry-key",
                    f"configuration of {name!r} carries unrecognised key {key!r}",
                )
            )
    flags = tuple(normalise_flag(str(f)) for f in obj.get("flags", []))
    ratings: list[SecurityRating] = []
    security = obj.get("security")
    if security is not None:
        if isinstance(security, (int, float)) and not isinstance(security, bool) and 0 <= security < float("inf"):
            ratings.append(SecurityRating.bits(int(security)))
        else:
            diags.append(
                Diagnostic(
                    Severity.WARNING, label, "unknown-registry-value",
                    f"{primitive_key(name, flags)}: security must be a non-negative number, got {security!r}",
                )
            )
    for key, parser in (("NIST-approval", SecurityRating.parse), ("quantum-safety", SecurityRating.parse)):
        raw = obj.get(key)
        if raw is None:
            continue
        rating = parser(str(raw))
        if rating is None:
            diags.append(
                Diagnostic(
                    Severity.WARNING, label, "unknown-registry-value",
                    f"{primitive_key(name, flags)}: cannot interpret {key} value {raw!r}",
                )
            )
        else:
            ratings.append(rating)
    raw_class = obj.get("class")
    if raw_class is None:
        vuln = _infer_vulnerability_class(name)
    else:
        vuln = _CLASS_ALIASES.get(str(raw_class).lower(), None)
        if vuln is None:
            diags.append(
                Diagnostic(
                    Severity.WARNING, label, "unknown-registry-value",
                    f"{primitive_key(name, flags)}: unrecognised vulnerability class {raw_class!r}",
                )
            )
            vuln = _infer_vulnerability_class(name)
    # break-qubits and break-time are accepted but not used
    qubits = obj.get("break-qubits")
    if qubits is not None and (not isinstance(qubits, (int, float)) or isinstance(qubits, bool)):
        diags.append(
            Diagnostic(
                Severity.WARNING, label, "unknown-registry-value",
                f"{primitive_key(name, flags)}: break-qubits must be numeric, got {qubits!r}",
            )
        )
    uses: list[str] = []
    for spec in obj.get("uses", []):
        try:
            member, member_flags = parse_primitive_spec(str(spec))
        except ValueError:
            diags.append(
                Diagnostic(
                    Severity.WARNING, label, "unknown-registry-value",
                    f"{primitive_key(name, flags)}: cannot parse member primitive {spec!r}",
                )
            )
            continue
        uses.append(primitive_key(member, member_flags))
    raw_source = obj.get("source")
    named = isinstance(raw_source, dict) and all(isinstance(raw_source.get(k), str) for k in ("file", "ref"))
    source = Source(raw_source["file"], raw_source["ref"]) if named else Source(label, primitive_key(name, flags))
    return Configuration(
        flags=flags,
        ratings=tuple(sorted(ratings, key=lambda r: r.sort_key())),
        vulnerability_class=vuln,
        uses=tuple(sorted(uses)),
        source=source,
    )


def default_registry_text() -> str:
    return resources.files("cryptodep.data").joinpath("default_registry.json").read_text("utf-8")


def load_default_registry() -> CryptoRegistry:
    registry, diags = parse_registry_text(default_registry_text(), DEFAULT_REGISTRY_LABEL)
    if diags:  # the shipped registry must always be clean
        raise IngestError(f"built-in registry is inconsistent: {diags[0].render()}")
    return registry


# --------------------------------------------------------------------------
# bundle assembly and validation
# --------------------------------------------------------------------------

def load_bundle(
    inventory_paths,
    profiles: list[MappingProfile],
    registry: CryptoRegistry,
    use_builtin_profiles: bool = False,
) -> tuple[InventoryBundle, list[Diagnostic]]:
    """Read and parse every inventory file and assemble a canonical bundle,
    whose ``input_digests`` map each path to the digest of its bytes."""
    parsed: list = []
    diags: list[Diagnostic] = []
    digests: dict[str, str] = {}
    for path in inventory_paths:
        text, digests[str(path)] = read_input(path, "inventory")
        records, file_diags = parse_tabular(text, path, profiles, use_builtin_profiles)
        parsed.extend(records)
        diags.extend(file_diags)
    bundle, assembly_diags = assemble_bundle(parsed, registry)
    return replace(bundle, input_digests=digests), diags + assembly_diags


def assemble_bundle(records, registry: CryptoRegistry) -> tuple[InventoryBundle, list[Diagnostic]]:
    """Merge parsed records into a canonical, order-independent bundle.

    Asset records with the same id merge (union of references); duplicate
    data/crypto ids are errors with the lexicographically first record kept.
    Access targets materialise as undeclared assets so asset-to-asset
    relations never dangle.  The bundle keeps ``records`` as given.
    """
    records = tuple(records)
    diags: list[Diagnostic] = []

    bindings: dict[str, dict] = {}
    data: dict[str, DataRecord] = {}
    crypto: dict[str, CryptoObjectRecord] = {}
    asset_parts: dict[str, list[AssetRecord]] = {}

    for record in records:
        if isinstance(record, ClassificationBinding):
            entry = bindings.setdefault(
                record.label, {"rank": len(bindings), "ratings": {}, "source": record.source}
            )
            for rating in record.required:
                held = entry["ratings"].get(rating.dimension)
                if held is None:
                    entry["ratings"][rating.dimension] = rating
                elif held != rating:
                    diags.append(
                        Diagnostic(
                            Severity.ERROR, record.source.file, "conflicting-level",
                            f"classification {record.label!r} already requires {held.display}; "
                            f"ignoring conflicting level {rating.display}",
                        )
                    )
        elif isinstance(record, DataRecord):
            _insert_unique(data, record, "data", diags)
        elif isinstance(record, CryptoObjectRecord):
            _insert_unique(crypto, record, "crypto", diags)
        elif isinstance(record, AssetRecord):
            asset_parts.setdefault(record.id, []).append(record)

    # Asset-to-asset relations never dangle: serves targets and access-record
    # targets materialise as undeclared assets.  Reference columns on asset
    # rows stay untouched when they point at crypto objects, data, or
    # algorithms; those are resolved type-directedly by the rules engine.
    def _is_algorithm_ref(target: str) -> bool:
        try:
            name, _ = parse_primitive_spec(target)
        except ValueError:
            return False
        return name in registry.algorithms

    crypto_ids = set(crypto)
    data_ids = set(data)
    for parts in list(asset_parts.values()):
        for part in list(parts):
            for target in part.serves:
                asset_parts.setdefault(target, []).append(
                    AssetRecord(id=target, source=part.source)
                )
            for ref in part.accesses:
                plain_asset = ref.origin is RefOrigin.ACCESS_RECORD or (
                    ref.target not in crypto_ids
                    and ref.target not in data_ids
                    and not _is_algorithm_ref(ref.target)
                )
                if plain_asset:
                    asset_parts.setdefault(ref.target, []).append(
                        AssetRecord(id=ref.target, source=part.source)
                    )

    assets = {ident: _merge_assets(ident, parts, diags) for ident, parts in asset_parts.items()}

    classifications = tuple(
        ClassificationBinding(
            label=label,
            required=tuple(sorted(entry["ratings"].values(), key=lambda r: r.sort_key())),
            rank=entry["rank"],
            source=entry["source"],
        )
        for label, entry in sorted(bindings.items(), key=lambda kv: kv[1]["rank"])
    )
    bundle = InventoryBundle(
        classifications=classifications,
        data=tuple(data[k] for k in sorted(data)),
        assets=tuple(assets[k] for k in sorted(assets)),
        crypto_objects=tuple(crypto[k] for k in sorted(crypto)),
        registry=registry,
        records=records,
    )
    return bundle, diags


def _insert_unique(table: dict, record, noun: str, diags: list[Diagnostic]) -> None:
    held = table.get(record.id)
    if held is None:
        table[record.id] = record
        return
    if held == record:
        return
    keep, drop = sorted((held, record), key=lambda r: (r.source.file, r.source.ref, repr(r)))
    table[record.id] = keep
    diags.append(
        Diagnostic(
            Severity.ERROR, drop.source.file, "duplicate-id",
            f"{noun} id {record.id!r} is defined more than once; keeping the copy from {keep.source.file}",
        )
    )


def _merge_assets(ident: str, parts: list[AssetRecord], diags: list[Diagnostic]) -> AssetRecord:
    kinds = sorted({p.kind for p in parts if p.kind is not None}, key=lambda k: k.value)
    if len(kinds) > 1:
        diags.append(
            Diagnostic(
                Severity.ERROR, sorted(p.source.file for p in parts)[0], "conflicting-kind",
                f"asset {ident!r} is declared with kinds {', '.join(k.value for k in kinds)}; "
                f"keeping {kinds[0].value}",
            )
        )
    serves = tuple(sorted({t for p in parts for t in p.serves}))
    accesses = tuple(
        sorted(
            {ref for p in parts for ref in p.accesses},
            key=lambda r: (
                r.target,
                r.direction.value,
                r.origin.value,
                (r.source.file, r.source.ref) if r.source else ("", ""),
            ),
        )
    )
    names = sorted({p.name for p in parts if p.name})
    # rows that declare the asset itself beat rows that merely relate it to
    # something, and both beat materialized reference stubs
    identity = [p for p in parts if p.kind is not None or p.name]
    relation = [p for p in parts if p.serves or p.accesses]
    source = min(
        (p.source for p in (identity or relation or parts)),
        key=lambda s: (s.file, s.ref),
    )
    merged = AssetRecord(
        id=ident,
        kind=kinds[0] if kinds else None,
        serves=serves,
        accesses=accesses,
        name=names[0] if names else None,
        source=source,
    )
    # share a part equal to the merge, so the bundle and its records hold
    # one copy of an asset declared by one row
    return next((p for p in parts if p == merged), merged)


def validate_bundle(bundle: InventoryBundle) -> list[Diagnostic]:
    """Cross-reference checks over an assembled bundle.

    Errors mark unresolvable references and namespace collisions; warnings
    mark degraded-but-usable situations such as unrated algorithms.
    """
    diags: list[Diagnostic] = []
    asset_ids = set(bundle.asset_map())
    data_ids = set(bundle.data_map())
    crypto_ids = set(bundle.crypto_map())
    class_labels = set(bundle.classification_map())

    for a, b, what in (
        (data_ids, asset_ids, "data/asset"),
        (data_ids, crypto_ids, "data/crypto"),
        (asset_ids, crypto_ids, "asset/crypto"),
    ):
        for ident in sorted(a & b):
            diags.append(
                Diagnostic(
                    Severity.ERROR, "<bundle>", "namespace-collision",
                    f"identifier {ident!r} appears in both {what} inventories",
                )
            )
    for label in sorted(class_labels & (data_ids | asset_ids | crypto_ids)):
        diags.append(
            Diagnostic(
                Severity.WARNING, "<bundle>", "label-collision",
                f"classification label {label!r} collides with a record identifier",
            )
        )

    for record in bundle.data:
        if record.classification and record.classification not in class_labels:
            diags.append(
                Diagnostic(
                    Severity.ERROR, record.source.file, "unknown-classification",
                    f"data {record.id!r} uses classification {record.classification!r} "
                    f"which is not in the classification map",
                )
            )
        for location in record.storage_locations:
            if location not in asset_ids:
                diags.append(
                    Diagnostic(
                        Severity.ERROR, record.source.file, "dangling-reference",
                        f"data {record.id!r} names storage location {location!r} "
                        f"but no such asset exists",
                    )
                )

    for obj in bundle.crypto_objects:
        for location in filter(None, (obj.location, *obj.key_locations)):
            if location not in asset_ids:
                diags.append(
                    Diagnostic(
                        Severity.ERROR, obj.source.file, "dangling-reference",
                        f"crypto object {obj.id!r} names location {location!r} "
                        f"but no such asset exists",
                    )
                )
        if obj.matched_key and obj.matched_key not in crypto_ids:
            diags.append(
                Diagnostic(
                    Severity.ERROR, obj.source.file, "dangling-reference",
                    f"crypto object {obj.id!r} references matched key {obj.matched_key!r} "
                    f"which is not in the inventory",
                )
            )
        if obj.issuer_cert and obj.issuer_cert != obj.id and obj.issuer_cert not in crypto_ids:
            diags.append(
                Diagnostic(
                    Severity.ERROR, obj.source.file, "dangling-reference",
                    f"crypto object {obj.id!r} references issuer {obj.issuer_cert!r} "
                    f"which is not in the inventory",
                )
            )
        if obj.created_by and obj.created_by not in asset_ids:
            diags.append(
                Diagnostic(
                    Severity.ERROR, obj.source.file, "dangling-reference",
                    f"crypto object {obj.id!r} was created by {obj.created_by!r} "
                    f"but no such asset exists",
                )
            )
        if obj.algorithm and bundle.registry.lookup(obj.algorithm, obj.config_flags) is None:
            diags.append(
                Diagnostic(
                    Severity.WARNING, obj.source.file, "unknown-algorithm",
                    f"{primitive_key(obj.algorithm, obj.config_flags)} used by {obj.id!r} "
                    f"is not rated in the registry",
                )
            )
    return diags


# --------------------------------------------------------------------------
# overlay records: one record from a JSON object with a ``record_kind``
# --------------------------------------------------------------------------

def _source_from(obj: dict, fallback_ref: str) -> Source:
    if "source" not in obj:
        return Source("overlay", fallback_ref)
    source = Source.from_dict(obj["source"])
    if not (isinstance(source.file, str) and isinstance(source.ref, str)):
        raise ValueError(f"source must name a file and a ref as strings, got {obj['source']!r}")
    return source


def _rating_from(raw) -> SecurityRating:
    if isinstance(raw, dict):
        return SecurityRating.from_dict(raw)
    rating = SecurityRating.parse(str(raw))
    if rating is None:
        raise ValueError(f"cannot interpret security level {raw!r}")
    return rating


def _classification_from_dict(obj: dict) -> ClassificationBinding:
    # rank follows order, as for rows of the classification sheet
    if "rank" in obj:
        raise ValueError(f"classification {obj.get('label')!r} may not set a rank")
    if not isinstance(obj["required"], list):
        raise ValueError(f"classification {obj['label']!r} needs a list of required levels")
    return ClassificationBinding(
        label=obj["label"],
        required=tuple(_rating_from(r) for r in obj["required"]),
        source=_source_from(obj, obj["label"]),
    )


def _data_from_dict(obj: dict) -> DataRecord:
    retention = obj.get("retention_years")
    return DataRecord(
        id=obj["id"],
        name=obj.get("name"),
        classification=obj.get("classification"),
        storage_locations=tuple(obj.get("storage_locations", [])),
        retention_years=float(retention) if retention is not None else None,
        source=_source_from(obj, obj["id"]),
    )


def _asset_from_dict(obj: dict) -> AssetRecord:
    accesses = tuple(AccessRef.from_dict(r) for r in obj.get("accesses", []))
    if not all(isinstance(ref.target, str) for ref in accesses):
        raise ValueError(f"access targets of {obj['id']!r} must be strings")
    return AssetRecord(
        id=obj["id"],
        name=obj.get("name"),
        kind=AssetKind(obj["kind"]) if obj.get("kind") else None,
        serves=tuple(obj.get("serves", [])),
        accesses=accesses,
        source=_source_from(obj, obj["id"]),
    )


def _crypto_from_dict(obj: dict) -> CryptoObjectRecord:
    return CryptoObjectRecord(
        id=obj["id"],
        name=obj.get("name"),
        object_type=CryptoObjectType(obj["object_type"]),
        location=obj.get("location"),
        key_locations=tuple(obj.get("key_locations", [])),
        algorithm=obj.get("algorithm"),
        config_flags=tuple(normalise_flag(f) for f in obj.get("config_flags", [])),
        matched_key=obj.get("matched_key"),
        issuer_cert=obj.get("issuer_cert"),
        created_by=obj.get("created_by"),
        source=_source_from(obj, obj["id"]),
    )


_TEXT_FIELDS = frozenset({
    "id", "label", "name", "classification", "kind", "object_type", "location",
    "algorithm", "matched_key", "issuer_cert", "created_by",
})
_TEXT_LIST_FIELDS = frozenset({"storage_locations", "serves", "key_locations", "config_flags"})

_RECORD_DESERIALIZERS = {
    RecordKind.CLASSIFICATION: _classification_from_dict,
    RecordKind.DATA: _data_from_dict,
    RecordKind.ASSET: _asset_from_dict,
    RecordKind.CRYPTO: _crypto_from_dict,
}


def _record_from_dict(entry: dict):
    """One record from an overlay's ``add_records`` entry, whose
    ``record_kind`` names the record type."""
    try:
        kind = RecordKind(entry["record_kind"])
    except ValueError:
        raise ValueError(f"unknown record_kind {entry['record_kind']!r}") from None
    if kind not in _RECORD_DESERIALIZERS:
        raise ValueError(f"cannot add records of kind {kind.value!r}")
    for key, value in entry.items():
        if key in _TEXT_FIELDS and value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        if key in _TEXT_LIST_FIELDS and not (
            isinstance(value, list) and all(isinstance(v, str) for v in value)
        ):
            raise ValueError(f"{key} must be a list of strings, got {value!r}")
    record = _RECORD_DESERIALIZERS[kind](entry)
    ident = record.label if kind is RecordKind.CLASSIFICATION else record.id
    problem = _record_problem(kind, ident, record)
    if problem is not None:
        raise ValueError(problem[1])
    return record
