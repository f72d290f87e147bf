"""Parsing of inventory files and mapping profiles, and assembly of the
bundle they give; :func:`cryptodep.rules.validate_bundle` checks the bundle.

Tabular inventories arrive as CSV with a mandatory header row.  A mapping
profile assigns a role to each column so arbitrary real-world headers can be
consumed without code changes.  Parsing is total: malformed rows become
diagnostics, only unusable inputs (missing, undecodable or malformed files,
broken profiles) raise :class:`IngestError`.  :mod:`cryptodep.registry`
parses registries into the same diagnostics and errors.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .model import (
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    CryptoRegistry,
    DataRecord,
    Diagnostic,
    Direction,
    InventoryBundle,
    RefOrigin,
    SecurityRating,
    Source,
    _error,
    _warning,
    normalise_flag,
)
from .rules import CRYPTO_RULES, VertexKind

__all__ = [
    "Role",
    "RecordKind",
    "MappingProfile",
    "IngestError",
    "read_input",
    "file_digest",
    "text_digest",
    "parse_profiles",
    "parse_profiles_text",
    "builtin_profiles",
    "match_profile",
    "parse_tabular",
    "parse_entry",
    "load_bundle",
    "assemble_bundle",
]


class IngestError(Exception):
    """Fatal input problem: unreadable file, broken profile, or unparseable
    registry.  Anything recoverable is reported as a Diagnostic instead."""


# CPython's own SHA-256: importing hashlib loads OpenSSL's libcrypto, about
# 3.4 MB of resident pages that every run would keep for its input digests
# and finding ids.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes


def file_digest(data: bytes) -> str:
    """SHA-256 of the bytes read from an input file, as ``sha256sum`` prints it."""
    return sha256(data).hexdigest()


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


#: roles that may be fed by several columns, each split at ``;``
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
    _no_unknown_key(obj, ("inventory", "kind", "columns", "defaults"), where)
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
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise IngestError(f"{where}: default for {role_name!r} must be a string or a number, got {value!r}")
        defaults[role] = str(value)
    inventory = obj.get("inventory", "")
    if not isinstance(inventory, str):
        raise IngestError(f"{where}: inventory must be a string, got {inventory!r}")
    profile = MappingProfile(inventory, kind, columns, defaults)
    _check_profile(profile, where)
    return profile


def _no_unknown_key(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """Raises IngestError on a key of ``obj`` outside ``keys``, which would
    otherwise be dropped without a word."""
    for key in obj:
        if key not in keys:
            raise IngestError(f"{where}: unknown key {key!r}; expected {', '.join(keys)}")


def _check_profile(profile: MappingProfile, where: str) -> None:
    seen: dict[Role, str] = {}
    for column, role in profile.columns.items():
        if role in seen and role not in LIST_ROLES and role is not Role.IGNORE:
            raise IngestError(
                f"{where}: role {role.value!r} bound to both columns "
                f"{seen[role]!r} and {column!r}"
            )
        seen.setdefault(role, column)
    _, required, fields = _KINDS[profile.kind]
    supplied = set(profile.columns.values()) | set(profile.defaults)
    for role in sorted(supplied - {Role.IGNORE, *fields}):
        raise IngestError(f"{where}: {profile.kind.value} records do not read the role {role.value!r}")
    for role in required:
        if role not in supplied:
            raise IngestError(f"{where}: {profile.kind.value} profile does not assign the {role.value} role")


def parse_profiles(path: str | Path) -> list[MappingProfile]:
    return parse_profiles_text(read_input(path, "profile file")[0], str(path))


def parse_profiles_text(text: str, label: str) -> list[MappingProfile]:
    """Parse a profile document.  Raises IngestError on any structural problem
    so bad profiles are rejected before an inventory file is opened."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"{label}: invalid profile JSON: {exc}") from None
    if isinstance(doc, dict):
        _no_unknown_key(doc, ("profiles",), label)
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
        if Path(profile.inventory).name == name:
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

#: the CSV ``Type`` spellings, which overlay ``object_type`` values share
_OBJECT_TYPE_ALIASES = {
    **{object_type.value.lower(): object_type for object_type in CryptoObjectType},
    "symmetric key": CryptoObjectType.SYMMETRIC_KEY,
    "secret key": CryptoObjectType.SYMMETRIC_KEY,
    "symmetric": CryptoObjectType.SYMMETRIC_KEY,
    "private key": CryptoObjectType.PRIVATE_KEY,
    "public key": CryptoObjectType.PUBLIC_KEY,
    "cert": CryptoObjectType.CERTIFICATE,
    "ssl/tls certificate": CryptoObjectType.CERTIFICATE,
    "ssl certificate": CryptoObjectType.CERTIFICATE,
    "tls certificate": CryptoObjectType.CERTIFICATE,
    "x.509 certificate": CryptoObjectType.CERTIFICATE,
    "ca certificate": CryptoObjectType.CA_CERTIFICATE,
    "ca cert": CryptoObjectType.CA_CERTIFICATE,
    "root certificate": CryptoObjectType.CA_CERTIFICATE,
}


def _cell(value: str) -> str:
    value = value.strip()
    return "" if value == "-" else value  # spreadsheet convention for "none"


def _members(cells, intern, clean=str.strip) -> tuple[str, ...]:
    """The members of list cells: each cell split at ``;``, each member
    cleaned by ``clean``, blanks dropped, and each member and the tuple of
    them passed through ``intern`` (a string table's ``setdefault``)."""
    members = tuple([intern(part, part) for cell in cells for part in map(clean, cell.split(";")) if part])
    return intern(members, members)


#: the roles read as a tuple of members, each cell split at ``;``
_MEMBER_ROLES = LIST_ROLES | {Role.SECURITY_LEVEL}


def _reader(role: Role, indices: list[int], default: str, intern):
    """How ``role`` reads a row's cells, padded to every column: the first
    non-empty cell of ``indices``, or for a member role the members of all
    of them, else ``default``.  A cell is stripped and ``-`` is empty; a
    member cell is split only when it holds a ``;``, and a key size exported
    as a float (``1024.0``) reads as an integer.  Every string and tuple of
    members read is ``intern(value, value)``, so equal values share one
    object."""
    if role in _MEMBER_ROLES:
        clean = normalise_flag if role is Role.CONFIG_FLAG else str.strip
        fallback = _members([default], intern, clean)
        if not indices:
            return lambda cells: fallback
        if len(indices) > 1:
            return lambda cells: _members([_cell(cells[i]) for i in indices], intern, clean) or fallback
        index = indices[0]

        def members(cells):
            value = clean(cells[index])
            if value == "" or value == "-":
                return fallback
            if ";" in value:
                return _members([value], intern, clean) or fallback
            members = (intern(value, value),)
            return intern(members, members)

        return members
    if isinstance(default, str):  # an overlay retention may be any JSON value
        default = intern(default, default)
    if not indices:
        return lambda cells: default
    if len(indices) > 1:
        return lambda cells: next((intern(v, v) for v in [_cell(cells[i]) for i in indices] if v), default)
    index = indices[0]

    def scalar(cells):
        value = cells[index].strip()
        return default if value == "" or value == "-" else intern(value, value)

    return scalar


def _bind(kind: RecordKind, columns: dict[Role, list[int]], defaults: dict, strings: dict[str, str]):
    """The parser of the rows of ``kind`` whose cells ``columns`` binds to
    roles, from a CSV header or an overlay entry: ``(cells, fname, line,
    diags)`` gives the record the kind's builder (``_KINDS``) makes of the
    values ``_reader`` reads, or None and an error in ``diags`` for a
    rejected row.  No other code builds a record from input."""
    build, _, fields = _KINDS[kind]
    width = 1 + max((i for indices in columns.values() for i in indices), default=-1)
    intern = strings.setdefault
    readers = [_reader(role, columns.get(role, []), defaults.get(role, ""), intern) for role in fields]

    def parse(cells: list[str], fname: str, line: int | None, diags: list[Diagnostic]):
        if len(cells) < width:
            cells = cells + [""] * (width - len(cells))
        return build(fname, line, diags, *[read(cells) for read in readers])

    return parse


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


def parse_tabular(
    text: str, path: str | Path, profiles: list[MappingProfile], use_builtin_profiles: bool = False,
    *, strings: dict[str, str] | None = None,
):
    """Parse the CSV inventory ``text`` read from ``path`` in one pass: the
    header row picks the profile (see :func:`match_profile`) and binds each
    role to its columns, then each data row becomes one record.

    Every string a record takes from a cell, and every tuple of members,
    goes through the string table ``strings`` (value to itself), so equal
    values share one object: pass one table to several calls to share them
    across files.  Without it the call keeps a table of its own for the one
    file.

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
            _warning(
                diags, fname, 1, "ignored-column",
                f"column {column!r} is not named in the mapping profile and was ignored",
            )
        elif role is not None and role is not Role.IGNORE:
            columns.setdefault(role, []).append(index)
    parse = _bind(profile.kind, columns, profile.defaults, {} if strings is None else strings)
    records: list = []
    for line, cells in rows:
        if not "".join(cells).strip():
            continue
        record = parse(cells, fname, line, diags)
        if record is not None:
            records.append(record)
    return records, diags


def _retention_years(raw) -> float | None:
    """Years from a retention cell or overlay value; None when ``raw`` is
    not a non-negative number.  NaN is not one (it compares false with every
    horizon); infinity is."""
    try:
        years = float(raw)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if isinstance(raw, bool) or not years >= 0 else years


def _access_row(fname, line, diags, owner, targets, raw_direction):
    if not owner or not targets:
        return _error(diags, fname, line, "blank-id", "access row needs both an asset and a service")
    direction = _parse_direction(raw_direction, fname, line, owner, diags)
    row_source = Source(fname, f"{owner}->{','.join(targets)}")
    refs = tuple(
        AccessRef(target, direction, RefOrigin.ACCESS_RECORD, row_source)
        for target in targets
        if target != owner
    )
    return AssetRecord(id=owner, accesses=refs, source=row_source)


def _classification_row(fname, line, diags, label, levels):
    if not label:
        return _error(diags, fname, line, "blank-id", "classification row has an empty label")
    levels = levels or ("",)
    ratings = tuple(SecurityRating.parse(level) for level in levels)
    for level, rating in zip(levels, ratings):
        if rating is None:
            return _error(
                diags, fname, line, "bad-security-level",
                f"cannot interpret security level {level!r} for classification {label!r}",
            )
    return ClassificationBinding(label, ratings, source=Source(fname, label))


def _data_row(fname, line, diags, ident, locations, label, retention, name):
    if not ident:
        return _error(diags, fname, line, "blank-id", "data row has an empty id")
    years = None if retention == "" else _retention_years(retention)
    if years is None and retention != "":
        return _error(
            diags, fname, line, "bad-retention",
            f"retention for {ident!r} must be a non-negative number, got {retention!r}",
        )
    return DataRecord(
        id=ident,
        storage_locations=locations,
        classification=label or None,
        retention_years=years,
        name=name or None,
        source=Source(fname, ident),
    )


def _asset_row(fname, line, diags, ident, raw_kind, raw_direction, targets, serves, name):
    if not ident:
        return _error(diags, fname, line, "blank-id", "asset row has an empty id")
    source = Source(fname, ident)
    asset_kind: AssetKind | None = None
    if raw_kind:
        asset_kind = _ASSET_KIND_ALIASES.get(raw_kind.lower())
        if asset_kind is None:
            _warning(
                diags, fname, line, "unknown-asset-kind",
                f"asset kind {raw_kind!r} for {ident!r} is not recognised; treating as processor",
            )
    direction = _parse_direction(raw_direction, fname, line, ident, diags)
    return AssetRecord(
        id=ident,
        kind=asset_kind,
        serves=tuple(t for t in serves if t != ident) if ident in serves else serves,
        accesses=tuple(
            [AccessRef(target, direction, RefOrigin.ASSET_FIELD, source) for target in targets if target != ident]
        ),
        name=name or None,
        source=source,
    )


def _crypto_row(
    fname, line, diags, ident, raw_type, location, key_locations, algorithm, flags,
    matched_key, issuer_cert, created_by, name,
):
    if not ident:
        return _error(diags, fname, line, "blank-id", "crypto row has an empty id")
    object_type = _OBJECT_TYPE_ALIASES.get(raw_type.lower())
    if object_type is None:
        return _error(
            diags, fname, line, "bad-object-type",
            f"object type {raw_type!r} for {ident!r} is not one of the supported kinds",
        )
    record = CryptoObjectRecord(
        id=ident,
        object_type=object_type,
        location=location or None,
        key_locations=key_locations,
        algorithm=algorithm or None,
        config_flags=flags,
        matched_key=matched_key or None,
        issuer_cert=issuer_cert or None,
        created_by=created_by or None,
        name=name or None,
        source=Source(fname, ident),
    )
    for code, problem in _field_problems(record):
        return _error(diags, fname, line, code, problem)
    return record


def _field_problems(record: CryptoObjectRecord) -> list[tuple[str, str]]:
    """A ``(code, message)`` for each field the ``CRYPTO_RULES`` row of ``record`` rejects: a
    certificate's missing ``algorithm``, and a ``matched_key`` or ``issuer_cert`` it gives no rule."""
    problems = []
    if record.algorithm and not (record.matched_key or record.issuer_cert):
        return problems  # the common record, answered without reading its row
    row, ident = CRYPTO_RULES[record.object_type], record.id
    if row.kind is VertexKind.CERTIFICATE and not record.algorithm:
        problems.append(("missing-algorithm", f"certificate {ident!r} must name its signature algorithm"))
    if record.matched_key and not row.matched_key:
        problems.append(
            ("field-not-applicable", f"matched_key is only valid for public keys and certificates, found on {ident!r}")
        )
    if record.issuer_cert and not row.issuer_cert:
        problems.append(("field-not-applicable", f"issuer_cert is only valid for certificates, found on {ident!r}"))
    return problems


def _parse_direction(raw: str, fname: str, line: int | None, ident: str, diags: list[Diagnostic]) -> Direction:
    if not raw:
        return Direction.TWO_WAY
    direction = _DIRECTION_ALIASES.get(raw.lower())
    if direction is None:
        _warning(
            diags, fname, line, "invalid-direction",
            f"access direction {raw!r} on {ident!r} is not recognised; assuming two-way",
        )
        return Direction.TWO_WAY
    return direction


#: each record kind's row builder; the roles a profile and an ``add_records`` entry must give; and
#: the roles it reads, in the order of the builder's parameters after ``(fname, line, diags)``,
#: each with the ``add_records`` field that gives it, or None.  A kind no field gives cannot be
#: added; a classification's ``required`` levels and an asset's ``accesses`` are read apart.
_KINDS: dict[RecordKind, tuple] = {
    RecordKind.CLASSIFICATION: (
        _classification_row, (Role.CLASSIFICATION, Role.SECURITY_LEVEL),
        {Role.CLASSIFICATION: "label", Role.SECURITY_LEVEL: "required"},
    ),
    RecordKind.DATA: (
        _data_row, (Role.ID,),
        {Role.ID: "id", Role.STORAGE_LOCATION: "storage_locations", Role.CLASSIFICATION: "classification",
         Role.RETENTION_YEARS: "retention_years", Role.NAME: "name"},
    ),
    RecordKind.ASSET: (
        _asset_row, (Role.ID,),
        {Role.ID: "id", Role.OBJECT_TYPE: "kind", Role.ACCESS_DIRECTION: None, Role.ACCESSES_TARGET: "accesses",
         Role.SERVES: "serves", Role.NAME: "name"},
    ),
    RecordKind.CRYPTO: (
        _crypto_row, (Role.ID, Role.OBJECT_TYPE),
        {Role.ID: "id", Role.OBJECT_TYPE: "object_type", Role.LOCATION: "location",
         Role.STORAGE_LOCATION: "key_locations", Role.ALGORITHM: "algorithm", Role.CONFIG_FLAG: "config_flags",
         Role.MATCHED_KEY: "matched_key", Role.ISSUER_CERT: "issuer_cert", Role.CREATED_BY: "created_by",
         Role.NAME: "name"},
    ),
    RecordKind.ACCESS: (
        _access_row, (Role.ID, Role.ACCESSES_TARGET),
        {Role.ID: None, Role.ACCESSES_TARGET: None, Role.ACCESS_DIRECTION: None},
    ),
}


# --------------------------------------------------------------------------
# bundle assembly
# --------------------------------------------------------------------------

def load_bundle(
    inventory_paths,
    profiles: list[MappingProfile],
    registry: CryptoRegistry,
    use_builtin_profiles: bool = False,
) -> tuple[InventoryBundle, list[Diagnostic]]:
    """Read and parse every inventory file and assemble a canonical bundle,
    whose ``input_digests`` map each path to the digest of its bytes.  The
    files share one string table for the call, so an equal value read from
    any of them is one object: a reference to an asset is the asset's
    ``id`` itself.  The diagnostics of parsing each name their line; those
    of assembling, which reads records, name none."""
    parsed: list = []
    diags: list[Diagnostic] = []
    digests: dict[str, str] = {}
    strings: dict[str, str] = {}
    for path in inventory_paths:
        text, digests[str(path)] = read_input(path, "inventory")
        records, file_diags = parse_tabular(text, path, profiles, use_builtin_profiles, strings=strings)
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
    asset_rows: dict[str, list[AssetRecord]] = {}

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
                    _error(
                        diags, record.source.file, None, "conflicting-level",
                        f"classification {record.label!r} already requires {held.display}; "
                        f"ignoring conflicting level {rating.display}",
                    )
        elif isinstance(record, DataRecord):
            _insert_unique(data, record, "data", diags)
        elif isinstance(record, CryptoObjectRecord):
            _insert_unique(crypto, record, "crypto", diags)
            # the checks of _crypto_row, which a record built in code has not had
            for code, problem in _field_problems(record):
                _error(diags, record.source.file, None, code, problem)
        elif isinstance(record, AssetRecord):
            asset_rows.setdefault(record.id, []).append(record)

    # Every reference resolves here.  Serves targets, access-record targets
    # and reference cells naming no crypto object, data record or registry
    # algorithm are assets, declared or not, so ``InventoryBundle.resolve``
    # finds every cell's target.  Each such target keeps the first row, by
    # file and ref, that refers to it.
    referrers: dict[str, Source] = {}
    access_record = RefOrigin.ACCESS_RECORD
    for rows in asset_rows.values():
        for row in rows:
            targets = [*row.serves]
            for ref in row.accesses:
                target = ref.target
                if ref.origin is access_record or (
                    target not in crypto and target not in data and registry.algorithm_ref(target) is None
                ):
                    targets.append(target)
            source = row.source
            for target in targets:
                held = referrers.get(target)
                if held is None or source < held:
                    referrers[target] = source

    assets = {ident: _merge_assets(ident, rows, referrers.get(ident), diags) for ident, rows in asset_rows.items()}
    for ident, source in referrers.items():
        if ident not in assets:
            assets[ident] = AssetRecord(id=ident, source=source)

    classifications = tuple(
        ClassificationBinding(
            label=label,
            required=tuple(sorted(entry["ratings"].values(), key=lambda r: r.sort_key())),
            rank=entry["rank"],
            source=entry["source"],
        )
        for label, entry in bindings.items()  # in rank order: rank is the insertion index
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
    keep, drop = sorted((held, record), key=lambda r: (r.source, repr(r)))
    table[record.id] = keep
    _error(
        diags, drop.source.file, None, "duplicate-id",
        f"{noun} id {record.id!r} is defined more than once; keeping the copy from {keep.source.file}",
    )


def _merge_assets(ident: str, rows: list[AssetRecord], referrer: Source | None, diags: list[Diagnostic]):
    """The asset the rows declaring ``ident`` give, with ``referrer`` the
    first row that refers to it, if any.  A row equal to the merge is
    returned itself, so the bundle and its records hold one copy of an
    asset declared by one row."""
    if len(rows) == 1:
        # one row is its own merge, unless its references need sorting or
        # a referrer sorts before a row that gives nothing but the id
        row = rows[0]
        if len(row.serves) < 2 and len(row.accesses) < 2 and (
            row.kind is not None or row.name or row.serves or row.accesses
            or referrer is None or row.source <= referrer
        ):
            return row
    kinds = sorted({r.kind for r in rows if r.kind is not None}, key=lambda k: k.value)
    if len(kinds) > 1:
        _error(
            diags, min(r.source.file for r in rows if r.kind is not None), None, "conflicting-kind",
            f"asset {ident!r} is declared with kinds {', '.join(k.value for k in kinds)}; keeping {kinds[0].value}",
        )
    serves = tuple(sorted({t for r in rows for t in r.serves}))
    accesses = tuple(
        sorted(
            {ref for r in rows for ref in r.accesses},
            key=lambda ref: (ref.target, ref.direction.value, ref.origin.value, ref.source or Source("", "")),
        )
    )
    names = sorted({r.name for r in rows if r.name})
    # rows that declare the asset itself beat rows that merely relate it to
    # something, and both beat rows that only name it and rows that refer
    # to it
    identity = [r.source for r in rows if r.kind is not None or r.name]
    relation = [r.source for r in rows if r.serves or r.accesses]
    mentions = [r.source for r in rows] + ([referrer] if referrer else [])
    merged = AssetRecord(
        id=ident,
        kind=kinds[0] if kinds else None,
        serves=serves,
        accesses=accesses,
        name=names[0] if names else None,
        source=min(identity or relation or mentions),
    )
    return next((r for r in rows if r == merged), merged)


# --------------------------------------------------------------------------
# overlay records: an ``add_records`` entry read as a row
# --------------------------------------------------------------------------

def _named_source(raw) -> Source | None:
    """``raw`` as a Source when it is an object with a string file and ref."""
    if isinstance(raw, dict) and all(isinstance(raw.get(k), str) for k in ("file", "ref")):
        return Source(raw["file"], raw["ref"])
    return None


def _known_fields(obj: dict, known, where: str) -> None:
    unknown = sorted(obj.keys() - known)
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r} in {where}")


def _entry_source(obj: dict, default: Source) -> Source:
    if "source" not in obj:
        return default
    source = _named_source(obj["source"])
    if source is None:
        raise ValueError(f"source must name a file and a ref as strings, got {obj['source']!r}")
    return source


def parse_entry(entry: dict):
    """The record an overlay ``add_records`` entry stands for, which is the
    record the same CSV row gives: its fields are read as the cells of their
    roles (``_KINDS``) by ``_bind``.  A classification's ``required``
    levels, an asset's ``accesses`` and a ``source`` are read apart; a field
    its kind, an access or a level object does not take is an error.  Raises
    KeyError or ValueError naming the first problem."""
    try:
        kind = RecordKind(entry["record_kind"])
    except ValueError:
        raise ValueError(f"unknown record_kind {entry['record_kind']!r}") from None
    _, required, fields = _KINDS[kind]
    if not any(fields.values()):
        raise ValueError(f"cannot add records of kind {kind.value!r}")
    roles = {key: role for role, key in fields.items()}
    # the entry as a row: a (role, cell) per string field or list member; a
    # retention that is not a string is its role's default, read unread
    cells: list[tuple[Role, str]] = []
    defaults: dict[Role, object] = {}
    for key, value in entry.items():
        role = roles.get(key)
        if role in (None, Role.SECURITY_LEVEL, Role.ACCESSES_TARGET) or value is None:  # unknown or read apart
            continue
        if role in _MEMBER_ROLES:
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise ValueError(f"{key} must be a list of strings, got {value!r}")
            cells.extend((role, cell) for cell in value)
        elif isinstance(value, str):
            cells.append((role, value))
        elif role is Role.RETENTION_YEARS:
            defaults[role] = value
        else:
            raise ValueError(f"{key} must be a string, got {value!r}")
    for role in required:
        if fields[role] not in entry:
            raise KeyError(fields[role])
    if kind is RecordKind.CLASSIFICATION:
        # rank follows order, as for rows of the classification sheet
        if "rank" in entry:
            raise ValueError(f"classification {entry['label']!r} may not set a rank")
        if not isinstance(entry["required"], list):
            raise ValueError(f"classification {entry['label']!r} needs a list of required levels")
        for level in entry["required"]:  # the {"dimension", "value"} form reads as its value
            if isinstance(level, dict):
                _known_fields(level, {"dimension", "value"}, f"a required level of {entry['label']!r}")
                level = SecurityRating.from_dict(level).value
            cells.append((Role.SECURITY_LEVEL, str(level)))
    ident = entry[fields[required[0]]]
    _known_fields(entry, roles.keys() | {"record_kind", "source"}, f"{kind.value} record {ident!r}")

    columns: dict[Role, list[int]] = {}
    for index, (role, _) in enumerate(cells):
        columns.setdefault(role, []).append(index)
    strings: dict[str, str] = {}
    diags: list[Diagnostic] = []
    record = _bind(kind, columns, defaults, strings)([cell for _, cell in cells], "overlay", None, diags)
    if diags:
        # a warning ends in the fallback a CSV row takes; an added record
        # has none, so the warning rejects it
        problem = diags[0]
        raise ValueError(problem.message if record is None else problem.message.rpartition("; ")[0])
    record = replace(record, source=_entry_source(entry, record.source))
    if kind is RecordKind.ASSET:
        accesses = entry.get("accesses")
        accesses = [] if accesses is None else accesses  # null is empty, as for the other fields
        fields = {"target", "direction", "origin"}
        if not (isinstance(accesses, list) and all(isinstance(r, dict) and fields <= r.keys() for r in accesses)):
            raise ValueError(
                f"the accesses of {record.id!r} must be a list of objects with target, direction and origin"
            )
        refs = []
        for ref in accesses:
            _known_fields(ref, fields | {"source"}, f"an access of {record.id!r}")
            if not isinstance(ref["target"], str):
                raise ValueError(f"access targets of {record.id!r} must be strings")
            direction, origin = Direction(ref["direction"]), RefOrigin(ref["origin"])
            ref_source = _entry_source(ref, record.source)
            refs.extend(
                AccessRef(target, direction, origin, ref_source)
                for target in _members([_cell(ref["target"])], strings.setdefault)
                if target != record.id
            )
        record = replace(record, accesses=tuple(refs))
    return record
