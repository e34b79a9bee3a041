"""Loading and saving instances: CSV directories and a JSON codec.

A practical data exchange tool needs to ingest real tables.  This module
maps a directory of CSV files to an :class:`Instance` and back:

* one file per relation, named ``<Relation>.csv``;
* every cell is a constant, except cells of the form ``_:<int>`` which
  denote labeled nulls (the Turtle-ish blank-node convention), e.g.
  ``_:3`` is ``Null(3)`` -- so target instances with incomplete data
  round-trip;
* an optional header row is skipped when it matches the relation's
  column names ``col1, col2, ...`` (written by :func:`dump_instance`).

The reader validates arities against a schema when one is given, and
infers relation symbols from the data otherwise.

The **JSON codec** (:func:`dumps_instance` / :func:`loads_instance`,
schema ``repro.io/v1``) is the lossless sibling of the CSV format: cells
are *typed* (``["c", name]`` for constants, ``["n", ident]`` for nulls),
so constants whose name merely looks like a null literal (``"_:3"``) --
the cases :func:`roundtrip_safe` warns about -- survive unchanged, and
null identity is preserved exactly, including under
:meth:`Instance.canonical_renaming`.  The ``repro.engine`` result cache
stores every instance payload through this codec.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .core.atoms import Atom
from .core.errors import ReproError, SchemaError
from .core.instance import Instance
from .core.schema import RelationSymbol, Schema
from .core.terms import Const, Null, Value

NULL_PATTERN = re.compile(r"^_:(\d+)$")
PathLike = Union[str, Path]


def parse_cell(text: str) -> Value:
    """``"_:<n>"`` becomes a null; anything else a constant."""
    matched = NULL_PATTERN.match(text.strip())
    if matched:
        return Null(int(matched.group(1)))
    return Const(text.strip())


def format_cell(value: Value) -> str:
    """Inverse of :func:`parse_cell`."""
    if isinstance(value, Null):
        return f"_:{value.ident}"
    return value.name


def _header_for(arity: int) -> List[str]:
    return [f"col{i + 1}" for i in range(arity)]


def load_relation(
    path: PathLike,
    relation: Optional[RelationSymbol] = None,
    name: Optional[str] = None,
) -> List[Atom]:
    """Read one CSV file into atoms.

    The relation symbol is taken from ``relation``, or built from
    ``name`` (default: the file stem) and the observed column count.
    """
    path = Path(path)
    relation_name = name or (relation.name if relation else path.stem)
    atoms: List[Atom] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row_number, row in enumerate(reader):
            if not row or all(not cell.strip() for cell in row):
                continue
            if relation is None:
                relation = RelationSymbol(relation_name, len(row))
            if len(row) != relation.arity:
                raise SchemaError(
                    f"{path.name}:{row_number + 1}: expected "
                    f"{relation.arity} columns, got {len(row)}"
                )
            if row_number == 0 and [
                cell.strip() for cell in row
            ] == _header_for(relation.arity):
                continue  # generated header
            atoms.append(Atom(relation, tuple(parse_cell(cell) for cell in row)))
    return atoms


def load_instance(
    directory: PathLike, schema: Optional[Schema] = None
) -> Instance:
    """Read every ``*.csv`` in a directory into one instance.

    With a schema, file stems must name schema relations and arities are
    validated; without one, relations are inferred per file.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ReproError(f"{directory} is not a directory")
    instance = Instance()
    found = sorted(directory.glob("*.csv"))
    if not found:
        raise ReproError(f"no .csv files in {directory}")
    for path in found:
        relation: Optional[RelationSymbol] = None
        if schema is not None:
            relation = schema.get(path.stem)
            if relation is None:
                raise SchemaError(
                    f"{path.name}: relation {path.stem!r} is not in the schema"
                )
        instance.add_all(load_relation(path, relation))
    return instance


def dump_instance(
    instance: Instance,
    directory: PathLike,
    *,
    header: bool = True,
) -> List[Path]:
    """Write an instance as one CSV per relation; returns written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in instance.relation_names():
        atoms = sorted(instance.atoms_of(name))
        path = directory / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            if header and atoms:
                writer.writerow(_header_for(atoms[0].relation.arity))
            for atom in atoms:
                writer.writerow([format_cell(value) for value in atom.args])
        written.append(path)
    return written


# ----------------------------------------------------------------------
# JSON codec (repro.io/v1)
# ----------------------------------------------------------------------

#: Version tag embedded in every JSON payload this module writes.
JSON_SCHEMA = "repro.io/v1"

#: The schema tag as JSON text, for payloads assembled from pieces.
_SCHEMA_TEXT = json.dumps(JSON_SCHEMA)


def cell_to_json(value: Value) -> List:
    """A typed JSON cell: ``["c", name]`` or ``["n", ident]``.

    Unlike the CSV convention this is injective on all of ``Dom``: a
    constant literally named ``"_:3"`` stays distinguishable from
    ``Null(3)``.
    """
    if isinstance(value, Null):
        return ["n", value.ident]
    return ["c", value.name]


def cell_from_json(cell) -> Value:
    """Inverse of :func:`cell_to_json`."""
    try:
        tag, payload = cell
    except (TypeError, ValueError):
        raise ReproError(f"malformed JSON cell {cell!r}") from None
    if tag == "n":
        try:
            return Null(int(payload))
        except (TypeError, ValueError, OverflowError):
            raise ReproError(f"malformed JSON null cell {cell!r}") from None
    if tag == "c":
        return Const(str(payload))
    raise ReproError(f"unknown JSON cell tag {tag!r} in {cell!r}")


def instance_to_payload(instance: Instance, *, canonical: bool = False) -> dict:
    """The instance as a plain JSON-serializable dict (``repro.io/v1``).

    Rows are emitted in deterministic (sorted-atom) order, so equal
    instances produce equal payloads regardless of insertion order.
    With ``canonical=True`` the nulls are renamed via
    :meth:`Instance.canonical_renaming` first -- the form stored by the
    ``repro.engine`` cache, where keys are canonical fingerprints.
    """
    if canonical:
        instance = instance.canonical()
    return sorted_atoms_to_payload(instance.sorted_atoms())


def sorted_atoms_to_payload(atoms: Sequence[Atom]) -> dict:
    """The ``repro.io/v1`` payload of ground atoms in sorted order.

    ``atoms`` must be in :meth:`Atom.sort_key` order, as
    :meth:`Instance.sorted_atoms` returns them; the payload is then the
    one :func:`instance_to_payload` gives for an instance of them, and
    callers that hold the sorted atoms already encode without sorting
    twice.

    Each row is the atom's cached :meth:`Atom.json_row`, so an atom is
    encoded once however many payloads hold it: payloads of successive
    versions of an instance, the memory tier of
    :class:`repro.engine.cache.ResultCache` and the JSON encoder all
    share the row objects.  The payload dict and its per-relation
    ``rows`` lists are fresh, but the rows are read-only: a caller that
    edits a row must replace it with a copy.
    """
    relations = {}
    name = None
    for item in atoms:
        if item.relation.name != name:
            name = item.relation.name
            rows = []
            relations[name] = {"arity": item.relation.arity, "rows": rows}
        rows.append(item.json_row())
    return {"schema": JSON_SCHEMA, "relations": relations}


def sorted_atoms_to_text(atoms: Sequence[Atom]) -> str:
    """``json.dumps(sorted_atoms_to_payload(atoms), sort_keys=True)``.

    Built from each atom's cached :meth:`Atom.json_text` instead of
    encoding the payload: only the relation headers are encoded here,
    so an atom that outlives an edit is never encoded again.  The
    groups come in ``relation.name`` order, which is the order
    ``sort_keys`` gives the ``relations`` object; every name goes
    through ``json.dumps``, so escapes are the encoder's.
    """
    groups = []
    name = None
    for item in atoms:
        if item.relation.name != name:
            name = item.relation.name
            texts = []
            groups.append((item.relation, texts))
        texts.append(item.json_text())
    body = ", ".join(
        f'{json.dumps(relation.name)}: {{"arity": {relation.arity}, '
        f'"rows": [{", ".join(texts)}]}}'
        for relation, texts in groups
    )
    return f'{{"relations": {{{body}}}, "schema": {_SCHEMA_TEXT}}}'


def instance_from_payload(
    payload: dict, schema: Optional[Schema] = None
) -> Instance:
    """Rebuild an instance from :func:`instance_to_payload` output.

    With a schema, relation names are resolved against it (and validated);
    without one, relation symbols are inferred from the payload.
    """
    return Instance.from_ground(atoms_from_payload(payload, schema))


def atoms_from_payload(
    payload: dict, schema: Optional[Schema] = None
) -> List[Atom]:
    """The atoms of an instance payload, in row order.

    Checks everything :func:`instance_from_payload` promises (schema
    tag, object shapes, arities, schema membership, cell tags) and
    raises :class:`ReproError` otherwise.  Every atom is built from
    constant and null cells only, so it is ground by construction, which
    is what lets :meth:`Instance.from_ground` take the list unchecked.
    Duplicate rows stay in the list; the instance collapses them.
    """
    if not isinstance(payload, dict):
        raise ReproError(f"instance payload must be an object, got {payload!r}")
    version = payload.get("schema")
    if version != JSON_SCHEMA:
        raise ReproError(
            f"unsupported instance payload schema {version!r} "
            f"(expected {JSON_SCHEMA!r})"
        )
    relations = payload.get("relations", {})
    if not isinstance(relations, dict):
        raise ReproError(
            f"instance payload relations must be an object, got {relations!r}"
        )
    # One value per distinct cell of the payload: the interning
    # constructors of Const and Null run once per name, not per cell.
    constants = {}
    nulls = {}
    atoms: List[Atom] = []
    for name, body in relations.items():
        if not isinstance(body, dict):
            raise ReproError(
                f"relation {name!r} of the payload must be an object, "
                f"got {body!r}"
            )
        try:
            arity = int(body["arity"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ReproError(
                f"relation {name!r} of the payload needs an integer arity, "
                f"got {body.get('arity')!r}"
            ) from None
        rows = body.get("rows", ())
        if not isinstance(rows, (list, tuple)):
            raise ReproError(
                f"relation {name!r} of the payload has rows {rows!r}, "
                f"expected a list"
            )
        if schema is not None:
            relation = schema.get(name)
            if relation is None:
                raise SchemaError(
                    f"relation {name!r} from the payload is not in the schema"
                )
            if relation.arity != arity:
                raise SchemaError(
                    f"payload arity {arity} for {name!r} does not match the "
                    f"schema arity {relation.arity}"
                )
        else:
            relation = RelationSymbol(name, arity)
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise ReproError(f"{name!r} row {row!r} is not a list of cells")
            if len(row) != arity:
                raise SchemaError(
                    f"{name!r} row {row!r} has {len(row)} cells, expected {arity}"
                )
            values = []
            for cell in row:
                try:
                    tag, raw = cell
                except (TypeError, ValueError):
                    raise ReproError(f"malformed JSON cell {cell!r}") from None
                if tag == "c" and raw.__class__ is str:
                    value = constants.get(raw)
                    if value is None:
                        value = constants[raw] = Const(raw)
                elif tag == "n" and raw.__class__ is int:
                    value = nulls.get(raw)
                    if value is None:
                        value = nulls[raw] = Null(raw)
                else:
                    value = cell_from_json(cell)
                values.append(value)
            atoms.append(Atom(relation, tuple(values)))
    return atoms


def answers_to_json(answers) -> List[List[List]]:
    """An answer set as sorted rows of typed cells (``repro.io/v1``).

    Deterministic: rows are sorted, so equal answer sets encode equally.
    """
    return sorted(
        [cell_to_json(value) for value in row] for row in answers
    )


def answers_from_json(rows) -> frozenset:
    """Inverse of :func:`answers_to_json`."""
    if not isinstance(rows, list):
        raise ReproError(f"answer rows must be a list, got {rows!r}")
    return frozenset(
        tuple(cell_from_json(cell) for cell in row) for row in rows
    )


def dumps_instance(
    instance: Instance,
    *,
    canonical: bool = False,
    indent: Optional[int] = None,
) -> str:
    """Serialize an instance to a versioned JSON string (``repro.io/v1``).

    The output is deterministic (sorted keys, sorted rows); equal
    instances serialize to equal strings.
    """
    return json.dumps(
        instance_to_payload(instance, canonical=canonical),
        indent=indent,
        sort_keys=True,
    )


def loads_instance(text: str, schema: Optional[Schema] = None) -> Instance:
    """Inverse of :func:`dumps_instance`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(f"invalid instance JSON: {error}") from None
    return instance_from_payload(payload, schema)


# ----------------------------------------------------------------------
# Source-delta codec (repro.io/delta/v1)
# ----------------------------------------------------------------------

#: Version tag of the delta payloads consumed by ``repro.incremental``.
DELTA_SCHEMA = "repro.io/delta/v1"


def delta_to_payload(insertions: Instance, deletions: Instance) -> dict:
    """A source delta as a JSON-serializable dict (``repro.io/delta/v1``).

    Both halves are full ``repro.io/v1`` instance payloads, so typed
    cells (and hence constants named like null literals) survive.
    """
    return {
        "schema": DELTA_SCHEMA,
        "insert": instance_to_payload(insertions),
        "delete": instance_to_payload(deletions),
    }


def delta_from_payload(payload: dict, schema: Optional[Schema] = None):
    """Rebuild ``(insertions, deletions)`` from :func:`delta_to_payload`."""
    if not isinstance(payload, dict):
        raise ReproError(f"delta payload must be an object, got {payload!r}")
    version = payload.get("schema")
    if version != DELTA_SCHEMA:
        raise ReproError(
            f"unsupported delta payload schema {version!r} "
            f"(expected {DELTA_SCHEMA!r})"
        )
    insertions = instance_from_payload(payload.get("insert"), schema)
    deletions = instance_from_payload(payload.get("delete"), schema)
    return insertions, deletions


def dumps_delta(
    insertions: Instance,
    deletions: Instance,
    *,
    indent: Optional[int] = None,
) -> str:
    """Serialize a source delta to versioned JSON (deterministic)."""
    return json.dumps(
        delta_to_payload(insertions, deletions), indent=indent, sort_keys=True
    )


def loads_delta(text: str, schema: Optional[Schema] = None):
    """Inverse of :func:`dumps_delta`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(f"invalid delta JSON: {error}") from None
    return delta_from_payload(payload, schema)


def roundtrip_safe(instance: Instance) -> bool:
    """True if every constant survives the CSV round trip unchanged.

    Constants whose name *looks like* a null literal (``_:3``) or that
    carry leading/trailing whitespace would be re-read differently;
    :func:`dump_instance` callers can check this first.  The JSON codec
    (:func:`dumps_instance`) has no such unsafe constants -- its cells
    are typed.
    """
    for value in instance.active_domain():
        if isinstance(value, Const):
            if NULL_PATTERN.match(value.name):
                return False
            if value.name != value.name.strip():
                return False
    return True
