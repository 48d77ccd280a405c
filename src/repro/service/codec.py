"""The service wire format: JSON ⇄ engine objects.

The HTTP front door speaks plain JSON; this module is the single place
where requests become :class:`~repro.cq.query.ConjunctiveQuery` /
:class:`~repro.cq.database.Database` objects and results become response
payloads.  The format is deliberately minimal and explicit:

* a **term** is a variable when it is a JSON string (``"x"``) and a
  constant when wrapped (``{"const": 1}``) — never guessed from shape;
* a **query** is ``{"atoms": [{"relation": "R", "terms": [...]}, ...],
  "free": ["x", ...]}``; ``free`` omitted/null makes the query full, an
  empty list makes it Boolean (matching the library constructor);
* a **database** is ``{"R": [[1, 2], [2, 3]], ...}`` — relation name to
  rows, arity taken from the rows (which must agree);
* a **facts payload** (``POST /facts``) reuses the database shape —
  relation name to rows to append — and is validated by
  :func:`facts_from_json` before any row touches storage;
* a **result** ships the payload (``rows`` sorted for stable output /
  ``count`` / ``satisfiable``), the strategy that ran, and the timings.

Every malformed input raises :class:`CodecError`, which the HTTP layer maps
to a 400 — client errors must never surface as a 500.
"""

from __future__ import annotations

from repro.cq.database import Database, Relation
from repro.cq.query import Atom, Constant, ConjunctiveQuery
from repro.engine.executor import EvalResult, TASK_ANSWER


class CodecError(ValueError):
    """A request payload that does not parse into engine objects."""


def term_from_json(obj):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict) and set(obj) == {"const"}:
        return Constant(_scalar(obj["const"], "constant"))
    raise CodecError(
        f"a term is a variable string or {{'const': value}}, got {obj!r}"
    )


def term_to_json(term):
    if isinstance(term, Constant):
        return {"const": term.value}
    return str(term)


def _scalar(value, what: str):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise CodecError(f"{what} values must be JSON scalars, got {type(value).__name__}")


def query_from_json(obj) -> ConjunctiveQuery:
    if not isinstance(obj, dict):
        raise CodecError(f"a query is a JSON object, got {type(obj).__name__}")
    atoms_json = obj.get("atoms")
    if not isinstance(atoms_json, list) or not atoms_json:
        raise CodecError("a query needs a non-empty 'atoms' list")
    atoms = []
    for atom_json in atoms_json:
        if (
            not isinstance(atom_json, dict)
            or not isinstance(atom_json.get("relation"), str)
            or not isinstance(atom_json.get("terms"), list)
        ):
            raise CodecError(
                "each atom is {'relation': name, 'terms': [...]}, got "
                f"{atom_json!r}"
            )
        atoms.append(
            Atom(
                atom_json["relation"],
                [term_from_json(term) for term in atom_json["terms"]],
            )
        )
    free = obj.get("free")
    if free is not None:
        if not isinstance(free, list) or not all(isinstance(v, str) for v in free):
            raise CodecError("'free' must be a list of variable strings (or null)")
    try:
        return ConjunctiveQuery(atoms, free_variables=free)
    except ValueError as exc:  # e.g. free variable not occurring in the body
        raise CodecError(str(exc)) from None


def query_to_json(query: ConjunctiveQuery) -> dict:
    return {
        "atoms": [
            {
                "relation": atom.relation,
                "terms": [term_to_json(term) for term in atom.terms],
            }
            for atom in query.atoms
        ],
        "free": [str(v) for v in query.free_variables],
    }


def _rows_from_json(name: str, rows: list) -> list:
    """One relation's rows as tuples: lists of JSON scalars of one length."""
    arity = None
    tuples = []
    for row in rows:
        if not isinstance(row, list):
            raise CodecError(f"rows of {name!r} must be lists, got {row!r}")
        if arity is None:
            arity = len(row)
        elif len(row) != arity:
            raise CodecError(
                f"relation {name!r} mixes arities {arity} and {len(row)}"
            )
        tuples.append(tuple(_scalar(value, f"relation {name!r}") for value in row))
    return tuples


def database_from_json(obj) -> Database:
    if not isinstance(obj, dict):
        raise CodecError(
            f"a database is a JSON object of relation -> rows, got {type(obj).__name__}"
        )
    database = Database()
    for name, rows in obj.items():
        if not isinstance(name, str) or not isinstance(rows, list):
            raise CodecError(f"relation {name!r} must map to a list of rows")
        tuples = _rows_from_json(name, rows)
        database.add_relation(Relation(name, len(tuples[0]) if tuples else 0, tuples))
    return database


def facts_from_json(obj) -> dict:
    """``{"R": [[1, 2], ...], ...}`` → relation name to validated row
    tuples — the ``POST /facts`` append payload.  Arities must agree within
    each relation of the payload; agreement with the *stored* relation is
    the append endpoint's check, made for the whole payload before any row
    lands."""
    if not isinstance(obj, dict) or not obj:
        raise CodecError(
            "'facts' must be a non-empty JSON object of relation -> rows"
        )
    facts: dict = {}
    for name, rows in obj.items():
        if not isinstance(name, str) or not isinstance(rows, list) or not rows:
            raise CodecError(
                f"relation {name!r} must map to a non-empty list of rows"
            )
        facts[name] = _rows_from_json(name, rows)
    return facts


def database_to_json(database: Database) -> dict:
    return {
        name: sorted([list(row) for row in relation.tuples], key=repr)
        for name, relation in database.relations.items()
    }


def rows_to_json(rows) -> list:
    """Answer tuples as sorted lists (stable output across set iteration
    orders; ``repr`` keying tolerates mixed value types)."""
    return sorted((list(row) for row in rows), key=repr)


def result_to_json(result: EvalResult) -> dict:
    payload = {
        "task": result.task,
        "strategy": result.strategy,
        "timings": {
            key: result.timings.get(key, 0.0)
            for key in ("planning_seconds", "execution_seconds", "total_seconds")
        },
    }
    if result.task == TASK_ANSWER:
        payload["rows"] = rows_to_json(result.rows or ())
    else:
        payload["value"] = result.value
    if "dedup_of" in result.timings:
        payload["dedup_of"] = result.timings["dedup_of"]
    sharding = result.sharding
    if sharding is not None:
        payload["sharding"] = {
            "mode": sharding["mode"],
            "shards": sharding["shards"],
        }
    runtime = result.runtime
    if runtime is not None:
        payload["runtime"] = runtime.get("name")
    return payload
