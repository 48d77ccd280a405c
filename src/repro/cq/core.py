"""Query cores and query equivalence.

Two CQs are equivalent iff they are homomorphically equivalent (Chandra and
Merlin), and every CQ has a unique minimal equivalent subquery, its *core* —
the object through which semantic width parameters are defined:
``sem-ghw(q) = ghw(core(q))`` (Section 4.3).

The computation here is the textbook one: search for a proper retract
(an endomorphism onto a subset of atoms fixing the free variables) and repeat
until none exists.  It is exponential in the query size, which is fine for
the query sizes this reproduction works with.
"""

from __future__ import annotations

from repro.cq.query import Atom, Constant, ConjunctiveQuery


def _apply_mapping(atom: Atom, mapping: dict) -> Atom:
    terms = []
    for term in atom.terms:
        if isinstance(term, Constant):
            terms.append(term)
        else:
            terms.append(mapping.get(term, term))
    return Atom(atom.relation, terms)


def find_homomorphism_between_queries(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> dict | None:
    """A homomorphism from ``source`` to ``target``: a mapping of the source
    variables to target terms that fixes free variables and sends every source
    atom to some target atom.  Returns the mapping or ``None``."""
    target_atoms = set(target.atoms)
    target_terms = list(dict.fromkeys(
        term for atom in target.atoms for term in atom.terms
    ))
    if not target_terms:
        target_terms = [Constant(0)]
    source_variables = list(source.variables)
    free = set(source.free_variables)

    # Candidate images per variable: free variables must map to themselves.
    candidates = {}
    for variable in source_variables:
        if variable in free:
            candidates[variable] = [variable]
        else:
            candidates[variable] = target_terms

    def consistent(mapping: dict) -> bool:
        for atom in source.atoms:
            if all(
                (isinstance(t, Constant) or t in mapping) for t in atom.terms
            ):
                if _apply_mapping(atom, mapping) not in target_atoms:
                    return False
        return True

    order = sorted(source_variables, key=lambda v: (len(candidates[v]), repr(v)))

    def backtrack(index: int, mapping: dict) -> dict | None:
        if index == len(order):
            return dict(mapping) if consistent(mapping) else None
        variable = order[index]
        for image in candidates[variable]:
            mapping[variable] = image
            if consistent(mapping):
                result = backtrack(index + 1, mapping)
                if result is not None:
                    return result
            del mapping[variable]
        return None

    return backtrack(0, {})


def queries_equivalent(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    """CQ equivalence via mutual homomorphisms (free variables must coincide)."""
    if set(first.free_variables) != set(second.free_variables):
        return False
    return (
        find_homomorphism_between_queries(first, second) is not None
        and find_homomorphism_between_queries(second, first) is not None
    )


def core_of(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of a CQ: a minimal equivalent subquery.

    Repeatedly looks for a retraction onto a proper subset of atoms; the
    result is unique up to isomorphism, and for our purposes any
    representative is sufficient.
    """
    current = query
    improved = True
    while improved:
        improved = False
        atoms = list(current.atoms)
        for drop_index in range(len(atoms)):
            candidate_atoms = tuple(a for i, a in enumerate(atoms) if i != drop_index)
            if not candidate_atoms:
                continue
            candidate = current.restrict_to_atoms(candidate_atoms)
            if set(candidate.free_variables) != set(current.free_variables):
                continue
            # current must map homomorphically into the candidate subquery
            # (the reverse direction is automatic for subqueries).
            if find_homomorphism_between_queries(current, candidate) is not None:
                current = candidate
                improved = True
                break
    return current
