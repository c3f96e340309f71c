"""Request sets: the semantics of a policy as a set of request tuples.

A request is a tuple of strings over the dimensions (principal, action,
resource, then any condition keys, lexicographic).  The sets a command works
on share one schema: a pair of policies is compiled over both policies'
condition keys (:func:`policy_differences`), and a key a policy does not
name is unconstrained in its set.  A :class:`RequestSet` is
a union of *cubes*.  A cube is a plain tuple of languages, one :class:`Dfa`
per dimension, and denotes their product; it is empty iff any component is.
Unions of cubes are closed under union, intersection and difference (the
difference of two cubes distributes into at most one cube per dimension), so
policy compilation and the permissiveness comparison stay exact.  A clause
compiles as one alternation; a union of languages and a condition key's
conjunction fold from the first; :func:`_cube_difference` settles trivial terms.

Deny-overrides semantics: a policy's set is (union of allow-statement cubes)
minus (union of deny-statement cubes).

A condition key a request does not supply is evaluated as the empty string.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping

from .automata import Dfa, empty_dfa, from_pattern, operation_cache, universe_dfa
from .errors import CubeBlowup, InsufficientLanguage, SchemaError, VerificationError
from .policy import Effect, PolicyDocument, WildcardPattern
from .sampler import sample

DEFAULT_CUBE_CAP = 10_000

BASE_DIMENSIONS = ("principal", "action", "resource")


@dataclass(frozen=True)
class DimensionSchema:
    """Dimension names: the three fixed roles, then condition keys sorted."""

    condition_keys: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        keys = tuple(sorted(set(self.condition_keys)))
        for k in keys:
            if k in BASE_DIMENSIONS:
                raise SchemaError(f"condition key {k!r} collides with a fixed dimension name")
        object.__setattr__(self, "condition_keys", keys)

    @property
    def dimensions(self) -> tuple[str, ...]:
        return BASE_DIMENSIONS + self.condition_keys

    def index(self, dim: str) -> int:
        try:
            return self.dimensions.index(dim)
        except ValueError:
            raise SchemaError(f"unknown dimension {dim!r}") from None


# One language per dimension; ``RequestCube(dfas)`` builds one from an iterable.
RequestCube = tuple[Dfa, ...]


@dataclass(frozen=True)
class RequestSet:
    schema: DimensionSchema
    cubes: tuple[RequestCube, ...]

    def __post_init__(self) -> None:
        kept: list[RequestCube] = []
        seen: set[RequestCube] = set()
        for cube in self.cubes:
            if len(cube) != len(self.schema.dimensions):
                raise SchemaError("cube arity does not match the schema")
            if any(d.is_empty() for d in cube) or cube in seen:
                continue
            kept.append(cube)
            seen.add(cube)
        object.__setattr__(self, "cubes", tuple(kept))


def is_empty_set(x: RequestSet) -> bool:
    return not x.cubes


def universe_set(schema: DimensionSchema) -> RequestSet:
    return RequestSet(schema, (tuple(universe_dfa() for _ in schema.dimensions),))


def empty_set(schema: DimensionSchema) -> RequestSet:
    return RequestSet(schema, ())


def _cube_difference(a: RequestCube, b: RequestCube) -> list[RequestCube]:
    """Distribute (A₁×…×A_k) \\ (B₁×…×B_k) into per-dimension cubes.

    Term i keeps intersections on dimensions before i, the difference on
    dimension i, and a's own components after i.  Once a prefix intersection
    is empty every later term is empty too.  No term is empty: a request set
    drops empty cubes, so a's components are not.  Trivial dimensions take
    no product: where Bᵢ is U or equals Aᵢ the difference is ∅ and the
    intersection Aᵢ, and where Aᵢ is U they are Bᵢ's complement and Bᵢ.
    Otherwise a dimension before the last builds the intersection first, and
    the difference only when that is neither ∅ (it is Aᵢ) nor Aᵢ (it is ∅)."""
    out: list[RequestCube] = []
    prefix: list[Dfa] = []
    univ, k = universe_dfa(), len(a)
    for i, (x, y) in enumerate(zip(a, b)):
        last = i + 1 == k
        if y == univ or x == y:
            diff, inter = empty_dfa(), x
        elif x == univ:
            diff, inter = y.complement(), y
        elif last:
            diff, inter = x.difference(y), None
        else:
            inter = x.intersect(y)
            diff = x if inter.is_empty() else empty_dfa() if inter == x else x.difference(y)
        if not diff.is_empty():
            out.append((*prefix, diff, *a[i + 1 :]))
        if last or inter.is_empty():
            break
        prefix.append(inter)
    return out


def set_difference(x: RequestSet, y: RequestSet) -> RequestSet:
    """Requests in ``x`` and not in ``y``; both must share one schema."""
    if x.schema != y.schema:
        raise SchemaError("set difference of request sets over different dimensions")
    cubes = list(x.cubes)
    for b in y.cubes:
        nxt: list[RequestCube] = []
        for a in cubes:
            nxt.extend(_cube_difference(a, b))
            _check_cubes(len(nxt))
        cubes = nxt
        if not cubes:
            break
    return RequestSet(x.schema, tuple(cubes))


def _check_cubes(count: int) -> None:
    """Raise CubeBlowup past the cube cap, read when the check runs."""
    if count > DEFAULT_CUBE_CAP:
        raise CubeBlowup(f"request-set operation exceeded the cube cap of {DEFAULT_CUBE_CAP}")


# -- policy compilation -------------------------------------------------------


def _union(languages: Iterable[Dfa]) -> Dfa:
    """Union of the languages, folded left to right from the first; ∅ for none."""
    langs = list(languages)
    return reduce(Dfa.union, langs) if langs else empty_dfa()


def _disjunction(patterns: Iterable[WildcardPattern], negated: bool) -> Dfa:
    """Union of the patterns' languages, as one alternation, complemented when ``negated``."""
    d = from_pattern(*patterns)
    return d.complement() if negated else d


def policy_schema(*docs: PolicyDocument) -> DimensionSchema:
    """The fixed dimensions, then every condition key any of the policies names."""
    return DimensionSchema(tuple({c.key for doc in docs for s in doc.statements for c in s.conditions}))


@operation_cache()
def compile_policy(doc: PolicyDocument) -> RequestSet:
    """Allowed-request set of a policy: union of allow cubes minus union of deny cubes.

    Each statement becomes one cube.  Patterns in a clause disjoin; a Not*
    clause complements the disjunction.  Condition values disjoin within one
    condition, conditions conjoin per key, and StringNot* complements the
    value language.  Condition keys a statement does not constrain stay
    unconstrained in its cube."""
    return _compile(doc, policy_schema(doc))


def _compile(doc: PolicyDocument, schema: DimensionSchema) -> RequestSet:
    """:func:`compile_policy` over ``schema``, which names every condition key of ``doc``."""
    univ = universe_dfa()
    allow: list[RequestCube] = []
    deny: list[RequestCube] = []
    for stmt in doc.statements:
        per_key: dict[str, Dfa] = {}
        for cond in stmt.conditions:
            values = _disjunction(cond.values, cond.operator.negated)
            per_key[cond.key] = per_key[cond.key].intersect(values) if cond.key in per_key else values
        clauses = (stmt.principal, stmt.action, stmt.resource)
        cube = tuple(_disjunction(c.patterns, c.negated) for c in clauses)
        cube += tuple(per_key.get(k, univ) for k in schema.condition_keys)
        (allow if stmt.effect == Effect.ALLOW else deny).append(cube)
    allowed = RequestSet(schema, tuple(allow))
    if not deny:
        return allowed
    return set_difference(allowed, RequestSet(schema, tuple(deny)))


@operation_cache()
def policy_differences(
    p1: PolicyDocument, p2: PolicyDocument
) -> tuple[RequestSet, RequestSet, RequestSet, RequestSet]:
    """``(s1, s2, s1 ∖ s2, s2 ∖ s1)`` for the policies' allowed sets ``s1`` and
    ``s2``, both compiled over their joint dimensions.  A condition key one
    policy does not name is unconstrained in its set."""
    schema = policy_schema(p1, p2)
    s1, s2 = _compile(p1, schema), _compile(p2, schema)
    return s1, s2, set_difference(s1, s2), set_difference(s2, s1)


# -- queries ------------------------------------------------------------------


def project(x: RequestSet, dim: str) -> Dfa:
    """Language of one dimension across all (non-empty) cubes."""
    i = x.schema.index(dim)
    return _union(cube[i] for cube in x.cubes)


def contains(x: RequestSet, request: Mapping[str, str]) -> bool:
    """Membership of a request; dimensions the request omits read as ""."""
    values = [request.get(dim, "") for dim in x.schema.dimensions]
    return any(all(d.accepts(v) for d, v in zip(cube, values)) for cube in x.cubes)


def decide_request(doc: PolicyDocument, request: Mapping[str, str]) -> Effect:
    return Effect.ALLOW if contains(compile_policy(doc), request) else Effect.DENY


# -- sampling and comparison --------------------------------------------------


@operation_cache()
def sample_from_set(x: RequestSet, k: int, seed: int = 0) -> list[dict[str, str]]:
    """Up to ``k`` distinct member requests, deterministic for a given seed.

    Raises ValueError when ``k < 0`` and InsufficientLanguage when ``k > 0``
    and the set is empty.  Small languages may yield fewer than ``k``
    distinct requests."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return []
    if is_empty_set(x):
        raise InsufficientLanguage("cannot sample requests from an empty set")
    rng = random.Random(seed)
    out: list[dict[str, str]] = []
    seen: set[tuple[str, ...]] = set()
    for draw in range(5 * k + 10):
        cube = x.cubes[draw % len(x.cubes)]
        values = tuple(sample(d.extract_regex(), rng) for d in cube)
        if values not in seen:
            seen.add(values)
            out.append(dict(zip(x.schema.dimensions, values)))
            if len(out) == k:
                break
    return out


def _verified(
    side: RequestSet, k: int, seed: int, inside: RequestSet, outside: RequestSet
) -> list[dict[str, str]]:
    """Up to ``k`` requests sampled from ``side``, which is ``inside`` minus
    ``outside``, each re-checked to be in ``inside`` and not in ``outside``.
    An empty side gives ``[]``."""
    reqs = [] if is_empty_set(side) else sample_from_set(side, k, seed)
    for req in reqs:
        if not contains(inside, req) or contains(outside, req):
            raise VerificationError(f"sampled request {req!r} failed verification")
    return reqs


@operation_cache()
def sample_requests(
    doc: PolicyDocument, k: int, seed: int = 0
) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    """Up to k allowed and k denied requests, every one re-verified against
    the compiled allowed set.  A side with no requests comes back as ``[]``.
    Both sides are built even for ``k == 0``, so a blowup still raises."""
    if k < 0:
        raise ValueError("k must be non-negative")
    allowed_set = compile_policy(doc)
    universe = universe_set(allowed_set.schema)
    denied_set = set_difference(universe, allowed_set)
    return (
        _verified(allowed_set, k, seed, allowed_set, empty_set(allowed_set.schema)),
        _verified(denied_set, k, seed, universe, allowed_set),
    )


class Permissiveness(enum.Enum):
    EQUIVALENT = "Equivalent"
    FIRST_MORE_PERMISSIVE = "FirstMorePermissive"
    SECOND_MORE_PERMISSIVE = "SecondMorePermissive"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class PermissivenessVerdict:
    kind: Permissiveness
    witnesses_first: tuple[dict[str, str], ...]  # allowed by policy 1 only
    witnesses_second: tuple[dict[str, str], ...]  # allowed by policy 2 only


@operation_cache()
def compare_policies(
    p1: PolicyDocument,
    p2: PolicyDocument,
    witness_count: int = 3,
    seed: int = 0,
) -> PermissivenessVerdict:
    """Four-way permissiveness classification with sampled witnesses, each
    re-verified to be allowed by one policy and not by the other.

    Raises ValueError when ``witness_count < 0``, whatever the verdict."""
    if witness_count < 0:
        raise ValueError("witness_count must be non-negative")
    s1, s2, f1, f2 = policy_differences(p1, p2)
    if is_empty_set(f1) and is_empty_set(f2):
        kind = Permissiveness.EQUIVALENT
    elif is_empty_set(f2):
        kind = Permissiveness.FIRST_MORE_PERMISSIVE
    elif is_empty_set(f1):
        kind = Permissiveness.SECOND_MORE_PERMISSIVE
    else:
        kind = Permissiveness.INCOMPARABLE
    w1 = tuple(_verified(f1, witness_count, seed, s1, s2))
    w2 = tuple(_verified(f2, witness_count, seed, s2, s1))
    return PermissivenessVerdict(kind, w1, w2)
