"""Policy documents: parsing, canonical printing, and lint-style validation.

The accepted surface format is the AWS-style statement structure restricted
to effect, the three pattern clauses (``Principal``/``NotPrincipal``,
``Action``/``NotAction``, ``Resource``/``NotResource``) and string-operator
conditions.  ``Sid`` and other unanalyzed fields are accepted and dropped.
A bare ``"Statement": [...]`` fragment (a document without the surrounding
braces) is accepted as well.

Normalization performed by :func:`parse_policy`: lone patterns become
one-element lists, and each statement's conditions are ordered by
(operator, key).  Condition order is semantically irrelevant (conditions
conjoin), so this makes parse/print round trips structurally exact.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .alphabet import check_string
from .errors import AlphabetError, PolicySyntaxError, SchemaError

DEFAULT_VERSION = "2012-10-17"


class Effect(enum.Enum):
    ALLOW = "Allow"
    DENY = "Deny"


class ConditionOperator(enum.Enum):
    STRING_EQUALS = "StringEquals"
    STRING_NOT_EQUALS = "StringNotEquals"
    STRING_LIKE = "StringLike"
    STRING_NOT_LIKE = "StringNotLike"

    @property
    def negated(self) -> bool:
        return self in (ConditionOperator.STRING_NOT_EQUALS, ConditionOperator.STRING_NOT_LIKE)


@dataclass(frozen=True)
class WildcardPattern:
    """Pattern over printable ASCII where ``*`` is any run and ``?`` any symbol."""

    text: str

    def __post_init__(self) -> None:
        check_string(self.text)


@dataclass(frozen=True)
class PatternClause:
    """One Principal/Action/Resource constraint; ``negated`` encodes the Not* form."""

    negated: bool
    patterns: tuple[WildcardPattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise SchemaError("pattern clause needs at least one pattern")


@dataclass(frozen=True)
class Condition:
    operator: ConditionOperator
    key: str
    values: tuple[WildcardPattern, ...]

    def __post_init__(self) -> None:
        if not self.key:
            raise SchemaError("condition key must be non-empty")
        if not self.values:
            raise SchemaError("condition needs at least one value")


@dataclass(frozen=True)
class Statement:
    effect: Effect
    principal: PatternClause
    action: PatternClause
    resource: PatternClause
    conditions: tuple[Condition, ...] = ()


@dataclass(frozen=True)
class PolicyDocument:
    version: str
    statements: tuple[Statement, ...]

    def __post_init__(self) -> None:
        if not self.statements:
            raise SchemaError("policy needs at least one statement")


@dataclass(frozen=True)
class PolicyWarning:
    """Non-fatal finding from validate_policy."""

    code: str
    message: str
    statement: int | None = None


def _string_list(value: object, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise SchemaError(f"{where} must be a string or a non-empty list of strings")


def _patterns(value: object, where: str) -> tuple[WildcardPattern, ...]:
    try:
        return tuple(WildcardPattern(t) for t in _string_list(value, where))
    except AlphabetError as e:
        raise SchemaError(f"{where}: {e}") from None


def _parse_clause(obj: dict, positive: str, where: str) -> PatternClause:
    negative = "Not" + positive
    if positive in obj and negative in obj:
        raise SchemaError(f"{where} has both {positive} and {negative}")
    if positive in obj:
        return PatternClause(False, _patterns(obj[positive], f"{where} {positive}"))
    if negative in obj:
        return PatternClause(True, _patterns(obj[negative], f"{where} {negative}"))
    raise SchemaError(f"{where} needs {positive} or {negative}")


def _parse_conditions(obj: object, where: str) -> tuple[Condition, ...]:
    if obj is None:
        return ()
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} Condition must be an object")
    out = []
    for op_name, by_key in obj.items():
        try:
            op = ConditionOperator(op_name)
        except ValueError:
            raise SchemaError(f"{where}: unknown condition operator {op_name!r}") from None
        if not isinstance(by_key, dict) or not by_key:
            raise SchemaError(f"{where} Condition {op_name} must map keys to values")
        for key, values in by_key.items():
            if not isinstance(key, str) or not key:
                raise SchemaError(f"{where}: condition key must be a non-empty string")
            out.append(Condition(op, key, _patterns(values, f"{where} Condition {op_name}[{key}]")))
    out.sort(key=lambda c: (c.operator.value, c.key))
    return tuple(out)


def _parse_statement(obj: object, idx: int) -> Statement:
    where = f"statement {idx}"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    effect_raw = obj.get("Effect")
    if effect_raw is None:
        raise SchemaError(f"{where} is missing Effect")
    try:
        effect = Effect(effect_raw)
    except ValueError:
        raise SchemaError(f"{where}: Effect must be Allow or Deny, got {effect_raw!r}") from None
    if isinstance(obj.get("Principal"), dict) or isinstance(obj.get("NotPrincipal"), dict):
        raise SchemaError(f"{where}: structured principal maps are not supported; use pattern strings")
    return Statement(
        effect=effect,
        principal=_parse_clause(obj, "Principal", where),
        action=_parse_clause(obj, "Action", where),
        resource=_parse_clause(obj, "Resource", where),
        conditions=_parse_conditions(obj.get("Condition"), where),
    )


def parse_policy(text: str) -> PolicyDocument:
    """Parse policy text (full document or bare ``"Statement": [...]`` fragment)."""
    if text.lstrip().startswith('"'):
        text = "{" + text + "}"
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise PolicySyntaxError(f"invalid policy JSON: {e}") from None
    if not isinstance(data, dict):
        raise SchemaError("policy document must be an object")
    version = data.get("Version", DEFAULT_VERSION)
    if not isinstance(version, str):
        raise SchemaError("Version must be a string")
    raw = data.get("Statement")
    if raw is None:
        raise SchemaError("policy has no Statement")
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("Statement must be a non-empty list of statements")
    return PolicyDocument(version, tuple(_parse_statement(s, i) for i, s in enumerate(raw)))


def _clause_json(clause: PatternClause, positive: str) -> tuple[str, list[str]]:
    name = "Not" + positive if clause.negated else positive
    return name, [p.text for p in clause.patterns]


def print_policy(doc: PolicyDocument) -> str:
    """Canonical text form; parse_policy(print_policy(doc)) == doc."""
    stmts = []
    for s in doc.statements:
        out: dict[str, object] = {"Effect": s.effect.value}
        for clause, positive in ((s.principal, "Principal"), (s.action, "Action"), (s.resource, "Resource")):
            name, pats = _clause_json(clause, positive)
            out[name] = pats
        if s.conditions:
            cond: dict[str, dict[str, list[str]]] = {}
            for c in s.conditions:
                cond.setdefault(c.operator.value, {})[c.key] = [v.text for v in c.values]
            out["Condition"] = cond
        stmts.append(out)
    return json.dumps({"Version": doc.version, "Statement": stmts}, indent=2)


def validate_policy(doc: PolicyDocument) -> list[PolicyWarning]:
    """Non-fatal lint pass: duplicate statements and self-contradicting conditions."""
    warnings: list[PolicyWarning] = []
    seen: dict[Statement, int] = {}
    for i, s in enumerate(doc.statements):
        if s in seen:
            warnings.append(
                PolicyWarning(
                    "DuplicateStatement",
                    f"statement {i} duplicates statement {seen[s]}",
                    statement=i,
                )
            )
        else:
            seen[s] = i
    for i, s in enumerate(doc.statements):
        flagged: set[str] = set()
        for c1 in s.conditions:
            if c1.operator.negated or c1.key in flagged:
                continue
            texts = {v.text for v in c1.values}
            for c2 in s.conditions:
                if c2.operator.negated and c2.key == c1.key and texts & {v.text for v in c2.values}:
                    warnings.append(
                        PolicyWarning(
                            "ContradictoryCondition",
                            f"statement {i}: key {c1.key!r} requires and forbids the same pattern",
                            statement=i,
                        )
                    )
                    flagged.add(c1.key)
                    break
    return warnings
