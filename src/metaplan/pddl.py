"""Parser for the STRIPS+typing subset of PDDL.

Accepts positive-precondition STRIPS with ``:typing`` only. Everything
outside that subset (conditional effects, quantifiers, negative
preconditions, equality, disjunctions, numeric fluents, domain constants)
is rejected with an error naming the construct. Text is read in one pass
into forms: symbols are folded to lower case and ``;`` comments skipped.
Every section other than ``:action`` may appear once, in any order. Every
error carries the ``line:column`` of the token at fault (of the ``(`` of an
empty form): each schema is checked as it is read, and the types and
predicates it uses are checked at their tokens once the domain is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

ROOT_TYPE = "object"
SUPPORTED_REQUIREMENTS = (":strips", ":typing")

_PRECONDITION_CONNECTIVES = {
    "not": "negative precondition",
    "or": "disjunctive precondition",
    "imply": "implication precondition",
    "forall": "universal quantifier",
    "exists": "existential quantifier",
    "=": "equality",
    "when": "conditional effect",
}
_EFFECT_CONNECTIVES = {
    "when": "conditional effect",
    "forall": "quantified effect",
    "exists": "existential quantifier",
    "or": "disjunctive effect",
    "imply": "implication effect",
    "=": "equality",
}


class PddlError(Exception):
    """Syntax or validation failure with source position when known."""

    def __init__(self, message: str, filename: str = "<string>",
                 line: int = 0, column: int = 0):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.message = message
        self.filename = filename
        self.line = line
        self.column = column


class UnsupportedConstructError(PddlError):
    """Input is valid PDDL but outside the supported subset."""

    def __init__(self, construct: str, filename: str = "<string>",
                 line: int = 0, column: int = 0):
        super().__init__(f"unsupported construct: {construct}",
                         filename, line, column)
        self.construct = construct


class Literal(NamedTuple):
    """A predicate applied to arguments (variables if lifted, objects if
    ground); literals sort by predicate, then args."""

    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        if self.args:
            return f"({self.predicate} {' '.join(self.args)})"
        return f"({self.predicate})"


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ActionSchemaAst:
    """Lifted action: typed parameters plus precondition/add/delete literal sets."""

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs, ordered
    pre: frozenset[Literal]
    add: frozenset[Literal]
    delete: frozenset[Literal]


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: frozenset[str]
    types: dict[str, str]  # declared type -> parent; root "object" implicit
    predicates: tuple[PredicateDecl, ...]
    schemas: tuple[ActionSchemaAst, ...]

    def type_exists(self, name: str) -> bool:
        return name == ROOT_TYPE or name in self.types

    def ancestors(self, name: str) -> list[str]:
        """Type chain from ``name`` up to and including the root."""
        chain = [name]
        while name != ROOT_TYPE:
            name = self.types.get(name, ROOT_TYPE)
            chain.append(name)
        return chain

    def predicate(self, name: str) -> PredicateDecl | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type) pairs, ordered
    init: frozenset[Literal]
    goal: frozenset[Literal]


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

class _Atom(NamedTuple):
    text: str
    line: int
    column: int


class _Form(list):
    """A parenthesised form: its items, and the position of its ``(``."""

    __slots__ = ("line", "column")
    line: int
    column: int


_Sexpr = Union[_Atom, _Form]


# One token per match: a parenthesis, an atom, a ``;`` comment running to
# the line end, or a line end; other whitespace separates and is skipped.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")


def _read_sexprs(text: str, filename: str) -> list[_Sexpr]:
    """The top-level forms of ``text``, read in one pass: atoms are folded
    to lower case and every atom and form keeps its 1-based position, a tab
    counting as one column."""
    stack: list[_Form] = []
    top: list[_Sexpr] = []
    line, line_start, last = 1, 0, (1, 1)
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if tok == "\n":
            line, line_start = line + 1, match.end()
            continue
        if tok[0] == ";":
            continue
        last = (line, match.start() - line_start + 1)
        if tok == "(":
            form = _Form()
            form.line, form.column = last
            stack.append(form)
        elif tok == ")":
            if not stack:
                raise PddlError("unbalanced ')'", filename, *last)
            done = stack.pop()
            (stack[-1] if stack else top).append(done)
        elif stack:
            stack[-1].append(_Atom(tok.lower(), *last))
        else:
            raise PddlError(f"stray token {tok.lower()!r} outside any form",
                            filename, *last)
    if stack:
        raise PddlError("unbalanced '(': unexpected end of input", filename,
                        *last)
    return top


def _position(expr: _Sexpr) -> tuple[int, int]:
    """The position of the first token of ``expr``, or of the ``(`` of the
    first empty form it starts with."""
    while isinstance(expr, list) and expr:
        expr = expr[0]
    return (expr.line, expr.column)


def _expect_atom(expr: _Sexpr, what: str, filename: str) -> _Atom:
    if not isinstance(expr, _Atom):
        raise PddlError(f"expected {what}, found a list", filename,
                        *_position(expr))
    return expr


def _typed_atoms(items: list[_Sexpr], filename: str,
                 variables: bool) -> list[tuple[_Atom, _Atom | None]]:
    """Parse ``a b - t c d`` style lists into name and type tokens, the type
    ``None`` for untyped entries."""
    out: list[tuple[_Atom, _Atom | None]] = []
    pending: list[_Atom] = []
    i = 0
    while i < len(items):
        tok = _expect_atom(items[i], "a name", filename)
        if tok.text == "-":
            if i + 1 >= len(items):
                raise PddlError("missing type after '-'", filename,
                                tok.line, tok.column)
            type_tok = _expect_atom(items[i + 1], "a type name", filename)
            if not pending:
                raise PddlError("'-' with nothing to type", filename,
                                tok.line, tok.column)
            out += [(name, type_tok) for name in pending]
            pending = []
            i += 2
        else:
            if variables and not tok.text.startswith("?"):
                raise PddlError(f"expected a ?variable, found {tok.text!r}",
                                filename, tok.line, tok.column)
            if not variables and tok.text.startswith("?"):
                raise PddlError(f"unexpected variable {tok.text!r}",
                                filename, tok.line, tok.column)
            pending.append(tok)
            i += 1
    out += [(name, None) for name in pending]
    return out


def _pairs(atoms: list[tuple[_Atom, _Atom | None]]
           ) -> tuple[tuple[str, str], ...]:
    """(name, type) pairs of typed-list tokens; untyped entries default to
    object."""
    return tuple((name.text, tname.text if tname else ROOT_TYPE)
                 for name, tname in atoms)


def _parse_literal(expr: _Sexpr, filename: str, ground: bool) -> Literal:
    if not isinstance(expr, list) or not expr:
        raise PddlError("expected a (predicate ...) literal", filename,
                        *_position(expr))
    head = _expect_atom(expr[0], "a predicate name", filename)
    if head.text.startswith(("?", ":")):
        raise PddlError(f"invalid predicate name {head.text!r}", filename,
                        head.line, head.column)
    args = []
    for arg in expr[1:]:
        tok = _expect_atom(arg, "an argument", filename)
        if ground and tok.text.startswith("?"):
            raise PddlError(f"variable {tok.text!r} in ground literal",
                            filename, tok.line, tok.column)
        args.append(tok.text)
    return Literal(head.text, tuple(args))


def _head(expr: _Sexpr) -> str:
    """The text of the atom that starts form ``expr``, or ""."""
    if isinstance(expr, list) and expr and isinstance(expr[0], _Atom):
        return expr[0].text
    return ""


def _conjuncts(expr: _Sexpr) -> list[_Sexpr]:
    """The items of an ``(and ...)`` form, none of ``()``, else ``expr``."""
    if _head(expr) == "and":
        return expr[1:]
    return [] if isinstance(expr, list) and not expr else [expr]


def _parse_condition(expr: _Sexpr, filename: str, ground: bool,
                     context: str) -> dict[Literal, _Form]:
    """A condition is a positive literal or an (and ...) of positive
    literals; each literal maps to the form it is first read from."""
    if not isinstance(expr, list):
        raise PddlError(f"malformed {context}", filename, *_position(expr))
    literals: dict[Literal, _Form] = {}
    for item in _conjuncts(expr):
        head = _head(item)
        if head in _PRECONDITION_CONNECTIVES:
            construct = (f"negative {context}" if head == "not"
                         else _PRECONDITION_CONNECTIVES[head])
            raise UnsupportedConstructError(construct, filename, item[0].line,
                                            item[0].column)
        literals.setdefault(_parse_literal(item, filename, ground), item)
    return literals


def _parse_effect(expr: _Sexpr, filename: str
                  ) -> tuple[dict[Literal, _Form], dict[Literal, _Form]]:
    """Effects are an atom, (not atom), or an (and ...) of those; each add
    and delete literal maps to the form it is first read from."""
    add: dict[Literal, _Form] = {}
    delete: dict[Literal, _Form] = {}
    for item in _conjuncts(expr):
        if not isinstance(item, list) or not item:
            raise PddlError("malformed effect", filename, *_position(item))
        head = _head(item)
        if head in _EFFECT_CONNECTIVES:
            raise UnsupportedConstructError(_EFFECT_CONNECTIVES[head], filename,
                                            item[0].line, item[0].column)
        if head == "not":
            if len(item) != 2:
                raise PddlError("(not ...) takes exactly one literal",
                                filename, item[0].line, item[0].column)
            delete.setdefault(_parse_literal(item[1], filename, ground=False),
                              item[1])
        else:
            add.setdefault(_parse_literal(item, filename, ground=False), item)
    return add, delete


def _sections(body: list[_Sexpr], filename: str) -> Iterator[tuple[str, list]]:
    """The ``(:keyword ...)`` sections of ``body`` in order, each checked as
    it is reached. Only ``:action`` may repeat: a second section of any
    other kind is rejected at its keyword."""
    seen: set[str] = set()
    for part in body:
        if not isinstance(part, list) or not part:
            raise PddlError("expected a (:section ...) form", filename,
                            *_position(part))
        key = _expect_atom(part[0], "a section keyword", filename)
        if not key.text.startswith(":"):
            raise PddlError(f"expected a :section keyword, found {key.text!r}",
                            filename, key.line, key.column)
        if key.text in seen and key.text != ":action":
            raise PddlError(f"section {key.text} given twice", filename,
                            key.line, key.column)
        seen.add(key.text)
        yield key.text, part


# ---------------------------------------------------------------------------
# Domain parsing
# ---------------------------------------------------------------------------

def _read_define(text: str, filename: str,
                 kind: str) -> tuple[str, list[_Sexpr]]:
    """The name and the sections of the one ``(define (KIND NAME) ...)``
    form of ``text``, ``kind`` being "domain" or "problem"."""
    forms = _read_sexprs(text, filename)
    if len(forms) != 1:
        raise PddlError(f"expected exactly one (define ...) form, found {len(forms)}",
                        filename, 1, 1)
    form = forms[0]
    if not (_head(form) == "define" and len(form) >= 2):
        raise PddlError(f"expected (define ({kind} ...) ...)", filename,
                        *_position(form))
    header = form[1]
    if not (_head(header) == kind and len(header) == 2):
        raise PddlError(f"expected ({kind} NAME)", filename,
                        *_position(header))
    return _expect_atom(header[1], f"the {kind} name", filename).text, form[2:]


def _requirements(part: list[_Sexpr], filename: str) -> set[str]:
    """The flags of a ``(:requirements ...)`` section, each supported."""
    flags = set()
    for req in part[1:]:
        tok = _expect_atom(req, "a requirement flag", filename)
        if tok.text not in SUPPORTED_REQUIREMENTS:
            raise UnsupportedConstructError(
                f"requirement {tok.text}", filename, tok.line, tok.column)
        flags.add(tok.text)
    return flags


def parse_domain(text: str, filename: str = "<string>") -> DomainAst:
    """Parse PDDL domain text into a validated :class:`DomainAst`."""
    name, body = _read_define(text, filename, "domain")

    requirements: set[str] = set()
    types: dict[str, str] = {}
    predicates: list[PredicateDecl] = []
    # Each type and literal a later section may declare, checked at its
    # token once the domain is read: (token, who uses it, the literal or
    # None for a type).
    uses: list[tuple[_Atom, str, Literal | None]] = []
    schemas: list[ActionSchemaAst] = []

    for key, part in _sections(body, filename):
        pos = (part[0].line, part[0].column)
        if key == ":requirements":
            requirements = _requirements(part, filename)
        elif key == ":types":
            declared = _typed_atoms(part[1:], filename, variables=False)
            for tok, parent in declared:
                if tok.text == ROOT_TYPE:
                    continue
                if tok.text in types:
                    raise PddlError(f"type {tok.text!r} declared twice",
                                    filename, tok.line, tok.column)
                types[tok.text] = parent.text if parent else ROOT_TYPE
            for tok, _ in declared:
                seen, cur = {tok.text}, types.get(tok.text, ROOT_TYPE)
                while cur != ROOT_TYPE:
                    if cur in seen:
                        raise PddlError(f"type hierarchy cycle through {cur!r}",
                                        filename, tok.line, tok.column)
                    seen.add(cur)
                    cur = types.get(cur, ROOT_TYPE)
        elif key == ":predicates":
            for entry in part[1:]:
                if not isinstance(entry, list) or not entry:
                    raise PddlError("malformed predicate declaration",
                                    filename, *_position(entry))
                pname = _expect_atom(entry[0], "a predicate name", filename)
                params = _typed_atoms(entry[1:], filename, variables=True)
                if any(p.name == pname.text for p in predicates):
                    raise PddlError(f"predicate {pname.text!r} declared twice",
                                    filename, pname.line, pname.column)
                predicates.append(PredicateDecl(pname.text, _pairs(params)))
                uses += [(tname, f"predicate {pname.text!r}", None)
                         for _, tname in params if tname]
        elif key == ":action":
            schema = _parse_action(part, filename, uses)
            if any(s.name == schema.name for s in schemas):
                raise PddlError(f"action {schema.name!r} declared twice",
                                filename, part[1].line, part[1].column)
            schemas.append(schema)
        elif key == ":constants":
            raise UnsupportedConstructError("domain constants", filename, *pos)
        elif key in (":functions", ":derived", ":axioms"):
            raise UnsupportedConstructError(key[1:].replace(":", ""),
                                            filename, *pos)
        else:
            raise UnsupportedConstructError(f"section {key}", filename, *pos)

    # Parents mentioned but never declared hang off the root.
    for parent in list(types.values()):
        if parent != ROOT_TYPE and parent not in types:
            types[parent] = ROOT_TYPE

    domain = DomainAst(name, frozenset(requirements), types,
                       tuple(predicates), tuple(schemas))
    for tok, user, lit in uses:
        if lit is None:
            if domain.type_exists(tok.text):
                continue
            fault = f"{user} uses unknown type {tok.text!r}"
        else:
            decl = domain.predicate(lit.predicate)
            if decl is None:
                fault = f"{user} uses undeclared predicate {lit.predicate!r}"
            elif decl.arity != len(lit.args):
                fault = (f"{user} {lit}: expected {decl.arity} arguments, "
                         f"found {len(lit.args)}")
            else:
                continue
        raise PddlError(fault, filename, tok.line, tok.column)
    return domain


def _parse_action(part: list[_Sexpr], filename: str,
                  uses: list[tuple[_Atom, str, Literal | None]]
                  ) -> ActionSchemaAst:
    """The schema of an ``(:action ...)`` section, each of its own faults
    reported at its token. Its parameter types and literals are added to
    ``uses``, to be checked once the domain is read."""
    pos = (part[0].line, part[0].column)
    if len(part) < 2:
        raise PddlError("action missing a name", filename, *pos)
    name = _expect_atom(part[1], "an action name", filename).text
    fields: dict[str, _Sexpr] = {}
    i = 2
    while i < len(part):
        key = _expect_atom(part[i], "an action keyword", filename)
        if i + 1 >= len(part):
            raise PddlError(f"{key.text} missing its argument", filename,
                            key.line, key.column)
        if key.text not in (":parameters", ":precondition", ":effect"):
            raise UnsupportedConstructError(f"action field {key.text}",
                                            filename, key.line, key.column)
        fields[key.text] = part[i + 1]
        i += 2

    if ":parameters" not in fields:
        raise PddlError(f"action {name!r} missing :parameters", filename, *pos)
    params_expr = fields[":parameters"]
    if not isinstance(params_expr, list):
        raise PddlError(":parameters must be a list", filename, *pos)
    params = _typed_atoms(params_expr, filename, variables=True)
    bound: set[str] = set()
    for var, tname in params:
        if var.text in bound:
            raise PddlError(f"action {name!r} has duplicate parameter "
                            f"{var.text!r}", filename, var.line, var.column)
        bound.add(var.text)
        if tname:
            uses.append((tname, f"action {name!r}", None))

    pre = _parse_condition(fields.get(":precondition", []), filename,
                           ground=False, context="precondition")
    add, delete = _parse_effect(fields.get(":effect", []), filename)
    for group, literals in (("precondition", pre), ("add effect", add),
                            ("delete effect", delete)):
        for lit, form in literals.items():
            uses.append((form[0], f"action {name!r} {group}", lit))
            for arg in form[1:]:
                if not arg.text.startswith("?"):
                    raise UnsupportedConstructError(
                        "object constant in action schema", filename,
                        arg.line, arg.column)
                if arg.text not in bound:
                    raise PddlError(f"action {name!r} {group} uses unbound "
                                    f"variable {arg.text!r}", filename,
                                    arg.line, arg.column)
    for lit, form in delete.items():
        if lit not in add:
            continue
        line, col = max(_position(add[lit]), _position(form))
        raise PddlError(f"action {name!r} has {lit} in both add and delete "
                        f"effects", filename, line, col)
    return ActionSchemaAst(name, _pairs(params), frozenset(pre),
                           frozenset(add), frozenset(delete))


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------

def parse_problem(text: str, filename: str = "<string>") -> ProblemAst:
    """Parse PDDL problem text into a validated :class:`ProblemAst`."""
    name, body = _read_define(text, filename, "problem")

    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: set[Literal] = set()
    goal: dict[Literal, _Form] | None = None

    for key, part in _sections(body, filename):
        pos = (part[0].line, part[0].column)
        if key == ":domain":
            if len(part) != 2:
                raise PddlError("(:domain NAME) takes one name", filename, *pos)
            domain_name = _expect_atom(part[1], "the domain name", filename).text
        elif key == ":objects":
            atoms = _typed_atoms(part[1:], filename, variables=False)
            declared: set[str] = set()
            for tok, _ in atoms:
                if tok.text in declared:
                    raise PddlError(f"object {tok.text!r} declared twice",
                                    filename, tok.line, tok.column)
                declared.add(tok.text)
            objects = _pairs(atoms)
        elif key == ":init":
            for entry in part[1:]:
                if _head(entry) == "not":
                    raise UnsupportedConstructError("negated init fact", filename,
                                                    entry[0].line, entry[0].column)
                init.add(_parse_literal(entry, filename, ground=True))
        elif key == ":goal":
            if len(part) != 2:
                raise PddlError("(:goal ...) takes one condition", filename, *pos)
            goal = _parse_condition(part[1], filename, ground=True, context="goal")
        elif key == ":requirements":
            _requirements(part, filename)
        else:
            raise UnsupportedConstructError(f"section {key}", filename, *pos)

    if not domain_name:
        raise PddlError("problem missing (:domain NAME)", filename, 1, 1)
    if goal is None:
        raise PddlError("problem missing (:goal ...)", filename, 1, 1)
    return ProblemAst(name, domain_name, objects,
                      frozenset(init), frozenset(goal))


# ---------------------------------------------------------------------------
# Cross checks and pretty printing
# ---------------------------------------------------------------------------

def check_compat(domain: DomainAst, problem: ProblemAst) -> list[str]:
    """Diagnostics for using ``problem`` with ``domain``, each distinct one
    once, in the order first met; empty means compatible."""
    diags: list[str] = []
    if problem.domain_name != domain.name:
        diags.append(f"problem targets domain {problem.domain_name!r}, "
                     f"got {domain.name!r}")
    for obj, tname in problem.objects:
        if not domain.type_exists(tname):
            diags.append(f"object {obj!r} has undeclared type {tname!r}")
    declared_objects = {obj for obj, _ in problem.objects}
    for section, literals in (("init", problem.init), ("goal", problem.goal)):
        for lit in sorted(literals):
            decl = domain.predicate(lit.predicate)
            if decl is None:
                diags.append(f"{section} uses undeclared predicate "
                             f"{lit.predicate!r}")
                continue
            if decl.arity != len(lit.args):
                diags.append(f"{section} literal {lit}: expected {decl.arity} "
                             f"arguments, found {len(lit.args)}")
            for arg in lit.args:
                if arg not in declared_objects:
                    diags.append(f"{section} literal {lit} uses undeclared "
                                 f"object {arg!r}")
    return list(dict.fromkeys(diags))


def _format_typed(pairs: Iterable[tuple[str, str]]) -> str:
    return " ".join(f"{name} - {tname}" for name, tname in pairs)


def domain_to_pddl(domain: DomainAst) -> str:
    """Deterministic pretty printer; reparsing yields an equal DomainAst."""
    lines = [f"(define (domain {domain.name})"]
    reqs = [r for r in SUPPORTED_REQUIREMENTS if r in domain.requirements]
    if reqs:
        lines.append(f"  (:requirements {' '.join(reqs)})")
    if domain.types:
        lines.append("  (:types")
        for tname, parent in domain.types.items():
            lines.append(f"    {tname} - {parent}")
        lines.append("  )")
    if domain.predicates:
        lines.append("  (:predicates")
        for pred in domain.predicates:
            inner = f" {_format_typed(pred.params)}" if pred.params else ""
            lines.append(f"    ({pred.name}{inner})")
        lines.append("  )")
    for schema in domain.schemas:
        lines.append(f"  (:action {schema.name}")
        lines.append(f"    :parameters ({_format_typed(schema.params)})")
        pre = " ".join(str(lit) for lit in sorted(schema.pre))
        lines.append(f"    :precondition (and {pre})".rstrip() if pre
                     else "    :precondition (and)")
        effects = [str(lit) for lit in sorted(schema.add)]
        effects += [f"(not {lit})" for lit in sorted(schema.delete)]
        lines.append(f"    :effect (and {' '.join(effects)})".rstrip() if effects
                     else "    :effect (and)")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_to_pddl(problem: ProblemAst) -> str:
    """Deterministic pretty printer; reparsing yields an equal ProblemAst."""
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        lines.append("  (:objects")
        for obj, tname in problem.objects:
            lines.append(f"    {obj} - {tname}")
        lines.append("  )")
    lines.append("  (:init")
    for lit in sorted(problem.init):
        lines.append(f"    {lit}")
    lines.append("  )")
    goal = " ".join(str(lit) for lit in sorted(problem.goal))
    lines.append(f"  (:goal (and {goal}))".rstrip() if goal
                 else "  (:goal (and))")
    lines.append(")")
    return "\n".join(lines) + "\n"
