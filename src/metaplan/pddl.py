"""Parser for the STRIPS+typing subset of PDDL.

Accepts positive-precondition STRIPS with ``:typing`` only. Everything
outside that subset (conditional effects, quantifiers, negative
preconditions, equality, disjunctions, numeric fluents, domain constants)
is rejected with an error naming the construct. Symbols are folded to
lower case and ``;`` comments are stripped before tokenizing. Every
section other than ``:action`` may appear once, and errors carry the
``line:column`` of the token at fault where one exists.
"""

from __future__ import annotations

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


@dataclass(frozen=True, order=True)
class Literal:
    """A predicate applied to arguments (variables if lifted, objects if ground)."""

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
# Tokenizer / s-expression reader
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


def _tokenize(text: str, filename: str) -> list[_Atom]:
    tokens: list[_Atom] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(_Atom(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            tokens.append(_Atom(text[start:i].lower(), line, start_col))
    return tokens


def _read_sexprs(text: str, filename: str) -> list[_Sexpr]:
    tokens = _tokenize(text, filename)
    stack: list[_Form] = []
    top: list[_Sexpr] = []
    for tok in tokens:
        if tok.text == "(":
            form = _Form()
            form.line, form.column = tok.line, tok.column
            stack.append(form)
        elif tok.text == ")":
            if not stack:
                raise PddlError("unbalanced ')'", filename, tok.line, tok.column)
            done = stack.pop()
            (stack[-1] if stack else top).append(done)
        else:
            if not stack:
                raise PddlError(f"stray token {tok.text!r} outside any form",
                                filename, tok.line, tok.column)
            stack[-1].append(tok)
    if stack:
        raise PddlError("unbalanced '(': unexpected end of input", filename,
                        tokens[-1].line if tokens else 1,
                        tokens[-1].column if tokens else 1)
    return top


def _position(expr: _Sexpr) -> tuple[int, int]:
    """The position of the first token of ``expr``, or of the ``(`` of the
    first empty form it starts with."""
    while isinstance(expr, list) and expr:
        expr = expr[0]
    return (expr.line, expr.column)


def _expect_atom(expr: _Sexpr, what: str, filename: str) -> _Atom:
    if not isinstance(expr, _Atom):
        line, col = _position(expr)
        raise PddlError(f"expected {what}, found a list", filename, line, col)
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
        line, col = _position(expr)
        raise PddlError("expected a (predicate ...) literal", filename, line, col)
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


def _parse_condition(expr: _Sexpr, filename: str, ground: bool,
                     context: str) -> set[Literal]:
    """A condition is a positive literal or an (and ...) of positive literals."""
    if isinstance(expr, list) and not expr:
        return set()
    if not isinstance(expr, list):
        line, col = _position(expr)
        raise PddlError(f"malformed {context}", filename, line, col)
    conjunction = isinstance(expr[0], _Atom) and expr[0].text == "and"
    literals = set()
    for item in expr[1:] if conjunction else [expr]:
        head = item[0] if isinstance(item, list) and item else None
        if isinstance(head, _Atom) and head.text in _PRECONDITION_CONNECTIVES:
            construct = _PRECONDITION_CONNECTIVES[head.text]
            if head.text == "not":
                construct = f"negative {context}"
            raise UnsupportedConstructError(construct, filename, head.line,
                                            head.column)
        literals.add(_parse_literal(item, filename, ground))
    return literals


def _parse_effect(expr: _Sexpr, filename: str) -> tuple[set[Literal], set[Literal]]:
    """Effects are an atom, (not atom), or an (and ...) of those."""
    add: set[Literal] = set()
    delete: set[Literal] = set()
    if isinstance(expr, list) and not expr:
        return add, delete

    def one(item: _Sexpr) -> None:
        if not isinstance(item, list) or not item:
            line, col = _position(item)
            raise PddlError("malformed effect", filename, line, col)
        head = item[0]
        if isinstance(head, _Atom) and head.text in _EFFECT_CONNECTIVES:
            raise UnsupportedConstructError(_EFFECT_CONNECTIVES[head.text],
                                            filename, head.line, head.column)
        if isinstance(head, _Atom) and head.text == "not":
            if len(item) != 2:
                raise PddlError("(not ...) takes exactly one literal",
                                filename, head.line, head.column)
            delete.add(_parse_literal(item[1], filename, ground=False))
        else:
            add.add(_parse_literal(item, filename, ground=False))

    if isinstance(expr, list) and expr and isinstance(expr[0], _Atom) \
            and expr[0].text == "and":
        for sub in expr[1:]:
            one(sub)
    else:
        one(expr)
    return add, delete


def _sections(body: list[_Sexpr], filename: str) -> Iterator[tuple[str, list]]:
    """The ``(:keyword ...)`` sections of ``body`` in order, each checked as
    it is reached. Only ``:action`` may repeat: a second section of any
    other kind is rejected at its keyword."""
    seen: set[str] = set()
    for part in body:
        if not isinstance(part, list) or not part:
            line, col = _position(part)
            raise PddlError("expected a (:section ...) form", filename, line, col)
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
    if not (isinstance(form, list) and len(form) >= 2
            and isinstance(form[0], _Atom) and form[0].text == "define"):
        line, col = _position(form)
        raise PddlError(f"expected (define ({kind} ...) ...)", filename,
                        line, col)
    header = form[1]
    if not (isinstance(header, list) and len(header) == 2
            and isinstance(header[0], _Atom) and header[0].text == kind):
        line, col = _position(header)
        raise PddlError(f"expected ({kind} NAME)", filename, line, col)
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
    # Each typed predicate parameter's predicate and type token, checked
    # once every type is known.
    predicate_types: list[tuple[str, _Atom]] = []
    schemas: list[ActionSchemaAst] = []

    for key, part in _sections(body, filename):
        pos = (part[0].line, part[0].column)
        if key == ":requirements":
            requirements = _requirements(part, filename)
        elif key == ":types":
            for tok, parent in _typed_atoms(part[1:], filename,
                                            variables=False):
                if tok.text == ROOT_TYPE:
                    continue
                if tok.text in types:
                    raise PddlError(f"type {tok.text!r} declared twice",
                                    filename, tok.line, tok.column)
                types[tok.text] = parent.text if parent else ROOT_TYPE
        elif key == ":predicates":
            for entry in part[1:]:
                if not isinstance(entry, list) or not entry:
                    line, col = _position(entry)
                    raise PddlError("malformed predicate declaration",
                                    filename, line, col)
                pname = _expect_atom(entry[0], "a predicate name", filename)
                params = _typed_atoms(entry[1:], filename, variables=True)
                if any(p.name == pname.text for p in predicates):
                    raise PddlError(f"predicate {pname.text!r} declared twice",
                                    filename, pname.line, pname.column)
                predicates.append(PredicateDecl(pname.text, _pairs(params)))
                predicate_types += [(pname.text, tname)
                                    for _, tname in params if tname]
        elif key == ":action":
            schema = _parse_action(part, filename)
            if any(s.name == schema.name for s in schemas):
                name = part[1]
                raise PddlError(f"action {schema.name!r} declared twice",
                                filename, name.line, name.column)
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
    _validate_domain(domain, filename, predicate_types)
    return domain


def _parse_action(part: list[_Sexpr], filename: str) -> ActionSchemaAst:
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
    params = _pairs(_typed_atoms(params_expr, filename, variables=True))

    pre = _parse_condition(fields.get(":precondition", []), filename,
                           ground=False, context="precondition")
    add, delete = _parse_effect(fields.get(":effect", []), filename)
    return ActionSchemaAst(name, params, frozenset(pre),
                           frozenset(add), frozenset(delete))


def _validate_domain(domain: DomainAst, filename: str,
                     predicate_types: list[tuple[str, _Atom]]) -> None:
    for tname, parent in domain.types.items():
        seen = {tname}
        cur = parent
        while cur != ROOT_TYPE:
            if cur in seen:
                raise PddlError(f"type hierarchy cycle through {cur!r}", filename)
            seen.add(cur)
            cur = domain.types.get(cur, ROOT_TYPE)

    for pname, tname in predicate_types:
        if not domain.type_exists(tname.text):
            raise PddlError(f"predicate {pname!r} uses unknown type "
                            f"{tname.text!r}", filename, tname.line,
                            tname.column)

    for schema in domain.schemas:
        param_vars = [v for v, _ in schema.params]
        if len(set(param_vars)) != len(param_vars):
            raise PddlError(f"action {schema.name!r} has duplicate parameters",
                            filename)
        for _, tname in schema.params:
            if not domain.type_exists(tname):
                raise PddlError(f"action {schema.name!r} uses unknown type "
                                f"{tname!r}", filename)
        declared = set(param_vars)
        for group, literals in (("precondition", schema.pre),
                                ("add effect", schema.add),
                                ("delete effect", schema.delete)):
            for lit in literals:
                decl = domain.predicate(lit.predicate)
                if decl is None:
                    raise PddlError(f"action {schema.name!r} {group} uses "
                                    f"undeclared predicate {lit.predicate!r}",
                                    filename)
                if decl.arity != len(lit.args):
                    raise PddlError(
                        f"action {schema.name!r} {group} {lit}: expected "
                        f"{decl.arity} arguments, found {len(lit.args)}", filename)
                for arg in lit.args:
                    if not arg.startswith("?"):
                        raise UnsupportedConstructError(
                            "object constant in action schema", filename)
                    if arg not in declared:
                        raise PddlError(f"action {schema.name!r} {group} uses "
                                        f"unbound variable {arg!r}", filename)
        overlap = schema.add & schema.delete
        if overlap:
            lit = sorted(overlap)[0]
            raise PddlError(f"action {schema.name!r} has {lit} in both add and "
                            f"delete effects", filename)


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------

def parse_problem(text: str, filename: str = "<string>") -> ProblemAst:
    """Parse PDDL problem text into a validated :class:`ProblemAst`."""
    name, body = _read_define(text, filename, "problem")

    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: set[Literal] = set()
    goal: set[Literal] = set()
    saw_goal = False

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
                if isinstance(entry, list) and entry \
                        and isinstance(entry[0], _Atom) and entry[0].text == "not":
                    raise UnsupportedConstructError("negated init fact", filename,
                                                    entry[0].line, entry[0].column)
                init.add(_parse_literal(entry, filename, ground=True))
        elif key == ":goal":
            if len(part) != 2:
                raise PddlError("(:goal ...) takes one condition", filename, *pos)
            goal = _parse_condition(part[1], filename, ground=True, context="goal")
            saw_goal = True
        elif key == ":requirements":
            _requirements(part, filename)
        else:
            raise UnsupportedConstructError(f"section {key}", filename, *pos)

    if not domain_name:
        raise PddlError("problem missing (:domain NAME)", filename, 1, 1)
    if not saw_goal:
        raise PddlError("problem missing (:goal ...)", filename, 1, 1)
    return ProblemAst(name, domain_name, objects,
                      frozenset(init), frozenset(goal))


# ---------------------------------------------------------------------------
# Cross checks and pretty printing
# ---------------------------------------------------------------------------

def check_compat(domain: DomainAst, problem: ProblemAst) -> list[str]:
    """Diagnostics for using ``problem`` with ``domain``; empty means compatible."""
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
    return diags


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
