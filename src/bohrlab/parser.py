"""Expression parser for functions on the glued configuration space.

Grammar (EBNF):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := number | 'i' | 'chi' '(' freq ')'
            | 'hat' '(' num ',' num ',' num ')' | '(' expr ')'
    freq   := rational ['*' symbol] | symbol
    number := rational | decimal

Rationals parse exactly ('1/2', '0.25'); `chi(q)` is the character with
frequency q, `chi(q*sym)` scales a named constant (pi, sqrt2, ...), and
`hat(a, b, c)` is the triangle with feet a, c and peak 1 at b.  Error
messages carry line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ap import APFunction
from .errors import InputError
from .frequencies import FrequencyModule, Generator, _rational_gcd
from .functions import C0Function, ExtendedFunction
from .scalars import (
    EC_I,
    ExactComplex,
    PiTimes,
    RealLike,
    SymbolicReal,
    check_literal_digits,
    format_rational,
    known_symbol,
)

_KEYWORDS = ("chi", "hat", "i")
MAX_NESTING = 100  # parenthesis depth: the parser and lowering recurse once per level


# ------------------------------------------------------------------
# tokens
# ------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER NAME + - * ( ) , END
    text: str
    value: Fraction | None
    line: int
    col: int


def _err(line: int, col: int, message: str) -> InputError:
    return InputError(f"line {line}, column {col}: {message}")


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch in "+-*(),":
            tokens.append(Token(ch, ch, None, line, col))
            i, col = i + 1, col + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            start, start_col = i, col
            while i < n and (src[i].isdigit() or src[i] == "."):
                i, col = i + 1, col + 1
            text = src[start:i]
            if text.count(".") > 1 or text.endswith("."):
                raise _err(line, start_col, f"malformed number {text!r}")
            # an immediate '/digits' continues the rational literal
            if i < n and src[i] == "/" and i + 1 < n and src[i + 1].isdigit():
                i, col = i + 1, col + 1
                dstart = i
                while i < n and src[i].isdigit():
                    i, col = i + 1, col + 1
                if "." in text:
                    raise _err(line, start_col, "decimal numerator in rational literal")
                text = f"{text}/{src[dstart:i]}"
            try:
                check_literal_digits(text)
            except InputError as exc:
                raise _err(line, start_col, str(exc)) from None
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise _err(line, start_col, f"malformed number {text!r}") from None
            tokens.append(Token("NUMBER", text, value, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i, col = i + 1, col + 1
            tokens.append(Token("NAME", src[start:i], None, line, start_col))
            continue
        raise _err(line, col, f"unexpected character {ch!r}")
    tokens.append(Token("END", "", None, line, col))
    return tokens


# ------------------------------------------------------------------
# AST
# ------------------------------------------------------------------


@dataclass(frozen=True)
class FreqLit:
    factor: Fraction
    symbol: str | None


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Imag:
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Chi:
    freq: FreqLit
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Hat:
    a: Fraction
    b: Fraction
    c: Fraction
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Prod:
    factors: tuple
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Expression = Num | Imag | Chi | Hat | Prod | Sum


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def take(self, kind: str | None = None) -> Token:
        tok = self.tokens[self.k]
        if kind is not None and tok.kind != kind:
            raise _err(tok.line, tok.col, f"expected {kind}, found {tok.text or 'end of input'!r}")
        self.k += 1
        return tok

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise _err(tok.line, tok.col, f"unexpected trailing input {tok.text!r}")
        return node

    def expr(self) -> Expression:
        pos = (self.peek().line, self.peek().col)
        terms = []
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        terms.append(self._fold_head(sign, self.term()))
        while self.peek().kind in ("+", "-"):
            op = self.take()
            terms.append((1 if op.kind == "+" else -1, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms), pos)

    @staticmethod
    def _fold_head(sign: int, node: Expression) -> tuple[int, Expression]:
        # a leading '-3' is the number -3, not a subtraction of 3
        if sign < 0 and isinstance(node, Num):
            return 1, Num(-node.value, node.pos)
        return sign, node

    def term(self) -> Expression:
        pos = (self.peek().line, self.peek().col)
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors), pos)

    def factor(self) -> Expression:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind == "NUMBER":
            self.take()
            return Num(tok.value, pos)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise _err(*pos, f"parentheses nest deeper than MAX_NESTING = {MAX_NESTING}")
            self.take()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take(")")
            return node
        if tok.kind == "NAME":
            if tok.text == "i":
                self.take()
                return Imag(pos)
            if tok.text == "chi":
                self.take()
                self.take("(")
                freq = self.freq_literal()
                self.take(")")
                return Chi(freq, pos)
            if tok.text == "hat":
                self.take()
                self.take("(")
                a = self.signed_number()
                self.take(",")
                b = self.signed_number()
                self.take(",")
                c = self.signed_number()
                self.take(")")
                if not a < b < c:
                    raise _err(*pos, "hat feet must be strictly increasing")
                return Hat(a, b, c, pos)
            raise _err(tok.line, tok.col, f"unknown name {tok.text!r}")
        raise _err(tok.line, tok.col, f"expected a factor, found {tok.text or 'end of input'!r}")

    def signed_number(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.take("NUMBER")
        return sign * tok.value

    def freq_literal(self) -> FreqLit:
        tok = self.peek()
        if tok.kind == "NAME":  # bare symbol means 1*symbol
            self.take()
            self._check_symbol(tok)
            return FreqLit(Fraction(1), tok.text)
        q = self.signed_number()
        if self.peek().kind == "*":
            self.take()
            name = self.take("NAME")
            self._check_symbol(name)
            return FreqLit(q, name.text)
        return FreqLit(q, None)

    @staticmethod
    def _check_symbol(tok: Token) -> None:
        if tok.text in _KEYWORDS or not known_symbol(tok.text):
            raise _err(tok.line, tok.col, f"unknown symbol {tok.text!r}")


def parse_expression(src: str) -> Expression:
    return _Parser(tokenize(src)).parse()


def parse_scalar_literal(src: str) -> RealLike:
    """Parse a real scalar literal: '1', '-3/2', '0.25', '2*pi', 'sqrt2'.

    Rational multiples of pi and of square roots come back as exact
    values so downstream phase decisions stay exact.
    """
    p = _Parser(tokenize(src))
    lit = p.freq_literal()
    p.take("END")
    if lit.symbol is None:
        return lit.factor
    if lit.symbol == "pi":
        return PiTimes(lit.factor)
    return SymbolicReal.of_symbol(lit.symbol, lit.factor)


def parse_generator_literal(src: str) -> Generator:
    """Parse a generator literal: '1', '1/2', 'pi', '2*sqrt2'."""
    p = _Parser(tokenize(src))
    lit = p.freq_literal()
    p.take("END")
    if lit.factor == 0:
        raise InputError("generator must be nonzero")
    if lit.symbol is None:
        return Generator.rational(lit.factor)
    return Generator.named(lit.symbol, lit.factor)


# ------------------------------------------------------------------
# lowering to an ExtendedFunction
# ------------------------------------------------------------------


def collect_freq_literals(node: Expression) -> list[FreqLit]:
    out: list[FreqLit] = []
    _collect_freqs(node, out)
    return out


def _collect_freqs(node: Expression, out: list[FreqLit]) -> None:
    if isinstance(node, Chi):
        out.append(node.freq)
    elif isinstance(node, Prod):
        for f in node.factors:
            _collect_freqs(f, out)
    elif isinstance(node, Sum):
        for _, t in node.terms:
            _collect_freqs(t, out)


def build_module(freqs: list[FreqLit]) -> tuple[FrequencyModule, dict]:
    """One generator per distinct symbol; the rational multipliers are
    divided by their gcd with 1 so the unit frequency stays in the module."""
    by_symbol: dict[str | None, list[Fraction]] = {}
    order: list[str | None] = []
    for lit in freqs:
        if lit.symbol not in by_symbol:
            by_symbol[lit.symbol] = []
            order.append(lit.symbol)
        by_symbol[lit.symbol].append(lit.factor)
    if not order:
        return FrequencyModule.integers(), {None: (0, Fraction(1))}
    gens = []
    index: dict[str | None, tuple[int, Fraction]] = {}
    for k, sym in enumerate(order):
        scale = _rational_gcd([q for q in by_symbol[sym] if q != 0] + [Fraction(1)])
        if sym is None:
            gens.append(Generator.rational(scale))
        else:
            gens.append(Generator.named(sym, scale))
        index[sym] = (k, scale)
    return FrequencyModule(tuple(gens)), index


@dataclass
class _Lowered:
    c0: C0Function
    ap: APFunction


def lower_expression(
    node: Expression, module: FrequencyModule | None = None
) -> ExtendedFunction:
    """Turn an AST into a concrete direct-sum function.

    Products may combine characters freely and may scale a compactly
    supported part by constants, but a compactly supported factor cannot
    multiply a character or another compactly supported factor.
    """
    lits = collect_freq_literals(node)
    if module is None:
        module, index = build_module(lits)
    else:
        index = _match_module(module, lits)
    lowered = _lower(node, module, index)
    return ExtendedFunction(lowered.c0, lowered.ap)


def _match_module(module: FrequencyModule, lits: list[FreqLit]) -> dict:
    index: dict[str | None, tuple[int, Fraction]] = {}
    for lit in lits:
        if lit.symbol in index:
            continue
        for k, g in enumerate(module.generators):
            if g.symbol == lit.symbol:
                index[lit.symbol] = (k, g.scale if g.symbol is not None else g.symbolic.terms.get("1", g.scale))
                break
        else:
            raise InputError(f"module has no generator for symbol {lit.symbol!r}")
    return index


def _freq_coords(module: FrequencyModule, index: dict, lit: FreqLit) -> tuple[int, ...]:
    k, scale = index[lit.symbol]
    ratio = lit.factor / scale
    if ratio.denominator != 1:
        raise InputError(
            f"frequency {format_rational(lit.factor)} is not an integer multiple "
            f"of the module generator"
        )
    coords = [0] * module.dim
    coords[k] = int(ratio)
    return tuple(coords)


def _lower(node: Expression, module: FrequencyModule, index: dict) -> _Lowered:
    zero_ap = APFunction.zero(module)
    if isinstance(node, Num):
        return _Lowered(C0Function.zero(), APFunction.constant(module, ExactComplex(node.value)))
    if isinstance(node, Imag):
        return _Lowered(C0Function.zero(), APFunction.constant(module, EC_I))
    if isinstance(node, Chi):
        coords = _freq_coords(module, index, node.freq)
        return _Lowered(C0Function.zero(), APFunction.character(module, *coords))
    if isinstance(node, Hat):
        return _Lowered(C0Function.hat(node.a, node.b, node.c), zero_ap)
    if isinstance(node, Sum):
        c0 = C0Function.zero()
        ap = zero_ap
        for sign, term in node.terms:
            low = _lower(term, module, index)
            if sign > 0:
                c0, ap = c0 + low.c0, ap + low.ap
            else:
                c0, ap = c0 + low.c0.scaled(-1), ap - low.ap
        return _Lowered(c0, ap)
    if isinstance(node, Prod):
        parts = [_lower(f, module, index) for f in node.factors]
        carriers = [p for p in parts if not p.c0.is_zero()]
        if len(carriers) > 1:
            raise _err(*node.pos, "cannot multiply two compactly supported factors")
        if carriers:
            carrier = carriers[0]
            rest = [p for p in parts if p is not carrier]
            scalar = ExactComplex(Fraction(1))
            for p in rest:
                s = _as_constant(p, module)
                if s is None:
                    raise _err(
                        *node.pos,
                        "cannot multiply a compactly supported factor by a character",
                    )
                scalar = scalar * s
            return _Lowered(carrier.c0.scaled(scalar), carrier.ap.scaled(scalar))
        acc = parts[0].ap
        for p in parts[1:]:
            acc = acc * p.ap
        return _Lowered(C0Function.zero(), acc)
    raise InputError(f"not an expression node: {node!r}")


def _as_constant(p: _Lowered, module: FrequencyModule) -> ExactComplex | None:
    """The value of a pure-constant factor, or None if it carries frequencies."""
    if not p.c0.is_zero():
        return None
    zero = module.zero()
    for freq, c in p.ap.terms():
        if freq != zero:
            return None
    c = p.ap.coeff(zero)
    return c if isinstance(c, ExactComplex) else ExactComplex.from_number(complex(c))
