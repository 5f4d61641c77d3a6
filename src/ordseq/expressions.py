"""Parser turning group expressions like "C3 x Dic5" into groups.

Atoms: C<n>, Ab(k1,...,kr), D<n>, Dic<k>, Q8, Q16, S<m>, A<m>, Heis(p),
M16, SD16, F20, F21, Aff(p,d,q), Cat(n,name) and PSL34.  The lowercase
letter x is the direct-product operator and parentheses group as usual.
Dic<k> names the dicyclic group of order k when 4 | k and of order 4k
otherwise, so Dic3 and Dic12 are the same group.
"""

import re

from .catalog import frobenius20, frobenius21, group_by_name, modular16, semidihedral16
from .errors import ParseError, SizeLimitError
from .fields import affine_frobenius_group, psl_3_4
from .groups import (
    FiniteGroup,
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    symmetric,
)

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Z][a-wyzA-Z]*\d*)|(?P<num>\d+)|(?P<punct>[x(),])|(?P<other>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[at]!r} at position {at}")
        for kind in ("name", "num", "punct", "other"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _number(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on digits
        raise ParseError(f"number at position {pos} has too many digits") from None


class _Parser:
    def __init__(self, text: str, cap: int | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.cap = cap

    def size(self, factors) -> int:
        """The product of the factors, or cap + 1 as soon as it passes the cap."""
        out = 1
        for f in factors:
            out *= f
            if self.cap is not None and out > self.cap:
                return self.cap + 1
        return out

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression at position {len(self.text)}")
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.take()
        if kind != "punct" or text != value:
            raise ParseError(f"expected {value!r} but found {text!r} at position {pos}")

    def int_arg(self) -> int:
        kind, text, pos = self.take()
        if kind != "num":
            raise ParseError(f"expected a number but found {text!r} at position {pos}")
        return _number(text, pos)

    def raw_arg(self, pos: int) -> str:
        """The rest of a Cat(...) call, taken verbatim up to the balancing ')'."""
        depth = 0
        j = pos
        while j < len(self.text):
            if self.text[j] == "(":
                depth += 1
            elif self.text[j] == ")":
                if depth == 0:
                    break
                depth -= 1
            j += 1
        if j == len(self.text):
            raise ParseError(f"unclosed catalog name at position {pos}")
        name = self.text[pos:j].strip()
        while self.i < len(self.tokens) and self.tokens[self.i][2] < j:
            self.i += 1
        self.expect(")")
        return name


def _atom(parser: _Parser):
    kind, text, pos = parser.take()
    if kind == "punct" and text == "(":
        node = _expr(parser)
        parser.expect(")")
        return node
    if kind != "name":
        raise ParseError(f"expected a group name but found {text!r} at position {pos}")
    head = text.rstrip("0123456789")
    tail = text[len(head):]

    def suffix() -> int:
        if not tail:
            raise ParseError(f"{head!r} needs a numeric suffix at position {pos}")
        return _number(tail, pos + len(head))

    if head == "C":
        n = suffix()
        if n < 1:
            raise ParseError(f"C0 at position {pos} names no group")
        return n, lambda: cyclic(n)
    if head == "D":
        n = suffix()
        if n % 2 or n < 2:
            raise ParseError(f"dihedral order {n} at position {pos} must be even")
        return n, lambda: dihedral(n)
    if head == "Dic":
        k = suffix()
        order = k if k % 4 == 0 else 4 * k
        return order, lambda: dicyclic(order)
    if text == "Q8":
        return 8, lambda: dicyclic(8, "Q8")
    if text == "Q16":
        return 16, lambda: dicyclic(16, "Q16")
    if head == "S" and tail:
        m = suffix()
        return parser.size(range(2, m + 1)), lambda: symmetric(m)
    if head == "A" and tail:
        m = suffix()
        return parser.size(range(3, m + 1)), lambda: alternating(m)
    if text == "M16":
        return 16, modular16
    if text == "SD16":
        return 16, semidihedral16
    if text == "F20":
        return 20, frobenius20
    if text == "F21":
        return 21, frobenius21
    if text == "PSL34":
        return 20160, psl_3_4
    if head == "Ab" and not tail:
        parser.expect("(")
        moduli = [parser.int_arg()]
        while parser.peek() and parser.peek()[1] == ",":
            parser.take()
            moduli.append(parser.int_arg())
        parser.expect(")")
        if any(m < 1 for m in moduli):
            raise ParseError(f"Ab at position {pos} needs positive moduli")
        return parser.size(moduli), lambda: abelian(moduli)
    if head == "Heis" and not tail:
        parser.expect("(")
        p = parser.int_arg()
        parser.expect(")")
        return p**3, lambda: heisenberg(p)
    if head == "Aff" and not tail:
        parser.expect("(")
        p = parser.int_arg()
        parser.expect(",")
        d = parser.int_arg()
        parser.expect(",")
        q = parser.int_arg()
        parser.expect(")")
        # once 2**d passes the cap, a larger exponent changes no verdict
        e = d if parser.cap is None else min(d, parser.cap.bit_length() + 1)
        return parser.size((p**e, q)), lambda: affine_frobenius_group(p, d, q)
    if head == "Cat" and not tail:
        parser.expect("(")
        n = parser.int_arg()
        kind2, text2, pos2 = parser.take()
        if text2 != ",":
            raise ParseError(f"expected ',' but found {text2!r} at position {pos2}")
        name = parser.raw_arg(pos2 + 1)
        return n, lambda: group_by_name(n, name)
    raise ParseError(f"unknown group name {text!r} at position {pos}")


def _expr(parser: _Parser):
    size, build = _atom(parser)
    factors = [build]
    while parser.peek() and parser.peek()[1] == "x":
        parser.take()
        more, build2 = _atom(parser)
        size *= more
        factors.append(build2)

    def build_all() -> FiniteGroup:
        g = factors[0]()
        for f in factors[1:]:
            g = direct_product(g, f())
        return g

    return size, build_all


def parse_group(text: str, max_size: int | None = None) -> FiniteGroup:
    """Parse a group expression, refusing to build past the size cap.

    A number too long for int() is a ParseError.  Sizes stop being worked
    out once they pass the cap, so S1000000 is refused at once.
    """
    parser = _Parser(text, max_size)
    if parser.peek() is None:
        raise ParseError("empty expression")
    size, build = _expr(parser)
    if parser.peek() is not None:
        _, tok, pos = parser.peek()
        raise ParseError(f"trailing input {tok!r} at position {pos}")
    if max_size is not None and size > max_size:
        raise SizeLimitError(f"group order exceeds the cap of {max_size}")
    return build()
