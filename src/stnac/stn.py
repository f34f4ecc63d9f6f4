"""Simple temporal network model and its text file format.

A network stores one domain interval per variable and at most one
constraint interval per unordered variable pair.  The interval is kept in
the low-to-high index direction; queries in the other direction answer
with the inverse, so both orientations always agree.  Domains must be
finite on both ends and non-empty: the solver relies on finite bounds to
detect inconsistency within its round budget.

File format (UTF-8, '#' starts a comment, tokens whitespace-separated)::

    stn <n>
    var <index> [name]            # optional naming
    domain <v> <a> <b>            # required once per variable, a and b finite
    constraint <v> <w> <a> <b>    # a <= w - v <= b; -inf/+inf allowed, or 'empty'

Lines end at '\n' only (split_lines): a comment runs to it, so no other
character that str.splitlines() breaks at, such as U+2028 or '\x0c', ends
a comment or moves a line number.
Duplicate constraint lines intersect, matching conjunction semantics.
Every finite endpoint token is capped at parse time at the fixed
DEFAULT_MAGNITUDE_CAP (2**40), that of an inverted pair (which reads as
'empty') included, so no propagation over the network can overflow
64-bit arithmetic.

This module owns the line grammar that the .mastn and bench-config
formats share: the line splitter (split_lines), the line reader
(content_lines), the header parser (read_header), the interval parser
(parse_interval, the one reader of endpoint tokens), the body-line parser
(BodyReader) and the body writer (write_body).  A .mastn agent block is
.stn body text.

A parse reads each distinct token once.  Its BodyReaders memoize index
tokens (str(v) -> v, per network) and endpoint tokens (-> the Interval,
per file, as intervals are immutable values); a token the memo lacks goes
through parse_index or parse_interval, which own every check and error.
Names are never memoized, because a later var line can move a name to
another variable.

Every body, a .stn file's and each .mastn agent block's, is read by
BodyReader.read from numbered lines, and it stores the common line
inline: a 'constraint v w a b' or 'domain v a b' line without '#', whose
indices are memo hits, that constrains a pair v < w for the first time
or declares v's first domain, and whose endpoints are a memo hit or two
integers a <= b within the cap.  This is apply's own rule: a new pair
takes any memo hit, since conjoin stores a new pair's interval
unchanged, one-sided or EMPTY alike; a domain takes only a finite,
non-empty one.  Every other line goes to BodyReader.apply, the one owner
of every check and error text.
"""

from __future__ import annotations

import sys
from itertools import islice

from .errors import FormatError, ValidationError
from .intervals import EMPTY, Interval, interval

DEFAULT_MAGNITUDE_CAP = 2**40


def conjoin(table: dict, a, b, ivl: Interval) -> None:
    """Store the constraint ivl from a to b under the key (low, high), inverted
    when a > b and intersected with any duplicate; Stn's and Mastn's one rule."""
    if a < b:
        key, stored = (a, b), ivl
    else:
        key, stored = (b, a), ivl.inverse()
    old = table.get(key)
    table[key] = stored if old is None else old.intersect(stored)


class Stn:
    """Mutable while being built; treat as read-only once handed to a solver."""

    def __init__(self, n: int):
        if n < 0:
            raise ValidationError(f"variable count must be non-negative, got {n}")
        if n > sys.maxsize:
            raise ValidationError(f"variable count {n} exceeds sys.maxsize")
        self.n = n
        self._names: list[str | None] = [None] * n
        self._by_name: dict[str, int] = {}
        self._domains: list[Interval | None] = [None] * n
        self._cons: dict[tuple[int, int], Interval] = {}

    # -- variables -------------------------------------------------

    def _check_var(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValidationError(f"unknown variable {v} (network has {self.n})")

    def set_name(self, v: int, name: str) -> None:
        """Name v; the name must be one .stn token: non-empty, no whitespace,
        no '#', and not one that int() reads, which a reference would take
        for an index."""
        self._check_var(v)
        if "#" in name or name.split() != [name]:
            raise ValidationError(f"variable name {name!r} is not a single token without '#'")
        try:
            int(name)
        except ValueError:
            pass
        else:
            raise ValidationError(f"variable name {name!r} reads as an index")
        if name in self._by_name and self._by_name[name] != v:
            raise ValidationError(f"duplicate variable name {name!r}")
        old = self._names[v]
        if old is not None:
            del self._by_name[old]
        self._names[v] = name
        self._by_name[name] = v

    def name(self, v: int) -> str | None:
        self._check_var(v)
        return self._names[v]

    def index_of(self, name: str) -> int | None:
        return self._by_name.get(name)

    def label(self, v: int) -> str:
        """Display name: the declared name, or v<index>."""
        return self._names[v] if self._names[v] is not None else f"v{v}"

    # -- domains ---------------------------------------------------

    def set_domain(self, v: int, ivl: Interval) -> None:
        self._check_var(v)
        if ivl.is_empty:
            raise ValidationError(f"domain of variable {v} must be non-empty")
        if not ivl.is_finite:
            raise ValidationError(f"domain of variable {v} must be finite on both ends")
        self._domains[v] = ivl

    def domain(self, v: int) -> Interval:
        self._check_var(v)
        d = self._domains[v]
        if d is None:
            raise ValidationError(f"variable {v} has no domain")
        return d

    # -- constraints -----------------------------------------------

    def add_constraint(self, v: int, w: int, ivl: Interval) -> None:
        """Insert the constraint ivl from v to w, intersecting any existing one."""
        self._check_var(v)
        self._check_var(w)
        if v == w:
            raise ValidationError(f"self-loop constraint on variable {v}")
        conjoin(self._cons, v, w, ivl)

    def constraint(self, v: int, w: int) -> Interval | None:
        """The directed interval from v to w, or None when unconstrained."""
        self._check_var(v)
        self._check_var(w)
        if v == w:
            raise ValidationError("no constraint between a variable and itself")
        if v < w:
            return self._cons.get((v, w))
        stored = self._cons.get((w, v))
        return None if stored is None else stored.inverse()

    def pairs(self):
        """Stored constraints as (v, w, interval) with v < w, ascending."""
        for key in sorted(self._cons):
            yield key[0], key[1], self._cons[key]

    @property
    def e(self) -> int:
        return len(self._cons)

    # -- whole-network helpers --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Stn):
            return NotImplemented
        return (
            self.n == other.n
            and self._names == other._names
            and self._domains == other._domains
            and self._cons == other._cons
        )

    def __repr__(self) -> str:
        return f"<Stn n={self.n} e={self.e}>"


def split_lines(text: str) -> list[str]:
    """text's raw lines, broken only at '\n', as str.splitlines() lists them
    when '\n' is the only break (no empty last line after a final '\n').

    The one line splitter of the .stn, .mastn and bench-config grammars.
    No other character ends a line: a U+2028, U+0085, '\x0b', '\x0c' or
    '\x1c'-'\x1e' inside a '#' comment stays in the comment, and no line
    number shifts.  A '\r' before the '\n' is stripped as whitespace;
    Path.read_text already reads '\r\n' and '\r' as '\n'.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def content_lines(lines: list[str]):
    """(lineno, text) for each of split_lines' lines that has content once
    its '#' comment is cut.

    The one line reader of the .mastn and bench-config grammars and of the
    .stn header; BodyReader.read reads a .stn body by the same rule.
    """
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        line = raw.strip()
        if line:
            yield lineno, line


def read_header(body, form: str) -> tuple[int, int]:
    """Take the header that must open body, the content_lines of a file.

    form is the header's syntax, 'stn <n>' or 'mastn <p>'; returns the
    header's line number and its count.
    """
    lineno, line = next(body, (None, ""))
    tokens = line.split()
    if not tokens or tokens[0] != form.split()[0]:
        raise FormatError(f"file must start with '{form}'", lineno)
    if len(tokens) != 2:
        raise FormatError(f"expected '{form}'", lineno)
    try:
        count = int(tokens[1])
    except ValueError:
        raise FormatError(f"expected an integer, got {tokens[1]!r}", lineno) from None
    if count < 0:
        raise FormatError(f"count must be non-negative, got {count}", lineno)
    return lineno, count


def parse_index(net: Stn, token: str, lineno: int) -> int:
    """A variable reference: an index, or a name declared on an earlier var line."""
    try:
        v = int(token)
    except ValueError:
        named = net.index_of(token)
        if named is None:
            raise FormatError(f"unknown variable {token!r}", lineno) from None
        return named
    if not 0 <= v < net.n:
        raise FormatError(f"unknown variable {v} (network has {net.n})", lineno)
    return v


def parse_interval(tokens: list[str], lineno: int) -> Interval:
    """An interval's tokens: 'empty', or 'a b' with -inf only as a and +inf only as b.

    Each endpoint goes through _endpoint, which owns every error text: a
    finite one must be an integer within DEFAULT_MAGNITUDE_CAP.  The lower
    endpoint is read first, and both are checked before interval()
    normalizes an inverted pair to EMPTY, so no endpoint escapes the cap.
    """
    if len(tokens) == 1 and tokens[0] == "empty":
        return EMPTY
    if len(tokens) != 2:
        raise FormatError(f"expected two endpoints or 'empty', got {tokens!r}", lineno)
    a, b = tokens
    lo = _endpoint(a, lineno, "-inf", "a lower")
    return interval(lo, _endpoint(b, lineno, "+inf", "an upper"))


def _endpoint(token: str, lineno: int, infinity: str, side: str) -> int | None:
    """One endpoint: an integer within the cap, or the infinity of its side (None)."""
    try:
        value = int(token)
    except ValueError:
        if token == infinity:
            return None
        if token in ("-inf", "+inf"):
            raise FormatError(f"'{token}' cannot be {side} endpoint", lineno) from None
        raise FormatError(f"expected an integer endpoint, got {token!r}", lineno) from None
    if abs(value) > DEFAULT_MAGNITUDE_CAP:
        raise FormatError(
            f"endpoint {value} exceeds the magnitude cap {DEFAULT_MAGNITUDE_CAP}", lineno
        )
    return value


class BodyReader:
    """Applies one network's var/domain/constraint lines, in file order: a
    .stn body or one .mastn agent block, read into a new network.  read is
    the body route of both formats; apply, the one owner of every check
    and error text, takes each line that read does not store inline.

    It holds the parse's memo (see above): its own network's index tokens,
    and the endpoint tokens it shares with every other reader of the file.
    """

    __slots__ = ("net", "_indices", "_intervals")

    def __init__(self, net: Stn, intervals: dict):
        self.net = net
        self._indices = {str(v): v for v in range(net.n)}
        self._intervals = intervals

    def index(self, token: str, lineno: int) -> int:
        """parse_index's result for token, from the memo when it holds one."""
        v = self._indices.get(token)
        return parse_index(self.net, token, lineno) if v is None else v

    def interval(self, tokens: list[str], lineno: int) -> Interval:
        """parse_interval's result for tokens, from the memo when it holds one."""
        key = tuple(tokens)
        ivl = self._intervals.get(key)
        if ivl is None:
            ivl = self._intervals[key] = parse_interval(tokens, lineno)
        return ivl

    def apply(self, tokens: list[str], lineno: int) -> None:
        """Apply one line's tokens; read's route for every line it does not
        store inline."""
        kind = tokens[0]
        net = self.net
        try:
            if kind == "constraint":
                if len(tokens) not in (4, 5):
                    raise FormatError("expected 'constraint <v> <w> <a> <b>'", lineno)
                v = self.index(tokens[1], lineno)
                w = self.index(tokens[2], lineno)
                ivl = self.interval(tokens[3:], lineno)
                if v == w:
                    net.add_constraint(v, w, ivl)  # raises its self-loop error
                conjoin(net._cons, v, w, ivl)
            elif kind == "domain":
                if len(tokens) != 4:
                    raise FormatError("expected 'domain <v> <a> <b>'", lineno)
                v = self.index(tokens[1], lineno)
                if net._domains[v] is not None:
                    raise FormatError(f"domain of variable {v} redeclared", lineno)
                net.set_domain(v, self.interval(tokens[2:], lineno))
            elif kind == "var":
                if len(tokens) not in (2, 3):
                    raise FormatError("expected 'var <index> [name]'", lineno)
                v = self.index(tokens[1], lineno)
                if len(tokens) == 3:
                    net.set_name(v, tokens[2])
            elif kind == "stn":
                raise FormatError("duplicate 'stn' header", lineno)
            else:
                raise FormatError(f"unknown directive {kind!r}", lineno)
        except ValidationError as exc:
            raise FormatError(str(exc), lineno) from None

    def read(self, numbered) -> None:
        """Apply (lineno, line) pairs, a .stn file's raw body lines or a
        .mastn block's content_lines, as content_lines and apply would:
        the common line (see above) is stored here, in the slot apply
        would store it in, and every other line goes to apply with its
        tokens.
        """
        indices = self._indices
        intervals = self._intervals
        cons = self.net._cons
        domains = self.net._domains
        apply = self.apply
        cap = DEFAULT_MAGNITUDE_CAP
        for lineno, raw in numbered:
            if "#" in raw:
                tokens = raw.split("#", 1)[0].split()
                if tokens:
                    apply(tokens, lineno)
                continue
            tokens = raw.split()
            size = len(tokens)
            if size == 5 and tokens[0] == "constraint":
                v = indices.get(tokens[1])
                w = indices.get(tokens[2])
                if v is None or w is None or v >= w or (v, w) in cons:
                    apply(tokens, lineno)
                    continue
                store, key, a, b = cons, (v, w), tokens[3], tokens[4]
            elif size == 4 and tokens[0] == "domain":
                v = indices.get(tokens[1])
                if v is None or domains[v] is not None:
                    apply(tokens, lineno)
                    continue
                store, key, a, b = domains, v, tokens[2], tokens[3]
            else:
                if size:
                    apply(tokens, lineno)
                continue
            ivl = intervals.get((a, b))
            if ivl is None:
                try:
                    lo, hi = int(a), int(b)
                except ValueError:  # not two integers: apply reads the pair
                    apply(tokens, lineno)
                    continue
                if -cap <= lo <= hi <= cap:
                    store[key] = intervals[a, b] = Interval(lo, hi)
                    continue
            elif store is cons or (ivl.lo is not None and ivl.hi is not None):
                store[key] = ivl  # a new pair takes any interval, a domain a finite one
                continue
            apply(tokens, lineno)


def parse_stn(text: str) -> Stn:
    """Parse the .stn text format; raises FormatError with a line number.

    The header is read through content_lines and the body through
    BodyReader.read, which stores the common line inline.
    """
    lines = split_lines(text)
    lineno, n = read_header(content_lines(lines), "stn <n>")
    # each variable needs a domain line of its own, so a count above the
    # lines left is invalid; rejecting it here keeps Stn(n) from allocating
    left = len(lines) - lineno
    if n > left:
        raise FormatError(
            f"{n} variables but {left} lines after the header: some variable has no domain",
            lineno,
        )
    net = Stn(n)
    BodyReader(net, {}).read(enumerate(islice(lines, lineno, None), lineno + 1))
    if not all(net._domains):  # an Interval is always true; None marks no domain line
        try:
            net.domain(net._domains.index(None))  # raises the has-a-domain error
        except ValidationError as exc:
            raise FormatError(str(exc)) from exc
    return net


def write_body(net: Stn, out: list[str]) -> None:
    """Append net's var, domain and constraint lines, in ascending order, to out.

    This is the body of a .stn file and of each .mastn agent block.
    """
    if not all(net._domains):  # an Interval is always true; None marks no domain
        net.domain(net._domains.index(None))  # raises the has-a-domain error
    out.extend(f"var {v} {name}" for v, name in enumerate(net._names) if name is not None)
    out.extend(f"domain {v} {d.to_tokens()}" for v, d in enumerate(net._domains))
    out.extend(f"constraint {v} {w} {ivl.to_tokens()}" for v, w, ivl in net.pairs())


def serialize_stn(net: Stn) -> str:
    """Emit the .stn form: variables and constraints in ascending order."""
    lines = [f"stn {net.n}"]
    write_body(net, lines)
    return "\n".join(lines) + "\n"
