"""An in-process LDAP directory with RFC 4515-style search filters.

Models the parts of LDAP the Globus Replica Catalog uses: a tree of entries
keyed by distinguished names, multi-valued attributes, and subtree search
with string filters — ``(&(objectClass=GlobusReplicaLogicalFile)(size>=1000))``.

DNs are written little-endian as in LDAP: ``"lf=higgs.db,rc=gdmp,o=grid"``
is a child of ``"rc=gdmp,o=grid"``.  DNs are normalized once at insert
(whitespace around components and around the ``=`` is insignificant), so
``"lf=x, cn=c,o=grid"`` and ``"lf=x,cn=c, o=grid"`` address the same entry.

Storage is columns, not one object per entry (DESIGN.md, "Catalog: rows,
columns, postings and views"):

* an entry is a *row*: its DN, its parent's row, and an interned *shape*
  — the tuple of its attribute names in the order they were added;
  child rows are kept only for rows that have children;
* each attribute is one value column indexed by row: a bare value when
  the entry holds exactly one, a list otherwise;
* every ``str`` value stored is interned, so a value many entries hold
  (a run number, a timestamp, a size repeated at every site) is one
  object across column cells, posting keys and directories;
* every attribute is equality-indexed — ``attr → value → rows`` — where
  the rows are a bare row id until a second row holds the value, then a
  tuple, and past ``_TUPLE_POSTING_MAX`` rows a set;
* filters are parsed once into an AST and cached per directory (keyed by
  filter text); ``search`` plans each query from the postings for
  equality/AND/OR shapes, falls back to a scope scan otherwise, and
  matches candidates against column reads.

:class:`Entry` is a snapshot view, built only for the entries a call
returns: changing one changes nothing in the directory.  Indexed search
returns exactly the entries the naive scan would, in the same (DN-sorted)
order; :meth:`LdapDirectory.search_naive` retains the full-scan
implementation over views as the differential-testing reference.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from functools import lru_cache
from sys import intern
from typing import Callable, Collection, Iterable, Optional

__all__ = [
    "LdapError",
    "FilterSyntaxError",
    "Entry",
    "LdapDirectory",
    "parse_filter",
    "compile_filter",
    "normalize_dn",
    "split_dn",
    "parent_dn",
]


class LdapError(Exception):
    """Directory operation failure (missing entry, duplicate, ...)."""


class FilterSyntaxError(LdapError):
    """Malformed search filter."""


def split_dn(dn: str) -> list[str]:
    """``"a=1, b =2,c=3"`` -> ``["a=1", "b=2", "c=3"]`` with validation."""
    parts = []
    for part in dn.split(","):
        part = part.strip()
        if "=" not in part:
            raise LdapError(f"malformed DN component {part!r} in {dn!r}")
        attr, value = part.split("=", 1)
        attr = attr.strip()
        if not attr:
            raise LdapError(f"malformed DN component {part!r} in {dn!r}")
        parts.append(f"{attr}={value.strip()}")
    return parts


#: spellings remembered by :func:`normalize_dn` / :func:`parent_dn`: the
#: hot DNs are a handful of collections and locations, asked about once
#: per membership test.  Malformed DNs raise every time (errors are not
#: memoised).
_DN_CACHE_SIZE = 4096


@lru_cache(maxsize=_DN_CACHE_SIZE)
def normalize_dn(dn: str) -> str:
    """The canonical spelling of a DN (whitespace variants collapse)."""
    return ",".join(split_dn(dn))


@lru_cache(maxsize=_DN_CACHE_SIZE)
def parent_dn(dn: str) -> Optional[str]:
    """The (normalized) parent DN, or None for a top-level entry."""
    parts = split_dn(dn)
    return ",".join(parts[1:]) if len(parts) > 1 else None


@dataclass
class Entry:
    """A snapshot of one directory entry: a DN plus multi-valued
    attributes.  The directory builds one per entry it returns; changing
    it changes nothing stored."""

    dn: str
    attributes: dict[str, list[str]] = field(default_factory=dict)

    def first(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of an attribute, or ``default`` when absent."""
        values = self.attributes.get(name)
        return values[0] if values else default

    def values(self, name: str) -> list[str]:
        """All values of an attribute (empty list when absent)."""
        return list(self.attributes.get(name, []))


# --------------------------------------------------------------------------
# Filter parsing: RFC 4515 subset — and/or/not, equality, presence,
# substring (*), >= and <=.  Comparisons are numeric when both operands
# parse as floats, else lexicographic.
#
# The parser builds an AST; the AST doubles as the matcher and as the
# input to the directory's index planner.  A node's ``matches(read)``
# takes ``read(attr)``: the attribute's values, or None when it is absent
# — an entry's ``attributes.get`` or a directory row's column read.
# --------------------------------------------------------------------------

Matcher = Callable[[Entry], bool]
Reader = Callable[[str], Optional[Collection[str]]]


def _compare(values: Iterable[str], op: str, literal: str) -> bool:
    for value in values:
        try:
            lhs: object = float(value)
            rhs: object = float(literal)
        except ValueError:
            lhs, rhs = value, literal
        if op == ">=" and lhs >= rhs:  # type: ignore[operator]
            return True
        if op == "<=" and lhs <= rhs:  # type: ignore[operator]
            return True
    return False


@dataclass(frozen=True)
class AndFilter:
    children: tuple

    def matches(self, read: Reader) -> bool:
        return all(child.matches(read) for child in self.children)


@dataclass(frozen=True)
class OrFilter:
    children: tuple

    def matches(self, read: Reader) -> bool:
        return any(child.matches(read) for child in self.children)


@dataclass(frozen=True)
class NotFilter:
    child: object

    def matches(self, read: Reader) -> bool:
        return not self.child.matches(read)


@dataclass(frozen=True)
class EqFilter:
    attr: str
    literal: str

    def matches(self, read: Reader) -> bool:
        return self.literal in (read(self.attr) or ())


@dataclass(frozen=True)
class PresentFilter:
    attr: str

    def matches(self, read: Reader) -> bool:
        return bool(read(self.attr))


@dataclass(frozen=True)
class SubstringFilter:
    attr: str
    pattern: str

    def matches(self, read: Reader) -> bool:
        return any(
            fnmatch.fnmatchcase(v, self.pattern) for v in read(self.attr) or ()
        )


@dataclass(frozen=True)
class CompareFilter:
    attr: str
    op: str
    literal: str

    def matches(self, read: Reader) -> bool:
        return _compare(read(self.attr) or (), self.op, self.literal)


@dataclass(frozen=True)
class CompiledFilter:
    """A parsed filter: callable as a matcher, plannable via its AST."""

    text: str
    ast: object

    def __call__(self, entry: Entry) -> bool:
        return self.ast.matches(entry.attributes.get)


class _FilterParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> FilterSyntaxError:
        return FilterSyntaxError(f"{message} at offset {self.pos} in {self.text!r}")

    def parse(self):
        node = self.parse_filter()
        if self.pos != len(self.text):
            raise self.fail("trailing characters")
        return node

    def expect(self, char: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.fail(f"expected {char!r}")
        self.pos += 1

    def parse_filter(self):
        self.expect("(")
        if self.pos >= len(self.text):
            raise self.fail("unterminated filter")
        head = self.text[self.pos]
        if head == "&":
            self.pos += 1
            node = AndFilter(tuple(self.parse_filter_list()))
        elif head == "|":
            self.pos += 1
            node = OrFilter(tuple(self.parse_filter_list()))
        elif head == "!":
            self.pos += 1
            node = NotFilter(self.parse_filter())
        else:
            node = self.parse_simple()
        self.expect(")")
        return node

    def parse_filter_list(self) -> list:
        children = []
        while self.pos < len(self.text) and self.text[self.pos] == "(":
            children.append(self.parse_filter())
        if not children:
            raise self.fail("empty filter list")
        return children

    def parse_simple(self):
        end = self.text.find(")", self.pos)
        if end == -1:
            raise self.fail("unterminated simple filter")
        body = self.text[self.pos : end]
        self.pos = end
        for op in (">=", "<="):
            if op in body:
                attr, literal = body.split(op, 1)
                if not attr:
                    raise self.fail("missing attribute")
                return CompareFilter(attr, op, literal)
        if "=" not in body:
            raise self.fail("missing comparator")
        attr, literal = body.split("=", 1)
        if not attr:
            raise self.fail("missing attribute")
        if literal == "*":
            return PresentFilter(attr)
        if "*" in literal:
            return SubstringFilter(attr, literal)
        return EqFilter(attr, literal)


def compile_filter(text: str) -> CompiledFilter:
    """Parse an LDAP filter string into a :class:`CompiledFilter`."""
    return CompiledFilter(text, _FilterParser(text).parse())


def parse_filter(text: str) -> Matcher:
    """Compile an LDAP filter string to a predicate over :class:`Entry`."""
    return compile_filter(text)


# --------------------------------------------------------------------------
# The directory itself.
# --------------------------------------------------------------------------

#: a posting of up to this many rows is a tuple, which holds only ints and
#: so drops out of the cyclic collector's view; a larger one is a set
_TUPLE_POSTING_MAX = 8


def _packed(rows: Collection[int]):
    """The stored form of a non-empty posting: its one row, or a tuple /
    set of rows."""
    if len(rows) == 1:
        return next(iter(rows))
    if len(rows) <= _TUPLE_POSTING_MAX:
        return tuple(rows)
    return rows if type(rows) is set else set(rows)


def _holds(posting, row: int) -> bool:
    """Whether a stored posting (None, a row, a tuple or a set) has ``row``."""
    if posting is None:
        return False
    if type(posting) is int:
        return posting == row
    return row in posting


def _post(by_value: dict, value: str, row: int) -> bool:
    """Post ``row`` under ``value``; False when it already was."""
    held = by_value.get(value)
    if held is None:
        by_value[value] = row
    elif _holds(held, row):
        return False
    elif type(held) is set:
        held.add(row)
    else:
        by_value[value] = _packed((held, row) if type(held) is int else held + (row,))
    return True


def _shared(values: Iterable) -> list:
    """``values`` as a fresh list, each ``str`` swapped for the one
    interned object of its text."""
    return [intern(v) if type(v) is str else v for v in values]


def _as_list(value) -> list:
    """A column cell as a fresh list of values."""
    return list(value) if type(value) is list else [value]


class LdapDirectory:
    """A hierarchically-addressed entry store held as rows and columns,
    with attribute-equality postings and a DN tree."""

    #: parsed-filter cache bound (per directory); far above any workload's
    #: distinct-filter count, but keeps a pathological caller bounded.
    FILTER_CACHE_MAX = 4096

    def __init__(self) -> None:
        #: row -> DN (None for a free row) and DN -> row
        self._dns: list[Optional[str]] = []
        self._rows: dict[str, int] = {}
        #: row -> parent row (-1 at the top level)
        self._parents: list[int] = []
        #: row -> child rows, for rows that have children only
        self._kids: dict[int, set[int]] = {}
        #: row -> interned tuple of attribute names, in the order added
        self._shapes: list[tuple] = []
        self._shape_pool: dict[tuple, tuple] = {}
        #: attr -> row -> a bare value, or a list of 0 or 2+ values
        self._columns: dict[str, list] = {}
        #: attr -> value -> a bare row, or a tuple / set of rows
        self._postings: dict[str, dict[str, object]] = {}
        self._free: list[int] = []
        self._filter_cache: dict[str, CompiledFilter] = {}
        self.operations = 0  # directory calls served (search, get, add, ...)
        #: observable search-machinery counters (see DESIGN.md "Catalog")
        self.stats = {
            "filter_cache_hits": 0,
            "filter_cache_misses": 0,
            "index_searches": 0,
            "scan_searches": 0,
        }

    def __len__(self) -> int:
        return len(self._rows)

    def dns(self) -> list[str]:
        """Every DN in the directory, sorted."""
        return sorted(self._rows)

    # -- filter cache ----------------------------------------------------------
    def compiled_filter(self, filter_text: str) -> CompiledFilter:
        """The parsed form of ``filter_text``, cached by exact text.

        Syntax errors propagate and are never cached, so a corrected
        caller is not poisoned by an earlier bad lookup.
        """
        cached = self._filter_cache.get(filter_text)
        if cached is not None:
            self.stats["filter_cache_hits"] += 1
            return cached
        compiled = compile_filter(filter_text)  # may raise: nothing cached
        self.stats["filter_cache_misses"] += 1
        if len(self._filter_cache) >= self.FILTER_CACHE_MAX:
            self._filter_cache.pop(next(iter(self._filter_cache)))
        self._filter_cache[filter_text] = compiled
        return compiled

    # -- rows, columns and postings ----------------------------------------------
    def _row(self, dn: str) -> int:
        """The row of ``dn`` (any spelling); raises LdapError when missing."""
        row = self._rows.get(normalize_dn(dn))
        if row is None:
            raise LdapError(f"no such entry: {dn!r}")
        return row

    def _shape(self, names: tuple) -> tuple:
        return self._shape_pool.setdefault(names, names)

    def _store(self, row: int, attr: str, values: list) -> None:
        """Write one cell; ``values`` are already shared (interned on
        their way in, or read from a stored cell)."""
        column = self._columns.get(attr)
        if column is None:
            column = self._columns[attr] = []
        cell = values[0] if len(values) == 1 else values
        if row < len(column):
            column[row] = cell
        else:
            column.extend([None] * (row - len(column)))
            column.append(cell)

    def _read(self, row: int, attr: str) -> Optional[Collection[str]]:
        """The values of one cell, or None when the row lacks ``attr``."""
        column = self._columns.get(attr)
        if column is None or row >= len(column):
            return None
        value = column[row]
        if value is None or type(value) is list:
            return value
        return (value,)

    def _reader(self, row: int) -> Reader:
        read = self._read
        return lambda attr: read(row, attr)

    def _view(self, row: int, attributes: Optional[Collection[str]] = None) -> Entry:
        """A snapshot of ``row``, optionally of only ``attributes``."""
        columns = self._columns
        return Entry(
            self._dns[row],
            {
                attr: _as_list(columns[attr][row])
                for attr in self._shapes[row]
                if attributes is None or attr in attributes
            },
        )

    def _by_value(self, attr: str) -> dict:
        by_value = self._postings.get(attr)
        if by_value is None:
            by_value = self._postings[attr] = {}
        return by_value

    def _unpost(self, attr: str, value: str, row: int) -> None:
        by_value = self._postings.get(attr)
        held = by_value.get(value) if by_value is not None else None
        if not _holds(held, row):
            return
        if type(held) is int:
            del by_value[value]
            if not by_value:
                del self._postings[attr]
        elif type(held) is set:
            held.discard(row)
            by_value[value] = _packed(held)
        else:
            by_value[value] = _packed(tuple(r for r in held if r != row))

    # -- basic operations -------------------------------------------------------
    def exists(self, dn: str) -> bool:
        """Whether an entry with this DN exists (False for malformed DNs)."""
        try:
            return normalize_dn(dn) in self._rows
        except LdapError:
            return False

    def add(self, dn: str, attributes: dict[str, Iterable[str]]) -> None:
        """Add an entry; its parent must already exist."""
        self.add_many([(dn, attributes)])

    def add_many(self, items: Iterable[tuple[str, dict]]) -> None:
        """Add a batch of entries in one operation.

        Parents may be earlier members of the same batch.  Validation runs
        before any mutation, so a bad batch leaves the directory unchanged.
        A DN whose text after its first comma is a normalized DN already
        in the directory or earlier in the batch has only its leading RDN
        parsed; any other spelling goes through :func:`split_dn`, so both
        ways accept, spell and refuse exactly the same DNs.
        """
        self.operations += 1
        rows = self._rows
        batch: list[tuple[str, Optional[str], dict]] = []
        incoming: set[str] = set()
        for dn, attributes in items:
            head, comma, parent = dn.partition(",")
            if comma and (parent in rows or parent in incoming):
                rdn = head.strip()
                attr, equals, value = rdn.partition("=")
                attr, value = attr.strip(), value.strip()
                if not (equals and attr):
                    raise LdapError(f"malformed DN component {rdn!r} in {dn!r}")
                if len(attr) + len(value) + 1 < len(head):  # whitespace went
                    dn = f"{attr}={value},{parent}"
            else:
                parts = split_dn(dn)  # one parse gives the DN and its parent
                dn = ",".join(parts)
                parent = ",".join(parts[1:]) if len(parts) > 1 else None
                if (
                    parent is not None
                    and parent not in rows
                    and parent not in incoming
                ):
                    raise LdapError(f"parent {parent!r} of {dn!r} does not exist")
            if dn in rows or dn in incoming:
                raise LdapError(f"entry exists: {dn!r}")
            incoming.add(dn)
            batch.append((dn, parent, attributes))
        dns, parents, shapes, kids = self._dns, self._parents, self._shapes, self._kids
        columns, postings, free = self._columns, self._postings, self._free
        for dn, parent, attributes in batch:
            parent_row = -1 if parent is None else rows[parent]
            if free:
                row = free.pop()
                dns[row] = dn
                parents[row] = parent_row
            else:
                row = len(dns)
                dns.append(dn)
                parents.append(parent_row)
                shapes.append(())
            rows[dn] = row
            if parent_row >= 0:
                siblings = kids.get(parent_row)
                if siblings is None:
                    kids[parent_row] = {row}
                else:
                    siblings.add(row)
            for attr, values in attributes.items():
                if type(values) is not tuple and type(values) is not list:
                    values = list(values)
                if len(values) == 1:  # _shared's case, inline
                    cell = values[0]
                    if type(cell) is str:
                        cell = intern(cell)
                    values = (cell,)
                else:
                    values = cell = _shared(values)
                by_value = postings.get(attr)
                if by_value is None:
                    by_value = postings[attr] = {}
                for value in values:  # _post's cases, inline
                    held = by_value.get(value)
                    if held is None:
                        by_value[value] = row
                    elif type(held) is set:
                        held.add(row)
                    elif type(held) is int:
                        if held != row:
                            by_value[value] = (held, row)
                    elif row not in held:
                        by_value[value] = (
                            held + (row,) if len(held) < _TUPLE_POSTING_MAX
                            else {*held, row}
                        )
                column = columns.get(attr)
                if column is None:
                    column = columns[attr] = []
                size = len(column)
                if row < size:
                    column[row] = cell
                else:
                    if row > size:
                        column.extend([None] * (row - size))
                    column.append(cell)
            shapes[row] = self._shape(tuple(attributes))

    def get(self, dn: str, attributes: Optional[Collection[str]] = None) -> Entry:
        """A view of one entry (of only ``attributes`` when given);
        raises LdapError when missing."""
        self.operations += 1
        return self._view(self._row(dn), attributes)

    def delete(self, dn: str) -> None:
        """Delete a leaf entry; entries with children are protected."""
        self.delete_many([dn])

    def delete_many(self, dns: Iterable[str]) -> None:
        """Delete a batch of leaf entries in one operation.

        A subtree may be removed leaves-first within a single batch.
        Validation runs before any mutation, so a bad batch (a missing
        DN, one named twice, a parent named before its children) leaves
        the directory unchanged.
        """
        self.operations += 1
        going: dict[int, None] = {}
        for dn in dns:
            dn = normalize_dn(dn)
            row = self._rows.get(dn)
            if row is None or row in going:
                raise LdapError(f"no such entry: {dn!r}")
            if any(kid not in going for kid in self._kids.get(row, ())):
                raise LdapError(f"entry {dn!r} has children")
            going[row] = None
        for row in going:
            self._remove(row)

    def _remove(self, row: int) -> None:
        for attr in self._shapes[row]:
            column = self._columns[attr]
            for value in _as_list(column[row]):
                self._unpost(attr, value, row)
            column[row] = None
        parent_row = self._parents[row]
        if parent_row >= 0:
            kids = self._kids[parent_row]
            kids.discard(row)
            if not kids:
                del self._kids[parent_row]
        del self._rows[self._dns[row]]
        self._dns[row] = None
        self._shapes[row] = ()
        self._free.append(row)

    def has_value(self, dn: str, attr: str, value: str) -> bool:
        """Index-backed membership test: does the entry hold ``attr=value``?

        O(1) against the equality postings — the scalable replacement for
        copying a million-element attribute list just to run ``in``.
        """
        self.operations += 1
        dn = normalize_dn(dn)
        row = self._rows.get(dn)
        if row is None:
            raise LdapError(f"no such entry: {dn!r}")
        return _holds(self._postings.get(attr, {}).get(value), row)

    def held_values(self, dn: str, attr: str, values: Iterable[str]) -> set[str]:
        """The members of ``values`` the entry holds under ``attr``: one
        operation and one posting probe per value, however large the
        batch."""
        self.operations += 1
        dn = normalize_dn(dn)
        row = self._rows.get(dn)
        if row is None:
            raise LdapError(f"no such entry: {dn!r}")
        posted = self._postings.get(attr, {}).get
        return {value for value in values if _holds(posted(value), row)}

    def modify_add(self, dn: str, attr: str, value: str) -> None:
        """Add a value to a (possibly new) attribute; idempotent."""
        self.modify_add_many(dn, attr, [value])

    def modify_add_many(self, dn: str, attr: str, values: Iterable[str]) -> None:
        """Add many values to one attribute in one operation; idempotent."""
        self.operations += 1
        row = self._row(dn)
        shape = self._shapes[row]
        if attr in shape:
            existing = self._columns[attr][row]
            if type(existing) is not list:
                existing = [existing]
        else:
            existing = []
            self._shapes[row] = self._shape(shape + (attr,))
        by_value = self._by_value(attr)
        for value in values:
            if type(value) is str:  # _shared's case, inline
                value = intern(value)
            # the posting answers "already present?" in O(1)
            if _post(by_value, value, row):
                existing.append(value)
        self._store(row, attr, existing)

    def modify_delete(self, dn: str, attr: str, value: Optional[str] = None) -> None:
        """Remove one value (or, with value=None, the whole attribute)."""
        self.operations += 1
        row = self._row(dn)
        shape = self._shapes[row]
        if attr not in shape:
            raise LdapError(f"{dn!r} has no attribute {attr!r}")
        column = self._columns[attr]
        values = _as_list(column[row])
        if value is not None:
            try:
                values.remove(value)
            except ValueError:
                raise LdapError(f"{dn!r}: {attr}={value!r} not present") from None
            if value not in values:  # the last copy of a repeated value
                self._unpost(attr, value, row)
            if values:
                self._store(row, attr, values)
                return
        else:
            for old in values:
                self._unpost(attr, old, row)
        column[row] = None
        self._shapes[row] = self._shape(tuple(a for a in shape if a != attr))

    def children(self, dn: str) -> list[Entry]:
        """Views of the direct children of a DN, sorted by DN."""
        self.operations += 1
        row = self._rows.get(normalize_dn(dn))
        if row is None:
            return []
        return self._views(self._kids.get(row, ()))

    def _views(
        self, rows: Iterable[int], attributes: Optional[Collection[str]] = None
    ) -> list[Entry]:
        """Views of ``rows``, sorted by DN."""
        return [
            self._view(row, attributes)
            for row in sorted(rows, key=self._dns.__getitem__)
        ]

    # -- search ----------------------------------------------------------------
    def _subtree_rows(self, base: int) -> list[int]:
        """Base plus every descendant row (tree walk, not a full scan)."""
        result = []
        stack = [base]
        while stack:
            row = stack.pop()
            result.append(row)
            stack.extend(self._kids.get(row, ()))
        return result

    def _in_scope(self, row: int, base: int, base_dn: str, scope: str) -> bool:
        if scope == "base":
            return row == base
        if scope == "one":
            return self._parents[row] == base
        return row == base or self._dns[row].endswith("," + base_dn)

    def _plan_candidates(self, node):
        """Candidate rows the equality postings narrow ``node`` to, or
        None when the filter shape cannot be planned (presence,
        substring, ranges, negation) and a scope scan is required.

        Correctness does not depend on tightness: the full matcher is
        re-applied to every candidate, so a plan may safely
        over-approximate.  An AND therefore returns its *smallest*
        plannable conjunct — membership in the remaining conjuncts is
        exactly what the matcher re-checks — which keeps a selective
        equality inside a broad conjunction O(selective hits) with no
        posting copies.  Returns a tuple or set; never mutated.
        """
        if isinstance(node, EqFilter):
            held = self._postings.get(node.attr, {}).get(node.literal)
            if held is None:
                return ()
            return (held,) if type(held) is int else held
        if isinstance(node, AndFilter):
            best = None
            for child in node.children:
                candidates = self._plan_candidates(child)
                if candidates is None:
                    continue
                if best is None or len(candidates) < len(best):
                    best = candidates
            return best
        if isinstance(node, OrFilter):
            union: set[int] = set()
            for child in node.children:
                candidates = self._plan_candidates(child)
                if candidates is None:
                    return None  # one unplannable branch poisons the union
                union.update(candidates)
            return union
        return None

    def search(
        self,
        base: str,
        filter_text: str = "(objectClass=*)",
        scope: str = "subtree",
        attributes: Optional[Collection[str]] = None,
    ) -> list[Entry]:
        """Search ``base`` with an RFC 4515 filter.

        ``scope``: ``"base"`` (the entry itself), ``"one"`` (direct
        children), or ``"subtree"`` (base and all descendants).
        ``attributes``, as in an LDAP search request, names the
        attributes the returned views carry (all when None); the filter
        sees every attribute either way.

        Equality and AND/OR-of-equality filters are served from the
        attribute postings; other shapes scan the scope (which is itself
        a tree walk, not a whole-directory scan).  Results are identical
        to :meth:`search_naive` — same entries, same DN-sorted order.
        """
        self.operations += 1
        base = normalize_dn(base)
        base_row = self._rows.get(base)
        if base_row is None:
            raise LdapError(f"search base {base!r} does not exist")
        if scope not in ("base", "one", "subtree"):
            raise ValueError(f"unknown scope {scope!r}")
        compiled = self.compiled_filter(filter_text)
        planned = self._plan_candidates(compiled.ast)
        if planned is not None:
            self.stats["index_searches"] += 1
            candidates = [
                row for row in planned
                if self._in_scope(row, base_row, base, scope)
            ]
        else:
            self.stats["scan_searches"] += 1
            if scope == "base":
                candidates = [base_row]
            elif scope == "one":
                candidates = list(self._kids.get(base_row, ()))
            else:
                candidates = self._subtree_rows(base_row)
        matches = compiled.ast.matches
        return self._views(
            (row for row in candidates if matches(self._reader(row))),
            attributes,
        )

    def search_naive(
        self,
        base: str,
        filter_text: str = "(objectClass=*)",
        scope: str = "subtree",
    ) -> list[Entry]:
        """The unindexed search, retained as the reference
        implementation: re-parses the filter, builds a view of every
        entry and matches the views.  Differential tests (and the
        catalog_scale bench baseline) compare :meth:`search` against
        this, entry-for-entry and order-for-order.
        """
        base = normalize_dn(base)
        if base not in self._rows:
            raise LdapError(f"search base {base!r} does not exist")
        if scope not in ("base", "one", "subtree"):
            raise ValueError(f"unknown scope {scope!r}")
        matcher = compile_filter(filter_text)  # deliberately uncached

        def in_scope(dn: str) -> bool:
            if scope == "base":
                return dn == base
            if scope == "one":
                return parent_dn(dn) == base
            return dn == base or dn.endswith("," + base)

        views = (self._view(row) for row in self._rows.values())
        return sorted(
            (e for e in views if in_scope(e.dn) and matcher(e)),
            key=lambda e: e.dn,
        )
