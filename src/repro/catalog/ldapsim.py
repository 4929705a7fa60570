"""An in-process LDAP directory with RFC 4515-style search filters.

Models the parts of LDAP the Globus Replica Catalog uses: a tree of entries
keyed by distinguished names, multi-valued attributes, and subtree search
with string filters — ``(&(objectClass=GlobusReplicaLogicalFile)(size>=1000))``.

DNs are written little-endian as in LDAP: ``"lf=higgs.db,rc=gdmp,o=grid"``
is a child of ``"rc=gdmp,o=grid"``.  DNs are normalized once at insert
(whitespace around components and around the ``=`` is insignificant), so
``"lf=x, cn=c,o=grid"`` and ``"lf=x,cn=c, o=grid"`` address the same entry.

Scaling architecture (the production-catalog fast path):

* every attribute is equality-indexed — ``_index[attr][value]`` is an
  insertion-ordered set of DNs, maintained incrementally by ``add`` /
  ``modify_*`` / ``delete``;
* the DN tree is materialized as a child map (``_children``), so subtree
  walks and child listings are proportional to the subtree, not to the
  whole directory;
* filters are parsed once into an AST and cached per directory (keyed by
  filter text); ``search`` plans each query by intersecting index hits for
  equality/AND/OR shapes and falls back to a scope scan otherwise.

Indexed search returns exactly the entries the naive scan would, in the
same (DN-sorted) order; :meth:`LdapDirectory.search_naive` retains the
original full-scan implementation as the differential-testing reference.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

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
    """One directory entry: a DN plus multi-valued attributes."""

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
# The parser builds an AST; the AST doubles as the matcher (every node has
# ``matches``) and as the input to the directory's index planner.
# --------------------------------------------------------------------------

Matcher = Callable[[Entry], bool]


def _compare(entry: Entry, attr: str, op: str, literal: str) -> bool:
    for value in entry.attributes.get(attr, []):
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

    def matches(self, entry: Entry) -> bool:
        return all(child.matches(entry) for child in self.children)


@dataclass(frozen=True)
class OrFilter:
    children: tuple

    def matches(self, entry: Entry) -> bool:
        return any(child.matches(entry) for child in self.children)


@dataclass(frozen=True)
class NotFilter:
    child: object

    def matches(self, entry: Entry) -> bool:
        return not self.child.matches(entry)


@dataclass(frozen=True)
class EqFilter:
    attr: str
    literal: str

    def matches(self, entry: Entry) -> bool:
        return self.literal in entry.attributes.get(self.attr, [])


@dataclass(frozen=True)
class PresentFilter:
    attr: str

    def matches(self, entry: Entry) -> bool:
        return bool(entry.attributes.get(self.attr))


@dataclass(frozen=True)
class SubstringFilter:
    attr: str
    pattern: str

    def matches(self, entry: Entry) -> bool:
        return any(
            fnmatch.fnmatchcase(v, self.pattern)
            for v in entry.attributes.get(self.attr, [])
        )


@dataclass(frozen=True)
class CompareFilter:
    attr: str
    op: str
    literal: str

    def matches(self, entry: Entry) -> bool:
        return _compare(entry, self.attr, self.op, self.literal)


@dataclass(frozen=True)
class CompiledFilter:
    """A parsed filter: callable as a matcher, plannable via its AST."""

    text: str
    ast: object

    def __call__(self, entry: Entry) -> bool:
        return self.ast.matches(entry)


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


class LdapDirectory:
    """A flat-stored, hierarchically-addressed entry store with
    attribute-equality indexes and an incrementally-maintained DN tree."""

    #: parsed-filter cache bound (per directory); far above any workload's
    #: distinct-filter count, but keeps a pathological caller bounded.
    FILTER_CACHE_MAX = 4096

    def __init__(self) -> None:
        self._entries: dict[str, Entry] = {}
        #: normalized DN -> insertion-ordered set of child DNs
        self._children: dict[str, dict[str, None]] = {}
        #: normalized DN -> normalized parent DN (None at the top level)
        self._parent: dict[str, Optional[str]] = {}
        #: attr -> value -> insertion-ordered set of DNs holding that value
        self._index: dict[str, dict[str, dict[str, None]]] = {}
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
        return len(self._entries)

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

    # -- index maintenance -----------------------------------------------------
    def _post(self, dn: str, attr: str, value: str) -> None:
        self._index.setdefault(attr, {}).setdefault(value, {})[dn] = None

    def _unpost(self, dn: str, attr: str, value: str) -> None:
        by_value = self._index.get(attr)
        if by_value is None:
            return
        postings = by_value.get(value)
        if postings is None:
            return
        postings.pop(dn, None)
        if not postings:
            del by_value[value]
            if not by_value:
                del self._index[attr]

    def _index_entry(self, entry: Entry) -> None:
        for attr, values in entry.attributes.items():
            for value in values:
                self._post(entry.dn, attr, value)

    def _unindex_entry(self, entry: Entry) -> None:
        for attr, values in entry.attributes.items():
            for value in values:
                self._unpost(entry.dn, attr, value)

    # -- basic operations -------------------------------------------------------
    def exists(self, dn: str) -> bool:
        """Whether an entry with this DN exists (False for malformed DNs)."""
        try:
            return normalize_dn(dn) in self._entries
        except LdapError:
            return False

    def _insert(self, dn: str, attributes: dict[str, Iterable[str]]) -> Entry:
        """Shared add path: DN already normalized, parent already checked."""
        entry = Entry(dn=dn, attributes={k: list(v) for k, v in attributes.items()})
        parent = parent_dn(dn)
        self._entries[dn] = entry
        self._parent[dn] = parent
        self._children[dn] = {}
        if parent is not None:
            self._children[parent][dn] = None
        self._index_entry(entry)
        return entry

    def add(self, dn: str, attributes: dict[str, Iterable[str]]) -> Entry:
        """Add an entry; its parent must already exist."""
        return self.add_many([(dn, attributes)])[0]

    def add_many(self, items: Iterable[tuple[str, dict]]) -> list[Entry]:
        """Add a batch of entries in one operation.

        Parents may be earlier members of the same batch.  Validation runs
        before any mutation, so a bad batch leaves the directory unchanged.
        """
        self.operations += 1
        batch: list[tuple[str, dict]] = []
        incoming: set[str] = set()
        for dn, attributes in items:
            dn = normalize_dn(dn)
            if dn in self._entries or dn in incoming:
                raise LdapError(f"entry exists: {dn!r}")
            parent = parent_dn(dn)
            if (
                parent is not None
                and parent not in self._entries
                and parent not in incoming
            ):
                raise LdapError(f"parent {parent!r} of {dn!r} does not exist")
            incoming.add(dn)
            batch.append((dn, attributes))
        return [self._insert(dn, attributes) for dn, attributes in batch]

    def get(self, dn: str) -> Entry:
        """Fetch an entry by DN; raises LdapError when missing."""
        self.operations += 1
        try:
            return self._entries[normalize_dn(dn)]
        except KeyError:
            raise LdapError(f"no such entry: {dn!r}") from None

    def delete(self, dn: str) -> None:
        """Delete a leaf entry; entries with children are protected."""
        self.delete_many([dn])

    def delete_many(self, dns: Iterable[str]) -> None:
        """Delete a batch of leaf entries in one operation.

        Members are deleted in order, so a subtree may be removed
        leaves-first within a single batch.
        """
        self.operations += 1
        for dn in dns:
            dn = normalize_dn(dn)
            entry = self._entries.get(dn)
            if entry is None:
                raise LdapError(f"no such entry: {dn!r}")
            if self._children[dn]:
                raise LdapError(f"entry {dn!r} has children")
            self._unindex_entry(entry)
            parent = self._parent.pop(dn)
            if parent is not None:
                self._children[parent].pop(dn, None)
            del self._children[dn]
            del self._entries[dn]

    def has_value(self, dn: str, attr: str, value: str) -> bool:
        """Index-backed membership test: does the entry hold ``attr=value``?

        O(1) against the equality index — the scalable replacement for
        copying a million-element attribute list just to run ``in``.
        """
        self.operations += 1
        dn = normalize_dn(dn)
        if dn not in self._entries:
            raise LdapError(f"no such entry: {dn!r}")
        postings = self._index.get(attr, {}).get(value)
        return postings is not None and dn in postings

    def modify_add(self, dn: str, attr: str, value: str) -> None:
        """Add a value to a (possibly new) attribute; idempotent."""
        self.modify_add_many(dn, attr, [value])

    def modify_add_many(self, dn: str, attr: str, values: Iterable[str]) -> None:
        """Add many values to one attribute in one operation; idempotent."""
        entry = self.get(dn)
        existing = entry.attributes.setdefault(attr, [])
        by_value = self._index.setdefault(attr, {})
        for value in values:
            postings = by_value.get(value)
            if postings is not None and entry.dn in postings:
                continue  # already present (index-backed O(1) membership)
            existing.append(value)
            by_value.setdefault(value, {})[entry.dn] = None

    def modify_delete(self, dn: str, attr: str, value: Optional[str] = None) -> None:
        """Remove one value (or, with value=None, the whole attribute)."""
        entry = self.get(dn)
        if attr not in entry.attributes:
            raise LdapError(f"{dn!r} has no attribute {attr!r}")
        if value is None:
            for old in entry.attributes[attr]:
                self._unpost(entry.dn, attr, old)
            del entry.attributes[attr]
            return
        try:
            entry.attributes[attr].remove(value)
        except ValueError:
            raise LdapError(f"{dn!r}: {attr}={value!r} not present") from None
        self._unpost(entry.dn, attr, value)
        if not entry.attributes[attr]:
            del entry.attributes[attr]

    def children(self, dn: str) -> list[Entry]:
        """Direct children of a DN, sorted by DN."""
        self.operations += 1
        dn = normalize_dn(dn)
        child_dns = self._children.get(dn)
        if child_dns is None:
            return []
        return sorted(
            (self._entries[child] for child in child_dns), key=lambda e: e.dn
        )

    # -- search ----------------------------------------------------------------
    def _subtree_dns(self, base: str) -> list[str]:
        """Base plus every descendant DN (tree walk, not a full scan)."""
        result = []
        stack = [base]
        while stack:
            dn = stack.pop()
            result.append(dn)
            stack.extend(self._children[dn])
        return result

    def _in_scope(self, dn: str, base: str, scope: str) -> bool:
        if scope == "base":
            return dn == base
        if scope == "one":
            return self._parent.get(dn) == base
        return dn == base or dn.endswith("," + base)

    def _plan_candidates(self, node):
        """A candidate DN collection the equality indexes narrow ``node``
        to, or None when the filter shape cannot be planned (presence,
        substring, ranges, negation) and a scope scan is required.

        Correctness does not depend on tightness: the full matcher is
        re-applied to every candidate, so a plan may safely
        over-approximate.  An AND therefore returns its *smallest*
        plannable conjunct — membership in the remaining conjuncts is
        exactly what the matcher re-checks — which keeps a selective
        equality inside a broad conjunction O(selective hits) with no
        posting-set copies.  Returns a dict view or set; never mutated.
        """
        if isinstance(node, EqFilter):
            postings = self._index.get(node.attr, {}).get(node.literal)
            return postings if postings is not None else ()
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
            union: set[str] = set()
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
    ) -> list[Entry]:
        """Search ``base`` with an RFC 4515 filter.

        ``scope``: ``"base"`` (the entry itself), ``"one"`` (direct
        children), or ``"subtree"`` (base and all descendants).

        Equality and AND/OR-of-equality filters are served from the
        attribute indexes; other shapes scan the scope (which is itself a
        tree walk, not a whole-directory scan).  Results are identical to
        :meth:`search_naive` — same entries, same DN-sorted order.
        """
        self.operations += 1
        base = normalize_dn(base)
        if base not in self._entries:
            raise LdapError(f"search base {base!r} does not exist")
        if scope not in ("base", "one", "subtree"):
            raise ValueError(f"unknown scope {scope!r}")
        compiled = self.compiled_filter(filter_text)
        planned = self._plan_candidates(compiled.ast)
        if planned is not None:
            self.stats["index_searches"] += 1
            matched = [
                self._entries[dn]
                for dn in planned
                if self._in_scope(dn, base, scope)
                and compiled(self._entries[dn])
            ]
        else:
            self.stats["scan_searches"] += 1
            if scope == "base":
                candidates = [self._entries[base]]
            elif scope == "one":
                candidates = [self._entries[dn] for dn in self._children[base]]
            else:
                candidates = [self._entries[dn] for dn in self._subtree_dns(base)]
            matched = [e for e in candidates if compiled(e)]
        return sorted(matched, key=lambda e: e.dn)

    def search_naive(
        self,
        base: str,
        filter_text: str = "(objectClass=*)",
        scope: str = "subtree",
    ) -> list[Entry]:
        """The original unindexed search, retained as the reference
        implementation: re-parses the filter and scans every entry.
        Differential tests (and the catalog_scale bench baseline) compare
        :meth:`search` against this, entry-for-entry and order-for-order.
        """
        base = normalize_dn(base)
        if base not in self._entries:
            raise LdapError(f"search base {base!r} does not exist")
        matcher = compile_filter(filter_text)  # deliberately uncached
        if scope == "base":
            candidates = [self._entries[base]]
        elif scope == "one":
            candidates = [
                e for d, e in self._entries.items() if self._parent.get(d) == base
            ]
        elif scope == "subtree":
            suffix = "," + base
            candidates = [
                e for d, e in self._entries.items() if d == base or d.endswith(suffix)
            ]
        else:
            raise ValueError(f"unknown scope {scope!r}")
        return sorted((e for e in candidates if matcher(e)), key=lambda e: e.dn)
