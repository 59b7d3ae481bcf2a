"""Finite groupoids as index arrays with vectorized composition.

Objects and morphisms are non-negative integers.  A groupoid is stored as its
source/target maps and unit and inverse assignments, plus its composition:
either a partial composition table with ``UNDEFINED`` (-1) marking
non-composable pairs (description files, groups), or, for the pair and
pair-times-group builtins, the product rule, which composes by arithmetic and
builds the M×M table only when something reads ``table``.  ``compose(a, b)``
means "b first, then a" and is defined exactly when ``src[a] == tgt[b]``.

All instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

UNDEFINED = -1
ASSOC_CHUNK = 1 << 18   # most triples an associativity check gathers at once
BUILTIN_CAP = 1 << 22   # most morphisms, and group-table entries, of a builtin name
TABLE_CAP = 1 << 28     # most bytes of an n×n table or kernel (256 MiB)


class CompositionError(ValueError):
    """Composition requested for a non-composable pair."""


class InvalidGroupError(ValueError):
    """A multiplication table fails the group axioms."""


class GroupoidFormatError(ValueError):
    """A groupoid description file cannot be parsed into a well-formed table set."""


@dataclass(frozen=True)
class Violation:
    kind: str  # 'range' | 'domain' | 'unit' | 'inverse' | 'associativity'
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def summary(self) -> str:
        if self.ok:
            return "ok: all groupoid axioms hold"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def check_table_size(n: int, itemsize: int, what: str) -> None:
    """Refuse an n×n array of itemsize-byte entries (what it is, for the
    message) before it is allocated if its bytes exceed TABLE_CAP."""
    table_bytes = itemsize * n * n
    if table_bytes > TABLE_CAP:
        raise ValueError(f"{what} takes {table_bytes} bytes, above the cap of {TABLE_CAP}")


class _CompositionTable:
    """The ``table`` field of FiniteGroupoid: the table passed at
    construction, or, for a groupoid that composes by its product rule, the
    table filled from ``fiber_blocks`` (so from ``composite``) on first read
    and kept.  Either way it is a read-only int32 array."""

    def __get__(self, g, owner=None):
        if g is None:
            return None         # the field's default: no stored table
        table = g.__dict__["_table"]
        if table is None:
            M = g.n_morphisms
            check_table_size(M, 4, f"{g.name}: its composition table")
            table = np.full((M, M), UNDEFINED, dtype=np.int32)
            for fib, block in g.fiber_blocks:
                table[g.inverse_of[fib][:, None], fib] = block
            table.setflags(write=False)
            g.__dict__["_table"] = table
        return table

    def __set__(self, g, table):
        if table is not None:
            table.setflags(write=False)
        g.__dict__["_table"] = table


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """Finite groupoid: src/tgt maps, units, inverses, and a composition that
    is either a stored table or the product rule of pair:n × G.

    group_factor, given instead of a table, is the Cayley table of G, and
    the groupoid is the product of the pair groupoid on n_objects with G:
    morphism (y; g; x): x -> y has id (y*k + g)*n + x, and
    (ya; ga; xa)∘(yb; gb; xb) = (ya; ga·gb; xb) where xa == yb.  A stored
    table supersedes the rule, so replace(g, table=T) composes by T."""

    n_objects: int
    src: np.ndarray
    tgt: np.ndarray
    unit_of: np.ndarray     # object -> morphism id of its unit
    inverse_of: np.ndarray  # morphism -> morphism id of its inverse
    # table[a, b] = a∘b, UNDEFINED where src[a] != tgt[b]
    table: np.ndarray | None = _CompositionTable()
    name: str = "groupoid"
    group_factor: np.ndarray | None = None  # Cayley table of G, for pair:n × G

    def __post_init__(self):
        for arr in (self.src, self.tgt, self.unit_of, self.inverse_of):
            arr.setflags(write=False)
        if self.__dict__["_table"] is not None:
            object.__setattr__(self, "group_factor", None)
        elif self.group_factor is None:
            raise ValueError("a groupoid needs a composition table or a group factor")
        else:
            self.group_factor.setflags(write=False)

    @property
    def n_morphisms(self) -> int:
        return int(self.src.shape[0])

    def source(self, m: int) -> int:
        return int(self.src[m])

    def target(self, m: int) -> int:
        return int(self.tgt[m])

    def unit(self, x: int) -> int:
        return int(self.unit_of[x])

    def inverse(self, m: int) -> int:
        return int(self.inverse_of[m])

    def is_unit(self, m: int) -> bool:
        return int(self.unit_of[self.src[m]]) == m

    def composite(self, a, b):
        """a∘b elementwise over index arrays that broadcast (or two ints),
        UNDEFINED where a and b are not composable."""
        G = self.group_factor
        if G is None:
            return self.table[a, b]
        n, k = self.n_objects, G.shape[0]
        ya, xa = divmod(a, n)           # ya = y_a*k + g_a
        yb, xb = divmod(b, n)
        c = (ya - ya % k + G[ya % k, yb % k]) * n + xb
        return (xa == yb // k) * (c - UNDEFINED) + UNDEFINED

    def compose(self, a: int, b: int) -> int:
        M = self.n_morphisms
        if not (0 <= a < M and 0 <= b < M):
            raise IndexError(f"morphism pair ({a}, {b}) out of range for {M} morphisms")
        c = int(self.composite(a, b))
        if c == UNDEFINED:
            raise CompositionError(
                f"morphisms {a} and {b} are not composable "
                f"(src({a})={self.source(a)} != tgt({b})={self.target(b)})"
            )
        return c

    def hom_set(self, a: int, b: int) -> tuple[int, ...]:
        """Morphisms a -> b in ascending index order."""
        n = self.n_objects
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"object pair ({a}, {b}) out of range for {n} objects")
        sizes, homs = self.hom_arrays
        ab = a * n + b
        return tuple(homs[ab, :sizes[ab]].tolist())

    @cached_property
    def hom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Hom sets as arrays indexed by the object pair a * n_objects + b:
        sizes[ab] = |hom_set(a, b)|, and homs[ab, j] is its j-th morphism for
        j < sizes[ab], UNDEFINED after that."""
        return _hom_index(self.src, self.tgt, self.n_objects)

    @cached_property
    def fibers(self) -> tuple[np.ndarray, ...]:
        """fibers[y] = morphism ids with target y (the fiber over y), ascending."""
        n = self.n_objects
        ids = np.flatnonzero((self.tgt >= 0) & (self.tgt < n))
        ids = ids[np.argsort(self.tgt[ids], kind="stable")]
        ends = np.cumsum(np.bincount(self.tgt[ids], minlength=n))
        return tuple(np.split(ids, ends[:-1]))

    @cached_property
    def fiber_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(fib, block) per object y, with fib = fibers[y] and
        block[i, j] = fib_i^-1 ∘ fib_j: every composable pair of a morphism
        leaving y after one entering y, at O(|fiber|^2) per object."""
        out = []
        for fib in self.fibers:
            block = self.composite(self.inverse_of[fib][:, None], fib[None, :])
            block.setflags(write=False)
            out.append((fib, block))
        return tuple(out)

    def __repr__(self):
        return (f"FiniteGroupoid({self.name!r}, objects={self.n_objects}, "
                f"morphisms={self.n_morphisms})")


def _hom_index(src: np.ndarray, tgt: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, homs) of the hom sets a -> b keyed by ab = a * n + b, from one
    stable sort of the keys: sizes[ab] morphisms in homs[ab], ascending, then
    UNDEFINED padding.  Morphisms with an endpoint outside 0..n-1 are left
    out.  Both arrays are intp and read-only."""
    ids = np.flatnonzero((src >= 0) & (src < n) & (tgt >= 0) & (tgt < n))
    keys = src[ids].astype(np.intp) * n + tgt[ids]
    order = np.argsort(keys, kind="stable")
    ids, keys = ids[order], keys[order]
    sizes = np.bincount(keys, minlength=n * n)
    homs = np.full((n * n, max(int(sizes.max(initial=0)), 1)), UNDEFINED, dtype=np.intp)
    # the j-th member of a hom set sits j places after the set's first
    homs[keys, np.arange(len(keys)) - (np.cumsum(sizes) - sizes)[keys]] = ids
    sizes.setflags(write=False)
    homs.setflags(write=False)
    return sizes, homs


# ---------------------------------------------------------------------------
# associativity: the composable triples of a table and Light's test


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-D mask, (rows, cols) in row-major order, from one
    flat scan (several times faster than np.nonzero on a large mask)."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _unassociative_triples(C: np.ndarray, pa: np.ndarray, pb: np.ndarray, middle=None):
    """The triples (a, b, c) with (a∘b)∘c != a∘(b∘c) of a table whose
    composable pairs are (pa, pb), in row-major order.  Every pair (a, b),
    then every c with (b, c) composable, is gathered in (a, b, c) order, at
    most ASSOC_CHUNK triples at a time, and each chunk is yielded as three
    index arrays cut to its failing triples.  With a boolean mask middle,
    only the pairs with middle[b] are gathered.

    C[x, y] is gathered as flat[x*M + y] with intp indices, since M² can
    exceed the int32 range of the entries."""
    M = C.shape[0]
    flat = C.ravel()
    # row b's composable c are cols[start[b]:start[b] + count[b]], ascending
    cols = pb
    count = np.bincount(pa, minlength=M)
    start = np.cumsum(count) - count
    if middle is not None:
        keep = middle[pb]
        pa, pb = pa[keep], pb[keep]
    step = max(1, ASSOC_CHUNK // max(int(count.max(initial=0)), 1))
    for p0 in range(0, len(pa), step):
        reps = count[pb[p0:p0 + step]]
        a = np.repeat(pa[p0:p0 + step], reps)
        b = np.repeat(pb[p0:p0 + step], reps)
        c = cols[start[b] + np.arange(len(b)) - np.repeat(np.cumsum(reps) - reps, reps)]
        aM = a * M
        ab = flat[aM + b].astype(np.intp)
        bad = flat[ab * M + c] != flat[aM + flat[b * M + c]]
        yield a[bad], b[bad], c[bad]


def _generators(src: np.ndarray, tgt: np.ndarray, pa: np.ndarray, pb: np.ndarray,
                res: np.ndarray) -> np.ndarray:
    """Mask of a set that generates every morphism under composition: the
    morphisms that are not res = a∘b of a composable pair (a, b) of (pa, pb)
    ordered before them by (target, source, id).  Every other morphism is
    such an a∘b, so by induction along that order each morphism is a
    composite of the set."""
    M = len(src)
    rank = np.empty(M, dtype=np.intp)
    rank[np.lexsort((src, tgt))] = np.arange(M)
    generator = np.ones(M, dtype=bool)
    generator[res[np.maximum(rank[pa], rank[pb]) < rank[res]]] = False
    return generator


def _light_associative(C: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                       pa: np.ndarray, pb: np.ndarray, res: np.ndarray) -> bool:
    """Light's associativity test (A. H. Clifford and G. B. Preston, The
    Algebraic Theory of Semigroups I, 1961, §1.2) on a table whose
    composable pairs (pa, pb), in row-major order, compose to res =
    C[pa, pb], each a morphism src[pb] -> tgt[pa], and whose other pairs are
    undefined.  True proves (a∘b)∘c == a∘(b∘c) on every composable triple;
    False means some triple fails.

    Call b middle-associative when the law holds for every a and c
    composable with it.  Given those endpoints, a composite of two
    middle-associative morphisms is middle-associative, so it suffices to
    check the triples whose middle lies in a generating set (_generators)."""
    generator = _generators(src, tgt, pa, pb, res)
    return not any(len(a) for a, _, _ in _unassociative_triples(C, pa, pb, generator))


# ---------------------------------------------------------------------------
# constructors


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Groupoid of pairs on n objects: morphism (y, x): x -> y has id y*n + x,
    built as the product with the trivial group."""
    if n < 1:
        raise ValueError("pair groupoid needs at least one object")
    return product_with_group(n, _TRIVIAL_GROUP, name=f"pair:{n}")


def _check_group_table(cayley: np.ndarray) -> tuple[int, np.ndarray]:
    """Validate a multiplication table; return (identity, inverses).

    Associativity is Light's test (_light_associative), as for a groupoid
    table with one object.  A table that fails it is scanned triple by
    triple, and the first (a, b, c) that fails names the error."""
    k = cayley.shape[0]
    if cayley.shape != (k, k) or k == 0:
        raise InvalidGroupError("multiplication table must be a nonempty square matrix")
    if cayley.min() < 0 or cayley.max() >= k:
        raise InvalidGroupError("table entries out of range: not closed")
    idx = np.arange(k)
    ident = np.flatnonzero((cayley == idx).all(axis=1) & (cayley == idx[:, None]).all(axis=0))
    if len(ident) != 1:
        raise InvalidGroupError("table has no (or no unique) identity element")
    e = int(ident[0])
    # every pair composes, in row-major order
    pa, pb = np.divmod(np.arange(k * k), k)
    ends = np.zeros(k, dtype=np.intp)
    if not _light_associative(cayley, ends, ends, pa, pb, cayley.ravel()):
        a, b, c = next((a[0], b[0], c[0])
                       for a, b, c in _unassociative_triples(cayley, pa, pb) if len(a))
        raise InvalidGroupError(f"table is not associative at ({a},{b},{c})")
    # both[a, x]: x is a two-sided inverse of a
    both = (cayley == e) & (cayley.T == e)
    bad = np.flatnonzero(np.count_nonzero(both, axis=1) != 1)
    if len(bad):
        raise InvalidGroupError(f"element {bad[0]} has no unique two-sided inverse")
    return e, np.argmax(both, axis=1).astype(np.int64)


def group_groupoid(cayley, inverses=None, identity=None, name=None) -> FiniteGroupoid:
    """One-object groupoid from a group multiplication table (validated)."""
    cayley = np.asarray(cayley, dtype=np.int64)
    e, inv = _check_group_table(cayley)
    if identity is not None and identity != e:
        raise InvalidGroupError(f"declared identity {identity} but table identity is {e}")
    if inverses is not None and not np.array_equal(np.asarray(inverses), inv):
        raise InvalidGroupError("declared inverses disagree with the table")
    k = cayley.shape[0]
    zeros = np.zeros(k, dtype=np.int64)
    return FiniteGroupoid(1, zeros, zeros.copy(), np.array([e]), inv,
                          cayley.astype(np.int32), name=name or f"group:{k}")


def cyclic_groupoid(k: int) -> FiniteGroupoid:
    """The cyclic group Z_k as a one-object groupoid."""
    if k < 1:
        raise ValueError("cyclic group order must be >= 1")
    a = np.arange(k)
    table = (a[:, None] + a[None, :]) % k
    return group_groupoid(table, name=f"cyclic:{k}")


_TRIVIAL_GROUP = cyclic_groupoid(1)   # read-only tables, shared by every pair groupoid


def product_with_group(n: int, group: FiniteGroupoid,
                       name: str | None = None) -> FiniteGroupoid:
    """Pair groupoid on n objects times a one-object group: morphisms (y; g; x),
    composed by the product rule (no M×M table is built here)."""
    if group.n_objects != 1:
        raise ValueError("second factor must be a one-object groupoid (a group)")
    if n < 1:
        raise ValueError("pair factor needs at least one object")
    k = group.n_morphisms
    ids = np.arange(n * n * k)
    y, g, x = ids // (n * k), (ids // n) % k, ids % n
    e = group.unit(0)
    ginv = np.asarray(group.inverse_of)
    unit_of = (np.arange(n) * k + e) * n + np.arange(n)
    inverse_of = (x * k + ginv[g]) * n + y
    return FiniteGroupoid(n, x, y, unit_of, inverse_of, name=name or f"{group.name}-pairs:{n}",
                          group_factor=np.asarray(group.table, dtype=np.intp))


# ---------------------------------------------------------------------------
# axiom validation


def _associativity_violations(C: np.ndarray, defined: np.ndarray):
    """Violations of (a∘b)∘c == a∘(b∘c) on every triple the table composes:
    every (a, b) with table[a, b] defined, then every c with table[b, c]
    defined, in (a, b, c) order.  defined[a, b] says whether C[a, b] names a
    morphism."""
    pa, pb = _cells(defined)
    for a, b, c in _unassociative_triples(C, pa, pb):
        for i in range(len(a)):
            yield Violation("associativity",
                            f"({a[i]}∘{b[i]})∘{c[i]} != {a[i]}∘({b[i]}∘{c[i]})")


def _violations(g: FiniteGroupoid):
    """Every axiom violation of g, in report order: ranges, composability
    domain, units, unit and inverse laws, associativity."""
    M, n = g.n_morphisms, g.n_objects
    src, tgt, unit, inv, C = g.src, g.tgt, g.unit_of, g.inverse_of, g.table
    ends_ok = (src >= 0) & (src < n) & (tgt >= 0) & (tgt < n)
    for name, ends in (("src", src), ("tgt", tgt)):
        for x in np.flatnonzero((ends < 0) | (ends >= n)):
            yield Violation("range", f"{name}[{x}] out of range")
    unit_ok = (unit >= 0) & (unit < M)
    inv_ok = (inv >= 0) & (inv < M)
    for x in np.flatnonzero(~unit_ok):
        yield Violation("unit", f"unit_of[{x}] = {int(unit[x])} is not a morphism")
    for m in np.flatnonzero(~inv_ok):
        yield Violation("inverse", f"inverse_of[{m}] = {int(inv[m])} is not a morphism")
    stray = _cells((C < UNDEFINED) | (C >= M))
    for a, b in zip(*stray):
        yield Violation("range", f"table[{a},{b}] = {int(C[a, b])} out of range")

    defined = (C >= 0) & (C < M)
    need = src[:, None] == tgt[None, :]
    # composability domain: defined exactly where src[a] == tgt[b]
    gaps = _cells(need != (C != UNDEFINED))
    for a, b in zip(*gaps):
        word = "missing" if need[a, b] else "spurious"
        yield Violation("domain", f"table[{a},{b}] {word}: defined iff src(a)=tgt(b)")
    # endpoints of defined compositions: s(a∘b)=s(b), t(a∘b)=t(a)
    da, db = _cells(need & defined)
    res = C[da, db]
    wrong = np.flatnonzero((src[res] != src[db]) | (tgt[res] != tgt[da]))
    for i in wrong:
        yield Violation("domain", f"table[{da[i]},{db[i]}] = {res[i]} has wrong endpoints")

    for x in np.flatnonzero(unit_ok):
        u = int(unit[x])
        if src[u] != x or tgt[u] != x:
            yield Violation("unit", f"unit_of[{x}] = {u} is not an endomorphism of {x}")
    # the unit and inverse laws read unit_of at src and tgt
    if unit_ok.all() and ends_ok.all():
        ids = np.arange(M)
        for m in np.flatnonzero(C[ids, unit[src]] != ids):
            yield Violation("unit", f"m∘1_src(m) != m for morphism {m}")
        for m in np.flatnonzero(C[unit[tgt], ids] != ids):
            yield Violation("unit", f"1_tgt(m)∘m != m for morphism {m}")
        ms = np.flatnonzero(inv_ok)
        i = inv[ms]
        for m in ms[(C[i, ms] != unit[src[ms]]) | (C[ms, i] != unit[tgt[ms]])]:
            yield Violation("inverse", f"inverse law fails for morphism {m}")
    # with no range or domain violation, (da, db) are all the composable pairs
    premise = ends_ok.all() and not (len(stray[0]) or len(gaps[0]) or len(wrong))
    if premise and _light_associative(C, src, tgt, da, db, res):
        return
    yield from _associativity_violations(C, defined)


def validate_axioms(g: FiniteGroupoid, limit: int | None = None) -> ValidationReport:
    """Exhaustive axiom check: ranges, composability domain, units, inverses,
    associativity on every triple the table composes.  Associativity is
    proved by Light's test, which compares only the triples whose middle lies
    in a generating set; every triple is scanned, and each failing one
    reported in (a, b, c) order, when that test fails or a range or domain
    violation came first.  Violations are report entries, never exceptions;
    limit, if given, caps the report at its first limit entries and must be
    at least 1, since an empty report reads as ok."""
    if limit is not None and limit < 1:
        raise ValueError(f"validate_axioms limit must be at least 1, not {limit}")
    return ValidationReport(tuple(itertools.islice(_violations(g), limit)))


# ---------------------------------------------------------------------------
# description files and builtin names


def _check_builtin_size(n: int, k: int) -> None:
    """Refuse pair:n × a group of order k before anything is allocated if
    its n²k morphisms or its k² group-table entries exceed BUILTIN_CAP.
    Counts below one object or element are left to the constructors."""
    if n < 1 or k < 1:
        return
    for count, what in ((n * n * k, "morphisms"), (k * k, "group-table entries")):
        if count > BUILTIN_CAP:
            raise ValueError(f"{count} {what}, above the cap of {BUILTIN_CAP}")


def builtin_groupoid(name: str) -> FiniteGroupoid:
    """Builtin constructors by name: pair:<n>, cyclic:<k>, pair_x_cyclic:<n>,<k>.
    Sizes above BUILTIN_CAP are refused (_check_builtin_size)."""
    kind, _, arg = name.partition(":")
    try:
        if kind == "pair":
            n = int(arg)
            _check_builtin_size(n, 1)
            return pair_groupoid(n)
        if kind == "cyclic":
            k = int(arg)
            _check_builtin_size(1, k)
            return cyclic_groupoid(k)
        if kind == "pair_x_cyclic":
            n, k = map(int, arg.split(","))
            _check_builtin_size(n, k)
            return product_with_group(n, cyclic_groupoid(k))
    except InvalidGroupError:
        raise
    except ValueError as exc:
        raise GroupoidFormatError(f"bad builtin groupoid spec {name!r}: {exc}") from exc
    raise GroupoidFormatError(f"unknown builtin groupoid {name!r}")


try:
    from yaml.cyaml import CParser
except ImportError:     # PyYAML built without libyaml
    FastLoader = yaml.SafeLoader
else:
    class FastLoader(yaml.composer.Composer, CParser, yaml.constructor.SafeConstructor,
                     yaml.resolver.Resolver):
        """libyaml scans and parses; PyYAML's own composer and safe constructor
        build the data.  (yaml.CSafeLoader composes in C, recursing on the C
        stack: a flow list nested some 40000 deep kills the process, where
        this composer raises RecursionError as yaml.safe_load does.)"""

        def __init__(self, stream):
            CParser.__init__(self, stream)
            yaml.composer.Composer.__init__(self)
            yaml.constructor.SafeConstructor.__init__(self)
            yaml.resolver.Resolver.__init__(self)


# The characters of the files that save_groupoid_file and save_state_spec
# write.  libyaml and the pure parser read some others differently: libyaml
# takes a tab inside a plain scalar, a '?' inside a flow node and a byte-order
# mark inside the text, where the pure parser refuses or reads other data.
FAST_TEXT = re.compile(r"[\w\n .,:+\-\[\]{}#]*", re.ASCII)


def parse_yaml(text: str):
    """``yaml.safe_load(text)``, the same data or the same error, faster.

    FastLoader parses a text of FAST_TEXT's characters.  Any other text, and
    any text FastLoader refuses, is parsed by the pure-Python ``safe_load``,
    so every error and its message are the pure parser's."""
    if FAST_TEXT.fullmatch(text):
        try:
            return yaml.load(text, Loader=FastLoader)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def read_yaml(path, what: str, error: type[ValueError] = ValueError):
    """Parsed YAML of a description file.  Invalid YAML, and YAML nested too
    deeply for the parser's recursion, raise ``error`` with a one-line message
    naming what is read, the file, the line if known and the problem."""
    try:
        return parse_yaml(Path(path).read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise error(f"{what} {path}{where}: not valid YAML: {problem}") from None
    except RecursionError:
        raise error(f"{what} {path}: not valid YAML: nested too deeply") from None


def is_int(v) -> bool:
    """True for an int that is not a bool (YAML reads true/false as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _fill(path, data: dict, key: str, out: np.ndarray, bounds) -> np.ndarray:
    """out with the rows of section key written in: row [*at, v] sets
    out[at] = v.  Each row holds len(bounds) integers, each entry lies in
    0..bound-1, and each at may be given once."""
    rows, width = data[key], len(bounds)
    if not isinstance(rows, list):
        raise GroupoidFormatError(f"{path}: '{key}' must be a list of rows")
    for i, row in enumerate(rows, start=1):
        if not (isinstance(row, list) and len(row) == width and all(map(is_int, row))):
            raise GroupoidFormatError(
                f"{path}: {key} row {i} {row!r}: expected {width} integers")
    for i, row in enumerate(rows, start=1):
        if not all(0 <= v < b for v, b in zip(row, bounds)):
            raise GroupoidFormatError(f"{path}: bad {key} row {row}")
        *at, v = row
        if out[tuple(at)] != UNDEFINED:
            raise GroupoidFormatError(f"{path}: {key} row {i} {row}: repeats an "
                                      f"earlier row for {', '.join(map(str, at))}")
        out[tuple(at)] = v
    return out


def _infer(path, index, keys: np.ndarray, what) -> np.ndarray:
    """The one morphism of each hom set keys[i] of the index (sizes, homs);
    the first i whose hom set is not a singleton raises, what(i) naming it."""
    sizes, homs = index
    bad = np.flatnonzero(sizes[keys] != 1)
    if len(bad):
        raise GroupoidFormatError(f"{path}: cannot infer {what(bad[0])}: expected "
                                  f"exactly one candidate, found {sizes[keys[bad[0]]]}")
    return homs[keys, 0]


def load_groupoid_file(path) -> FiniteGroupoid:
    """Load a groupoid description file (YAML).

    Required sections: ``objects: <n>`` and ``morphisms: [{id, src, tgt}, ...]``.
    Optional: ``compose: [[a, b, a∘b], ...]``, ``inverse: [[m, m⁻¹], ...]``,
    ``units: [[object, unit_id], ...]``.  Missing sections are inferred when the
    relevant hom sets are singletons; otherwise loading fails.
    """
    path = Path(path)
    data = read_yaml(path, "groupoid file", GroupoidFormatError)
    if not isinstance(data, dict):
        raise GroupoidFormatError(f"groupoid file {path} must be a mapping")
    n, morphs = data.get("objects"), data.get("morphisms")
    if not is_int(n) or not isinstance(morphs, list):
        raise GroupoidFormatError(f"{path}: missing/invalid 'objects' or 'morphisms'")
    if n < 1 or not morphs:
        raise GroupoidFormatError(f"{path}: need at least one object and one morphism")
    M = len(morphs)
    check_table_size(M, 4, f"{path}: its composition table")
    if n > M:
        raise GroupoidFormatError(f"{path}: {n} objects need at least {n} morphisms, "
                                  "one unit each")
    src = np.full(M, -1, dtype=np.int64)
    tgt = np.full(M, -1, dtype=np.int64)
    for row in morphs:
        ids = [row.get(k) for k in ("id", "src", "tgt")] if isinstance(row, dict) else []
        if len(ids) != 3 or not all(map(is_int, ids)):
            raise GroupoidFormatError(f"{path}: bad morphism row {row!r}")
        i, s, t = ids
        if not (0 <= i < M):
            raise GroupoidFormatError(f"{path}: morphism id {i} not in 0..{M-1}")
        if src[i] != -1:
            raise GroupoidFormatError(f"{path}: duplicate morphism id {i}")
        if not (0 <= s < n and 0 <= t < n):
            raise GroupoidFormatError(f"{path}: morphism {i} endpoints out of range")
        src[i], tgt[i] = s, t

    index = _hom_index(src, tgt, n)
    if "units" in data:
        unit_of = _fill(path, data, "units", np.full(n, UNDEFINED, dtype=np.int64), (n, M))
    else:   # the key of hom set x -> x is x * n + x
        unit_of = _infer(path, index, np.arange(n) * (n + 1), lambda x: f"unit at object {x}")
    if "inverse" in data:
        inverse_of = _fill(path, data, "inverse", np.full(M, UNDEFINED, dtype=np.int64), (M, M))
    else:
        inverse_of = _infer(path, index, tgt * n + src, lambda m: f"inverse of morphism {m}")
    table = np.full((M, M), UNDEFINED, dtype=np.int32)
    if "compose" in data:
        _fill(path, data, "compose", table, (M, M, M))
    else:
        # a∘b: src(b) -> tgt(a), for each composable (a, b) in row-major order
        a, b = np.nonzero(src[:, None] == tgt[None, :])
        table[a, b] = _infer(path, index, src[b] * n + tgt[a],
                             lambda i: f"composition {a[i]}∘{b[i]}")
    return FiniteGroupoid(n, src, tgt, unit_of, inverse_of, table, name=path.stem)


def save_groupoid_file(g: FiniteGroupoid, path) -> None:
    """Write the full description of g (explicit tables) as YAML."""
    data = {
        "objects": g.n_objects,
        "morphisms": [{"id": m, "src": g.source(m), "tgt": g.target(m)}
                      for m in range(g.n_morphisms)],
        "units": [[x, g.unit(x)] for x in range(g.n_objects)],
        "inverse": [[m, g.inverse(m)] for m in range(g.n_morphisms)],
        "compose": [[int(a), int(b), int(g.table[a, b])]
                    for a, b in np.argwhere(g.table != UNDEFINED)],
    }
    Path(path).write_text(yaml.safe_dump(data, sort_keys=False))


def is_builtin_name(source: str) -> bool:
    """True if resolve_groupoid reads source as a builtin constructor name."""
    return source.partition(":")[0] in ("pair", "cyclic", "pair_x_cyclic")


def resolve_groupoid(source: str) -> FiniteGroupoid:
    """Resolve a builtin constructor name or a path to a description file."""
    if is_builtin_name(source):
        return builtin_groupoid(source)
    if Path(source).exists():
        return load_groupoid_file(source)
    raise GroupoidFormatError(f"groupoid source {source!r}: not a builtin name or a file")
