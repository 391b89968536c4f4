"""Complete deterministic automata over integer states and letters.

States are 0..n-1 and letters are 0..k-1. A set of states is an int bit
mask everywhere, bit q standing for state q. :meth:`Automaton.image` is the
checked form of the unchecked kernel ``image_bits``, and
:meth:`Automaton.preimage` the checked one-letter preimage, which ORs the
inverse masks of the set's members as ``image_bits`` ORs their successors.
The search's kernel ``preimage_bits`` returns a set's preimages under all k
letters, in letter order, from one lookup per byte of the mask: its per-byte
tables pack the k letters into one int. An automaton is immutable after
construction; the inverse transition table and the per-byte preimage tables
are each built once on first use and only read afterwards.
"""

from __future__ import annotations

import random
import sys
from functools import reduce
from itertools import chain, islice, repeat
from operator import getitem, index, or_
from typing import Iterable, Sequence

Word = tuple[int, ...]


def _bit_members(bits: int) -> list[int]:
    """Indices of the set bits of ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _byte_tables(masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """One 256-entry table per byte of a state mask: entry ``b`` of table
    ``j`` is the OR of ``masks[8*j + i]`` over the bits ``i`` set in ``b``.
    A short last byte is padded with zero masks. Each distinct union is
    ORed once and stored as one int: ``unions`` doubles with each nonzero
    mask, and ``pos`` maps each entry to its union, doubling with the same
    positions for a zero mask. Disjoint nonzero masks, as preimage masks
    are, give a distinct union for each subset."""
    masks = [*masks, *[0] * (-len(masks) % 8)]
    tables = []
    for j in range(0, len(masks), 8):
        unions = [0]
        pos = [0]
        for x in masks[j : j + 8]:
            if x:
                size = len(unions)
                pos += [p + size for p in pos]
                unions += [v | x for v in unions]
            else:
                pos += pos
        tables.append(tuple(map(unions.__getitem__, pos)))
    return tuple(tables)


# Words are applied to a state list in chunks of _LONG letters, each through
# one column composed over all states and kept for reuse, from the columns of
# its four runs of _BLOCK letters. A ragged last chunk goes run by run, and a
# ragged last run letter by letter.
_BLOCK = 16
_LONG = 4 * _BLOCK
# At most this many composed columns of n states, of both lengths together,
# are kept per cache. A run that would pass it falls back to shorter runs:
# a long one to its short runs, a short one to its letters, which costs no
# more than composing a column it would not reuse.
_MAX_BLOCKS = 64


def _column(
    cols: Sequence[Sequence[int]],
    run: bytes | tuple[int, ...],
    blocks: dict[bytes | tuple[int, ...], list[int]],
) -> list[int] | None:
    """The composed column of ``run`` (_BLOCK or _LONG letters) from
    ``blocks``, else composed and kept there if the columns this adds leave
    at most _MAX_BLOCKS, else None."""
    col = blocks.get(run)
    if col is not None:
        return col
    if len(run) == _BLOCK:
        if len(blocks) >= _MAX_BLOCKS:
            return None
        col = list(range(len(cols[0])))
        for x in run:
            c = cols[x]
            col = [c[p] for p in col]
    else:
        parts = [run[i : i + _BLOCK] for i in range(0, _LONG, _BLOCK)]
        if len(blocks) + len(set(parts) - blocks.keys()) >= _MAX_BLOCKS:
            return None
        col = _column(cols, parts[0], blocks)
        for part in parts[1:]:
            c = _column(cols, part, blocks)
            col = [c[p] for p in col]
    blocks[run] = col
    return col


# Columns are applied as [c[p] for p in xs], here and in _column: over a
# tuple column, list(map(c.__getitem__, xs)) calls tuple.__getitem__ through
# its slot wrapper, about 49 ns per state against 17 ns for the comprehension
# (1 000 states, CPython 3.11.7); over a list column, map takes 24 ns.
def _apply_word(
    cols: Sequence[Sequence[int]],
    word: bytes | tuple[int, ...],
    states: Iterable[int],
    blocks: dict[bytes | tuple[int, ...], list[int]],
) -> list[int]:
    """The successors of ``states`` under ``word``, one per entry, in order
    and with repeats; ``cols[x][p]`` is the successor of p under x. Each
    _LONG-letter chunk goes through its column, else each of its runs
    through its own, else letter by letter. The columns are kept in
    ``blocks``, keyed by slices of ``word``, which must be bytes or a tuple
    so that every slice is hashable; callers applying many words share them."""
    states = list(states)
    for i in range(0, len(word), _LONG):
        chunk = word[i : i + _LONG]
        col = _column(cols, chunk, blocks) if len(chunk) == _LONG else None
        if col is not None:
            states = [col[p] for p in states]
            continue
        for j in range(0, len(chunk), _BLOCK):
            run = chunk[j : j + _BLOCK]
            col = _column(cols, run, blocks) if len(run) == _BLOCK else None
            if col is None:
                for x in run:
                    c = cols[x]
                    states = [c[p] for p in states]
            else:
                states = [col[p] for p in states]
    return states


class Automaton:
    """A complete DFA given by its transition table.

    ``rows[q][a]`` is the successor of state ``q`` under letter ``a``. The
    table must be rectangular and every entry must lie in [0, n).
    """

    __slots__ = ("n", "k", "rows", "_cols", "_inv_bits", "_pre_tables")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(map(tuple, rows))
        # an int is its own index(); other integer types become ints
        if set(map(type, chain.from_iterable(rows))) != {int}:
            rows = tuple(tuple(map(index, row)) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("automaton needs at least one state and one letter")
        n = len(rows)
        k = len(rows[0])
        cols = tuple(zip(*rows))
        # The row lengths come first: zip cuts ragged rows to the shortest.
        # Only a bad table walks its rows, to name its first fault.
        if (
            set(map(len, rows)) != {k}
            or min(map(min, cols)) < 0
            or max(map(max, cols)) >= n
        ):
            for q, row in enumerate(rows):
                if len(row) != k:
                    raise ValueError(f"row {q} has {len(row)} entries, expected {k}")
                for a, p in enumerate(row):
                    if not 0 <= p < n:
                        raise ValueError(
                            f"transition delta({q}, {a}) = {p} out of range [0, {n})"
                        )
        self.n = n
        self.k = k
        self.rows = rows
        self._cols = cols
        self._inv_bits = None
        self._pre_tables = None

    def delta(self, q: int, a: int) -> int:
        return self.rows[q][a]

    @property
    def full_bits(self) -> int:
        return (1 << self.n) - 1

    def build_inverse(self) -> tuple[tuple[int, ...], ...]:
        """The inverse table: entry ``[a][p]`` is the mask of the states q
        with delta(q, a) = p. Built on the first call and kept, since the
        transitions never change."""
        inv = self._inv_bits
        if inv is None:
            masks_per_letter = []
            for a in range(self.k):
                masks = [0] * self.n
                for q, p in enumerate(self._cols[a]):
                    masks[p] |= 1 << q
                masks_per_letter.append(tuple(masks))
            inv = tuple(masks_per_letter)
            self._inv_bits = inv
        return inv

    def image_bits(self, bits: int, a: int) -> int:
        col = self._cols[a]
        return reduce(or_, [1 << col[q] for q in _bit_members(bits)], 0)

    def preimage_bits(self, bits: int) -> list[int]:
        # Preimage distributes over union, so sum one table entry per byte
        # of the mask. An entry packs the k letters' preimages, letter x's
        # from bit x*n, so one lookup per byte serves every letter; each
        # state has one successor per letter, so the entries are disjoint
        # and the sum carries nothing. The tables are built on the first
        # call, not with the inverse, and stored with the constants every
        # call reads, so later calls only read them.
        consts = self._pre_tables
        if consts is None:
            n = self.n
            packed = [0] * n
            for x, masks in enumerate(self.build_inverse()):
                packed = [p | m << x * n for p, m in zip(packed, masks)]
            tables = _byte_tables(packed)
            consts = self._pre_tables = (
                tables, len(tables), self.full_bits, tuple(range(0, self.k * n, n)))
        tables, nbytes, full, shifts = consts
        pre = sum(map(getitem, tables, bits.to_bytes(nbytes, "little")))
        return [pre >> s & full for s in shifts]

    def _check_bits(self, bits: int) -> None:
        if bits < 0 or bits >> self.n:
            raise ValueError(f"state mask {bits:#x} out of range for n={self.n}")

    def _check_letter(self, a: int) -> None:
        if not 0 <= a < self.k:
            raise ValueError(f"letter {a} out of range [0, {self.k})")

    def image(self, bits: int, a: int) -> int:
        """{ delta(q, a) : q in bits }"""
        self._check_bits(bits)
        self._check_letter(a)
        return self.image_bits(bits, a)

    def preimage(self, bits: int, a: int) -> int:
        """{ q : delta(q, a) in bits }"""
        self._check_bits(bits)
        self._check_letter(a)
        inv = self.build_inverse()[a]
        return reduce(or_, [inv[q] for q in _bit_members(bits)], 0)

    def is_synchronizing_word(self, word: Sequence[int]) -> bool:
        """True iff applying ``word`` to the full state set yields a singleton.
        Every distinct letter is checked first, once, in the order the word
        first uses it, so the first letter outside ``[0, k)`` raises
        ValueError even after the states have merged."""
        word = tuple(word)  # _apply_word keys runs by slices of it
        for a in dict.fromkeys(word):
            self._check_letter(a)
        # Spans of runs, each span's states deduplicated, so that the state
        # list shrinks with the set it stands for.
        span = _BLOCK * _BLOCK
        states: Iterable[int] = range(self.n)
        blocks: dict[bytes | tuple[int, ...], list[int]] = {}
        for i in range(0, len(word), span):
            states = set(_apply_word(self._cols, word[i : i + span], states, blocks))
            if len(states) == 1:
                return True  # one state stays one whatever follows
        return len(states) == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Automaton) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Automaton(n={self.n}, k={self.k})"


def cerny(n: int) -> Automaton:
    """The n-state Cerny automaton: letter 0 is the cyclic shift q -> q+1 mod n,
    letter 1 maps 0 -> 1 and fixes every other state. Shortest reset length
    is (n-1)^2."""
    if n < 2:
        raise ValueError("cerny automaton needs n >= 2")
    if n > sys.maxsize:
        raise ValueError(f"n={n} is too large: n must be at most {sys.maxsize}")
    rows = [((q + 1) % n, 1 if q == 0 else q) for q in range(n)]
    return Automaton(rows)


def _check_random_size(n: int, k: int) -> None:
    """Raise ValueError unless `random_automaton` can draw an (n, k) table."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n * k > sys.maxsize:
        raise ValueError(f"n={n} is too large: n*k must be at most {sys.maxsize}")


def random_automaton(n: int, k: int, seed: int) -> Automaton:
    """Uniformly random labeled automaton: row by row (state, then letter),
    each entry is what ``random.Random(seed).randrange(n)`` would draw next,
    so identical (n, k, seed) give identical tables.

    ``randrange(n)`` draws ``getrandbits(n.bit_length())`` until the value is
    below n, so its values are those of the stream of such draws that are
    below n; the stream is filtered in C rather than called per entry."""
    _check_random_size(n, k)
    draw = random.Random(seed).getrandbits
    below_n = filter(n.__gt__, map(draw, repeat(n.bit_length())))
    return Automaton(zip(*[islice(below_n, n * k)] * k))


def _closure(nbrs: Sequence[int], root: int, seen: int = 0) -> int:
    """``seen`` plus the states reached from ``root`` along ``nbrs`` (the
    mask of each state's neighbours) without entering ``seen``."""
    todo = 1 << root
    seen |= todo
    while todo:
        new = 0
        for q in _bit_members(todo):
            new |= nbrs[q]
        todo = new & ~seen
        seen |= todo
    return seen


def _sink_component(a: Automaton) -> list[int]:
    """The states every state reaches (all letters), or [] if there are
    none. They form the one sink SCC when it is unique. Three passes of mask
    closures, each visiting a state at most once, find them: the sweep
    below, a check that its last root is reached from all, and that root's
    forward closure."""
    full = a.full_bits
    pred = [reduce(or_, masks) for masks in zip(*a.build_inverse())]
    # Sweep backward closures over the states not yet seen; the seen set
    # stays closed under predecessors. If some state is reached from all,
    # the root of the sweep that first sees it reaches every state through
    # it, so that sweep sees the rest: the last root is reached from all.
    seen = 0
    while seen != full:
        free = full & ~seen
        root = (free & -free).bit_length() - 1
        seen = _closure(pred, root, seen)
    if _closure(pred, root) != full:
        return []
    succ = [reduce(or_, [1 << p for p in row]) for row in a.rows]
    return _bit_members(_closure(succ, root))


START_MODES = ("all", "sink", "high-indegree")


def start_set(a: Automaton, mode: str = "all") -> list[int]:
    """States, in increasing order, whose singletons seed the inverse search.

    ``sink`` keeps the states every state reaches, which form the sink SCC
    when it is unique; ``high-indegree`` keeps states with in-degree >= 2 on
    some letter. A restricted mode that comes up empty falls back to all
    singletons.
    """
    if mode not in START_MODES:
        raise ValueError(f"unknown start mode {mode!r}")
    states: list[int] = []
    if mode == "sink":
        states = _sink_component(a)
    elif mode == "high-indegree":
        inv = a.build_inverse()
        states = [
            p for p in range(a.n) if any(masks[p].bit_count() >= 2 for masks in inv)
        ]
    return states or list(range(a.n))


def _relabel(a: Automaton, new: Sequence[int]) -> Automaton:
    """``a`` with each state q renamed ``new[q]``; letters keep their names."""
    rows: list[list[int]] = [[]] * a.n
    rename = new.__getitem__
    for q, row in enumerate(a.rows):
        rows[new[q]] = list(map(rename, row))
    return Automaton(rows)


def _indegree_order(a: Automaton) -> list[int]:
    """pi with pi[old] = new, numbering states by total in-degree (summed
    over letters), highest first, ties in the old order."""
    total = [0] * a.n
    for row in a.rows:
        for p in row:
            total[p] += 1
    pi = [0] * a.n
    for new, old in enumerate(sorted(range(a.n), key=lambda q: -total[q])):
        pi[old] = new
    return pi


def indegree_permutation(a: Automaton) -> tuple[Automaton, tuple[int, ...]]:
    """Relabel states so total in-degree (summed over letters) is non-increasing
    in state index; ties keep original order. Returns the relabeled automaton
    and the map pi with pi[old] = new. Letters are untouched, so any reset word
    of the relabeled automaton is a reset word of the original."""
    pi = _indegree_order(a)
    return _relabel(a, pi), tuple(pi)


class AutomatonFormatError(ValueError):
    """Malformed automaton text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _decimal(field: str, what: str, line: int) -> int:
    # int() also reads "1_0", "+7", "-0" and non-ASCII digits such as "３",
    # and isdigit() alone also accepts digits int() rejects, such as "²"
    if field.isascii() and field.isdigit():
        try:
            return int(field)
        except ValueError:  # past the interpreter's limit on int digits
            raise AutomatonFormatError(f"{what} has too many digits", line) from None
    raise AutomatonFormatError(f"{what} {field!r} is not ASCII decimal digits", line)


def _text_lines(text: str) -> list[str]:
    """The lines of ``text`` as Python's text mode reads a file: split at
    ``\n``, ``\r\n`` and a lone ``\r``, and nowhere else. Other breaks that
    ``str.splitlines`` knows, such as ``\x0c``, ``\x1c`` or ``\u2028``,
    stay inside their line, where ``str.split`` reads them as whitespace.
    A final line break is followed by one empty line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_automaton(text: str) -> Automaton:
    """Parse the interchange text format: first line "n k", then n lines of k
    whitespace-separated successor states (0-based). Every number is written
    in ASCII decimal digits alone, with no sign, underscore or other digit.
    Lines end at ``\n``, ``\r\n`` or ``\r`` (`_text_lines`)."""
    lines = _text_lines(text)
    if not lines or not lines[0].split():
        raise AutomatonFormatError("expected header 'n k'", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise AutomatonFormatError(
            f"expected header 'n k', got {len(header)} fields", 1
        )
    n, k = (_decimal(field, "header field", 1) for field in header)
    if n < 1 or k < 1:
        raise AutomatonFormatError(f"need n >= 1 and k >= 1, got n={n} k={k}", 1)

    rows = []
    for q in range(n):
        lineno = q + 2
        if q + 1 >= len(lines) or not lines[q + 1].split():
            raise AutomatonFormatError(f"expected {n} transition rows", lineno)
        fields = lines[q + 1].split()
        if len(fields) != k:
            raise AutomatonFormatError(
                f"expected {k} entries in row {q}, got {len(fields)}", lineno
            )
        row = []
        for field in fields:
            p = _decimal(field, "entry", lineno)
            if not 0 <= p < n:
                raise AutomatonFormatError(
                    f"state {p} out of range [0, {n})", lineno
                )
            row.append(p)
        rows.append(row)

    for extra, line in enumerate(lines[n + 1 :], n + 2):
        if line.split():
            raise AutomatonFormatError("unexpected extra row", extra)
    return Automaton(rows)


def serialize_automaton(a: Automaton) -> str:
    out = [f"{a.n} {a.k}"]
    out.extend(" ".join(map(str, row)) for row in a.rows)
    return "\n".join(out) + "\n"
