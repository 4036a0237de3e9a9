"""Shadow state: page-organised shadow memory and register banks.

The paper keeps "a shadow memory and a shadow register bank" as hash
maps (§V-A).  Ours are:

* :class:`ShadowMemory` -- ``physical address -> provenance list``,
  organised as sparse **4 KiB shadow pages** (the multidift tag-page
  model).  Every dirty page is a :class:`ShadowPage`: a flat
  ``bytearray`` of 3-byte **provenance codes**, one per byte of the
  page, each an index into a per-shadow code table of interned
  provenance lists (code 0 = clean).  Range taint, kernel copies and
  NIC DMA are therefore slice copies, not per-byte traffic.  A page is
  allocated on its first tainted byte and dropped when its last one
  clears, so shadow memory stays bounded at 3 bytes per guest RAM
  byte.  The code table tells apart at most :data:`MAX_PROV_CODES`
  lists; one more raises the classified
  :class:`~repro.faults.errors.TaintBudgetExceeded`, which the machine
  records as a degraded run.

  Keying on *physical* addresses is what makes the analysis
  whole-system: a byte injected across address spaces keeps its shadow
  entry because it keeps its physical location.  The page table
  doubles as the **dirty-page index** -- only pages holding at least
  one tainted byte exist in it.

  Each dirty page also carries a lazily-maintained **summary word**
  (the flag cache): the OR of its bytes' tag-class bits
  (:data:`SUMMARY_NETFLOW` / :data:`SUMMARY_PROCESS` /
  :data:`SUMMARY_FILE` / :data:`SUMMARY_EXPORT`), so the detector's
  confluence pre-check is a single mask test.  A code names the same
  provenance list for the shadow's whole life (the code table only
  grows), so a slice of codes is a value key: the block translator
  memoises each instruction's fetch verdict, and each pure block's
  replay record, on the codes of their own fetch bytes.

* :class:`ShadowRegisters` -- one provenance list per architectural
  register, *per thread*, with a ``tainted`` count for the tracker's
  O(1) bank-clean gate.

Range operations take ``(start, length)`` pairs; scattered accesses
use the ``*_bytes`` variants over per-byte ``paddrs`` tuples.  Bulk
ops (:meth:`ShadowMemory.append_range`, :meth:`ShadowMemory.copy_range`)
are **interner-counter exact**: they perform (or compensate for) the
same memoised algebra calls the per-byte loops would, so a bulk op and
the same shadow driven one byte at a time agree down to interner
hit/miss counters.  ``taint/reference.py`` keeps the byte-at-a-time
semantics as the oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.faults.errors import TaintBudgetExceeded
from repro.isa.registers import NUM_REGS, Reg
from repro.taint.intern import ProvInterner
from repro.taint.provenance import EMPTY
from repro.taint.tags import Tag, TagType

Prov = Tuple[Tag, ...]

#: Shadow pages are 4 KiB -- independent of the guest's 256-byte MMU
#: pages.  Larger shadow pages mean fewer probes on the clean path.
SHADOW_PAGE_SHIFT = 12
SHADOW_PAGE_SIZE = 1 << SHADOW_PAGE_SHIFT

#: Summary-word (flag cache) bits: bit ``1 << (TagType - 1)`` set when
#: any byte of the page carries a tag of that class.
SUMMARY_NETFLOW = 1  # TagType.NETFLOW
SUMMARY_PROCESS = 2  # TagType.PROCESS
SUMMARY_FILE = 4  # TagType.FILE (code/image provenance)
SUMMARY_EXPORT = 8  # TagType.EXPORT_TABLE

#: Largest provenance code: codes are 3 bytes wide and code 0 means
#: clean, so one shadow tells apart at most this many distinct lists.
MAX_PROV_CODES = 0xFFFFFF

_ZERO3 = b"\x00\x00\x00"

#: value-keyed memo of provenance list -> summary class mask.  Shared
#: process-wide (masks depend only on tag types, never on interners).
_CLASS_MEMO: Dict[Prov, int] = {}


def prov_class_mask(prov: Prov) -> int:
    """OR of ``1 << (tag.type - 1)`` over *prov* (0 for clean)."""
    if not prov:
        return 0
    mask = _CLASS_MEMO.get(prov)
    if mask is None:
        mask = 0
        for tag in prov:
            mask |= 1 << (tag.type - 1)
        _CLASS_MEMO[prov] = mask
    return mask


#: value-keyed memo of provenance list -> number of distinct process
#: tags, beside :data:`_CLASS_MEMO` (the detector's R2 test).
_PROCESS_COUNT_MEMO: Dict[Prov, int] = {}


def prov_process_count(prov: Prov) -> int:
    """How many distinct process tags *prov* holds."""
    count = _PROCESS_COUNT_MEMO.get(prov)
    if count is None:
        count = len({tag for tag in prov if tag.type is TagType.PROCESS})
        _PROCESS_COUNT_MEMO[prov] = count
    return count


class ShadowPage:
    """Flat 4 KiB tag page: one 3-byte provenance code per byte.

    ``count`` is the exact number of non-clean bytes; a page whose
    count drops to 0 leaves the page table.
    """

    __slots__ = ("tags", "count")

    def __init__(self) -> None:
        self.tags = bytearray(3 * SHADOW_PAGE_SIZE)
        self.count = 0


def _nonzero_entries(tags: bytearray, a3: int, b3: int) -> int:
    """Number of non-clean 3-byte entries in ``tags[a3:b3]``.

    A mixed run ORs each entry's three bytes into one (as the bytes of
    three integers read from strided slices) and counts the zeros.
    """
    zeros = tags.count(0, a3, b3)
    if zeros == b3 - a3:
        return 0
    n = (b3 - a3) // 3
    if zeros == 0:
        return n
    low = int.from_bytes(tags[a3:b3:3], "little")
    mid = int.from_bytes(tags[a3 + 1 : b3 : 3], "little")
    high = int.from_bytes(tags[a3 + 2 : b3 : 3], "little")
    return n - (low | mid | high).to_bytes(n, "little").count(0)


def _page_codes(tags: bytearray) -> Iterator[Tuple[int, int]]:
    """``(offset, code)`` per non-clean entry of a page, skipping each
    clean 128-byte stretch with one ``count``."""
    for chunk in range(0, 3 * SHADOW_PAGE_SIZE, 384):
        if tags.count(0, chunk, chunk + 384) == 384:
            continue
        for off in range(chunk, chunk + 384, 3):
            code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
            if code:
                yield off, code


class ShadowMemory:
    """Sparse byte-granular shadow over physical memory, in 4 KiB pages.

    Invariants: no page is ever empty (``page absent`` == "these 4 KiB
    carry no taint", the all-clean fast exit); only code 0 means clean;
    when a page's summary word is cached it equals the OR of its bytes'
    tag-class masks.
    """

    __slots__ = (
        "_pages",
        "_count",
        "_interner",
        "_union",
        "_append",
        "_code_of",
        "_prov_of",
        "_enc",
        "_class_of",
        "_summaries",
        "summary_hits",
        "summary_misses",
    )

    def __init__(self, interner: ProvInterner) -> None:
        #: shadow page number -> ShadowPage (absent = clean).
        self._pages: Dict[int, ShadowPage] = {}
        self._count = 0
        self._interner = interner
        self._union = interner.union
        self._append = interner.append
        #: provenance code table: canonical list <-> 3-byte code, 0 = clean.
        self._code_of: Dict[Prov, int] = {EMPTY: 0}
        self._prov_of: List[Prov] = [EMPTY]
        self._enc: List[bytes] = [_ZERO3]
        self._class_of: List[int] = [0]
        #: flag cache: page number -> summary word (absent = not cached).
        self._summaries: Dict[int, int] = {}
        self.summary_hits = 0
        self.summary_misses = 0

    # ------------------------------------------------------------------
    # code table and page bookkeeping
    # ------------------------------------------------------------------

    def _encode(self, prov: Prov) -> int:
        """Code for *prov*, assigning the next one if it is new.

        Raises :class:`TaintBudgetExceeded` when the table is full.
        Every op encodes before it writes a page, so a trip leaves the
        shadow consistent.
        """
        code = self._code_of.get(prov)
        if code is None:
            code = len(self._prov_of)
            if code > MAX_PROV_CODES:
                raise TaintBudgetExceeded("provenance codes", code, MAX_PROV_CODES)
            prov = self._interner.intern(prov)
            self._code_of[prov] = code
            self._prov_of.append(prov)
            self._enc.append(bytes((code & 0xFF, (code >> 8) & 0xFF, code >> 16)))
            self._class_of.append(prov_class_mask(prov))
        return code

    def _page_for_write(self, number: int) -> ShadowPage:
        """Page *number*, allocated (with an exact, empty summary) if absent."""
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = ShadowPage()
            self._summaries[number] = 0
        return page

    def _cleared(self, number: int, page: ShadowPage, removed: int) -> None:
        """Account *removed* bytes of page *number* that just turned clean."""
        page.count -= removed
        self._count -= removed
        self._sum_drop(number)
        if not page.count:
            del self._pages[number]

    # ------------------------------------------------------------------
    # flag cache
    # ------------------------------------------------------------------

    def page_summary(self, number: int) -> int:
        """Summary word of page *number*: OR of its bytes' class masks.

        0 for absent (clean) pages.  Served from the flag cache when
        possible; recomputed exactly (and re-cached) otherwise.
        """
        page = self._pages.get(number)
        if page is None:
            return 0
        summary = self._summaries.get(number)
        if summary is not None:
            self.summary_hits += 1
            return summary
        self.summary_misses += 1
        class_of = self._class_of
        summary = 0
        for _, code in _page_codes(page.tags):
            summary |= class_of[code]
        self._summaries[number] = summary
        return summary

    def _sum_drop(self, number: int) -> None:
        self._summaries.pop(number, None)

    def _sum_or(self, number: int, mask: int) -> None:
        """OR *mask* into a cached summary (pure-add ops only)."""
        summaries = self._summaries
        if number in summaries:
            summaries[number] |= mask

    # ------------------------------------------------------------------
    # single-byte access
    # ------------------------------------------------------------------

    def get(self, paddr: int) -> Prov:
        page = self._pages.get(paddr >> SHADOW_PAGE_SHIFT)
        if page is None:
            return EMPTY
        off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
        tags = page.tags
        return self._prov_of[tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16]

    def set(self, paddr: int, prov: Prov) -> None:
        number = paddr >> SHADOW_PAGE_SHIFT
        off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
        if not prov:
            page = self._pages.get(number)
            if page is not None:
                tags = page.tags
                if tags[off] or tags[off + 1] or tags[off + 2]:
                    tags[off : off + 3] = _ZERO3
                    self._cleared(number, page, 1)
            return
        code = self._encode(prov)
        page = self._page_for_write(number)
        tags = page.tags
        old = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
        if old != code:
            tags[off : off + 3] = self._enc[code]
            if old:
                self._sum_drop(number)
            else:
                page.count += 1
                self._count += 1
                self._sum_or(number, self._class_of[code])

    # ------------------------------------------------------------------
    # contiguous (start, length) ranges
    # ------------------------------------------------------------------

    def _chunks(self, start: int, length: int) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(page_number, pos, a3, b3)`` per touched shadow page:
        the run's first address there and its slice ``tags[a3:b3]``."""
        pos, end = start, start + length
        while pos < end:
            number = pos >> SHADOW_PAGE_SHIFT
            page_end = min(end, (number + 1) << SHADOW_PAGE_SHIFT)
            a3 = (pos & (SHADOW_PAGE_SIZE - 1)) * 3
            yield number, pos, a3, a3 + (page_end - pos) * 3
            pos = page_end

    def set_range(self, start: int, length: int, prov: Prov) -> None:
        if not prov:
            self.clear_range(start, length)
            return
        if length <= 0:
            return
        code = self._encode(prov)
        entry = self._enc[code]
        mask = self._class_of[code]
        for number, _, a3, b3 in self._chunks(start, length):
            run = (b3 - a3) // 3
            page = self._page_for_write(number)
            tags = page.tags
            removed = _nonzero_entries(tags, a3, b3)
            tags[a3:b3] = entry * run
            page.count += run - removed
            self._count += run - removed
            if removed:
                self._sum_drop(number)
            else:
                self._sum_or(number, mask)

    def clear_range(self, start: int, length: int) -> None:
        pages = self._pages
        for number, _, a3, b3 in self._chunks(start, length):
            page = pages.get(number)
            if page is None:  # absent page: skip the whole 4 KiB in one probe
                continue
            removed = _nonzero_entries(page.tags, a3, b3)
            if removed:
                page.tags[a3:b3] = bytes(b3 - a3)
                self._cleared(number, page, removed)

    # ------------------------------------------------------------------
    # bulk taint ops (interner-counter exact vs the per-byte loops)
    # ------------------------------------------------------------------

    def append_range(self, start: int, length: int, tag: Tag) -> None:
        """``shadow[p] = append(shadow[p], tag)`` for each byte of the range.

        Equivalent to the tracker's per-byte seeding loop, including its
        interner accounting: clean bytes take the (uncounted) seed path;
        per distinct existing list one real memoised ``append`` runs and
        every repeat is compensated as a cache hit -- exactly the hits
        the per-byte loop would have scored.
        """
        pages = self._pages
        interner = self._interner
        append = self._append
        prov_of = self._prov_of
        seed_code = -1
        for number, pos, a3, b3 in self._chunks(start, length):
            run = (b3 - a3) // 3
            page = pages.get(number)
            if page is None or page.tags.count(0, a3, b3) == b3 - a3:
                # all-clean run: every byte takes the seed path (uncounted).
                self.set_range(pos, run, interner.seed(tag))
                continue
            tags = page.tags
            seg = tags[a3:b3]
            if seg[3:] == seg[:-3]:
                # uniform non-clean run: one real append, rest are hits.
                code = self._encode(append(prov_of[seg[0] | seg[1] << 8 | seg[2] << 16], tag))
                interner.hits += run - 1
                tags[a3:b3] = self._enc[code] * run
                self._sum_or(number, self._class_of[code])
                continue
            # mixed run: memoise per distinct source code; repeats are
            # the hits the per-byte memoised append would have scored.
            if seed_code < 0:
                seed_code = self._encode(interner.seed(tag))
            memo: Dict[int, int] = {}
            enc = self._enc
            class_of = self._class_of
            added = 0
            mask = 0
            for off in range(0, b3 - a3, 3):
                code = seg[off] | seg[off + 1] << 8 | seg[off + 2] << 16
                if code == 0:
                    new_code = seed_code
                    added += 1
                else:
                    new_code = memo.get(code)
                    if new_code is None:
                        new_code = memo[code] = self._encode(append(prov_of[code], tag))
                    else:
                        interner.hits += 1
                mask |= class_of[new_code]
                seg[off : off + 3] = enc[new_code]
            tags[a3:b3] = seg
            page.count += added
            self._count += added
            self._sum_or(number, mask)

    def copy_range(self, dst: int, src: int, length: int, tag: Optional[Tag] = None) -> int:
        """``dst[i] <- src[i]`` tag copy (``append(tag)`` en route if given).

        Returns the number of per-byte appends the equivalent per-byte
        loop would report (its ``process_tag_appends`` contribution).
        Matches the per-byte zip-order semantics exactly: the rippling
        forward-overlap case (``src < dst < src+length``) runs the
        literal loop; every other case is memmove-equivalent, one slice
        copy per chunk that stays within one source and one destination
        page.
        """
        if length <= 0 or (dst == src and tag is None):
            return 0
        if src < dst < src + length:
            return self._copy_bytes(dst, src, length, tag)
        appends = 0
        pos = 0
        pages = self._pages
        while pos < length:
            s, d = src + pos, dst + pos
            chunk = min(
                length - pos,
                SHADOW_PAGE_SIZE - (s & (SHADOW_PAGE_SIZE - 1)),
                SHADOW_PAGE_SIZE - (d & (SHADOW_PAGE_SIZE - 1)),
            )
            spage = pages.get(s >> SHADOW_PAGE_SHIFT)
            if spage is None:
                # clean source: per-byte writes EMPTY everywhere (uncounted).
                self.clear_range(d, chunk)
            else:
                appends += self._copy_chunk(d, spage, s, chunk, tag)
            pos += chunk
        return appends

    def _copy_bytes(self, dst: int, src: int, length: int, tag: Optional[Tag]) -> int:
        """The literal per-byte copy loop (overlap- and counter-faithful)."""
        append = self._append
        appends = 0
        for i in range(length):
            prov = self.get(src + i)
            if prov and tag is not None:
                prov = append(prov, tag)
                appends += 1
            self.set(dst + i, prov)
        return appends

    def _copy_chunk(
        self, d: int, spage: ShadowPage, s: int, chunk: int, tag: Optional[Tag]
    ) -> int:
        """Slice copy of one chunk from source page *spage* to ``d``."""
        sa3 = (s & (SHADOW_PAGE_SIZE - 1)) * 3
        seg = spage.tags[sa3 : sa3 + chunk * 3]  # snapshot: same-buffer copies stay safe
        entries = _nonzero_entries(seg, 0, len(seg))
        if entries == 0:
            self.clear_range(d, chunk)
            return 0
        appends = 0
        if tag is not None:
            # Rewrite the snapshot through the memoised append before the
            # destination is touched, so a code-table trip changes nothing.
            interner = self._interner
            append = self._append
            prov_of = self._prov_of
            enc = self._enc
            appends = entries
            if seg[3:] == seg[:-3]:
                code = self._encode(append(prov_of[seg[0] | seg[1] << 8 | seg[2] << 16], tag))
                interner.hits += chunk - 1
                seg = enc[code] * chunk
            else:
                memo: Dict[int, int] = {}
                for off in range(0, len(seg), 3):
                    code = seg[off] | seg[off + 1] << 8 | seg[off + 2] << 16
                    if code == 0:
                        continue
                    new_code = memo.get(code)
                    if new_code is None:
                        new_code = memo[code] = self._encode(append(prov_of[code], tag))
                    else:
                        interner.hits += 1
                    seg[off : off + 3] = enc[new_code]
        dn = d >> SHADOW_PAGE_SHIFT
        dpage = self._page_for_write(dn)
        da3 = (d & (SHADOW_PAGE_SIZE - 1)) * 3
        db3 = da3 + chunk * 3
        dtags = dpage.tags
        removed = _nonzero_entries(dtags, da3, db3)
        dtags[da3:db3] = seg
        dpage.count += entries - removed
        self._count += entries - removed
        self._sum_drop(dn)
        return appends

    # ------------------------------------------------------------------
    # scattered per-byte paddr tuples (CPU accesses can span guest pages)
    # ------------------------------------------------------------------

    def get_bytes(self, paddrs: Iterable[int]) -> Prov:
        """Union of the provenance of several bytes (word loads)."""
        pages = self._pages
        if not pages:
            return EMPTY
        out: Prov = EMPTY
        union = self._union
        prov_of = self._prov_of
        previous = -1
        page: Optional[ShadowPage] = None
        for paddr in paddrs:
            number = paddr >> SHADOW_PAGE_SHIFT
            if number != previous:
                page = pages.get(number)
                previous = number
            if page is None:
                continue
            tags = page.tags
            off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
            code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
            if code:
                out = union(out, prov_of[code])
        return out

    def set_bytes(self, paddrs: Iterable[int], prov: Prov) -> None:
        for paddr in paddrs:
            self.set(paddr, prov)

    def clear_bytes(self, paddrs: Iterable[int]) -> None:
        for paddr in paddrs:
            self.set(paddr, EMPTY)

    # ------------------------------------------------------------------
    # cleanliness probes
    # ------------------------------------------------------------------

    def pages_clean(self, paddrs: Sequence[int]) -> bool:
        """True if no byte of *paddrs* lands on a dirty shadow page.

        Conservative in the cheap direction: a hit on a dirty page whose
        *particular* bytes are clean reports False, sending the caller
        to the exact (slow) path.  Probes each **distinct** page once:
        an 8-byte operand costs one probe (two when it straddles), never
        one per byte, and scattered multi-page tuples are deduped.
        """
        pages = self._pages
        if not pages or not paddrs:
            return True
        first = paddrs[0] >> SHADOW_PAGE_SHIFT
        if first in pages:
            return False
        last = paddrs[-1] >> SHADOW_PAGE_SHIFT
        if last == first:
            return True
        if last in pages:
            return False
        if len(paddrs) > 2:
            # scattered frames: middle bytes may touch further pages.
            seen = {first, last}
            for paddr in paddrs[1:-1]:
                number = paddr >> SHADOW_PAGE_SHIFT
                if number not in seen:
                    if number in pages:
                        return False
                    seen.add(number)
        return True

    def bytes_clean(self, paddrs: Sequence[int]) -> bool:
        """Byte-precise cleanliness of *paddrs* (the flag-cache upgrade
        of :meth:`pages_clean`): bytes on dirty pages are still clean if
        their own codes are -- three ``bytearray`` reads per byte."""
        pages = self._pages
        if not pages:
            return True
        previous = -1
        page: Optional[ShadowPage] = None
        for paddr in paddrs:
            number = paddr >> SHADOW_PAGE_SHIFT
            if number != previous:
                page = pages.get(number)
                previous = number
            if page is None:
                continue
            tags = page.tags
            off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
            if tags[off] or tags[off + 1] or tags[off + 2]:
                return False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def tainted_bytes(self) -> int:
        """How many physical bytes currently carry provenance (E12)."""
        return self._count

    @property
    def dirty_page_count(self) -> int:
        """How many 4 KiB shadow pages hold at least one tainted byte.

        With :attr:`tainted_bytes` this gives shadow-page *occupancy*
        (tainted bytes per dirty page) -- the density figure that says
        whether taint is concentrated (cheap page probes) or smeared
        across many pages (the tag-pressure failure mode).
        """
        return len(self._pages)

    def dirty_pages(self) -> List[int]:
        """Shadow page numbers holding at least one tainted byte."""
        return sorted(self._pages)

    def items(self) -> Iterator[Tuple[int, Prov]]:
        prov_of = self._prov_of
        for number, page in self._pages.items():
            base = number << SHADOW_PAGE_SHIFT
            for off, code in _page_codes(page.tags):
                yield base + off // 3, prov_of[code]

    def snapshot(self) -> Dict[int, Prov]:
        """Flat ``paddr -> provenance`` copy (differential comparisons)."""
        return dict(self.items())


class ShadowRegisters:
    """Provenance lists for one thread's register file (plus flags)."""

    __slots__ = ("regs", "flags", "tainted")

    def __init__(self) -> None:
        self.regs: List[Prov] = [EMPTY] * NUM_REGS
        self.flags: Prov = EMPTY
        #: count of registers with non-empty provenance (flags excluded);
        #: lets the tracker's fast gate test bank cleanliness in O(1).
        self.tainted = 0

    def get(self, reg: Reg) -> Prov:
        return self.regs[reg]

    def set(self, reg: Reg, prov: Prov) -> None:
        old = self.regs[reg]
        if prov:
            if not old:
                self.tainted += 1
        elif old:
            self.tainted -= 1
        self.regs[reg] = prov

    def snapshot(self) -> Dict[object, Prov]:
        """Non-empty register provenance (differential comparisons)."""
        out: Dict[object, Prov] = {
            Reg(i): prov for i, prov in enumerate(self.regs) if prov
        }
        if self.flags:
            out["flags"] = self.flags
        return out


class ShadowBank:
    """Per-thread shadow register banks, switched with the scheduler."""

    def __init__(self) -> None:
        self._banks: Dict[int, ShadowRegisters] = {}

    def for_thread(self, tid: int) -> ShadowRegisters:
        bank = self._banks.get(tid)
        if bank is None:
            bank = ShadowRegisters()
            self._banks[tid] = bank
        return bank

    def drop_thread(self, tid: int) -> None:
        self._banks.pop(tid, None)

    def snapshot(self) -> Dict[int, Dict[object, Prov]]:
        """Non-empty banks only (differential comparisons)."""
        out = {}
        for tid, bank in self._banks.items():
            snap = bank.snapshot()
            if snap:
                out[tid] = snap
        return out
