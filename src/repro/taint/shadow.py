"""Shadow state: two-representation shadow memory and register banks.

The paper keeps "a shadow memory and a shadow register bank" as hash
maps (§V-A).  Ours are:

* :class:`ShadowMemory` -- ``physical address -> provenance list``,
  organised as sparse **4 KiB shadow pages** with **two page
  representations** (the multidift tag-page model):

  - *dict pages* (``{paddr: prov}``) for mixed-provenance pages, the
    original hash-map form and the semantic baseline;
  - *array pages* (:class:`ShadowArrayPage`) for pages whose bytes
    draw from a small set of interned provenance lists: a flat
    ``bytearray`` of 3-byte **provenance codes** (indices into a
    per-shadow code table, code 0 = clean), so range taint, kernel
    copies and NIC DMA become slice copies instead of per-byte dict
    traffic.

  Pages promote to the array form once they are dense enough and hold
  few enough distinct lists, and demote back to dicts when provenance
  diversity or sparsity makes the flat form a bad fit; both directions
  preserve exact per-byte provenance.  Keying on *physical* addresses
  is what makes the analysis whole-system: a byte injected across
  address spaces keeps its shadow entry because it keeps its physical
  location.  The page table doubles as the **dirty-page index** --
  only pages holding at least one tainted byte exist in it.

  Each dirty page also carries a lazily-maintained **summary word**
  (the flag cache): the OR of its bytes' tag-class bits
  (:data:`SUMMARY_NETFLOW` / :data:`SUMMARY_PROCESS` /
  :data:`SUMMARY_FILE` / :data:`SUMMARY_EXPORT`), so the detector's
  confluence pre-check is a single mask test, plus per-page epoch
  counters that let the block translator memoise each instruction's
  byte-precise fetch verdict, and each pure block's replay record,
  across dispatches.

* :class:`ShadowRegisters` -- one provenance list per architectural
  register, *per thread*, with a ``tainted`` count for the tracker's
  O(1) bank-clean gate.

Range operations take ``(start, length)`` pairs; scattered accesses
use the ``*_bytes`` variants over per-byte ``paddrs`` tuples.  Bulk
ops (:meth:`ShadowMemory.append_range`, :meth:`ShadowMemory.copy_range`)
are **interner-counter exact**: they perform (or compensate for) the
same memoised algebra calls the per-byte loops would, so differential
runs across representations agree down to interner hit/miss counters.
``taint/reference.py`` keeps the byte-at-a-time semantics as the
oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.isa.registers import NUM_REGS, Reg
from repro.taint.provenance import EMPTY, append_tag, prov_union
from repro.taint.tags import Tag

Prov = Tuple[Tag, ...]

#: Shadow pages are 4 KiB -- independent of the guest's 256-byte MMU
#: pages.  Larger shadow pages mean fewer probes on the clean path; the
#: dirty-byte structure inside a page stays sparse either way.
SHADOW_PAGE_SHIFT = 12
SHADOW_PAGE_SIZE = 1 << SHADOW_PAGE_SHIFT

#: Summary-word (flag cache) bits: bit ``1 << (TagType - 1)`` set when
#: any byte of the page carries a tag of that class.
SUMMARY_NETFLOW = 1  # TagType.NETFLOW
SUMMARY_PROCESS = 2  # TagType.PROCESS
SUMMARY_FILE = 4  # TagType.FILE (code/image provenance)
SUMMARY_EXPORT = 8  # TagType.EXPORT_TABLE

_ZERO3 = b"\x00\x00\x00"

#: shadow_mode -> (promote_bytes, demote_bytes, max_array_codes).
#: ``promote_bytes is None`` disables the array representation
#: entirely ("dict" is the pre-flag-cache baseline); "array" promotes
#: a page on its first tainted byte; "mixed" uses deliberately tight
#: thresholds so randomized runs churn through promote/demote
#: transitions (the representation-differential matrix exercises it).
_MODES: Dict[str, Tuple[Optional[int], int, int]] = {
    "auto": (128, 24, 16),
    "dict": (None, 0, 0),
    "array": (1, 0, 65536),
    "mixed": (8, 4, 2),
}

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


class ShadowArrayPage:
    """Flat 4 KiB tag page: one 3-byte provenance code per byte.

    ``codes`` is a conservative superset of the non-zero codes present
    (entries are added eagerly on writes and only recomputed exactly
    when the superset outgrows the mode's ``max_array_codes``);
    ``count`` is the exact number of non-clean bytes.
    """

    __slots__ = ("tags", "count", "codes")

    def __init__(self) -> None:
        self.tags = bytearray(3 * SHADOW_PAGE_SIZE)
        self.count = 0
        self.codes: Set[int] = set()


def _nonzero_entries(tags: bytearray, a3: int, b3: int) -> int:
    """Number of non-clean 3-byte entries in ``tags[a3:b3]``."""
    zeros = tags.count(0, a3, b3)
    if zeros == b3 - a3:
        return 0
    if zeros == 0:
        return (b3 - a3) // 3
    count = 0
    for off in range(a3, b3, 3):
        if tags[off] or tags[off + 1] or tags[off + 2]:
            count += 1
    return count


class ShadowMemory:
    """Sparse byte-granular shadow over physical memory, in 4 KiB pages.

    Invariants: no page is ever empty (``page absent`` == "these 4 KiB
    carry no taint", the all-clean fast exit); no dict entry and no
    array code maps to an empty provenance list; when a page's summary
    word is cached it equals the OR of its bytes' tag-class masks.
    """

    __slots__ = (
        "_pages",
        "_count",
        "_union",
        "_append",
        "_seed",
        "_intern",
        "_interner",
        "mode",
        "_promote_bytes",
        "_demote_bytes",
        "_max_codes",
        "_code_of",
        "_prov_of",
        "_enc",
        "_class_of",
        "_summaries",
        "_epochs",
        "_promote_retry",
        "_code_overflow",
        "promotions",
        "demotions",
        "summary_hits",
        "summary_misses",
    )

    def __init__(self, interner=None, mode: str = "auto") -> None:
        if mode not in _MODES:
            raise ValueError(
                f"unknown shadow mode {mode!r} (choose from {sorted(_MODES)})"
            )
        #: shadow page number -> dict page or ShadowArrayPage (absent = clean).
        self._pages: Dict[int, object] = {}
        self._count = 0
        self._interner = interner
        if interner is not None:
            self._union = interner.union
            self._append = interner.append
            self._seed = interner.seed
            self._intern = interner.intern
        else:
            self._union = prov_union
            self._append = append_tag
            self._seed = lambda tag: (tag,)
            self._intern = lambda prov: prov
        self.mode = mode
        self._promote_bytes, self._demote_bytes, self._max_codes = _MODES[mode]
        #: provenance code table: canonical list <-> 3-byte code, 0 = clean.
        self._code_of: Dict[Prov, int] = {EMPTY: 0}
        self._prov_of: List[Prov] = [EMPTY]
        self._enc: List[bytes] = [_ZERO3]
        self._class_of: List[int] = [0]
        #: flag cache: page number -> summary word (absent = not cached).
        self._summaries: Dict[int, int] = {}
        #: page number -> mutation epoch (absent = 0): bumped on every
        #: content change, page deletion included, never on representation
        #: changes -- so an unchanged epoch certifies any cached verdict
        #: about the page's bytes (the block translator's fetch memos and
        #: replay records).
        self._epochs: Dict[int, int] = {}
        #: promotion back-off: page number -> retry once len(page) >= this.
        self._promote_retry: Dict[int, int] = {}
        self._code_overflow = False
        self.promotions = 0
        self.demotions = 0
        self.summary_hits = 0
        self.summary_misses = 0

    # ------------------------------------------------------------------
    # code table
    # ------------------------------------------------------------------

    def _encode(self, prov: Prov) -> int:
        """Code for *prov*, assigning one if new; -1 on table overflow."""
        code = self._code_of.get(prov)
        if code is None:
            if len(self._prov_of) > 0xFFFFFF:
                self._code_overflow = True
                return -1
            prov = self._intern(prov)
            code = len(self._prov_of)
            self._code_of[prov] = code
            self._prov_of.append(prov)
            self._enc.append(bytes((code & 0xFF, (code >> 8) & 0xFF, code >> 16)))
            self._class_of.append(prov_class_mask(prov))
        return code

    # ------------------------------------------------------------------
    # flag cache / epochs
    # ------------------------------------------------------------------

    def _bump(self, number: int) -> None:
        epochs = self._epochs
        epochs[number] = epochs.get(number, 0) + 1

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
        summary = 0
        if type(page) is dict:
            for prov in page.values():
                summary |= prov_class_mask(prov)
        else:
            tags = page.tags
            class_of = self._class_of
            codes: Set[int] = set()
            for chunk in range(0, 3 * SHADOW_PAGE_SIZE, 384):
                if tags.count(0, chunk, chunk + 384) == 384:
                    continue
                for off in range(chunk, chunk + 384, 3):
                    code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                    if code:
                        codes.add(code)
            page.codes = codes  # exact refresh, piggybacked on the scan
            for code in codes:
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
        if type(page) is dict:
            return page.get(paddr, EMPTY)
        off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
        tags = page.tags
        return self._prov_of[tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16]

    def set(self, paddr: int, prov: Prov) -> None:
        pages = self._pages
        number = paddr >> SHADOW_PAGE_SHIFT
        page = pages.get(number)
        if page is None:
            if not prov:
                return
            page = pages[number] = {paddr: prov}
            self._count += 1
            self._summaries[number] = prov_class_mask(prov)
            self._bump(number)
            return
        if type(page) is dict:
            if prov:
                old = page.get(paddr)
                if old is None:
                    self._count += 1
                    self._sum_or(number, prov_class_mask(prov))
                elif old is not prov and old != prov:
                    self._sum_drop(number)
                page[paddr] = prov
                self._bump(number)
                pb = self._promote_bytes
                if pb is not None and len(page) >= pb:
                    self._maybe_promote(number, page)
            elif page.pop(paddr, None) is not None:
                self._count -= 1
                self._bump(number)
                if not page:
                    del pages[number]
                    self._sum_drop(number)
                else:
                    self._sum_drop(number)
            return
        # array page
        off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
        tags = page.tags
        old_dirty = tags[off] or tags[off + 1] or tags[off + 2]
        if prov:
            code = self._encode(prov)
            if code < 0:
                self._demote(number, page)
                self.set(paddr, prov)
                return
            tags[off : off + 3] = self._enc[code]
            if old_dirty:
                self._sum_drop(number)
            else:
                page.count += 1
                self._count += 1
                self._sum_or(number, self._class_of[code])
            page.codes.add(code)
            self._bump(number)
            if len(page.codes) > self._max_codes:
                self._check_codes(number, page)
        elif old_dirty:
            tags[off : off + 3] = _ZERO3
            page.count -= 1
            self._count -= 1
            self._sum_drop(number)
            self._bump(number)
            if page.count == 0:
                del pages[number]
            elif page.count < self._demote_bytes:
                self._demote(number, page)

    # ------------------------------------------------------------------
    # contiguous (start, length) ranges
    # ------------------------------------------------------------------

    def _chunks(self, start: int, length: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(page_number, pos, page_end)`` per touched shadow page."""
        pos, end = start, start + length
        while pos < end:
            number = pos >> SHADOW_PAGE_SHIFT
            page_end = min(end, (number + 1) << SHADOW_PAGE_SHIFT)
            yield number, pos, page_end
            pos = page_end

    def get_range(self, start: int, length: int) -> Prov:
        """Union of the provenance of ``length`` bytes from ``start``.

        Both representations union per non-clean entry in ascending
        address order -- the identical memoised-call sequence, so the
        interner counters cannot drift across page representations.
        """
        out: Prov = EMPTY
        pages = self._pages
        union = self._union
        for number, pos, page_end in self._chunks(start, length):
            page = pages.get(number)
            if page is None:
                continue
            if type(page) is dict:
                for paddr in range(pos, page_end):
                    prov = page.get(paddr)
                    if prov:
                        out = union(out, prov)
            else:
                tags = page.tags
                prov_of = self._prov_of
                base = number << SHADOW_PAGE_SHIFT
                a3, b3 = (pos - base) * 3, (page_end - base) * 3
                if tags.count(0, a3, b3) == b3 - a3:
                    continue
                for off in range(a3, b3, 3):
                    code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                    if code:
                        out = union(out, prov_of[code])
        return out

    def set_range(self, start: int, length: int, prov: Prov) -> None:
        if not prov:
            self.clear_range(start, length)
            return
        pages = self._pages
        pb = self._promote_bytes
        for number, pos, page_end in self._chunks(start, length):
            run = page_end - pos
            page = pages.get(number)
            if page is None:
                if pb is not None and run >= pb:
                    page = pages[number] = ShadowArrayPage()
                else:
                    page = pages[number] = {}
            if type(page) is dict:
                before = len(page)
                had = bool(before)
                for paddr in range(pos, page_end):
                    page[paddr] = prov
                self._count += len(page) - before
                if had and len(page) != before + run:
                    self._sum_drop(number)  # overwrote existing entries
                else:
                    if had:
                        self._sum_or(number, prov_class_mask(prov))
                    else:
                        self._summaries[number] = prov_class_mask(prov)
                self._bump(number)
                if pb is not None and len(page) >= pb:
                    self._maybe_promote(number, page)
            else:
                code = self._encode(prov)
                if code < 0:
                    self._demote(number, page)
                    self.set_range(pos, run, prov)
                    continue
                tags = page.tags
                base = number << SHADOW_PAGE_SHIFT
                a3, b3 = (pos - base) * 3, (page_end - base) * 3
                removed = _nonzero_entries(tags, a3, b3)
                tags[a3:b3] = self._enc[code] * run
                page.count += run - removed
                self._count += run - removed
                page.codes.add(code)
                if removed:
                    self._sum_drop(number)
                else:
                    self._sum_or(number, self._class_of[code])
                self._bump(number)
                if len(page.codes) > self._max_codes:
                    self._check_codes(number, page)

    def clear_range(self, start: int, length: int) -> None:
        pages = self._pages
        for number, pos, page_end in self._chunks(start, length):
            page = pages.get(number)
            if page is None:  # absent page: skip the whole 4 KiB in one probe
                continue
            if type(page) is dict:
                pop = page.pop
                removed = 0
                for paddr in range(pos, page_end):
                    if pop(paddr, None) is not None:
                        removed += 1
                if removed:
                    self._count -= removed
                    self._sum_drop(number)
                    self._bump(number)
                    if not page:
                        del pages[number]
            else:
                tags = page.tags
                base = number << SHADOW_PAGE_SHIFT
                a3, b3 = (pos - base) * 3, (page_end - base) * 3
                removed = _nonzero_entries(tags, a3, b3)
                if removed:
                    tags[a3:b3] = bytes(b3 - a3)
                    page.count -= removed
                    self._count -= removed
                    self._sum_drop(number)
                    self._bump(number)
                    if page.count == 0:
                        del pages[number]
                    elif page.count < self._demote_bytes:
                        self._demote(number, page)

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
        append = self._append
        interner = self._interner
        pb = self._promote_bytes
        seed_code = -1
        for number, pos, page_end in self._chunks(start, length):
            run = page_end - pos
            page = pages.get(number)
            if page is None:
                # all-clean run: every byte takes the seed path (uncounted).
                self.set_range(pos, run, self._seed(tag))
                continue
            if type(page) is dict:
                for paddr in range(pos, page_end):
                    self.set(paddr, append(self.get(paddr), tag))
                continue
            tags = page.tags
            base = number << SHADOW_PAGE_SHIFT
            a3, b3 = (pos - base) * 3, (page_end - base) * 3
            if tags.count(0, a3, b3) == b3 - a3:
                self.set_range(pos, run, self._seed(tag))
                continue
            seg = tags[a3:b3]
            if seg[3:] == seg[:-3]:
                # uniform non-clean run: one real append, rest are hits.
                code = seg[0] | seg[1] << 8 | seg[2] << 16
                new_prov = append(self._prov_of[code], tag)
                new_code = self._encode(new_prov)
                if new_code < 0:
                    self._demote(number, page)
                    if interner is not None:
                        interner.hits += run - 1
                    dpage = pages[number]
                    for paddr in range(pos, page_end):
                        dpage[paddr] = new_prov
                    self._sum_drop(number)
                    self._bump(number)
                    continue
                if interner is not None:
                    interner.hits += run - 1
                tags[a3:b3] = self._enc[new_code] * run
                page.codes.add(new_code)
                self._sum_or(number, self._class_of[new_code])
                self._bump(number)
                if len(page.codes) > self._max_codes:
                    self._check_codes(number, page)
                continue
            # mixed run: memoise per distinct source code; repeats are
            # the hits the per-byte memoised append would have scored.
            if seed_code < 0:
                seed_code = self._encode(self._seed(tag))
            memo: Dict[int, int] = {}
            enc = self._enc
            added = 0
            mask = 0
            overflow = False
            for off in range(a3, b3, 3):
                code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                if code == 0:
                    new_code = seed_code
                    added += 1
                else:
                    new_code = memo.get(code)
                    if new_code is None:
                        new_code = self._encode(append(self._prov_of[code], tag))
                        if new_code < 0:
                            overflow = True
                            break
                        memo[code] = new_code
                    elif interner is not None:
                        interner.hits += 1
                page.codes.add(new_code)
                mask |= self._class_of[new_code]
                tags[off : off + 3] = enc[new_code]
            if overflow:
                self._demote(number, page)
                for paddr in range(pos, page_end):
                    self.set(paddr, append(self.get(paddr), tag))
                continue
            page.count += added
            self._count += added
            self._sum_or(number, mask)
            self._bump(number)
            if len(page.codes) > self._max_codes:
                self._check_codes(number, page)

    def copy_range(self, dst: int, src: int, length: int, tag: Optional[Tag] = None) -> int:
        """``dst[i] <- src[i]`` tag copy (``append(tag)`` en route if given).

        Returns the number of per-byte appends the equivalent per-byte
        loop would report (its ``process_tag_appends`` contribution).
        Matches the per-byte zip-order semantics exactly: the rippling
        forward-overlap case (``src < dst < src+length``) falls back to
        the literal loop; every other case is memmove-equivalent.
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
            sn, dn = s >> SHADOW_PAGE_SHIFT, d >> SHADOW_PAGE_SHIFT
            chunk = min(
                length - pos,
                ((sn + 1) << SHADOW_PAGE_SHIFT) - s,
                ((dn + 1) << SHADOW_PAGE_SHIFT) - d,
            )
            spage = pages.get(sn)
            if spage is None:
                # clean source: per-byte writes EMPTY everywhere (uncounted).
                self.clear_range(d, chunk)
                pos += chunk
                continue
            dpage = pages.get(dn)
            if (
                type(spage) is dict
                or type(dpage) is dict
                or (dpage is None and (self._promote_bytes is None or chunk < self._promote_bytes))
            ):
                appends += self._copy_bytes(d, s, chunk, tag)
                pos += chunk
                continue
            appends += self._copy_array_chunk(dn, dpage, d, sn, spage, s, chunk, tag)
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

    def _copy_array_chunk(
        self,
        dn: int,
        dpage: Optional[ShadowArrayPage],
        d: int,
        sn: int,
        spage: ShadowArrayPage,
        s: int,
        chunk: int,
        tag: Optional[Tag],
    ) -> int:
        """Array-to-array slice copy of one chunk (both pages array/fresh)."""
        pages = self._pages
        sbase = sn << SHADOW_PAGE_SHIFT
        sa3 = (s - sbase) * 3
        sb3 = sa3 + chunk * 3
        stags = spage.tags
        seg = stags[sa3:sb3]  # snapshot: same-buffer backward copies stay safe
        src_entries = _nonzero_entries(seg, 0, len(seg))
        if src_entries == 0:
            self.clear_range(d, chunk)
            return 0
        appends = 0
        interner = self._interner
        seg_codes: Optional[Set[int]] = None  # None -> spage.codes superset
        if tag is not None:
            append = self._append
            enc = self._enc
            if seg[3:] == seg[:-3]:
                code = seg[0] | seg[1] << 8 | seg[2] << 16
                new_code = self._encode(append(self._prov_of[code], tag))
                if new_code < 0:
                    return self._copy_overflow(d, s, chunk, tag)
                if interner is not None:
                    interner.hits += chunk - 1
                seg = bytearray(enc[new_code] * chunk)
                appends = chunk
                seg_codes = {new_code}
            else:
                memo: Dict[int, int] = {}
                seg_codes = set()
                for off in range(0, len(seg), 3):
                    code = seg[off] | seg[off + 1] << 8 | seg[off + 2] << 16
                    if code == 0:
                        continue
                    appends += 1
                    new_code = memo.get(code)
                    if new_code is None:
                        new_code = self._encode(append(self._prov_of[code], tag))
                        if new_code < 0:
                            return self._copy_overflow(d, s, chunk, tag)
                        memo[code] = new_code
                    elif interner is not None:
                        interner.hits += 1
                    seg[off : off + 3] = enc[new_code]
                    seg_codes.add(new_code)
                # fall through with the rewritten segment
        if dpage is None:
            dpage = pages[dn] = ShadowArrayPage()
        dbase = dn << SHADOW_PAGE_SHIFT
        da3 = (d - dbase) * 3
        db3 = da3 + chunk * 3
        dtags = dpage.tags
        removed = _nonzero_entries(dtags, da3, db3)
        dtags[da3:db3] = seg
        dpage.count += src_entries - removed
        self._count += src_entries - removed
        # conservative superset: the copied codes (exact when rewritten
        # through the append memo, the whole source page's set otherwise).
        dpage.codes |= spage.codes if seg_codes is None else seg_codes
        self._sum_drop(dn)
        self._bump(dn)
        if len(dpage.codes) > self._max_codes:
            self._check_codes(dn, dpage)
        return appends

    def _copy_overflow(self, d: int, s: int, chunk: int, tag: Optional[Tag]) -> int:
        """Code-table overflow mid-chunk (>16M distinct lists): redo the
        chunk per byte.  The destination is untouched up to this point
        (only the local segment copy was rewritten), so the replay is
        semantically exact; the handful of duplicated memoised calls is
        the one place bulk interner accounting is approximate."""
        return self._copy_bytes(d, s, chunk, tag)

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
        page: object = None
        for paddr in paddrs:
            number = paddr >> SHADOW_PAGE_SHIFT
            if number != previous:
                page = pages.get(number)
                previous = number
            if page is None:
                continue
            if type(page) is dict:
                prov = page.get(paddr)
                if prov:
                    out = union(out, prov)
            else:
                tags = page.tags
                off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
                code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                if code:
                    out = union(out, prov_of[code])
        return out

    def set_bytes(self, paddrs: Iterable[int], prov: Prov) -> None:
        if prov:
            for paddr in paddrs:
                self.set(paddr, prov)
        else:
            self.clear_bytes(paddrs)

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
        of :meth:`pages_clean`): bytes on dirty pages are still clean
        if their own entries are -- array pages answer with three
        ``bytearray`` reads, dict pages with one membership probe."""
        pages = self._pages
        if not pages:
            return True
        previous = -1
        page: object = None
        for paddr in paddrs:
            number = paddr >> SHADOW_PAGE_SHIFT
            if number != previous:
                page = pages.get(number)
                previous = number
            if page is None:
                continue
            if type(page) is dict:
                if paddr in page:
                    return False
            else:
                tags = page.tags
                off = (paddr & (SHADOW_PAGE_SIZE - 1)) * 3
                if tags[off] or tags[off + 1] or tags[off + 2]:
                    return False
        return True

    # ------------------------------------------------------------------
    # promotion / demotion
    # ------------------------------------------------------------------

    def _maybe_promote(self, number: int, page: Dict[int, Prov]) -> None:
        if self._code_overflow or len(page) < self._promote_retry.get(number, 0):
            return
        if not self._build_array(number, page):
            self._promote_retry[number] = len(page) * 2

    def _build_array(self, number: int, page: Dict[int, Prov]) -> bool:
        distinct = set(page.values())
        if len(distinct) > self._max_codes:
            return False
        for prov in distinct:
            if self._encode(prov) < 0:
                return False
        apage = ShadowArrayPage()
        tags = apage.tags
        enc = self._enc
        code_of = self._code_of
        codes = apage.codes
        base = number << SHADOW_PAGE_SHIFT
        for paddr, prov in page.items():
            code = code_of[prov]
            off = (paddr - base) * 3
            tags[off : off + 3] = enc[code]
            codes.add(code)
        apage.count = len(page)
        self._pages[number] = apage
        self.promotions += 1
        self._promote_retry.pop(number, None)
        # content is identical: no epoch bump, summary cache stays valid.
        return True

    def _demote(self, number: int, page: ShadowArrayPage) -> None:
        tags = page.tags
        prov_of = self._prov_of
        base = number << SHADOW_PAGE_SHIFT
        out: Dict[int, Prov] = {}
        for chunk in range(0, 3 * SHADOW_PAGE_SIZE, 384):
            if tags.count(0, chunk, chunk + 384) == 384:
                continue
            for off in range(chunk, chunk + 384, 3):
                code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                if code:
                    out[base + off // 3] = prov_of[code]
        self._pages[number] = out
        self.demotions += 1
        # content is identical: no epoch bump, summary cache stays valid.

    def _check_codes(self, number: int, page: ShadowArrayPage) -> None:
        """Recompute the exact code set; demote if genuinely too diverse."""
        tags = page.tags
        codes: Set[int] = set()
        for chunk in range(0, 3 * SHADOW_PAGE_SIZE, 384):
            if tags.count(0, chunk, chunk + 384) == 384:
                continue
            for off in range(chunk, chunk + 384, 3):
                code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                if code:
                    codes.add(code)
        page.codes = codes
        if len(codes) > self._max_codes:
            self._demote(number, page)

    def promote_page(self, number: int) -> bool:
        """Force page *number* into the array form (tests/benchmarks).

        Returns True if the page is array-backed on return."""
        page = self._pages.get(number)
        if page is None:
            return False
        if type(page) is not dict:
            return True
        return self._build_array(number, page)

    def demote_page(self, number: int) -> bool:
        """Force page *number* into the dict form (tests/benchmarks).

        Returns True if the page is dict-backed on return."""
        page = self._pages.get(number)
        if page is None:
            return False
        if type(page) is dict:
            return True
        self._demote(number, page)
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

    @property
    def array_page_count(self) -> int:
        """Dirty pages currently in the flat array representation."""
        return sum(1 for page in self._pages.values() if type(page) is not dict)

    @property
    def dict_page_count(self) -> int:
        """Dirty pages currently in the dict-of-entries representation."""
        return sum(1 for page in self._pages.values() if type(page) is dict)

    def dirty_pages(self) -> List[int]:
        """Shadow page numbers holding at least one tainted byte."""
        return sorted(self._pages)

    def items(self) -> Iterator[Tuple[int, Prov]]:
        prov_of = self._prov_of
        for number, page in self._pages.items():
            if type(page) is dict:
                yield from page.items()
            else:
                tags = page.tags
                base = number << SHADOW_PAGE_SHIFT
                for chunk in range(0, 3 * SHADOW_PAGE_SIZE, 384):
                    if tags.count(0, chunk, chunk + 384) == 384:
                        continue
                    for off in range(chunk, chunk + 384, 3):
                        code = tags[off] | tags[off + 1] << 8 | tags[off + 2] << 16
                        if code:
                            yield base + off // 3, prov_of[code]

    def snapshot(self) -> Dict[int, Prov]:
        """Flat ``paddr -> provenance`` copy (differential comparisons)."""
        out: Dict[int, Prov] = {}
        for paddr, prov in self.items():
            out[paddr] = prov
        return out


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

    def any_tainted(self) -> bool:
        """True if any thread's bank holds taint (registers or flags)."""
        return any(b.tainted or b.flags for b in self._banks.values())

    def snapshot(self) -> Dict[int, Dict[object, Prov]]:
        """Non-empty banks only (differential comparisons)."""
        out = {}
        for tid, bank in self._banks.items():
            snap = bank.snapshot()
            if snap:
                out[tid] = snap
        return out
