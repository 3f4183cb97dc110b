//! The simulated physical memory: untrusted host memory plus the paged,
//! permission-checked EPC.
//!
//! A real enclave *can* write to untrusted memory — that is precisely the
//! leak channel policy P1 exists to close — so stores outside ELRANGE
//! succeed here but are counted and (up to a cap) recorded, letting tests
//! and benches observe exfiltration attempts. Inside ELRANGE, per-page
//! R/W/X permissions are enforced; guard pages have no permissions at all.

use crate::layout::{EnclaveLayout, Region, PAGE_SIZE};
use crate::Fault;

/// Per-page permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagePerm {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl PagePerm {
    /// No access (guard page).
    pub const NONE: PagePerm = PagePerm { r: false, w: false, x: false };
    /// Read-only.
    pub const R: PagePerm = PagePerm { r: true, w: false, x: false };
    /// Read-write.
    pub const RW: PagePerm = PagePerm { r: true, w: true, x: false };
    /// Read-execute.
    pub const RX: PagePerm = PagePerm { r: true, w: false, x: true };
    /// Read-write-execute (the target code window under SGXv1).
    pub const RWX: PagePerm = PagePerm { r: true, w: true, x: true };
}

/// Kind of access, for fault reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Instruction fetch.
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// An observed store from enclave code to untrusted memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakRecord {
    /// Destination address outside ELRANGE.
    pub addr: u64,
    /// Number of bytes written.
    pub len: u8,
}

const MAX_LEAK_LOG: usize = 1024;

/// Bytes per simulated page, as a `usize` for indexing.
const PAGE: usize = PAGE_SIZE as usize;

/// The contents of one allocated page.
type PageBytes = Box<[u8; PAGE]>;

/// A page-granular byte store. A page is allocated by the first write that
/// puts a non-zero byte in it, and a page never allocated reads as zeros.
/// The enclave reserves far more than its loader, verifier and target
/// program touch, so a memory holds only the pages that were written.
#[derive(Debug, Clone)]
struct Pages(Vec<Option<PageBytes>>);

impl Pages {
    /// `len` bytes (a multiple of [`PAGE_SIZE`]), no page allocated.
    fn new(len: u64) -> Self {
        Pages(vec![None; (len / PAGE_SIZE) as usize])
    }

    /// A store of `len` bytes holding exactly the `(page index, contents)`
    /// pairs in `stored`.
    fn from_stored(len: u64, stored: &[(usize, PageBytes)]) -> Self {
        let mut pages = Pages::new(len);
        for (i, bytes) in stored {
            pages.0[*i] = Some(bytes.clone());
        }
        pages
    }

    /// Length in bytes.
    fn len(&self) -> u64 {
        self.0.len() as u64 * PAGE_SIZE
    }

    /// Number of allocated pages.
    fn allocated(&self) -> usize {
        self.0.iter().filter(|p| p.is_some()).count()
    }

    /// `(page index, contents)` of every page holding a non-zero byte.
    fn nonzero(&self) -> Vec<(usize, PageBytes)> {
        // OR-reducing 64-byte blocks vectorizes; a byte-wise early-exit
        // scan does not.
        let nonzero =
            |page: &[u8; PAGE]| page.chunks(64).any(|b| b.iter().fold(0, |acc, &x| acc | x) != 0);
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().filter(|p| nonzero(p)).map(|p| (i, p.clone())))
            .collect()
    }

    /// The `len` (1..=8) bytes at `off`, which lie in one page, as a
    /// little-endian integer. The CPU's loads are 1 or 8 bytes wide;
    /// inlined with a constant `len`, the match folds to a single move.
    #[inline(always)]
    fn read_word(&self, off: usize, len: usize) -> u64 {
        let Some(page) = &self.0[off / PAGE] else { return 0 };
        let o = off % PAGE;
        match len {
            8 => u64::from_le_bytes(page[o..o + 8].try_into().expect("8 bytes")),
            1 => u64::from(page[o]),
            _ => {
                let mut word = [0u8; 8];
                word[..len].copy_from_slice(&page[o..o + len]);
                u64::from_le_bytes(word)
            }
        }
    }

    /// Writes the low `len` (1..=8) bytes of `value`, little-endian, at
    /// `off` when its page (the bytes lie in one) is already allocated;
    /// `false`, writing nothing, when it is not.
    #[inline(always)]
    fn write_allocated(&mut self, off: usize, len: usize, value: u64) -> bool {
        let Some(page) = &mut self.0[off / PAGE] else { return false };
        let o = off % PAGE;
        match len {
            8 => page[o..o + 8].copy_from_slice(&value.to_le_bytes()),
            1 => page[o] = value as u8,
            _ => page[o..o + len].copy_from_slice(&value.to_le_bytes()[..len]),
        }
        true
    }

    /// The `len` (1..=8) bytes at `off`, on any pages, as a little-endian
    /// integer.
    fn read_le(&self, off: usize, len: usize) -> u64 {
        let mut word = [0u8; 8];
        self.read(off, &mut word[..len]);
        u64::from_le_bytes(word)
    }

    /// Page `i` for a write of `bytes`, allocated first if need be, or
    /// `None` when it is unallocated and `bytes` are all zero: writing them
    /// would change nothing.
    fn page_for_write(&mut self, i: usize, bytes: &[u8]) -> Option<&mut [u8; PAGE]> {
        let slot = &mut self.0[i];
        if slot.is_none() {
            if bytes.iter().all(|&b| b == 0) {
                return None;
            }
            *slot = Some(vec![0; PAGE].into_boxed_slice().try_into().expect("one page"));
        }
        slot.as_deref_mut()
    }

    /// Copies the bytes at `off..off + buf.len()`, which may span pages,
    /// into `buf`.
    fn read(&self, mut off: usize, mut buf: &mut [u8]) {
        while !buf.is_empty() {
            let o = off % PAGE;
            let (dst, rest) = buf.split_at_mut((PAGE - o).min(buf.len()));
            match &self.0[off / PAGE] {
                Some(page) => dst.copy_from_slice(&page[o..o + dst.len()]),
                None => dst.fill(0),
            }
            off += dst.len();
            buf = rest;
        }
    }

    /// Copies `bytes` to `off..off + bytes.len()`, which may span pages.
    fn write(&mut self, mut off: usize, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let o = off % PAGE;
            let (src, rest) = bytes.split_at((PAGE - o).min(bytes.len()));
            if let Some(page) = self.page_for_write(off / PAGE, src) {
                page[o..o + src.len()].copy_from_slice(src);
            }
            off += src.len();
            bytes = rest;
        }
    }
}

/// Up to 16 code bytes at a fetch address, copied out for the decoder (see
/// [`Memory::fetch_window`]). Dereferences to the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchWindow {
    bytes: [u8; 16],
    len: u8,
}

impl std::ops::Deref for FetchWindow {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// Simulated memory: one untrusted region at address 0 and the enclave.
#[derive(Debug, Clone)]
pub struct Memory {
    layout: EnclaveLayout,
    untrusted: Pages,
    enclave: Pages,
    perms: Vec<PagePerm>,
    /// Monotonic code-write generation: bumped once per write or permission
    /// change that touches at least one executable page. The software icache
    /// compares its per-page fill stamp against [`Memory::page_code_gen`] to
    /// detect stale decodes — the coherence protocol a real icache runs in
    /// hardware (SMC snooping).
    code_gen: u64,
    /// Per-page stamp of the last code-write generation that touched it.
    page_code_gen: Vec<u64>,
    /// Count of enclave-initiated writes that landed outside ELRANGE.
    pub untrusted_write_count: u64,
    /// The first 1024 such writes (capped).
    pub leak_log: Vec<LeakRecord>,
}

impl Memory {
    /// Maps memory for `layout` and applies the region permissions. No page
    /// is allocated until something writes a non-zero byte to it.
    #[must_use]
    pub fn new(layout: EnclaveLayout) -> Self {
        let enclave_len = layout.elrange.len();
        let pages = (enclave_len / PAGE_SIZE) as usize;
        let mut mem = Memory {
            untrusted: Pages::new(layout.config.untrusted_size),
            enclave: Pages::new(enclave_len),
            perms: vec![PagePerm::NONE; pages],
            code_gen: 0,
            page_code_gen: vec![0; pages],
            untrusted_write_count: 0,
            leak_log: Vec::new(),
            layout,
        };
        let l = mem.layout.clone();
        mem.set_region_perm(l.consumer, PagePerm::RX);
        mem.set_region_perm(l.ssa, PagePerm::RW);
        mem.set_region_perm(l.control, PagePerm::RW);
        // Branch table is RW until the loader seals it.
        mem.set_region_perm(l.branch_table, PagePerm::RW);
        mem.set_region_perm(l.shadow_stack, PagePerm::RW);
        mem.set_region_perm(l.code, PagePerm::RWX);
        mem.set_region_perm(l.heap, PagePerm::RW);
        mem.set_region_perm(l.guard_lo, PagePerm::NONE);
        mem.set_region_perm(l.stack, PagePerm::RW);
        mem.set_region_perm(l.guard_hi, PagePerm::NONE);
        mem
    }

    /// The layout this memory was built for.
    #[must_use]
    pub fn layout(&self) -> &EnclaveLayout {
        &self.layout
    }

    /// Number of allocated pages, enclave and untrusted together: the
    /// pages some write has put a non-zero byte in.
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        self.enclave.allocated() + self.untrusted.allocated()
    }

    /// Sets the permissions of every page in `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not inside the enclave or not page-aligned.
    pub fn set_region_perm(&mut self, region: Region, perm: PagePerm) {
        assert!(
            region.start >= self.layout.elrange.start && region.end <= self.layout.elrange.end,
            "region outside enclave"
        );
        assert!(region.start.is_multiple_of(PAGE_SIZE) && region.end.is_multiple_of(PAGE_SIZE));
        let first = ((region.start - self.layout.elrange.start) / PAGE_SIZE) as usize;
        let last = ((region.end - self.layout.elrange.start) / PAGE_SIZE) as usize;
        for p in &mut self.perms[first..last] {
            *p = perm;
        }
        // A permission change can turn a page executable (exposing bytes the
        // icache never saw) or strip X (cached decodes must not outlive the
        // right to execute them) — stamp every page in the region either way.
        if first < last {
            self.code_gen += 1;
            for g in &mut self.page_code_gen[first..last] {
                *g = self.code_gen;
            }
        }
    }

    /// The global code-write generation (see [`Memory::page_code_gen`]).
    #[must_use]
    pub fn code_generation(&self) -> u64 {
        self.code_gen
    }

    /// The code-write generation stamp of enclave page `page` (an index
    /// relative to the start of ELRANGE), or `None` if out of range.
    #[must_use]
    pub fn page_code_gen(&self, page: usize) -> Option<u64> {
        self.page_code_gen.get(page).copied()
    }

    /// The enclave page index containing `addr`, or `None` outside ELRANGE.
    /// Trace formation keys its coherence stamps by this index.
    #[must_use]
    pub fn page_index(&self, addr: u64) -> Option<usize> {
        if self.layout.elrange.contains(addr) {
            Some(((addr - self.layout.elrange.start) / PAGE_SIZE) as usize)
        } else {
            None
        }
    }

    /// Trace-region stamp query: the code-write generation of the page
    /// containing `addr`, or `None` outside ELRANGE. A cached superblock
    /// trace records this stamp at formation and re-executes only while it
    /// still matches — the single load the trace dispatcher's mid-run
    /// self-modifying-code check performs.
    #[must_use]
    pub fn code_stamp(&self, addr: u64) -> Option<u64> {
        self.page_code_gen(self.page_index(addr)?)
    }

    /// Whether the page stamped `gen` at trace-formation time is still
    /// unchanged. `page` indexes ELRANGE pages like [`Memory::page_code_gen`].
    #[inline]
    #[must_use]
    pub fn stamp_current(&self, page: usize, gen: u64) -> bool {
        self.page_code_gen.get(page).copied() == Some(gen)
    }

    /// Stamps every executable page overlapping the enclave-relative byte
    /// range `off..off + len` with a fresh code-write generation.
    #[cold]
    fn note_enclave_write(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = off / PAGE;
        let last = (off + len - 1) / PAGE;
        let mut bumped = false;
        for p in first..=last {
            if self.perms[p].x {
                if !bumped {
                    self.code_gen += 1;
                    bumped = true;
                }
                self.page_code_gen[p] = self.code_gen;
            }
        }
    }

    /// Translation fast path: the enclave-relative offset of `addr` when the
    /// `len64`-byte access lies entirely inside one enclave page — the moral
    /// equivalent of a direct-mapped TLB hit (one range compare plus one
    /// page-cross test, no per-page permission loop).
    #[inline(always)]
    fn enclave_single_page_offset(&self, addr: u64, len64: u64) -> Option<usize> {
        let off = addr.checked_sub(self.layout.elrange.start)?;
        let end = off.checked_add(len64)?;
        if end > self.enclave.len() || off / PAGE_SIZE != (end - 1) / PAGE_SIZE {
            return None;
        }
        Some(off as usize)
    }

    /// Whether the `len64`-byte access at `addr` lies in untrusted memory.
    fn in_untrusted(&self, addr: u64, len64: u64) -> bool {
        Region::new(0, self.untrusted.len()).contains_range(addr, len64)
    }

    /// Returns the permission of the page containing `addr` (enclave only).
    #[must_use]
    pub fn page_perm(&self, addr: u64) -> Option<PagePerm> {
        if !self.layout.elrange.contains(addr) {
            return None;
        }
        let idx = ((addr - self.layout.elrange.start) / PAGE_SIZE) as usize;
        Some(self.perms[idx])
    }

    #[cold]
    fn check_enclave_perm(&self, addr: u64, len: u64, access: Access) -> Result<(), Fault> {
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for page in first..=last {
            let page_addr = page * PAGE_SIZE;
            let perm = self.page_perm(page_addr).expect("in range");
            let ok = match access {
                Access::Fetch => perm.x,
                Access::Read => perm.r,
                Access::Write => perm.w,
            };
            if !ok {
                return Err(match access {
                    Access::Fetch => Fault::NotExecutable { addr: page_addr },
                    Access::Read => Fault::ReadViolation { addr },
                    Access::Write => Fault::WriteViolation { addr },
                });
            }
        }
        Ok(())
    }

    /// Reads `len` (1..=8) bytes at `addr` as a little-endian integer, with
    /// permission checks (the path the executing target binary uses).
    ///
    /// The fast path — one enclave page with its read bit set — is inlined
    /// into the CPU; everything else takes `load_slow`.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses and on enclave pages without read
    /// permission.
    #[inline(always)]
    pub fn load(&self, addr: u64, len: u8) -> Result<u64, Fault> {
        debug_assert!((1..=8).contains(&len));
        if let Some(off) = self.enclave_single_page_offset(addr, u64::from(len)) {
            if self.perms[off / PAGE].r {
                return Ok(self.enclave.read_word(off, len as usize));
            }
        }
        self.load_slow(addr, len)
    }

    /// Every load the fast path leaves: a permission fault, a page-crossing
    /// or untrusted access, or an unmapped address.
    #[cold]
    #[inline(never)]
    fn load_slow(&self, addr: u64, len: u8) -> Result<u64, Fault> {
        let len64 = u64::from(len);
        if self.layout.elrange.contains_range(addr, len64) {
            self.check_enclave_perm(addr, len64, Access::Read)?;
            let off = (addr - self.layout.elrange.start) as usize;
            Ok(self.enclave.read_le(off, len as usize))
        } else if self.in_untrusted(addr, len64) {
            Ok(self.untrusted.read_le(addr as usize, len as usize))
        } else {
            Err(Fault::Unmapped { addr })
        }
    }

    /// Writes `len` (1..=8) bytes at `addr`, with permission checks. Stores
    /// to untrusted memory succeed but are recorded as potential leaks.
    ///
    /// The fast path — one allocated enclave page, writable and not
    /// executable — is inlined into the CPU; everything else takes
    /// `store_slow`.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses and on enclave pages without write
    /// permission (guard pages, code-adjacent read-only pages, …).
    #[inline(always)]
    pub fn store(&mut self, addr: u64, len: u8, value: u64) -> Result<(), Fault> {
        debug_assert!((1..=8).contains(&len));
        if let Some(off) = self.enclave_single_page_offset(addr, u64::from(len)) {
            let perm = self.perms[off / PAGE];
            // A store to an executable page must stamp it (self-modifying
            // code), so it takes the slow path like a first write does.
            if perm.w && !perm.x && self.enclave.write_allocated(off, len as usize, value) {
                return Ok(());
            }
        }
        self.store_slow(addr, len, value)
    }

    /// Every store the fast path leaves: a permission fault, a write to an
    /// executable page (which stamps its code-write generation), the first
    /// write to a page (which allocates it), a page-crossing or untrusted
    /// access, or an unmapped address.
    #[cold]
    #[inline(never)]
    fn store_slow(&mut self, addr: u64, len: u8, value: u64) -> Result<(), Fault> {
        let len64 = u64::from(len);
        let bytes = value.to_le_bytes();
        let bytes = &bytes[..len as usize];
        if self.layout.elrange.contains_range(addr, len64) {
            self.check_enclave_perm(addr, len64, Access::Write)?;
            let off = (addr - self.layout.elrange.start) as usize;
            self.enclave.write(off, bytes);
            self.note_enclave_write(off, bytes.len());
            Ok(())
        } else if self.in_untrusted(addr, len64) {
            self.untrusted_write_count += 1;
            if self.leak_log.len() < MAX_LEAK_LOG {
                self.leak_log.push(LeakRecord { addr, len });
            }
            self.untrusted.write(addr as usize, bytes);
            Ok(())
        } else {
            Err(Fault::Unmapped { addr })
        }
    }

    /// Returns up to 16 bytes of code starting at `pc` for the decoder.
    /// The window is clamped to the contiguous run of executable pages, so
    /// an instruction that would spill past them decodes as truncated and
    /// the machine fails closed.
    ///
    /// # Errors
    ///
    /// Faults if `pc` is outside the enclave or on a non-executable page.
    pub fn fetch_window(&self, pc: u64) -> Result<FetchWindow, Fault> {
        if !self.layout.elrange.contains(pc) {
            return Err(Fault::NotExecutable { addr: pc });
        }
        let off = (pc - self.layout.elrange.start) as usize;
        let page = off / PAGE;
        if !self.perms[page].x {
            // Same fault address check_enclave_perm reported: the absolute
            // base of the offending page.
            return Err(Fault::NotExecutable { addr: pc & !(PAGE_SIZE - 1) });
        }
        let mut avail = ((self.layout.elrange.end - pc).min(16)) as usize;
        // Clamp at the first non-executable page. The in-range and X checks
        // above are hoisted out of this loop: pages are indexed directly in
        // the permission table instead of re-validating `contains` per page.
        let mut next_page_off = (page + 1) * PAGE;
        while next_page_off < off + avail {
            if !self.perms[next_page_off / PAGE].x {
                avail = next_page_off - off;
                break;
            }
            next_page_off += PAGE;
        }
        let mut window = FetchWindow { bytes: [0; 16], len: avail as u8 };
        self.enclave.read(off, &mut window.bytes[..avail]);
        Ok(window)
    }

    /// Copies the bytes at `addr..addr + buf.len()` into `buf`, bypassing
    /// page permissions.
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        let len64 = buf.len() as u64;
        if self.layout.elrange.contains_range(addr, len64) {
            self.enclave.read((addr - self.layout.elrange.start) as usize, buf);
            Ok(())
        } else if self.in_untrusted(addr, len64) {
            self.untrusted.read(addr as usize, buf);
            Ok(())
        } else {
            Err(Fault::Unmapped { addr })
        }
    }

    /// Privileged read bypassing page permissions (the trusted consumer /
    /// runtime path). Still bounds-checked against the address map.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped addresses.
    pub fn peek_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        let mut bytes = vec![0; len];
        self.read_bytes(addr, &mut bytes)?;
        Ok(bytes)
    }

    /// Privileged write bypassing page permissions (loader/runtime path).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped addresses.
    pub fn poke_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Fault> {
        let len64 = bytes.len() as u64;
        if self.layout.elrange.contains_range(addr, len64) {
            let off = (addr - self.layout.elrange.start) as usize;
            self.enclave.write(off, bytes);
            self.note_enclave_write(off, bytes.len());
            Ok(())
        } else if self.in_untrusted(addr, len64) {
            self.untrusted.write(addr as usize, bytes);
            Ok(())
        } else {
            Err(Fault::Unmapped { addr })
        }
    }

    /// Privileged 64-bit read.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped addresses.
    pub fn peek_u64(&self, addr: u64) -> Result<u64, Fault> {
        let mut word = [0; 8];
        self.read_bytes(addr, &mut word)?;
        Ok(u64::from_le_bytes(word))
    }

    /// Privileged 64-bit write.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped addresses.
    pub fn poke_u64(&mut self, addr: u64, value: u64) -> Result<(), Fault> {
        self.poke_bytes(addr, &value.to_le_bytes())
    }
}

/// A compact, exact snapshot of a [`Memory`]: only the pages that hold a
/// non-zero byte, plus the per-page permissions and code-write stamps.
///
/// A freshly installed enclave image is almost entirely zero — the loaded
/// code, the branch table and a few control words fill a handful of pages
/// out of more than a thousand — so an install cache that keeps images as
/// [`MemImage`]s holds kilobytes per binary instead of the whole address
/// space. [`Memory::from_image`] rebuilds a memory that is equal in every
/// byte, permission, stamp and counter to the one captured, and allocates
/// only the pages the image stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage {
    layout: EnclaveLayout,
    /// `(page index, contents)` of every enclave page with a non-zero byte.
    enclave_pages: Vec<(usize, PageBytes)>,
    /// `(page index, contents)` of every non-zero untrusted-memory page.
    untrusted_pages: Vec<(usize, PageBytes)>,
    perms: Vec<PagePerm>,
    code_gen: u64,
    page_code_gen: Vec<u64>,
    untrusted_write_count: u64,
    leak_log: Vec<LeakRecord>,
}

impl MemImage {
    /// Number of stored (non-zero) enclave pages.
    #[must_use]
    pub fn enclave_pages(&self) -> usize {
        self.enclave_pages.len()
    }

    /// Number of stored (non-zero) untrusted-memory pages.
    #[must_use]
    pub fn untrusted_pages(&self) -> usize {
        self.untrusted_pages.len()
    }
}

impl Memory {
    /// Captures this memory as a compact [`MemImage`].
    #[must_use]
    pub fn image(&self) -> MemImage {
        MemImage {
            layout: self.layout.clone(),
            enclave_pages: self.enclave.nonzero(),
            untrusted_pages: self.untrusted.nonzero(),
            perms: self.perms.clone(),
            code_gen: self.code_gen,
            page_code_gen: self.page_code_gen.clone(),
            untrusted_write_count: self.untrusted_write_count,
            leak_log: self.leak_log.clone(),
        }
    }

    /// Rebuilds the memory `image` was captured from.
    #[must_use]
    pub fn from_image(image: &MemImage) -> Memory {
        Memory {
            untrusted: Pages::from_stored(
                image.layout.config.untrusted_size,
                &image.untrusted_pages,
            ),
            enclave: Pages::from_stored(image.layout.elrange.len(), &image.enclave_pages),
            perms: image.perms.clone(),
            code_gen: image.code_gen,
            page_code_gen: image.page_code_gen.clone(),
            untrusted_write_count: image.untrusted_write_count,
            leak_log: image.leak_log.clone(),
            layout: image.layout.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MemConfig;

    fn mem() -> Memory {
        Memory::new(EnclaveLayout::new(MemConfig::small()))
    }

    #[test]
    fn heap_read_write() {
        let mut m = mem();
        let addr = m.layout().heap.start + 24;
        m.store(addr, 8, 0xDEAD_BEEF_1234_5678).unwrap();
        assert_eq!(m.load(addr, 8).unwrap(), 0xDEAD_BEEF_1234_5678);
        m.store(addr, 1, 0xFF).unwrap();
        assert_eq!(m.load(addr, 1).unwrap(), 0xFF);
    }

    #[test]
    fn guard_pages_fault() {
        let mut m = mem();
        let g = m.layout().guard_lo.start;
        assert!(matches!(m.store(g, 8, 1), Err(Fault::WriteViolation { .. })));
        assert!(matches!(m.load(g, 8), Err(Fault::ReadViolation { .. })));
    }

    #[test]
    fn consumer_pages_not_writable() {
        let mut m = mem();
        let c = m.layout().consumer.start;
        assert!(matches!(m.store(c, 8, 1), Err(Fault::WriteViolation { .. })));
        assert_eq!(m.load(c, 8).unwrap(), 0);
    }

    #[test]
    fn code_pages_are_rwx_under_sgxv1() {
        let mut m = mem();
        let c = m.layout().code.start;
        // Hardware cannot stop self-modification — only the P1/P4 software
        // DEP annotations can, which is the point of the policy.
        m.store(c, 8, 0x90).unwrap();
        assert_eq!(m.load(c, 8).unwrap(), 0x90);
        assert!(m.fetch_window(c).is_ok());
    }

    #[test]
    fn heap_pages_not_executable() {
        let m = mem();
        let h = m.layout().heap.start;
        assert!(matches!(m.fetch_window(h), Err(Fault::NotExecutable { .. })));
    }

    #[test]
    fn untrusted_writes_succeed_but_are_recorded() {
        let mut m = mem();
        assert_eq!(m.untrusted_write_count, 0);
        m.store(0x100, 8, 42).unwrap();
        assert_eq!(m.load(0x100, 8).unwrap(), 42);
        assert_eq!(m.untrusted_write_count, 1);
        assert_eq!(m.leak_log[0], LeakRecord { addr: 0x100, len: 8 });
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut m = mem();
        let hole = m.layout().config.untrusted_size + 10; // between regions
        assert!(matches!(m.load(hole, 8), Err(Fault::Unmapped { .. })));
        assert!(matches!(m.store(hole, 8, 0), Err(Fault::Unmapped { .. })));
        let beyond = m.layout().elrange.end;
        assert!(matches!(m.load(beyond, 8), Err(Fault::Unmapped { .. })));
    }

    #[test]
    fn access_straddling_elrange_boundary_faults() {
        let m = mem();
        let edge = m.layout().elrange.end - 4;
        assert!(matches!(m.load(edge, 8), Err(Fault::Unmapped { .. })));
    }

    #[test]
    fn poke_bypasses_permissions_peek_reads_back() {
        let mut m = mem();
        let bt = m.layout().branch_table.start;
        m.set_region_perm(m.layout().branch_table, PagePerm::R);
        // The loader can still seal values in via the privileged path.
        m.poke_u64(bt, 77).unwrap();
        assert_eq!(m.peek_u64(bt).unwrap(), 77);
        // The target binary cannot write it.
        assert!(matches!(m.store(bt, 8, 1), Err(Fault::WriteViolation { .. })));
        // But can read it.
        assert_eq!(m.load(bt, 8).unwrap(), 77);
    }

    #[test]
    fn fetch_window_is_clamped_at_executable_boundary() {
        let m = mem();
        // Near the end of the code region the window shrinks to the bytes
        // remaining on executable pages instead of spilling into the heap.
        let end = m.layout().code.end - 4;
        let w = m.fetch_window(end).unwrap();
        assert_eq!(w.len(), 4);
        // A window fully inside code is the full 16 bytes.
        let w = m.fetch_window(m.layout().code.start).unwrap();
        assert_eq!(w.len(), 16);
        // Fetching from a non-executable page faults outright.
        assert!(matches!(m.fetch_window(m.layout().heap.start), Err(Fault::NotExecutable { .. })));
    }

    #[test]
    fn code_write_generation_tracks_executable_pages_only() {
        let mut m = mem();
        let code = m.layout().code.start;
        let heap = m.layout().heap.start;
        let page = ((code - m.layout().elrange.start) / PAGE_SIZE) as usize;
        let g0 = m.code_generation();
        // Data writes do not disturb code coherence.
        m.store(heap, 8, 1).unwrap();
        m.poke_u64(heap + 64, 2).unwrap();
        assert_eq!(m.code_generation(), g0);
        // A store into the RWX window bumps globally and stamps the page.
        m.store(code, 8, 0x90).unwrap();
        assert_eq!(m.code_generation(), g0 + 1);
        assert_eq!(m.page_code_gen(page), Some(g0 + 1));
        // A privileged poke spanning two code pages stamps both with one
        // generation (a single logical write event).
        m.poke_bytes(code + PAGE_SIZE - 4, &[0u8; 8]).unwrap();
        assert_eq!(m.code_generation(), g0 + 2);
        assert_eq!(m.page_code_gen(page), Some(g0 + 2));
        assert_eq!(m.page_code_gen(page + 1), Some(g0 + 2));
    }

    #[test]
    fn permission_change_stamps_generation() {
        let mut m = mem();
        let bt = m.layout().branch_table;
        let page = ((bt.start - m.layout().elrange.start) / PAGE_SIZE) as usize;
        let g0 = m.code_generation();
        m.set_region_perm(bt, PagePerm::R);
        assert_eq!(m.code_generation(), g0 + 1);
        assert_eq!(m.page_code_gen(page), Some(g0 + 1));
        assert_eq!(m.page_code_gen(usize::MAX), None);
    }

    #[test]
    fn page_straddling_access_matches_single_page_semantics() {
        let mut m = mem();
        // A write straddling two heap pages still round-trips and bumps no
        // code generation (exercises the slow path the fast path skips).
        let edge = m.layout().heap.start + PAGE_SIZE - 4;
        let g0 = m.code_generation();
        m.store(edge, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load(edge, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.code_generation(), g0);
        // Straddling into a guard page faults exactly as before.
        let guard_edge = m.layout().stack.end - 4;
        assert!(matches!(m.store(guard_edge, 8, 1), Err(Fault::WriteViolation { .. })));
    }

    /// Every field of two memories, compared one by one.
    fn assert_same(a: &Memory, b: &Memory) {
        assert_eq!(a.layout, b.layout);
        assert!(a.enclave.nonzero() == b.enclave.nonzero(), "enclave bytes differ");
        assert!(a.untrusted.nonzero() == b.untrusted.nonzero(), "untrusted bytes differ");
        assert_eq!(a.perms, b.perms);
        assert_eq!(a.code_gen, b.code_gen);
        assert_eq!(a.page_code_gen, b.page_code_gen);
        assert_eq!(a.untrusted_write_count, b.untrusted_write_count);
        assert_eq!(a.leak_log, b.leak_log);
    }

    #[test]
    fn image_round_trips_exactly_and_stores_only_nonzero_pages() {
        let mut m = mem();
        let l = m.layout().clone();
        m.store(l.code.start + 5, 8, 0x90C3).unwrap();
        m.poke_bytes(l.heap.start + PAGE_SIZE - 2, &[1, 2, 3, 4]).unwrap();
        m.set_region_perm(l.branch_table, PagePerm::R);
        m.store(0x40, 1, 7).unwrap();
        let image = m.image();
        // One code page, two heap pages (the poke straddles), one
        // untrusted page.
        assert_eq!(image.enclave_pages(), 3);
        assert_eq!(image.untrusted_pages(), 1);
        let back = Memory::from_image(&image);
        assert_same(&m, &back);
        assert_eq!(back.image(), image, "capture is a pure function of the memory");
    }

    #[test]
    fn restored_memory_behaves_like_the_original() {
        let mut m = mem();
        let code = m.layout().code.start;
        m.store(code, 8, 0x1122).unwrap();
        let mut a = m.clone();
        let mut b = Memory::from_image(&m.image());
        for mem in [&mut a, &mut b] {
            mem.store(code + 8, 8, 3).unwrap();
            mem.store(mem.layout().heap.start, 8, 4).unwrap();
        }
        assert_same(&a, &b);
        assert_eq!(b.fetch_window(code).unwrap(), a.fetch_window(code).unwrap());
        assert!(matches!(
            b.store(b.layout().guard_lo.start, 8, 1),
            Err(Fault::WriteViolation { .. })
        ));
    }

    #[test]
    fn leak_log_is_capped() {
        let mut m = mem();
        for i in 0..(MAX_LEAK_LOG as u64 + 100) {
            m.store(i * 8, 8, i).unwrap();
        }
        assert_eq!(m.leak_log.len(), MAX_LEAK_LOG);
        assert_eq!(m.untrusted_write_count, MAX_LEAK_LOG as u64 + 100);
    }
}
