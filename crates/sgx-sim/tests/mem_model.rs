//! Model-based property test of the page-sparse [`Memory`]: random
//! sequences of loads, stores, privileged pokes and peeks, instruction
//! fetches and permission changes run against both the memory and a flat
//! byte-vector reference model that lives only here. Every result, fault,
//! code-write stamp, untrusted-write count and leak record must agree, and
//! at the end of each sequence the memory rebuilt from its image must match
//! the original on every observable.

use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig, Region, PAGE_SIZE};
use deflection_sgx_sim::mem::{LeakRecord, Memory, PagePerm};
use deflection_sgx_sim::Fault;
use proptest::prelude::*;

const MAX_LEAK_LOG: usize = 1024;

/// The specification of [`Memory`]: dense bytes, the same permission and
/// stamp rules, no pages.
struct Model {
    layout: EnclaveLayout,
    enclave: Vec<u8>,
    untrusted: Vec<u8>,
    perms: Vec<PagePerm>,
    code_gen: u64,
    page_code_gen: Vec<u64>,
    untrusted_write_count: u64,
    leak_log: Vec<LeakRecord>,
}

impl Model {
    fn new(layout: EnclaveLayout) -> Self {
        let pages = (layout.elrange.len() / PAGE_SIZE) as usize;
        let mut m = Model {
            enclave: vec![0; layout.elrange.len() as usize],
            untrusted: vec![0; layout.config.untrusted_size as usize],
            perms: vec![PagePerm::NONE; pages],
            code_gen: 0,
            page_code_gen: vec![0; pages],
            untrusted_write_count: 0,
            leak_log: Vec::new(),
            layout: layout.clone(),
        };
        let l = layout;
        for (region, perm) in [
            (l.consumer, PagePerm::RX),
            (l.ssa, PagePerm::RW),
            (l.control, PagePerm::RW),
            (l.branch_table, PagePerm::RW),
            (l.shadow_stack, PagePerm::RW),
            (l.code, PagePerm::RWX),
            (l.heap, PagePerm::RW),
            (l.guard_lo, PagePerm::NONE),
            (l.stack, PagePerm::RW),
            (l.guard_hi, PagePerm::NONE),
        ] {
            m.set_region_perm(region, perm);
        }
        m
    }

    fn page(&self, addr: u64) -> usize {
        ((addr - self.layout.elrange.start) / PAGE_SIZE) as usize
    }

    fn set_region_perm(&mut self, region: Region, perm: PagePerm) {
        let (first, last) = (self.page(region.start), self.page(region.end));
        if first < last {
            self.code_gen += 1;
        }
        for p in first..last {
            self.perms[p] = perm;
            self.page_code_gen[p] = self.code_gen;
        }
    }

    /// The enclave offset or untrusted address of `len` bytes at `addr`.
    fn locate(&self, addr: u64, len: u64) -> Result<(bool, usize), Fault> {
        if self.layout.elrange.contains_range(addr, len) {
            Ok((true, (addr - self.layout.elrange.start) as usize))
        } else if Region::new(0, self.untrusted.len() as u64).contains_range(addr, len) {
            Ok((false, addr as usize))
        } else {
            Err(Fault::Unmapped { addr })
        }
    }

    /// Whether every enclave page the `len` bytes at `addr` touch passes `ok`.
    fn check(&self, addr: u64, len: u64, ok: impl Fn(PagePerm) -> bool) -> bool {
        (self.page(addr)..=self.page(addr + len - 1)).all(|p| ok(self.perms[p]))
    }

    fn stamp(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let pages = off / PAGE_SIZE as usize..=(off + len - 1) / PAGE_SIZE as usize;
        if pages.clone().any(|p| self.perms[p].x) {
            self.code_gen += 1;
            for p in pages.filter(|&p| self.perms[p].x) {
                self.page_code_gen[p] = self.code_gen;
            }
        }
    }

    fn load(&self, addr: u64, len: u8) -> Result<u64, Fault> {
        let (enclave, off) = self.locate(addr, len as u64)?;
        let bytes = if enclave {
            if !self.check(addr, len as u64, |p| p.r) {
                return Err(Fault::ReadViolation { addr });
            }
            &self.enclave[off..off + len as usize]
        } else {
            &self.untrusted[off..off + len as usize]
        };
        Ok(bytes.iter().rev().fold(0, |acc, &b| acc << 8 | b as u64))
    }

    fn store(&mut self, addr: u64, len: u8, value: u64) -> Result<(), Fault> {
        let (enclave, off) = self.locate(addr, len as u64)?;
        let bytes = &value.to_le_bytes()[..len as usize];
        if enclave {
            if !self.check(addr, len as u64, |p| p.w) {
                return Err(Fault::WriteViolation { addr });
            }
            self.enclave[off..off + bytes.len()].copy_from_slice(bytes);
            self.stamp(off, bytes.len());
        } else {
            self.untrusted_write_count += 1;
            if self.leak_log.len() < MAX_LEAK_LOG {
                self.leak_log.push(LeakRecord { addr, len });
            }
            self.untrusted[off..off + bytes.len()].copy_from_slice(bytes);
        }
        Ok(())
    }

    fn peek(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        let (enclave, off) = self.locate(addr, len as u64)?;
        let src = if enclave { &self.enclave } else { &self.untrusted };
        Ok(src[off..off + len].to_vec())
    }

    fn poke(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Fault> {
        let (enclave, off) = self.locate(addr, bytes.len() as u64)?;
        if enclave {
            self.enclave[off..off + bytes.len()].copy_from_slice(bytes);
            self.stamp(off, bytes.len());
        } else {
            self.untrusted[off..off + bytes.len()].copy_from_slice(bytes);
        }
        Ok(())
    }

    fn fetch(&self, pc: u64) -> Result<Vec<u8>, Fault> {
        if !self.layout.elrange.contains(pc) {
            return Err(Fault::NotExecutable { addr: pc });
        }
        if !self.perms[self.page(pc)].x {
            return Err(Fault::NotExecutable { addr: pc & !(PAGE_SIZE - 1) });
        }
        let end = (pc + 16).min(self.layout.elrange.end);
        let len = (pc..end).take_while(|&a| self.perms[self.page(a)].x).count();
        Ok(self.peek(pc, len).expect("inside ELRANGE"))
    }
}

/// Addresses worth hitting: region edges, the ELRANGE and untrusted
/// boundaries and the holes around them.
fn anchors(l: &EnclaveLayout) -> Vec<u64> {
    let mut points = vec![0, l.config.untrusted_size, l.elrange.start, l.elrange.end];
    for r in [
        l.consumer,
        l.ssa,
        l.control,
        l.branch_table,
        l.shadow_stack,
        l.code,
        l.heap,
        l.guard_lo,
        l.stack,
        l.guard_hi,
    ] {
        points.extend([r.start, r.end]);
    }
    points
}

/// An address up to 16 bytes either side of a base, so accesses straddle
/// page, region and ELRANGE edges. The base is an anchor a few pages on
/// or, one time in two, the previous address, so later operations read,
/// fetch and overwrite what earlier ones wrote.
fn address(points: &[u64], prev: u64, a: u64, b: u64) -> u64 {
    let base = if a >> 63 == 0 {
        prev
    } else {
        points[(a % points.len() as u64) as usize] + (b >> 8) % 4 * PAGE_SIZE
    };
    base.wrapping_add((b & 0xFF) % 33).wrapping_sub(16)
}

const PERMS: [PagePerm; 5] =
    [PagePerm::NONE, PagePerm::R, PagePerm::RW, PagePerm::RX, PagePerm::RWX];

/// Every observable of `m` equals the model's, bytes included.
fn assert_matches(m: &Memory, model: &Model) {
    let l = &model.layout;
    assert_eq!(m.code_generation(), model.code_gen);
    for (p, &gen) in model.page_code_gen.iter().enumerate() {
        assert_eq!(m.page_code_gen(p), Some(gen), "stamp of page {p}");
        let addr = l.elrange.start + p as u64 * PAGE_SIZE;
        assert_eq!(m.page_perm(addr), Some(model.perms[p]), "perm of page {p}");
    }
    assert_eq!(m.untrusted_write_count, model.untrusted_write_count);
    assert_eq!(m.leak_log, model.leak_log);
    assert!(m.peek_bytes(l.elrange.start, model.enclave.len()).unwrap() == model.enclave);
    assert!(m.peek_bytes(0, model.untrusted.len()).unwrap() == model.untrusted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memory_matches_flat_model(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..64,
        )
    ) {
        let layout = EnclaveLayout::new(MemConfig::small());
        let points = anchors(&layout);
        let mut m = Memory::new(layout.clone());
        let mut model = Model::new(layout.clone());
        assert_matches(&m, &model);
        let mut addr = layout.code.start;
        for (kind, a, b, value) in ops {
            addr = address(&points, addr, a, b);
            let len = (value >> 56) as u8 % 8 + 1;
            // One value in four is zero: a zero store to a page never
            // written must not allocate it, yet still read back as zero.
            let value = if (b >> 16) % 4 == 0 { 0 } else { value };
            match kind % 6 {
                0 => prop_assert_eq!(m.load(addr, len), model.load(addr, len)),
                1 => prop_assert_eq!(m.store(addr, len, value), model.store(addr, len, value)),
                2 => {
                    let n = (a >> 32) as usize % 41;
                    let bytes: Vec<u8> =
                        (0..n).map(|i| (value >> (8 * (i % 8))) as u8).collect();
                    prop_assert_eq!(m.poke_bytes(addr, &bytes), model.poke(addr, &bytes));
                }
                3 => {
                    let n = (a >> 32) as usize % 41;
                    prop_assert_eq!(m.peek_bytes(addr, n), model.peek(addr, n));
                }
                4 => prop_assert_eq!(
                    m.fetch_window(addr).map(|w| w.to_vec()),
                    model.fetch(addr)
                ),
                _ => {
                    // A run of one to four whole pages inside ELRANGE.
                    let pages = layout.elrange.len() / PAGE_SIZE;
                    let first = layout.elrange.start + (addr % pages) * PAGE_SIZE;
                    let end = (first + (b % 4 + 1) * PAGE_SIZE).min(layout.elrange.end);
                    let region = Region::new(first, end);
                    let perm = PERMS[(value % PERMS.len() as u64) as usize];
                    m.set_region_perm(region, perm);
                    model.set_region_perm(region, perm);
                }
            }
            prop_assert_eq!(m.code_generation(), model.code_gen);
            prop_assert_eq!(m.untrusted_write_count, model.untrusted_write_count);
            prop_assert_eq!(&m.leak_log, &model.leak_log);
        }
        assert_matches(&m, &model);
        let image = m.image();
        let back = Memory::from_image(&image);
        assert_matches(&back, &model);
        assert_matches(&m.clone(), &model);
        prop_assert_eq!(back.image(), image);
        prop_assert!(back.allocated_pages() <= m.allocated_pages());
    }
}

#[test]
fn only_non_zero_writes_allocate_pages() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut m = Memory::new(layout.clone());
    assert_eq!(m.allocated_pages(), 0);
    // Zero stores and pokes leave every page unallocated.
    m.store(layout.heap.start, 8, 0).unwrap();
    m.poke_bytes(layout.code.start, &[0; 3 * PAGE_SIZE as usize]).unwrap();
    m.store(0x40, 8, 0).unwrap();
    assert_eq!(m.allocated_pages(), 0);
    // A non-zero byte allocates exactly the pages it lands on.
    m.store(layout.heap.start + PAGE_SIZE - 4, 8, u64::MAX).unwrap();
    m.store(0x40, 1, 1).unwrap();
    assert_eq!(m.allocated_pages(), 3);
}
