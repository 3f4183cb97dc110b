//! The in-enclave dynamic loader.
//!
//! Implements the paper's in-enclave half of code loading (Section IV-D and
//! Fig. 6): parse the relocatable target binary delivered through
//! `ecall_receive_binary`, rebase its symbols into the enclave's code and
//! data windows, apply the absolute relocations, translate the symbolic
//! indirect-branch list into in-enclave addresses on the reserved
//! branch-table page, and seal that page read-only. The loader performs *no*
//! code rewriting beyond relocation — annotations were implanted by the
//! producer and are only checked (verifier) and bound (imm rewriter) here.

use deflection_crypto::sha256::sha256;
use deflection_obj::{ObjError, ObjectFile, RelocKind, SectionId};
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::mem::{Memory, PagePerm};
use std::collections::HashMap;
use std::error::Error as StdError;
use std::fmt;

/// Loading failures (all cause ECall rejection).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// The binary did not parse.
    Malformed(ObjError),
    /// A section exceeds its enclave window.
    TooLarge {
        /// Which section.
        section: &'static str,
    },
    /// A relocation or table entry referenced an undefined symbol.
    UndefinedSymbol(String),
    /// The entry symbol is missing or not a function.
    BadEntry,
    /// An indirect-branch-table entry is not a text function symbol.
    BadIndirectTarget(String),
    /// The table exceeds the reserved branch-table page(s).
    TableTooLarge,
    /// A relocation site fell outside its section.
    BadRelocation,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Malformed(e) => write!(f, "malformed binary: {e}"),
            LoadError::TooLarge { section } => write!(f, "{section} exceeds its enclave window"),
            LoadError::UndefinedSymbol(s) => write!(f, "undefined symbol `{s}`"),
            LoadError::BadEntry => write!(f, "missing or invalid entry symbol"),
            LoadError::BadIndirectTarget(s) => write!(f, "branch-table entry `{s}` invalid"),
            LoadError::TableTooLarge => write!(f, "indirect-branch table exceeds reserved page"),
            LoadError::BadRelocation => write!(f, "relocation site out of bounds"),
        }
    }
}

impl StdError for LoadError {}

impl From<ObjError> for LoadError {
    fn from(e: ObjError) -> Self {
        LoadError::Malformed(e)
    }
}

/// A successfully loaded (relocated, not yet verified) program.
#[derive(Debug, Clone)]
pub struct LoadedProgram {
    /// Virtual address of the entry point.
    pub entry_va: u64,
    /// Length of the loaded text image.
    pub code_len: usize,
    /// Code-relative offsets of the indirect-branch targets (for the
    /// verifier's recursive descent).
    pub ibt_offsets: Vec<usize>,
    /// In-enclave addresses of the indirect-branch targets (written to the
    /// branch-table page, in order).
    pub ibt_addresses: Vec<u64>,
    /// Symbol name → virtual address.
    pub symbols: HashMap<String, u64>,
    /// Virtual address one past the loaded data image (free heap starts
    /// here; the runtime places the I/O buffers above it).
    pub data_end: u64,
    /// SHA-256 of the delivered binary (the measurement the bootstrap
    /// enclave reports to the data owner, Section III-A).
    pub code_hash: [u8; 32],
}

fn align8(v: u64) -> u64 {
    (v + 7) & !7
}

/// The pure half of loading: everything [`load`] computes before touching
/// enclave memory — section base assignment, symbol resolution, Abs64
/// relocation applied to cloned images, branch-table translation and entry
/// lookup.
#[derive(Debug, Clone)]
pub struct ResolvedImage {
    /// Text image with Abs64 relocations applied.
    pub text: Vec<u8>,
    /// Data image with Abs64 relocations applied.
    pub data: Vec<u8>,
    /// Virtual address rodata is placed at (start of the heap window).
    pub rodata_base: u64,
    /// Virtual address the data image is placed at.
    pub data_base: u64,
    /// Virtual address the zero-initialized bss begins at.
    pub bss_base: u64,
    /// Virtual address one past the loaded image.
    pub data_end: u64,
    /// Virtual address of the entry point.
    pub entry_va: u64,
    /// Code-relative offsets of the indirect-branch targets.
    pub ibt_offsets: Vec<usize>,
    /// In-enclave addresses of the indirect-branch targets.
    pub ibt_addresses: Vec<u64>,
    /// Symbol name → virtual address.
    pub symbols: HashMap<String, u64>,
}

/// Resolves `obj` against `layout` without touching any memory.
///
/// [`load`] builds on this; the untrusted producer's guard-elision pass
/// calls it too, so the text image its abstract interpretation analyses is
/// bit-for-bit the one the in-enclave verifier will see after loading.
///
/// # Errors
///
/// See [`LoadError`].
pub fn resolve(obj: &ObjectFile, layout: &EnclaveLayout) -> Result<ResolvedImage, LoadError> {
    if obj.text.len() as u64 > layout.code.len() {
        return Err(LoadError::TooLarge { section: "text" });
    }
    let rodata_base = layout.heap.start;
    let data_base = align8(rodata_base + obj.rodata.len() as u64);
    let bss_base = align8(data_base + obj.data.len() as u64);
    let data_end = align8(bss_base + obj.bss_size);
    if data_end > layout.heap.end {
        return Err(LoadError::TooLarge { section: "data" });
    }

    // Resolve symbol virtual addresses.
    let mut symbols = HashMap::new();
    for sym in &obj.symbols {
        let va = match sym.section {
            SectionId::Text => layout.code.start + sym.offset,
            SectionId::Rodata => rodata_base + sym.offset,
            SectionId::Data => data_base + sym.offset,
            SectionId::Bss => bss_base + sym.offset,
        };
        symbols.insert(sym.name.clone(), va);
    }

    // Apply the remaining (absolute) relocations to local images.
    let mut text = obj.text.clone();
    let mut data = obj.data.clone();
    for reloc in &obj.relocations {
        debug_assert_eq!(reloc.kind, RelocKind::Abs64, "linker resolved Rel32");
        let target = symbols
            .get(&reloc.symbol)
            .ok_or_else(|| LoadError::UndefinedSymbol(reloc.symbol.clone()))?;
        let value = (*target as i64 + reloc.addend) as u64;
        let site = reloc.offset as usize;
        let image: &mut Vec<u8> = match reloc.section {
            SectionId::Text => &mut text,
            SectionId::Data => &mut data,
            _ => return Err(LoadError::BadRelocation),
        };
        if site + 8 > image.len() {
            return Err(LoadError::BadRelocation);
        }
        image[site..site + 8].copy_from_slice(&value.to_le_bytes());
    }

    // Translate the indirect-branch proof list.
    let mut ibt_offsets = Vec::with_capacity(obj.indirect_branch_table.len());
    let mut ibt_addresses = Vec::with_capacity(obj.indirect_branch_table.len());
    for name in &obj.indirect_branch_table {
        let sym = obj.symbol(name).ok_or_else(|| LoadError::UndefinedSymbol(name.clone()))?;
        if sym.section != SectionId::Text {
            return Err(LoadError::BadIndirectTarget(name.clone()));
        }
        ibt_offsets.push(sym.offset as usize);
        ibt_addresses.push(layout.code.start + sym.offset);
    }
    if (ibt_addresses.len() as u64) * 8 > layout.branch_table.len() {
        return Err(LoadError::TableTooLarge);
    }

    // Entry.
    let entry_sym = obj.symbol(&obj.entry_symbol).ok_or(LoadError::BadEntry)?;
    if entry_sym.section != SectionId::Text {
        return Err(LoadError::BadEntry);
    }
    let entry_va = layout.code.start + entry_sym.offset;

    Ok(ResolvedImage {
        text,
        data,
        rodata_base,
        data_base,
        bss_base,
        data_end,
        entry_va,
        ibt_offsets,
        ibt_addresses,
        symbols,
    })
}

/// Loads `binary` (a serialized [`ObjectFile`]) into `mem`.
///
/// # Errors
///
/// See [`LoadError`]. On error the enclave memory may contain a partial
/// image; callers must not run it (the ECall surface discards the enclave).
pub fn load(binary: &[u8], mem: &mut Memory) -> Result<LoadedProgram, LoadError> {
    let layout: EnclaveLayout = mem.layout().clone();
    let obj = ObjectFile::parse(binary)?;
    let code_hash = sha256(binary);
    let r = resolve(&obj, &layout)?;

    // Copy the images into the enclave (privileged loader path) and zero
    // the bss window.
    mem.poke_bytes(layout.code.start, &r.text).expect("text fits code window");
    mem.poke_bytes(r.rodata_base, &obj.rodata).expect("rodata fits heap");
    mem.poke_bytes(r.data_base, &r.data).expect("data fits heap");
    let zeros = vec![0u8; (r.data_end - r.bss_base) as usize];
    mem.poke_bytes(r.bss_base, &zeros).expect("bss fits heap");

    // Write and seal the branch table.
    for (i, addr) in r.ibt_addresses.iter().enumerate() {
        mem.poke_u64(layout.branch_table.start + (i as u64) * 8, *addr)
            .expect("table fits reserved page");
    }
    mem.set_region_perm(layout.branch_table, PagePerm::R);

    Ok(LoadedProgram {
        entry_va: r.entry_va,
        code_len: r.text.len(),
        ibt_offsets: r.ibt_offsets,
        ibt_addresses: r.ibt_addresses,
        symbols: r.symbols,
        data_end: r.data_end,
        code_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySet;
    use crate::producer::produce;
    use deflection_sgx_sim::layout::MemConfig;

    const SRC: &str = "
        var g: [int; 8] = {1, 2, 3};
        fn main() -> int { g[3] = 4; return g[0]; }
    ";

    fn fresh_mem() -> Memory {
        Memory::new(EnclaveLayout::new(MemConfig::small()))
    }

    #[test]
    fn loads_and_relocates() {
        let obj = produce(SRC, &PolicySet::none()).unwrap();
        let mut mem = fresh_mem();
        let loaded = load(&obj.serialize(), &mut mem).unwrap();
        let layout = mem.layout().clone();
        assert_eq!(loaded.entry_va, layout.code.start + obj.symbol("__start").unwrap().offset);
        // The initialized global must be present in the heap image.
        let g_va = loaded.symbols["g"];
        assert_eq!(mem.peek_u64(g_va).unwrap(), 1);
        assert_eq!(mem.peek_u64(g_va + 8).unwrap(), 2);
        assert_eq!(mem.peek_u64(g_va + 24).unwrap(), 0);
        assert!(loaded.data_end > layout.heap.start);
        assert_eq!(loaded.code_hash, sha256(&obj.serialize()));
    }

    #[test]
    fn branch_table_written_and_sealed() {
        let src = "
            fn h() {}
            fn main() -> int { var f: fn() = &h; f(); return 0; }
        ";
        let obj = produce(src, &PolicySet::none()).unwrap();
        let mut mem = fresh_mem();
        let loaded = load(&obj.serialize(), &mut mem).unwrap();
        let layout = mem.layout().clone();
        assert_eq!(loaded.ibt_addresses.len(), 1);
        assert_eq!(mem.peek_u64(layout.branch_table.start).unwrap(), loaded.ibt_addresses[0]);
        // Sealed: the running binary cannot overwrite the table.
        assert!(mem.store(layout.branch_table.start, 8, 0).is_err());
    }

    #[test]
    fn garbage_rejected() {
        let mut mem = fresh_mem();
        assert!(matches!(load(b"not an object", &mut mem), Err(LoadError::Malformed(_))));
    }

    #[test]
    fn oversized_text_rejected() {
        let mut obj = produce(SRC, &PolicySet::none()).unwrap();
        obj.text = vec![0; (MemConfig::small().code_size + 1) as usize];
        let mut mem = fresh_mem();
        assert!(matches!(
            load(&obj.serialize(), &mut mem),
            Err(LoadError::TooLarge { section: "text" })
        ));
    }

    #[test]
    fn oversized_bss_rejected() {
        let mut obj = produce(SRC, &PolicySet::none()).unwrap();
        obj.bss_size = MemConfig::small().heap_size + 1;
        let mut mem = fresh_mem();
        assert!(matches!(
            load(&obj.serialize(), &mut mem),
            Err(LoadError::TooLarge { section: "data" })
        ));
    }

    #[test]
    fn bad_ibt_entry_rejected() {
        let mut obj = produce(SRC, &PolicySet::none()).unwrap();
        obj.indirect_branch_table.push("g".into()); // a data symbol
        let mut mem = fresh_mem();
        assert!(matches!(load(&obj.serialize(), &mut mem), Err(LoadError::BadIndirectTarget(_))));
        let mut obj2 = produce(SRC, &PolicySet::none()).unwrap();
        obj2.indirect_branch_table.push("ghost".into());
        assert!(matches!(
            load(&obj2.serialize(), &mut fresh_mem()),
            Err(LoadError::UndefinedSymbol(_))
        ));
    }

    #[test]
    fn abs64_relocations_resolve_to_heap_addresses() {
        let obj = produce(SRC, &PolicySet::none()).unwrap();
        assert!(!obj.relocations.is_empty());
        let mut mem = fresh_mem();
        let loaded = load(&obj.serialize(), &mut mem).unwrap();
        // Find one MovRI in the loaded code whose imm equals the g address.
        let g_va = loaded.symbols["g"];
        let code = mem.peek_bytes(mem.layout().code.start, loaded.code_len).unwrap();
        let d = deflection_isa::disassemble(
            &code,
            (loaded.entry_va - mem.layout().code.start) as usize,
            &loaded.ibt_offsets,
        )
        .unwrap();
        let found = d.insts().iter().any(
            |(_, inst, _)| matches!(inst, deflection_isa::Inst::MovRI { imm, .. } if *imm == g_va),
        );
        assert!(found, "relocated global address must appear in code");
    }
}
