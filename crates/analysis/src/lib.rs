//! Abstract interpretation over `deflection_isa` machine code.
//!
//! This crate is the proof engine behind **guard elision**
//! (`PolicySet::elide_guards`): a forward value-range analysis precise
//! enough to show that some stores can never leave the enclave's data
//! window, so their P1 bounds-check annotations are dead weight. Both
//! pipeline sides run the *identical* analysis:
//!
//! * the untrusted producer runs it to decide which guards to drop, and
//! * the in-enclave verifier re-runs it from scratch and accepts an
//!   unguarded store **only** if its own run proves the store safe —
//!   no hints or proof witnesses cross the trust boundary, exactly in
//!   the spirit of the paper's "verification is cheaper than trust"
//!   argument (the proof is re-derived inside the TCB, never believed).
//!
//! The pipeline is classic and deliberately small, because this code is
//! in-enclave TCB:
//!
//! 1. [`cfg`](mod@cfg) — control-flow graph reconstruction over an existing
//!    recursive-descent [`deflection_isa::Disassembly`]: basic blocks,
//!    typed edges (branch/call/fall-through/indirect), predecessors,
//!    reverse postorder and an iterative dominator tree
//!    (Cooper–Harvey–Kennedy).
//! 2. [`interval`] — signed 64-bit intervals with join, meet and the
//!    widening operator that guarantees termination of the fixpoint.
//! 3. [`absint`] — the abstract interpreter: a value domain of
//!    intervals plus stack-pointer offsets ([`AVal`]), an abstract
//!    stack that tracks spilled values through `push`/`pop`/frame
//!    slots, branch-condition refinement (including conditions
//!    materialised through `setcc`, the shape the DCL compiler emits
//!    for loop bounds), and an effective-address range evaluator for
//!    base+index*scale operands.
//!
//! # Soundness preconditions
//!
//! The analysis models only the control flow visible in the CFG. That
//! is sound **only when policy P5 (CFI) is enforced on the same
//! binary**: the shadow stack pins every `ret` to its dynamic call
//! site and the branch-table check pins every indirect jump/call to
//! the declared target set, which are exactly the edges the CFG
//! contains. The core crate therefore only consults this analysis when
//! `cfi` is active; callers embedding the crate elsewhere must uphold
//! the same invariant. Within that assumption every transfer function
//! over-approximates the wrapping two's-complement semantics of
//! `deflection_sgx_sim::Cpu` — any operation whose concrete result
//! could wrap, fault or depend on untracked state goes to `Top`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cfg;
pub mod interval;

pub use absint::{AVal, Analysis, AnalysisConfig};
pub use cfg::{Block, Cfg, Edge, EdgeKind};
pub use interval::Interval;
