//! The CPU interpreter: executes one instruction at a time against the
//! simulated memory, with x86-64-style semantics for flags, stack
//! operations and control flow.
//!
//! `Cpu::execute` is the one definition of instruction semantics. The
//! reference [`Cpu::step`] and the VM's trace loop both run it, and it is
//! `#[inline(always)]` (with `alu`, `push`, `pop` and [`Memory`]'s
//! single-page load/store fast path) so a straight-line trace element
//! executes with no call; faults and the rare memory cases stay out of
//! line and `#[cold]` (see DESIGN.md §5f).

use crate::mem::Memory;
use crate::Fault;
use deflection_isa::{decode, AluOp, CondCode, Flags, FpuOp, Inst, MemOperand, Reg};

/// A predecoded instruction with its control-flow successors resolved to
/// absolute addresses — the dense operand form superblock traces dispatch
/// over. Direct control flow (`Jmp`/`Jcc`/`Call`) stores precomputed
/// targets so the threaded dispatcher never re-derives `next + rel`;
/// everything else carries the decoded [`Inst`] plus its fallthrough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredInst {
    /// A straight-line instruction (or an indirect branch / terminator the
    /// trace ends at): execute `inst` whose encoding ends at `next`.
    Line {
        /// The decoded instruction.
        inst: Inst,
        /// Address of the byte after the encoding (the fallthrough pc).
        next: u64,
    },
    /// An unconditional direct jump to `target`.
    Jmp {
        /// Absolute branch target.
        target: u64,
    },
    /// A conditional direct branch with both successors resolved.
    Jcc {
        /// The branch condition.
        cc: CondCode,
        /// Absolute target when the condition holds.
        taken: u64,
        /// Fallthrough address when it does not.
        fall: u64,
    },
    /// A direct call: push `ret`, continue at `target`.
    Call {
        /// Absolute call target.
        target: u64,
        /// Return address pushed on the stack.
        ret: u64,
    },
}

/// Fetches and decodes the instruction at `pc` without executing it — the
/// decode half of [`Cpu::step`], shared with demand trace formation.
pub(crate) fn fetch_decode_at(mem: &Memory, pc: u64) -> Result<(Inst, u8), Fault> {
    let window = mem.fetch_window(pc)?;
    let (inst, len) = decode(&window, 0).map_err(|e| {
        Fault::Decode(deflection_isa::DecodeError { offset: pc as usize, kind: e.kind })
    })?;
    debug_assert!(len <= 16);
    Ok((inst, len as u8))
}

/// The fault a divide by zero (or a signed `MIN / -1`) raises; out of line
/// so the ALU's common path carries no fault construction.
#[cold]
#[inline(never)]
fn divide_error(pc: u64) -> Fault {
    Fault::DivideError { pc }
}

/// Architectural CPU state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers, indexed by [`Reg::index`].
    pub regs: [u64; 16],
    /// Arithmetic flags.
    pub flags: Flags,
    /// Program counter (virtual address).
    pub pc: u64,
}

/// What happened after executing one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvent {
    /// Execution continues at the (already updated) `pc`.
    Continue,
    /// The program executed `halt`; `rax` holds the exit value.
    Halted,
    /// A security annotation executed `abort code` (policy violation caught
    /// at runtime).
    PolicyAbort(u8),
    /// The program requested OCall service `code`; the runtime must handle
    /// it and then resume.
    Ocall(u8),
    /// The program executed the co-location probe; the VM must run the
    /// HyperRace test and put the outcome in `rax`.
    AexProbe,
}

impl Cpu {
    /// Creates a CPU with all registers zero and `pc` at `entry`.
    #[must_use]
    pub fn new(entry: u64) -> Self {
        Cpu { regs: [0; 16], flags: Flags::default(), pc: entry }
    }

    /// Reads a register.
    #[must_use]
    #[inline]
    pub fn get(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Writes a register.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u64) {
        self.regs[r.index() as usize] = v;
    }

    /// Computes the effective address of a memory operand.
    #[must_use]
    #[inline]
    pub fn effective_address(&self, mem: &MemOperand) -> u64 {
        let mut addr = mem.disp as i64 as u64;
        if let Some(base) = mem.base {
            addr = addr.wrapping_add(self.get(base));
        }
        if let Some((index, scale)) = mem.index {
            addr = addr.wrapping_add(self.get(index).wrapping_mul(scale as u64));
        }
        addr
    }

    /// Fetches, decodes and executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on decode failures, permission violations,
    /// unmapped accesses and divide errors. On a fault `pc` still points at
    /// the faulting instruction.
    pub fn step(&mut self, mem: &mut Memory) -> Result<StepEvent, Fault> {
        let (inst, len) = fetch_decode_at(mem, self.pc)?;
        self.execute(inst, self.pc.wrapping_add(len as u64), mem)
    }

    /// Executes one predecoded trace element. Must only be called when `pc`
    /// sits at the address the element was decoded from: direct branches
    /// skip the generic `next + rel` computation and assign their resolved
    /// successor directly, which is only equivalent under that invariant.
    ///
    /// # Errors
    ///
    /// Same fault surface as [`Cpu::execute`]; on a fault `pc` still points
    /// at the faulting instruction (a faulting `Call` push propagates before
    /// `pc` is updated, exactly like the interpreted path).
    #[inline(always)]
    pub(crate) fn execute_pred(
        &mut self,
        op: &PredInst,
        mem: &mut Memory,
    ) -> Result<StepEvent, Fault> {
        match *op {
            PredInst::Line { inst, next } => self.execute(inst, next, mem),
            PredInst::Jmp { target } => {
                self.pc = target;
                Ok(StepEvent::Continue)
            }
            PredInst::Jcc { cc, taken, fall } => {
                self.pc = if cc.eval(self.flags) { taken } else { fall };
                Ok(StepEvent::Continue)
            }
            PredInst::Call { target, ret } => {
                self.push(ret, mem)?;
                self.pc = target;
                Ok(StepEvent::Continue)
            }
        }
    }

    #[inline(always)]
    fn push(&mut self, value: u64, mem: &mut Memory) -> Result<(), Fault> {
        let rsp = self.get(Reg::RSP).wrapping_sub(8);
        mem.store(rsp, 8, value)?;
        self.set(Reg::RSP, rsp);
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self, mem: &mut Memory) -> Result<u64, Fault> {
        let rsp = self.get(Reg::RSP);
        let v = mem.load(rsp, 8)?;
        self.set(Reg::RSP, rsp.wrapping_add(8));
        Ok(v)
    }

    #[inline(always)]
    fn alu(&mut self, op: AluOp, dst: Reg, rhs: u64) -> Result<(), Fault> {
        let lhs = self.get(dst);
        let result = match op {
            AluOp::Add => {
                let (r, carry) = lhs.overflowing_add(rhs);
                let of = ((lhs ^ r) & (rhs ^ r)) >> 63 == 1;
                self.flags = Flags { zf: r == 0, sf: r >> 63 == 1, cf: carry, of };
                r
            }
            AluOp::Sub => {
                self.flags = Flags::from_cmp(lhs, rhs);
                lhs.wrapping_sub(rhs)
            }
            AluOp::And => {
                let r = lhs & rhs;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::Or => {
                let r = lhs | rhs;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::Xor => {
                let r = lhs ^ rhs;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::Shl => {
                let r = lhs.wrapping_shl((rhs & 63) as u32);
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::Shr => {
                let r = lhs.wrapping_shr((rhs & 63) as u32);
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::Sar => {
                let r = (lhs as i64).wrapping_shr((rhs & 63) as u32) as u64;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::Mul => {
                let r = lhs.wrapping_mul(rhs);
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::UDiv => {
                if rhs == 0 {
                    return Err(divide_error(self.pc));
                }
                let r = lhs / rhs;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::SDiv => {
                let (l, r64) = (lhs as i64, rhs as i64);
                if r64 == 0 || (l == i64::MIN && r64 == -1) {
                    return Err(divide_error(self.pc));
                }
                let r = (l / r64) as u64;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::URem => {
                if rhs == 0 {
                    return Err(divide_error(self.pc));
                }
                let r = lhs % rhs;
                self.flags = Flags::from_logic(r);
                r
            }
            AluOp::SRem => {
                let (l, r64) = (lhs as i64, rhs as i64);
                if r64 == 0 || (l == i64::MIN && r64 == -1) {
                    return Err(divide_error(self.pc));
                }
                let r = (l % r64) as u64;
                self.flags = Flags::from_logic(r);
                r
            }
        };
        self.set(dst, result);
        Ok(())
    }

    /// Executes an already-decoded instruction whose encoding ends at
    /// `next`. Callers (the step path and the trace loop) must pass the
    /// `(inst, next)` pair the bytes at `pc` currently decode to.
    #[inline(always)]
    pub(crate) fn execute(
        &mut self,
        inst: Inst,
        next: u64,
        mem: &mut Memory,
    ) -> Result<StepEvent, Fault> {
        let rel_target = |rel: i32| next.wrapping_add(rel as i64 as u64);
        match inst {
            Inst::Nop => {}
            Inst::Halt => return Ok(StepEvent::Halted),
            Inst::Abort { code } => return Ok(StepEvent::PolicyAbort(code)),
            Inst::Ocall { code } => {
                self.pc = next;
                return Ok(StepEvent::Ocall(code));
            }
            Inst::AexProbe => {
                self.pc = next;
                return Ok(StepEvent::AexProbe);
            }
            Inst::MovRR { dst, src } => {
                let v = self.get(src);
                self.set(dst, v);
            }
            Inst::MovRI { dst, imm } => self.set(dst, imm),
            Inst::Lea { dst, mem: m } => {
                let ea = self.effective_address(&m);
                self.set(dst, ea);
            }
            Inst::Load { dst, mem: m } => {
                let v = mem.load(self.effective_address(&m), 8)?;
                self.set(dst, v);
            }
            Inst::Load8 { dst, mem: m } => {
                let v = mem.load(self.effective_address(&m), 1)?;
                self.set(dst, v);
            }
            Inst::Store { mem: m, src } => {
                mem.store(self.effective_address(&m), 8, self.get(src))?;
            }
            Inst::Store8 { mem: m, src } => {
                mem.store(self.effective_address(&m), 1, self.get(src) & 0xFF)?;
            }
            Inst::StoreImm { mem: m, imm } => {
                mem.store(self.effective_address(&m), 8, imm as i64 as u64)?;
            }
            Inst::CmpMem { reg, mem: m } => {
                let rhs = mem.load(self.effective_address(&m), 8)?;
                self.flags = Flags::from_cmp(self.get(reg), rhs);
            }
            Inst::AluRR { op, dst, src } => {
                let rhs = self.get(src);
                self.alu(op, dst, rhs)?;
            }
            Inst::AluRI { op, dst, imm } => self.alu(op, dst, imm as u64)?,
            Inst::Neg { reg } => {
                let v = (self.get(reg) as i64).wrapping_neg() as u64;
                self.flags = Flags::from_logic(v);
                self.set(reg, v);
            }
            Inst::Not { reg } => {
                let v = !self.get(reg);
                self.set(reg, v);
            }
            Inst::CmpRR { lhs, rhs } => {
                self.flags = Flags::from_cmp(self.get(lhs), self.get(rhs));
            }
            Inst::CmpRI { lhs, imm } => {
                self.flags = Flags::from_cmp(self.get(lhs), imm as u64);
            }
            Inst::TestRR { lhs, rhs } => {
                self.flags = Flags::from_logic(self.get(lhs) & self.get(rhs));
            }
            Inst::SetCc { cc, dst } => {
                let v = cc.eval(self.flags) as u64;
                self.set(dst, v);
            }
            Inst::Jmp { rel } => {
                self.pc = rel_target(rel);
                return Ok(StepEvent::Continue);
            }
            Inst::Jcc { cc, rel } => {
                self.pc = if cc.eval(self.flags) { rel_target(rel) } else { next };
                return Ok(StepEvent::Continue);
            }
            Inst::JmpInd { reg } => {
                self.pc = self.get(reg);
                return Ok(StepEvent::Continue);
            }
            Inst::Call { rel } => {
                self.push(next, mem)?;
                self.pc = rel_target(rel);
                return Ok(StepEvent::Continue);
            }
            Inst::CallInd { reg } => {
                let target = self.get(reg);
                self.push(next, mem)?;
                self.pc = target;
                return Ok(StepEvent::Continue);
            }
            Inst::Ret => {
                self.pc = self.pop(mem)?;
                return Ok(StepEvent::Continue);
            }
            Inst::Push { reg } => {
                let v = self.get(reg);
                self.push(v, mem)?;
            }
            Inst::Pop { reg } => {
                let v = self.pop(mem)?;
                self.set(reg, v);
            }
            Inst::FpuRR { op, dst, src } => {
                let a = f64::from_bits(self.get(dst));
                let b = f64::from_bits(self.get(src));
                let r = match op {
                    FpuOp::FAdd => a + b,
                    FpuOp::FSub => a - b,
                    FpuOp::FMul => a * b,
                    FpuOp::FDiv => a / b,
                };
                self.set(dst, r.to_bits());
            }
            Inst::FCmp { lhs, rhs } => {
                self.flags =
                    Flags::from_fcmp(f64::from_bits(self.get(lhs)), f64::from_bits(self.get(rhs)));
            }
            Inst::CvtIF { dst, src } => {
                let v = self.get(src) as i64 as f64;
                self.set(dst, v.to_bits());
            }
            Inst::CvtFI { dst, src } => {
                // Rust's `as` conversion saturates, matching the documented
                // semantics.
                let v = f64::from_bits(self.get(src)) as i64;
                self.set(dst, v as u64);
            }
            Inst::FSqrt { dst, src } => {
                let v = f64::from_bits(self.get(src)).sqrt();
                self.set(dst, v.to_bits());
            }
            Inst::FNeg { dst, src } => {
                let v = -f64::from_bits(self.get(src));
                self.set(dst, v.to_bits());
            }
        }
        self.pc = next;
        Ok(StepEvent::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EnclaveLayout, MemConfig};
    use deflection_isa::{encode_program, CondCode};

    fn setup(prog: &[Inst]) -> (Cpu, Memory, Vec<usize>) {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        let (bytes, offsets) = encode_program(prog);
        mem.poke_bytes(layout.code.start, &bytes).unwrap();
        let mut cpu = Cpu::new(layout.code.start);
        cpu.set(Reg::RSP, layout.initial_rsp());
        (cpu, mem, offsets)
    }

    fn run_to_halt(cpu: &mut Cpu, mem: &mut Memory) -> u64 {
        for _ in 0..100_000 {
            match cpu.step(mem).unwrap() {
                StepEvent::Continue => {}
                StepEvent::Halted => return cpu.get(Reg::RAX),
                other => panic!("unexpected event {other:?}"),
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn arithmetic_and_halt() {
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: 40 },
            Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 2 },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 42);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // rax = 0; rcx = 5; loop { rax += rcx; rcx -= 1; } while rcx != 0
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: 0 },
            Inst::MovRI { dst: Reg::RCX, imm: 5 },
            Inst::AluRR { op: AluOp::Add, dst: Reg::RAX, src: Reg::RCX }, // loop head
            Inst::AluRI { op: AluOp::Sub, dst: Reg::RCX, imm: 1 },
            Inst::CmpRI { lhs: Reg::RCX, imm: 0 },
            Inst::Jcc { cc: CondCode::Ne, rel: -(2 + 10 + 10 + 5) },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 15);
    }

    #[test]
    fn call_and_ret() {
        // main: call f; halt --- f: mov rax, 7; ret
        let prog = [
            Inst::Call { rel: 1 },                 // next=5, target=6
            Inst::Halt,                            // 5
            Inst::MovRI { dst: Reg::RAX, imm: 7 }, // 6
            Inst::Ret,
        ];
        let (mut cpu, mut mem, _) = setup(&prog);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 7);
    }

    #[test]
    fn push_pop_roundtrip_and_rsp_motion() {
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RBX, imm: 0x1234 },
            Inst::Push { reg: Reg::RBX },
            Inst::MovRI { dst: Reg::RBX, imm: 0 },
            Inst::Pop { reg: Reg::RAX },
            Inst::Halt,
        ]);
        let rsp0 = cpu.get(Reg::RSP);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 0x1234);
        assert_eq!(cpu.get(Reg::RSP), rsp0);
    }

    #[test]
    fn memory_load_store_with_sib() {
        let layout = EnclaveLayout::new(MemConfig::small());
        let heap = layout.heap.start;
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RDI, imm: heap },
            Inst::MovRI { dst: Reg::RCX, imm: 3 },
            Inst::MovRI { dst: Reg::RAX, imm: 99 },
            // [rdi + rcx*8 + 16]
            Inst::Store { mem: MemOperand::base_index(Reg::RDI, Reg::RCX, 8, 16), src: Reg::RAX },
            Inst::Load { dst: Reg::RBX, mem: MemOperand::base_index(Reg::RDI, Reg::RCX, 8, 16) },
            Inst::MovRR { dst: Reg::RAX, src: Reg::RBX },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 99);
        assert_eq!(mem.load(heap + 3 * 8 + 16, 8).unwrap(), 99);
    }

    #[test]
    fn byte_ops_zero_extend() {
        let layout = EnclaveLayout::new(MemConfig::small());
        let heap = layout.heap.start;
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RDI, imm: heap },
            Inst::MovRI { dst: Reg::RAX, imm: 0x1FF }, // only 0xFF stored
            Inst::Store8 { mem: MemOperand::base_disp(Reg::RDI, 0), src: Reg::RAX },
            Inst::MovRI { dst: Reg::RAX, imm: 0 },
            Inst::Load8 { dst: Reg::RAX, mem: MemOperand::base_disp(Reg::RDI, 0) },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 0xFF);
    }

    #[test]
    fn setcc_materializes_comparison() {
        use deflection_isa::CondCode;
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RBX, imm: 3 },
            Inst::MovRI { dst: Reg::RCX, imm: 5 },
            Inst::CmpRR { lhs: Reg::RBX, rhs: Reg::RCX },
            Inst::SetCc { cc: CondCode::L, dst: Reg::RAX },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 1);
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RBX, imm: 9 },
            Inst::MovRI { dst: Reg::RCX, imm: 5 },
            Inst::CmpRR { lhs: Reg::RBX, rhs: Reg::RCX },
            Inst::SetCc { cc: CondCode::L, dst: Reg::RAX },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 0);
    }

    #[test]
    fn divide_by_zero_faults() {
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: 10 },
            Inst::MovRI { dst: Reg::RBX, imm: 0 },
            Inst::AluRR { op: AluOp::UDiv, dst: Reg::RAX, src: Reg::RBX },
            Inst::Halt,
        ]);
        cpu.step(&mut mem).unwrap();
        cpu.step(&mut mem).unwrap();
        assert!(matches!(cpu.step(&mut mem), Err(Fault::DivideError { .. })));
    }

    #[test]
    fn signed_division_overflow_faults() {
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: i64::MIN as u64 },
            Inst::MovRI { dst: Reg::RBX, imm: -1i64 as u64 },
            Inst::AluRR { op: AluOp::SDiv, dst: Reg::RAX, src: Reg::RBX },
            Inst::Halt,
        ]);
        cpu.step(&mut mem).unwrap();
        cpu.step(&mut mem).unwrap();
        assert!(matches!(cpu.step(&mut mem), Err(Fault::DivideError { .. })));
    }

    #[test]
    fn float_pipeline() {
        // (3.0 + 4.0) * 2.0 = 14.0 -> as int
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: 3.0f64.to_bits() },
            Inst::MovRI { dst: Reg::RBX, imm: 4.0f64.to_bits() },
            Inst::FpuRR { op: FpuOp::FAdd, dst: Reg::RAX, src: Reg::RBX },
            Inst::MovRI { dst: Reg::RCX, imm: 2.0f64.to_bits() },
            Inst::FpuRR { op: FpuOp::FMul, dst: Reg::RAX, src: Reg::RCX },
            Inst::CvtFI { dst: Reg::RAX, src: Reg::RAX },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 14);
    }

    #[test]
    fn fsqrt_and_fneg() {
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: 81.0f64.to_bits() },
            Inst::FSqrt { dst: Reg::RAX, src: Reg::RAX },
            Inst::FNeg { dst: Reg::RAX, src: Reg::RAX },
            Inst::Halt,
        ]);
        run_to_halt(&mut cpu, &mut mem);
        assert_eq!(f64::from_bits(cpu.get(Reg::RAX)), -9.0);
    }

    #[test]
    fn cvt_fi_saturates() {
        let (mut cpu, mut mem, _) = setup(&[
            Inst::MovRI { dst: Reg::RAX, imm: 1e300f64.to_bits() },
            Inst::CvtFI { dst: Reg::RAX, src: Reg::RAX },
            Inst::Halt,
        ]);
        assert_eq!(run_to_halt(&mut cpu, &mut mem), i64::MAX as u64);
    }

    #[test]
    fn stack_overflow_hits_guard_page() {
        // Point RSP at the bottom of the stack; one more push lands on the
        // guard page and faults — the paper's implicit-RSP protection.
        let layout = EnclaveLayout::new(MemConfig::small());
        let (mut cpu, mut mem, _) = setup(&[Inst::Push { reg: Reg::RAX }, Inst::Halt]);
        cpu.set(Reg::RSP, layout.stack.start);
        assert!(matches!(cpu.step(&mut mem), Err(Fault::WriteViolation { .. })));
    }

    #[test]
    fn indirect_jump_goes_to_register_value() {
        let prog = [
            Inst::MovRI { dst: Reg::RAX, imm: 0 }, // patched below
            Inst::JmpInd { reg: Reg::RAX },
            Inst::Halt, // skipped
            Inst::MovRI { dst: Reg::RAX, imm: 5 },
            Inst::Halt,
        ];
        let layout = EnclaveLayout::new(MemConfig::small());
        let (bytes, offsets) = encode_program(&prog);
        let mut mem = Memory::new(layout.clone());
        let mut patched = bytes.clone();
        let target = layout.code.start + offsets[3] as u64;
        patched[2..10].copy_from_slice(&target.to_le_bytes());
        mem.poke_bytes(layout.code.start, &patched).unwrap();
        let mut cpu = Cpu::new(layout.code.start);
        cpu.set(Reg::RSP, layout.initial_rsp());
        assert_eq!(run_to_halt(&mut cpu, &mut mem), 5);
    }

    #[test]
    fn ocall_event_reports_code_and_advances_pc() {
        let (mut cpu, mut mem, offsets) = setup(&[Inst::Ocall { code: 1 }, Inst::Halt]);
        let ev = cpu.step(&mut mem).unwrap();
        assert_eq!(ev, StepEvent::Ocall(1));
        let layout = EnclaveLayout::new(MemConfig::small());
        assert_eq!(cpu.pc, layout.code.start + offsets[1] as u64);
    }

    #[test]
    fn abort_reports_policy_code() {
        let (mut cpu, mut mem, _) = setup(&[Inst::Abort { code: 2 }]);
        assert_eq!(cpu.step(&mut mem).unwrap(), StepEvent::PolicyAbort(2));
    }

    #[test]
    fn executing_heap_data_faults() {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        let mut cpu = Cpu::new(layout.heap.start);
        assert!(matches!(cpu.step(&mut mem), Err(Fault::NotExecutable { .. })));
    }

    #[test]
    fn decode_fault_reports_pc() {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        mem.poke_bytes(layout.code.start, &[0xFF]).unwrap();
        let mut cpu = Cpu::new(layout.code.start);
        match cpu.step(&mut mem) {
            Err(Fault::Decode(e)) => assert_eq!(e.offset as u64, layout.code.start),
            other => panic!("expected decode fault, got {other:?}"),
        }
    }
}
