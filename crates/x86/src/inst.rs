//! The decoded-instruction representation and its architectural effects.

use crate::flags;
use crate::mnemonic::Mnemonic;
use crate::operand::{Mem, Operand};
use crate::reg::{Reg, Width};
use facile_util::SmallVec;
use std::fmt;

/// A fully decoded (or assembled) instruction.
///
/// Instances are produced by [`crate::decode`] or [`crate::encode`]; both
/// fill in the encoding metadata (`len`, `opcode_offset`, `has_lcp`) that the
/// front-end models depend on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The instruction mnemonic.
    pub mnemonic: Mnemonic,
    /// Explicit operands, in Intel (destination-first) order.
    pub operands: Vec<Operand>,
    /// Total encoded length in bytes (1..=15).
    pub len: u8,
    /// Offset of the first *nominal opcode* byte within the instruction,
    /// i.e. the first byte that is not a legacy or REX prefix. (For
    /// VEX-encoded instructions this is the offset of the VEX prefix, which
    /// predecoders treat as the start of the opcode.)
    pub opcode_offset: u8,
    /// Whether the instruction has a length-changing prefix (a `0x66`
    /// operand-size override that changes the immediate size), which incurs
    /// a predecoder penalty.
    pub has_lcp: bool,
}

/// The architectural reads and writes of one instruction.
///
/// Memory is described structurally (the [`Mem`] operand plus load/store
/// direction); the registers feeding address generation are included in
/// [`Effects::reg_reads`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// Registers read (explicit, implicit, and address registers).
    /// Inline up to 6 entries — enough for every decodable form (the
    /// worst case, an indexed RMW with implicit operands, reads 5).
    pub reg_reads: SmallVec<Reg, 6>,
    /// Registers written.
    pub reg_writes: SmallVec<Reg, 6>,
    /// Flag groups read (see [`crate::flags`]).
    pub flags_read: u8,
    /// Flag groups written.
    pub flags_written: u8,
    /// Whether the instruction loads from memory.
    pub loads: bool,
    /// Whether the instruction stores to memory.
    pub stores: bool,
    /// The memory operand, if any.
    pub mem: Option<Mem>,
}

/// How an explicit destination operand participates in data flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DstKind {
    /// Destination is written only (`mov`, `lea`, most vector moves).
    Write,
    /// Destination is read and written (`add`, `cmov`, SSE two-operand ops).
    ReadWrite,
    /// There is no register/memory destination (`cmp`, `test`, branches).
    None,
}

impl Inst {
    /// Create an instruction value without encoding metadata. Prefer
    /// [`Block::assemble`](crate::Block::assemble); this is mainly useful in tests.
    #[must_use]
    pub fn synthetic(mnemonic: Mnemonic, operands: Vec<Operand>) -> Inst {
        Inst {
            mnemonic,
            operands,
            len: 0,
            opcode_offset: 0,
            has_lcp: false,
        }
    }

    /// The memory operand, if the instruction has one.
    #[must_use]
    pub fn mem_operand(&self) -> Option<Mem> {
        self.operands.iter().find_map(|o| o.mem())
    }

    /// Whether this instruction is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.mnemonic.is_branch()
    }

    /// Byte offset one past the last byte, given the instruction start.
    #[must_use]
    pub fn end_offset(&self, start: usize) -> usize {
        start + self.len as usize
    }

    /// Whether this instruction is a dependency-breaking *zero idiom*
    /// (e.g. `xor eax, eax`, `pxor xmm0, xmm0`): the destination is written
    /// without depending on the source values.
    #[must_use]
    pub fn is_zero_idiom(&self) -> bool {
        use Mnemonic::*;
        let zeroing = matches!(
            self.mnemonic,
            Xor | Sub
                | Pxor
                | Xorps
                | Xorpd
                | Psubb
                | Psubw
                | Psubd
                | Psubq
                | Pcmpgtb
                | Pcmpgtw
                | Pcmpgtd
                | Vpxor
                | Vxorps
        );
        zeroing && self.same_two_regs()
    }

    /// Whether this is a dependency-breaking *ones idiom* (`pcmpeqX x, x`).
    /// It breaks the dependence on its sources but still occupies an
    /// execution port, unlike most zero idioms.
    #[must_use]
    pub fn is_ones_idiom(&self) -> bool {
        use Mnemonic::*;
        matches!(self.mnemonic, Pcmpeqb | Pcmpeqw | Pcmpeqd) && self.same_two_regs()
    }

    fn same_two_regs(&self) -> bool {
        match self.operands.as_slice() {
            [Operand::Reg(a), Operand::Reg(b)] => a == b,
            _ => false,
        }
    }

    /// Whether this is a register-to-register move that is a *candidate* for
    /// move elimination by the renamer (whether it is actually eliminated is
    /// microarchitecture-specific).
    #[must_use]
    pub fn is_reg_reg_move(&self) -> bool {
        use Mnemonic::*;
        let movlike = matches!(
            self.mnemonic,
            Mov | Movaps | Movups | Movdqa | Movdqu | Vmovaps | Vmovups | Vmovdqa | Vmovdqu
        );
        if !movlike {
            return false;
        }
        match self.operands.as_slice() {
            [Operand::Reg(d), Operand::Reg(s)] => {
                // Only full-width moves are eliminable: 32/64-bit GPR moves
                // and whole-register vector moves.
                if self.mnemonic == Mov {
                    matches!(d.width(), Width::W32 | Width::W64) && d.width() == s.width()
                } else {
                    true
                }
            }
            _ => false,
        }
    }

    /// How the first explicit operand participates in data flow.
    fn dst_kind(&self) -> DstKind {
        use Mnemonic::*;
        match self.mnemonic {
            // Pure writes.
            Mov | Movzx | Movsx | Movsxd | Lea | Movaps | Movups | Movdqa | Movdqu | Movd
            | Movq | Pshufd | Sqrtps | Sqrtpd | Sqrtss | Sqrtsd | Cvttss2si | Cvttsd2si
            | Cvtps2pd | Cvtpd2ps | Movmskps | Pmovmskb | Setcc(_) | Bsf | Bsr | Popcnt | Lzcnt
            | Tzcnt | Pop | Vaddps | Vaddpd | Vsubps | Vsubpd | Vmulps | Vmulpd | Vdivps
            | Vdivpd | Vxorps | Vandps | Vorps | Vminps | Vmaxps | Vsqrtps | Vaddss | Vaddsd
            | Vmulss | Vmulsd | Vmovaps | Vmovups | Vmovdqa | Vmovdqu | Vpaddd | Vpaddq
            | Vpsubd | Vpand | Vpor | Vpxor | Vpmulld | Vshufps | Vbroadcastss | Vextractf128 => {
                DstKind::Write
            }
            // imul has both a 2-operand RMW form and a 3-operand write form.
            Imul => {
                if self.operands.len() == 3 {
                    DstKind::Write
                } else {
                    DstKind::ReadWrite
                }
            }
            // No destination.
            Cmp | Test | Bt | Ucomiss | Ucomisd | Jmp | Jcc(_) | Nop | Push | Cdq | Cqo | Mul
            | Div | Idiv => DstKind::None,
            // Everything else reads and writes its destination. This
            // includes `cmovcc` (dest is preserved when the condition is
            // false), `movss/movsd xmm, xmm` and `cvtsi2ss/sd` (they merge
            // into the destination), FMA (dest is an addend), and all
            // two-operand SSE arithmetic.
            _ => {
                // movss/movsd only merge in their register-register form;
                // the load form zeroes the upper bits and the store form is
                // a plain store — both are pure writes.
                if matches!(self.mnemonic, Movss | Movsd)
                    && self.operands.iter().any(|o| o.is_mem())
                {
                    DstKind::Write
                } else {
                    DstKind::ReadWrite
                }
            }
        }
    }

    /// Flag groups (read, written) by this instruction.
    #[must_use]
    pub fn flag_effects(&self) -> (u8, u8) {
        use Mnemonic::*;
        match self.mnemonic {
            Add | Sub | Cmp | Neg => (0, flags::ALL),
            Adc | Sbb => (flags::C, flags::ALL),
            And | Or | Xor | Test => (0, flags::ALL),
            Inc | Dec => (0, flags::O | flags::SPAZ),
            Shl | Shr | Sar => (0, flags::ALL),
            Rol | Ror => (0, flags::C | flags::O),
            Shld | Shrd => (0, flags::ALL),
            Mul | Imul => (0, flags::ALL),
            // Division leaves flags undefined; hardware still renames the
            // groups, so we model them as written.
            Div | Idiv => (0, flags::ALL),
            Bsf | Bsr => (0, flags::SPAZ),
            Bt => (0, flags::C),
            Popcnt | Lzcnt | Tzcnt => (0, flags::ALL),
            Ucomiss | Ucomisd => (0, flags::ALL),
            Jcc(c) => (c.flags_read(), 0),
            Setcc(c) | Cmovcc(c) => (c.flags_read(), 0),
            _ => (0, 0),
        }
    }

    /// Compute the full architectural [`Effects`] of this instruction.
    ///
    /// Zero/ones idioms report no register or flag *reads* (they are
    /// dependency-breaking), but they still report their writes.
    #[must_use]
    pub fn effects(&self) -> Effects {
        use Mnemonic::*;
        let mut e = Effects::default();
        let (fr, fw) = self.flag_effects();
        e.flags_read = fr;
        e.flags_written = fw;

        // Memory operand: loads/stores plus address-register reads.
        if let Some(m) = self.mem_operand() {
            e.mem = Some(m);
            e.reg_reads.extend(m.addr_regs());
            let mem_is_dst = self.operands.first().is_some_and(|o| o.is_mem());
            match self.dst_kind() {
                _ if self.mnemonic == Lea => {} // lea only computes the address
                DstKind::Write if mem_is_dst => e.stores = true,
                DstKind::ReadWrite if mem_is_dst => {
                    e.loads = true;
                    e.stores = true;
                }
                DstKind::None if self.mnemonic == Push => e.stores = true,
                _ => e.loads = true,
            }
        }

        // Explicit register operands.
        for (i, op) in self.operands.iter().enumerate() {
            let Operand::Reg(r) = *op else { continue };
            if i == 0 {
                match self.dst_kind() {
                    DstKind::Write => {
                        e.reg_writes.push(r);
                        // Partial-width writes merge into the old value.
                        if r.write_merges() {
                            e.reg_reads.push(r);
                        }
                    }
                    DstKind::ReadWrite => {
                        e.reg_writes.push(r);
                        e.reg_reads.push(r);
                    }
                    DstKind::None => e.reg_reads.push(r),
                }
            } else {
                e.reg_reads.push(r);
            }
        }

        // Implicit operands.
        match self.mnemonic {
            Mul | Div | Idiv => {
                let w = self.opsize_width();
                e.reg_reads.push(Reg::Gpr { num: 0, width: w });
                if matches!(self.mnemonic, Div | Idiv) {
                    e.reg_reads.push(Reg::Gpr { num: 2, width: w });
                }
                e.reg_writes.push(Reg::Gpr { num: 0, width: w });
                e.reg_writes.push(Reg::Gpr { num: 2, width: w });
            }
            Cdq => {
                e.reg_reads.push(Reg::gpr(0, Width::W32));
                e.reg_writes.push(Reg::gpr(2, Width::W32));
            }
            Cqo => {
                e.reg_reads.push(Reg::gpr(0, Width::W64));
                e.reg_writes.push(Reg::gpr(2, Width::W64));
            }
            Push | Pop => {
                e.reg_reads.push(Reg::gpr(4, Width::W64));
                e.reg_writes.push(Reg::gpr(4, Width::W64));
                if self.mnemonic == Push && !self.operands[0].is_mem() {
                    // handled above for reg operand; mem handled via loads
                } else if self.mnemonic == Pop {
                    e.loads = true;
                    if e.mem.is_none() {
                        e.mem = Some(Mem::base(Reg::gpr(4, Width::W64), Width::W64));
                    }
                }
                if self.mnemonic == Push {
                    e.stores = true;
                    if e.mem.is_none() {
                        e.mem = Some(Mem::base(Reg::gpr(4, Width::W64), Width::W64));
                    }
                }
            }
            Xchg => {
                // both operands are read and written
                if let Some(Operand::Reg(r)) = self.operands.get(1) {
                    e.reg_writes.push(*r);
                }
            }
            _ => {}
        }

        // Dependency-breaking idioms read nothing.
        if self.is_zero_idiom() || self.is_ones_idiom() {
            e.reg_reads.clear();
            e.flags_read = 0;
        }

        e.reg_reads.sort();
        e.reg_reads.dedup();
        e.reg_writes.sort();
        e.reg_writes.dedup();
        e
    }

    /// The operand-size width of the instruction, derived from its first
    /// register operand (64-bit if none is present).
    #[must_use]
    pub fn opsize_width(&self) -> Width {
        self.operands
            .iter()
            .find_map(|o| o.reg())
            .map_or(Width::W64, Reg::width)
    }
}

/// Accounting: an instruction's only heap storage is its operand list
/// (operands are `Copy` leaves).
impl facile_util::HeapSize for Inst {
    fn heap_bytes(&self) -> usize {
        self.operands.capacity() * std::mem::size_of::<Operand>()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic)?;
        for (i, op) in self.operands.iter().enumerate() {
            if i == 0 {
                write!(f, " {op}")?;
            } else {
                write!(f, ", {op}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnemonic::Cond;
    use crate::reg::names::*;

    fn inst(m: Mnemonic, ops: Vec<Operand>) -> Inst {
        Inst::synthetic(m, ops)
    }

    #[test]
    fn add_reg_reg_effects() {
        let i = inst(Mnemonic::Add, vec![RAX.into(), RCX.into()]);
        let e = i.effects();
        assert_eq!(e.reg_writes, vec![RAX]);
        assert!(e.reg_reads.contains(&RAX) && e.reg_reads.contains(&RCX));
        assert_eq!(e.flags_written, flags::ALL);
        assert!(!e.loads && !e.stores);
    }

    #[test]
    fn mov_is_write_only() {
        let i = inst(Mnemonic::Mov, vec![RAX.into(), RCX.into()]);
        let e = i.effects();
        assert_eq!(e.reg_reads, vec![RCX]);
        assert_eq!(e.reg_writes, vec![RAX]);
    }

    #[test]
    fn partial_write_merges() {
        let i = inst(Mnemonic::Mov, vec![AL.into(), CL.into()]);
        let e = i.effects();
        // An 8-bit mov destination merges: reads the old al (full rax).
        assert!(e.reg_reads.contains(&AL));
        // A 32-bit mov zero-extends: no merge read.
        let i = inst(Mnemonic::Mov, vec![EAX.into(), ECX.into()]);
        assert!(!i.effects().reg_reads.contains(&EAX));
    }

    #[test]
    fn zero_idiom_breaks_deps() {
        let i = inst(Mnemonic::Xor, vec![EAX.into(), EAX.into()]);
        assert!(i.is_zero_idiom());
        let e = i.effects();
        assert!(e.reg_reads.is_empty());
        assert_eq!(e.reg_writes, vec![EAX]);
        assert_eq!(e.flags_written, flags::ALL);
        // xor with distinct registers is not an idiom
        let i = inst(Mnemonic::Xor, vec![EAX.into(), ECX.into()]);
        assert!(!i.is_zero_idiom());
        assert!(!i.effects().reg_reads.is_empty());
    }

    #[test]
    fn load_effects() {
        let m = Mem::base_index(RSI, RDI, 4, 8, Width::W64);
        let i = inst(Mnemonic::Mov, vec![RAX.into(), m.into()]);
        let e = i.effects();
        assert!(e.loads && !e.stores);
        assert!(e.reg_reads.contains(&RSI) && e.reg_reads.contains(&RDI));
        assert_eq!(e.reg_writes, vec![RAX]);
    }

    #[test]
    fn store_effects() {
        let m = Mem::base(RDI, Width::W32);
        let i = inst(Mnemonic::Mov, vec![m.into(), EAX.into()]);
        let e = i.effects();
        assert!(e.stores && !e.loads);
        assert!(e.reg_reads.contains(&EAX) && e.reg_reads.contains(&RDI));
    }

    #[test]
    fn rmw_memory_destination() {
        let m = Mem::base(RDI, Width::W32);
        let i = inst(Mnemonic::Add, vec![m.into(), EAX.into()]);
        let e = i.effects();
        assert!(e.stores && e.loads);
    }

    #[test]
    fn lea_does_not_load() {
        let m = Mem::base_index(RAX, RCX, 2, 4, Width::W64);
        let i = inst(Mnemonic::Lea, vec![RDX.into(), m.into()]);
        let e = i.effects();
        assert!(!e.loads && !e.stores);
        assert!(e.reg_reads.contains(&RAX) && e.reg_reads.contains(&RCX));
        assert_eq!(e.reg_writes, vec![RDX]);
    }

    #[test]
    fn cmov_reads_dest_and_flags() {
        let i = inst(Mnemonic::Cmovcc(Cond::E), vec![RAX.into(), RCX.into()]);
        let e = i.effects();
        assert!(e.reg_reads.contains(&RAX));
        assert_eq!(e.flags_read, flags::SPAZ);
    }

    #[test]
    fn inc_preserves_carry() {
        let i = inst(Mnemonic::Inc, vec![RAX.into()]);
        let (_, fw) = i.flag_effects();
        assert_eq!(fw & flags::C, 0);
        assert_ne!(fw & flags::SPAZ, 0);
    }

    #[test]
    fn div_implicit_operands() {
        let i = inst(Mnemonic::Div, vec![RCX.into()]);
        let e = i.effects();
        assert!(e.reg_reads.contains(&RAX) && e.reg_reads.contains(&RDX));
        assert!(e.reg_writes.contains(&RAX) && e.reg_writes.contains(&RDX));
    }

    #[test]
    fn push_pop_stack_effects() {
        let i = inst(Mnemonic::Push, vec![RAX.into()]);
        let e = i.effects();
        assert!(e.stores);
        assert!(e.reg_reads.contains(&RSP) && e.reg_writes.contains(&RSP));
        let i = inst(Mnemonic::Pop, vec![RAX.into()]);
        let e = i.effects();
        assert!(e.loads);
        assert!(e.reg_writes.contains(&RAX));
    }

    #[test]
    fn movss_merge_vs_load() {
        use crate::reg::names::xmm;
        let i = inst(Mnemonic::Movss, vec![xmm(0).into(), xmm(1).into()]);
        assert!(i.effects().reg_reads.contains(&Reg::Xmm(0)));
        let m = Mem::base(RDI, Width::W32);
        let i = inst(Mnemonic::Movss, vec![xmm(0).into(), m.into()]);
        assert!(!i.effects().reg_reads.contains(&Reg::Xmm(0)));
    }

    #[test]
    fn mov_elimination_candidates() {
        assert!(inst(Mnemonic::Mov, vec![RAX.into(), RCX.into()]).is_reg_reg_move());
        assert!(inst(Mnemonic::Mov, vec![EAX.into(), ECX.into()]).is_reg_reg_move());
        assert!(!inst(Mnemonic::Mov, vec![AX.into(), CX.into()]).is_reg_reg_move());
        assert!(!inst(
            Mnemonic::Mov,
            vec![RAX.into(), Mem::base(RCX, Width::W64).into()]
        )
        .is_reg_reg_move());
        assert!(inst(
            Mnemonic::Movaps,
            vec![Reg::Xmm(1).into(), Reg::Xmm(2).into()]
        )
        .is_reg_reg_move());
    }

    #[test]
    fn fma_reads_destination() {
        let i = inst(
            Mnemonic::Vfmadd231ps,
            vec![Reg::Ymm(0).into(), Reg::Ymm(1).into(), Reg::Ymm(2).into()],
        );
        let e = i.effects();
        assert!(e.reg_reads.contains(&Reg::Ymm(0)));
        assert!(e.reg_writes.contains(&Reg::Ymm(0)));
    }

    #[test]
    fn vex_3op_write_only_dest() {
        let i = inst(
            Mnemonic::Vaddps,
            vec![Reg::Ymm(0).into(), Reg::Ymm(1).into(), Reg::Ymm(2).into()],
        );
        let e = i.effects();
        assert!(!e.reg_reads.contains(&Reg::Ymm(0)));
        assert!(e.reg_reads.contains(&Reg::Ymm(1)) && e.reg_reads.contains(&Reg::Ymm(2)));
    }

    #[test]
    fn display_format() {
        let m = Mem::base_disp(RSI, 8, Width::W64);
        let i = inst(Mnemonic::Mov, vec![RAX.into(), m.into()]);
        assert_eq!(i.to_string(), "mov rax, qword ptr [rsi+0x8]");
    }
}
