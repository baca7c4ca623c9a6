//! Capability op class: unary capability queries/moves, capability
//! arithmetic (pointer-shaped ops of Section 3), and SCR access — with
//! their `cheri_histogram` attribution and the SFU offload of the cold
//! bounds-setting ops (Section 3.3).
//!
//! Each op's CHERI semantics is stated once, as a function of one lane's
//! capability (and scalar operand), and evaluated by
//! [`super::scalar::Eval`]: a warp-uniform capability operand (data *and*
//! metadata) is computed once for every lane, anything else lane by lane.

use super::scalar::Eval;
use super::Costs;
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, RunError, Trap, TrapCause};
use crate::warp::Selection;
use cheri_cap::{bounds, CapException, CapPipe, Perms};
use simt_isa::{scr, Instr, UnaryCapOp};
use simt_regfile::{OperandVec, NULL_META};

impl Sm {
    /// Execute one capability-class instruction (always writes `rd`,
    /// sequential PC).
    ///
    /// # Errors
    ///
    /// `CSetBoundsExact` traps with `InexactBounds` when a tagged, unsealed
    /// source capability is given an unrepresentable bounds request; no lane
    /// commits on a trap (check-then-commit, as in the memory stage).
    pub(crate) fn exec_cap_class(
        &mut self,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) -> Result<(), RunError> {
        let mut bufs = self.take_bufs();
        let res = self.cap_with(&mut bufs, w, sel, instr, scalarised, costs);
        self.put_bufs(bufs);
        res?;
        self.advance_uniform(w, sel, sel.pc.wrapping_add(4), None);
        Ok(())
    }

    /// Scratch use: `a`/`am`/`b` hold irregular operands, `bm` the
    /// per-lane `CSetBoundsExact` verdicts and `r`/`rm` per-lane results,
    /// each borrowed only as written.
    fn cap_with(
        &mut self,
        bufs: &mut LaneBufs,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) -> Result<(), RunError> {
        let LaneBufs { a, am, b, bm, r, rm, spare, .. } = bufs;
        let mut ev = Eval::new(sel.mask, self.cfg.lanes, scalarised, spare);
        let (name, cd, cs1, rs2, imm) = match instr {
            Instr::CapUnary { op, rd, cs1 } => {
                let (d, m) = self.read_cap(w, cs1, a, am, costs);
                self.stats.count_cheri(Self::cap_unary_name(op), 1);
                let (v, vm) = ev.eval_cap([d, m], r, rm, |[d, m]| Self::cap_unary(op, d, m));
                if Self::cap_unary_offloads(op) {
                    self.cap_sfu_suspend(w, sel);
                }
                let is_cap =
                    matches!(op, UnaryCapOp::ClearTag | UnaryCapOp::Move | UnaryCapOp::SealEntry);
                self.writeback(w, rd, v, is_cap.then_some(vm), sel.mask, costs);
                return Ok(());
            }
            Instr::CSpecialRw { cd, scr: s, .. } => {
                self.stats.count_cheri("CSpecialRW", 1);
                let (m, d) = Self::cap_parts(self.scr_cap(sel, s));
                let meta = Some(OperandVec::Uniform(m));
                self.writeback(w, cd, OperandVec::Uniform(d), meta, sel.mask, costs);
                return Ok(());
            }
            Instr::CAndPerm { cd, cs1, rs2 } => ("CAndPerm", cd, cs1, Some(rs2), 0),
            Instr::CSetFlags { cd, cs1, rs2 } => ("CSetFlags", cd, cs1, Some(rs2), 0),
            Instr::CSetAddr { cd, cs1, rs2 } => ("CSetAddr", cd, cs1, Some(rs2), 0),
            Instr::CIncOffset { cd, cs1, rs2 } => ("CIncOffset", cd, cs1, Some(rs2), 0),
            Instr::CIncOffsetImm { cd, cs1, imm } => ("CIncOffsetImm", cd, cs1, None, imm as u32),
            Instr::CSetBounds { cd, cs1, rs2 } => ("CSetBounds", cd, cs1, Some(rs2), 0),
            Instr::CSetBoundsExact { cd, cs1, rs2 } => ("CSetBoundsExact", cd, cs1, Some(rs2), 0),
            Instr::CSetBoundsImm { cd, cs1, imm } => ("CSetBoundsImm", cd, cs1, None, imm),
            _ => unreachable!("not a capability-class instruction"),
        };
        // One lane of the binary op: source capability and scalar operand
        // (register value or immediate).
        let op = |c: CapPipe, b: u32| match instr {
            Instr::CAndPerm { .. } => c.and_perm(Perms::from_bits(b as u16)),
            Instr::CSetFlags { .. } => c.set_flags(b & 1 == 1),
            Instr::CSetAddr { .. } => c.set_addr(b),
            Instr::CIncOffset { .. } | Instr::CIncOffsetImm { .. } => c.inc_offset(b),
            Instr::CSetBounds { .. } | Instr::CSetBoundsImm { .. } => c.set_bounds(b).0,
            _ => c.set_bounds_exact(b),
        };
        self.stats.count_cheri(name, 1);
        let (d, m) = self.read_cap(w, cs1, a, am, costs);
        let y = match rs2 {
            Some(reg) => self.read_data(w, reg, b, costs),
            None => OperandVec::Uniform(u64::from(imm)),
        };
        if matches!(instr, Instr::CSetBoundsExact { .. }) {
            // Check phase: a tagged, unsealed source with an
            // unrepresentable request raises InexactBounds; no lane
            // commits if any lane faults.
            let inexact = ev.eval([d, m, y], false, bm, |[d, m, y]| {
                let cap = Self::cap_of(m, d);
                u64::from(cap.tag() && !cap.is_sealed() && !cap.set_bounds(y as u32).1)
            });
            let faults = ev.active().filter(|&i| inexact.lane(i) != 0).map(|i| LaneFault {
                lane: i as u32,
                cause: TrapCause::Cheri(CapException::InexactBounds),
            });
            if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults.collect()) {
                return Err(t.into());
            }
        }
        let (v, vm) = ev.eval_cap([d, m, y], r, rm, |[d, m, y]| {
            let (m, d) = Self::cap_parts(op(Self::cap_of(m, d), y as u32));
            (d, m)
        });
        if matches!(
            instr,
            Instr::CSetBounds { .. } | Instr::CSetBoundsExact { .. } | Instr::CSetBoundsImm { .. }
        ) {
            self.cap_sfu_suspend(w, sel);
        }
        self.writeback(w, cd, v, Some(vm), sel.mask, costs);
        Ok(())
    }

    /// `CSpecialRW` source: the live PCC or a special capability register.
    fn scr_cap(&self, sel: &Selection, s: u8) -> CapPipe {
        if s == scr::PCC {
            Self::cap_of(sel.pcc_meta, sel.pc as u64)
        } else {
            CapPipe::from_mem(self.scrs[s as usize])
        }
    }

    /// One lane of a unary capability op over the capability `(d, m)`:
    /// the `(data, metadata)` result (metadata is null for the queries,
    /// which write integers).
    fn cap_unary(op: UnaryCapOp, d: u64, m: u64) -> (u64, u64) {
        let cap = Self::cap_of(m, d);
        let int = |v: u64| (v, NULL_META);
        let capability = |c: CapPipe| {
            let (m, d) = Self::cap_parts(c);
            (d, m)
        };
        match op {
            UnaryCapOp::GetTag => int(cap.tag() as u64),
            UnaryCapOp::GetPerm => int(cap.perms().bits() as u64),
            UnaryCapOp::GetBase => int(cap.base() as u64),
            UnaryCapOp::GetLen => int(cap.length().min(u32::MAX as u64)),
            UnaryCapOp::GetType => int(cap.otype() as u64),
            UnaryCapOp::GetSealed => int(cap.is_sealed() as u64),
            UnaryCapOp::GetFlags => int(cap.flag() as u64),
            UnaryCapOp::GetAddr => int(cap.addr() as u64),
            UnaryCapOp::Crrl => int(bounds::representable_length(d as u32).min(u32::MAX as u64)),
            UnaryCapOp::Cram => int(bounds::representable_alignment_mask(d as u32) as u64),
            UnaryCapOp::ClearTag => capability(cap.clear_tag()),
            UnaryCapOp::Move => (d, m),
            UnaryCapOp::SealEntry => capability(cap.seal_entry()),
        }
    }

    /// Trace-histogram name of a unary capability op.
    fn cap_unary_name(op: UnaryCapOp) -> &'static str {
        match op {
            UnaryCapOp::GetTag => "CGetTag",
            UnaryCapOp::ClearTag => "CClearTag",
            UnaryCapOp::GetPerm => "CGetPerm",
            UnaryCapOp::GetBase => "CGetBase",
            UnaryCapOp::GetLen => "CGetLen",
            UnaryCapOp::GetType => "CGetType",
            UnaryCapOp::GetSealed => "CGetSealed",
            UnaryCapOp::GetFlags => "CGetFlags",
            UnaryCapOp::GetAddr => "CGetAddr",
            UnaryCapOp::Move => "CMove",
            UnaryCapOp::SealEntry => "CSealEntry",
            UnaryCapOp::Crrl => "CRRL",
            UnaryCapOp::Cram => "CRAM",
        }
    }

    /// Does this unary op round-trip the SFU when capability ops are
    /// offloaded? (The bounds-decoding queries of Section 3.3.)
    fn cap_unary_offloads(op: UnaryCapOp) -> bool {
        matches!(op, UnaryCapOp::GetBase | UnaryCapOp::GetLen | UnaryCapOp::Crrl | UnaryCapOp::Cram)
    }
}
