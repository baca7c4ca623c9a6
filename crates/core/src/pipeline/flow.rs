//! Control-flow op class: `JAL`, `JALR` and conditional branches.
//!
//! Under CHERI, `JAL`/`JALR` become `CJAL`/`CJALR`: the link register is a
//! sealed (sentry) capability and the jump target is fetch-checked against
//! the unsealed target capability, per lane. Targets are evaluated once
//! over compact operands ([`super::scalar::Eval`]): warp-invariant flow —
//! `JAL`, non-CHERI `JALR` on a uniform base, a branch on uniform operands
//! — resolves one target for the whole warp, anything else one per lane.

use super::active_lanes;
use super::scalar::Eval;
use super::Costs;
use crate::exec;
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, RunError, Trap, TrapCause};
use crate::warp::Selection;
use simt_isa::{Instr, Reg};
use simt_regfile::{OperandVec, MAX_LANES};

impl Sm {
    /// Execute one control-flow instruction.
    ///
    /// # Errors
    ///
    /// CHERI `JALR` traps when the target capability fails the fetch check.
    pub(crate) fn exec_flow_class(
        &mut self,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) -> Result<(), RunError> {
        let mut bufs = self.take_bufs();
        let res = self.flow_with(&mut bufs, w, sel, instr, scalarised, costs);
        self.put_bufs(bufs);
        res
    }

    /// Scratch use: `a`/`am`/`b` hold irregular operands and `r` per-lane
    /// targets, each borrowed only as written; `bm` holds the CJALR
    /// metadata and `pcs` the per-lane next PCs, both written for every
    /// active lane before they are read back.
    fn flow_with(
        &mut self,
        bufs: &mut LaneBufs,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) -> Result<(), RunError> {
        let LaneBufs { a, am, b, bm: metas, r, pcs, spare, .. } = bufs;
        let mut ev = Eval::new(sel.mask, self.cfg.lanes, scalarised, spare);
        let seq = sel.pc.wrapping_add(4);
        match instr {
            Instr::Jal { rd, off } => {
                if self.cheri() {
                    self.stats.count_cheri("CJAL", 1);
                }
                self.write_link(w, sel, rd, costs);
                self.advance_uniform(w, sel, sel.pc.wrapping_add(off as u32), None);
            }
            Instr::Jalr { rd, rs1, off } if self.cheri() => {
                self.stats.count_cheri("CJALR", 1);
                let (d, m) = self.read_cap(w, rs1, a, am, costs);
                // Check phase: fetch-check every active lane's target
                // before installing any lane's PCC metadata, so a trap
                // leaves the whole warp's PCC state untouched.
                let mut faults: Vec<LaneFault> = Vec::new();
                for i in ev.active() {
                    let cap = Self::cap_of(m.lane(i), d.lane(i));
                    let target = cap.addr().wrapping_add(off as u32) & !1;
                    let cap = cap.unseal_sentry();
                    if let Err(e) = cap.check_fetch(target) {
                        faults.push(LaneFault { lane: i as u32, cause: TrapCause::Cheri(e) });
                        continue;
                    }
                    metas[i] = Self::cap_parts(cap).0;
                    pcs[i] = target;
                }
                if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults) {
                    return Err(t.into());
                }
                for i in ev.active() {
                    self.warps[w as usize].set_pcc_meta(i, metas[i]);
                }
                self.write_link(w, sel, rd, costs);
                self.advance(w, sel, pcs, None);
            }
            Instr::Jalr { rd, rs1, off } => {
                let base = self.read_data(w, rs1, a, costs);
                let next = ev.eval([base], false, r, |[x]| {
                    ((x as u32).wrapping_add(off as u32) & !1) as u64
                });
                self.write_link(w, sel, rd, costs);
                self.advance_to(w, sel, next, pcs);
            }
            Instr::Branch { cond, rs1, rs2, off } => {
                let x = self.read_data(w, rs1, a, costs);
                let y = self.read_data(w, rs2, b, costs);
                let target = sel.pc.wrapping_add(off as u32);
                let next = ev.eval([x, y], false, r, |[x, y]| {
                    u64::from(if exec::branch_taken(cond, x as u32, y as u32) {
                        target
                    } else {
                        seq
                    })
                });
                self.advance_to(w, sel, next, pcs);
            }
            _ => unreachable!("not a flow-class instruction"),
        }
        Ok(())
    }

    /// Write the link register of a jump: `pc + 4`, under CHERI as a
    /// sealed-entry capability derived from the PCC.
    fn write_link(&mut self, w: u32, sel: &Selection, rd: Reg, costs: &mut Costs) {
        let seq = sel.pc.wrapping_add(4);
        let (link, meta) = if self.cheri() {
            let cap = Self::cap_of(sel.pcc_meta, sel.pc as u64).set_addr(seq).seal_entry();
            let (m, d) = Self::cap_parts(cap);
            (OperandVec::Uniform(d), Some(OperandVec::Uniform(m)))
        } else {
            (OperandVec::Uniform(seq as u64), None)
        };
        self.writeback(w, rd, link, meta, sel.mask, costs);
    }

    /// Commit the next PCs: one warp-wide target takes the memoising
    /// [`Sm::advance_uniform`], per-lane targets the general
    /// [`Sm::advance`].
    fn advance_to(
        &mut self,
        w: u32,
        sel: &Selection,
        next: OperandVec<'_>,
        pcs: &mut [u32; MAX_LANES],
    ) {
        if let OperandVec::Uniform(pc) = next {
            self.advance_uniform(w, sel, pc as u32, None);
        } else {
            for i in active_lanes(sel.mask, self.cfg.lanes as usize) {
                pcs[i] = next.lane(i) as u32;
            }
            self.advance(w, sel, pcs, None);
        }
    }
}
