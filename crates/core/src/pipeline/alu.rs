//! ALU op class: `LUI`/`AUIPC` splats, the integer ALU (`OP-IMM`/`OP`),
//! the M extension and CSR reads.
//!
//! Each op is written once over compact operands and evaluated by
//! [`super::scalar::Eval`]; the linearity predicates of
//! [`super::classify`] decide when an affine operand may be sampled
//! instead of expanded. CSR reads are virtualised for multi-SM devices:
//! `MHARTID` is offset by the SM's [`Sm::set_hart_base`] placement and
//! `SIMT_NUM_THREADS` reads the device-wide thread count, so an
//! unmodified grid-stride kernel distributes its blocks across every SM of
//! a [`crate::Device`].

use super::classify::{alu_scalarises, muldiv_scalarises};
use super::scalar::Eval;
use super::Costs;
use crate::exec;
use crate::sm::{LaneBufs, Sm};
use crate::warp::Selection;
use simt_isa::{Instr, MulOp};
use simt_regfile::{OperandClass, OperandVec};

impl Sm {
    /// Execute one ALU-class instruction (always writes `rd`, never traps,
    /// sequential PC).
    pub(crate) fn exec_alu_class(
        &mut self,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) {
        let mut bufs = self.take_bufs();
        self.alu_with(&mut bufs, w, sel, instr, scalarised, costs);
        self.put_bufs(bufs);
        self.advance_uniform(w, sel, sel.pc.wrapping_add(4), None);
    }

    fn alu_with(
        &mut self,
        bufs: &mut LaneBufs,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) {
        let LaneBufs { a, b, r, spare, .. } = bufs;
        let mut ev = Eval::new(sel.mask, self.cfg.lanes, scalarised, spare);
        let (rd, val, meta) = match instr {
            Instr::Lui { rd, imm } => (rd, OperandVec::Uniform(imm as u64), None),
            Instr::Auipc { rd, imm } => {
                let target = sel.pc.wrapping_add(imm);
                if self.cheri() {
                    self.stats.count_cheri("AUIPCC", 1);
                    let cap = Self::cap_of(sel.pcc_meta, sel.pc as u64).set_addr(target);
                    let (m, d) = Self::cap_parts(cap);
                    (rd, OperandVec::Uniform(d), Some(OperandVec::Uniform(m)))
                } else {
                    (rd, OperandVec::Uniform(target as u64), None)
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let x = self.read_data(w, rs1, a, costs);
                let affine = alu_scalarises(op, x.class(), OperandClass::Uniform);
                let y = OperandVec::Uniform(imm as u64);
                let v =
                    ev.eval([x, y], affine, r, |[x, y]| exec::alu(op, x as u32, y as u32) as u64);
                (rd, v, None)
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let x = self.read_data(w, rs1, a, costs);
                let y = self.read_data(w, rs2, b, costs);
                let affine = alu_scalarises(op, x.class(), y.class());
                let v =
                    ev.eval([x, y], affine, r, |[x, y]| exec::alu(op, x as u32, y as u32) as u64);
                (rd, v, None)
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let x = self.read_data(w, rs1, a, costs);
                let y = self.read_data(w, rs2, b, costs);
                let affine = muldiv_scalarises(op, x.class(), y.class());
                let v = ev
                    .eval([x, y], affine, r, |[x, y]| exec::muldiv(op, x as u32, y as u32) as u64);
                self.muldiv_latency(w, op);
                (rd, v, None)
            }
            Instr::Csrrs { rd, csr, .. } => {
                let lane0 = self.csr_lane0(w, csr);
                let v = if csr == simt_isa::csr::MHARTID {
                    // Hart ids advance by one per lane.
                    OperandVec::Affine { base: lane0, stride: 1 }
                } else {
                    OperandVec::Uniform(lane0)
                };
                (rd, v, None)
            }
            _ => unreachable!("not an ALU-class instruction"),
        };
        self.writeback(w, rd, val, meta, sel.mask, costs);
    }

    /// What lane 0 of warp `w` reads from `csr` (every CSR is uniform
    /// across the warp except `MHARTID`, which advances by one per lane).
    fn csr_lane0(&self, w: u32, csr: u16) -> u64 {
        use simt_isa::csr as c;
        match csr {
            c::MHARTID => (self.hart_base + w * self.cfg.lanes) as u64,
            c::SIMT_NUM_WARPS => self.cfg.warps as u64,
            c::SIMT_LOG_LANES => self.cfg.lanes.trailing_zeros() as u64,
            c::SIMT_NUM_THREADS => self.device_threads as u64,
            _ => 0,
        }
    }

    /// Division/remainder keep the warp busy for the divider latency.
    fn muldiv_latency(&mut self, w: u32, op: MulOp) {
        if matches!(op, MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu) {
            self.warps[w as usize].ready_at = self.cycle + self.cfg.timing.div_latency as u64;
        }
    }
}
