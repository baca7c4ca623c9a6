//! Floating-point op class: lane FP ALU plus SFU round-trips for the
//! long-latency operations (`FDIV`, `FSQRT`).
//!
//! Each op is written once over compact operands and evaluated by
//! [`super::scalar::Eval`]: once per warp when every operand is uniform,
//! lane by lane otherwise. The SFU suspension charges per *active lane*
//! either way.

use super::scalar::Eval;
use super::Costs;
use crate::exec;
use crate::sm::{LaneBufs, Sm};
use crate::warp::Selection;
use simt_isa::{FpOp, Instr};

impl Sm {
    /// Execute one FP-class instruction (always writes `rd`, never traps,
    /// sequential PC).
    pub(crate) fn exec_sfu_class(
        &mut self,
        w: u32,
        sel: &Selection,
        instr: Instr,
        scalarised: bool,
        costs: &mut Costs,
    ) {
        let mut bufs = self.take_bufs();
        self.sfu_with(&mut bufs, w, sel, instr, scalarised, costs);
        self.put_bufs(bufs);
        self.advance_uniform(w, sel, sel.pc.wrapping_add(4), None);
    }

    fn sfu_with(
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
        let (rd, v, sfu) = match instr {
            Instr::FOp { op, rd, rs1, rs2 } => {
                let x = self.read_data(w, rs1, a, costs);
                let y = self.read_data(w, rs2, b, costs);
                let v = ev.eval([x, y], false, r, |[x, y]| exec::fp(op, x as u32, y as u32) as u64);
                (rd, v, op == FpOp::Div)
            }
            Instr::FSqrt { rd, rs1 } => {
                let x = self.read_data(w, rs1, a, costs);
                (rd, ev.eval([x], false, r, |[x]| exec::fsqrt(x as u32) as u64), true)
            }
            Instr::FCmp { op, rd, rs1, rs2 } => {
                let x = self.read_data(w, rs1, a, costs);
                let y = self.read_data(w, rs2, b, costs);
                let v =
                    ev.eval([x, y], false, r, |[x, y]| exec::fcmp(op, x as u32, y as u32) as u64);
                (rd, v, false)
            }
            Instr::FCvtWS { rd, rs1, signed } => {
                let x = self.read_data(w, rs1, a, costs);
                (rd, ev.eval([x], false, r, |[x]| exec::fcvt_ws(x as u32, signed) as u64), false)
            }
            Instr::FCvtSW { rd, rs1, signed } => {
                let x = self.read_data(w, rs1, a, costs);
                (rd, ev.eval([x], false, r, |[x]| exec::fcvt_sw(x as u32, signed) as u64), false)
            }
            _ => unreachable!("not an FP-class instruction"),
        };
        if sfu {
            self.sfu_suspend(w, sel);
        }
        self.writeback(w, rd, v, None, sel.mask, costs);
    }
}
