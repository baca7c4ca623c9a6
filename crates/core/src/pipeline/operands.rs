//! Operand-collection stage: register-file reads.
//!
//! Owns the one data read and the one capability (data + metadata) read,
//! both in compact [`OperandVec`] form (the NVO scalar path lives inside
//! the compressed register file), the shared-VRF serialisation penalty and
//! its `shared_vrf_conflict` counter, and the capability-marshalling
//! helpers shared by every stage downstream.

use super::Costs;
use crate::sm::Sm;
use cheri_cap::{CapMem, CapPipe};
use simt_isa::Reg;
use simt_regfile::{OperandVec, NULL_META};
use simt_trace::StallCause;

impl Sm {
    pub(crate) fn cheri(&self) -> bool {
        self.opts.is_some()
    }

    /// Read a data operand in compact form: an SRF entry comes back as
    /// `Uniform`/`Affine` with no lane expansion, anything else is expanded
    /// into `buf` (`x0` reads as uniform 0). Spill/fill costs are charged
    /// to `costs`.
    pub(crate) fn read_data<'a>(
        &mut self,
        w: u32,
        reg: Reg,
        buf: &'a mut [u64],
        costs: &mut Costs,
    ) -> OperandVec<'a> {
        if reg.is_zero() {
            return OperandVec::Uniform(0);
        }
        let (v, info) = self.data_rf.read_compact(w, reg.index() as u32, buf);
        costs.add_read(self.cfg.timing.spill_cycles, self.cfg.lanes, info);
        v
    }

    /// Read a full capability operand in compact form — data (address)
    /// into `data`, metadata into `meta` (uniformly null without a metadata
    /// register file) — with the shared-VRF serialisation penalty when
    /// both halves come from the VRF.
    pub(crate) fn read_cap<'a>(
        &mut self,
        w: u32,
        reg: Reg,
        data: &'a mut [u64],
        meta: &'a mut [u64],
        costs: &mut Costs,
    ) -> (OperandVec<'a>, OperandVec<'a>) {
        let null = (OperandVec::Uniform(0), OperandVec::Uniform(NULL_META));
        if reg.is_zero() {
            return null;
        }
        let lanes = self.cfg.lanes;
        let spill = self.cfg.timing.spill_cycles;
        let (d, di) = self.data_rf.read_compact(w, reg.index() as u32, data);
        costs.add_read(spill, lanes, di);
        let Some(rf) = self.meta_rf.as_mut() else { return (d, null.1) };
        let (m, mi) = rf.read_compact(w, reg.index() as u32, meta);
        costs.add_read(spill, lanes, mi);
        if self.opts.is_some_and(|o| o.shared_vrf) && di.from_vrf && mi.from_vrf {
            costs.extra_cycles += 1;
            self.stats.stalls.shared_vrf_conflict += 1;
            self.emit_stall(w, StallCause::SharedVrfConflict, 1);
        }
        (d, m)
    }

    // ---- Capability marshalling ----

    #[inline]
    pub(crate) fn cap_of(meta: u64, addr: u64) -> CapPipe {
        CapPipe::from_mem(CapMem::from_parts(meta as u32, addr as u32, meta >> 32 & 1 == 1))
    }

    #[inline]
    pub(crate) fn cap_parts(cap: CapPipe) -> (u64, u64) {
        let m = cap.to_mem();
        (m.meta() as u64 | ((m.tag() as u64) << 32), m.addr() as u64)
    }
}
