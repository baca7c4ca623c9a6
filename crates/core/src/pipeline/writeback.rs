//! Writeback stage: register-file writes and PC/status commit.
//!
//! Owns the one result write (data plus capability metadata, in compact
//! form, with spill/fill costing and traced RF writes) and the final
//! commit of per-thread PCs and status changes.

use super::{active_lanes, Costs};
use crate::sm::Sm;
use crate::warp::{Selection, ThreadStatus};
use simt_isa::Reg;
use simt_regfile::{OperandVec, MAX_LANES, NULL_META};
use simt_trace::EventSink;

impl Sm {
    /// Commit a result to `rd` under `mask`: the data write plus, under
    /// CHERI, the metadata write — `meta` for capability results, null
    /// metadata otherwise. Compact results go straight to the SRF; the
    /// register file costs spills and fills into `costs` and, with a sink
    /// attached, emits residency transitions.
    pub(crate) fn writeback(
        &mut self,
        w: u32,
        rd: Reg,
        val: OperandVec<'_>,
        meta: Option<OperandVec<'_>>,
        mask: u64,
        costs: &mut Costs,
    ) {
        if rd.is_zero() {
            return;
        }
        let (reg, cycle) = (rd.index() as u32, self.cycle);
        let (spill, lanes) = (self.cfg.timing.spill_cycles, self.cfg.lanes);
        let trace = self.sink.as_deref_mut().map(|s| (s as &mut dyn EventSink, cycle));
        let info = self.data_rf.write_compact(w, reg, &val, mask, trace);
        costs.add_write(spill, lanes, info);
        if let Some(rf) = self.meta_rf.as_mut() {
            let meta = meta.unwrap_or(OperandVec::Uniform(NULL_META));
            let trace = self.sink.as_deref_mut().map(|s| (s as &mut dyn EventSink, cycle));
            costs.add_write(spill, lanes, rf.write_compact(w, reg, &meta, mask, trace));
        }
    }

    /// Commit PC updates and status changes for the selected threads.
    pub(crate) fn advance(
        &mut self,
        w: u32,
        sel: &Selection,
        next_pc: &[u32; MAX_LANES],
        status_change: Option<ThreadStatus>,
    ) {
        let warp = &mut self.warps[w as usize];
        warp.cached_sel = None;
        for i in active_lanes(sel.mask, self.cfg.lanes as usize) {
            warp.pc[i] = next_pc[i];
            if let Some(s) = status_change {
                warp.set_status(i, s);
            }
        }
    }

    /// [`Sm::advance`] for the common case of every selected thread
    /// stepping to the same `next_pc` with no PCC-metadata change. When the
    /// selection covered every runnable thread, the next [`Warp::select`]
    /// answer is fully determined — same mask and metadata at `next_pc` —
    /// so it is memoised instead of rescanned (a `status_change` forces a
    /// rescan: the surviving selection depends on the new statuses).
    pub(crate) fn advance_uniform(
        &mut self,
        w: u32,
        sel: &Selection,
        next_pc: u32,
        status_change: Option<ThreadStatus>,
    ) {
        let warp = &mut self.warps[w as usize];
        warp.cached_sel = None;
        for i in active_lanes(sel.mask, self.cfg.lanes as usize) {
            warp.pc[i] = next_pc;
            if let Some(s) = status_change {
                warp.set_status(i, s);
            }
        }
        if status_change.is_none() && sel.mask.count_ones() == warp.runnable {
            // select() only ever picks runnable threads, so equal counts
            // mean the selection covered exactly the runnable set; they all
            // now sit at `next_pc` with unchanged metadata.
            warp.cached_sel =
                Some(Selection { mask: sel.mask, pc: next_pc, pcc_meta: sel.pcc_meta });
        }
    }
}
