//! The SM pipeline, split by stage (Figure 2).
//!
//! Each submodule contributes one `impl Sm` block and owns the statistics
//! counters and trace events of its stage:
//!
//! * [`schedule`] — barrel scheduler: round-robin warp pick from a ready
//!   set, barrier release, idle accounting, deadlock detection, and the
//!   local-step test behind the device's lookahead arbitration.
//! * [`operands`] — operand collection: the one data read and the one
//!   capability read, both in compact `OperandVec` form, the shared-VRF
//!   serialisation penalty, capability marshalling.
//! * [`classify`] — pre-execute issue classification: scalarised
//!   (warp-wide over compact operands) versus per-lane, recorded on the
//!   issue event and `scalarised_issues`.
//! * [`execute`] — fetch (from the pre-decoded ROM), issue accounting and
//!   dispatch to the op-class handlers; owns the memory/system classes.
//! * [`alu`] / [`flow`] / [`sfu`] / [`capops`] — the op-class handlers,
//!   each op written once over compact operands and evaluated by
//!   [`scalar`]'s helper: once per warp, by two-lane affine sampling, or
//!   lane by lane, as the operands allow.
//! * [`memstage`] — the memory stage: coalescer → tag controller → DRAM
//!   and the banked scratchpad, plus the compressed stack cache filter.
//! * [`writeback`] — the one register writeback (compact, with spill/fill
//!   costing) and PC/status commit.
//!
//! `Sm` itself (in [`crate::sm`]) keeps only the state and the host API;
//! the stages reach into its `pub(crate)` fields exactly as the monolithic
//! implementation did, so the cycle-level behaviour is unchanged.

pub(crate) mod alu;
pub(crate) mod capops;
pub(crate) mod classify;
pub(crate) mod execute;
pub(crate) mod flow;
pub(crate) mod memstage;
pub(crate) mod operands;
pub(crate) mod scalar;
pub(crate) mod schedule;
pub(crate) mod sfu;
pub(crate) mod writeback;

use simt_regfile::{ReadInfo, WriteInfo};

/// The set lanes of `mask` below `lanes`, in ascending order (one bit scan
/// per active lane, not a test per lane).
pub(crate) fn active_lanes(mask: u64, lanes: usize) -> impl Iterator<Item = usize> {
    let mut rest = mask & (u64::MAX >> (64 - lanes));
    std::iter::from_fn(move || {
        let i = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// What one scheduler step did (see [`schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Every thread has terminated; the run is complete.
    Done,
    /// An instruction issued or time advanced to the next resume point.
    Progress,
    /// Past its device turn, the SM's next step is not local: nothing
    /// happened, and the step must wait for the turn.
    Blocked,
}

/// Costs accumulated while executing one instruction.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Costs {
    /// Stalls from CHERI mechanisms (CSC serialisation, shared-VRF
    /// conflicts, capability multi-flit accesses).
    pub(crate) extra_cycles: u32,
    /// Stalls from register spill/fill handling.
    pub(crate) spill_cycles: u32,
    pub(crate) dram_reads: u32,
    pub(crate) dram_writes: u32,
}

impl Costs {
    pub(crate) fn add_read(&mut self, spill_cycles: u32, lanes: u32, info: ReadInfo) {
        let txns = lanes.div_ceil(16); // lanes * 4 bytes / 64-byte blocks
        self.spill_cycles += (info.fills + info.spills) * spill_cycles;
        self.dram_reads += info.fills * txns;
        self.dram_writes += info.spills * txns;
    }

    pub(crate) fn add_write(&mut self, spill_cycles: u32, lanes: u32, info: WriteInfo) {
        let txns = lanes.div_ceil(16);
        self.spill_cycles += (info.fills + info.spills) * spill_cycles;
        self.dram_reads += info.fills * txns;
        self.dram_writes += info.spills * txns;
    }
}
