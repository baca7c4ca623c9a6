//! The device layer: N streaming multiprocessors sharing one memory
//! subsystem.
//!
//! A [`Device`] owns `sms` copies of [`Sm`] and one memory subsystem
//! (functional DRAM, the DRAM channel timing model and the tag controller)
//! that the SMs share. Each SM keeps its own scratchpad, coalescing unit
//! and register files, exactly like SIMTight's per-core local resources.
//! Between runs the shared subsystem lives in SM 0, so [`Device::memory`]
//! is SM 0's memory; every other SM holds an empty stub.
//!
//! # Arbitration model
//!
//! Every SM count takes the same path. The device orders the SMs by their
//! `(local cycle, SM index)` key: the not-yet-finished SM with the
//! smallest key takes the next scheduler step, with the shared subsystem
//! handed to it. So every access to shared state happens in global key
//! order, ties going to the lowest index: the DRAM channel's `free_at`
//! horizon and the tag cache's line state carry across SMs, which is what
//! creates contention. An SM whose transactions queue behind another SM's
//! pays real cycles, visible in `DramStats::cross_sm_wait_cycles` and the
//! tag cache's cross-SM conflict evictions. A multi-SM run is exactly
//! reproducible, and a one-SM device is bit-identical to a bare [`Sm`].
//!
//! Stepping one SM at a time would hand the turn over on most steps, yet
//! most steps touch only the SM's own state. So the SM that holds the turn
//! runs a *burst* (conservative lookahead, as in parallel discrete-event
//! simulation): it keeps stepping while it still has the smallest key, or
//! while its next step is provably local — it touches no DRAM contents,
//! DRAM timing or tag state and cannot end the SM (see
//! [`crate::pipeline::schedule`]). A local step commutes with every other
//! SM's steps, so each shared access and each SM completion still happens
//! in global key order, and the run is the one that strict per-step
//! interleaving produces. The shared subsystem moves once per burst.
//!
//! An SM that traps while running ahead holds its error as *pending*,
//! keyed by the cycle its faulting issue began, and stops. The run aborts
//! when the smallest key on the device is an error, which is the error
//! strict interleaving reports, with the same shared state.
//!
//! # Work distribution
//!
//! The block dispatcher is the existing grid-stride loop in every kernel's
//! prologue: the device gives SM `k` the hart-id base `k × threads_per_sm`
//! and tells every SM the *device-wide* thread count, so `blockIdx =
//! hartid / blockDim` partitions the grid across SMs with no kernel or
//! compiler changes. Barriers stay SM-local (a thread block never spans
//! SMs).

use crate::config::SmConfig;
use crate::counters::KernelStats;
use crate::pipeline::StepOutcome;
use crate::sm::{MemSys, Sm};
use crate::trap::RunError;
use cheri_cap::CapMem;
use simt_mem::MainMemory;

/// A GPU device: N SMs sharing one memory subsystem. See the module
/// documentation for the arbitration model.
#[derive(Debug)]
pub struct Device {
    /// The SMs; SM 0 holds the shared memory subsystem outside
    /// [`Device::run`].
    sms: Vec<Sm>,
    /// Per-SM statistics snapshots from the last run.
    sm_stats: Vec<Option<KernelStats>>,
    /// Combined device statistics from the last run.
    stats: KernelStats,
}

impl Device {
    /// Build a device of `sms` identical SMs. With `sms == 1` this is
    /// exactly a bare [`Sm`]; with more, the SMs share DRAM and the tag
    /// controller and split the grid via their hart-id placement.
    ///
    /// # Panics
    ///
    /// Panics if `sms == 0`.
    pub fn new(cfg: SmConfig, sms: u32) -> Self {
        assert!(sms >= 1, "a device needs at least one SM");
        let threads = cfg.threads();
        let cores: Vec<Sm> = (0..sms)
            .map(|k| {
                let mem = if k == 0 { MemSys::new(&cfg) } else { MemSys::stub(&cfg) };
                let mut sm = Sm::with_mem(cfg, mem);
                sm.set_hart_base(k * threads);
                sm.set_device_threads(sms * threads);
                sm
            })
            .collect();
        let n = cores.len();
        Device { sms: cores, sm_stats: vec![None; n], stats: KernelStats::default() }
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> u32 {
        self.sms.len() as u32
    }

    /// The (per-SM) configuration.
    pub fn config(&self) -> &SmConfig {
        self.sms[0].config()
    }

    /// SM `k` (panics if out of range).
    pub fn sm(&self, k: usize) -> &Sm {
        &self.sms[k]
    }

    /// Mutable SM `k` (panics if out of range). Between runs SM 0 holds
    /// the device's shared memory subsystem, so its `memory()` is
    /// [`Device::memory`]; every other SM's `memory()` is an empty stub.
    pub fn sm_mut(&mut self, k: usize) -> &mut Sm {
        &mut self.sms[k]
    }

    /// The device's functional DRAM, shared by every SM.
    pub fn memory(&self) -> &MainMemory {
        self.sms[0].memory()
    }

    /// Mutable device DRAM.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        self.sms[0].memory_mut()
    }

    /// Load the kernel program into every SM's instruction memory.
    pub fn load_program(&mut self, words: &[u32]) {
        for sm in &mut self.sms {
            sm.load_program(words);
        }
    }

    /// Set a special capability register on every SM.
    pub fn set_scr(&mut self, index: u8, cap: CapMem) {
        for sm in &mut self.sms {
            sm.set_scr(index, cap);
        }
    }

    /// Tell every SM where the (device-wide) stack arena lives.
    pub fn set_stack_region(&mut self, base: u32, size: u32) {
        for sm in &mut self.sms {
            sm.set_stack_region(base, size);
        }
    }

    /// Set the warps-per-block barrier grouping on every SM.
    pub fn set_block_warps(&mut self, warps: u32) {
        for sm in &mut self.sms {
            sm.set_block_warps(warps);
        }
    }

    /// Install (or clear) a GPUShield bounds table on every SM.
    pub fn set_bounds_table(&mut self, table: Option<crate::shield::BoundsTable>) {
        for sm in &mut self.sms {
            sm.set_bounds_table(table.clone());
        }
    }

    /// Reset every SM, and the shared subsystem's statistics and tag
    /// cache, for a fresh launch (memory contents are preserved).
    pub fn reset(&mut self) {
        for sm in &mut self.sms {
            sm.reset();
        }
        self.sm_stats = vec![None; self.sms.len()];
        self.stats = KernelStats::default();
    }

    /// Move the shared memory subsystem from SM `from` to SM `to` (the
    /// stub goes the other way).
    fn hand_over(&mut self, from: usize, to: usize) {
        if from != to {
            let [a, b] = self.sms.get_disjoint_mut([from, to]).expect("distinct SMs");
            std::mem::swap(&mut a.mem, &mut b.mem);
        }
    }

    /// Run every SM to completion and return the combined device
    /// statistics. `max_cycles` bounds each SM's *local* clock.
    ///
    /// # Errors
    ///
    /// The SM error with the smallest `(cycle, SM index)` key — a trap,
    /// dead-lock or time-out — aborts the whole run (deterministic,
    /// because the arbitration is). A trapped device stays queryable:
    /// every SM has a statistics snapshot (see [`Device::sm_stats`]), and
    /// [`Device::stats`] combines them, instead of panicking.
    pub fn run(&mut self, max_cycles: u64) -> Result<KernelStats, RunError> {
        let n = self.sms.len();
        // SMs still running, and the pending error (with the cycle its
        // issue began) of any that trapped while running ahead.
        let mut live: Vec<usize> = (0..n).collect();
        let mut pending: Vec<Option<(u64, RunError)>> = vec![None; n];
        let mut holder = 0;
        let key = |sms: &[Sm], pending: &[Option<(u64, RunError)>], k: usize| {
            (pending[k].as_ref().map_or(sms[k].cycle(), |(c, _)| *c), k)
        };
        let result = loop {
            // Deterministic arbitration: the smallest key takes the turn
            // and holds it until it passes the runner-up's key.
            let Some(k) = live.iter().copied().min_by_key(|&j| key(&self.sms, &pending, j)) else {
                break Ok(());
            };
            if let Some((_, e)) = pending[k].take() {
                break Err(e);
            }
            let turn_until = live
                .iter()
                .filter(|&&j| j != k)
                .map(|&j| key(&self.sms, &pending, j))
                .min()
                .map_or(u64::MAX, |(c, j)| c + u64::from(k < j));
            self.hand_over(holder, k);
            holder = k;
            let sm = &mut self.sms[k];
            sm.mem.set_accessor(k as u32);
            let outcome = loop {
                match sm.step(max_cycles, turn_until) {
                    Ok(StepOutcome::Progress) => {}
                    other => break other,
                }
            };
            match outcome {
                Ok(StepOutcome::Done) => {
                    self.sm_stats[k] = Some(sm.finalise());
                    live.retain(|&j| j != k);
                }
                Ok(StepOutcome::Progress | StepOutcome::Blocked) => {}
                // Raised while holding the turn: the smallest key on the
                // device, so the run aborts now.
                Err(e) if sm.key_cycle < turn_until => break Err(e),
                Err(e) => pending[k] = Some((sm.key_cycle, e)),
            }
        };
        if result.is_err() {
            // Snapshot every SM still running against the shared
            // subsystem as it stands at the abort.
            for &k in &live {
                self.hand_over(holder, k);
                holder = k;
                self.sm_stats[k] = Some(self.sms[k].finalise());
            }
        }
        self.hand_over(holder, 0);
        self.stats = self.combine();
        result.map(|()| self.stats.clone())
    }

    /// Per-SM statistics of the last run (`None` before any run). Every
    /// snapshot's `dram`/`tag_cache` sub-structs are the *shared*
    /// subsystem's counters at the moment the snapshot was taken: at the
    /// SM's completion, or — for every SM still running when a run aborts,
    /// the faulting one included — at the abort. The pipeline counters of
    /// an aborted run's SMs cover the steps each SM took, which may run
    /// past the faulting cycle where those steps were local. Use the
    /// combined device statistics for end-of-run totals.
    pub fn sm_stats(&self, k: usize) -> Option<&KernelStats> {
        self.sm_stats[k].as_ref()
    }

    /// Combined statistics of the last run.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Combine per-SM statistics into device totals: pipeline counters
    /// merge as in [`KernelStats::add`], `cycles` is the slowest SM (the
    /// SMs run concurrently), residency averages are issue-weighted, and
    /// the shared `dram`/`tag_cache` counters are read once from the
    /// shared subsystem rather than summed across per-SM snapshots. One
    /// snapshot combines to itself.
    fn combine(&self) -> KernelStats {
        let mut snaps = self.sm_stats.iter().flatten();
        let mut out = snaps.next().cloned().unwrap_or_default();
        let mut weighted_data = out.avg_data_vrf_resident * out.instrs as f64;
        let mut weighted_meta = out.avg_meta_vrf_resident * out.instrs as f64;
        let mut merged = false;
        for s in snaps {
            out.cycles = out.cycles.max(s.cycles);
            weighted_data += s.avg_data_vrf_resident * s.instrs as f64;
            weighted_meta += s.avg_meta_vrf_resident * s.instrs as f64;
            out.add(s);
            merged = true;
        }
        if merged && out.instrs > 0 {
            out.avg_data_vrf_resident = weighted_data / out.instrs as f64;
            out.avg_meta_vrf_resident = weighted_meta / out.instrs as f64;
        }
        out.dram = self.sms[0].mem.dram.stats();
        out.tag_cache = self.sms[0].mem.tags.stats();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheriMode;
    use simt_isa::{csr, AluOp, Instr, Reg, SimtOp, StoreWidth};
    use simt_mem::map;

    /// Each thread stores its *global* hart id; both SMs' stores land in
    /// the shared DRAM, and the combined stats sum the two pipelines.
    #[test]
    fn two_sms_share_memory_and_split_harts() {
        let cfg = SmConfig::small(CheriMode::Off);
        let threads = cfg.threads();
        let mut dev = Device::new(cfg, 2);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 2 },
            Instr::Lui { rd: Reg::A2, imm: map::DRAM_BASE },
            Instr::Op { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A2 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A1, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        dev.load_program(&prog);
        dev.reset();
        let stats = dev.run(100_000).expect("device run");
        for hart in 0..(2 * threads) {
            assert_eq!(
                dev.memory().read(map::DRAM_BASE + hart * 4, 4).unwrap(),
                hart,
                "hart {hart} stored its global id"
            );
        }
        // Both SMs issued the same program: combined instrs are double one
        // SM's, and the device clock is the slowest SM, not the sum.
        let s0 = dev.sm_stats(0).unwrap();
        let s1 = dev.sm_stats(1).unwrap();
        assert_eq!(stats.instrs, s0.instrs + s1.instrs);
        assert_eq!(stats.cycles, s0.cycles.max(s1.cycles));
        assert!(stats.dram.write_transactions > 0);
    }

    /// One SM of a two-SM device traps (its harts take the faulting
    /// branch) while the other is still storing; the device reports the
    /// trap *and* stays queryable — both SMs have statistics snapshots,
    /// the combined stats are populated, and every snapshot's shared
    /// counters are the shared subsystem's at the abort.
    #[test]
    fn trapped_device_stays_queryable() {
        use simt_isa::{BranchCond, LoadWidth};
        let cfg = SmConfig::small(CheriMode::Off);
        let threads = cfg.threads();
        let mut dev = Device::new(cfg, 2);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: threads as i32 },
            Instr::OpImm { op: AluOp::Sll, rd: Reg::A3, rs1: Reg::A0, imm: 2 },
            Instr::Lui { rd: Reg::A2, imm: map::DRAM_BASE },
            Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A3, rs2: Reg::A2 },
            // Harts on SM 1 (global id >= threads) take the branch into an
            // ALU stretch and an unmapped load; harts on SM 0 store twice
            // and terminate.
            Instr::Branch { cond: BranchCond::Geu, rs1: Reg::A0, rs2: Reg::A1, off: 16 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 0 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 1024 },
            Instr::Simt { op: SimtOp::Terminate },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A4, rs1: Reg::A4, imm: 1 },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A4, rs1: Reg::A4, imm: 1 },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A4, rs1: Reg::A4, imm: 1 },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A4, rs1: Reg::A4, imm: 1 },
            Instr::Load { w: LoadWidth::W, rd: Reg::A2, rs1: Reg::ZERO, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        dev.load_program(&prog);
        dev.reset();
        let err = dev.run(100_000).expect_err("SM 1 must trap");
        match &err {
            RunError::Trap(t) => assert!(t.lane_mask != 0, "trap names faulting lanes"),
            other => panic!("expected a trap, got {other:?}"),
        }
        // Both SMs are queryable after the trap: the trapped SM has a
        // partial snapshot and the clean SM has whatever it got to.
        let s0 = dev.sm_stats(0).expect("SM 0 snapshot");
        let s1 = dev.sm_stats(1).expect("SM 1 snapshot");
        assert!(s0.instrs > 0 && s1.instrs > 0);
        let combined = dev.stats();
        assert_eq!(combined.instrs, s0.instrs + s1.instrs);
        assert_eq!(combined.faults.traps, 1);
        assert!(combined.cycles > 0);
        // Neither SM finished, so both snapshots were taken at the abort:
        // their shared counters are the device's, not a parked stub's.
        assert!(combined.dram.write_transactions > 0, "SM 0 stored before the abort");
        for s in [s0, s1] {
            assert_eq!(s.dram, combined.dram);
            assert_eq!(s.tag_cache, combined.tag_cache);
        }
    }

    /// Multi-launch totals keep the cross-SM contention counters:
    /// accumulating two 2-SM launches sums every one of them.
    #[test]
    fn accumulate_sums_cross_sm_counters() {
        use cheri_cap::{CapPipe, Perms};
        use simt_isa::scr;
        let cfg = SmConfig::small(CheriMode::On(crate::CheriOpts::optimised()));
        let mut dev = Device::new(cfg, 2);
        // Every hart stores through a capability to its own 64-byte block,
        // so both SMs drive the DRAM channel and the tag cache.
        let prog: Vec<u32> = [
            Instr::CSpecialRw { cd: Reg::A3, cs1: Reg::ZERO, scr: scr::GLOBAL },
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 6 },
            Instr::Lui { rd: Reg::A2, imm: map::DRAM_BASE },
            Instr::Op { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A2 },
            Instr::CSetAddr { cd: Reg::A3, cs1: Reg::A3, rs2: Reg::A1 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        dev.load_program(&prog);
        dev.set_scr(scr::GLOBAL, CapPipe::almighty().and_perm(Perms::data()).to_mem());
        let mut launch = || {
            dev.reset();
            dev.run(100_000).expect("device run")
        };
        let (first, second) = (launch(), launch());
        assert!(first.dram.cross_sm_switches > 0, "both SMs drive the DRAM channel");
        assert!(first.tag_cache.cross_sm_switches > 0, "both SMs use the tag cache");
        let mut total = first.clone();
        total.accumulate(&second);
        let sum = |f: fn(&KernelStats) -> u64| f(&first) + f(&second);
        assert_eq!(total.dram.cross_sm_switches, sum(|s| s.dram.cross_sm_switches));
        assert_eq!(total.dram.cross_sm_wait_cycles, sum(|s| s.dram.cross_sm_wait_cycles));
        assert_eq!(total.tag_cache.cross_sm_switches, sum(|s| s.tag_cache.cross_sm_switches));
        assert_eq!(
            total.tag_cache.cross_sm_conflict_evictions,
            sum(|s| s.tag_cache.cross_sm_conflict_evictions)
        );
    }

    #[test]
    fn single_sm_device_matches_bare_sm() {
        let cfg = SmConfig::small(CheriMode::Off);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        let mut dev = Device::new(cfg, 1);
        dev.load_program(&prog);
        dev.reset();
        let dev_stats = dev.run(100_000).expect("device run");
        let mut sm = Sm::new(cfg);
        sm.load_program(&prog);
        sm.reset();
        let sm_stats = sm.run(100_000).expect("sm run");
        assert_eq!(dev_stats, sm_stats);
        assert_eq!(dev_stats.dram.cross_sm_switches, 0);
    }
}
