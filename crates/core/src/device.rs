//! The device layer: N streaming multiprocessors sharing one memory
//! subsystem.
//!
//! A [`Device`] owns `sms` copies of [`Sm`] plus — when `sms > 1` — a
//! single *shared* memory subsystem (functional DRAM, the DRAM channel
//! timing model, and the tag controller) that the SMs arbitrate for. Each
//! SM keeps its own scratchpad, coalescing unit and register files, exactly
//! like SIMTight's per-core local resources.
//!
//! **Single-SM devices are bit-identical to a bare [`Sm`]**: with `sms ==
//! 1` there is no shared state, no arbitration, and every call delegates
//! straight to the one SM — the golden-stats regression test in
//! `crates/bench` pins this down for the whole benchmark suite.
//!
//! # Arbitration model
//!
//! For `sms > 1` the device interleaves the SMs at instruction granularity:
//! each step it picks the *not-yet-finished SM with the smallest local
//! cycle* and advances it by one scheduler step with the shared subsystem
//! installed. The DRAM channel's `free_at` horizon and the tag cache's
//! line state therefore carry across SMs, which is what creates
//! contention: an SM whose transactions queue behind another SM's pays
//! real cycles, visible in `DramStats::cross_sm_wait_cycles` and the tag
//! cache's cross-SM conflict evictions. Because the pick is deterministic
//! (lowest SM index wins ties), a multi-SM run is exactly reproducible.
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
use crate::sm::Sm;
use crate::trap::RunError;
use cheri_cap::CapMem;
use simt_mem::{map, Dram, MainMemory, TagController};

/// The subsystem the SMs share: functional DRAM contents, the DRAM channel
/// timing model, and the tag controller. Parked here between steps and
/// swap-installed into whichever SM is about to execute.
#[derive(Debug)]
struct Shared {
    mem: MainMemory,
    dram: Dram,
    tags: TagController,
}

/// A GPU device: N SMs plus (for N > 1) an arbitrated shared memory
/// subsystem. See the module documentation for the arbitration model.
#[derive(Debug)]
pub struct Device {
    sms: Vec<Sm>,
    /// `Some` iff `sms.len() > 1`; holds the shared subsystem whenever it
    /// is not installed in an SM (i.e. always, outside [`Device::run`]).
    shared: Option<Shared>,
    /// Per-SM end-of-run statistics from the last completed run.
    sm_stats: Vec<Option<KernelStats>>,
    /// Combined device statistics from the last completed run.
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
        let mut cores: Vec<Sm> = (0..sms).map(|_| Sm::new(cfg)).collect();
        for (k, sm) in cores.iter_mut().enumerate() {
            sm.set_hart_base(k as u32 * threads);
            sm.set_device_threads(sms * threads);
            // Multi-SM arbitration interleaves SMs at instruction
            // granularity, so an SM must never retire more than one issue
            // per scheduler step: basic-block runs stay single-SM only.
            sm.block_runs = sms == 1;
        }
        let shared = (sms > 1).then(|| {
            // Move SM 0's subsystem out as the shared one and park stubs in
            // every SM; the stubs are swapped out before any SM executes.
            let mem = std::mem::replace(&mut cores[0].mem, MainMemory::new(map::DRAM_BASE, 0));
            let dram = std::mem::replace(&mut cores[0].dram, Dram::new(cfg.dram));
            let tags = std::mem::replace(
                &mut cores[0].tags,
                TagController::new(cfg.tag_cache, cfg.cheri.enabled()),
            );
            for sm in &mut cores[1..] {
                sm.mem = MainMemory::new(map::DRAM_BASE, 0);
            }
            Shared { mem, dram, tags }
        });
        let n = cores.len();
        Device { sms: cores, shared, sm_stats: vec![None; n], stats: KernelStats::default() }
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

    /// Mutable SM `k` (panics if out of range). Note that on a multi-SM
    /// device an SM's own `memory()` is a parked stub — use
    /// [`Device::memory`] for the real DRAM contents.
    pub fn sm_mut(&mut self, k: usize) -> &mut Sm {
        &mut self.sms[k]
    }

    /// The device's functional DRAM (the shared one on a multi-SM device).
    pub fn memory(&self) -> &MainMemory {
        match &self.shared {
            Some(sh) => &sh.mem,
            None => self.sms[0].memory(),
        }
    }

    /// Mutable device DRAM.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        match &mut self.shared {
            Some(sh) => &mut sh.mem,
            None => self.sms[0].memory_mut(),
        }
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

    /// Reset every SM and the shared subsystem's statistics for a fresh
    /// launch (memory contents are preserved).
    pub fn reset(&mut self) {
        for sm in &mut self.sms {
            sm.reset();
        }
        if let Some(sh) = &mut self.shared {
            sh.dram.reset_stats();
            sh.tags.reset();
        }
        self.sm_stats = vec![None; self.sms.len()];
        self.stats = KernelStats::default();
    }

    /// Swap the shared subsystem into SM `k` (and point the contention
    /// accounting at it). Must be balanced by [`Device::uninstall`].
    fn install(&mut self, k: usize) {
        let sh = self.shared.as_mut().expect("install() is multi-SM only");
        sh.dram.set_accessor(k as u32);
        sh.tags.set_accessor(k as u32);
        let sm = &mut self.sms[k];
        std::mem::swap(&mut sm.mem, &mut sh.mem);
        std::mem::swap(&mut sm.dram, &mut sh.dram);
        std::mem::swap(&mut sm.tags, &mut sh.tags);
    }

    /// Swap the shared subsystem back out of SM `k`.
    fn uninstall(&mut self, k: usize) {
        let sh = self.shared.as_mut().expect("uninstall() is multi-SM only");
        let sm = &mut self.sms[k];
        std::mem::swap(&mut sm.mem, &mut sh.mem);
        std::mem::swap(&mut sm.dram, &mut sh.dram);
        std::mem::swap(&mut sm.tags, &mut sh.tags);
    }

    /// Run every SM to completion and return the combined device
    /// statistics. `max_cycles` bounds each SM's *local* clock.
    ///
    /// # Errors
    ///
    /// The first SM to trap, dead-lock or time out aborts the whole run
    /// with its error (deterministic, because the arbitration is). A
    /// trapped device stays queryable: every SM that ran — including the
    /// trapped one — has its partial statistics snapshotted, so
    /// [`Device::sm_stats`] and [`Device::stats`] report the state at the
    /// moment of the fault instead of panicking.
    pub fn run(&mut self, max_cycles: u64) -> Result<KernelStats, RunError> {
        if self.shared.is_none() {
            // Single SM: the classic path, bit-identical to `Sm::run`.
            let stats = match self.sms[0].run(max_cycles) {
                Ok(s) => s,
                Err(e) => {
                    // Snapshot the partial counters so the device stays
                    // queryable after the trap.
                    let partial = self.sms[0].finalise();
                    self.sm_stats[0] = Some(partial.clone());
                    self.stats = partial;
                    return Err(e);
                }
            };
            self.sm_stats[0] = Some(stats.clone());
            self.stats = stats.clone();
            return Ok(stats);
        }
        let n = self.sms.len();
        let mut live: Vec<usize> = (0..n).collect();
        while !live.is_empty() {
            // Deterministic arbitration: the live SM with the smallest
            // local cycle steps next; ties go to the lowest index.
            let k = *live.iter().min_by_key(|&&k| (self.sms[k].cycle(), k)).expect("nonempty");
            self.install(k);
            let outcome = match self.sms[k].step(max_cycles) {
                Ok(o) => o,
                Err(e) => {
                    // Finalise the trapped SM while the shared subsystem is
                    // still installed (its snapshot sees the live
                    // counters), then take partial snapshots of the other
                    // still-running SMs so the whole device is queryable.
                    self.sm_stats[k] = Some(self.sms[k].finalise());
                    self.uninstall(k);
                    for &other in &live {
                        if other != k {
                            self.sm_stats[other] = Some(self.sms[other].finalise());
                        }
                    }
                    self.stats = self.combine();
                    return Err(e);
                }
            };
            if outcome == StepOutcome::Done {
                // Finalise while the shared subsystem is still installed so
                // the per-SM snapshot sees the live counters.
                self.sm_stats[k] = Some(self.sms[k].finalise());
                live.retain(|&x| x != k);
            }
            self.uninstall(k);
        }
        self.stats = self.combine();
        Ok(self.stats.clone())
    }

    /// Per-SM statistics of the last completed run (`None` before any run).
    /// On a multi-SM device the `dram`/`tag_cache` sub-structs are
    /// snapshots of the *shared* subsystem at that SM's completion time —
    /// use the combined device statistics for end-of-run totals.
    pub fn sm_stats(&self, k: usize) -> Option<&KernelStats> {
        self.sm_stats[k].as_ref()
    }

    /// Combined statistics of the last completed run.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Combine per-SM statistics into device totals: pipeline counters
    /// merge as in [`KernelStats::add`], `cycles` is the slowest SM (the
    /// SMs run concurrently), residency averages are issue-weighted, and
    /// the shared `dram`/`tag_cache` counters are read once from the
    /// shared subsystem rather than summed across per-SM snapshots.
    /// Tolerates missing per-SM snapshots (an aborted run combines only
    /// the SMs that have one).
    fn combine(&self) -> KernelStats {
        let mut out = KernelStats::default();
        let mut weighted_data = 0.0;
        let mut weighted_meta = 0.0;
        for s in self.sm_stats.iter().flatten() {
            out.cycles = out.cycles.max(s.cycles);
            weighted_data += s.avg_data_vrf_resident * s.instrs as f64;
            weighted_meta += s.avg_meta_vrf_resident * s.instrs as f64;
            out.add(s);
        }
        if out.instrs > 0 {
            out.avg_data_vrf_resident = weighted_data / out.instrs as f64;
            out.avg_meta_vrf_resident = weighted_meta / out.instrs as f64;
        }
        if let Some(sh) = &self.shared {
            out.dram = sh.dram.stats();
            out.tag_cache = sh.tags.stats();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheriMode;
    use simt_isa::{csr, AluOp, Instr, Reg, SimtOp, StoreWidth};

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
    /// branch); the device reports the trap *and* stays queryable — both
    /// SMs have statistics snapshots and the combined stats are populated.
    #[test]
    fn trapped_device_stays_queryable() {
        use simt_isa::{BranchCond, LoadWidth};
        let cfg = SmConfig::small(CheriMode::Off);
        let threads = cfg.threads();
        let mut dev = Device::new(cfg, 2);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: threads as i32 },
            // Harts on SM 1 (global id >= threads) take the branch into an
            // unmapped load; harts on SM 0 terminate cleanly.
            Instr::Branch { cond: BranchCond::Geu, rs1: Reg::A0, rs2: Reg::A1, off: 8 },
            Instr::Simt { op: SimtOp::Terminate },
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
