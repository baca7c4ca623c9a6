//! The streaming multiprocessor: state, host-facing control surface, and
//! the run loop driving the pipeline stages (Figure 2 + Figure 8).
//!
//! The per-stage logic lives in [`crate::pipeline`] — `schedule`,
//! `operands`, `execute`, `memstage` and `writeback` each contribute an
//! `impl Sm` block owning their slice of the statistics and trace events.
//! This module keeps only the state, the host API (program loading,
//! SCRs, sinks, reset) and the cycle loop.

use crate::config::{CheriOpts, SmConfig};
use crate::counters::KernelStats;
use crate::pipeline::schedule::WarpSet;
use crate::pipeline::StepOutcome;
use crate::rom::ProgramRom;
use crate::trap::{RunError, Trap};
use crate::warp::Warp;
use cheri_cap::{CapMem, CapPipe, Perms};
use simt_mem::{map, CoalescingUnit, Dram, MainMemory, Scratchpad, TagController};
use simt_regfile::{CompressedRegFile, RfConfig, MAX_LANES};
use simt_trace::{EventSink, StallCause, TraceEvent};

/// The memory subsystem an SM drives: functional DRAM contents, the DRAM
/// channel timing model and the tag controller.
///
/// A stand-alone [`Sm`] owns one. On a [`crate::Device`] the SMs share a
/// single `MemSys`: SM 0 holds it between runs, it moves to whichever SM
/// steps during [`crate::Device::run`], and every other SM holds an empty
/// stub (see [`MemSys::stub`]).
#[derive(Debug)]
pub(crate) struct MemSys {
    /// Functional DRAM contents.
    pub(crate) main: MainMemory,
    /// The DRAM channel timing model.
    pub(crate) dram: Dram,
    /// The tag controller.
    pub(crate) tags: TagController,
}

impl MemSys {
    /// A full-size subsystem for `cfg`.
    pub(crate) fn new(cfg: &SmConfig) -> Self {
        Self::with_dram_size(cfg, cfg.dram_size)
    }

    /// A placeholder with no DRAM contents, parked in an SM while the
    /// device's shared subsystem is elsewhere. No SM steps against it.
    pub(crate) fn stub(cfg: &SmConfig) -> Self {
        Self::with_dram_size(cfg, 0)
    }

    fn with_dram_size(cfg: &SmConfig, bytes: u32) -> Self {
        MemSys {
            main: MainMemory::new(map::DRAM_BASE, bytes),
            dram: Dram::new(cfg.dram),
            tags: TagController::new(cfg.tag_cache, cfg.cheri.enabled()),
        }
    }

    /// Point the cross-SM contention accounting at SM `k`.
    pub(crate) fn set_accessor(&mut self, k: u32) {
        self.dram.set_accessor(k);
        self.tags.set_accessor(k);
    }
}

/// One lane array per operand of the widest per-lane loop (a capability
/// store's address, address metadata, value and value metadata).
pub(crate) type Spare = [[u64; MAX_LANES]; 4];

/// Reusable per-lane scratch buffers for the execute path.
///
/// Irregular (`Vector`) operands are expanded into, and per-lane results
/// computed in, `MAX_LANES`-sized arrays regardless of the configured lane
/// count; allocating (and zero-filling) those on the stack per issue
/// dominates the host-model cost of small geometries. One boxed copy lives
/// on the [`Sm`] instead, loaned out with a take/put pattern (see
/// [`Sm::take_bufs`]). Contents are *stale* between issues by design: a
/// `Vector` operand or result borrows exactly the lanes that were just
/// written, and the memory stage reads back only under the mask it wrote
/// (audited per handler at the use sites).
#[derive(Debug)]
pub(crate) struct LaneBufs {
    /// First data operand (or memory address).
    pub a: [u64; MAX_LANES],
    /// Second data operand (or store value).
    pub b: [u64; MAX_LANES],
    /// Metadata of `a`.
    pub am: [u64; MAX_LANES],
    /// Metadata of `b` (or a spare per-lane scratch).
    pub bm: [u64; MAX_LANES],
    /// Result data.
    pub r: [u64; MAX_LANES],
    /// Result metadata.
    pub rm: [u64; MAX_LANES],
    /// Expansion space for compact operands that a per-lane loop reads
    /// (see [`crate::pipeline::scalar::lanes`]).
    pub spare: Spare,
    /// Per-lane next PCs (control flow).
    pub pcs: [u32; MAX_LANES],
    /// Per-lane effective addresses (memory stage).
    pub eas: [u32; MAX_LANES],
    /// DRAM lane requests of the in-flight memory op (capacity retained
    /// across issues; cleared by each user before filling).
    pub dram_reqs: Vec<simt_mem::LaneRequest>,
    /// Scratchpad lane requests (same contract as `dram_reqs`).
    pub scratch_reqs: Vec<simt_mem::LaneRequest>,
}

impl LaneBufs {
    fn new() -> Box<Self> {
        Box::new(LaneBufs {
            a: [0; MAX_LANES],
            b: [0; MAX_LANES],
            am: [0; MAX_LANES],
            bm: [0; MAX_LANES],
            r: [0; MAX_LANES],
            rm: [0; MAX_LANES],
            spare: [[0; MAX_LANES]; 4],
            pcs: [0; MAX_LANES],
            eas: [0; MAX_LANES],
            dram_reqs: Vec::with_capacity(MAX_LANES),
            scratch_reqs: Vec::with_capacity(MAX_LANES),
        })
    }
}

/// The streaming multiprocessor model.
#[derive(Debug)]
pub struct Sm {
    pub(crate) cfg: SmConfig,
    pub(crate) opts: Option<CheriOpts>,
    /// The loaded program's instruction words (reported by
    /// `illegal_instr` traps).
    pub(crate) imem_raw: Vec<u32>,
    /// The pre-decoded program ROM over `imem_raw`, the only decoder on
    /// the issue path: see [`crate::rom`].
    pub(crate) rom: ProgramRom,
    pub(crate) warps: Vec<Warp>,
    pub(crate) data_rf: CompressedRegFile,
    pub(crate) meta_rf: Option<CompressedRegFile>,
    pub(crate) scrs: [CapMem; 32],
    /// PCC for kernel launch (code capability over the loaded program).
    pub(crate) launch_pcc: CapPipe,
    /// The launch PCC in warp-metadata form (`meta | tag << 32`), for the
    /// memoised fetch check: a warp still running on the launch PCC needs
    /// no per-issue `check_fetch` once the whole program is known covered.
    pub(crate) launch_pcc_meta: u64,
    /// Verified at load time: `check_fetch` passes for **every** aligned
    /// PC of the loaded program under the launch PCC metadata, so the
    /// issue path may skip the check whenever the selection's metadata
    /// equals `launch_pcc_meta`, its PC is aligned and its index is in
    /// range. Exact, not heuristic — each slot was probed.
    pub(crate) pcc_fetch_ok: bool,
    /// DRAM contents, DRAM timing and the tag controller: this SM's own
    /// when stand-alone, the device's shared one (or a parked stub) on a
    /// [`crate::Device`].
    pub(crate) mem: MemSys,
    pub(crate) scratch: Scratchpad,
    pub(crate) coalescer: CoalescingUnit,
    /// Warps per thread block, for barrier grouping.
    pub(crate) block_warps: u32,
    /// Stack arena (base, size) for the compressed stack cache filter.
    pub(crate) stack_region: Option<(u32, u32)>,
    /// GPUShield comparator mode: a per-launch bounds table.
    pub(crate) bounds_table: Option<crate::shield::BoundsTable>,
    /// Structured event sink (`None` = tracing off; the pipeline and the
    /// memory hierarchy emit nothing and take only an `Option` branch).
    pub(crate) sink: Option<Box<dyn EventSink>>,
    pub(crate) stats: KernelStats,
    pub(crate) cycle: u64,
    /// The cycle at which the current scheduler step, or the issue within
    /// it, began: the ordering key a [`crate::Device`] gives an error it
    /// raises.
    pub(crate) key_cycle: u64,
    /// Round-robin pointer: the pick takes the first ready warp at or after
    /// it.
    pub(crate) rr: usize,
    /// Warps with a runnable thread. With `ready`, `parked` and
    /// `next_wake` this is the scheduler's ready set (see
    /// [`crate::pipeline::schedule`]).
    pub(crate) live: WarpSet,
    /// Live warps whose `ready_at` has passed, exact whenever
    /// `cycle < next_wake`.
    pub(crate) ready: WarpSet,
    /// Warps with a thread parked at a barrier.
    pub(crate) parked: WarpSet,
    /// The smallest `ready_at` over `live` warps outside `ready`
    /// (`u64::MAX` when there are none).
    pub(crate) next_wake: u64,
    /// Occupancy sampling accumulators.
    pub(crate) samples: u64,
    pub(crate) sum_data_resident: u64,
    pub(crate) sum_meta_resident: u64,
    /// First global hart id on this SM (`sm_index × threads_per_sm` on a
    /// multi-SM [`crate::Device`]; 0 stand-alone).
    pub(crate) hart_base: u32,
    /// What `SIMT_NUM_THREADS` reads: the *device-wide* thread count, so
    /// grid-stride kernels distribute work across every SM. Equals
    /// `cfg.threads()` stand-alone.
    pub(crate) device_threads: u32,
    /// Traps suppressed under `TrapPolicy::MaskLanes` this launch, in
    /// delivery order (empty under `Abort`).
    pub(crate) suppressed: Vec<Trap>,
    /// Loaned-out lane scratch (`None` only while a handler holds it).
    pub(crate) bufs: Option<Box<LaneBufs>>,
}

impl Sm {
    /// Borrow the lane scratch buffers for an execute handler. Callers
    /// must hand them back with [`Sm::put_bufs`] on every exit path
    /// (including trap returns).
    #[inline]
    pub(crate) fn take_bufs(&mut self) -> Box<LaneBufs> {
        self.bufs.take().expect("lane scratch buffers already loaned out")
    }

    /// Return the lane scratch buffers taken by [`Sm::take_bufs`].
    #[inline]
    pub(crate) fn put_bufs(&mut self, bufs: Box<LaneBufs>) {
        self.bufs = Some(bufs);
    }
}

impl Sm {
    /// Build an SM from a configuration. The program must be loaded with
    /// [`Sm::load_program`] before [`Sm::run`].
    pub fn new(cfg: SmConfig) -> Self {
        Self::with_mem(cfg, MemSys::new(&cfg))
    }

    /// Build an SM driving the given memory subsystem.
    pub(crate) fn with_mem(cfg: SmConfig, mem: MemSys) -> Self {
        let opts = cfg.cheri.opts();
        let data_rf = CompressedRegFile::new(RfConfig::data(cfg.warps, cfg.lanes, cfg.vrf_slots));
        let meta_rf = opts.map(|o| {
            let slots = if o.compress_meta {
                // Shared VRF: metadata vectors compete for the same slots;
                // modelled as an equal-capacity pool (see DESIGN.md).
                cfg.vrf_slots
            } else {
                // Naive CHERI: full-size uncompressed metadata storage.
                cfg.warps * 32
            };
            let mut rf_cfg = RfConfig::meta(cfg.warps, cfg.lanes, slots, o.nvo);
            if !o.compress_meta {
                // The naive configuration has a full three-port register
                // file; no CSC port penalty applies (handled in issue()).
                rf_cfg.srf_copies = 2;
            }
            CompressedRegFile::new(rf_cfg)
        });
        Sm {
            opts,
            imem_raw: Vec::new(),
            rom: ProgramRom::default(),
            warps: Vec::new(),
            data_rf,
            meta_rf,
            scrs: [CapMem::NULL; 32],
            launch_pcc: CapPipe::null(),
            launch_pcc_meta: 0,
            pcc_fetch_ok: false,
            mem,
            scratch: Scratchpad::new(map::SCRATCH_BASE, map::SCRATCH_SIZE, cfg.lanes),
            coalescer: CoalescingUnit::new(),
            block_warps: 1,
            stack_region: None,
            bounds_table: None,
            sink: None,
            stats: KernelStats::default(),
            cycle: 0,
            key_cycle: 0,
            rr: 0,
            live: WarpSet::new(cfg.warps),
            ready: WarpSet::new(cfg.warps),
            parked: WarpSet::new(cfg.warps),
            next_wake: u64::MAX,
            samples: 0,
            sum_data_resident: 0,
            sum_meta_resident: 0,
            hart_base: 0,
            device_threads: cfg.threads(),
            suppressed: Vec::new(),
            bufs: Some(LaneBufs::new()),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// Main memory (host-side access for buffer setup/readback).
    pub fn memory(&self) -> &MainMemory {
        &self.mem.main
    }

    /// Mutable main memory.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem.main
    }

    /// The scratchpad.
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratch
    }

    /// Set a special capability register (host side, at launch).
    pub fn set_scr(&mut self, index: u8, cap: CapMem) {
        self.scrs[index as usize] = cap;
    }

    /// Place this SM at `hart_base` within a device: `MHARTID` reads
    /// `hart_base + warp × lanes + lane`. A stand-alone SM keeps the
    /// default 0.
    pub fn set_hart_base(&mut self, hart_base: u32) {
        self.hart_base = hart_base;
    }

    /// First global hart id on this SM.
    pub fn hart_base(&self) -> u32 {
        self.hart_base
    }

    /// Override what `SIMT_NUM_THREADS` reads (the device-wide hardware
    /// thread count on a multi-SM device). Defaults to this SM's own
    /// thread count.
    pub fn set_device_threads(&mut self, threads: u32) {
        assert!(
            threads >= self.cfg.threads() && threads.is_multiple_of(self.cfg.threads()),
            "device threads must be a whole number of SMs"
        );
        self.device_threads = threads;
    }

    /// Attach a structured event sink: the pipeline, memory hierarchy and
    /// register files will emit [`simt_trace::TraceEvent`]s into it from now
    /// on. The sink survives [`Sm::reset`] (each launch is delimited by a
    /// [`simt_trace::TraceEvent::Launch`] marker), so a multi-launch
    /// benchmark accumulates one continuous stream. Replaces any previously
    /// attached sink.
    ///
    /// For a bounded always-on trace, attach a [`simt_trace::RingSink`]: it
    /// keeps the most recent events and counts evictions, which is the tool
    /// for "how did this kernel reach the trap?" post-mortems.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Detach and return the current event sink, disabling structured
    /// tracing. Use [`EventSink::as_any`] to downcast to the concrete sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }

    /// Is a structured event sink attached?
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit a stall event (no-op without a sink or for zero-cycle stalls, so
    /// per-cause cycle sums always reconcile with `StallBreakdown`).
    pub(crate) fn emit_stall(&mut self, warp: u32, cause: StallCause, cycles: u64) {
        if cycles > 0 {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(TraceEvent::Stall { cycle: self.cycle, warp, cause, cycles });
            }
        }
    }

    /// Install (or clear) a GPUShield-style bounds table for the next run
    /// — the comparator of Section 5.2. Ignored under CHERI.
    pub fn set_bounds_table(&mut self, table: Option<crate::shield::BoundsTable>) {
        self.bounds_table = table;
    }

    /// Tell the SM where the per-thread stack arena lives, so the
    /// compressed stack cache (when enabled) only filters spill traffic.
    pub fn set_stack_region(&mut self, base: u32, size: u32) {
        self.stack_region = Some((base, size));
    }

    /// Set the number of warps per thread block (barrier grouping).
    ///
    /// # Panics
    ///
    /// Panics unless the block size divides the warp count.
    pub fn set_block_warps(&mut self, warps: u32) {
        assert!(warps >= 1 && self.cfg.warps.is_multiple_of(warps), "blocks must tile the SM");
        self.block_warps = warps;
    }

    /// Load a program at the base of instruction memory, pre-decode it into
    /// the program ROM and mint the launch PCC over it.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds the TCIM.
    pub fn load_program(&mut self, words: &[u32]) {
        assert!((words.len() * 4) as u32 <= map::TCIM_SIZE, "program too large for TCIM");
        self.imem_raw = words.to_vec();
        self.rom = ProgramRom::build(words, self.cfg.cheri.enabled());
        let (pcc, exact) = CapPipe::almighty()
            .and_perm(Perms::code())
            .set_addr(map::TCIM_BASE)
            .set_bounds((words.len() * 4) as u32);
        debug_assert!(exact || pcc.tag());
        self.launch_pcc = pcc;
        // Memoise the fetch check: probe every program slot once under the
        // launch PCC metadata, exactly as the issue path would, so a warp
        // still running on that metadata skips the per-issue check.
        if self.cfg.cheri.enabled() {
            let m = self.launch_pcc.to_mem();
            self.launch_pcc_meta = m.meta() as u64 | ((m.tag() as u64) << 32);
            self.pcc_fetch_ok = (0..words.len()).all(|i| {
                let pc = map::TCIM_BASE + (i as u32) * 4;
                Self::cap_of(self.launch_pcc_meta, pc as u64).check_fetch(pc).is_ok()
            });
        } else {
            self.launch_pcc_meta = 0;
            self.pcc_fetch_ok = false;
        }
    }

    /// Reset warps, register files and statistics for a fresh launch.
    /// Memory contents (program, buffers, scratchpad) are preserved.
    pub fn reset(&mut self) {
        let static_pcc = self.opts.map(|o| o.static_pcc).unwrap_or(true);
        let pcc_meta = if self.cfg.cheri.enabled() {
            let m = self.launch_pcc.to_mem();
            m.meta() as u64 | ((m.tag() as u64) << 32)
        } else {
            0
        };
        self.warps.clear();
        self.warps.extend(
            (0..self.cfg.warps)
                .map(|_| Warp::new(self.cfg.lanes, map::TCIM_BASE, pcc_meta, static_pcc)),
        );
        self.data_rf.clear();
        if let Some(m) = &mut self.meta_rf {
            m.clear();
        }
        self.mem.dram.reset_stats();
        self.mem.tags.reset();
        self.scratch.reset_stats();
        self.stats = KernelStats::default();
        self.cycle = 0;
        self.key_cycle = 0;
        self.rr = 0;
        // Every warp starts runnable and ready at cycle 0.
        self.live.fill();
        self.ready.fill();
        self.parked.clear();
        self.next_wake = u64::MAX;
        self.samples = 0;
        self.sum_data_resident = 0;
        self.sum_meta_resident = 0;
        self.suppressed.clear();
        // The sink deliberately survives the reset: each launch contributes
        // a delimited segment to one continuous stream.
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Launch { cycle: 0, warps: self.cfg.warps });
        }
    }

    /// Run until every thread terminates; returns the collected statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trap`] on the first thread fault,
    /// [`RunError::Timeout`] if the watchdog expires, and
    /// [`RunError::Deadlock`] when only barrier-blocked warps remain.
    pub fn run(&mut self, max_cycles: u64) -> Result<KernelStats, RunError> {
        assert!(!self.warps.is_empty(), "call reset() before run()");
        loop {
            match self.step(max_cycles, u64::MAX)? {
                StepOutcome::Done => return Ok(self.finalise()),
                StepOutcome::Progress => {}
                StepOutcome::Blocked => unreachable!("a stand-alone SM always holds the turn"),
            }
        }
    }

    /// The local pipeline clock.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Snapshot the end-of-run statistics from the pipeline accumulators
    /// and the attached memory subsystem.
    pub(crate) fn finalise(&mut self) -> KernelStats {
        let mut s = self.stats.clone();
        s.cycles = self.cycle;
        s.dram = self.mem.dram.stats();
        s.tag_cache = self.mem.tags.stats();
        s.scratch = self.scratch.stats();
        s.data_rf = self.data_rf.stats();
        s.peak_data_vrf_resident = self.data_rf.stats().peak_resident;
        if let Some(m) = &self.meta_rf {
            s.meta_rf = m.stats();
            s.peak_meta_vrf_resident = m.stats().peak_resident;
            s.cap_regs_used = m.max_nonnull_regs();
            s.cap_regs_mask = m.nonnull_mask_union();
        }
        if self.samples > 0 {
            s.avg_data_vrf_resident = self.sum_data_resident as f64 / self.samples as f64;
            s.avg_meta_vrf_resident = self.sum_meta_resident as f64 / self.samples as f64;
        }
        self.stats = s.clone();
        s
    }

    /// Read back the statistics of the last completed run.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Traps suppressed under `TrapPolicy::MaskLanes` during the current
    /// launch, in delivery order. Always empty under `TrapPolicy::Abort`.
    pub fn suppressed_traps(&self) -> &[Trap] {
        &self.suppressed
    }
}
