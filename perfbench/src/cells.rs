//! Workloads, cells and the closed loop that runs them.
//!
//! A cell is one benchmark under one of the five `PERF_CONFIGS`, run on a
//! freshly built `Gpu`. Cells run one after another on this thread (one
//! client, closed loop). Every cell's simulated statistics are checked
//! against the committed reference (`reference.tsv`); a mismatch, a failed
//! self-check, a trap or a panic makes the cell a failure.

use crate::sink::{self, Counts};
use crate::span::Spans;
use crate::stats::{median, SpeedProbe};
use cheri_simt::KernelStats;
use nocl::Gpu;
use nocl_suite::{catalog, NoclBench, Scale};
use repro::{Config, Geometry, PERF_CONFIGS};
use sim_prng::Prng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every cell runs at paper geometry (64 warps x 32 lanes) on the paper's
/// datasets; a workload fixes only the SM count.
pub const GEOMETRY: Geometry = Geometry::Full;
const SCALE: Scale = Scale::Paper;

/// The other SM count of the 1-vs-4 pair that `device.ns_per_issue_ratio`
/// compares.
pub fn partner(sms: u32) -> u32 {
    if sms == 1 {
        4
    } else {
        1
    }
}

pub struct Workload {
    pub name: &'static str,
    pub sms: u32,
}

pub const WORKLOADS: [Workload; 2] =
    [Workload { name: "suite-sm1", sms: 1 }, Workload { name: "suite-sm4", sms: 4 }];

#[derive(Clone, Copy)]
pub struct Cell {
    pub bench: &'static dyn NoclBench,
    pub tag: &'static str,
    pub config: Config,
}

/// All 70 cells, configuration-major in `PERF_CONFIGS` order, benchmarks
/// in Table-1 order.
pub fn cells() -> Vec<Cell> {
    PERF_CONFIGS
        .iter()
        .flat_map(|&(tag, config)| catalog().iter().map(move |&bench| Cell { bench, tag, config }))
        .collect()
}

/// A pass's cell order, drawn from the seeded stream. The seed only
/// permutes cells: every benchmark seeds its input data from its own
/// constant, so the simulated statistics of a cell do not depend on it.
pub fn shuffled(rng: &mut Prng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// The statistics the reference pins, in `reference.tsv` column order.
pub const PINNED: [&str; 8] = [
    "cycles",
    "instrs",
    "scalarised_issues",
    "dram_reads",
    "dram_writes",
    "dram_tag_txns",
    "tag_hits",
    "tag_misses",
];

pub fn pinned(s: &KernelStats) -> [u64; 8] {
    [
        s.cycles,
        s.instrs,
        s.scalarised_issues,
        s.dram.read_transactions,
        s.dram.write_transactions,
        s.dram.tag_transactions,
        s.tag_cache.hits,
        s.tag_cache.misses,
    ]
}

/// Reference key: `paper/sm<N>`, benchmark, configuration.
fn ref_key(sms: u32, cell: &Cell) -> String {
    format!("paper/sm{sms}\t{}\t{}", cell.bench.name(), cell.tag)
}

/// The committed per-cell reference statistics.
pub struct Reference(BTreeMap<String, [u64; 8]>);

impl Reference {
    pub fn embedded() -> Result<Reference, String> {
        let mut map = BTreeMap::new();
        for (n, line) in include_str!("../reference.tsv").lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 3 + PINNED.len() {
                return Err(format!(
                    "reference.tsv:{}: expected {} fields",
                    n + 1,
                    3 + PINNED.len()
                ));
            }
            let mut vals = [0u64; 8];
            for (v, f) in vals.iter_mut().zip(&fields[3..]) {
                *v = f.parse().map_err(|e| format!("reference.tsv:{}: {e}", n + 1))?;
            }
            map.insert(fields[..3].join("\t"), vals);
        }
        Ok(Reference(map))
    }

    fn check(&self, sms: u32, cell: &Cell, stats: &KernelStats) -> Result<(), String> {
        let want = self.0.get(&ref_key(sms, cell)).ok_or("no reference entry")?;
        let got = pinned(stats);
        for ((name, g), w) in PINNED.iter().zip(got).zip(want) {
            if g != *w {
                return Err(format!("{name} = {g}, reference says {w}"));
            }
        }
        Ok(())
    }
}

/// Cells between two host-speed probes in an end-to-end pass: 35 probes
/// per pass, costing about 4% of its time.
const PROBE_EVERY: usize = 2;

/// One cell's outcome and host timings (seconds).
pub struct CellRun {
    pub cell: Cell,
    /// `Gpu::with_sms`.
    pub gpu_new: f64,
    /// Start of `NoclBench::run` to the first pre-launch hook: alloc and
    /// upload, kir compile, argument marshal, ROM predecode, reset.
    pub prep: f64,
    /// First pre-launch hook to cell end.
    pub sim: f64,
    /// `None` when the cell failed (see `error`).
    pub stats: Option<KernelStats>,
    pub counts: Counts,
    pub error: Option<String>,
}

impl CellRun {
    pub fn setup(&self) -> f64 {
        self.gpu_new + self.prep
    }

    pub fn total(&self) -> f64 {
        self.gpu_new + self.prep + self.sim
    }

    pub fn instrs(&self) -> u64 {
        self.stats.as_ref().map_or(0, |s| s.instrs)
    }
}

/// Run one cell. With `traced`, a counting sink is attached at the first
/// pre-launch hook and reconciled against the cell's statistics.
pub fn run_cell(sms: u32, cell: Cell, traced: bool, reference: Option<&Reference>) -> CellRun {
    let (cfg, mode) = cell.config.instantiate(GEOMETRY);
    let t0 = Instant::now();
    let mut gpu = Gpu::with_sms(cfg, mode, sms);
    let t1 = Instant::now();
    let first_hook: Arc<Mutex<Option<Instant>>> = Arc::default();
    let hook_seen = Arc::clone(&first_hook);
    gpu.set_pre_launch_hook(Box::new(move |dev| {
        let mut seen = hook_seen.lock().expect("hook clock poisoned");
        seen.get_or_insert_with(Instant::now);
        if traced {
            sink::install(dev);
        }
    }));
    let result = catch_unwind(AssertUnwindSafe(|| cell.bench.run(&mut gpu, SCALE)));
    let t2 = Instant::now();
    let hook = first_hook.lock().expect("hook clock poisoned").unwrap_or(t2);
    let counts = if traced { sink::collect(gpu.device_mut()) } else { Counts::default() };
    let checked = match result {
        Ok(Ok(stats)) => {
            let ok = reference.map_or(Ok(()), |r| r.check(sms, &cell, &stats)).and_then(|()| {
                if traced {
                    counts.reconcile(&stats).map_err(|e| format!("trace/stats mismatch: {e}"))
                } else {
                    Ok(())
                }
            });
            ok.map(|()| stats)
        }
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".to_owned()),
    };
    let (stats, error) = match checked {
        Ok(s) => (Some(s), None),
        Err(e) => (None, Some(e)),
    };
    CellRun {
        cell,
        gpu_new: (t1 - t0).as_secs_f64(),
        prep: (hook - t1).as_secs_f64(),
        sim: (t2 - hook).as_secs_f64(),
        stats,
        counts,
        error,
    }
}

/// One pass over every cell.
pub struct Pass {
    pub runs: Vec<CellRun>,
}

impl Pass {
    pub fn failed(&self) -> u64 {
        self.runs.iter().filter(|r| r.error.is_some()).count() as u64
    }

    pub fn instrs(&self) -> u64 {
        self.runs.iter().map(CellRun::instrs).sum()
    }

    pub fn setup(&self) -> f64 {
        self.runs.iter().map(CellRun::setup).sum()
    }

    pub fn cell_time(&self) -> f64 {
        self.runs.iter().map(CellRun::total).sum()
    }

    pub fn sim(&self) -> f64 {
        self.runs.iter().map(|r| r.sim).sum()
    }

    /// Statistics of the cells that passed, summed. `accumulate` leaves the
    /// cross-SM counters out, so they are added here.
    pub fn stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for s in self.runs.iter().filter_map(|r| r.stats.as_ref()) {
            total.accumulate(s);
            total.dram.cross_sm_wait_cycles += s.dram.cross_sm_wait_cycles;
            total.tag_cache.cross_sm_conflict_evictions += s.tag_cache.cross_sm_conflict_evictions;
        }
        total
    }

    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for r in &self.runs {
            total.add(&r.counts);
        }
        total
    }
}

/// Run one cell, recording its span under `parent` with a child span for
/// each layer the cell crosses.
pub fn run_spanned(
    label: &str,
    sms: u32,
    cell: Cell,
    traced: bool,
    reference: &Reference,
    spans: &mut Spans,
    parent: usize,
) -> CellRun {
    let start = spans.now();
    let run = run_cell(sms, cell, traced, Some(reference));
    let name = format!("cell {} [{}] {label} sm{sms}", cell.bench.name(), cell.tag);
    let cell_id = spans.record(&name, Some(parent), start, start + run.total());
    let mut at = start;
    for (layer, secs) in
        [("nocl.gpu_new", run.gpu_new), ("nocl.prep", run.prep), ("core.sim", run.sim)]
    {
        spans.record(layer, Some(cell_id), at, at + secs);
        at += secs;
    }
    if let Some(e) = &run.error {
        eprintln!("perfbench: {name} FAILED: {e}");
    }
    run
}

/// One untraced end-to-end pass over `cells` in `order`, recorded as a span. Every
/// `PROBE_EVERY` cells it runs `probe`; it returns the pass
/// and the median probe time.
pub fn run_pass(
    sms: u32,
    cells: &[Cell],
    order: &[usize],
    reference: &Reference,
    probe: &mut SpeedProbe,
    spans: &mut Spans,
) -> (Pass, f64) {
    let pass_id = spans.reserve();
    let t0 = spans.now();
    let mut runs = Vec::with_capacity(order.len());
    let mut probes = Vec::new();
    for (k, &i) in order.iter().enumerate() {
        runs.push(run_spanned("e2e", sms, cells[i], false, reference, spans, pass_id));
        if k % PROBE_EVERY == PROBE_EVERY - 1 {
            probes.push(spans.time("speed_probe", Some(pass_id), || probe.time()));
        }
    }
    let t1 = spans.now();
    spans.fill(pass_id, &format!("pass e2e sm{sms}"), None, t0, t1);
    (Pass { runs }, median(probes))
}

/// Regenerate `reference.tsv` from one Table-order pass per SM count. Refuses
/// to write if any cell fails its self-check.
pub fn write_reference(path: &str) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Per-cell simulated statistics the benchmark checks every run against.\n\
         # Regenerate with: cargo run --release --offline --manifest-path \
         perfbench/Cargo.toml -- --write-reference\n",
    );
    let _ = writeln!(out, "# shape\tbench\tconfig\t{}", PINNED.join("\t"));
    // The workloads' SM counts, which are also each other's partners.
    for sms in WORKLOADS.map(|w| w.sms) {
        for cell in cells() {
            let run = run_cell(sms, cell, false, None);
            let stats = run.stats.ok_or_else(|| {
                format!(
                    "sm{sms} {} [{}]: {}",
                    cell.bench.name(),
                    cell.tag,
                    run.error.unwrap_or_default()
                )
            })?;
            let vals: Vec<String> = pinned(&stats).iter().map(u64::to_string).collect();
            let _ = writeln!(out, "{}\t{}", ref_key(sms, &cell), vals.join("\t"));
        }
        eprintln!("perfbench: reference for sm{sms} done");
    }
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))
}
