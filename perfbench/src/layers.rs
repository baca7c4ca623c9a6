//! The traced run: per-layer metrics.
//!
//! Three passes over the cells run interleaved, cell by cell, so that each
//! ratio between them compares runs made seconds apart: an untraced pass
//! gives the host-time split, a pass with a counting sink attached at the
//! pre-launch hook gives event counts (reconciled cell by cell against
//! `KernelStats`), and an untraced pass at the partner SM count gives the
//! device-layer ratio. The compiler and ROM are then timed by calling
//! `nocl_kir::compile` and `Device::load_program` directly, and the
//! substrates by the same public functions `crates/bench/benches/components.rs`
//! times.

use crate::cells::{
    cells, partner, run_spanned, shuffled, Cell, Pass, Reference, Workload, GEOMETRY,
};
use crate::span::Spans;
use crate::stats::median;
use crate::{Metric, Outcome};
use cheri_cap::{bounds, CapPipe};
use cheri_simt::Device;
use nocl_kir::{Kernel, Mode};
use repro::PERF_CONFIGS;
use sim_prng::Prng;
use simt_mem::{CoalescingUnit, LaneRequest};
use simt_regfile::{CompressedRegFile, RfConfig};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the compile and ROM-load sweeps (median reported).
const SWEEP_REPS: usize = 15;
/// Samples per substrate microbenchmark (median reported).
const MICRO_SAMPLES: usize = 31;

pub fn traced_run(w: &Workload, seed: u64, reference: &Reference, spans: &mut Spans) -> Outcome {
    let cells = cells();
    let order = shuffled(&mut Prng::seed_from_u64(seed), cells.len());
    let (mut plain, mut traced, mut partnered) = (Vec::new(), Vec::new(), Vec::new());
    let top = spans.reserve();
    let t0 = spans.now();
    for &i in &order {
        let cell = cells[i];
        plain.push(run_spanned("untraced", w.sms, cell, false, reference, spans, top));
        traced.push(run_spanned("traced", w.sms, cell, true, reference, spans, top));
        partnered.push(run_spanned("partner", partner(w.sms), cell, false, reference, spans, top));
    }
    let t1 = spans.now();
    spans.fill(top, &format!("traced run sm{}", w.sms), None, t0, t1);
    let [plain, traced, partner] = [plain, traced, partnered].map(|runs| Pass { runs });
    let mut out = Outcome::default();
    for pass in [&plain, &traced, &partner] {
        out.attempted += pass.runs.len() as u64;
        out.failed += pass.failed();
    }
    let m = &mut out.metrics;
    m.push(Metric::new(
        "nocl.gpu_new_ms",
        1e3 * plain.runs.iter().map(|r| r.gpu_new).sum::<f64>(),
        "ms",
    ));
    m.push(Metric::new("nocl.prep_ms", 1e3 * plain.runs.iter().map(|r| r.prep).sum::<f64>(), "ms"));
    let kernels = kernels(&cells, &order);
    let compiled: Result<Vec<Vec<u32>>, _> =
        kernels.iter().map(|(k, mode)| nocl_kir::compile(k, *mode).map(|c| c.words)).collect();
    let words = match compiled {
        Ok(words) => words,
        Err(e) => {
            eprintln!("perfbench: kir compile failed: {e}");
            out.failed += 1;
            return out;
        }
    };
    m.push(Metric::new(
        "kir.compile_us",
        spans.time("kir.compile", None, || compile_us(&kernels)),
        "us",
    ));
    m.push(Metric::new(
        "kir.code_words",
        words.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    ));
    m.push(Metric::new(
        "rom.load_us",
        spans.time("rom.load", None, || load_us(w, &cells, &order, &words)),
        "us",
    ));
    core_metrics(&plain, m);
    device_metrics(w, &plain, &partner, m);
    let c = traced.counts();
    m.push(Metric::new(
        "mem.dram_txns",
        (c.dram_reads + c.dram_writes + c.dram_tag_txns) as f64,
        "count",
    ));
    m.push(Metric::new("mem.tag_cache_hit_rate", ratio(c.tag_hits, c.tag_lookups), "ratio"));
    m.push(Metric::new("mem.txns_per_access", ratio(c.dram_access_txns, c.dram_accesses), "ratio"));
    m.push(Metric::new("regfile.vector_transitions", c.vector_transitions as f64, "count"));
    m.push(Metric::new("trace.overhead_ratio", traced.cell_time() / plain.cell_time(), "ratio"));
    spans.time("substrates", None, || substrate_metrics(m));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn core_metrics(plain: &Pass, m: &mut Vec<Metric>) {
    m.push(Metric::new("core.sim_s", plain.sim(), "s"));
    for (tag, _) in PERF_CONFIGS {
        let runs = plain.runs.iter().filter(|r| r.cell.tag == *tag);
        let (sim, instrs) = runs.fold((0.0, 0u64), |(s, i), r| (s + r.sim, i + r.instrs()));
        m.push(Metric::new(
            &format!("core.ns_per_issue.{tag}"),
            1e9 * sim / instrs.max(1) as f64,
            "ns",
        ));
    }
    let s = plain.stats();
    m.push(Metric::new("core.scalarised_share", ratio(s.scalarised_issues, s.instrs), "ratio"));
    m.push(Metric::new("core.ipc", ratio(s.instrs, s.cycles), "instr/cycle"));
    let st = &s.stalls;
    // The causes that are non-zero on some workload: CSC serialisation and
    // spill/fill stalls read 0 on every cell at paper geometry.
    for (cause, cycles) in [
        ("shared_vrf_conflict", st.shared_vrf_conflict),
        ("cap_multi_flit", st.cap_multi_flit),
        ("idle", st.idle),
    ] {
        m.push(Metric::new(&format!("core.stall_cycles.{cause}"), cycles as f64, "cycles"));
    }
}

/// Device metrics compare the workload's pass with its partner pass at the
/// other SM count; the contention counters come from the 4-SM side.
fn device_metrics(w: &Workload, plain: &Pass, partner: &Pass, m: &mut Vec<Metric>) {
    let (one, four) = if w.sms == 1 { (plain, partner) } else { (partner, plain) };
    let ns_per_issue = |p: &Pass| p.sim() / p.instrs().max(1) as f64;
    m.push(Metric::new(
        "device.ns_per_issue_ratio",
        ns_per_issue(four) / ns_per_issue(one),
        "ratio",
    ));
    let s = four.stats();
    m.push(Metric::new(
        "device.cross_sm_wait_cycles",
        s.dram.cross_sm_wait_cycles as f64,
        "cycles",
    ));
    m.push(Metric::new(
        "device.tag_conflict_evictions",
        s.tag_cache.cross_sm_conflict_evictions as f64,
        "count",
    ));
}

/// Each cell's kernel (`NoclBench::example_kernel`) and its mode, in `order`.
fn kernels(cells: &[Cell], order: &[usize]) -> Vec<(Kernel, Mode)> {
    order
        .iter()
        .map(|&i| (cells[i].bench.example_kernel(), cells[i].config.instantiate(GEOMETRY).1))
        .collect()
}

/// Median over sweeps of the summed `nocl_kir::compile` time, in µs.
fn compile_us(kernels: &[(Kernel, Mode)]) -> f64 {
    let sweeps = (0..SWEEP_REPS).map(|_| {
        let t = Instant::now();
        for (kernel, mode) in kernels {
            black_box(nocl_kir::compile(black_box(kernel), *mode).map(|c| c.words.len()).ok());
        }
        1e6 * t.elapsed().as_secs_f64()
    });
    median(sweeps.collect())
}

/// Median over sweeps of the summed `Device::load_program` time, in µs, on
/// one device per configuration at the workload's SM count.
fn load_us(w: &Workload, cells: &[Cell], order: &[usize], words: &[Vec<u32>]) -> f64 {
    let mut devices: Vec<(&str, Device)> = PERF_CONFIGS
        .iter()
        .map(|&(tag, config)| (tag, Device::new(config.instantiate(GEOMETRY).0, w.sms)))
        .collect();
    let sweeps = (0..SWEEP_REPS).map(|_| {
        let mut secs = 0.0;
        for (&i, program) in order.iter().zip(words) {
            let dev = &mut devices
                .iter_mut()
                .find(|(tag, _)| *tag == cells[i].tag)
                .expect("device per config")
                .1;
            let t = Instant::now();
            dev.load_program(black_box(program));
            secs += t.elapsed().as_secs_f64();
        }
        1e6 * secs
    });
    median(sweeps.collect())
}

/// Median ns per operation of `f`, which performs `ops` operations.
fn per_op_ns<T>(ops: u32, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples = (0..MICRO_SAMPLES).map(|_| {
        let t = Instant::now();
        black_box(f());
        1e9 * t.elapsed().as_secs_f64() / f64::from(ops)
    });
    median(samples.collect())
}

fn substrate_metrics(m: &mut Vec<Metric>) {
    m.push(Metric::new(
        "cap.codec_ns",
        per_op_ns(256, || {
            let mut acc = 0u64;
            for i in 0..256u32 {
                let base = black_box(i * 12345);
                let enc = bounds::encode(base, u64::from(base) + 4096);
                acc ^= bounds::decode(enc.field, base).top;
            }
            acc
        }),
        "ns",
    ));
    let mem = CapPipe::almighty().set_addr(0x1000).set_bounds(1 << 20).0.to_mem();
    m.push(Metric::new(
        "cap.bounds_check_ns",
        per_op_ns(256, || {
            let mut ok = 0u32;
            for i in 0..256u32 {
                let c = CapPipe::from_mem(black_box(mem)).set_addr(0x1000 + i * 64);
                ok += u32::from(c.is_access_in_bounds(c.addr(), 4));
            }
            ok
        }),
        "ns",
    ));
    let uniform = vec![42u64; 32];
    let affine: Vec<u64> = (0..32).map(|i| 100 + 4 * i).collect();
    let vector: Vec<u64> = (0..32).map(|i| i * i * 7919).collect();
    // The vector case uses a 16-slot VRF, so writes also spill.
    for (name, values, cfg) in [
        ("regfile.write_ns.uniform", &uniform, RfConfig::data(64, 32, 768)),
        ("regfile.write_ns.affine", &affine, RfConfig::data(64, 32, 768)),
        ("regfile.write_ns.vector", &vector, RfConfig::data(8, 32, 16)),
    ] {
        let mut rf = CompressedRegFile::new(cfg);
        let warps = cfg.warps;
        m.push(Metric::new(
            name,
            per_op_ns(1024, || {
                for i in 0..1024u32 {
                    rf.write(i % warps, i % 32, black_box(values), u64::MAX);
                }
            }),
            "ns",
        ));
    }
    let mut rf = CompressedRegFile::new(RfConfig::data(64, 32, 768));
    for warp in 0..64 {
        for reg in 0..32 {
            let values = [&uniform, &affine, &vector][(reg % 3) as usize];
            rf.write(warp, reg, values, u64::MAX);
        }
    }
    let mut lanes = [0u64; 32];
    m.push(Metric::new(
        "regfile.read_ns",
        per_op_ns(1024, || {
            for i in 0..1024u32 {
                rf.read(i % 64, (i / 64 + i) % 32, &mut lanes);
            }
            black_box(lanes[31])
        }),
        "ns",
    ));
    let unit = CoalescingUnit::new();
    let unit_stride: Vec<LaneRequest> =
        (0..32).map(|i| LaneRequest { addr: 0x8000_0000 + i * 4, bytes: 4 }).collect();
    let scattered: Vec<LaneRequest> =
        (0..32).map(|i| LaneRequest { addr: 0x8000_0000 + i * 4096, bytes: 4 }).collect();
    m.push(Metric::new(
        "mem.coalesce_ns",
        per_op_ns(512, || {
            let mut txns = 0u32;
            for _ in 0..256 {
                txns += unit.coalesce(black_box(&unit_stride)).transactions;
                txns += unit.coalesce(black_box(&scattered)).transactions;
            }
            txns
        }),
        "ns",
    ));
}
