//! Golden digests: an observational-equivalence oracle for the execute
//! path. Every run below is reduced to one 64-bit FNV-1a digest over, in
//! order:
//!
//! 1. the `Debug` rendering of the run's outcome — the full `KernelStats`
//!    (every field), or the error of a run that trapped;
//! 2. each SM's trace stream in JSON-lines form, in SM order;
//! 3. the final functional DRAM: every non-zero 4 KiB page (its index,
//!    bytes and per-word tag bits), then the address of every tagged
//!    capability.
//!
//! The table pins four families of runs:
//!
//! * `suite/…` — the 14 suite benchmarks × 5 configurations at the quick
//!   geometry, at sms 1, 2 and 4;
//! * `kir-scalarise/…` and `kir-schemes/…` — seeded random kernels (the
//!   generator in `crates/nocl/tests/kirgen`) under baseline and
//!   pure-capability compilation, and under all five protection schemes ×
//!   both trap policies × sms 1 and 2;
//! * `faults/…` — the per-`CapException` sabotage probes (see
//!   `crates/core/tests/probes`) under both trap policies;
//! * `abort-order/…` — 2- and 4-SM devices under `TrapPolicy::Abort`
//!   where one SM traps (on a memory op or an `ecall`) while the others are
//!   still in long ALU-only stretches between DRAM stores; in the
//!   `abort-order/ahead/…` rows the roles swap, and the trapping SM runs
//!   the stretches while the others store every few instructions. These
//!   rows digest only the error and the final DRAM: which stores of the
//!   other SMs landed before the abort is exactly the device's cross-SM
//!   ordering.
//!
//! The table was recorded with the warp-wide scalarised execute path and
//! the pre-decoded program ROM each switched on and off (all four
//! settings gave the same table), before the lane-wise twins and the
//! decode-at-issue path were folded into one execute path. Any change to
//! the model's statistics, trace events or memory contents shows up here.

use cheri_cap::CapException;
use cheri_simt::trace::export::{to_jsonl, TraceCell};
use cheri_simt::trace::{TraceEvent, VecSink};
use cheri_simt::{CheriMode, CheriOpts, Device, KernelStats, SmConfig, TrapPolicy};
use nocl::{Gpu, Launch};
use nocl_kir::{Kernel, Mode};
use nocl_suite::{suite_jobs, Scale};
use repro::{default_jobs, run_indexed, Config, Geometry};
use sim_prng::Prng;
use simt_isa::asm::Assembler;
use simt_isa::{csr, AluOp, BranchCond, Instr, LoadWidth, Reg, StoreWidth};
use simt_mem::{map, MainMemory};
use std::fmt::Debug;

#[path = "../../nocl/tests/kirgen/mod.rs"]
mod kirgen;
#[path = "../../core/tests/probes/mod.rs"]
mod probes;

use kirgen::{make_kernel, stmts, N_IN, THREADS};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The digest of one run (see the module docs for what it covers).
fn digest(outcome: &impl Debug, traces: &[Vec<TraceEvent>], mem: &MainMemory) -> u64 {
    const PAGE: u32 = 4096;
    let mut h = Fnv::new();
    h.write(format!("{outcome:?}").as_bytes());
    for (k, events) in traces.iter().enumerate() {
        let label = format!("sm{k}");
        for chunk in events.chunks(4096) {
            h.write(to_jsonl(&[TraceCell { label: &label, events: chunk }]).as_bytes());
        }
    }
    let zero = [0u8; PAGE as usize];
    for page in 0..mem.size() / PAGE {
        let addr = mem.base() + page * PAGE;
        let bytes = mem.read_bytes(addr, PAGE);
        if bytes != zero {
            h.write(&page.to_le_bytes());
            h.write(bytes);
            let tags: Vec<u8> = (0..PAGE / 4).map(|w| u8::from(mem.tag(addr + 4 * w))).collect();
            h.write(&tags);
        }
    }
    for addr in mem.tagged_cap_addrs() {
        h.write(&addr.to_le_bytes());
    }
    h.0
}

/// A GPU with a `VecSink` on every SM.
fn traced_gpu(cfg: SmConfig, mode: Mode, sms: u32) -> Gpu {
    let mut gpu = Gpu::with_sms(cfg, mode, sms);
    for k in 0..sms as usize {
        gpu.device_mut().sm_mut(k).set_sink(Box::new(VecSink::new()));
    }
    gpu
}

/// Digest a finished run on `gpu` (detaching its sinks).
fn gpu_digest(gpu: &mut Gpu, outcome: &impl Debug) -> u64 {
    let traces: Vec<Vec<TraceEvent>> = (0..gpu.device().num_sms() as usize)
        .map(|k| {
            let sink = gpu.device_mut().sm_mut(k).take_sink().expect("sink survives the run");
            sink.as_any().downcast_ref::<VecSink>().expect("a VecSink").events().to_vec()
        })
        .collect();
    digest(outcome, &traces, gpu.device().memory())
}

const CONFIGS: &[(&str, Config)] = &[
    ("Base3", Config::Base { eighths: 3 }),
    ("CheriNaive", Config::CheriNaive),
    ("CheriOpt", Config::CheriOpt),
    ("RustChecked", Config::RustChecked),
    ("GpuShield", Config::GpuShield),
];

fn suite_rows() -> Vec<(String, u64)> {
    let jobs = suite_jobs();
    let mut cells = Vec::new();
    for sms in [1u32, 2, 4] {
        for &(tag, config) in CONFIGS {
            cells.extend(jobs.iter().map(|job| (sms, tag, config, job.bench)));
        }
    }
    run_indexed(default_jobs(), cells.len(), |i| {
        let (sms, tag, config, bench) = cells[i];
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let mut gpu = traced_gpu(cfg, mode, sms);
        let stats = bench
            .run(&mut gpu, Scale::Test)
            .unwrap_or_else(|e| panic!("{tag}/{} at sms={sms}: {e}", bench.name()));
        (format!("suite/sms{sms}/{tag}/{}", bench.name()), gpu_digest(&mut gpu, &stats))
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|e| panic!("suite cell panicked: {e}")))
    .collect()
}

/// Launch a generated kernel (`sms` blocks of `THREADS / sms` threads, so
/// every SM participates) and digest the run.
fn run_kir(
    kernel: &Kernel,
    (cheri, mode): (CheriMode, Mode),
    policy: TrapPolicy,
    sms: u32,
    scalar: u32,
    input: &[u32],
) -> (Result<KernelStats, String>, u64) {
    let mut cfg = SmConfig::small(cheri);
    cfg.trap_policy = policy;
    let mut gpu = traced_gpu(cfg, mode, sms);
    let d_in = gpu.alloc_from(input);
    let d_out = gpu.alloc::<u32>(THREADS);
    let outcome = gpu
        .launch(
            kernel,
            Launch::new(sms, THREADS / sms),
            &[scalar.into(), (&d_in).into(), (&d_out).into()],
        )
        .map_err(|e| e.to_string());
    let d = gpu_digest(&mut gpu, &outcome);
    (outcome, d)
}

/// The seeded cases that once pinned the scalarised fast path against the
/// lane-wise one. Every case must scalarise something, so the compact
/// branch of the execute path is proven exercised.
fn kir_scalarise_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    let mut r = Prng::seed_from_u64(0x5CA1_A125);
    for case in 0..24 {
        let body = stmts(&mut r, 2);
        let scalar = r.range_u32(0, 100);
        let input: Vec<u32> = (0..N_IN).map(|i| i.wrapping_mul(0x9E37_79B9) >> 7).collect();
        let kernel = make_kernel(body);
        for (cheri, mode) in [
            (CheriMode::Off, Mode::Baseline),
            (CheriMode::On(CheriOpts::optimised()), Mode::PureCap),
        ] {
            let (outcome, d) =
                run_kir(&kernel, (cheri, mode), TrapPolicy::Abort, 1, scalar, &input);
            let stats = outcome.unwrap_or_else(|e| panic!("case {case}: {mode:?}: {e}"));
            assert!(stats.scalarised_issues > 0, "case {case}: {mode:?}: nothing scalarised");
            rows.push((format!("kir-scalarise/case{case:02}/{mode:?}"), d));
        }
    }
    rows
}

/// The seeded cases that once pinned the pre-decoded ROM against
/// decode-at-issue: every scheme × trap policy × sms 1 and 2.
fn kir_scheme_rows() -> Vec<(String, u64)> {
    let schemes: [(&str, CheriMode, Mode); 5] = [
        ("baseline", CheriMode::Off, Mode::Baseline),
        ("naive", CheriMode::On(CheriOpts::naive()), Mode::PureCap),
        ("purecap", CheriMode::On(CheriOpts::optimised()), Mode::PureCap),
        ("rust", CheriMode::Off, Mode::RustChecked),
        ("gpushield", CheriMode::Off, Mode::GpuShield),
    ];
    let mut rows = Vec::new();
    let mut r = Prng::seed_from_u64(0x00D1_FF00);
    for case in 0..6 {
        let body = stmts(&mut r, 2);
        let scalar = r.range_u32(0, 100);
        let input: Vec<u32> =
            (0..N_IN).map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(9)).collect();
        let kernel = make_kernel(body);
        for (tag, cheri, mode) in schemes {
            for policy in [TrapPolicy::Abort, TrapPolicy::MaskLanes] {
                for sms in [1u32, 2] {
                    let (_, d) = run_kir(&kernel, (cheri, mode), policy, sms, scalar, &input);
                    rows.push((format!("kir-schemes/case{case}/{tag}/{policy:?}/sms{sms}"), d));
                }
            }
        }
    }
    rows
}

/// Every `CapException`, raised by sabotaging the probe's victim, under
/// both trap policies.
fn fault_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for target in CapException::ALL {
        for policy in [TrapPolicy::Abort, TrapPolicy::MaskLanes] {
            let (mut sm, outcome) =
                probes::sabotaged_probe(target, policy, Some(Box::new(VecSink::new())));
            let sink = sm.take_sink().expect("sink survives the run");
            let events = sink.as_any().downcast_ref::<VecSink>().expect("a VecSink").events();
            let d = digest(&outcome, &[events.to_vec()], sm.memory());
            rows.push((format!("faults/{target:?}/{policy:?}"), d));
        }
    }
    rows
}

/// How the trapping SM of an `abort-order` kernel faults.
#[derive(Debug, Clone, Copy)]
enum AbortTrap {
    /// A load from the unmapped address 0 (a memory-stage trap).
    Mem,
    /// An `ecall` (a trap that touches no memory at all).
    Ecall,
}

/// The `abort-order` kernel: every hart stores one word per iteration to
/// its own slot of an iteration-major array in DRAM, and harts on SM
/// `trap_sm` trap at iteration `TRAP_AT`. Normally the trapping SM skips
/// the ALU stretch between stores, so every other SM is still deep in its
/// first few stretches when it traps. With `trapper_stretches` the roles
/// swap: only the trapping SM runs the stretches, so it reaches its trap
/// running ahead of SMs that store every few instructions.
fn abort_program(
    trap_sm: u32,
    threads: u32,
    device_threads: u32,
    trap: AbortTrap,
    trapper_stretches: bool,
) -> Vec<u32> {
    const TRAP_AT: u32 = 3;
    // Enough iterations that the other SMs are still storing at the trap.
    let iters = if trapper_stretches { 64 } else { 6 };
    const STRETCH: usize = 48;
    let addi = |rd: Reg, rs1: Reg, imm: i32| Instr::OpImm { op: AluOp::Add, rd, rs1, imm };
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    // A5 = "this hart is on the trapping SM".
    let (not_trapping, lp, skip, cont) = (a.label(), a.label(), a.label(), a.label());
    a.push(addi(Reg::A5, Reg::ZERO, 0));
    a.li(Reg::T0, trap_sm * threads);
    a.li(Reg::T1, (trap_sm + 1) * threads);
    a.branch(BranchCond::Ltu, Reg::A0, Reg::T0, not_trapping);
    a.branch(BranchCond::Geu, Reg::A0, Reg::T1, not_trapping);
    a.push(addi(Reg::A5, Reg::ZERO, 1));
    a.bind(not_trapping);
    // A2 = &slot[0][hart]; A1 = the stored value; A4 = the iteration.
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A2, rs1: Reg::A0, imm: 2 });
    a.push(Instr::Lui { rd: Reg::A3, imm: map::DRAM_BASE });
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A2, rs2: Reg::A3 });
    a.push(addi(Reg::A1, Reg::A0, 0));
    a.push(addi(Reg::A4, Reg::ZERO, 0));
    a.bind(lp);
    if trapper_stretches {
        a.beqz(Reg::A5, skip);
    } else {
        a.bnez(Reg::A5, skip);
    }
    for _ in 0..STRETCH {
        a.push(addi(Reg::A1, Reg::A1, 3));
    }
    a.bind(skip);
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A1, rs1: Reg::A2, off: 0 });
    a.li(Reg::T2, device_threads * 4);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A2, rs2: Reg::T2 });
    a.push(addi(Reg::A4, Reg::A4, 1));
    a.li(Reg::T2, TRAP_AT);
    a.branch(BranchCond::Ne, Reg::A4, Reg::T2, cont);
    a.beqz(Reg::A5, cont);
    a.push(match trap {
        AbortTrap::Mem => Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::ZERO, off: 0 },
        AbortTrap::Ecall => Instr::Ecall,
    });
    a.bind(cont);
    a.li(Reg::T2, iters);
    a.branch(BranchCond::Ne, Reg::A4, Reg::T2, lp);
    a.terminate();
    a.assemble()
}

/// One SM of every `abort-order` device traps; the row digests the error
/// and the final DRAM. The `ahead/…` rows run the swapped-role kernel.
fn abort_order_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (family, trapper_stretches) in [("abort-order", false), ("abort-order/ahead", true)] {
        for sms in [2u32, 4] {
            for trap in [AbortTrap::Mem, AbortTrap::Ecall] {
                for trap_sm in [0, sms - 1] {
                    let mut cfg = SmConfig::small(CheriMode::Off);
                    cfg.trap_policy = TrapPolicy::Abort;
                    let threads = cfg.threads();
                    let mut dev = Device::new(cfg, sms);
                    let prog =
                        abort_program(trap_sm, threads, sms * threads, trap, trapper_stretches);
                    dev.load_program(&prog);
                    dev.reset();
                    let outcome = dev.run(1_000_000);
                    let label = format!("{family}/sms{sms}/{trap:?}/sm{trap_sm}");
                    assert!(outcome.is_err(), "{label}: the run must trap");
                    rows.push((label, digest(&outcome, &[], dev.memory())));
                }
            }
        }
    }
    rows
}

/// Compare freshly computed rows against the `GOLDEN` rows of one family.
fn check(family: &str, rows: Vec<(String, u64)>) {
    let want: Vec<(&str, u64)> =
        GOLDEN.iter().copied().filter(|(label, _)| label.starts_with(family)).collect();
    assert_eq!(rows.len(), want.len(), "{family}: golden table size");
    for ((label, got), (want_label, want)) in rows.iter().zip(want) {
        assert_eq!(label, want_label, "{family}: golden table order");
        assert_eq!(*got, want, "{label}: digest diverged from the golden table");
    }
}

#[test]
fn suite_digests_match_golden() {
    check("suite/", suite_rows());
}

#[test]
fn kir_scalarise_digests_match_golden() {
    check("kir-scalarise/", kir_scalarise_rows());
}

#[test]
fn kir_scheme_digests_match_golden() {
    check("kir-schemes/", kir_scheme_rows());
}

#[test]
fn fault_digests_match_golden() {
    check("faults/", fault_rows());
}

#[test]
fn abort_order_digests_match_golden() {
    check("abort-order/", abort_order_rows());
}

/// Harvest helper: prints the golden table in source form. Run with
/// `cargo test --release -p repro --test golden_digests -- --ignored --nocapture`.
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_golden_digests() {
    let rows =
        [suite_rows(), kir_scalarise_rows(), kir_scheme_rows(), fault_rows(), abort_order_rows()];
    for (label, d) in rows.iter().flatten() {
        println!("    (\"{label}\", {d:#018x}),");
    }
}

/// `(run, digest)` recorded before the execute-path unification. The five
/// `suite/sms2/*/BitonicLa` rows were re-recorded when
/// `KernelStats::accumulate` started to sum the cross-SM DRAM and
/// tag-cache counters of every launch (it used to keep only the first
/// launch's); with the old merge the one-path model reproduces the
/// originally recorded rows exactly. The `suite/sms4/…` and
/// `abort-order/…` rows were recorded on the swap-installing,
/// one-SM-per-step device arbiter, before lookahead arbitration and the
/// ready-set warp pick replaced it.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("suite/sms1/Base3/VecAdd", 0x3e93952b8344e172),
    ("suite/sms1/Base3/Histogram", 0x72b0055c948de449),
    ("suite/sms1/Base3/Reduce", 0xd7e2a9c3c5af7914),
    ("suite/sms1/Base3/Scan", 0xb1ef11e64687a3ec),
    ("suite/sms1/Base3/Transpose", 0x0f5415fe32e8bcc2),
    ("suite/sms1/Base3/MatVecMul", 0x33c61cab0258be95),
    ("suite/sms1/Base3/MatMul", 0xc0547ac4ed83c6c0),
    ("suite/sms1/Base3/BitonicSm", 0x79699075a9cb8acb),
    ("suite/sms1/Base3/BitonicLa", 0x97befcc3349279f4),
    ("suite/sms1/Base3/SPMV", 0x5083ba1baa166d57),
    ("suite/sms1/Base3/BlkStencil", 0x72b0e880708eac82),
    ("suite/sms1/Base3/StrStencil", 0x164f7aa71fffe84d),
    ("suite/sms1/Base3/VecGCD", 0x88993f933f48994f),
    ("suite/sms1/Base3/MotionEst", 0xf1ec3a819a6c5f14),
    ("suite/sms1/CheriNaive/VecAdd", 0xbb2ee8a7221934dc),
    ("suite/sms1/CheriNaive/Histogram", 0x42cb243c022a1c00),
    ("suite/sms1/CheriNaive/Reduce", 0x2180d699059d791d),
    ("suite/sms1/CheriNaive/Scan", 0x9f3db8eb804efe9d),
    ("suite/sms1/CheriNaive/Transpose", 0x3fca31f3ed9a3784),
    ("suite/sms1/CheriNaive/MatVecMul", 0xb62169889fe3e95d),
    ("suite/sms1/CheriNaive/MatMul", 0x832767669d6db3f8),
    ("suite/sms1/CheriNaive/BitonicSm", 0x7785f75f3a53f87a),
    ("suite/sms1/CheriNaive/BitonicLa", 0xc4237c67791ae556),
    ("suite/sms1/CheriNaive/SPMV", 0x60134b937854520a),
    ("suite/sms1/CheriNaive/BlkStencil", 0x41ca4874bac86a41),
    ("suite/sms1/CheriNaive/StrStencil", 0x03acaaf1a0de8a5a),
    ("suite/sms1/CheriNaive/VecGCD", 0x383a75da763d8b88),
    ("suite/sms1/CheriNaive/MotionEst", 0xcb75b3ca3dbe10eb),
    ("suite/sms1/CheriOpt/VecAdd", 0xbb2ee8a7221934dc),
    ("suite/sms1/CheriOpt/Histogram", 0xa2a5bb2ebf8658fd),
    ("suite/sms1/CheriOpt/Reduce", 0x06e121951b8d0788),
    ("suite/sms1/CheriOpt/Scan", 0x673099817dc2bacd),
    ("suite/sms1/CheriOpt/Transpose", 0x4e832087d4104efc),
    ("suite/sms1/CheriOpt/MatVecMul", 0xb62169889fe3e95d),
    ("suite/sms1/CheriOpt/MatMul", 0x35d7893b41ab60cb),
    ("suite/sms1/CheriOpt/BitonicSm", 0xcdcac8cefc7b1831),
    ("suite/sms1/CheriOpt/BitonicLa", 0xf651c8285aa8f1d0),
    ("suite/sms1/CheriOpt/SPMV", 0x5101e331b217e317),
    ("suite/sms1/CheriOpt/BlkStencil", 0x3ebf2926678e6a5e),
    ("suite/sms1/CheriOpt/StrStencil", 0x03acaaf1a0de8a5a),
    ("suite/sms1/CheriOpt/VecGCD", 0x383a75da763d8b88),
    ("suite/sms1/CheriOpt/MotionEst", 0xcb75b3ca3dbe10eb),
    ("suite/sms1/RustChecked/VecAdd", 0x5d5a22f00f43338a),
    ("suite/sms1/RustChecked/Histogram", 0x28510115bcedcc37),
    ("suite/sms1/RustChecked/Reduce", 0xfa4f530d4a692688),
    ("suite/sms1/RustChecked/Scan", 0xdf280dd7e8af5a0f),
    ("suite/sms1/RustChecked/Transpose", 0x64b01f2c0cf1e051),
    ("suite/sms1/RustChecked/MatVecMul", 0x5a0608c3a8e62928),
    ("suite/sms1/RustChecked/MatMul", 0x30611e5a57ed796b),
    ("suite/sms1/RustChecked/BitonicSm", 0x38ba9891be7a2c71),
    ("suite/sms1/RustChecked/BitonicLa", 0x8fd27e4ebf8d3690),
    ("suite/sms1/RustChecked/SPMV", 0x30b2909dc0a0b0d2),
    ("suite/sms1/RustChecked/BlkStencil", 0x160e4ec66e8b914b),
    ("suite/sms1/RustChecked/StrStencil", 0x6294aeab8002eb9a),
    ("suite/sms1/RustChecked/VecGCD", 0x610b690559d0d87f),
    ("suite/sms1/RustChecked/MotionEst", 0xa178b4008a68a641),
    ("suite/sms1/GpuShield/VecAdd", 0x2d0f20923f99a722),
    ("suite/sms1/GpuShield/Histogram", 0xcc1ba2450133f1cc),
    ("suite/sms1/GpuShield/Reduce", 0xfb76e4a820f2bd15),
    ("suite/sms1/GpuShield/Scan", 0xf23983ef52976b01),
    ("suite/sms1/GpuShield/Transpose", 0x5dc16ede3694413b),
    ("suite/sms1/GpuShield/MatVecMul", 0x9c2ff16c85327b15),
    ("suite/sms1/GpuShield/MatMul", 0xcf5466b952af3390),
    ("suite/sms1/GpuShield/BitonicSm", 0x3d2f8cc9517d077e),
    ("suite/sms1/GpuShield/BitonicLa", 0x7e7aad16c7397e0f),
    ("suite/sms1/GpuShield/SPMV", 0x54379194293f7f74),
    ("suite/sms1/GpuShield/BlkStencil", 0x18e6225cdcff6d13),
    ("suite/sms1/GpuShield/StrStencil", 0xd51bf84c24bfad94),
    ("suite/sms1/GpuShield/VecGCD", 0x91b9c593e8f0913f),
    ("suite/sms1/GpuShield/MotionEst", 0xc11ee61cd3de03e4),
    ("suite/sms2/Base3/VecAdd", 0x5d35a3e5c990db4b),
    ("suite/sms2/Base3/Histogram", 0x3c14c2f5abfc5ad7),
    ("suite/sms2/Base3/Reduce", 0x67fe220ad5d17cb9),
    ("suite/sms2/Base3/Scan", 0x0a2dd39354de707a),
    ("suite/sms2/Base3/Transpose", 0x0d2740171a4fb42e),
    ("suite/sms2/Base3/MatVecMul", 0xf1b69c0baad5441c),
    ("suite/sms2/Base3/MatMul", 0x13eda0a21c4d3a98),
    ("suite/sms2/Base3/BitonicSm", 0x3cfd96987d7bb4ff),
    ("suite/sms2/Base3/BitonicLa", 0x7a5da050124f0f76),
    ("suite/sms2/Base3/SPMV", 0xd51fe076510fcceb),
    ("suite/sms2/Base3/BlkStencil", 0x019d9e6c0ba736ab),
    ("suite/sms2/Base3/StrStencil", 0x976df5470bdf315d),
    ("suite/sms2/Base3/VecGCD", 0xf9f0b781f81019a1),
    ("suite/sms2/Base3/MotionEst", 0x6c654b9fff26b797),
    ("suite/sms2/CheriNaive/VecAdd", 0x4edbde8c98c0d3e0),
    ("suite/sms2/CheriNaive/Histogram", 0x6ad77c3e5e7376f8),
    ("suite/sms2/CheriNaive/Reduce", 0xa83bbd3c2d0fb239),
    ("suite/sms2/CheriNaive/Scan", 0x826850ddeabaaac0),
    ("suite/sms2/CheriNaive/Transpose", 0x3688c1ff45050bd2),
    ("suite/sms2/CheriNaive/MatVecMul", 0x3f75d4c8de5042dd),
    ("suite/sms2/CheriNaive/MatMul", 0x8cf73ef649c81d97),
    ("suite/sms2/CheriNaive/BitonicSm", 0xfc09f9b5b74bcd54),
    ("suite/sms2/CheriNaive/BitonicLa", 0x7a6fd638c94b53e3),
    ("suite/sms2/CheriNaive/SPMV", 0xb9b0055195de71ec),
    ("suite/sms2/CheriNaive/BlkStencil", 0x4d5de88c43e7f0e6),
    ("suite/sms2/CheriNaive/StrStencil", 0xcf6ed2a79d79f103),
    ("suite/sms2/CheriNaive/VecGCD", 0x832ab06bcad91f39),
    ("suite/sms2/CheriNaive/MotionEst", 0x71623821876770f7),
    ("suite/sms2/CheriOpt/VecAdd", 0x4edbde8c98c0d3e0),
    ("suite/sms2/CheriOpt/Histogram", 0xfb58860df8f0777e),
    ("suite/sms2/CheriOpt/Reduce", 0xb1791937a69baf85),
    ("suite/sms2/CheriOpt/Scan", 0x70babb79a345382d),
    ("suite/sms2/CheriOpt/Transpose", 0xda2330c498e90e21),
    ("suite/sms2/CheriOpt/MatVecMul", 0x3f75d4c8de5042dd),
    ("suite/sms2/CheriOpt/MatMul", 0xe83d7113ea1a8dfd),
    ("suite/sms2/CheriOpt/BitonicSm", 0x09588b009c817f50),
    ("suite/sms2/CheriOpt/BitonicLa", 0xb1a6a438ddabe61c),
    ("suite/sms2/CheriOpt/SPMV", 0xdf6ec8eccde0206f),
    ("suite/sms2/CheriOpt/BlkStencil", 0x4269e1974c0b77bd),
    ("suite/sms2/CheriOpt/StrStencil", 0xcf6ed2a79d79f103),
    ("suite/sms2/CheriOpt/VecGCD", 0x832ab06bcad91f39),
    ("suite/sms2/CheriOpt/MotionEst", 0x71623821876770f7),
    ("suite/sms2/RustChecked/VecAdd", 0xa375a4247660c601),
    ("suite/sms2/RustChecked/Histogram", 0xdecb7529fcc26e0a),
    ("suite/sms2/RustChecked/Reduce", 0x4e983e03125fe2c0),
    ("suite/sms2/RustChecked/Scan", 0x3169221b99c3f580),
    ("suite/sms2/RustChecked/Transpose", 0xd505dd43082186e0),
    ("suite/sms2/RustChecked/MatVecMul", 0x31a152e1b7352203),
    ("suite/sms2/RustChecked/MatMul", 0x0015de8fa8d8f17b),
    ("suite/sms2/RustChecked/BitonicSm", 0x31dc8f5b4cddf12d),
    ("suite/sms2/RustChecked/BitonicLa", 0x27c698e872a6d5e6),
    ("suite/sms2/RustChecked/SPMV", 0x783cb7e257b87eac),
    ("suite/sms2/RustChecked/BlkStencil", 0xbb838290739a8502),
    ("suite/sms2/RustChecked/StrStencil", 0x36f3b3e8981a70fb),
    ("suite/sms2/RustChecked/VecGCD", 0xd99bcbd2a75f3885),
    ("suite/sms2/RustChecked/MotionEst", 0x44c8c1209a1d41f1),
    ("suite/sms2/GpuShield/VecAdd", 0xd053431be01ac41b),
    ("suite/sms2/GpuShield/Histogram", 0x7a51e04c22caeb16),
    ("suite/sms2/GpuShield/Reduce", 0x4cbf845547a57f08),
    ("suite/sms2/GpuShield/Scan", 0x4ba3e32276b9cffb),
    ("suite/sms2/GpuShield/Transpose", 0x043da1a9093a49e7),
    ("suite/sms2/GpuShield/MatVecMul", 0xcded2f58ca743c9c),
    ("suite/sms2/GpuShield/MatMul", 0xe501bf618c278388),
    ("suite/sms2/GpuShield/BitonicSm", 0x1d0d48a9ff4d4a42),
    ("suite/sms2/GpuShield/BitonicLa", 0xfc31efbac4060261),
    ("suite/sms2/GpuShield/SPMV", 0x7cc9fea48bfbd278),
    ("suite/sms2/GpuShield/BlkStencil", 0xc2668643245dff5a),
    ("suite/sms2/GpuShield/StrStencil", 0x8526852464bf8224),
    ("suite/sms2/GpuShield/VecGCD", 0x9c10c506101b8851),
    ("suite/sms2/GpuShield/MotionEst", 0x56c16044ea85b707),
    ("suite/sms4/Base3/VecAdd", 0xbc6dc5a397cf19ec),
    ("suite/sms4/Base3/Histogram", 0x12c7e92d40af480f),
    ("suite/sms4/Base3/Reduce", 0x57873b30709f9ac2),
    ("suite/sms4/Base3/Scan", 0xf0b3c256b2c65ee2),
    ("suite/sms4/Base3/Transpose", 0x501bfb767e44a1aa),
    ("suite/sms4/Base3/MatVecMul", 0x490cabdf10346d70),
    ("suite/sms4/Base3/MatMul", 0x51351ceacf31c716),
    ("suite/sms4/Base3/BitonicSm", 0xe797ef8f584582b3),
    ("suite/sms4/Base3/BitonicLa", 0xaf039c0f2c8e6123),
    ("suite/sms4/Base3/SPMV", 0xd6a8e96f614ee758),
    ("suite/sms4/Base3/BlkStencil", 0x6f516eb62c226559),
    ("suite/sms4/Base3/StrStencil", 0x49fe18cdde27ff8f),
    ("suite/sms4/Base3/VecGCD", 0x53db65e006010b10),
    ("suite/sms4/Base3/MotionEst", 0xb17edfea357e1970),
    ("suite/sms4/CheriNaive/VecAdd", 0xcc665cb8c3c0ccfe),
    ("suite/sms4/CheriNaive/Histogram", 0xab41c02bcf25e0e5),
    ("suite/sms4/CheriNaive/Reduce", 0x2ba3b574f0c55045),
    ("suite/sms4/CheriNaive/Scan", 0xb0750eaaa3facc50),
    ("suite/sms4/CheriNaive/Transpose", 0x4b82cb1db8144ee9),
    ("suite/sms4/CheriNaive/MatVecMul", 0xcf08caaf9213935d),
    ("suite/sms4/CheriNaive/MatMul", 0xc02ac0e6e571310a),
    ("suite/sms4/CheriNaive/BitonicSm", 0xcbbe686caae8e98a),
    ("suite/sms4/CheriNaive/BitonicLa", 0x0bfaaa0789b50eff),
    ("suite/sms4/CheriNaive/SPMV", 0x16c139691c292718),
    ("suite/sms4/CheriNaive/BlkStencil", 0x77d45de4892bcaec),
    ("suite/sms4/CheriNaive/StrStencil", 0x030b2a3850c5532f),
    ("suite/sms4/CheriNaive/VecGCD", 0x1649174b97b3ba9a),
    ("suite/sms4/CheriNaive/MotionEst", 0x5063bb7a2e8ab255),
    ("suite/sms4/CheriOpt/VecAdd", 0xcc665cb8c3c0ccfe),
    ("suite/sms4/CheriOpt/Histogram", 0x7a272c880e9c379a),
    ("suite/sms4/CheriOpt/Reduce", 0x21a44af577136b9c),
    ("suite/sms4/CheriOpt/Scan", 0xf25bfee15c15adbf),
    ("suite/sms4/CheriOpt/Transpose", 0x94475745611fdda2),
    ("suite/sms4/CheriOpt/MatVecMul", 0xcf08caaf9213935d),
    ("suite/sms4/CheriOpt/MatMul", 0x15f43d62c194877e),
    ("suite/sms4/CheriOpt/BitonicSm", 0x474cc5c049f0536a),
    ("suite/sms4/CheriOpt/BitonicLa", 0x989685c97cf1f84e),
    ("suite/sms4/CheriOpt/SPMV", 0xbc4183bcd8e920b7),
    ("suite/sms4/CheriOpt/BlkStencil", 0xfb857aca0bf51a28),
    ("suite/sms4/CheriOpt/StrStencil", 0x030b2a3850c5532f),
    ("suite/sms4/CheriOpt/VecGCD", 0x1649174b97b3ba9a),
    ("suite/sms4/CheriOpt/MotionEst", 0x5063bb7a2e8ab255),
    ("suite/sms4/RustChecked/VecAdd", 0xea9b4da86e2e74b6),
    ("suite/sms4/RustChecked/Histogram", 0x1d528b977906bbf8),
    ("suite/sms4/RustChecked/Reduce", 0x967624476e0a5682),
    ("suite/sms4/RustChecked/Scan", 0xb4e8f9693f790a4f),
    ("suite/sms4/RustChecked/Transpose", 0x0054152cea9bfbf5),
    ("suite/sms4/RustChecked/MatVecMul", 0x91e0955acf05c719),
    ("suite/sms4/RustChecked/MatMul", 0x1fc15f56c2ad2dfe),
    ("suite/sms4/RustChecked/BitonicSm", 0xc3b50e792c691f6d),
    ("suite/sms4/RustChecked/BitonicLa", 0x1cb1a51d73e520cd),
    ("suite/sms4/RustChecked/SPMV", 0x84305ac4ff524f67),
    ("suite/sms4/RustChecked/BlkStencil", 0x5350cfc3dd8ef150),
    ("suite/sms4/RustChecked/StrStencil", 0x7e0f973d971f371a),
    ("suite/sms4/RustChecked/VecGCD", 0xd7c69920e33346ab),
    ("suite/sms4/RustChecked/MotionEst", 0xb59a2cf5e15abec9),
    ("suite/sms4/GpuShield/VecAdd", 0x32d7f3bd95ea209c),
    ("suite/sms4/GpuShield/Histogram", 0xe3c9b40a6783888e),
    ("suite/sms4/GpuShield/Reduce", 0x5285d9e6b110e62f),
    ("suite/sms4/GpuShield/Scan", 0xb5e55cdb51d3e843),
    ("suite/sms4/GpuShield/Transpose", 0x24651da355788d43),
    ("suite/sms4/GpuShield/MatVecMul", 0x25373a1815ec84f0),
    ("suite/sms4/GpuShield/MatMul", 0x10bed94b78da2466),
    ("suite/sms4/GpuShield/BitonicSm", 0xf8d0d314d732a5a6),
    ("suite/sms4/GpuShield/BitonicLa", 0x5933c8c9e99b8568),
    ("suite/sms4/GpuShield/SPMV", 0x81ce39dc4f7e620b),
    ("suite/sms4/GpuShield/BlkStencil", 0xf13e33a5739ccfe4),
    ("suite/sms4/GpuShield/StrStencil", 0x31ce52f2c37f3a8a),
    ("suite/sms4/GpuShield/VecGCD", 0x62361c554eed3de0),
    ("suite/sms4/GpuShield/MotionEst", 0x7f02f1497df9aac0),
    ("kir-scalarise/case00/Baseline", 0x38ecd6b30b5b5feb),
    ("kir-scalarise/case00/PureCap", 0xca81d2793ffabaeb),
    ("kir-scalarise/case01/Baseline", 0x466d4254f8fe6d84),
    ("kir-scalarise/case01/PureCap", 0x7780519c70d4d595),
    ("kir-scalarise/case02/Baseline", 0x0200ff1239b5bcbb),
    ("kir-scalarise/case02/PureCap", 0xfc60bd5ca584bf68),
    ("kir-scalarise/case03/Baseline", 0x950dbd100148f75a),
    ("kir-scalarise/case03/PureCap", 0x243ea53a549abd65),
    ("kir-scalarise/case04/Baseline", 0xca7992f00562f64c),
    ("kir-scalarise/case04/PureCap", 0x30f6c13a258981f0),
    ("kir-scalarise/case05/Baseline", 0xef76fe8afbf42cc1),
    ("kir-scalarise/case05/PureCap", 0x51fed5fdfd7d8aa8),
    ("kir-scalarise/case06/Baseline", 0x6d7970a2a7be1ea8),
    ("kir-scalarise/case06/PureCap", 0xeff54a7f33b2ce1e),
    ("kir-scalarise/case07/Baseline", 0x32496dbaebdf5852),
    ("kir-scalarise/case07/PureCap", 0x2d4ad8af9d63f001),
    ("kir-scalarise/case08/Baseline", 0xd597ff6a20c026db),
    ("kir-scalarise/case08/PureCap", 0xe3111c8e774c16ca),
    ("kir-scalarise/case09/Baseline", 0x33c2b99049840bea),
    ("kir-scalarise/case09/PureCap", 0xaf3a50e64bf2613b),
    ("kir-scalarise/case10/Baseline", 0x1fe48814928233f9),
    ("kir-scalarise/case10/PureCap", 0x4204aa1e30fe9d1a),
    ("kir-scalarise/case11/Baseline", 0x2644bdabc943486b),
    ("kir-scalarise/case11/PureCap", 0x7bcb2f2dd26fc64d),
    ("kir-scalarise/case12/Baseline", 0x40ddc197f7ae48d7),
    ("kir-scalarise/case12/PureCap", 0x8ee8caa3032e2cf0),
    ("kir-scalarise/case13/Baseline", 0x58e79eba4d0291fd),
    ("kir-scalarise/case13/PureCap", 0xca4e0c8f2b82f614),
    ("kir-scalarise/case14/Baseline", 0xe1eeb62105d7f8fc),
    ("kir-scalarise/case14/PureCap", 0x6967b3f7c66ca21f),
    ("kir-scalarise/case15/Baseline", 0xa865f07927e7eda7),
    ("kir-scalarise/case15/PureCap", 0x66de1a4270b5bb38),
    ("kir-scalarise/case16/Baseline", 0xe3eac50163decdc0),
    ("kir-scalarise/case16/PureCap", 0x7f2cc744b742aa04),
    ("kir-scalarise/case17/Baseline", 0x1248688c3faa4b0c),
    ("kir-scalarise/case17/PureCap", 0x22fa1b28cb07331f),
    ("kir-scalarise/case18/Baseline", 0x8c5b03b056018a50),
    ("kir-scalarise/case18/PureCap", 0x1bcbff7a3aee2840),
    ("kir-scalarise/case19/Baseline", 0xea694cf77a69d49e),
    ("kir-scalarise/case19/PureCap", 0xd06170e80908adb2),
    ("kir-scalarise/case20/Baseline", 0xa7f146c1c3132b41),
    ("kir-scalarise/case20/PureCap", 0x8dd756cb10f1dc16),
    ("kir-scalarise/case21/Baseline", 0x3d77653273a4cb26),
    ("kir-scalarise/case21/PureCap", 0x0893aad944869c20),
    ("kir-scalarise/case22/Baseline", 0xf1add70532e5ae0d),
    ("kir-scalarise/case22/PureCap", 0xc668eef342abdeff),
    ("kir-scalarise/case23/Baseline", 0xe39110f2a9b2a975),
    ("kir-scalarise/case23/PureCap", 0xf2dc140eb43647dc),
    ("kir-schemes/case0/baseline/Abort/sms1", 0x16f6ac210ffe827c),
    ("kir-schemes/case0/baseline/Abort/sms2", 0xbd06e259860de12c),
    ("kir-schemes/case0/baseline/MaskLanes/sms1", 0x16f6ac210ffe827c),
    ("kir-schemes/case0/baseline/MaskLanes/sms2", 0xbd06e259860de12c),
    ("kir-schemes/case0/naive/Abort/sms1", 0x38fe944549358302),
    ("kir-schemes/case0/naive/Abort/sms2", 0x6056110c0ea53e47),
    ("kir-schemes/case0/naive/MaskLanes/sms1", 0x38fe944549358302),
    ("kir-schemes/case0/naive/MaskLanes/sms2", 0x6056110c0ea53e47),
    ("kir-schemes/case0/purecap/Abort/sms1", 0x38fe944549358302),
    ("kir-schemes/case0/purecap/Abort/sms2", 0x6056110c0ea53e47),
    ("kir-schemes/case0/purecap/MaskLanes/sms1", 0x38fe944549358302),
    ("kir-schemes/case0/purecap/MaskLanes/sms2", 0x6056110c0ea53e47),
    ("kir-schemes/case0/rust/Abort/sms1", 0x4169dac1bab221dc),
    ("kir-schemes/case0/rust/Abort/sms2", 0xcaa2514ae0c09cfd),
    ("kir-schemes/case0/rust/MaskLanes/sms1", 0x4169dac1bab221dc),
    ("kir-schemes/case0/rust/MaskLanes/sms2", 0xcaa2514ae0c09cfd),
    ("kir-schemes/case0/gpushield/Abort/sms1", 0x94d4706a1443ed75),
    ("kir-schemes/case0/gpushield/Abort/sms2", 0xff9b7ab299f4cbe5),
    ("kir-schemes/case0/gpushield/MaskLanes/sms1", 0x94d4706a1443ed75),
    ("kir-schemes/case0/gpushield/MaskLanes/sms2", 0xff9b7ab299f4cbe5),
    ("kir-schemes/case1/baseline/Abort/sms1", 0xee0cd1918fc3c6e7),
    ("kir-schemes/case1/baseline/Abort/sms2", 0x32e58760ebdda2df),
    ("kir-schemes/case1/baseline/MaskLanes/sms1", 0xee0cd1918fc3c6e7),
    ("kir-schemes/case1/baseline/MaskLanes/sms2", 0x32e58760ebdda2df),
    ("kir-schemes/case1/naive/Abort/sms1", 0xb1af697591efe7d8),
    ("kir-schemes/case1/naive/Abort/sms2", 0xb6b57aefa9820452),
    ("kir-schemes/case1/naive/MaskLanes/sms1", 0xb1af697591efe7d8),
    ("kir-schemes/case1/naive/MaskLanes/sms2", 0xb6b57aefa9820452),
    ("kir-schemes/case1/purecap/Abort/sms1", 0xb1af697591efe7d8),
    ("kir-schemes/case1/purecap/Abort/sms2", 0xb6b57aefa9820452),
    ("kir-schemes/case1/purecap/MaskLanes/sms1", 0xb1af697591efe7d8),
    ("kir-schemes/case1/purecap/MaskLanes/sms2", 0xb6b57aefa9820452),
    ("kir-schemes/case1/rust/Abort/sms1", 0x53be78d0f849d78f),
    ("kir-schemes/case1/rust/Abort/sms2", 0x8d5a8252feac2112),
    ("kir-schemes/case1/rust/MaskLanes/sms1", 0x53be78d0f849d78f),
    ("kir-schemes/case1/rust/MaskLanes/sms2", 0x8d5a8252feac2112),
    ("kir-schemes/case1/gpushield/Abort/sms1", 0x218bc71987ec52da),
    ("kir-schemes/case1/gpushield/Abort/sms2", 0xe33478e4f66218e6),
    ("kir-schemes/case1/gpushield/MaskLanes/sms1", 0x218bc71987ec52da),
    ("kir-schemes/case1/gpushield/MaskLanes/sms2", 0xe33478e4f66218e6),
    ("kir-schemes/case2/baseline/Abort/sms1", 0xd700d8eda40874d2),
    ("kir-schemes/case2/baseline/Abort/sms2", 0xb7db15e72b93d13c),
    ("kir-schemes/case2/baseline/MaskLanes/sms1", 0xd700d8eda40874d2),
    ("kir-schemes/case2/baseline/MaskLanes/sms2", 0xb7db15e72b93d13c),
    ("kir-schemes/case2/naive/Abort/sms1", 0xebbcc91d8186d102),
    ("kir-schemes/case2/naive/Abort/sms2", 0x15a8a408c4322534),
    ("kir-schemes/case2/naive/MaskLanes/sms1", 0xebbcc91d8186d102),
    ("kir-schemes/case2/naive/MaskLanes/sms2", 0x15a8a408c4322534),
    ("kir-schemes/case2/purecap/Abort/sms1", 0xebbcc91d8186d102),
    ("kir-schemes/case2/purecap/Abort/sms2", 0x15a8a408c4322534),
    ("kir-schemes/case2/purecap/MaskLanes/sms1", 0xebbcc91d8186d102),
    ("kir-schemes/case2/purecap/MaskLanes/sms2", 0x15a8a408c4322534),
    ("kir-schemes/case2/rust/Abort/sms1", 0x58f906fb6dd0a814),
    ("kir-schemes/case2/rust/Abort/sms2", 0x83d02d398a7e7de8),
    ("kir-schemes/case2/rust/MaskLanes/sms1", 0x58f906fb6dd0a814),
    ("kir-schemes/case2/rust/MaskLanes/sms2", 0x83d02d398a7e7de8),
    ("kir-schemes/case2/gpushield/Abort/sms1", 0xcc58d916ce19ef83),
    ("kir-schemes/case2/gpushield/Abort/sms2", 0xcd4ed0839be26435),
    ("kir-schemes/case2/gpushield/MaskLanes/sms1", 0xcc58d916ce19ef83),
    ("kir-schemes/case2/gpushield/MaskLanes/sms2", 0xcd4ed0839be26435),
    ("kir-schemes/case3/baseline/Abort/sms1", 0x87e5160db75ca370),
    ("kir-schemes/case3/baseline/Abort/sms2", 0xba6618bd906e901d),
    ("kir-schemes/case3/baseline/MaskLanes/sms1", 0x87e5160db75ca370),
    ("kir-schemes/case3/baseline/MaskLanes/sms2", 0xba6618bd906e901d),
    ("kir-schemes/case3/naive/Abort/sms1", 0x8a591522584f7ad7),
    ("kir-schemes/case3/naive/Abort/sms2", 0xd10d93f4791aeaab),
    ("kir-schemes/case3/naive/MaskLanes/sms1", 0x8a591522584f7ad7),
    ("kir-schemes/case3/naive/MaskLanes/sms2", 0xd10d93f4791aeaab),
    ("kir-schemes/case3/purecap/Abort/sms1", 0x8a591522584f7ad7),
    ("kir-schemes/case3/purecap/Abort/sms2", 0xd10d93f4791aeaab),
    ("kir-schemes/case3/purecap/MaskLanes/sms1", 0x8a591522584f7ad7),
    ("kir-schemes/case3/purecap/MaskLanes/sms2", 0xd10d93f4791aeaab),
    ("kir-schemes/case3/rust/Abort/sms1", 0x22e38f1921a6d083),
    ("kir-schemes/case3/rust/Abort/sms2", 0xf82ab86d862015e9),
    ("kir-schemes/case3/rust/MaskLanes/sms1", 0x22e38f1921a6d083),
    ("kir-schemes/case3/rust/MaskLanes/sms2", 0xf82ab86d862015e9),
    ("kir-schemes/case3/gpushield/Abort/sms1", 0x98cf5dbfd43ac829),
    ("kir-schemes/case3/gpushield/Abort/sms2", 0xd5b73bff451a0904),
    ("kir-schemes/case3/gpushield/MaskLanes/sms1", 0x98cf5dbfd43ac829),
    ("kir-schemes/case3/gpushield/MaskLanes/sms2", 0xd5b73bff451a0904),
    ("kir-schemes/case4/baseline/Abort/sms1", 0x82796151e20dfd5e),
    ("kir-schemes/case4/baseline/Abort/sms2", 0x42b63c94419e9fa8),
    ("kir-schemes/case4/baseline/MaskLanes/sms1", 0x82796151e20dfd5e),
    ("kir-schemes/case4/baseline/MaskLanes/sms2", 0x42b63c94419e9fa8),
    ("kir-schemes/case4/naive/Abort/sms1", 0x2d636bc9de845ad5),
    ("kir-schemes/case4/naive/Abort/sms2", 0xb930a922ab764ee3),
    ("kir-schemes/case4/naive/MaskLanes/sms1", 0x2d636bc9de845ad5),
    ("kir-schemes/case4/naive/MaskLanes/sms2", 0xb930a922ab764ee3),
    ("kir-schemes/case4/purecap/Abort/sms1", 0x2d636bc9de845ad5),
    ("kir-schemes/case4/purecap/Abort/sms2", 0xb930a922ab764ee3),
    ("kir-schemes/case4/purecap/MaskLanes/sms1", 0x2d636bc9de845ad5),
    ("kir-schemes/case4/purecap/MaskLanes/sms2", 0xb930a922ab764ee3),
    ("kir-schemes/case4/rust/Abort/sms1", 0xf58f70a4beb39133),
    ("kir-schemes/case4/rust/Abort/sms2", 0x36512aabe60815fa),
    ("kir-schemes/case4/rust/MaskLanes/sms1", 0xf58f70a4beb39133),
    ("kir-schemes/case4/rust/MaskLanes/sms2", 0x36512aabe60815fa),
    ("kir-schemes/case4/gpushield/Abort/sms1", 0xe4fbde5d2d7febbb),
    ("kir-schemes/case4/gpushield/Abort/sms2", 0x590311a044fa7f41),
    ("kir-schemes/case4/gpushield/MaskLanes/sms1", 0xe4fbde5d2d7febbb),
    ("kir-schemes/case4/gpushield/MaskLanes/sms2", 0x590311a044fa7f41),
    ("kir-schemes/case5/baseline/Abort/sms1", 0x68abbce41b290d2b),
    ("kir-schemes/case5/baseline/Abort/sms2", 0xd30f75582a4e3ea3),
    ("kir-schemes/case5/baseline/MaskLanes/sms1", 0x68abbce41b290d2b),
    ("kir-schemes/case5/baseline/MaskLanes/sms2", 0xd30f75582a4e3ea3),
    ("kir-schemes/case5/naive/Abort/sms1", 0x2700b10786e449dc),
    ("kir-schemes/case5/naive/Abort/sms2", 0xb46f0dca4df318c0),
    ("kir-schemes/case5/naive/MaskLanes/sms1", 0x2700b10786e449dc),
    ("kir-schemes/case5/naive/MaskLanes/sms2", 0xb46f0dca4df318c0),
    ("kir-schemes/case5/purecap/Abort/sms1", 0x2700b10786e449dc),
    ("kir-schemes/case5/purecap/Abort/sms2", 0xb46f0dca4df318c0),
    ("kir-schemes/case5/purecap/MaskLanes/sms1", 0x2700b10786e449dc),
    ("kir-schemes/case5/purecap/MaskLanes/sms2", 0xb46f0dca4df318c0),
    ("kir-schemes/case5/rust/Abort/sms1", 0xd1ef83406d354998),
    ("kir-schemes/case5/rust/Abort/sms2", 0x8ad10ba6ad2190e8),
    ("kir-schemes/case5/rust/MaskLanes/sms1", 0xd1ef83406d354998),
    ("kir-schemes/case5/rust/MaskLanes/sms2", 0x8ad10ba6ad2190e8),
    ("kir-schemes/case5/gpushield/Abort/sms1", 0x6209f26e90b6638e),
    ("kir-schemes/case5/gpushield/Abort/sms2", 0x87ba9efccacf3be6),
    ("kir-schemes/case5/gpushield/MaskLanes/sms1", 0x6209f26e90b6638e),
    ("kir-schemes/case5/gpushield/MaskLanes/sms2", 0x87ba9efccacf3be6),
    ("faults/TagViolation/Abort", 0xf34e6b97cc290945),
    ("faults/TagViolation/MaskLanes", 0x37bd349968a053bf),
    ("faults/SealViolation/Abort", 0x7a34e6db0447626b),
    ("faults/SealViolation/MaskLanes", 0x50982303ef50158c),
    ("faults/BoundsViolation/Abort", 0xa88bb66577ac98d8),
    ("faults/BoundsViolation/MaskLanes", 0x4c723207113aef8f),
    ("faults/PermitLoadViolation/Abort", 0x7468766bd0473d31),
    ("faults/PermitLoadViolation/MaskLanes", 0x673736353a8560ae),
    ("faults/PermitStoreViolation/Abort", 0x262c6aca55df454a),
    ("faults/PermitStoreViolation/MaskLanes", 0x78ac4a5082734f97),
    ("faults/PermitExecuteViolation/Abort", 0x57677a3828086c4c),
    ("faults/PermitExecuteViolation/MaskLanes", 0x28058b6ed816df0e),
    ("faults/PermitLoadCapViolation/Abort", 0xde265f2368d98fed),
    ("faults/PermitLoadCapViolation/MaskLanes", 0x139ff7777ce3c8d2),
    ("faults/PermitStoreCapViolation/Abort", 0x16f3d293ef6b91e5),
    ("faults/PermitStoreCapViolation/MaskLanes", 0x4d3023ad28a01078),
    ("faults/AlignmentViolation/Abort", 0x86b07c1b8f203548),
    ("faults/AlignmentViolation/MaskLanes", 0xe9e5d4317baba383),
    ("faults/InexactBounds/Abort", 0x9a7d72dc72b8201d),
    ("faults/InexactBounds/MaskLanes", 0xfb72b193803d6eb1),
    ("abort-order/sms2/Mem/sm0", 0xfc09cbb57b59e29c),
    ("abort-order/sms2/Mem/sm1", 0x03f07ad34026cdac),
    ("abort-order/sms2/Ecall/sm0", 0xa0e3f633b456e3b4),
    ("abort-order/sms2/Ecall/sm1", 0xfd346d4546171484),
    ("abort-order/sms4/Mem/sm0", 0x397d8cfe51d5041c),
    ("abort-order/sms4/Mem/sm3", 0x7ca98f19f728b6dc),
    ("abort-order/sms4/Ecall/sm0", 0x519fdb35bceeac34),
    ("abort-order/sms4/Ecall/sm3", 0x3cabc9da1a3f5274),
    ("abort-order/ahead/sms2/Mem/sm0", 0x31ce0dc716cb083d),
    ("abort-order/ahead/sms2/Mem/sm1", 0x442bc1b9d690281d),
    ("abort-order/ahead/sms2/Ecall/sm0", 0x9e9c03facd268715),
    ("abort-order/ahead/sms2/Ecall/sm1", 0xe9d8fdd08e4d94d5),
    ("abort-order/ahead/sms4/Mem/sm0", 0xda1eec3e70c9726f),
    ("abort-order/ahead/sms4/Mem/sm3", 0xa19e638ace21b24f),
    ("abort-order/ahead/sms4/Ecall/sm0", 0x3a62a031f299d4c7),
    ("abort-order/ahead/sms4/Ecall/sm3", 0x96b83edc68c5f5e7),
];
