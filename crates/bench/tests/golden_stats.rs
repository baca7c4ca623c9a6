//! Golden-stats regression gate for the pipeline/Device refactor.
//!
//! The refactor's hard invariant is that a single-SM device is *the same
//! machine* as the pre-refactor monolithic `Sm`: with `--sms 1`, every suite
//! benchmark must produce bit-identical `KernelStats`. The constants below
//! were recorded from the pre-refactor model (commit `087d925`) at the quick
//! geometry across five representative configurations; this test re-runs the
//! full suite and compares field by field.
//!
//! The fingerprint covers every `KernelStats` field that existed before the
//! refactor (floats are compared by exact bit pattern). Fields added *by*
//! the refactor (cross-SM contention counters) are deliberately excluded:
//! they did not exist when the goldens were recorded, and the companion
//! assertions in `multi_sm.rs` pin them to zero at `sms = 1`.

use cheri_simt::KernelStats;
use nocl_suite::Scale;
use repro::{default_jobs, run_suite_parallel_on, Config, Geometry};

/// Render the pre-refactor field set of one run as a stable one-line string.
fn fingerprint(s: &KernelStats) -> String {
    let hist: Vec<String> = s.cheri_histogram.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!(
        "cyc={} ins={} tins={} hist=[{}] \
         stall={},{},{},{},{} dram={},{},{},{} tag={},{},{} scr={},{} \
         drf={},{},{},{},{} mrf={},{},{},{},{} \
         avgd={:016x} avgm={:016x} pkd={} pkm={} capu={} capm={:#x} \
         sfu={} bar={} stk={}",
        s.cycles,
        s.instrs,
        s.thread_instrs,
        hist.join(","),
        s.stalls.csc_serialisation,
        s.stalls.shared_vrf_conflict,
        s.stalls.spill_fill,
        s.stalls.cap_multi_flit,
        s.stalls.idle,
        s.dram.read_transactions,
        s.dram.write_transactions,
        s.dram.tag_transactions,
        s.dram.busy_cycles,
        s.tag_cache.hits,
        s.tag_cache.misses,
        s.tag_cache.writebacks,
        s.scratch.accesses,
        s.scratch.conflict_cycles,
        s.data_rf.spills,
        s.data_rf.fills,
        s.data_rf.scalar_writes,
        s.data_rf.vector_writes,
        s.data_rf.peak_resident,
        s.meta_rf.spills,
        s.meta_rf.fills,
        s.meta_rf.scalar_writes,
        s.meta_rf.vector_writes,
        s.meta_rf.peak_resident,
        s.avg_data_vrf_resident.to_bits(),
        s.avg_meta_vrf_resident.to_bits(),
        s.peak_data_vrf_resident,
        s.peak_meta_vrf_resident,
        s.cap_regs_used,
        s.cap_regs_mask,
        s.sfu_requests,
        s.barriers,
        s.stack_cache_hits,
    )
}

const CONFIGS: &[(&str, Config)] = &[
    ("Base3", Config::Base { eighths: 3 }),
    ("CheriNaive", Config::CheriNaive),
    ("CheriOpt", Config::CheriOpt),
    ("RustChecked", Config::RustChecked),
    ("GpuShield", Config::GpuShield),
];

/// One-off harvest helper: prints the golden table in source form.
/// Run with `cargo test -p repro --test golden_stats -- --ignored --nocapture`.
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_golden() {
    for (tag, config) in CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, 1).unwrap();
        for (bench, stats) in &results {
            println!("    (\"{tag}\", \"{bench}\", \"{}\"),", fingerprint(stats));
        }
    }
}

#[test]
fn suite_stats_match_pre_refactor_golden() {
    assert!(!GOLDEN.is_empty(), "golden table not recorded");
    let mut idx = 0usize;
    for (tag, config) in CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, 1)
            .unwrap_or_else(|e| panic!("suite failed under {tag}: {e}"));
        assert_eq!(results.len(), 14, "{tag}: suite size");
        for (bench, stats) in &results {
            let (want_tag, want_bench, want_fp) = GOLDEN[idx];
            assert_eq!((*tag, *bench), (want_tag, want_bench), "golden table order");
            assert_eq!(
                fingerprint(stats),
                want_fp,
                "{tag}/{bench}: KernelStats diverged from the pre-refactor model"
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN.len(), "golden table covered");
}

/// `(config, benchmark, fingerprint)` recorded from the pre-refactor model.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("Base3", "VecAdd", "cyc=21468 ins=5100 tins=40800 hist=[] stall=0,0,0,0,16368 dram=548,250,0,1596 tag=0,0,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,0,0,0 avgd=40207fb2e6194c80 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "Histogram", "cyc=16975 ins=5408 tins=43264 hist=[] stall=0,0,0,0,11567 dram=552,32,0,1168 tag=0,0,0 scr=576,785 drf=0,0,2032,1568,20 mrf=0,0,0,0,0 avgd=402bfe030792ef56 avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0"),
    ("Base3", "Reduce", "cyc=37822 ins=18504 tins=141600 hist=[] stall=0,0,0,0,19318 dram=415,32,0,894 tag=0,0,0 scr=1248,0 drf=0,0,6972,2222,20 mrf=0,0,0,0,0 avgd=4028d274a7c9fd1f avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0"),
    ("Base3", "Scan", "cyc=8412 ins=5856 tins=45664 hist=[] stall=0,0,0,0,2556 dram=64,32,0,192 tag=0,0,0 scr=636,0 drf=0,0,3702,778,27 mrf=0,0,0,0,0 avgd=401ff4fbcda3ac11 avgm=0000000000000000 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("Base3", "Transpose", "cyc=12934 ins=5264 tins=42112 hist=[] stall=0,0,0,0,7670 dram=168,128,0,592 tag=0,0,0 scr=256,0 drf=0,0,3968,512,24 mrf=0,0,0,0,0 avgd=40238f770d3a5bd1 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("Base3", "MatVecMul", "cyc=22577 ins=5248 tins=41984 hist=[] stall=0,0,0,0,17329 dram=3512,8,0,7040 tag=0,0,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,0,0,0 avgd=4040d08f9c18f9c2 avgm=0000000000000000 pkd=48 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "MatMul", "cyc=16573 ins=11488 tins=91904 hist=[] stall=0,0,0,0,5085 dram=176,32,0,416 tag=0,0,0 scr=1152,0 drf=0,0,8176,1664,24 mrf=0,0,0,0,0 avgd=4027f542514adfe9 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0"),
    ("Base3", "BitonicSm", "cyc=55771 ins=51482 tins=295192 hist=[] stall=0,0,0,0,4289 dram=96,64,0,320 tag=0,0,0 scr=5766,0 drf=0,0,13887,23493,64 mrf=0,0,0,0,0 avgd=4045a457a326c1ac avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0"),
    ("Base3", "BitonicLa", "cyc=750470 ins=201506 tins=1259758 hist=[] stall=0,0,0,0,548964 dram=13136,8966,0,44204 tag=0,0,0 scr=0,0 drf=0,0,69798,74374,64 mrf=0,0,0,0,0 avgd=40413a3665f558d1 avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "SPMV", "cyc=34254 ins=5694 tins=26862 hist=[] stall=0,0,0,0,28560 dram=3067,32,0,6198 tag=0,0,0 scr=0,0 drf=0,0,560,4204,72 mrf=0,0,0,0,0 avgd=40506517780aca51 avgm=0000000000000000 pkd=72 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "BlkStencil", "cyc=4390 ins=1220 tins=9540 hist=[] stall=0,0,0,0,3170 dram=88,32,0,240 tag=0,0,0 scr=128,0 drf=0,0,704,236,30 mrf=0,0,0,0,0 avgd=40247806b6fa1fe5 avgm=0000000000000000 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0"),
    ("Base3", "StrStencil", "cyc=28454 ins=6592 tins=52736 hist=[] stall=0,0,0,0,21862 dram=1040,250,0,2580 tag=0,0,0 scr=0,0 drf=0,0,3832,1250,17 mrf=0,0,0,0,0 avgd=4023d965e7254814 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "VecGCD", "cyc=10684 ins=6342 tins=40771 hist=[] stall=0,0,0,0,4342 dram=176,64,0,480 tag=0,0,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,0,0,0 avgd=40314de7f12537a0 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "MotionEst", "cyc=279633 ins=29184 tins=229863 hist=[] stall=0,0,0,0,250449 dram=10516,514,0,22060 tag=0,0,0 scr=0,0 drf=0,0,3926,21892,32 mrf=0,0,0,0,0 avgd=403f62f9435e50d8 avgm=0000000000000000 pkd=32 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "VecAdd", "cyc=21588 ins=5100 tins=40800 hist=[CIncOffset:750,CJAL:498,CLC:24,CLW:524,CSW:250,CSpecialRW:8] stall=0,0,0,24,16464 dram=548,250,13,1622 tag=785,13,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,3590,0,0 avgd=4020334ce68019b3 avgm=0000000000000000 pkd=17 pkm=0 capu=6 capm=0xa8000700 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "Histogram", "cyc=16990 ins=5416 tins=43328 hist=[CAMO:512,CIncOffset:1128,CIncOffsetImm:8,CJAL:584,CLBU:512,CLC:16,CLW:56,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,11558 dram=552,32,4,1176 tag=580,4,0 scr=576,785 drf=0,0,2040,1568,24 mrf=0,0,3608,0,0 avgd=4033632abaccf385 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x70000700 sfu=0 bar=24 stk=0"),
    ("CheriNaive", "Reduce", "cyc=37843 ins=18512 tins=141664 hist=[CAMO:32,CIncOffset:1599,CIncOffsetImm:8,CJAL:2167,CLC:16,CLW:1071,CSW:576,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,19315 dram=415,32,7,908 tag=440,7,0 scr=1248,0 drf=0,0,7076,2126,22 mrf=0,0,9202,0,0 avgd=402eea74623d82c4 avgm=0000000000000000 pkd=22 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=2048 stk=0"),
    ("CheriNaive", "Scan", "cyc=8422 ins=5864 tins=45728 hist=[CIncOffset:708,CIncOffsetImm:8,CJAL:388,CLC:16,CLW:448,CSW:268,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,2542 dram=64,32,2,196 tag=94,2,0 scr=636,0 drf=0,0,3707,781,28 mrf=0,0,4488,0,0 avgd=4021ad3a531f154e avgm=0000000000000000 pkd=28 pkm=0 capu=6 capm=0xb0000380 sfu=0 bar=256 stk=0"),
    ("CheriNaive", "Transpose", "cyc=12950 ins=5272 tins=42176 hist=[CIncOffset:520,CIncOffsetImm:8,CJAL:128,CLC:16,CLW:280,CSW:256,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,7662 dram=168,128,5,602 tag=291,5,0 scr=256,0 drf=0,0,3976,512,24 mrf=0,0,4488,0,0 avgd=40293901f13cfd48 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x38000700 sfu=0 bar=256 stk=0"),
    ("CheriNaive", "MatVecMul", "cyc=22591 ins=5248 tins=41984 hist=[CIncOffset:776,CJAL:400,CLC:24,CLW:800,CSW:8,CSpecialRW:8] stall=0,0,0,24,17319 dram=3512,8,8,7056 tag=3512,8,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,4408,0,0 avgd=4042d69c18f9c190 avgm=0000000000000000 pkd=48 pkm=0 capu=7 capm=0x78000e00 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "MatMul", "cyc=16594 ins=11504 tins=92032 hist=[CIncOffset:1320,CIncOffsetImm:16,CJAL:608,CLC:24,CLW:1176,CSW:160,CSetBoundsImm:16,CSpecialRW:16] stall=0,0,0,24,5066 dram=176,32,3,422 tag=205,3,0 scr=1152,0 drf=0,0,8192,1664,24 mrf=0,0,9856,0,0 avgd=4029205b2618ec6b avgm=0000000000000000 pkd=24 pkm=0 capu=10 capm=0xbc001f00 sfu=0 bar=160 stk=0"),
    ("CheriNaive", "BitonicSm", "cyc=55782 ins=51490 tins=295256 hist=[CIncOffset:5902,CIncOffsetImm:8,CJAL:2944,CLC:16,CLW:3088,CSW:2822,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,4276 dram=96,64,3,326 tag=157,3,0 scr=5766,0 drf=0,0,14186,23202,72 mrf=0,0,37388,0,0 avgd=4048ba64eda766de avgm=0000000000000000 pkd=72 pkm=0 capu=6 capm=0xa8000380 sfu=0 bar=960 stk=0"),
    ("CheriNaive", "BitonicLa", "cyc=750414 ins=201506 tins=1259758 hist=[CIncOffset:19462,CJAL:14080,CLC:440,CLW:12696,CSW:8966,CSpecialRW:440] stall=0,0,0,440,548468 dram=13136,8966,165,44534 tag=21937,165,0 scr=0,0 drf=0,0,70685,73487,72 mrf=0,0,123852,20320,16 avgd=4043757e3ed37ed9 avgm=402071ba1e097bea pkd=72 pkm=16 capu=3 capm=0x60000400 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "SPMV", "cyc=34241 ins=5694 tins=26862 hist=[CIncOffset:1131,CJAL:409,CLC:40,CLW:1123,CSW:32,CSpecialRW:8] stall=0,0,0,40,28507 dram=3067,32,8,6214 tag=3091,8,0 scr=0,0 drf=0,0,560,4204,88 mrf=0,0,4242,522,20 avgd=40543ecc1dda69ed avgm=4018bb924c6e6bb9 pkd=88 pkm=20 capu=11 capm=0xf3001f00 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "BlkStencil", "cyc=4403 ins=1228 tins=9604 hist=[CIncOffset:208,CIncOffsetImm:8,CJAL:40,CLC:16,CLW:144,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,3159 dram=88,32,3,246 tag=117,3,0 scr=128,0 drf=0,0,712,236,32 mrf=0,0,932,16,2 avgd=402aaaf1d2f87ec0 avgm=3ff93633b3488c17 pkd=32 pkm=2 capu=8 capm=0xb0001b80 sfu=0 bar=64 stk=0"),
    ("CheriNaive", "StrStencil", "cyc=28331 ins=6592 tins=52736 hist=[CIncOffset:1000,CJAL:498,CLC:16,CLW:774,CSW:250,CSpecialRW:8] stall=0,0,0,16,21723 dram=1040,250,9,2598 tag=1281,9,0 scr=0,0 drf=0,0,3832,1250,18 mrf=0,0,5082,0,0 avgd=4023d7ec1dd3431b avgm=0000000000000000 pkd=18 pkm=0 capu=5 capm=0xb0000300 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "VecGCD", "cyc=10722 ins=6342 tins=40771 hist=[CIncOffset:192,CJAL:1118,CLC:24,CLW:152,CSW:64,CSpecialRW:8] stall=0,0,0,24,4356 dram=176,64,4,488 tag=236,4,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,3898,0,0 avgd=40318d521aa43548 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "MotionEst", "cyc=279651 ins=29200 tins=229991 hist=[CIncOffset:1602,CJAL:1094,CLBU:1600,CLC:24,CLW:902,CSW:66,CSetAddr:8,CSpecialRW:16] stall=0,0,0,24,250427 dram=10516,514,18,22096 tag=11012,18,0 scr=0,0 drf=0,0,3934,21900,40 mrf=0,0,25834,0,0 avgd=4043a54a7c4861a1 avgm=0000000000000000 pkd=40 pkm=0 capu=7 capm=0x34000e04 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "VecAdd", "cyc=21588 ins=5100 tins=40800 hist=[CIncOffset:750,CJAL:498,CLC:24,CLW:524,CSW:250,CSpecialRW:8] stall=0,0,0,24,16464 dram=548,250,13,1622 tag=785,13,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,3590,0,0 avgd=4020334ce68019b3 avgm=0000000000000000 pkd=17 pkm=0 capu=6 capm=0xa8000700 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "Histogram", "cyc=16990 ins=5416 tins=43328 hist=[CAMO:512,CIncOffset:1128,CIncOffsetImm:8,CJAL:584,CLBU:512,CLC:16,CLW:56,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,11558 dram=552,32,4,1176 tag=580,4,0 scr=576,785 drf=0,0,2040,1568,24 mrf=0,0,3608,0,0 avgd=4033632abaccf385 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x70000700 sfu=8 bar=24 stk=0"),
    ("CheriOpt", "Reduce", "cyc=37829 ins=18512 tins=141664 hist=[CAMO:32,CIncOffset:1599,CIncOffsetImm:8,CJAL:2167,CLC:16,CLW:1071,CSW:576,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,19301 dram=415,32,7,908 tag=440,7,0 scr=1248,0 drf=0,0,7076,2126,22 mrf=0,0,9202,0,0 avgd=402eed232e3e6557 avgm=0000000000000000 pkd=22 pkm=0 capu=6 capm=0xe0000700 sfu=8 bar=2048 stk=0"),
    ("CheriOpt", "Scan", "cyc=8420 ins=5864 tins=45728 hist=[CIncOffset:708,CIncOffsetImm:8,CJAL:388,CLC:16,CLW:448,CSW:268,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,2540 dram=64,32,2,196 tag=94,2,0 scr=636,0 drf=0,0,3707,781,28 mrf=0,0,4488,0,0 avgd=4021b13e840430e5 avgm=0000000000000000 pkd=28 pkm=0 capu=6 capm=0xb0000380 sfu=8 bar=256 stk=0"),
    ("CheriOpt", "Transpose", "cyc=12941 ins=5272 tins=42176 hist=[CIncOffset:520,CIncOffsetImm:8,CJAL:128,CLC:16,CLW:280,CSW:256,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,7653 dram=168,128,5,602 tag=291,5,0 scr=256,0 drf=0,0,3976,512,24 mrf=0,0,4488,0,0 avgd=40293dab5069a9c3 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x38000700 sfu=8 bar=256 stk=0"),
    ("CheriOpt", "MatVecMul", "cyc=22591 ins=5248 tins=41984 hist=[CIncOffset:776,CJAL:400,CLC:24,CLW:800,CSW:8,CSpecialRW:8] stall=0,0,0,24,17319 dram=3512,8,8,7056 tag=3512,8,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,4408,0,0 avgd=4042d69c18f9c190 avgm=0000000000000000 pkd=48 pkm=0 capu=7 capm=0x78000e00 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "MatMul", "cyc=16581 ins=11504 tins=92032 hist=[CIncOffset:1320,CIncOffsetImm:16,CJAL:608,CLC:24,CLW:1176,CSW:160,CSetBoundsImm:16,CSpecialRW:16] stall=0,0,0,24,5053 dram=176,32,3,422 tag=205,3,0 scr=1152,0 drf=0,0,8192,1664,24 mrf=0,0,9856,0,0 avgd=402923122896f719 avgm=0000000000000000 pkd=24 pkm=0 capu=10 capm=0xbc001f00 sfu=16 bar=160 stk=0"),
    ("CheriOpt", "BitonicSm", "cyc=55773 ins=51490 tins=295256 hist=[CIncOffset:5902,CIncOffsetImm:8,CJAL:2944,CLC:16,CLW:3088,CSW:2822,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,4267 dram=96,64,3,326 tag=157,3,0 scr=5766,0 drf=0,0,14186,23202,72 mrf=0,0,37388,0,0 avgd=4048ba7fa82d6c38 avgm=0000000000000000 pkd=72 pkm=0 capu=6 capm=0xa8000380 sfu=8 bar=960 stk=0"),
    ("CheriOpt", "BitonicLa", "cyc=750414 ins=201506 tins=1259758 hist=[CIncOffset:19462,CJAL:14080,CLC:440,CLW:12696,CSW:8966,CSpecialRW:440] stall=0,0,0,440,548468 dram=13136,8966,165,44534 tag=21937,165,0 scr=0,0 drf=0,0,70685,73487,72 mrf=0,0,144172,0,0 avgd=4043757e3ed37ed9 avgm=0000000000000000 pkd=72 pkm=0 capu=3 capm=0x60000400 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "SPMV", "cyc=34241 ins=5694 tins=26862 hist=[CIncOffset:1131,CJAL:409,CLC:40,CLW:1123,CSW:32,CSpecialRW:8] stall=0,0,0,40,28507 dram=3067,32,8,6214 tag=3091,8,0 scr=0,0 drf=0,0,560,4204,88 mrf=0,0,4764,0,0 avgd=40543ecc1dda69ed avgm=0000000000000000 pkd=88 pkm=0 capu=11 capm=0xf3001f00 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "BlkStencil", "cyc=4405 ins=1228 tins=9604 hist=[CIncOffset:208,CIncOffsetImm:8,CJAL:40,CLC:16,CLW:144,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,8,0,16,3153 dram=88,32,3,246 tag=117,3,0 scr=128,0 drf=0,0,712,236,32 mrf=0,0,934,14,2 avgd=402abe1faff2a871 avgm=3ff860bac9cc4cb7 pkd=32 pkm=2 capu=8 capm=0xb0001b80 sfu=8 bar=64 stk=0"),
    ("CheriOpt", "StrStencil", "cyc=28331 ins=6592 tins=52736 hist=[CIncOffset:1000,CJAL:498,CLC:16,CLW:774,CSW:250,CSpecialRW:8] stall=0,0,0,16,21723 dram=1040,250,9,2598 tag=1281,9,0 scr=0,0 drf=0,0,3832,1250,18 mrf=0,0,5082,0,0 avgd=4023d7ec1dd3431b avgm=0000000000000000 pkd=18 pkm=0 capu=5 capm=0xb0000300 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "VecGCD", "cyc=10722 ins=6342 tins=40771 hist=[CIncOffset:192,CJAL:1118,CLC:24,CLW:152,CSW:64,CSpecialRW:8] stall=0,0,0,24,4356 dram=176,64,4,488 tag=236,4,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,3898,0,0 avgd=40318d521aa43548 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "MotionEst", "cyc=279651 ins=29200 tins=229991 hist=[CIncOffset:1602,CJAL:1094,CLBU:1600,CLC:24,CLW:902,CSW:66,CSetAddr:8,CSpecialRW:16] stall=0,0,0,24,250427 dram=10516,514,18,22096 tag=11012,18,0 scr=0,0 drf=0,0,3934,21900,40 mrf=0,0,25834,0,0 avgd=4043a54a7c4861a1 avgm=0000000000000000 pkd=40 pkm=0 capu=7 capm=0x34000e04 sfu=0 bar=0 stk=0"),
    ("RustChecked", "VecAdd", "cyc=22435 ins=6624 tins=52992 hist=[] stall=0,0,0,0,15811 dram=572,250,0,1644 tag=0,0,0 scr=0,0 drf=0,0,3614,750,18 mrf=0,0,0,0,0 avgd=4027bae6076b981e avgm=0000000000000000 pkd=18 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "Histogram", "cyc=18035 ins=7664 tins=61312 hist=[] stall=0,0,0,0,10371 dram=568,32,0,1200 tag=0,0,0 scr=576,785 drf=0,0,3168,1568,14 mrf=0,0,0,0,0 avgd=401c8b7d98513c64 avgm=0000000000000000 pkd=14 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0"),
    ("RustChecked", "Reduce", "cyc=41533 ins=21830 tins=164048 hist=[] stall=0,0,0,0,19703 dram=431,32,0,926 tag=0,0,0 scr=1248,0 drf=0,0,8195,2702,22 mrf=0,0,0,0,0 avgd=402e3a4277f18d67 avgm=0000000000000000 pkd=22 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0"),
    ("RustChecked", "Scan", "cyc=10213 ins=7272 tins=56552 hist=[] stall=0,0,0,0,2941 dram=80,32,0,224 tag=0,0,0 scr=636,0 drf=0,0,4336,860,27 mrf=0,0,0,0,0 avgd=40212ec012063221 avgm=0000000000000000 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("RustChecked", "Transpose", "cyc=14361 ins=6304 tins=50432 hist=[] stall=0,0,0,0,8057 dram=184,128,0,624 tag=0,0,0 scr=256,0 drf=0,0,4496,512,16 mrf=0,0,0,0,0 avgd=4021eacd51de3694 avgm=0000000000000000 pkd=16 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("RustChecked", "MatVecMul", "cyc=23394 ins=6824 tins=54592 hist=[] stall=0,0,0,0,16570 dram=3536,8,0,7088 tag=0,0,0 scr=0,0 drf=0,0,2520,2688,40 mrf=0,0,0,0,0 avgd=403e5858d5aef7e6 avgm=0000000000000000 pkd=40 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "MatMul", "cyc=19779 ins=14136 tins=113088 hist=[] stall=0,0,0,0,5643 dram=200,32,0,464 tag=0,0,0 scr=1152,0 drf=0,0,9512,1664,24 mrf=0,0,0,0,0 avgd=402670adda9f138f avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0"),
    ("RustChecked", "BitonicSm", "cyc=68015 ins=63286 tins=342568 hist=[] stall=0,0,0,0,4729 dram=112,64,0,352 tag=0,0,0 scr=5766,0 drf=0,0,15064,28226,64 mrf=0,0,0,0,0 avgd=4045b2c3abc3a58d avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0"),
    ("RustChecked", "BitonicLa", "cyc=771550 ins=240870 tins=1431970 hist=[] stall=0,0,0,0,530680 dram=13576,8966,0,45084 tag=0,0,0 scr=0,0 drf=0,0,74911,89163,64 mrf=0,0,0,0,0 avgd=4041643b51532e1e avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "SPMV", "cyc=35950 ins=7996 tins=37268 hist=[] stall=0,0,0,0,27954 dram=3107,32,0,6278 tag=0,0,0 scr=0,0 drf=0,0,789,5146,64 mrf=0,0,0,0,0 avgd=404d59054028fb01 avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "BlkStencil", "cyc=5371 ins=1884 tins=14780 hist=[] stall=0,0,0,0,3487 dram=104,32,0,272 tag=0,0,0 scr=128,0 drf=0,0,1144,268,28 mrf=0,0,0,0,0 avgd=402846ee104e447c avgm=0000000000000000 pkd=28 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0"),
    ("RustChecked", "StrStencil", "cyc=29026 ins=8608 tins=68864 hist=[] stall=0,0,0,0,20418 dram=1056,250,0,2612 tag=0,0,0 scr=0,0 drf=0,0,4848,1250,17 mrf=0,0,0,0,0 avgd=4029f2611214efd2 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "VecGCD", "cyc=11479 ins=6750 tins=44035 hist=[] stall=0,0,0,0,4729 dram=200,64,0,528 tag=0,0,0 scr=0,0 drf=0,0,1149,2965,24 mrf=0,0,0,0,0 avgd=4030fb5f7f5af245 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "MotionEst", "cyc=575347 ins=35106 tins=277239 hist=[] stall=0,0,0,0,540241 dram=31596,1106,0,65404 tag=0,0,0 scr=0,0 drf=0,0,7372,22692,30 mrf=0,0,0,0,0 avgd=403cadd6b9e48d5a avgm=0000000000000000 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "VecAdd", "cyc=21468 ins=5100 tins=40800 hist=[] stall=0,0,0,0,16368 dram=548,250,0,1596 tag=0,0,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,0,0,0 avgd=40207fb2e6194c80 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "Histogram", "cyc=16975 ins=5408 tins=43264 hist=[] stall=0,0,0,0,11567 dram=552,32,0,1168 tag=0,0,0 scr=576,785 drf=0,0,2032,1568,20 mrf=0,0,0,0,0 avgd=402bfe030792ef56 avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0"),
    ("GpuShield", "Reduce", "cyc=37822 ins=18504 tins=141600 hist=[] stall=0,0,0,0,19318 dram=415,32,0,894 tag=0,0,0 scr=1248,0 drf=0,0,6972,2222,20 mrf=0,0,0,0,0 avgd=4028d274a7c9fd1f avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0"),
    ("GpuShield", "Scan", "cyc=8412 ins=5856 tins=45664 hist=[] stall=0,0,0,0,2556 dram=64,32,0,192 tag=0,0,0 scr=636,0 drf=0,0,3702,778,27 mrf=0,0,0,0,0 avgd=401ff4fbcda3ac11 avgm=0000000000000000 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("GpuShield", "Transpose", "cyc=12934 ins=5264 tins=42112 hist=[] stall=0,0,0,0,7670 dram=168,128,0,592 tag=0,0,0 scr=256,0 drf=0,0,3968,512,24 mrf=0,0,0,0,0 avgd=40238f770d3a5bd1 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("GpuShield", "MatVecMul", "cyc=22577 ins=5248 tins=41984 hist=[] stall=0,0,0,0,17329 dram=3512,8,0,7040 tag=0,0,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,0,0,0 avgd=4040d08f9c18f9c2 avgm=0000000000000000 pkd=48 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "MatMul", "cyc=16573 ins=11488 tins=91904 hist=[] stall=0,0,0,0,5085 dram=176,32,0,416 tag=0,0,0 scr=1152,0 drf=0,0,8176,1664,24 mrf=0,0,0,0,0 avgd=4027f542514adfe9 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0"),
    ("GpuShield", "BitonicSm", "cyc=55771 ins=51482 tins=295192 hist=[] stall=0,0,0,0,4289 dram=96,64,0,320 tag=0,0,0 scr=5766,0 drf=0,0,13887,23493,64 mrf=0,0,0,0,0 avgd=4045a457a326c1ac avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0"),
    ("GpuShield", "BitonicLa", "cyc=750470 ins=201506 tins=1259758 hist=[] stall=0,0,0,0,548964 dram=13136,8966,0,44204 tag=0,0,0 scr=0,0 drf=0,0,69798,74374,64 mrf=0,0,0,0,0 avgd=40413a3665f558d1 avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "SPMV", "cyc=34254 ins=5694 tins=26862 hist=[] stall=0,0,0,0,28560 dram=3067,32,0,6198 tag=0,0,0 scr=0,0 drf=0,0,560,4204,72 mrf=0,0,0,0,0 avgd=40506517780aca51 avgm=0000000000000000 pkd=72 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "BlkStencil", "cyc=4390 ins=1220 tins=9540 hist=[] stall=0,0,0,0,3170 dram=88,32,0,240 tag=0,0,0 scr=128,0 drf=0,0,704,236,30 mrf=0,0,0,0,0 avgd=40247806b6fa1fe5 avgm=0000000000000000 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0"),
    ("GpuShield", "StrStencil", "cyc=28454 ins=6592 tins=52736 hist=[] stall=0,0,0,0,21862 dram=1040,250,0,2580 tag=0,0,0 scr=0,0 drf=0,0,3832,1250,17 mrf=0,0,0,0,0 avgd=4023d965e7254814 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "VecGCD", "cyc=10684 ins=6342 tins=40771 hist=[] stall=0,0,0,0,4342 dram=176,64,0,480 tag=0,0,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,0,0,0 avgd=40314de7f12537a0 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "MotionEst", "cyc=279633 ins=29184 tins=229863 hist=[] stall=0,0,0,0,250449 dram=10516,514,0,22060 tag=0,0,0 scr=0,0 drf=0,0,3926,21892,32 mrf=0,0,0,0,0 avgd=403f62f9435e50d8 avgm=0000000000000000 pkd=32 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
];
