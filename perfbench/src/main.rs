//! Simulator-throughput benchmark for the CHERI-SIMT model.
//!
//! ```text
//! perfbench --workload <suite-sm1|suite-sm4> --seed N --seconds S --trace 0|1
//! perfbench --write-reference
//! ```
//!
//! With `--trace 0` it runs passes over the workload's 70 cells (14 NoclBench
//! benchmarks x 5 `PERF_CONFIGS`) until `--seconds` would be exceeded (at
//! least two passes) and reports the end-to-end metrics, with every time
//! scaled to a reference host speed by `stats::SpeedProbe`. With
//! `--trace 1` it makes the layer-attributed run of `layers.rs` and reports
//! the per-layer metrics. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Spans go to `perfbench/out/`. See `perfbench/README.md`.

mod cells;
mod layers;
mod sink;
mod span;
mod stats;

use cells::{cells, run_pass, shuffled, Pass, Reference, Workload, WORKLOADS};
use sim_prng::Prng;
use span::Spans;
use stats::{median, peak_rss_mb, percentile, SpeedProbe, PROBE_REF_S};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Passes per end-to-end run at least: 2 x 70 cells puts 14 samples beyond
/// the 90th percentile of ns per instruction.
const MIN_PASSES: usize = 2;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_owned(), value, unit }
    }
}

/// What a run reports: cells attempted and failed, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// End-to-end metrics: closed-loop passes over the workload's cells, in a
/// fresh seeded order after the first, until `seconds` would be exceeded.
/// A pass's time is its cells' time, without the probes run between them.
fn end_to_end(
    w: &Workload,
    args: &Args,
    reference: &Reference,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let cells = cells();
    let mut rng = Prng::seed_from_u64(args.seed);
    let identity: Vec<usize> = (0..cells.len()).collect();
    let mut probe = SpeedProbe::new();
    let start = Instant::now();
    // The first pass runs in Table order, so the allocator takes the same
    // path in every run and the process's peak RSS after it repeats.
    let mut passes = vec![run_pass(w.sms, &cells, &identity, reference, &mut probe, spans)];
    let peak_rss = peak_rss_mb()?;
    loop {
        let order = shuffled(&mut rng, cells.len());
        passes.push(run_pass(w.sms, &cells, &order, reference, &mut probe, spans));
        let done = passes.len() as f64;
        let elapsed = start.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && elapsed * (done + 1.0) / done > args.seconds {
            break;
        }
    }
    let mut out = Outcome::default();
    for (p, _) in &passes {
        out.attempted += p.runs.len() as u64;
        out.failed += p.failed();
    }
    // Every time is scaled by its pass's host-speed factor: the reference
    // probe time over the pass's median probe time.
    let speed = |probe: f64| PROBE_REF_S / probe;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        median(passes.iter().map(|(p, probe)| f(p) * speed(*probe)).collect())
    };
    let ns_per_instr: Vec<f64> = passes
        .iter()
        .flat_map(|(p, probe)| p.runs.iter().map(move |r| (r, speed(*probe))))
        .filter(|(r, _)| r.instrs() > 0)
        .map(|(r, k)| 1e9 * r.total() * k / r.instrs() as f64)
        .collect();
    if ns_per_instr.is_empty() {
        return Ok(out);
    }
    eprintln!(
        "perfbench: {} passes, {} ns/instr samples ({} beyond p90), host-speed factors {:?}",
        passes.len(),
        ns_per_instr.len(),
        ns_per_instr.len() / 10,
        passes.iter().map(|(_, probe)| (1e3 * speed(*probe)).round() / 1e3).collect::<Vec<_>>()
    );
    let m = &mut out.metrics;
    m.push(Metric::new(
        "sim_minstr_per_s",
        median(
            passes
                .iter()
                .map(|(p, probe)| p.instrs() as f64 / p.cell_time() / speed(*probe) / 1e6)
                .collect(),
        ),
        "Minstr/s",
    ));
    m.push(Metric::new("wall_s", per_pass(&Pass::cell_time), "s"));
    m.push(Metric::new("setup_s", per_pass(&Pass::setup), "s"));
    m.push(Metric::new("ns_per_instr_p50", percentile(ns_per_instr.clone(), 0.5), "ns"));
    m.push(Metric::new("ns_per_instr_p90", percentile(ns_per_instr, 0.9), "ns"));
    m.push(Metric::new("peak_rss_mb", peak_rss, "MB"));
    Ok(out)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let reference = Reference::embedded()?;
    let mut spans = Spans::new();
    let w = args.workload;
    let out = if args.trace {
        layers::traced_run(w, args.seed, &reference, &mut spans)
    } else {
        end_to_end(w, args, &reference, &mut spans)?
    };
    let dir = format!("{MANIFEST_DIR}/out");
    let path =
        format!("{dir}/spans-{}-seed{}-trace{}.jsonl", w.name, args.seed, u8::from(args.trace));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()))
    {
        eprintln!("perfbench: could not write spans to {path}: {e}");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return match cells::write_reference(&format!("{MANIFEST_DIR}/reference.tsv")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
