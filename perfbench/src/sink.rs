//! The traced run's event sink: counts events instead of storing them, so a
//! paper-scale cell (millions of issues) traces in constant memory.

use cheri_simt::trace::{EventSink, IssueClass, MemSpace, TraceEvent};
use cheri_simt::{Device, KernelStats};
use std::any::Any;

/// Event totals of one cell, summed over its launches and SMs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub issues: u64,
    pub scalarised: u64,
    pub tag_lookups: u64,
    pub tag_hits: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_tag_txns: u64,
    pub sfu: u64,
    /// `Mem` events in DRAM space (one per coalesced warp access).
    pub dram_accesses: u64,
    /// Transactions those accesses were coalesced into.
    pub dram_access_txns: u64,
    /// Register-file transitions into vector (uncompressed) form.
    pub vector_transitions: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.issues += o.issues;
        self.scalarised += o.scalarised;
        self.tag_lookups += o.tag_lookups;
        self.tag_hits += o.tag_hits;
        self.dram_reads += o.dram_reads;
        self.dram_writes += o.dram_writes;
        self.dram_tag_txns += o.dram_tag_txns;
        self.sfu += o.sfu;
        self.dram_accesses += o.dram_accesses;
        self.dram_access_txns += o.dram_access_txns;
        self.vector_transitions += o.vector_transitions;
    }

    /// The event totals must equal the run's counters (the invariants
    /// `repro validate-trace` checks); otherwise tracing is not exact.
    pub fn reconcile(&self, stats: &KernelStats) -> Result<(), String> {
        let pairs = [
            ("issues vs instrs", self.issues, stats.instrs),
            ("scalarised issues", self.scalarised, stats.scalarised_issues),
            (
                "tag lookups vs hits+misses",
                self.tag_lookups,
                stats.tag_cache.hits + stats.tag_cache.misses,
            ),
            ("tag hits", self.tag_hits, stats.tag_cache.hits),
            ("dram reads", self.dram_reads, stats.dram.read_transactions),
            ("dram writes", self.dram_writes, stats.dram.write_transactions),
            ("dram tag txns", self.dram_tag_txns, stats.dram.tag_transactions),
            ("sfu requests", self.sfu, stats.sfu_requests),
        ];
        for (name, events, counter) in pairs {
            if events != counter {
                return Err(format!("{name}: events say {events}, counters say {counter}"));
            }
        }
        Ok(())
    }
}

/// An [`EventSink`] that only counts.
#[derive(Debug, Default)]
pub struct CountingSink(Counts);

impl EventSink for CountingSink {
    fn emit(&mut self, ev: TraceEvent) {
        let c = &mut self.0;
        match ev {
            TraceEvent::Issue { class, .. } => {
                c.issues += 1;
                c.scalarised += u64::from(class == IssueClass::Scalarised);
            }
            TraceEvent::TagCache { hit, .. } => {
                c.tag_lookups += 1;
                c.tag_hits += u64::from(hit);
            }
            TraceEvent::Dram { reads, writes, tag_txns, .. } => {
                c.dram_reads += u64::from(reads);
                c.dram_writes += u64::from(writes);
                c.dram_tag_txns += u64::from(tag_txns);
            }
            TraceEvent::Sfu { .. } => c.sfu += 1,
            TraceEvent::Mem { space: MemSpace::Dram, transactions, .. } => {
                c.dram_accesses += 1;
                c.dram_access_txns += u64::from(transactions);
            }
            TraceEvent::RfTransition { to_vector, .. } => {
                c.vector_transitions += u64::from(to_vector);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Attach a counting sink to every SM that has none yet. Called from the
/// pre-launch hook, so the sink survives between a benchmark's launches.
pub fn install(dev: &mut Device) {
    for k in 0..dev.num_sms() as usize {
        if !dev.sm(k).has_sink() {
            dev.sm_mut(k).set_sink(Box::new(CountingSink::default()));
        }
    }
}

/// Detach every SM's sink and sum its counts.
pub fn collect(dev: &mut Device) -> Counts {
    let mut total = Counts::default();
    for k in 0..dev.num_sms() as usize {
        if let Some(sink) = dev.sm_mut(k).take_sink() {
            let sink =
                sink.as_any().downcast_ref::<CountingSink>().expect("installed a CountingSink");
            total.add(&sink.0);
        }
    }
    total
}
