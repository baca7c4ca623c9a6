//! Schedule stage: the barrel scheduler.
//!
//! Owns the round-robin warp pick, barrier release, the `idle` stall
//! counter and its trace events, and deadlock detection. One call to
//! [`Sm::step`] is one scheduler decision: issue an instruction (plus the
//! rest of its basic block, see below), advance time to the next resume
//! point, or report the run finished/deadlocked.
//!
//! # The ready set
//!
//! The pick never scans the warps. Each SM keeps three [`WarpSet`]s and a
//! wake time:
//!
//! * `live` — warps with a runnable thread;
//! * `ready` — live warps whose `ready_at` has passed;
//! * `parked` — warps with a thread waiting at a barrier;
//! * `next_wake` — the smallest `ready_at` over `live` warps outside
//!   `ready`.
//!
//! A warp's state changes only when it issues or a barrier releases it,
//! and both re-file it ([`Sm::refile`]); `ready` is refreshed only once
//! the clock reaches `next_wake`. The pick is then the first `ready` bit
//! at or after the round-robin pointer — exactly the warp the classic
//! round-robin scan returns, which a `debug_assert` re-derives on every
//! pick. A time advance jumps to `next_wake`, barrier maintenance runs
//! only while `parked` is non-empty, and "done" is `live` and `parked`
//! both empty.
//!
//! # Basic-block runs
//!
//! One step may retire a whole straight-line run of the pre-decoded ROM:
//! after issuing warp `w`, the scheduler re-issues `w` directly — skipping
//! the pick, the barrier-release pass and active-thread selection — for as
//! long as re-issuing `w` is exactly what the per-issue dispatcher would
//! have decided. That holds iff, each iteration:
//!
//! * the op just issued was straight-line and delivered no trap, so every
//!   selected lane sits at `pc + 4` with unchanged status and PCC
//!   metadata;
//! * the next slot exists, decodes, and is not a block leader;
//! * `w` was converged (its selection covered every runnable lane), so
//!   the incremented selection *is* `select()`'s answer;
//! * the watchdog has not expired; and
//! * the ready set is exactly `{w}` — the round-robin pointer is at
//!   `w + 1` and `w` scans last, so the dispatcher would re-pick `w`
//!   exactly when every other warp is done, parked or not yet ready.
//!
//! Barrier release needs no re-check inside a run: statuses are frozen
//! while it lasts (a status change ends it), `w` stays live so `w`'s own
//! block cannot release, and any block releasable before the run was
//! released by the pass that preceded it. Each issue still runs the full
//! fetch/classify/execute/account path, so trace events, statistics and
//! architectural state are those of per-issue dispatch.
//!
//! # Turns and local steps
//!
//! On a [`crate::Device`] an SM *holds the turn* while its
//! `(cycle, SM index)` key is the smallest on the device, i.e. while
//! `cycle < turn_until`. Past its turn an SM may only take steps that are
//! provably *local* — that touch no DRAM contents, DRAM timing or tag
//! state and cannot end the SM — so a block run stops before any other op
//! once the turn has passed, and a step that is not local returns
//! [`StepOutcome::Blocked`] untaken. A stand-alone SM always holds the
//! turn. The golden digests pin single- and multi-SM runs alike.

use super::StepOutcome;
use crate::rom::{pc_index, MicroOp, TrapPlan};
use crate::sm::Sm;
use crate::trap::RunError;
use crate::warp::{Selection, ThreadStatus};
use simt_trace::{StallCause, TraceEvent, NO_WARP};

/// A set of warp indices, one bit per warp, for any warp count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarpSet {
    words: Vec<u64>,
    /// Number of warps the set ranges over.
    n: usize,
}

impl WarpSet {
    /// The empty set over `n` warps.
    pub(crate) fn new(n: u32) -> Self {
        let n = n as usize;
        WarpSet { words: vec![0; n.div_ceil(64)], n }
    }

    /// Make the set hold every warp.
    pub(crate) fn fill(&mut self) {
        self.words.fill(u64::MAX);
        if !self.n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = u64::MAX >> (64 - self.n % 64);
            }
        }
    }

    /// Make the set empty.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Add (`on`) or remove warp `w`.
    #[inline]
    pub(crate) fn set(&mut self, w: usize, on: bool) {
        let bit = 1u64 << (w % 64);
        let word = &mut self.words[w / 64];
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Is the set empty?
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&x| x == 0)
    }

    /// Is the set exactly `{w}`?
    #[inline]
    pub(crate) fn is_only(&self, w: usize) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &x)| x == if i == w / 64 { 1 << (w % 64) } else { 0 })
    }

    /// Number of warps in the set.
    pub(crate) fn len(&self) -> u32 {
        self.words.iter().map(|x| x.count_ones()).sum()
    }

    /// The smallest warp in the set at or after `start`.
    #[inline]
    pub(crate) fn next_from(&self, start: usize) -> Option<usize> {
        let mut i = start / 64;
        let mut word = *self.words.get(i)? & (u64::MAX << (start % 64));
        loop {
            if word != 0 {
                return Some(i * 64 + word.trailing_zeros() as usize);
            }
            i += 1;
            word = *self.words.get(i)?;
        }
    }

    /// The first warp in the set scanning round-robin from `start`: at or
    /// after it, else wrapping around from warp 0.
    #[inline]
    pub(crate) fn first_from(&self, start: usize) -> Option<usize> {
        self.next_from(start).or_else(|| self.next_from(0))
    }
}

impl Sm {
    /// One scheduler step: release barriers, pick a ready warp round-robin
    /// and issue it (plus the rest of its straight-line run), or advance
    /// time to the next resume point.
    ///
    /// The SM holds the device turn while `cycle < turn_until` (always,
    /// stand-alone, with `u64::MAX`). Past its turn the step does only
    /// local work (see the module docs): if the step would touch shared
    /// state or end the SM, it returns [`StepOutcome::Blocked`] having
    /// changed nothing observable, and a block run stops before any op
    /// that is not local.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trap`] on a thread fault, [`RunError::Timeout`]
    /// past `max_cycles`, and [`RunError::Deadlock`] when only
    /// barrier-blocked warps remain and no block can release.
    pub(crate) fn step(
        &mut self,
        max_cycles: u64,
        turn_until: u64,
    ) -> Result<StepOutcome, RunError> {
        self.key_cycle = self.cycle;
        let ahead = self.cycle >= turn_until;
        if self.cycle >= max_cycles {
            // Every path below would time out (or finish): both end the SM.
            if ahead {
                return Ok(StepOutcome::Blocked);
            }
            if self.live.is_empty() && self.parked.is_empty() {
                return Ok(StepOutcome::Done);
            }
            return Err(RunError::Timeout { cycles: self.cycle });
        }
        // Barrier maintenance runs only while some thread is parked. A
        // released warp resumes no earlier than `cycle + 1`, so releasing
        // before the pick never changes this step's pick (and a blocked
        // step that released leaves nothing for the retry to release).
        if !self.parked.is_empty() {
            self.release_barriers();
        }
        match self.pick() {
            Some(w) => {
                let sel = self.selection(w)?;
                if ahead && !self.local_at(sel.pc) {
                    return Ok(StepOutcome::Blocked);
                }
                self.rr = (w + 1) % self.warps.len();
                let pre_suppressed = self.suppressed.len();
                self.issue_with(w, sel)?;
                self.refile(w);
                self.block_run(w, sel, pre_suppressed, max_cycles, turn_until)?;
            }
            None if ahead && self.live.is_empty() => return Ok(StepOutcome::Blocked),
            None if self.live.is_empty() => {
                if self.parked.is_empty() {
                    return Ok(StepOutcome::Done);
                }
                // Only barrier-blocked warps remain and the release pass
                // freed none: deadlock.
                debug_assert!(self
                    .warps
                    .iter()
                    .all(|w| w.done_fast() || w.blocked_at_barrier_fast()));
                return Err(RunError::Deadlock {
                    cycles: self.cycle,
                    blocked_warps: self.parked.len(),
                });
            }
            None => {
                // Advance time to the next resume point.
                let t = self.next_wake;
                debug_assert_eq!(
                    Some(t),
                    self.warps.iter().filter(|w| w.runnable > 0).map(|w| w.ready_at).min(),
                    "next_wake diverged from the earliest resume point"
                );
                debug_assert!(t > self.cycle);
                self.stats.stalls.idle += t - self.cycle;
                self.emit_stall(NO_WARP, StallCause::Idle, t - self.cycle);
                self.cycle = t;
            }
        }
        Ok(StepOutcome::Progress)
    }

    /// Is issuing at `pc` local to this SM? The op must need no
    /// memory-stage probe (so it is not a load, store, `CLC`, `CSC` or
    /// AMO) and neither register file may spill or fill, as spill traffic
    /// drives the DRAM timing model. Conservative: an unmapped or
    /// undecodable PC counts as not local.
    fn local_at(&self, pc: u32) -> bool {
        match pc_index(pc).and_then(|i| self.rom.ops.get(i)) {
            Some(Some(op)) => self.is_local(op),
            _ => false,
        }
    }

    /// [`Sm::local_at`] for a decoded op.
    fn is_local(&self, op: &MicroOp) -> bool {
        op.plan == TrapPlan::empty()
            && self.data_rf.spill_free_issue()
            && self.meta_rf.as_ref().is_none_or(|m| m.spill_free_issue())
    }

    /// The warp the round-robin pick takes this cycle: the first ready
    /// warp at or after the round-robin pointer.
    fn pick(&mut self) -> Option<usize> {
        if self.cycle >= self.next_wake {
            self.refresh_ready();
        }
        let picked = self.ready.first_from(self.rr);
        debug_assert_eq!(
            picked,
            (0..self.warps.len())
                .map(|i| (self.rr + i) % self.warps.len())
                .find(|&w| self.pickable(w)),
            "the ready-set pick diverged from the round-robin scan"
        );
        picked
    }

    /// Move every live warp whose `ready_at` has passed into `ready` and
    /// recompute `next_wake` over the rest.
    fn refresh_ready(&mut self) {
        let mut wake = u64::MAX;
        for (i, (&live, ready)) in self.live.words.iter().zip(&mut self.ready.words).enumerate() {
            let mut waiting = live & !*ready;
            while waiting != 0 {
                let b = waiting.trailing_zeros();
                let t = self.warps[i * 64 + b as usize].ready_at;
                if t <= self.cycle {
                    *ready |= 1 << b;
                } else {
                    wake = wake.min(t);
                }
                waiting &= waiting - 1;
            }
        }
        self.next_wake = wake;
    }

    /// Re-file warp `w` in the ready set after it issued or was released
    /// from a barrier (the only two events that change a warp's status or
    /// `ready_at`).
    fn refile(&mut self, w: usize) {
        let warp = &self.warps[w];
        let live = warp.runnable > 0;
        let ready = live && warp.ready_at <= self.cycle;
        if live && !ready {
            self.next_wake = self.next_wake.min(warp.ready_at);
        }
        self.parked.set(w, warp.parked > 0);
        self.live.set(w, live);
        self.ready.set(w, ready);
    }

    /// The O(n) oracle behind the ready set: would the round-robin scan
    /// take warp `w` this cycle? A runnable thread implies the warp is
    /// neither done nor barrier-blocked and that `select()` returns a
    /// selection, so the whole four-part test collapses to two reads.
    fn pickable(&self, w: usize) -> bool {
        let warp = &self.warps[w];
        debug_assert_eq!(
            warp.runnable > 0,
            !warp.done() && !warp.blocked_at_barrier() && warp.select().is_some()
        );
        warp.runnable > 0 && warp.ready_at <= self.cycle
    }

    /// Retire the rest of warp `w`'s straight-line run (see the module
    /// docs). `sel` is the selection just issued and `pre_suppressed` the
    /// suppressed-trap count from before that issue.
    fn block_run(
        &mut self,
        w: usize,
        mut sel: Selection,
        mut pre_suppressed: usize,
        max_cycles: u64,
        turn_until: u64,
    ) -> Result<(), RunError> {
        loop {
            // A suppressed trap abandoned the issue without advancing the
            // PCs, so the incremented selection would be wrong.
            if self.suppressed.len() != pre_suppressed {
                return Ok(());
            }
            let Some(idx) = pc_index(sel.pc) else { return Ok(()) };
            let ops = &self.rom.ops;
            let straight = match ops.get(idx) {
                Some(Some(op)) => op.straight,
                _ => false,
            };
            if !straight {
                return Ok(());
            }
            let next = match ops.get(idx + 1) {
                Some(Some(next)) if !next.leader => *next,
                _ => return Ok(()),
            };
            // Convergence: the selection must have covered every runnable
            // lane (select() only ever picks runnable lanes, so equal
            // counts mean equal sets).
            if self.cycle >= max_cycles || sel.mask.count_ones() != self.warps[w].runnable {
                return Ok(());
            }
            if self.cycle >= self.next_wake {
                self.refresh_ready();
            }
            let only_w = self.ready.is_only(w);
            debug_assert_eq!(
                only_w,
                (0..self.warps.len()).all(|o| self.pickable(o) == (o == w)),
                "the ready set diverged from the pickable warps"
            );
            if !only_w || (self.cycle >= turn_until && !self.is_local(&next)) {
                return Ok(());
            }
            sel = Selection { mask: sel.mask, pc: sel.pc.wrapping_add(4), pcc_meta: sel.pcc_meta };
            debug_assert_eq!(self.warps[w].select(), Some(sel));
            pre_suppressed = self.suppressed.len();
            self.issue_with(w, sel)?;
            self.refile(w);
        }
    }

    /// Release barriers: a block whose live warps are all blocked at the
    /// barrier resumes as a unit. Only blocks holding a parked warp are
    /// visited, in ascending order.
    pub(crate) fn release_barriers(&mut self) {
        let per_block = self.block_warps as usize;
        let n = self.warps.len();
        let mut from = 0;
        while let Some(p) = self.parked.next_from(from) {
            let b = p - p % per_block;
            let group = b..(b + per_block).min(n);
            from = group.end;
            let any_blocked = group.clone().any(|w| self.warps[w].blocked_at_barrier_fast());
            let all_parked = group
                .clone()
                .all(|w| self.warps[w].done_fast() || self.warps[w].blocked_at_barrier_fast());
            if !(any_blocked && all_parked) {
                continue;
            }
            for w in group {
                let released = {
                    let warp = &mut self.warps[w];
                    let mut released = false;
                    for i in 0..warp.lanes() as usize {
                        if warp.status[i] == ThreadStatus::AtBarrier {
                            warp.set_status(i, ThreadStatus::Active);
                            released = true;
                        }
                    }
                    warp.ready_at = warp.ready_at.max(self.cycle + 1);
                    released
                };
                self.refile(w);
                if released {
                    if let Some(sink) = self.sink.as_deref_mut() {
                        sink.emit(TraceEvent::Barrier {
                            cycle: self.cycle,
                            warp: w as u32,
                            release: true,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::WarpSet;
    use crate::pipeline::StepOutcome;
    use crate::sm::Sm;
    use crate::trap::RunError;
    use crate::warp::ThreadStatus;
    use crate::{CheriMode, SmConfig};
    use simt_isa::asm::Assembler;
    use simt_isa::{csr, AluOp, Instr, MulOp, Reg};

    /// The warp counts the ready set is tested at: one warp, one partial
    /// word, one full word, and more than one word.
    const WARP_COUNTS: [u32; 4] = [1, 8, 64, 96];

    fn has(set: &WarpSet, w: usize) -> bool {
        set.next_from(w) == Some(w)
    }

    /// The set pick is the round-robin scan: for every start, the first
    /// member at or after it, wrapping around.
    #[test]
    fn warp_set_pick_is_the_round_robin_scan() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for n in WARP_COUNTS {
            let n_us = n as usize;
            let mut set = WarpSet::new(n);
            set.fill();
            assert_eq!(set.len(), n, "fill covers exactly the {n} warps");
            for _ in 0..16 {
                let mut members = vec![false; n_us];
                set.clear();
                for (w, m) in members.iter_mut().enumerate() {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *m = seed >> 61 == 0; // about one warp in eight
                    set.set(w, *m);
                }
                assert_eq!(set.len(), members.iter().filter(|&&m| m).count() as u32);
                assert_eq!(set.is_empty(), !members.contains(&true));
                for start in 0..n_us {
                    let scan = (0..n_us).map(|i| (start + i) % n_us).find(|&w| members[w]);
                    assert_eq!(set.first_from(start), scan, "n={n} start={start}");
                    let only = members.iter().enumerate().all(|(w, &m)| m == (w == start));
                    assert_eq!(set.is_only(start), only, "n={n} w={start}");
                }
            }
        }
    }

    /// Every warp runs a warp-dependent number of divides (each parks it
    /// for the divider latency), then a block barrier, then one more
    /// divide. Stepping through it checks the ready set against the warp
    /// state after every step: the wake time, the pick and barrier
    /// release.
    fn wake_and_barrier_sm(warps: u32) -> Sm {
        let lanes = 2;
        let mut a = Assembler::new();
        let (lp, out) = (a.label(), a.label());
        a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
        a.push(Instr::OpImm { op: AluOp::Srl, rd: Reg::A1, rs1: Reg::A0, imm: 1 });
        a.push(Instr::OpImm { op: AluOp::And, rd: Reg::A1, rs1: Reg::A1, imm: 3 });
        a.li(Reg::A2, 7);
        a.bind(lp);
        a.beqz(Reg::A1, out);
        a.push(Instr::MulDiv { op: MulOp::Divu, rd: Reg::A3, rs1: Reg::A2, rs2: Reg::A1 });
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, imm: -1 });
        a.jump(lp);
        a.bind(out);
        a.barrier();
        a.push(Instr::MulDiv { op: MulOp::Divu, rd: Reg::A3, rs1: Reg::A2, rs2: Reg::A2 });
        a.terminate();
        let mut cfg = SmConfig::with_geometry(warps, lanes, CheriMode::Off);
        // Longer than a round of issues at every warp count, so the SM
        // runs out of ready warps and has to wait.
        cfg.timing.div_latency = 400;
        let mut sm = Sm::new(cfg);
        sm.load_program(&a.assemble());
        sm.set_block_warps(warps.min(4));
        sm.reset();
        sm
    }

    /// The sets against the warp state they summarise.
    fn check_sets(sm: &Sm) {
        let mut wake = u64::MAX;
        for (w, warp) in sm.warps.iter().enumerate() {
            let live = warp.runnable > 0;
            assert_eq!(has(&sm.live, w), live, "live warp {w}");
            assert_eq!(has(&sm.parked, w), warp.parked > 0, "parked warp {w}");
            if sm.cycle < sm.next_wake {
                assert_eq!(has(&sm.ready, w), live && warp.ready_at <= sm.cycle, "ready {w}");
            }
            if live && !has(&sm.ready, w) {
                wake = wake.min(warp.ready_at);
            }
        }
        assert_eq!(sm.next_wake, wake, "next_wake is the earliest waiting warp");
    }

    #[test]
    fn ready_set_tracks_wakes_picks_and_barrier_releases() {
        for warps in WARP_COUNTS {
            let mut sm = wake_and_barrier_sm(warps);
            check_sets(&sm);
            let (mut waits, mut releases) = (0, 0);
            loop {
                let (cycle, parked) = (sm.cycle, sm.parked.len());
                let idle = sm.stats.stalls.idle;
                let outcome = sm.step(1_000_000, u64::MAX).expect("the kernel runs clean");
                check_sets(&sm);
                if outcome == StepOutcome::Done {
                    break;
                }
                if sm.stats.stalls.idle > idle {
                    // A time advance lands exactly on the earliest wake.
                    waits += 1;
                    let earliest = sm.warps.iter().filter(|w| w.runnable > 0).map(|w| w.ready_at);
                    assert_eq!(earliest.min(), Some(sm.cycle), "warps={warps}: from {cycle}");
                }
                if sm.parked.len() < parked {
                    // Released warps wait until the next cycle.
                    releases += 1;
                    assert!(sm.next_wake <= cycle + 1 || !sm.ready.is_empty());
                }
            }
            assert!(sm.parked.is_empty() && sm.live.is_empty());
            assert!(waits > 0, "warps={warps}: some step advanced time to a wake");
            assert!(releases > 0, "warps={warps}: some step released a barrier");
            assert_eq!(sm.stats.barriers, u64::from(warps), "warps={warps}");
            // The stepped run is the run.
            let mut fresh = wake_and_barrier_sm(warps);
            let stats = fresh.run(1_000_000).expect("the kernel runs clean");
            assert_eq!(stats, sm.finalise(), "warps={warps}");
        }
    }

    /// Past its turn, a step that is not local is refused and changes
    /// nothing; a local one (here a time advance or an ALU issue) runs.
    #[test]
    fn steps_past_the_turn_are_local_or_blocked() {
        for warps in WARP_COUNTS {
            let mut sm = wake_and_barrier_sm(warps);
            // Cycle 0 is past a turn that ends at 0: the first op (CSRRS)
            // is local, so the SM may run ahead.
            assert_eq!(sm.step(1_000_000, 0).unwrap(), StepOutcome::Progress);
            // Run to the end without the turn: every remaining step is local
            // except the final "done", which must wait for the turn.
            let mut steps = 0;
            while sm.step(1_000_000, 0).unwrap() == StepOutcome::Progress {
                steps += 1;
            }
            assert!(steps > 0);
            assert!(sm.live.is_empty(), "only the end of the run waits");
            let before = (sm.cycle, sm.stats.instrs);
            assert_eq!(sm.step(1_000_000, 0).unwrap(), StepOutcome::Blocked);
            assert_eq!((sm.cycle, sm.stats.instrs), before, "a blocked step does nothing");
            assert_eq!(sm.step(1_000_000, u64::MAX).unwrap(), StepOutcome::Done);
        }
    }

    /// A scheduler bug that picks a warp with no selectable thread must
    /// surface as a typed [`RunError::SchedulerInvariant`], not a process
    /// abort (the former `expect("issue() requires a selectable warp")`).
    #[test]
    fn issue_without_selectable_warp_is_a_typed_error() {
        let mut a = Assembler::new();
        a.terminate();
        let mut sm = Sm::new(SmConfig::small(CheriMode::Off));
        sm.load_program(&a.assemble());
        sm.reset();
        // Simulate the bug: every thread of warp 0 finished, yet the warp
        // is handed to issue() anyway.
        for lane in 0..sm.warps[0].lanes() as usize {
            sm.warps[0].set_status(lane, ThreadStatus::Terminated);
        }
        match sm.selection(0) {
            Err(RunError::SchedulerInvariant { warp: 0, .. }) => {}
            other => panic!("expected SchedulerInvariant, got {other:?}"),
        }
    }
}
