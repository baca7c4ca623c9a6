//! CHERI trap probes shared by the fault-injection tests and the
//! golden-digest table: a 1-warp SM with a resident victim capability,
//! and one probe kernel per [`CapException`] that loads the (sabotaged)
//! victim and faults on its first use.

use cheri_cap::{CapException, CapPipe, Perms};
use cheri_simt::trace::EventSink;
use cheri_simt::{CheriMode, CheriOpts, KernelStats, RunError, Sm, SmConfig, TrapPolicy};
use simt_isa::asm::Assembler;
use simt_isa::{scr, Instr, LoadWidth, Reg, StoreWidth};
use simt_mem::{map, FaultInjector, MainMemory};

pub const MAX: u64 = 1_000_000;
pub const LANES: u32 = 4;
/// Where the probes park their sabotage victim.
pub const VICTIM: u32 = map::DRAM_BASE + 0x400;

/// A 1-warp SM with an almighty data capability in `GLOBAL`, `arg` in
/// `ARG`, and a full-perms victim capability resident at `VICTIM`;
/// `sink` (if any) is attached before reset so its stream covers the whole
/// launch, and `setup` mutates memory after reset, like the GPU pre-launch
/// hook.
pub fn probe_sm(
    prog: Vec<u32>,
    arg: CapPipe,
    policy: TrapPolicy,
    sink: Option<Box<dyn EventSink>>,
    setup: impl FnOnce(&mut MainMemory),
) -> (Sm, Result<KernelStats, RunError>) {
    let mut cfg = SmConfig::with_geometry(1, LANES, CheriMode::On(CheriOpts::optimised()));
    cfg.trap_policy = policy;
    let mut sm = Sm::new(cfg);
    sm.load_program(&prog);
    sm.set_scr(scr::ARG, arg.to_mem());
    sm.set_scr(scr::GLOBAL, CapPipe::almighty().and_perm(Perms::data()).to_mem());
    let victim = CapPipe::almighty().set_addr(VICTIM).set_bounds(256).0;
    sm.memory_mut().write_cap(VICTIM, victim.to_mem()).expect("victim slot is mapped");
    if let Some(sink) = sink {
        sm.set_sink(sink);
    }
    sm.reset();
    setup(sm.memory_mut());
    let r = sm.run(MAX);
    (sm, r)
}

/// Run the probe kernel of `target` against a victim sabotaged (with a
/// per-target seed) to raise exactly that exception.
pub fn sabotaged_probe(
    target: CapException,
    policy: TrapPolicy,
    sink: Option<Box<dyn EventSink>>,
) -> (Sm, Result<KernelStats, RunError>) {
    let (prog, _) = probe_program(target);
    probe_sm(prog, arg_cap(), policy, sink, |m| {
        FaultInjector::new(0xFA07 + target as u64).sabotage(m, VICTIM, target);
    })
}

/// Load the (sabotaged) victim capability into `A0` through `GLOBAL`.
fn load_victim(a: &mut Assembler) {
    a.push(Instr::CSpecialRw { cd: Reg::T0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T1, VICTIM);
    a.push(Instr::CSetAddr { cd: Reg::T0, cs1: Reg::T0, rs2: Reg::T1 });
    a.push(Instr::Clc { cd: Reg::A0, cs1: Reg::T0, off: 0 });
}

/// The per-target probe kernel: the prologue loads the (sabotaged) victim
/// capability, then one target-specific use of it faults. Returns the
/// program and the index of the faulting instruction.
pub fn probe_program(target: CapException) -> (Vec<u32>, usize) {
    let mut a = Assembler::new();
    load_victim(&mut a);
    let fault_idx = match target {
        CapException::PermitStoreViolation => {
            let i = a.len();
            a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::ZERO, rs1: Reg::A0, off: 0 });
            i
        }
        CapException::PermitStoreCapViolation => {
            let i = a.len();
            a.push(Instr::Csc { cs2: Reg::A0, cs1: Reg::A0, off: 0 });
            i
        }
        CapException::PermitExecuteViolation => {
            let i = a.len();
            a.push(Instr::Jalr { rd: Reg::ZERO, rs1: Reg::A0, off: 0 });
            i
        }
        CapException::PermitLoadCapViolation | CapException::AlignmentViolation => {
            let i = a.len();
            a.push(Instr::Clc { cd: Reg::A1, cs1: Reg::A0, off: 0 });
            i
        }
        CapException::InexactBounds => {
            a.li(Reg::A2, 1 << 20);
            let i = a.len();
            a.push(Instr::CSetBoundsExact { cd: Reg::A1, cs1: Reg::A0, rs2: Reg::A2 });
            i
        }
        _ => {
            let i = a.len();
            a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
            i
        }
    };
    a.terminate();
    (a.assemble(), fault_idx)
}

/// The `ARG` capability of the per-exception probes: a data capability
/// over the victim's 256 bytes.
pub fn arg_cap() -> CapPipe {
    CapPipe::almighty().and_perm(Perms::data()).set_addr(VICTIM).set_bounds(256).0
}
