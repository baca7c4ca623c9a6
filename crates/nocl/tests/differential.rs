//! Differential testing: random kernels are run through every compilation
//! mode on the SM and compared against a direct interpreter of the kernel
//! IR. Any divergence — in the code generator, the SM's execute units, the
//! register-file compression, divergence handling, or the memory subsystem
//! — shows up as a mismatch.
//!
//! The kernel generator lives in [`kirgen`] (shared with the golden-digest
//! table in `crates/bench/tests/golden_digests.rs`).

use cheri_simt::{CheriMode, CheriOpts, SmConfig};
use nocl::{Gpu, Launch};
use nocl_kir::{BinOp, CmpOp, Expr, Kernel, Mode, Stmt, UnOp};
use sim_prng::Prng;

mod kirgen;
use kirgen::{make_kernel, stmts, N_IN, N_LOOPVARS, N_VARS, THREADS};

const CASES: usize = 96;

// ---------------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------------

struct Interp<'a> {
    scalar: u32,
    input: &'a [u32],
    tid: u32,
    vars: [u32; N_VARS + N_LOOPVARS],
    /// Fuel guards against generated infinite loops (the generator only
    /// emits bounded loops, but belt and braces).
    fuel: u64,
}

impl Interp<'_> {
    fn eval(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Int(v, _) => *v as u32,
            Expr::Special(nocl_kir::Special::ThreadIdx) => self.tid,
            Expr::Special(_) => unreachable!("generator emits only ThreadIdx"),
            Expr::Param(0, _) => self.scalar,
            Expr::Var(i, _) => self.vars[*i],
            Expr::Un(UnOp::Not, a) => !self.eval(a),
            Expr::Load(_, idx) => {
                let i = self.eval(idx);
                self.input[i as usize]
            }
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.eval(a), self.eval(b));
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => x.checked_div(y).unwrap_or(u32::MAX),
                    BinOp::Rem => x.checked_rem(y).unwrap_or(x),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => x.wrapping_shl(y & 31),
                    BinOp::Shr => x.wrapping_shr(y & 31),
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Cmp(c) => {
                        let r = match c {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        };
                        r as u32
                    }
                }
            }
            other => unreachable!("generator does not emit {other:?}"),
        }
    }

    fn run(&mut self, body: &[Stmt]) {
        for s in body {
            self.fuel = self.fuel.saturating_sub(1);
            if self.fuel == 0 {
                panic!("interpreter out of fuel");
            }
            match s {
                Stmt::Assign(v, e) => self.vars[*v] = self.eval(e),
                Stmt::If { cond, then_, else_ } => {
                    if self.eval(cond) != 0 {
                        self.run(then_);
                    } else {
                        self.run(else_);
                    }
                }
                Stmt::While { cond, body } => {
                    while self.eval(cond) != 0 {
                        self.fuel = self.fuel.saturating_sub(1);
                        if self.fuel == 0 {
                            panic!("interpreter out of fuel");
                        }
                        self.run(body);
                    }
                }
                Stmt::Store { .. } => {} // only the final store, handled below
                other => unreachable!("generator does not emit {other:?}"),
            }
        }
    }
}

fn reference(kernel_body: &[Stmt], scalar: u32, input: &[u32]) -> Vec<u32> {
    (0..THREADS)
        .map(|tid| {
            let mut it = Interp {
                scalar,
                input,
                tid,
                vars: [tid, tid * 2, tid * 3, 0, 0, 0],
                fuel: 1_000_000,
            };
            // Skip the 3 seeding assigns (vars pre-seeded above) and the
            // final store; run everything in between.
            let inner = &kernel_body[N_VARS..kernel_body.len() - 1];
            it.run(inner);
            it.vars.iter().take(N_VARS).fold(0, |a, b| a ^ b)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The differential property
// ---------------------------------------------------------------------------

fn run_mode(kernel: &Kernel, mode: Mode, scalar: u32, input: &[u32]) -> Vec<u32> {
    let cheri =
        if mode.needs_cheri() { CheriMode::On(CheriOpts::optimised()) } else { CheriMode::Off };
    let mut gpu = Gpu::new(SmConfig::small(cheri), mode);
    let d_in = gpu.alloc_from(input);
    let d_out = gpu.alloc::<u32>(THREADS);
    gpu.launch(kernel, Launch::new(1, THREADS), &[scalar.into(), (&d_in).into(), (&d_out).into()])
        .unwrap_or_else(|e| panic!("{mode:?}: {e}\nkernel: {:#?}", kernel.body));
    gpu.read(&d_out)
}

#[test]
fn all_modes_match_the_interpreter() {
    let mut r = Prng::seed_from_u64(0xD1FF_0001);
    for case in 0..CASES {
        let body = stmts(&mut r, 2);
        let scalar = r.range_u32(0, 100);
        let seed = r.next_u64();
        let input: Vec<u32> = (0..N_IN as u64)
            .map(|i| {
                (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 0x5851_F42D) >> 13)
                    as u32
            })
            .collect();
        let kernel = make_kernel(body);
        let want = reference(&kernel.body, scalar, &input);
        for mode in [Mode::Baseline, Mode::PureCap, Mode::RustChecked, Mode::RustFull] {
            let got = run_mode(&kernel, mode, scalar, &input);
            assert_eq!(
                got, want,
                "case {case}: mode {mode:?} diverged from the interpreter\nkernel: {:#?}",
                kernel.body
            );
        }
    }
}
