//! The one evaluation helper behind every op-class handler.
//!
//! A handler reads its operands in compact form ([`OperandVec`]) and hands
//! them, with a per-lane function, to [`Eval`], which computes the result
//! in the cheapest exact way the operands allow:
//!
//! * **uniform∘uniform** — every operand is warp-uniform: one evaluation
//!   stands for every lane;
//! * **affine** — the op is linear in its affine operands (the caller
//!   passes the verdict of [`super::classify::alu_scalarises`] /
//!   [`super::classify::muldiv_scalarises`], the single source of truth):
//!   the result of a linear operation over affine lanes is itself affine,
//!   so lanes 0 and 1 determine base and stride exactly (modulo 2³², like
//!   the register-file compressor's comparators);
//! * anything else — one evaluation per active lane over the loaned
//!   [`crate::sm::LaneBufs`] scratch (compact operands expanded into its
//!   spare arrays first, so the loop indexes plain lanes), returned as a
//!   `Vector` borrowing it.
//!
//! "Scalarised" is therefore a property of the operands, not a second
//! implementation. An issue the classifier marked
//! [`simt_trace::IssueClass::Scalarised`] must be served by one of the
//! first two cases; the per-lane branch asserts it (debug builds).

use super::active_lanes;
use crate::sm::Spare;
use simt_regfile::OperandVec;

/// How one issue evaluates: which lanes are active, whether the issue
/// classifier scalarised it, and where compact operands expand on the
/// per-lane branch.
#[derive(Debug)]
pub(crate) struct Eval<'x> {
    mask: u64,
    lanes: usize,
    scalarised: bool,
    spare: &'x mut Spare,
}

impl<'x> Eval<'x> {
    pub(crate) fn new(mask: u64, lanes: u32, scalarised: bool, spare: &'x mut Spare) -> Self {
        Eval { mask, lanes: lanes as usize, scalarised, spare }
    }

    /// The active lanes, in ascending order.
    pub(crate) fn active(&self) -> impl Iterator<Item = usize> {
        active_lanes(self.mask, self.lanes)
    }

    /// Evaluate `f` over `N` operands (see the module docs for the three
    /// cases). `affine` licenses two-lane sampling when some operand is
    /// affine; a per-lane result lands in `out`.
    pub(crate) fn eval<'r, const N: usize>(
        &mut self,
        ops: [OperandVec<'_>; N],
        affine: bool,
        out: &'r mut [u64],
        f: impl Fn([u64; N]) -> u64,
    ) -> OperandVec<'r> {
        if let Some(x) = uniform(&ops) {
            return OperandVec::Uniform(f(x));
        }
        if affine {
            let sample = |i| f(ops.map(|o| o.lane(i))) as u32;
            let (r0, r1) = (sample(0), sample(1));
            let stride = r1.wrapping_sub(r0);
            // Linearity check: lane 2 must continue the sampled progression.
            debug_assert_eq!(
                sample(2),
                r0.wrapping_add(stride.wrapping_mul(2)),
                "non-linear operation sampled as affine"
            );
            return OperandVec::Affine { base: r0 as u64, stride: stride as i64 };
        }
        self.per_lane(ops, |i, x| out[i] = f(x));
        OperandVec::Vector(&out[..self.lanes])
    }

    /// [`Eval::eval`] for capability results: `f` returns the `(data,
    /// metadata)` pair. Uniform operands evaluate once, anything else lane
    /// by lane into `out`/`out_meta`.
    pub(crate) fn eval_cap<'r, const N: usize>(
        &mut self,
        ops: [OperandVec<'_>; N],
        out: &'r mut [u64],
        out_meta: &'r mut [u64],
        f: impl Fn([u64; N]) -> (u64, u64),
    ) -> (OperandVec<'r>, OperandVec<'r>) {
        if let Some(x) = uniform(&ops) {
            let (d, m) = f(x);
            return (OperandVec::Uniform(d), OperandVec::Uniform(m));
        }
        self.per_lane(ops, |i, x| (out[i], out_meta[i]) = f(x));
        (OperandVec::Vector(&out[..self.lanes]), OperandVec::Vector(&out_meta[..self.lanes]))
    }

    /// The per-lane branch: `g(lane, operand values)` for every active lane.
    fn per_lane<const N: usize>(
        &mut self,
        ops: [OperandVec<'_>; N],
        mut g: impl FnMut(usize, [u64; N]),
    ) {
        debug_assert!(!self.scalarised, "a scalarised issue reached the per-lane branch");
        let Eval { mask, lanes: n, ref mut spare, .. } = *self;
        let mut spare = spare.iter_mut();
        let cols = ops.map(|o| lanes(o, spare.next().expect("a spare array per operand"), n));
        for i in active_lanes(mask, n) {
            g(i, cols.map(|c| c[i]));
        }
    }
}

/// The first `n` lanes of `v` as one slice: a `Vector` as it is, a compact
/// operand expanded into `spare`, so per-lane loops index plain lanes
/// instead of matching on the representation per lane.
pub(crate) fn lanes<'s>(v: OperandVec<'s>, spare: &'s mut [u64], n: usize) -> &'s [u64] {
    match v {
        OperandVec::Vector(l) => &l[..n],
        c => {
            c.expand_into(&mut spare[..n]);
            &spare[..n]
        }
    }
}

/// The operand values if every operand is warp-uniform.
fn uniform<const N: usize>(ops: &[OperandVec<'_>; N]) -> Option<[u64; N]> {
    let mut x = [0; N];
    for (v, o) in x.iter_mut().zip(ops) {
        match *o {
            OperandVec::Uniform(u) => *v = u,
            _ => return None,
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_regfile::MAX_LANES;

    fn ev(mask: u64, scalarised: bool, spare: &mut Spare) -> Eval<'_> {
        Eval::new(mask, 8, scalarised, spare)
    }

    fn add([x, y]: [u64; 2]) -> u64 {
        (x as u32).wrapping_add(y as u32) as u64
    }

    #[test]
    fn uniform_fold() {
        let mut out = [0u64; 8];
        let mut spare = [[0u64; MAX_LANES]; 4];
        let r = ev(u64::MAX, true, &mut spare).eval(
            [OperandVec::Uniform(7), OperandVec::Uniform(5)],
            true,
            &mut out,
            add,
        );
        assert_eq!(r, OperandVec::Uniform(12));
    }

    #[test]
    fn affine_sampling_matches_per_lane() {
        let a = OperandVec::Affine { base: 100, stride: 4 };
        let b = OperandVec::Uniform(0xffff_fff0); // -16 mod 2^32
        let mut out = [0u64; 8];
        let mut spare = [[0u64; MAX_LANES]; 4];
        let r = ev(u64::MAX, true, &mut spare).eval([a, b], true, &mut out, add);
        let mut got = [0u64; 8];
        r.expand_into(&mut got);
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v as u32, (100 + 4 * i as u32).wrapping_add(0xffff_fff0));
        }
    }

    #[test]
    fn shift_by_uniform_stays_affine() {
        let a = OperandVec::Affine { base: 3, stride: -2 };
        let mut out = [0u64; 8];
        let mut spare = [[0u64; MAX_LANES]; 4];
        let r = ev(u64::MAX, true, &mut spare).eval(
            [a, OperandVec::Uniform(4)],
            true,
            &mut out,
            |[x, y]| ((x as u32) << (y & 31)) as u64,
        );
        let mut got = [0u64; 4];
        r.expand_into(&mut got);
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v as u32, (3u32.wrapping_add((-2i32 as u32).wrapping_mul(i as u32))) << 4);
        }
    }

    #[test]
    fn vector_operands_evaluate_the_active_lanes() {
        let lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut out = [0u64; 8];
        let mut spare = [[0u64; MAX_LANES]; 4];
        let r = ev(0b1010_1010, false, &mut spare).eval(
            [OperandVec::Vector(&lanes), OperandVec::Uniform(10)],
            false,
            &mut out,
            add,
        );
        assert!(matches!(r, OperandVec::Vector(_)));
        for i in [1, 3, 5, 7] {
            assert_eq!(r.lane(i), lanes[i] + 10);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scalarised issue reached the per-lane branch")]
    fn scalarised_issue_must_not_go_per_lane() {
        let lanes = [0u64; 8];
        let mut out = [0u64; 8];
        let mut spare = [[0u64; MAX_LANES]; 4];
        ev(u64::MAX, true, &mut spare).eval(
            [OperandVec::Vector(&lanes), OperandVec::Uniform(1)],
            false,
            &mut out,
            add,
        );
    }
}
