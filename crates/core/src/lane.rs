//! Lane-generic `f64` arithmetic: one kernel body, run at the widest
//! vector width the CPU has.
//!
//! A [`Lane`] is `N` independent `f64` values that move through a kernel
//! side by side — for BT's and SP's sweeps, `N` adjacent grid lines of a
//! plane. A body written over `L: Lane` and handed to [`dispatch`] runs
//! as `F64x4` (one AVX register a value) where `avx2` is detected and as
//! plain `f64` (`N = 1`) everywhere else; there is no other switch.
//!
//! Results cannot depend on which one ran: the only lane operations are
//! lane-wise IEEE-754 `+ − × ÷` and negation, which round each lane
//! exactly as the scalar operator does; `avx2` is enabled without `fma`,
//! so no multiply-add is contracted; and no operation reads across
//! lanes, so nothing is reassociated or reduced. Each lane executes the
//! scalar operation sequence, bit for bit.
//!
//! # When a kernel belongs here, and when it does not
//!
//! Explicit lanes are for kernels whose independent axis is *strided*:
//! BT's grid lines sit a plane apart in memory, so no compiler will
//! gather four of them into a vector unless the body says so. SP's
//! scalar-pentadiagonal sweeps are the second customer of that shape,
//! over the same line geometry (`npb_cfd_common::lines`): four lines'
//! five `rhs` components are gathered once into a lane-major scratch,
//! eliminated there, and stored once, with the pointwise eigenvector
//! transforms done during that gather and store. Where the
//! independent axis is the contiguous one — MG's grid operators, one
//! output row from a handful of neighbour rows; the CFD right-hand side
//! of BT and SP, one row of flux and dissipation terms from the rows
//! beside, above and below it — the body is a plain elementwise loop
//! over slices and the loop vectorizer does the same job with no `Lane`
//! in sight (`npb_mg::ops`, `npb_cfd_common::rhs`). That route is exact for
//! the same three reasons: no build of this repository enables `fma`,
//! LLVM does not reassociate floating point without fast-math flags, and
//! an elementwise loop has no arithmetic across elements to reorder. It
//! vectorizes at the build's baseline width (SSE2 on x86-64). Using
//! [`dispatch`] as a mere multiversioning point for such loops — a
//! [`Kernel`] that ignores `L`, so the same source is also compiled at
//! 256 bits — was measured on MG and not shipped: layout was the gain,
//! width a further 8–17 % on a kernel that is a quarter of one workload
//! (EXPERIMENTS.md, "Lane tier", MG section). The CFD right-hand side
//! was the second customer to size it and declined it too: compiled
//! whole at 256 bits its rows run 3 % slower at BT.W's and SP.W's
//! extents (22- and 34-point rows, a dozen load streams a kernel) and
//! 2–9 % faster at BT.A's — nothing that clears the parent's spread
//! (same file, CFD section).
//!
//! The third case sits between the two: an independent axis that is
//! strided in the array but cheap to make contiguous. A butterfly of FT's
//! transform wants the same element of many pencils at once, and along
//! dims 2 and 3 adjacent pencils stand side by side in memory, so
//! `npb_ft` copies sixteen adjacent pencils into a scratch whose inner
//! axis is the pencil index, transforms them there with explicit lanes,
//! and copies them back (`ft.f`'s `fftblock`). Explicit lanes rather than
//! the loop vectorizer: the `f64` instantiation of the same body — plain
//! loops over sixteen adjacent doubles, four to eight output runs of one
//! scratch buffer a pass — reads 8.6–9.3 Gflop/s in cache at the baseline
//! width against 20–22 (n ≤ 64) and 13–15 (n = 128, 256) at `F64x4`. The
//! copy is the price — about 40 % of the transform's time at class W,
//! more at A, running near memory bandwidth — and is what a kernel should
//! size first: it pays when the work between the copies is several
//! passes deep (FT: `log2 n` stages), not for a single sweep
//! (EXPERIMENTS.md, "Lane tier", FT section).

use std::ops::{Add, Div, Mul, Neg, Sub};

/// `N` `f64` values operated on lane-wise.
///
/// Every method on a hot path must stay `#[inline(always)]`: an `F64x4`
/// helper left out of line is compiled without AVX2 and each intrinsic
/// in it becomes a call (`scripts/ci.sh` greps the release binary for
/// such survivors).
pub trait Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Number of lanes.
    const N: usize;
    /// `v` in every lane.
    fn splat(v: f64) -> Self;
    /// Lane `l` is `f(l)`, called for `l = 0..N` in order.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// The value in lane `l < N`.
    fn lane(self, l: usize) -> f64;
}

impl Lane for f64 {
    const N: usize = 1;

    #[inline(always)]
    fn splat(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> f64 {
        f(0)
    }

    #[inline(always)]
    fn lane(self, l: usize) -> f64 {
        debug_assert_eq!(l, 0);
        self
    }
}

/// A computation written once over [`Lane`].
pub trait Kernel {
    /// Run at lane type `L`. Implementations must be `#[inline(always)]`,
    /// as must every generic helper they call with `L`, so the whole body
    /// lands inside the AVX2-enabled entry [`dispatch`] calls it from.
    fn run<L: Lane>(self);
}

/// Run `k` at the widest lane type this CPU supports.
pub fn dispatch<K: Kernel>(k: K) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` requires AVX2, which the
        // `is_x86_feature_detected!("avx2")` on the line above just found.
        return unsafe { x86::run_avx2(k) };
    }
    k.run::<f64>()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Kernel, Lane};
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_div_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setr_pd,
        _mm256_sub_pd, _mm256_xor_pd,
    };
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// Four `f64` lanes in one AVX register.
    ///
    /// Private to this module, so outside its own tests a value of this
    /// type exists only inside a [`Kernel::run`] that [`run_avx2`]
    /// instantiated — after [`super::dispatch`] detected `avx2`. Every
    /// `unsafe` intrinsic call below relies on exactly that: it is
    /// reachable only from that entry.
    #[derive(Clone, Copy)]
    pub(super) struct F64x4(__m256d);

    /// The `F64x4` instantiation of `k`, compiled with AVX2 (and not FMA:
    /// a contracted multiply-add would change result bits).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2<K: Kernel>(k: K) {
        k.run::<F64x4>()
    }

    impl Lane for F64x4 {
        const N: usize = 4;

        #[inline(always)]
        fn splat(v: f64) -> F64x4 {
            // SAFETY: AVX is available wherever an `F64x4` is (see the type).
            F64x4(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        fn from_fn(mut f: impl FnMut(usize) -> f64) -> F64x4 {
            let v = [f(0), f(1), f(2), f(3)];
            // SAFETY: AVX is available wherever an `F64x4` is (see the type).
            F64x4(unsafe { _mm256_setr_pd(v[0], v[1], v[2], v[3]) })
        }

        #[inline(always)]
        fn lane(self, l: usize) -> f64 {
            // SAFETY: `__m256d` is 32 bytes holding four `f64`, lane 0
            // lowest, and every bit pattern is a valid `[f64; 4]`.
            let v: [f64; 4] = unsafe { std::mem::transmute(self.0) };
            v[l]
        }
    }

    macro_rules! lanewise {
        ($($op:ident $method:ident $intrinsic:ident),*) => {$(
            impl $op for F64x4 {
                type Output = F64x4;
                #[inline(always)]
                fn $method(self, rhs: F64x4) -> F64x4 {
                    // SAFETY: AVX is available wherever an `F64x4` is (see
                    // the type).
                    F64x4(unsafe { $intrinsic(self.0, rhs.0) })
                }
            }
        )*};
    }
    lanewise!(
        Add add _mm256_add_pd,
        Sub sub _mm256_sub_pd,
        Mul mul _mm256_mul_pd,
        Div div _mm256_div_pd
    );

    impl Neg for F64x4 {
        type Output = F64x4;
        /// Flips the sign bit, as scalar negation does (`0.0 - x` would
        /// turn `+0.0` into `+0.0`, not `-0.0`).
        #[inline(always)]
        fn neg(self) -> F64x4 {
            // SAFETY: AVX is available wherever an `F64x4` is (see the type).
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Operands where a lane-wise op could plausibly part from the
        /// scalar one: signed zeros, subnormals, infinities, an inexact
        /// quotient, and magnitudes that overflow or underflow in pairs.
        const EDGE: [f64; 14] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.0 / 3.0,
            5e-324,
            -2.5e-310,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            1e-300,
            f64::MAX,
        ];

        fn same(got: f64, want: f64, what: &str) {
            // A NaN's payload may differ: the compiler is free to commute
            // the scalar operands.
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{what}: {got:e} ({:#x}) vs scalar {want:e} ({:#x})",
                got.to_bits(),
                want.to_bits()
            );
        }

        #[test]
        fn every_op_equals_the_scalar_op_per_lane() {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return;
            }
            let n = EDGE.len();
            // Lane l pairs EDGE[a0 + l] with EDGE[b0 + l]: a0 takes every
            // offset, so every ordered pair of operands meets, four
            // different pairs to a vector.
            for a0 in 0..n {
                for b0 in (0..n).step_by(4) {
                    let xs: [f64; 4] = std::array::from_fn(|l| EDGE[(a0 + l) % n]);
                    let ys: [f64; 4] = std::array::from_fn(|l| EDGE[(b0 + l) % n]);
                    let (x, y) = (F64x4::from_fn(|l| xs[l]), F64x4::from_fn(|l| ys[l]));
                    for l in 0..4 {
                        let (a, b) = (xs[l], ys[l]);
                        same((x + y).lane(l), a + b, "add");
                        same((x - y).lane(l), a - b, "sub");
                        same((x * y).lane(l), a * b, "mul");
                        same((x / y).lane(l), a / b, "div");
                        same((-x).lane(l), -a, "neg");
                    }
                }
            }
        }

        #[test]
        fn from_fn_lane_and_splat_round_trip() {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return;
            }
            let mut order = Vec::new();
            let v = F64x4::from_fn(|l| {
                order.push(l);
                EDGE[l + 4]
            });
            assert_eq!(order, [0, 1, 2, 3]);
            for l in 0..4 {
                assert_eq!(v.lane(l).to_bits(), EDGE[l + 4].to_bits());
                assert_eq!(F64x4::splat(-0.0).lane(l).to_bits(), (-0.0f64).to_bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes which width ran, and a value computed through every op.
    struct Probe<'a>(&'a mut (usize, f64));

    impl Kernel for Probe<'_> {
        #[inline(always)]
        fn run<L: Lane>(self) {
            let x = L::from_fn(|l| 1.0 + l as f64);
            let y = -(x * x - L::splat(3.0)) / (x + L::splat(0.5));
            *self.0 = (L::N, y.lane(L::N - 1));
        }
    }

    #[test]
    fn dispatch_runs_the_kernel_once_at_a_supported_width() {
        let mut out = (0, 0.0);
        dispatch(Probe(&mut out));
        let x = out.0 as f64;
        assert!(out.0 == 1 || out.0 == 4, "ran at N = {}", out.0);
        assert_eq!(out.1.to_bits(), (-(x * x - 3.0) / (x + 0.5)).to_bits());
    }

    #[test]
    fn scalar_lane_is_the_identity() {
        assert_eq!(<f64 as Lane>::N, 1);
        assert_eq!(f64::splat(2.5), 2.5);
        assert_eq!(f64::from_fn(|l| l as f64 + 7.0), 7.0);
        assert_eq!(2.5f64.lane(0), 2.5);
    }
}
