//! The Swarztrauber/Stockham radix-2 complex FFT, ported from NPB's
//! `fft_init` / `cfftz` / `fftz2`, in `ft.f`'s blocked form.
//!
//! The Stockham autosort variant needs no bit-reversal pass: each of the
//! `log2 n` stages reads one buffer and writes the other in permuted
//! order. The roots-of-unity table is laid out exactly as `fft_init`
//! builds it (block of `2^(j-1)` roots per stage `j`, starting at index
//! `2^(j-1) + 1` with slot 0 unused), so a table built for the largest
//! dimension serves every smaller dimension too.
//!
//! Two bodies live here. [`cfftz`] is the one-pencil loop nest, kept as
//! the public reference the oracle tests and the benchmark's probe call.
//! What the 3-D transform runs is [`cfftz_block`]: [`BLOCK`] pencils side
//! by side in a split re/im scratch ([`BlockBuf`]), where element `e` of
//! pencil `j` sits at `x[e].re[j]`, `x[e].im[j]`. A butterfly then does
//! the same thing to sixteen adjacent doubles, so the pencil index is the
//! vector axis — the third case of `npb_core::lane`'s "when a kernel
//! belongs here": a strided independent axis made contiguous by a block
//! copy. Stages `l` and `l + 1` run as one pass with the intermediate in
//! registers; every element still sees the reference's operation
//! sequence, so the two bodies agree bit for bit.

use crate::complex::{self, c64, C64};
use npb_core::lane::Lane;
use npb_core::{ld, st};

/// Roots-of-unity table (NPB's `u` array).
#[derive(Debug, Clone)]
pub struct FftTable {
    u: Vec<C64>,
}

impl FftTable {
    /// Build the table for transforms of length up to `n` (power of two).
    pub fn new(n: usize) -> FftTable {
        assert!(n.is_power_of_two() && n >= 2, "FFT length {n} must be a power of two >= 2");
        let m = n.trailing_zeros();
        let mut u = complex::zeroed(n + 1);
        u[0] = c64(m as f64, 0.0);
        let mut ku = 1usize; // 0-based index of u(2)
        let mut ln = 1usize;
        for _j in 1..=m {
            let t = std::f64::consts::PI / ln as f64;
            for i in 0..ln {
                let ti = i as f64 * t;
                u[ku + i] = c64(ti.cos(), ti.sin());
            }
            ku += ln;
            ln *= 2;
        }
        FftTable { u }
    }

    /// Largest transform length this table supports.
    pub fn max_len(&self) -> usize {
        self.u.len() - 1
    }
}

/// One Stockham stage (`fftz2`): stage `l` of `m`, reading `x` and
/// writing `y`. `is >= 1` selects the forward transform, otherwise the
/// inverse (conjugated twiddles).
fn fftz2<const SAFE: bool>(is: i32, l: u32, m: u32, n: usize, u: &[C64], x: &[C64], y: &mut [C64]) {
    let n1 = n / 2;
    let lk = 1usize << (l - 1);
    let li = 1usize << (m - l);
    let lj = 2 * lk;
    let ku = li; // 0-based: Fortran ku = li + 1
    for i in 0..li {
        let i11 = i * lk;
        let i12 = i11 + n1;
        let i21 = i * lj;
        let i22 = i21 + lk;
        let u1 = if is >= 1 { ld::<_, SAFE>(u, ku + i) } else { ld::<_, SAFE>(u, ku + i).conj() };
        for k in 0..lk {
            let x11 = ld::<_, SAFE>(x, i11 + k);
            let x21 = ld::<_, SAFE>(x, i12 + k);
            st::<_, SAFE>(y, i21 + k, x11 + x21);
            st::<_, SAFE>(y, i22 + k, u1 * (x11 - x21));
        }
    }
}

/// Full 1-D transform (`cfftz`) of length `n` on `x`, using `y` as the
/// ping-pong buffer. The result ends in `x`. One pencil, one element at
/// a time: the reference [`cfftz_block`] is held to.
pub fn cfftz<const SAFE: bool>(is: i32, n: usize, table: &FftTable, x: &mut [C64], y: &mut [C64]) {
    debug_assert!(n.is_power_of_two() && n <= table.max_len());
    debug_assert!(x.len() >= n && y.len() >= n);
    let m = n.trailing_zeros();
    let u = &table.u;
    let mut l = 1u32;
    while l <= m {
        fftz2::<SAFE>(is, l, m, n, u, x, y);
        if l == m {
            x[..n].copy_from_slice(&y[..n]);
            return;
        }
        fftz2::<SAFE>(is, l + 1, m, n, u, y, x);
        l += 2;
    }
}

/// Pencils transformed side by side (`ft.f`'s `fftblock`). Sixteen is
/// four AVX2 vectors a butterfly operand: wide enough to amortize the
/// twiddle broadcast and the gather, and a 128-point block is still 64 KB.
pub const BLOCK: usize = 16;

/// One lane of a block per pencil.
pub type Row = [f64; BLOCK];

/// One element of every pencil of a block, real and imaginary parts
/// apart: `re[j]` is that element of pencil `j`.
#[derive(Clone, Copy)]
pub struct Elem {
    pub re: Row,
    pub im: Row,
}

/// The ping-pong pair [`cfftz_block`] works in. The block to transform
/// is put in `x` (element `e` of pencil `j` at `x[e].re[j]`, `x[e].im[j]`),
/// and the result is read from `x`.
pub struct BlockBuf {
    pub x: Vec<Elem>,
    y: Vec<Elem>,
}

impl BlockBuf {
    /// Room for transforms of length up to `maxdim`.
    pub fn new(maxdim: usize) -> BlockBuf {
        let zero = Elem { re: [0.0; BLOCK], im: [0.0; BLOCK] };
        BlockBuf { x: vec![zero; maxdim], y: vec![zero; maxdim] }
    }
}

/// Root `u`, conjugated for the inverse transform, in every lane.
#[inline(always)]
fn root<L: Lane>(u: C64, inv: bool) -> (L, L) {
    (L::splat(u.re), L::splat(if inv { -u.im } else { u.im }))
}

/// `u * d`, spelled as `C64::mul` spells it.
#[inline(always)]
fn cmul<L: Lane>((ur, ui): (L, L), (dr, di): (L, L)) -> (L, L) {
    (ur * dr - ui * di, ur * di + ui * dr)
}

/// Lanes `g * L::N ..` of element `e`.
#[inline(always)]
fn load<L: Lane>(e: &Elem, g: usize) -> (L, L) {
    (L::from_fn(|l| e.re[g * L::N + l]), L::from_fn(|l| e.im[g * L::N + l]))
}

#[inline(always)]
fn store<L: Lane>(e: &mut Elem, g: usize, (re, im): (L, L)) {
    for l in 0..L::N {
        e.re[g * L::N + l] = re.lane(l);
        e.im[g * L::N + l] = im.lane(l);
    }
}

/// The `lk` elements of `x` from `at`.
#[inline(always)]
fn run(x: &[Elem], at: usize, lk: usize) -> &[Elem] {
    &x[at..][..lk]
}

/// Stage `l` of `m` on a block: [`fftz2`] with an [`Elem`] for an element.
#[inline(always)]
fn radix2<L: Lane>(inv: bool, l: u32, m: u32, u: &[C64], x: &[Elem], y: &mut [Elem]) {
    let lk = 1usize << (l - 1);
    let li = 1usize << (m - l);
    for (i, y) in y.chunks_exact_mut(2 * lk).take(li).enumerate() {
        let u1 = root::<L>(u[li + i], inv);
        let (x1, x2) = (run(x, i * lk, lk), run(x, (li + i) * lk, lk));
        let (y1, y2) = y.split_at_mut(lk);
        for k in 0..lk {
            for g in 0..BLOCK / L::N {
                let (ar, ai) = load::<L>(&x1[k], g);
                let (br, bi) = load::<L>(&x2[k], g);
                store(&mut y1[k], g, (ar + br, ai + bi));
                store(&mut y2[k], g, cmul(u1, (ar - br, ai - bi)));
            }
        }
    }
}

/// Stages `l` and `l + 1` of `m` on a block, as one pass. Stage `l + 1`
/// pairs stage `l`'s outputs `i` and `i + li/2`, which come from inputs a
/// quarter, a half and three quarters of the way along: four loads, the
/// two stage-`l` butterflies, the two stage-`l + 1` butterflies on their
/// results, four stores — the operations of the two [`fftz2`] calls, the
/// intermediate never stored.
#[inline(always)]
fn radix4<L: Lane>(inv: bool, l: u32, m: u32, u: &[C64], x: &[Elem], y: &mut [Elem]) {
    let lk = 1usize << (l - 1);
    let li = 1usize << (m - l);
    let q = li / 2;
    for (i, y) in y.chunks_exact_mut(4 * lk).take(q).enumerate() {
        let (u1, u2) = (root::<L>(u[li + i], inv), root::<L>(u[li + q + i], inv));
        let u3 = root::<L>(u[q + i], inv);
        let (x0, x1) = (run(x, i * lk, lk), run(x, (q + i) * lk, lk));
        let (x2, x3) = (run(x, (2 * q + i) * lk, lk), run(x, (3 * q + i) * lk, lk));
        let (y01, y23) = y.split_at_mut(2 * lk);
        let ((y0, y1), (y2, y3)) = (y01.split_at_mut(lk), y23.split_at_mut(lk));
        for k in 0..lk {
            for g in 0..BLOCK / L::N {
                let (ar, ai) = load::<L>(&x0[k], g);
                let (br, bi) = load::<L>(&x1[k], g);
                let (cr, ci) = load::<L>(&x2[k], g);
                let (dr, di) = load::<L>(&x3[k], g);
                // Stage l: (a, c) at i, (b, d) at i + li/2.
                let (s0r, s0i) = (ar + cr, ai + ci);
                let (t0r, t0i) = cmul(u1, (ar - cr, ai - ci));
                let (s1r, s1i) = (br + dr, bi + di);
                let (t1r, t1i) = cmul(u2, (br - dr, bi - di));
                // Stage l + 1: the sums pair at k, the products at k + lk.
                store(&mut y0[k], g, (s0r + s1r, s0i + s1i));
                store(&mut y1[k], g, (t0r + t1r, t0i + t1i));
                store(&mut y2[k], g, cmul(u3, (s0r - s1r, s0i - s1i)));
                store(&mut y3[k], g, cmul(u3, (t0r - t1r, t0i - t1i)));
            }
        }
    }
}

/// [`cfftz`] on every pencil of the block in `buf.x` at once; the result
/// ends in `buf.x` (the halves swap after each pass, so nothing is copied
/// back). Pencils a block does not use are transformed along with the
/// rest and ignored by its owner.
#[inline(always)]
pub fn cfftz_block<L: Lane>(is: i32, n: usize, table: &FftTable, buf: &mut BlockBuf) {
    assert!(n.is_power_of_two() && n >= 2 && n <= table.max_len() && n <= buf.y.len());
    let m = n.trailing_zeros();
    let inv = is < 1;
    let mut l = 1u32;
    while l < m {
        radix4::<L>(inv, l, m, &table.u, &buf.x, &mut buf.y);
        std::mem::swap(&mut buf.x, &mut buf.y);
        l += 2;
    }
    if l == m {
        radix2::<L>(inv, l, m, &table.u, &buf.x, &mut buf.y);
        std::mem::swap(&mut buf.x, &mut buf.y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook O(n^2) DFT for cross-checking: X_k = sum_j x_j e^{+2πi jk/n}
    /// (NPB's forward sign convention is e^{+i...}; fft_init stores
    /// positive-sine roots).
    fn dft(x: &[C64], sign: f64) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = C64::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    s = s + v * c64(ang.cos(), ang.sin());
                }
                s
            })
            .collect()
    }

    fn sample(n: usize) -> Vec<C64> {
        (0..n).map(|i| c64((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos())).collect()
    }

    #[test]
    fn matches_reference_dft_all_sizes() {
        for n in [2usize, 4, 8, 16, 64, 128] {
            let table = FftTable::new(n);
            let x0 = sample(n);
            let mut x = x0.clone();
            let mut y = vec![C64::ZERO; n];
            cfftz::<true>(1, n, &table, &mut x, &mut y);
            let want = dft(&x0, 1.0);
            for k in 0..n {
                assert!(
                    (x[k].re - want[k].re).abs() < 1e-9 && (x[k].im - want[k].im).abs() < 1e-9,
                    "n={n} k={k}: {:?} vs {:?}",
                    x[k],
                    want[k]
                );
            }
        }
    }

    #[test]
    fn inverse_undoes_forward_up_to_n() {
        for n in [4usize, 32, 256] {
            let table = FftTable::new(n);
            let x0 = sample(n);
            let mut x = x0.clone();
            let mut y = vec![C64::ZERO; n];
            cfftz::<false>(1, n, &table, &mut x, &mut y);
            cfftz::<false>(-1, n, &table, &mut x, &mut y);
            for k in 0..n {
                let got = x[k].scale(1.0 / n as f64);
                assert!(
                    (got.re - x0[k].re).abs() < 1e-12 && (got.im - x0[k].im).abs() < 1e-12,
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let table = FftTable::new(n);
        let x0 = sample(n);
        let e0: f64 = x0.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        let mut x = x0;
        let mut y = vec![C64::ZERO; n];
        cfftz::<true>(1, n, &table, &mut x, &mut y);
        let e1: f64 = x.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        assert!((e1 / (n as f64) - e0).abs() < 1e-9 * e0, "{e0} vs {}", e1 / n as f64);
    }

    #[test]
    fn smaller_transform_reuses_large_table() {
        // The per-stage table layout must make a table for 512 usable for
        // a length-64 transform with identical results.
        let big = FftTable::new(512);
        let small = FftTable::new(64);
        let x0 = sample(64);
        let mut xa = x0.clone();
        let mut xb = x0;
        let mut y = vec![C64::ZERO; 64];
        cfftz::<true>(1, 64, &big, &mut xa, &mut y);
        cfftz::<true>(1, 64, &small, &mut xb, &mut y);
        assert_eq!(xa, xb);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 16;
        let table = FftTable::new(n);
        let mut x = vec![C64::ZERO; n];
        x[0] = c64(1.0, 0.0);
        let mut y = vec![C64::ZERO; n];
        cfftz::<true>(1, n, &table, &mut x, &mut y);
        for k in 0..n {
            assert!((x[k].re - 1.0).abs() < 1e-14 && x[k].im.abs() < 1e-14);
        }
    }
}

#[cfg(test)]
mod oracle {
    //! The block kernel against the one-pencil reference, bit for bit.
    //! Only an optimized build exercises the vector code
    //! (`cargo test --release -p npb-ft`, as `scripts/ci.sh` runs it).

    use super::*;
    use npb_core::lane::{self, Kernel};
    use npb_core::Randlc;

    /// [`cfftz_block`] as [`lane::dispatch`] runs it; notes the width.
    struct Dispatched<'a> {
        is: i32,
        n: usize,
        table: &'a FftTable,
        buf: &'a mut BlockBuf,
        lanes: &'a mut usize,
    }

    impl Kernel for Dispatched<'_> {
        #[inline(always)]
        fn run<L: Lane>(self) {
            *self.lanes = L::N;
            cfftz_block::<L>(self.is, self.n, self.table, self.buf);
        }
    }

    /// `live` seeded pencils in lanes `0..live`, NaN in the rest: a value
    /// that crossed lanes would poison a live result.
    fn fill(buf: &mut BlockBuf, rng: &mut Randlc, n: usize, live: usize) -> Vec<Vec<C64>> {
        let pencils: Vec<Vec<C64>> = (0..live)
            .map(|_| {
                (0..n).map(|_| c64(2.0 * rng.next_f64() - 1.0, rng.next_f64() - 0.5)).collect()
            })
            .collect();
        for (e, elem) in buf.x.iter_mut().enumerate().take(n) {
            (elem.re, elem.im) = ([f64::NAN; BLOCK], [f64::NAN; BLOCK]);
            for (j, p) in pencils.iter().enumerate() {
                (elem.re[j], elem.im[j]) = (p[e].re, p[e].im);
            }
        }
        pencils
    }

    #[test]
    fn block_kernel_equals_the_reference_pencil_by_pencil() {
        let table = FftTable::new(512);
        let mut buf = BlockBuf::new(512);
        let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
        let mut widths_run = Vec::new();
        for m in 1..=9u32 {
            let n = 1usize << m;
            for is in [1, -1] {
                for live in [1, 4, 5, BLOCK] {
                    for dispatched in [false, true] {
                        let pencils = fill(&mut buf, &mut rng, n, live);
                        if dispatched {
                            let mut lanes = 0;
                            let buf = &mut buf;
                            lane::dispatch(Dispatched {
                                is,
                                n,
                                table: &table,
                                buf,
                                lanes: &mut lanes,
                            });
                            widths_run.push(lanes);
                        } else {
                            cfftz_block::<f64>(is, n, &table, &mut buf);
                        }
                        for (j, mut want) in pencils.into_iter().enumerate() {
                            cfftz::<true>(is, n, &table, &mut want, &mut vec![C64::ZERO; n]);
                            for (e, w) in want.iter().enumerate() {
                                let got = (buf.x[e].re[j], buf.x[e].im[j]);
                                assert_eq!(
                                    (got.0.to_bits(), got.1.to_bits()),
                                    (w.re.to_bits(), w.im.to_bits()),
                                    "n {n} is {is} live {live} dispatched {dispatched}: \
                                     pencil {j} element {e}: {got:?} vs {w:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(widths_run.iter().all(|&w| w == widths_run[0] && (w == 1 || w == 4)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use npb_core::Randlc;

    /// Deterministic pseudo-random signal of length `2^m`, drawn from the
    /// NPB generator (values mapped into (-1, 1)).
    fn seeded_signal(rng: &mut Randlc, m: u32) -> Vec<C64> {
        (0..1usize << m)
            .map(|_| c64(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0))
            .collect()
    }

    /// Inverse(Forward(x)) == n * x for seeded signals of every
    /// power-of-two length up to 2^9.
    #[test]
    fn inverse_undoes_forward() {
        let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
        for m in 1..=9u32 {
            for _rep in 0..3 {
                let x0 = seeded_signal(&mut rng, m);
                let n = x0.len();
                let table = FftTable::new(n.max(2));
                let mut x = x0.clone();
                let mut y = vec![C64::ZERO; n];
                cfftz::<true>(1, n, &table, &mut x, &mut y);
                cfftz::<true>(-1, n, &table, &mut x, &mut y);
                let scale = 1.0 / n as f64;
                for k in 0..n {
                    let got = x[k].scale(scale);
                    assert!((got.re - x0[k].re).abs() < 1e-10, "n {n}, k {k}");
                    assert!((got.im - x0[k].im).abs() < 1e-10, "n {n}, k {k}");
                }
            }
        }
    }

    /// Linearity: F(a x + y) == a F(x) + F(y).
    #[test]
    fn transform_is_linear() {
        let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
        for m in 1..=7u32 {
            let x0 = seeded_signal(&mut rng, m);
            let a = 4.0 * rng.next_f64() - 2.0;
            let n = x0.len();
            let table = FftTable::new(n.max(2));
            let y0: Vec<C64> = (0..n).map(|i| c64((i as f64).cos(), 0.3)).collect();
            let mut combo: Vec<C64> = x0.iter().zip(&y0).map(|(&x, &y)| x.scale(a) + y).collect();
            let mut scratch = vec![C64::ZERO; n];
            cfftz::<true>(1, n, &table, &mut combo, &mut scratch);
            let mut fx = x0.clone();
            cfftz::<true>(1, n, &table, &mut fx, &mut scratch);
            let mut fy = y0.clone();
            cfftz::<true>(1, n, &table, &mut fy, &mut scratch);
            for k in 0..n {
                let want = fx[k].scale(a) + fy[k];
                assert!((combo[k].re - want.re).abs() < 1e-9, "n {n}, k {k}");
                assert!((combo[k].im - want.im).abs() < 1e-9, "n {n}, k {k}");
            }
        }
    }

    /// Parseval: energy is preserved up to the 1/n convention.
    #[test]
    fn parseval() {
        let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
        for m in 1..=8u32 {
            let x0 = seeded_signal(&mut rng, m);
            let n = x0.len();
            let table = FftTable::new(n.max(2));
            let e0: f64 = x0.iter().map(|c| c.re * c.re + c.im * c.im).sum();
            let mut x = x0;
            let mut y = vec![C64::ZERO; n];
            cfftz::<true>(1, n, &table, &mut x, &mut y);
            let e1: f64 = x.iter().map(|c| c.re * c.re + c.im * c.im).sum();
            assert!((e1 / n as f64 - e0).abs() <= 1e-9 * e0.max(1.0), "n {n}");
        }
    }
}
