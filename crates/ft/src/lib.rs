//! # npb-ft — the NPB "3-D FFT" kernel
//!
//! Numerically solves the 3-D heat equation `∂u/∂t = α ∇²u` with
//! periodic boundaries spectrally: forward 3-D FFT of the random initial
//! state once, then per time step a multiplication by the accumulated
//! exponential decay factors and an inverse 3-D FFT, checksummed at 1024
//! fixed grid points per step against the published references.
//!
//! The paper's §5.2 highlights FT as the memory-pressure case: "the
//! inability of the JVM to use more than 4 processors to run applications
//! requiring significant amounts of memory (FT.A uses about 350 MB)".
//! This port keeps two complex fields, `u0` and `u1` (32 bytes a point,
//! 268 MB at class A). They come unwritten from the zeroing allocator,
//! so the ranks that fill them first touch their pages. `ft.f`'s
//! per-point `twiddle` array is gone: `evolve` reads each point's decay
//! factor from a table of a few thousand `exp` values.
//!
//! The 3-D transform is `ft.f`'s blocked one. A pass over one dimension
//! takes [`fft::BLOCK`] adjacent pencils at a time: their rows are copied
//! into a per-rank split re/im scratch where the pencil index is the
//! contiguous axis ([`fft::BlockBuf`]), one lane-generic body transforms
//! all sixteen at once under `npb_core::lane::dispatch`
//! ([`fft::cfftz_block`]), and the rows are copied back. The dim-1 and
//! dim-2 passes share the k-plane partition, so they are one region that
//! finishes a plane while it is cache-resident; dim 3 is the second.
//! Nothing in the crate depends on `Style`: array rows are range-checked
//! once each in both styles, so safe and opt run the same code.

pub mod complex;
pub mod fft;
mod params;

pub use complex::{c64, C64};
pub use fft::{cfftz, FftTable};
pub use params::{reference_checksums, FtParams};

use fft::{cfftz_block, BlockBuf, Elem, BLOCK};
use npb_core::lane::{self, Kernel, Lane};
use npb_core::{
    trace, BenchReport, Class, GuardConfig, GuardStats, Randlc, Style, Verified, SEED_DEFAULT,
};
use npb_runtime::{guarded_loop, run_par, RankScratch, SharedMut, Team};
use std::ops::Range;

const ALPHA: f64 = 1.0e-6;

/// `f²` for the wavenumber `f` of index `i` on an `n`-point axis, folded
/// to the centered range.
fn fold2(i: usize, n: usize) -> usize {
    let f = ((i + n / 2) % n) as i64 - (n / 2) as i64;
    (f * f) as usize
}

/// Reusable per-rank block buffers (the `fftblock`-wide `tx`/`ty` pair
/// each transform pass works a block of pencils through), sized for the
/// largest grid dimension so one pair serves all three directions.
/// Allocated once per run, before `timer.start`, not per pass inside the
/// timed region.
pub struct FftScratch {
    blocks: RankScratch<BlockBuf>,
}

impl FftScratch {
    /// One block buffer per rank, for pencils up to `maxdim` long.
    pub fn new(ranks: usize, maxdim: usize) -> FftScratch {
        FftScratch { blocks: RankScratch::new(ranks, |_| BlockBuf::new(maxdim)) }
    }

    /// Scratch sized for `p`'s grid and `team`'s width (1 when serial).
    pub fn for_run(p: &FtParams, team: Option<&Team>) -> FftScratch {
        FftScratch::new(team.map_or(1, Team::size), p.nx.max(p.ny).max(p.nz))
    }
}

/// FT benchmark state.
pub struct FtState {
    p: FtParams,
    /// Spectral field, accumulating the decay factors.
    u0: Vec<C64>,
    /// Working field (initial conditions / inverse-transform output).
    u1: Vec<C64>,
    /// One time step's decay factor for each distinct `kx²+ky²+kz²`.
    decay: Vec<f64>,
    table: FftTable,
}

/// Outcome of a full FT run.
#[derive(Debug, Clone)]
pub struct FtOutcome {
    /// Checksum per iteration.
    pub sums: Vec<C64>,
    /// Seconds in the timed section.
    pub secs: f64,
    /// What the SDC guard did (recoveries, checkpoints, overhead).
    pub guard: GuardStats,
}

impl FtState {
    /// Allocate buffers for `class`.
    pub fn new(class: Class) -> FtState {
        FtState::with_params(FtParams::for_class(class))
    }

    fn with_params(p: FtParams) -> FtState {
        let nt = p.ntotal();
        let maxdim = p.nx.max(p.ny).max(p.nz);
        FtState {
            p,
            u0: complex::zeroed(nt),
            u1: complex::zeroed(nt),
            decay: Vec::new(),
            table: FftTable::new(maxdim),
        }
    }

    /// Problem parameters.
    pub fn params(&self) -> &FtParams {
        &self.p
    }

    /// `compute_indexmap`: the per-mode decay factor
    /// `exp(-4 α π² (kx²+ky²+kz²))` with wavenumbers folded to the
    /// centered range depends only on the integer `s = kx²+ky²+kz²`,
    /// which takes a few thousand distinct values over millions of
    /// points. So `exp` runs once per `s`, into `decay`, and `evolve`
    /// reads each point's factor from it.
    fn compute_indexmap(&mut self) {
        let (nx, ny, nz) = (self.p.nx, self.p.ny, self.p.nz);
        let ap = -4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI;
        let s_max = fold2(nx / 2, nx) + fold2(ny / 2, ny) + fold2(nz / 2, nz);
        self.decay.clear();
        self.decay.extend((0..=s_max).map(|s| (ap * s as f64).exp()));
    }

    /// `compute_initial_conditions`: fill `u1` with the NPB random
    /// stream, one z-plane at a time (a chunk of planes jumps to its
    /// first plane's offset, so chunks can be filled concurrently).
    fn compute_initial_conditions(&mut self, team: Option<&Team>) {
        let (nx, ny, nz) = (self.p.nx, self.p.ny, self.p.nz);
        // Plane k is draws [k*plane, (k+1)*plane) of the stream.
        let plane = 2 * nx * ny;
        // SAFETY: a rank writes only its own k-planes.
        let u1 = unsafe { SharedMut::new(complex::as_f64_mut(&mut self.u1)) };
        run_par(team, |par| {
            par.for_chunks(nz, |ks| {
                let mut rng = Randlc::new(SEED_DEFAULT);
                rng.jump((ks.start * plane) as u64);
                for k in ks {
                    // SAFETY: plane `k` belongs to this rank alone, and it
                    // holds no other borrow of `u1`.
                    rng.fill(unsafe { u1.row_mut(k * plane, plane) });
                }
            });
        });
    }

    /// `evolve`: `u0 *= decay`, `u1 = u0`, a row at a time over each
    /// rank's k-planes, each point's factor read from the `exp` table as
    /// it is scaled. (Filling a row of factors first and scaling by it in
    /// a second loop was slower, and so was a field-sized factor array.)
    fn evolve(&mut self, team: Option<&Team>) {
        let (nx, ny, nz) = (self.p.nx, self.p.ny, self.p.nz);
        let ii2: Vec<usize> = (0..nx).map(|i| fold2(i, nx)).collect();
        let decay: &[f64] = &self.decay;
        // SAFETY: a rank reads and writes only the rows of its own k-planes.
        let (u0, u1) = unsafe { (SharedMut::new(&mut self.u0), SharedMut::new(&mut self.u1)) };
        run_par(team, |par| {
            par.for_chunks(nz, |ks| {
                for k in ks {
                    for j in 0..ny {
                        let row = &decay[fold2(j, ny) + fold2(k, nz)..];
                        let at = nx * (j + ny * k);
                        // SAFETY: row `j` of plane `k` belongs to this rank
                        // alone; the two borrows are of different arrays.
                        let (a, b) = unsafe { (u0.row_mut(at, nx), u1.row_mut(at, nx)) };
                        for ((a, b), &i2) in a.iter_mut().zip(b).zip(&ii2) {
                            *a = a.scale(row[i2]);
                            *b = *a;
                        }
                    }
                }
            });
        });
    }

    /// Checksum at 1024 deterministic points, scaled by 1/ntotal.
    fn checksum(&self) -> C64 {
        let (nx, ny, nz) = (self.p.nx, self.p.ny, self.p.nz);
        let mut chk = C64::ZERO;
        for j in 1..=1024usize {
            let q = j % nx;
            let r = (3 * j) % ny;
            let s = (5 * j) % nz;
            chk = chk + self.u1[q + nx * (r + ny * s)];
        }
        chk.scale(1.0 / self.p.ntotal() as f64)
    }

    /// Full benchmark under the in-computation SDC guard: one untimed
    /// warm-up pass, then the timed section (index map, initial
    /// conditions, forward FFT, `niter` evolve / inverse-FFT / checksum
    /// steps), as `ft.f` structures it. The only state a time step carries
    /// forward is the spectral field `u0` (`evolve` derives `u1` from it,
    /// the inverse FFT and checksum only consume `u1`), so the guard
    /// watches and restores `u0`; a replayed step overwrites its checksum.
    pub fn run_guarded(&mut self, team: Option<&Team>, gcfg: &GuardConfig) -> FtOutcome {
        // Per-rank FFT block buffers, allocated once before the timed
        // section; the solver loop reuses them across every transform.
        let scratch = FftScratch::for_run(&self.p, team);
        // Untimed warm-up: the ranks first touch every page of both
        // fields, `u1` in the initial conditions and `u0` in the FFT.
        self.compute_indexmap();
        self.compute_initial_conditions(team);
        fft3d(1, &self.p, &self.table, &mut self.u1, &mut self.u0, &scratch, team);

        // Timed section starts here: drop the warm-up pass's spans so
        // the profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        {
            let _phase = trace::scope("setup");
            self.compute_indexmap();
            self.compute_initial_conditions(team);
        }
        {
            let _phase = trace::scope("fft");
            fft3d(1, &self.p, &self.table, &mut self.u1, &mut self.u0, &scratch, team);
        }
        let mut sums = Vec::with_capacity(self.p.niter);
        let guard = guarded_loop(
            team,
            gcfg,
            self.p.niter,
            self,
            |s| [complex::as_f64_mut(&mut s.u0)],
            |s, it| {
                {
                    let _phase = trace::scope("evolve");
                    s.evolve(team);
                }
                {
                    let _phase = trace::scope("fft");
                    fft3d_inplace(-1, &s.p, &s.table, &mut s.u1, &scratch, team);
                }
                let _phase = trace::scope("checksum");
                sums.truncate(it);
                sums.push(s.checksum());
                None
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        FtOutcome { sums, secs, guard }
    }
}

/// 3-D FFT: transform along dim 1, dim 2, dim 3 (forward) or dim 3, 2, 1
/// (inverse), reading `x` and leaving the result in `out` (the passes
/// before the last are in-place on `x`, as in `ft.f`).
pub fn fft3d(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &mut [C64],
    out: &mut [C64],
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    // SAFETY: in either sweep a rank touches only the pencils of its own
    // chunk (whole k-planes, or whole j-rows through every plane), and
    // the two sweeps are separate regions.
    let (sx, so) = unsafe { (SharedMut::new(x), SharedMut::new(out)) };
    sweeps(is, p, table, &sx, &so, scratch, team);
}

/// 3-D FFT with the result left in `x` itself.
pub fn fft3d_inplace(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &mut [C64],
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    // SAFETY: see `fft3d`.
    let sx = unsafe { SharedMut::new(x) };
    sweeps(is, p, table, &sx, &sx, scratch, team);
}

/// The two regions of a 3-D FFT: the plane sweep (dims 1 and 2, parallel
/// over k) and the depth sweep (dim 3, parallel over j), in transform
/// order. `out` may be `x`.
fn sweeps(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &SharedMut<C64>,
    out: &SharedMut<C64>,
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    let sweep = |depth: bool, out: &SharedMut<C64>| {
        run_par(team, |par| {
            // SAFETY: rank `tid` of this region exclusively owns slot `tid`,
            // and the borrow ends with the region (RankScratch discipline).
            let buf = unsafe { scratch.blocks.rank_mut(par.tid()) };
            par.for_chunks(if depth { p.ny } else { p.nz }, |chunk| {
                lane::dispatch(Sweep { is, p, table, x, out, buf: &mut *buf, chunk, depth });
            });
        });
    };
    if is >= 1 {
        sweep(false, x);
        sweep(true, out);
    } else {
        sweep(true, x);
        sweep(false, out);
    }
}

/// `count` parallel pencils of `n` elements each. With `stride == 1` the
/// pencils are rows of the array (dim 1): pencil `q` is the `n` elements
/// from `base + q * n`. Otherwise they stand side by side (dims 2 and
/// 3): element `e` of pencil `q` is at `base + q + e * stride`.
#[derive(Clone, Copy)]
struct Pencils {
    base: usize,
    count: usize,
    n: usize,
    stride: usize,
}

/// Copy pencils `q0 .. q0 + b` of `at` into the block `dst`, a row of the
/// array at a time.
///
/// The caller's rank owns those pencils for the region (see `fft3d`).
#[inline(always)]
fn gather(x: &SharedMut<C64>, at: Pencils, q0: usize, b: usize, dst: &mut [Elem]) {
    let dst = &mut dst[..at.n];
    if at.stride == 1 {
        for j in 0..b {
            // SAFETY: the pencil is this rank's, nothing writes it while
            // it is copied out, and the borrow ends with the iteration.
            let pencil = unsafe { x.row(at.base + (q0 + j) * at.n, at.n) };
            for (d, v) in dst.iter_mut().zip(pencil) {
                d.re[j] = v.re;
                d.im[j] = v.im;
            }
        }
    } else {
        for (e, d) in dst.iter_mut().enumerate() {
            // SAFETY: as above, for element `e` of the block's pencils.
            let row = unsafe { x.row(at.base + q0 + e * at.stride, b) };
            for ((r, i), v) in d.re.iter_mut().zip(d.im.iter_mut()).zip(row) {
                *r = v.re;
                *i = v.im;
            }
        }
    }
}

/// Copy the block `src` back over pencils `q0 .. q0 + b` of `at`: the
/// inverse of [`gather`], under the same ownership.
#[inline(always)]
fn scatter(src: &[Elem], out: &SharedMut<C64>, at: Pencils, q0: usize, b: usize) {
    let src = &src[..at.n];
    if at.stride == 1 {
        for j in 0..b {
            // SAFETY: the pencil is this rank's, and no other borrow of
            // `out` (or of `x`, when they are one array) is live.
            let pencil = unsafe { out.row_mut(at.base + (q0 + j) * at.n, at.n) };
            for (s, v) in src.iter().zip(pencil) {
                *v = c64(s.re[j], s.im[j]);
            }
        }
    } else {
        for (e, s) in src.iter().enumerate() {
            // SAFETY: as above, for element `e` of the block's pencils.
            let row = unsafe { out.row_mut(at.base + q0 + e * at.stride, b) };
            for ((r, i), v) in s.re.iter().zip(&s.im).zip(row) {
                *v = c64(*r, *i);
            }
        }
    }
}

/// One rank's share of a sweep: k-planes `chunk` (dims 1 and 2 of each),
/// or with `depth` the dim-3 pencils of j-rows `chunk`.
struct Sweep<'a> {
    is: i32,
    p: &'a FtParams,
    table: &'a FftTable,
    x: &'a SharedMut<'a, C64>,
    out: &'a SharedMut<'a, C64>,
    buf: &'a mut BlockBuf,
    chunk: Range<usize>,
    depth: bool,
}

impl Kernel for Sweep<'_> {
    /// Every pass reads `x`; the sweep's last pass writes `out`, the one
    /// before it (the plane sweep has two) writes `x` back.
    #[inline(always)]
    fn run<L: Lane>(self) {
        let Sweep { is, table, x, out, buf, .. } = self;
        let (d1, d2, d3) = (self.p.nx, self.p.ny, self.p.nz);
        for c in self.chunk {
            let passes = if self.depth {
                [Some((Pencils { base: d1 * c, count: d1, n: d3, stride: d1 * d2 }, out)), None]
            } else {
                let base = d1 * d2 * c;
                let dim1 = Pencils { base, count: d2, n: d1, stride: 1 };
                let dim2 = Pencils { base, count: d1, n: d2, stride: d1 };
                if is >= 1 {
                    [Some((dim1, x)), Some((dim2, out))]
                } else {
                    [Some((dim2, x)), Some((dim1, out))]
                }
            };
            // One call site for every pass, so the transform is inlined once.
            for (at, dst) in passes.into_iter().flatten() {
                for q0 in (0..at.count).step_by(BLOCK) {
                    let b = BLOCK.min(at.count - q0);
                    gather(x, at, q0, b, &mut buf.x);
                    cfftz_block::<L>(is, at.n, table, buf);
                    scatter(&buf.x, dst, at, q0, b);
                }
            }
        }
    }
}

/// Verify a checksum sequence against the published references
/// (tolerance 1e-12, as in `ft.f`).
pub fn verify(class: Class, sums: &[C64]) -> Verified {
    let refs = reference_checksums(class);
    npb_core::verify_all(complex::as_f64(sums), refs.as_deref().map(complex::as_f64), 1.0e-12)
}

/// Run the FT benchmark and produce the standard report.
pub fn run(class: Class, style: Style, team: Option<&Team>) -> BenchReport {
    run_with_guard(class, style, team, &GuardConfig::default())
}

/// [`run`] with an explicit SDC-guard configuration (the `npb` driver's
/// `--sdc-guard` / `--checkpoint-every` path).
pub fn run_with_guard(
    class: Class,
    style: Style,
    team: Option<&Team>,
    gcfg: &GuardConfig,
) -> BenchReport {
    let mut st = FtState::new(class);
    let out = st.run_guarded(team, gcfg);
    let p = *st.params();
    BenchReport::new(
        "FT",
        class,
        style,
        team.map_or(0, Team::size),
        (p.nx, p.ny, p.nz),
        p.niter,
        out.secs,
        p.flops(out.secs),
        verify(class, &out.sums),
        npb_core::state_hash(&[complex::as_f64(&out.sums)]),
        out.guard,
    )
}

/// Run and return the raw checksums (tests / harness). FT has one body
/// for both styles; `_style` keeps the eight `run_raw`s one shape.
pub fn run_raw(class: Class, _style: Style, team: Option<&Team>) -> FtOutcome {
    FtState::new(class).run_guarded(team, &GuardConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_checksums_match_published_references() {
        let out = run_raw(Class::S, Style::Opt, None);
        assert_eq!(verify(Class::S, &out.sums), Verified::Success, "sums = {:?}", out.sums);
    }

    #[test]
    fn safe_style_also_verifies() {
        let out = run_raw(Class::S, Style::Safe, None);
        assert_eq!(verify(Class::S, &out.sums), Verified::Success);
    }

    #[test]
    fn parallel_checksums_match_serial_bitwise() {
        // No cross-thread reductions anywhere (the checksum is serial),
        // so any team size reproduces the serial bits exactly.
        let serial = run_raw(Class::S, Style::Opt, None);
        for n in [2usize, 4] {
            let team = Team::new(n);
            let par = run_raw(Class::S, Style::Opt, Some(&team));
            assert_eq!(par.sums, serial.sums, "{n} threads");
        }
    }

    #[test]
    fn forward_then_inverse_is_identity_times_n() {
        let p = FtParams { nx: 16, ny: 8, nz: 4, niter: 1 };
        let table = FftTable::new(16);
        let n = p.ntotal();
        let x0: Vec<C64> =
            (0..n).map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos())).collect();
        let mut x = x0.clone();
        let scratch = FftScratch::for_run(&p, None);
        fft3d_inplace(1, &p, &table, &mut x, &scratch, None);
        fft3d_inplace(-1, &p, &table, &mut x, &scratch, None);
        let scale = 1.0 / n as f64;
        for i in 0..n {
            let got = x[i].scale(scale);
            assert!(
                (got.re - x0[i].re).abs() < 1e-12 && (got.im - x0[i].im).abs() < 1e-12,
                "i = {i}"
            );
        }
    }

    /// The 3-D transform one pencil at a time through the reference
    /// [`cfftz`], in `ft.f`'s dimension order.
    fn fft3d_reference(is: i32, p: &FtParams, table: &FftTable, x: &mut [C64]) {
        let (d1, d2, d3) = (p.nx, p.ny, p.nz);
        // (pencils' first elements, length, stride) for dims 1, 2, 3.
        let firsts = |dim: usize| -> (Vec<usize>, usize, usize) {
            match dim {
                1 => ((0..d2 * d3).map(|r| r * d1).collect(), d1, 1),
                2 => {
                    ((0..d3).flat_map(|k| (0..d1).map(move |i| i + d1 * d2 * k)).collect(), d2, d1)
                }
                _ => ((0..d1 * d2).collect(), d3, d1 * d2),
            }
        };
        for dim in if is >= 1 { [1, 2, 3] } else { [3, 2, 1] } {
            let (starts, n, stride) = firsts(dim);
            let (mut tx, mut ty) = (vec![C64::ZERO; n], vec![C64::ZERO; n]);
            for s in starts {
                for e in 0..n {
                    tx[e] = x[s + e * stride];
                }
                cfftz::<true>(is, n, table, &mut tx, &mut ty);
                for e in 0..n {
                    x[s + e * stride] = tx[e];
                }
            }
        }
    }

    #[test]
    fn blocked_fft3d_equals_the_per_pencil_transform_bitwise() {
        // Non-cubic, each with dimensions shorter than a block, so an axis
        // mix-up cannot cancel and short last blocks are exercised.
        for (nx, ny, nz) in [(16, 8, 4), (4, 32, 8), (32, 4, 64)] {
            let p = FtParams { nx, ny, nz, niter: 1 };
            let table = FftTable::new(nx.max(ny).max(nz));
            let x0: Vec<C64> = (0..p.ntotal())
                .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let bits = |v: &[C64]| -> Vec<u64> {
                complex::as_f64(v).iter().map(|f| f.to_bits()).collect()
            };
            for is in [1, -1] {
                let mut want = x0.clone();
                fft3d_reference(is, &p, &table, &mut want);
                for ranks in [0usize, 2, 3] {
                    let team = (ranks > 0).then(|| Team::new(ranks));
                    let scratch = FftScratch::for_run(&p, team.as_ref());
                    let mut inplace = x0.clone();
                    fft3d_inplace(is, &p, &table, &mut inplace, &scratch, team.as_ref());
                    assert_eq!(bits(&inplace), bits(&want), "{nx}x{ny}x{nz} is {is} ranks {ranks}");
                    let (mut x, mut out) = (x0.clone(), vec![C64::ZERO; x0.len()]);
                    fft3d(is, &p, &table, &mut x, &mut out, &scratch, team.as_ref());
                    assert_eq!(bits(&out), bits(&want), "{nx}x{ny}x{nz} is {is} ranks {ranks}");
                }
            }
        }
    }

    /// Each point's factor, read off a field of ones that `evolve`
    /// scaled once, against `exp` of its own `kx²+ky²+kz²`.
    #[test]
    fn index_map_equals_the_per_point_formula_bitwise() {
        let grids = [FtParams::for_class(Class::S), FtParams { nx: 32, ny: 8, nz: 16, niter: 1 }];
        for p in grids {
            let mut st = FtState::with_params(p);
            st.compute_indexmap();
            st.u0.fill(c64(1.0, 0.0));
            st.evolve(None);
            let ap = -4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI;
            let fold = |i: usize, n: usize| ((i + n / 2) % n) as i64 - (n / 2) as i64;
            for k in 0..p.nz {
                for j in 0..p.ny {
                    for i in 0..p.nx {
                        let (ii, jj, kk) = (fold(i, p.nx), fold(j, p.ny), fold(k, p.nz));
                        let want = (ap * (ii * ii + (jj * jj + kk * kk)) as f64).exp();
                        let got = st.u0[i + p.nx * (j + p.ny * k)].re;
                        assert_eq!(got.to_bits(), want.to_bits(), "{p:?} at ({i}, {j}, {k})");
                    }
                }
            }
        }
    }

    /// The per-point decay array `evolve` read before it read the
    /// `exp` table, kept to test it against.
    mod oracle {
        use super::*;

        /// The old `compute_indexmap`: every point's factor, from the
        /// same `exp` table, into a field-sized array.
        pub fn twiddle(p: &FtParams) -> Vec<f64> {
            let (nx, ny, nz) = (p.nx, p.ny, p.nz);
            let ap = -4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI;
            let ii2: Vec<usize> = (0..nx).map(|i| fold2(i, nx)).collect();
            let s_max = fold2(nx / 2, nx) + fold2(ny / 2, ny) + fold2(nz / 2, nz);
            let ex: Vec<f64> = (0..=s_max).map(|s| (ap * s as f64).exp()).collect();
            let mut tw = vec![0.0; p.ntotal()];
            for k in 0..nz {
                for j in 0..ny {
                    let kj2 = fold2(j, ny) + fold2(k, nz);
                    let row = &mut tw[nx * (j + ny * k)..][..nx];
                    for (t, &i2) in row.iter_mut().zip(&ii2) {
                        *t = ex[i2 + kj2];
                    }
                }
            }
            tw
        }

        /// The old `evolve`: `u0 *= twiddle`, `u1 = u0`.
        pub fn evolve(u0: &mut [C64], u1: &mut [C64], tw: &[f64]) {
            for ((a, b), &t) in u0.iter_mut().zip(u1).zip(tw) {
                *a = a.scale(t);
                *b = *a;
            }
        }
    }

    /// `u0` and `u1` after each of several steps, against the twiddle
    /// array's `evolve`, by `to_bits`: at S and the non-cubic W, serially
    /// and on a Team of 3 (which splits neither grid's planes evenly).
    #[test]
    fn table_decay_equals_the_twiddle_array_evolve_bitwise() {
        let team = Team::new(3);
        let bits =
            |v: &[C64]| -> Vec<u64> { complex::as_f64(v).iter().map(|f| f.to_bits()).collect() };
        for class in [Class::S, Class::W] {
            let p = FtParams::for_class(class);
            let tw = oracle::twiddle(&p);
            for t in [None, Some(&team)] {
                let mut st = FtState::with_params(p);
                st.compute_indexmap();
                st.compute_initial_conditions(t);
                st.u0.copy_from_slice(&st.u1);
                let (mut w0, mut w1) = (st.u0.clone(), st.u1.clone());
                for step in 1..=4 {
                    st.evolve(t);
                    oracle::evolve(&mut w0, &mut w1, &tw);
                    let what = format!("{class:?} width {} step {step}", t.map_or(0, Team::size));
                    assert!(bits(&st.u0) == bits(&w0), "u0, {what}");
                    assert!(bits(&st.u1) == bits(&w1), "u1, {what}");
                }
            }
        }
    }

    #[test]
    fn verify_rejects_perturbed_checksums() {
        let mut sums = reference_checksums(Class::S).unwrap();
        sums[3].re *= 1.0 + 1e-9;
        assert_eq!(verify(Class::S, &sums), Verified::Failure);
    }

    #[test]
    fn initial_conditions_are_deterministic_and_uniform() {
        let mut a = FtState::new(Class::S);
        let mut b = FtState::new(Class::S);
        a.compute_initial_conditions(None);
        b.compute_initial_conditions(None);
        assert_eq!(a.u1, b.u1);
        let mean: f64 = a.u1.iter().map(|c| c.re + c.im).sum::<f64>() / (2 * a.u1.len()) as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
