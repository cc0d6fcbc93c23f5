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
//! This port keeps the same three large complex arrays so the footprint
//! matches.

pub mod complex;
pub mod fft;
mod params;

pub use complex::{c64, C64};
pub use fft::{cfftz, FftTable};
pub use params::{reference_checksums, FtParams};

use npb_core::{
    trace, BenchReport, Class, GuardAction, GuardConfig, GuardStats, Randlc, SdcGuard, Style,
    Verified, SEED_DEFAULT,
};
use npb_runtime::{escalate_corruption, run_par, RankScratch, SharedMut, Team};

const ALPHA: f64 = 1.0e-6;

/// Reusable per-rank FFT line buffers (the `tx`/`ty` pair each
/// `cffts1/2/3` pass works a line through), sized for the largest grid
/// dimension so one pair serves all three transform directions.
///
/// The solver loop calls three transform passes per time step; before
/// this existed, each pass allocated two fresh `Vec`s per rank *inside
/// the timed region*. Allocate once per run (before `timer.start`) and
/// reuse instead.
pub struct FftScratch {
    lines: RankScratch<(Vec<C64>, Vec<C64>)>,
}

impl FftScratch {
    /// One `tx`/`ty` pair per rank, each `maxdim` long.
    pub fn new(ranks: usize, maxdim: usize) -> FftScratch {
        FftScratch {
            lines: RankScratch::new(ranks, |_| (vec![C64::ZERO; maxdim], vec![C64::ZERO; maxdim])),
        }
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
    /// Per-mode decay factor for one time step.
    twiddle: Vec<f64>,
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
        let p = FtParams::for_class(class);
        let nt = p.ntotal();
        let maxdim = p.nx.max(p.ny).max(p.nz);
        FtState {
            p,
            u0: vec![C64::ZERO; nt],
            u1: vec![C64::ZERO; nt],
            twiddle: vec![0.0; nt],
            table: FftTable::new(maxdim),
        }
    }

    /// Problem parameters.
    pub fn params(&self) -> &FtParams {
        &self.p
    }

    /// `compute_indexmap`: per-mode decay factor
    /// `exp(-4 α π² (kx²+ky²+kz²))` with wavenumbers folded to the
    /// centered range.
    fn compute_indexmap(&mut self, team: Option<&Team>) {
        let (nx, ny, nz) = (self.p.nx, self.p.ny, self.p.nz);
        let ap = -4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI;
        let tw = unsafe { SharedMut::new(&mut self.twiddle) };
        run_par(team, |par| {
            par.for_chunks(nz, |ks| {
                for k in ks {
                    let kk = ((k + nz / 2) % nz) as i64 - (nz / 2) as i64;
                    let kk2 = kk * kk;
                    for j in 0..ny {
                        let jj = ((j + ny / 2) % ny) as i64 - (ny / 2) as i64;
                        let kj2 = jj * jj + kk2;
                        for i in 0..nx {
                            let ii = ((i + nx / 2) % nx) as i64 - (nx / 2) as i64;
                            tw.set::<false>(
                                i + nx * (j + ny * k),
                                (ap * (ii * ii + kj2) as f64).exp(),
                            );
                        }
                    }
                }
            });
        });
    }

    /// `compute_initial_conditions`: fill `u1` with the NPB random
    /// stream, one z-plane at a time (a chunk of planes jumps to its
    /// first plane's offset, so chunks can be filled concurrently).
    fn compute_initial_conditions(&mut self, team: Option<&Team>) {
        let (nx, ny, nz) = (self.p.nx, self.p.ny, self.p.nz);
        // Plane k is draws [k*plane, (k+1)*plane) of the stream.
        let plane = 2 * nx * ny;
        let u1 = unsafe { SharedMut::new(complex::as_f64_mut(&mut self.u1)) };
        run_par(team, |par| {
            let mut buf = vec![0.0f64; plane];
            par.for_chunks(nz, |ks| {
                let mut rng = Randlc::new(SEED_DEFAULT);
                rng.jump((ks.start * plane) as u64);
                for k in ks {
                    rng.fill(&mut buf);
                    let base = k * plane;
                    for (off, &v) in buf.iter().enumerate() {
                        u1.set::<false>(base + off, v);
                    }
                }
            });
        });
    }

    /// `evolve`: `u0 *= twiddle`, `u1 = u0`.
    fn evolve(&mut self, team: Option<&Team>) {
        let n = self.u0.len();
        let u0 = unsafe { SharedMut::new(&mut self.u0) };
        let u1 = unsafe { SharedMut::new(&mut self.u1) };
        let tw: &[f64] = &self.twiddle;
        run_par(team, |par| {
            par.for_chunks(n, |ids| {
                for i in ids {
                    let v = u0.get::<false>(i).scale(npb_core::ld::<_, false>(tw, i));
                    u0.set::<false>(i, v);
                    u1.set::<false>(i, v);
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

    /// Full benchmark: one untimed warm-up pass, then the timed section
    /// (index map, initial conditions, forward FFT, `niter` evolve /
    /// inverse-FFT / checksum steps), as `ft.f` structures it.
    pub fn run<const SAFE: bool>(&mut self, team: Option<&Team>) -> FtOutcome {
        self.run_guarded::<SAFE>(team, &GuardConfig::default())
    }

    /// [`FtState::run`] under the in-computation SDC guard. The only
    /// state a time step carries forward is the spectral field `u0`
    /// (`evolve` derives `u1` from it, the inverse FFT and checksum only
    /// consume `u1`), so the guard watches and restores `u0`; on
    /// rollback the checksums of the replayed steps are truncated.
    pub fn run_guarded<const SAFE: bool>(
        &mut self,
        team: Option<&Team>,
        gcfg: &GuardConfig,
    ) -> FtOutcome {
        // Per-rank FFT line buffers, allocated once before the timed
        // section; the solver loop reuses them across every transform.
        let scratch = FftScratch::for_run(&self.p, team);
        // Untimed warm-up: touch every page once.
        self.compute_indexmap(team);
        self.compute_initial_conditions(team);
        fft3d::<SAFE>(1, &self.p, &self.table, &mut self.u1, &mut self.u0, &scratch, team);

        // Timed section starts here: drop the warm-up pass's spans so
        // the profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        {
            let _phase = trace::scope("setup");
            self.compute_indexmap(team);
            self.compute_initial_conditions(team);
        }
        {
            let _phase = trace::scope("fft");
            fft3d::<SAFE>(1, &self.p, &self.table, &mut self.u1, &mut self.u0, &scratch, team);
        }
        let mut sums = Vec::with_capacity(self.p.niter);
        let mut guard = SdcGuard::new(gcfg, self.p.niter);
        guard.init(&[complex::as_f64(&self.u0)]);
        let mut it = 0;
        while it < self.p.niter {
            match guard.begin(it, &mut [complex::as_f64_mut(&mut self.u0)]) {
                GuardAction::Continue => {}
                GuardAction::Rollback { resume } => {
                    // Replayed iterations must not consult timings from
                    // the corrupted pass.
                    if let Some(t) = team {
                        t.reset_sched_history();
                    }
                    sums.truncate(resume);
                    it = resume;
                    continue;
                }
                GuardAction::Escalate { iteration, detections } => {
                    escalate_corruption(iteration, detections)
                }
            }
            {
                let _phase = trace::scope("evolve");
                self.evolve(team);
            }
            {
                let _phase = trace::scope("fft");
                fft3d_inplace::<SAFE>(-1, &self.p, &self.table, &mut self.u1, &scratch, team);
            }
            {
                let _phase = trace::scope("checksum");
                sums.push(self.checksum());
            }
            guard.end(it, &[complex::as_f64(&self.u0)], None);
            it += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        FtOutcome { sums, secs, guard: guard.stats() }
    }
}

/// 3-D FFT: transform along dim 1, dim 2, dim 3 (forward) or dim 3, 2, 1
/// (inverse), reading `x` and leaving the result in `out` (the first two
/// passes are in-place on `x`, as in `ft.f`).
pub fn fft3d<const SAFE: bool>(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &mut [C64],
    out: &mut [C64],
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    let sx = unsafe { SharedMut::new(x) };
    let so = unsafe { SharedMut::new(out) };
    if is == 1 {
        cffts1::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts2::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts3::<SAFE>(is, p, table, &sx, &so, scratch, team);
    } else {
        cffts3::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts2::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts1::<SAFE>(is, p, table, &sx, &so, scratch, team);
    }
}

/// 3-D FFT with the result left in `x` itself.
pub fn fft3d_inplace<const SAFE: bool>(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &mut [C64],
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    let sx = unsafe { SharedMut::new(x) };
    if is == 1 {
        cffts1::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts2::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts3::<SAFE>(is, p, table, &sx, &sx, scratch, team);
    } else {
        cffts3::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts2::<SAFE>(is, p, table, &sx, &sx, scratch, team);
        cffts1::<SAFE>(is, p, table, &sx, &sx, scratch, team);
    }
}

/// Transforms along dimension 1 (contiguous lines), parallel over planes.
fn cffts1<const SAFE: bool>(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &SharedMut<C64>,
    out: &SharedMut<C64>,
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    let (d1, d2, d3) = (p.nx, p.ny, p.nz);
    run_par(team, |par| {
        // SAFETY: rank `tid` of this region exclusively owns slot `tid`,
        // and the borrow ends with the region (RankScratch discipline).
        let (tx, ty) = unsafe { scratch.lines.rank_mut(par.tid()) };
        par.for_chunks(d3, |ks| {
            for k in ks {
                for j in 0..d2 {
                    let base = d1 * (j + d2 * k);
                    for i in 0..d1 {
                        tx[i] = x.get::<SAFE>(base + i);
                    }
                    cfftz::<SAFE>(is, d1, table, tx, ty);
                    for i in 0..d1 {
                        out.set::<SAFE>(base + i, tx[i]);
                    }
                }
            }
        });
    });
}

/// Transforms along dimension 2 (stride `d1`), parallel over planes.
fn cffts2<const SAFE: bool>(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &SharedMut<C64>,
    out: &SharedMut<C64>,
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    let (d1, d2, d3) = (p.nx, p.ny, p.nz);
    run_par(team, |par| {
        // SAFETY: see cffts1.
        let (tx, ty) = unsafe { scratch.lines.rank_mut(par.tid()) };
        par.for_chunks(d3, |ks| {
            for k in ks {
                for i in 0..d1 {
                    let base = i + d1 * d2 * k;
                    for j in 0..d2 {
                        tx[j] = x.get::<SAFE>(base + d1 * j);
                    }
                    cfftz::<SAFE>(is, d2, table, tx, ty);
                    for j in 0..d2 {
                        out.set::<SAFE>(base + d1 * j, tx[j]);
                    }
                }
            }
        });
    });
}

/// Transforms along dimension 3 (stride `d1*d2`), parallel over rows.
fn cffts3<const SAFE: bool>(
    is: i32,
    p: &FtParams,
    table: &FftTable,
    x: &SharedMut<C64>,
    out: &SharedMut<C64>,
    scratch: &FftScratch,
    team: Option<&Team>,
) {
    let (d1, d2, d3) = (p.nx, p.ny, p.nz);
    run_par(team, |par| {
        // SAFETY: see cffts1.
        let (tx, ty) = unsafe { scratch.lines.rank_mut(par.tid()) };
        par.for_chunks(d2, |js| {
            for j in js {
                for i in 0..d1 {
                    let base = i + d1 * j;
                    for k in 0..d3 {
                        tx[k] = x.get::<SAFE>(base + d1 * d2 * k);
                    }
                    cfftz::<SAFE>(is, d3, table, tx, ty);
                    for k in 0..d3 {
                        out.set::<SAFE>(base + d1 * d2 * k, tx[k]);
                    }
                }
            }
        });
    });
}

/// Verify a checksum sequence against the published references
/// (tolerance 1e-12, as in `ft.f`).
pub fn verify(class: Class, sums: &[C64]) -> Verified {
    match reference_checksums(class) {
        None => Verified::NotPerformed,
        Some(refs) => {
            if sums.len() != refs.len() {
                return Verified::Failure;
            }
            for (s, r) in sums.iter().zip(&refs) {
                if !npb_core::rel_err_ok(s.re, r.re, 1.0e-12)
                    || !npb_core::rel_err_ok(s.im, r.im, 1.0e-12)
                {
                    return Verified::Failure;
                }
            }
            Verified::Success
        }
    }
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
    let out = match style {
        Style::Opt => st.run_guarded::<false>(team, gcfg),
        Style::Safe => st.run_guarded::<true>(team, gcfg),
    };
    let p = *st.params();
    BenchReport {
        name: "FT",
        class,
        size: (p.nx, p.ny, p.nz),
        niter: p.niter,
        time_secs: out.secs,
        mops: p.flops(out.secs),
        threads: team.map_or(0, Team::size),
        style,
        verified: verify(class, &out.sums),
        recoveries: out.guard.recoveries,
        checkpoint_count: out.guard.checkpoint_count,
        checkpoint_overhead_s: out.guard.checkpoint_overhead_s,
        regions: Vec::new(),
        result_sig: Some({
            let flat: Vec<f64> = out.sums.iter().flat_map(|s| [s.re, s.im]).collect();
            npb_core::state_hash(&[&flat])
        }),
        rank_dispositions: Vec::new(),
    }
}

/// Run and return the raw checksums (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> FtOutcome {
    let mut st = FtState::new(class);
    match style {
        Style::Opt => st.run::<false>(team),
        Style::Safe => st.run::<true>(team),
    }
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
        fft3d_inplace::<true>(1, &p, &table, &mut x, &scratch, None);
        fft3d_inplace::<true>(-1, &p, &table, &mut x, &scratch, None);
        let scale = 1.0 / n as f64;
        for i in 0..n {
            let got = x[i].scale(scale);
            assert!(
                (got.re - x0[i].re).abs() < 1e-12 && (got.im - x0[i].im).abs() < 1e-12,
                "i = {i}"
            );
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
