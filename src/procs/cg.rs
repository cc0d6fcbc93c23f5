//! Process-sharded CG: the spmv reduction pipeline across worker
//! processes, with an inner (workers-only) futex barrier per reduction.
//!
//! Every rank regenerates the sparse matrix deterministically at spawn
//! (`makea` from the shared NPB generator seed) and owns the row range
//! `partition(n, N, r)`. The shared segment carries the three vectors
//! read across rank boundaries — `x`, `z` and the search direction
//! `p` — plus one reduction slot per rank for each of rho, d and the
//! residual norm; `q` and `r` stay rank-local (only a rank's own rows
//! are ever touched). Each `conj_grad` runs the threads backend's
//! barrier-separated phases verbatim, with `Par::barrier` replaced by
//! the inner [`ProcBarrier`] and `Partials` by the reduction slots
//! summed in ascending rank order — the identical `fmadd` chains and
//! reduction order make zeta bit-identical to a threads run at the
//! same width.
//!
//! Rounds: round 0 is the untimed warm-up, rounds 1..=niter the timed
//! power steps. After each `conj_grad` the ranks cross outer barrier
//! (a); the parent — the sole writer of `x` — combines the residual
//! slots, runs the serial power step, commits `x` to its own
//! integrity-hashed checkpoint slot, and opens outer barrier (b) to
//! release the next round. Recovery therefore restores `x` from the
//! parent slot and respawns; workers need no per-rank payload (their
//! whole state is round-deterministic).

use std::time::Instant;

use npb_cg::{makea, CgParams, Csr, CGITMAX};
use npb_core::trace::{self, SpanKind};
use npb_core::{fmadd, BenchReport, Randlc, Style};
use npb_runtime::partition;
use npb_runtime::procs::shm::{
    ckpt_slot_bytes, header, CkptSlot, ShmLayout, ShmSegment, STATUS_DONE,
};
use npb_runtime::procs::ProcBarrier;

use super::{io_config, Parent, ProcsConfig, SpawnSpec, WorkerCtx};
use crate::RunError;

struct Layout {
    x: usize,
    z: usize,
    pvec: usize,
    rho: usize,
    d: usize,
    rnorm: usize,
    /// The parent's checkpoint slot (payload: the whole `x` vector).
    pslot: usize,
    len: usize,
}

fn layout(nranks: usize, n: usize) -> Layout {
    let mut l = ShmLayout::new(nranks);
    let x = l.alloc_f64s(n);
    let z = l.alloc_f64s(n);
    let pvec = l.alloc_f64s(n);
    let rho = l.alloc_f64s(nranks);
    let d = l.alloc_f64s(nranks);
    let rnorm = l.alloc_f64s(nranks);
    let pslot = l.alloc(ckpt_slot_bytes(n));
    Layout { x, z, pvec, rho, d, rnorm, pslot, len: l.segment_len() }
}

// ---------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------

pub(crate) fn run_parent(cfg: &ProcsConfig) -> Result<BenchReport, RunError> {
    let p = CgParams::for_class(cfg.class);
    let n = p.na;
    let rounds = p.niter as u32 + 1; // warm-up + timed power steps
    let lay = layout(cfg.nranks, n);
    let seg = ShmSegment::create(lay.len, cfg.nranks)
        .map_err(io_config("cannot create the procs shm segment"))?;
    let pslot = CkptSlot::at(&seg, lay.pslot, n);
    // SAFETY (throughout this parent): the parent touches the vectors
    // only between outer barriers (a) and (b) of a round, when every
    // rank is blocked on (b); x has no other writer, ever.
    unsafe { seg.slice_f64(lay.x, n) }.fill(1.0);
    let spec = SpawnSpec {
        bench: "cg",
        class: cfg.class,
        style: cfg.style,
        nranks: cfg.nranks,
        shm_fd: seg.fd(),
        shm_len: lay.len,
    };

    let mut parent = Parent::launch(&seg, spec, cfg)?;
    let mut ck = super::CkptCommitter::from_env("parent".to_string());
    let mut resume = 0u32;
    let mut zeta = 0.0f64;
    let mut checkpoints = 0usize;
    let mut ckpt_secs = 0.0f64;
    let mut t0: Option<Instant> = None;
    'incarnation: loop {
        // `resume` feeds the *next* incarnation's range (via `continue
        // 'incarnation`), not this one's — exactly what the lint warns
        // is not happening.
        #[allow(clippy::mut_range_bound)]
        for round in resume..rounds {
            {
                // The parent's wait at (a) *is* the ranks' conj_grad.
                let _phase = (round >= 1).then(|| trace::scope("conj_grad"));
                if let Err(f) = parent.outer_sync() {
                    resume = recover(&mut parent, &f, &seg, &lay, n, &pslot)?;
                    continue 'incarnation;
                }
            }
            {
                let _phase = (round >= 1).then(|| trace::scope("power_step"));
                let _x = trace::master_span(SpanKind::Exchange);
                // The ranks' residual partials sit in the rnorm slots;
                // zeta (what verification reads) needs only x.z, so the
                // parent leaves them be — the workers still compute the
                // residual phase to keep the kernel's work (and flop
                // accounting) identical to the threads backend.
                let x = unsafe { seg.slice_f64(lay.x, n) };
                let z = unsafe { seg.slice_f64(lay.z, n) };
                if round == 0 {
                    // Warm-up: the threads backend discards its zeta and
                    // refills x = 1 — the power step's only state effect
                    // is x, so skipping it entirely is state-identical.
                    x.fill(1.0);
                } else {
                    let (mut tx, mut tz) = (0.0f64, 0.0f64);
                    for j in 0..n {
                        tx += x[j] * z[j];
                        tz += z[j] * z[j];
                    }
                    let inv = 1.0 / tz.sqrt();
                    for j in 0..n {
                        x[j] = inv * z[j];
                    }
                    zeta = p.shift + 1.0 / tx;
                }
                let t = Instant::now();
                ck.save(&pslot, round + 1, x);
                ckpt_secs += t.elapsed().as_secs_f64();
                checkpoints += 1;
            }
            if let Err(f) = parent.outer_sync() {
                resume = recover(&mut parent, &f, &seg, &lay, n, &pslot)?;
                continue 'incarnation;
            }
            if round == 0 && t0.is_none() {
                trace::reset();
                t0 = Some(Instant::now());
            }
        }
        break;
    }
    let secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let dispositions = parent.finish();

    Ok(BenchReport {
        name: "CG",
        class: cfg.class,
        size: (n, 0, 0),
        niter: p.niter,
        time_secs: secs,
        mops: p.flops() * 1.0e-6 / secs.max(1e-12),
        threads: cfg.nranks,
        style: cfg.style,
        verified: npb_cg::verify(cfg.class, zeta),
        recoveries: parent.recoveries,
        checkpoint_count: checkpoints,
        checkpoint_overhead_s: ckpt_secs,
        regions: Vec::new(),
        result_sig: Some(npb_cg::result_sig(zeta)),
        rank_dispositions: dispositions,
    })
}

/// CG recovery: restore `x` from the parent's hash-valid slot (or the
/// fresh-run initial state) and resume at the committed round — the
/// workers carry no cross-round state of their own.
fn recover(
    parent: &mut Parent<'_>,
    failure: &super::RoundFailure,
    seg: &ShmSegment,
    lay: &Layout,
    n: usize,
    pslot: &CkptSlot<'_>,
) -> Result<u32, RunError> {
    parent.recover_with(failure, || match pslot.load() {
        Some((round, payload)) => {
            // SAFETY: every rank is killed and reaped by recover_with
            // before this closure runs.
            unsafe { seg.slice_f64(lay.x, n) }.copy_from_slice(&payload);
            round
        }
        None => {
            unsafe { seg.slice_f64(lay.x, n) }.fill(1.0);
            0
        }
    })
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

pub(crate) fn worker(ctx: &WorkerCtx) -> i32 {
    match ctx.style {
        Style::Opt => worker_impl::<false>(ctx),
        Style::Safe => worker_impl::<true>(ctx),
    }
}

fn worker_impl<const SAFE: bool>(ctx: &WorkerCtx) -> i32 {
    let p = CgParams::for_class(ctx.class);
    // Regenerate the matrix exactly as CgState::new does: the shared
    // seed makes every rank's copy identical, trading setup time (the
    // untimed part) for zero matrix traffic through the segment.
    let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
    rng.next_f64();
    let mat = makea(&mut rng, p.na, p.nonzer, p.rcond, p.shift);
    let n = mat.n;
    let lay = layout(ctx.nranks, n);
    let outer =
        ProcBarrier::new(&ctx.seg, header::OUTER_GEN, header::OUTER_COUNT, ctx.nranks as u32 + 1);
    let inner =
        ProcBarrier::new(&ctx.seg, header::INNER_GEN, header::INNER_COUNT, ctx.nranks as u32);
    let rows = partition(n, ctx.nranks, ctx.rank);
    let mut q = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];

    let rounds = p.niter as u32 + 1;
    for round in ctx.resume()..rounds {
        ctx.round_start(round);
        conj_grad_rank::<SAFE>(ctx, &lay, &mat, rows.clone(), &inner, &mut q, &mut r);
        ctx.sync(&outer); // (a): parent reads rnorm slots, steps x.
        ctx.sync(&outer); // (b): new x published, next round may start.
    }
    ctx.seg.status(ctx.rank).store(STATUS_DONE, std::sync::atomic::Ordering::SeqCst);
    0
}

/// One rank's share of `conj_grad`: the threads kernel's phases with
/// the inner cross-process barrier in place of `Par::barrier` and the
/// per-rank reduction slots in place of `Partials` — same `fmadd`
/// chains, same rank-ordered sums.
fn conj_grad_rank<const SAFE: bool>(
    ctx: &WorkerCtx,
    lay: &Layout,
    mat: &Csr,
    rows: std::ops::Range<usize>,
    inner: &ProcBarrier<'_>,
    q: &mut [f64],
    r: &mut [f64],
) {
    let n = mat.n;
    let nranks = ctx.nranks;
    let rank = ctx.rank;
    // SAFETY: phase discipline — between inner barriers each rank
    // writes only its own row range of z and pv and its own reduction
    // slot; x is read-only for ranks (the parent writes it strictly
    // between the outer barriers that bracket this call).
    let (x, z, pv, rho_s, d_s, rnorm_s) = unsafe {
        (
            &ctx.seg.slice_f64(lay.x, n)[..],
            ctx.seg.slice_f64(lay.z, n),
            ctx.seg.slice_f64(lay.pvec, n),
            ctx.seg.slice_f64(lay.rho, nranks),
            ctx.seg.slice_f64(lay.d, nranks),
            ctx.seg.slice_f64(lay.rnorm, nranks),
        )
    };
    let sum_slots = |s: &[f64]| {
        let mut acc = 0.0;
        for v in s.iter().take(nranks) {
            acc += *v; // ascending rank: Partials::sum order
        }
        acc
    };

    // Initialization: q = z = 0, r = x, p = r; rho = r.r.
    let mut rho_part = 0.0;
    for j in rows.clone() {
        q[j] = 0.0;
        z[j] = 0.0;
        let xj = x[j];
        r[j] = xj;
        pv[j] = xj;
        rho_part = fmadd::<SAFE>(xj, xj, rho_part);
    }
    rho_s[rank] = rho_part;
    ctx.sync(inner);
    let mut rho = sum_slots(rho_s);

    for _cgit in 0..CGITMAX {
        // q = A p over my rows (p is stable: the previous phase's
        // closing barrier published every rank's update).
        for j in rows.clone() {
            let mut sum = 0.0;
            for k in mat.rowstr[j]..mat.rowstr[j + 1] {
                sum = fmadd::<SAFE>(mat.a[k], pv[mat.colidx[k] as usize], sum);
            }
            q[j] = sum;
        }
        // d = p.q
        let mut d_part = 0.0;
        for j in rows.clone() {
            d_part = fmadd::<SAFE>(pv[j], q[j], d_part);
        }
        d_s[rank] = d_part;
        ctx.sync(inner);
        let d = sum_slots(d_s);
        let alpha = rho / d;

        // z += alpha p ; r -= alpha q ; rho' = r.r
        let mut rho_part = 0.0;
        for j in rows.clone() {
            z[j] = fmadd::<SAFE>(alpha, pv[j], z[j]);
            let rj = fmadd::<SAFE>(-alpha, q[j], r[j]);
            r[j] = rj;
            rho_part = fmadd::<SAFE>(rj, rj, rho_part);
        }
        rho_s[rank] = rho_part;
        ctx.sync(inner);
        let rho_new = sum_slots(rho_s);
        let beta = rho_new / rho;
        rho = rho_new;

        // p = r + beta p; the next A p read needs the whole vector, so
        // a barrier closes the phase.
        for j in rows.clone() {
            pv[j] = fmadd::<SAFE>(beta, pv[j], r[j]);
        }
        ctx.sync(inner);
    }

    // rnorm partial = || x - A z ||^2 over my rows, reusing r for A z.
    // z is stable: its last writes were two barriers ago.
    for j in rows.clone() {
        let mut sum = 0.0;
        for k in mat.rowstr[j]..mat.rowstr[j + 1] {
            sum = fmadd::<SAFE>(mat.a[k], z[mat.colidx[k] as usize], sum);
        }
        r[j] = sum;
    }
    let mut s = 0.0;
    for j in rows {
        let dlt = x[j] - r[j];
        s = fmadd::<SAFE>(dlt, dlt, s);
    }
    rnorm_s[rank] = s;
}
