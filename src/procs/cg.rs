//! Process-sharded CG: `npb_cg::conj_grad_rank` on worker processes,
//! with the workers-only inner futex barrier as its barrier.
//!
//! Every rank regenerates the sparse matrix deterministically at spawn
//! (`npb_cg::matrix` from the shared NPB generator seed). The shared
//! segment carries the three vectors read across rank boundaries — `x`,
//! `z` and the search direction `p` — plus the [`RankView`] reduction
//! area for rho and d; `q` and `r` stay rank-local (a rank touches only
//! its own rows of them, since procs loops are statically scheduled).
//!
//! Rounds: round 0 is the untimed warm-up, rounds 1..=niter the timed
//! power steps. After each `conj_grad` the ranks cross outer barrier
//! (a); the parent — the sole writer of `x` — runs `npb_cg::power_step`,
//! commits `x` to its own integrity-hashed checkpoint slot, and opens
//! outer barrier (b) to release the next round. Recovery therefore
//! restores `x` from the parent slot and respawns; workers need no
//! per-rank payload (their whole state is round-deterministic).

use std::cell::RefCell;
use std::time::Instant;

use npb_cg::{CgParams, CgVectors};
use npb_core::trace::{self, SpanKind};
use npb_core::{BenchReport, GuardStats};
use npb_runtime::procs::shm::{ckpt_slot_bytes, header, ShmLayout};
use npb_runtime::procs::ProcBarrier;
use npb_runtime::{Exchange, SharedMut};

use super::{
    ckpt_image, commit, Parent, ProcsConfig, RankView, RoundFailure, WorkerCtx, REDUCE_SLOTS,
};
use crate::RunError;

struct Layout {
    x: usize,
    z: usize,
    pvec: usize,
    /// The [`RankView`] reduction area.
    slots: usize,
    /// The parent's checkpoint slot (payload: the whole `x` vector).
    pslot: usize,
    len: usize,
}

fn layout(nranks: usize, n: usize) -> Layout {
    let mut l = ShmLayout::new(nranks);
    let x = l.alloc_f64s(n);
    let z = l.alloc_f64s(n);
    let pvec = l.alloc_f64s(n);
    let slots = l.alloc_f64s(REDUCE_SLOTS * nranks);
    let pslot = l.alloc(ckpt_slot_bytes(n));
    Layout { x, z, pvec, slots, pslot, len: l.segment_len() }
}

pub(crate) fn run_parent(cfg: &ProcsConfig) -> Result<BenchReport, RunError> {
    let p = CgParams::for_class(cfg.class);
    let n = p.na;
    let lay = layout(cfg.nranks, n);
    let seg = cfg.segment(lay.len)?;
    // Both the round and the restore closure below use the slot; the
    // supervised loop never runs them at once.
    let pslot = RefCell::new(ckpt_image(&seg, lay.pslot, n));
    // SAFETY: the parent touches `x`, `z` only between barriers (a) and (b),
    // or with every rank dead; `x` has no other writer, ever.
    let x = || unsafe { seg.slice_f64(lay.x, n) };
    let z = || unsafe { seg.slice_f64(lay.z, n) };
    x().fill(1.0);

    let mut parent = Parent::launch(&seg, "cg", cfg)?;
    let mut zeta = 0.0f64;
    let mut ckpt_secs = 0.0f64;
    let mut t0: Option<Instant> = None;
    let round = |parent: &mut Parent<'_>, round: u32| -> Result<(), RoundFailure> {
        {
            // The parent's wait at (a) *is* the ranks' conj_grad.
            let _phase = (round >= 1).then(|| trace::scope("conj_grad"));
            parent.outer_sync()?;
        }
        {
            let _phase = (round >= 1).then(|| trace::scope("power_step"));
            let _x = trace::master_span(SpanKind::Exchange);
            if round == 0 {
                // Warm-up: the threads backend discards its zeta and
                // refills x = 1 — the power step's only state effect is
                // x, so skipping it entirely is state-identical.
                x().fill(1.0);
            } else {
                // zeta (what verification reads) needs only x and z; the
                // ranks' residual partials are dropped.
                zeta = npb_cg::power_step(x(), z(), p.shift);
            }
            let t = Instant::now();
            commit(&mut pslot.borrow_mut(), "parent", round + 1, x());
            ckpt_secs += t.elapsed().as_secs_f64();
        }
        parent.outer_sync()?;
        if round == 0 && t0.is_none() {
            trace::reset();
            t0 = Some(Instant::now());
        }
        Ok(())
    };
    // Restore `x` from the parent's hash-valid slot (or the fresh-run
    // initial state) and resume at the committed round.
    let restore = || {
        pslot.borrow_mut().restore(&mut [x()]).unwrap_or_else(|| {
            x().fill(1.0);
            0
        })
    };
    parent.run_rounds(p.niter as u32 + 1, round, restore)?;
    let secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let dispositions = parent.finish();

    let guard = GuardStats {
        recoveries: parent.recoveries,
        // Commits that flipped the image: a refused one is not a checkpoint.
        checkpoint_count: pslot.borrow().commits(),
        checkpoint_overhead_s: ckpt_secs,
    };
    let mut report = BenchReport::new(
        "CG",
        cfg.class,
        cfg.style,
        cfg.nranks,
        (n, 0, 0),
        p.niter,
        secs,
        p.flops() * 1.0e-6 / secs.max(1e-12),
        npb_cg::verify(cfg.class, zeta),
        npb_cg::result_sig(zeta),
        guard,
    );
    report.rank_dispositions = dispositions;
    Ok(report)
}

pub(crate) fn worker<const SAFE: bool>(ctx: &WorkerCtx) {
    let p = CgParams::for_class(ctx.class);
    let mat = npb_cg::matrix(&p);
    let n = mat.n;
    let lay = layout(ctx.nranks, n);
    let outer = RankView::outer(ctx);
    let inner =
        ProcBarrier::new(&ctx.seg, header::INNER_GEN, header::INNER_COUNT, ctx.nranks as u32);
    // SAFETY: the reduction area is written only through the view's
    // all_sum discipline.
    let slots = unsafe { ctx.seg.slice_f64(lay.slots, REDUCE_SLOTS * ctx.nranks) };
    let ex = RankView::new(ctx, inner, slots);
    let (mut q, mut r) = (vec![0.0f64; n], vec![0.0f64; n]);

    for round in ctx.resume()..p.niter as u32 + 1 {
        ctx.round_start(round);
        // SAFETY: the parent writes `x` only between (a) and (b), when
        // these views are gone; conj_grad_rank writes `z` and `p` only
        // under its phase discipline; `q` and `r` are this process's.
        let v = unsafe {
            CgVectors {
                x: ctx.seg.slice_f64(lay.x, n),
                z: SharedMut::new(ctx.seg.slice_f64(lay.z, n)),
                p: SharedMut::new(ctx.seg.slice_f64(lay.pvec, n)),
                q: SharedMut::new(&mut q),
                r: SharedMut::new(&mut r),
            }
        };
        npb_cg::conj_grad_rank::<_, SAFE>(&ex, &mat, &v);
        outer.barrier(); // (a): conj_grad done, parent steps x.
        outer.barrier(); // (b): new x published, next round may start.
    }
}
