//! Process-sharded EP: the embarrassingly parallel kernel as the procs
//! backend's base case — no mid-round exchange at all, one final
//! reduction.
//!
//! Rank `r` owns the batch range `partition(nn, N, r)` (the
//! [`Exchange::range`] every backend uses) and walks it in [`ROUNDS`]
//! checkpoint windows of ascending batch index `k`. After each window
//! it commits `(sx, sy, q[10])` plus its progress to its checkpoint
//! slot and crosses the outer barrier, which is the parent's
//! rank-death detection point. After the last window it publishes its
//! sums in the exchange area, and the parent finishes with
//! `npb_ep::combine` — the same rank-ordered combine the threads
//! backend runs, which is why a procs run at width N is bit-identical
//! to a threads run at N.

use std::time::Instant;

use npb_core::trace::{self, SpanKind};
use npb_core::{BenchReport, GuardStats};
use npb_ep::{EpParams, EpResult, NQ};
use npb_runtime::procs::shm::{ckpt_slot_bytes, ShmLayout};
use npb_runtime::Exchange;

use super::{
    ckpt_image, commit_counted, min_slot_round, tallied, Parent, ProcsConfig, RankView, WorkerCtx,
};
use crate::RunError;

/// Checkpoint windows per rank: enough that a mid-run crash loses only
/// a sliver of work, few enough that slot commits stay noise.
const ROUNDS: usize = 16;

/// Checkpoint/exchange payload: `[sx, sy, q0..q9]`.
const PAYLOAD: usize = 2 + NQ;

struct Layout {
    /// `nranks * PAYLOAD` f64 exchange area of final partial sums.
    partials: usize,
    /// Per-rank checkpoint slot offsets.
    slots: Vec<usize>,
    /// `nranks` u32: each rank's count of checkpoints that landed.
    tallies: usize,
    /// Total segment length.
    len: usize,
}

fn layout(nranks: usize) -> Layout {
    let mut l = ShmLayout::new(nranks);
    let partials = l.alloc_f64s(nranks * PAYLOAD);
    let slots = (0..nranks).map(|_| l.alloc(ckpt_slot_bytes(PAYLOAD))).collect();
    let tallies = l.alloc_i32s(nranks);
    Layout { partials, slots, tallies, len: l.segment_len() }
}

fn pack(res: &EpResult) -> [f64; PAYLOAD] {
    let mut p = [0.0; PAYLOAD];
    p[0] = res.sx;
    p[1] = res.sy;
    p[2..].copy_from_slice(&res.q);
    p
}

fn unpack(p: &[f64]) -> EpResult {
    let mut q = [0.0; NQ];
    q.copy_from_slice(&p[2..PAYLOAD]);
    EpResult { sx: p[0], sy: p[1], q, gc: 0.0 }
}

pub(crate) fn run_parent(cfg: &ProcsConfig) -> Result<BenchReport, RunError> {
    let params = EpParams::for_class(cfg.class);
    let lay = layout(cfg.nranks);
    let seg = cfg.segment(lay.len)?;
    let slots: Vec<_> = lay.slots.iter().map(|&off| ckpt_image(&seg, off, PAYLOAD)).collect();

    // EP has no warm-up: the whole supervised run is the timed section
    // (spawn included, as the threads backend includes team dispatch).
    trace::reset();
    let t0 = Instant::now();
    let (res, recoveries, checkpoints, dispositions) = {
        let _phase = trace::scope("gaussian_pairs");
        let mut parent = Parent::launch(&seg, "ep", cfg)?;
        // A crossing per checkpoint window, then the final crossing that
        // publishes the sums.
        parent.run_rounds(
            ROUNDS as u32 + 1,
            |parent, _| parent.outer_sync(),
            || min_slot_round(&slots),
        )?;
        let res = {
            let _x = trace::master_span(SpanKind::Exchange);
            // SAFETY: the final barrier has opened, so every rank's sums
            // are published and no rank writes again (they are exiting).
            let sums = unsafe { seg.slice_f64(lay.partials, cfg.nranks * PAYLOAD) };
            let ranks: Vec<EpResult> = sums.chunks_exact(PAYLOAD).map(unpack).collect();
            npb_ep::combine(&ranks)
        };
        let d = parent.finish();
        (res, parent.recoveries, tallied(&seg, lay.tallies, cfg.nranks), d)
    };
    let time = t0.elapsed().as_secs_f64();

    let n = 2f64.powi(params.m as i32);
    let guard =
        GuardStats { recoveries, checkpoint_count: checkpoints, checkpoint_overhead_s: 0.0 };
    let mut report = BenchReport::new(
        "EP",
        cfg.class,
        cfg.style,
        cfg.nranks,
        (1usize << params.m, 0, 0),
        1,
        time,
        n * 1.0e-6 / time.max(1e-12),
        npb_ep::verify(cfg.class, &res),
        npb_ep::result_sig(&res),
        guard,
    );
    report.rank_dispositions = dispositions;
    Ok(report)
}

pub(crate) fn worker<const SAFE: bool>(ctx: &WorkerCtx) {
    let params = EpParams::for_class(ctx.class);
    let nn = 1usize << (params.m - npb_ep::MK);
    let nk = 1usize << npb_ep::MK;
    let lay = layout(ctx.nranks);
    let ex = RankView::outer(ctx);
    let mut slot = ckpt_image(&ctx.seg, lay.slots[ctx.rank], PAYLOAD);
    let tally = ctx.seg.atomic_u32(lay.tallies + 4 * ctx.rank);
    let who = format!("rank {}", ctx.rank);

    let my = ex.range(nn);
    let chunk = my.len().div_ceil(ROUNDS).max(1);
    let window = |w: usize| {
        let lo = my.start + (w * chunk).min(my.len());
        let hi = my.start + ((w + 1) * chunk).min(my.len());
        lo..hi
    };

    let mut x = vec![0.0f64; 2 * nk];
    let resume = ctx.resume();
    // Resume from my own slot: `acc` is my sums after `done` windows.
    // The parent's resume round is the minimum over all slots, so
    // `done >= resume`; windows below `done` are skipped (their work is
    // already in `acc`), but every barrier is still attended.
    let mut payload = [0.0; PAYLOAD];
    let (mut done, mut acc) = match slot.restore(&mut [&mut payload]) {
        Some(round) => (round, unpack(&payload)),
        None => (0, EpResult::zero()),
    };

    for w in resume as usize..ROUNDS {
        ctx.round_start(w as u32);
        if (w as u32) >= done {
            for k in window(w) {
                npb_ep::batch::<SAFE>(k, &mut x, &mut acc);
            }
            commit_counted(&mut slot, tally, &who, w as u32 + 1, &pack(&acc));
            done = w as u32 + 1;
        }
        ex.barrier();
    }

    // Publish my sums, then the final crossing releases the parent to
    // combine them (the barrier's SeqCst edge publishes the writes).
    debug_assert!(ctx.rank < ctx.nranks);
    // SAFETY: row `rank` of the exchange area is this rank's alone, and
    // the parent reads it only after the final crossing.
    let mine = unsafe { ctx.seg.slice_f64(lay.partials + 8 * PAYLOAD * ctx.rank, PAYLOAD) };
    mine.copy_from_slice(&pack(&acc));
    ex.barrier();
}
