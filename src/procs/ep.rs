//! Process-sharded EP: the embarrassingly parallel kernel as the procs
//! backend's base case — no mid-round exchange at all, one final
//! reduction.
//!
//! Rank `r` owns the batch range `partition(nn, N, r)` (exactly the
//! threads backend's `Par::range` split) and walks it in [`ROUNDS`]
//! checkpoint windows of ascending batch index `k`. After each window
//! it commits `(sx, sy, q[10])` plus its progress to its checkpoint
//! slot and crosses the outer barrier, which is the parent's
//! rank-death detection point. After the last window it publishes its
//! partial sums in the exchange area; the parent combines them in rank
//! order — the same strictly sequential per-rank accumulation and
//! rank-ordered reduction as `Partials::sum`, which is why a procs run
//! at width N is bit-identical to a threads run at N.

use std::time::Instant;

use npb_core::trace::{self, SpanKind};
use npb_core::{BenchReport, Style};
use npb_ep::{EpParams, EpResult, NQ};
use npb_runtime::partition;
use npb_runtime::procs::shm::{
    ckpt_slot_bytes, header, CkptSlot, ShmLayout, ShmSegment, STATUS_DONE,
};
use npb_runtime::procs::ProcBarrier;

use super::{io_config, min_slot_round, Parent, ProcsConfig, SpawnSpec, WorkerCtx};
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
    /// Total segment length.
    len: usize,
}

fn layout(nranks: usize) -> Layout {
    let mut l = ShmLayout::new(nranks);
    let partials = l.alloc_f64s(nranks * PAYLOAD);
    let slots = (0..nranks).map(|_| l.alloc(ckpt_slot_bytes(PAYLOAD))).collect();
    Layout { partials, slots, len: l.segment_len() }
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

// ---------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------

pub(crate) fn run_parent(cfg: &ProcsConfig) -> Result<BenchReport, RunError> {
    let params = EpParams::for_class(cfg.class);
    let lay = layout(cfg.nranks);
    let seg = ShmSegment::create(lay.len, cfg.nranks)
        .map_err(io_config("cannot create the procs shm segment"))?;
    let slots: Vec<CkptSlot<'_>> =
        (0..cfg.nranks).map(|r| CkptSlot::at(&seg, lay.slots[r], PAYLOAD)).collect();
    let spec = SpawnSpec {
        bench: "ep",
        class: cfg.class,
        style: cfg.style,
        nranks: cfg.nranks,
        shm_fd: seg.fd(),
        shm_len: lay.len,
    };

    // EP has no warm-up: the whole supervised run is the timed section
    // (spawn included, as the threads backend includes team dispatch).
    trace::reset();
    let t0 = Instant::now();
    let (res, recoveries, checkpoints, dispositions) = {
        let _phase = trace::scope("gaussian_pairs");
        let mut parent = Parent::launch(&seg, spec, cfg)?;
        let mut resume = 0u32;
        let mut checkpoints = 0usize;
        loop {
            match supervise(&mut parent, resume, &mut checkpoints, cfg.nranks) {
                Ok(()) => break,
                Err(f) => resume = parent.recover_with(&f, || min_slot_round(&slots))?,
            }
        }
        let res = {
            let _x = trace::master_span(SpanKind::Exchange);
            combine(&seg, &lay, cfg.nranks)
        };
        let d = parent.finish();
        (res, parent.recoveries, checkpoints, d)
    };
    let time = t0.elapsed().as_secs_f64();

    let n = 2f64.powi(params.m as i32);
    Ok(BenchReport {
        name: "EP",
        class: cfg.class,
        size: (1usize << params.m, 0, 0),
        niter: 1,
        time_secs: time,
        mops: n * 1.0e-6 / time.max(1e-12),
        threads: cfg.nranks,
        style: cfg.style,
        verified: npb_ep::verify(cfg.class, &res),
        recoveries,
        checkpoint_count: checkpoints,
        checkpoint_overhead_s: 0.0,
        regions: Vec::new(),
        result_sig: Some(npb_ep::result_sig(&res)),
        rank_dispositions: dispositions,
    })
}

/// One incarnation's barrier schedule: a crossing per checkpoint
/// window, plus the final crossing that publishes the partials.
fn supervise(
    parent: &mut Parent<'_>,
    resume: u32,
    checkpoints: &mut usize,
    nranks: usize,
) -> Result<(), super::RoundFailure> {
    for _round in resume..ROUNDS as u32 {
        parent.outer_sync()?;
        // Every rank committed a slot this round (ranks replaying past
        // their own checkpoint skip the commit, so this is an upper
        // bound only during recovery replay).
        *checkpoints += nranks;
    }
    parent.outer_sync()
}

/// Rank-ordered combination of the published partials — per quantity,
/// ascending rank, exactly `Partials::sum`.
fn combine(seg: &ShmSegment, lay: &Layout, nranks: usize) -> EpResult {
    // SAFETY: the final barrier has opened, so every rank's window is
    // committed and no rank writes again (they are exiting).
    let p = unsafe { seg.slice_f64(lay.partials, nranks * PAYLOAD) };
    let mut res = EpResult { sx: 0.0, sy: 0.0, q: [0.0; NQ], gc: 0.0 };
    for r in 0..nranks {
        res.sx += p[r * PAYLOAD];
    }
    for r in 0..nranks {
        res.sy += p[r * PAYLOAD + 1];
    }
    for (l, ql) in res.q.iter_mut().enumerate() {
        for r in 0..nranks {
            *ql += p[r * PAYLOAD + 2 + l];
        }
    }
    res.gc = res.q.iter().sum();
    res
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
    let params = EpParams::for_class(ctx.class);
    let nn = 1usize << (params.m - npb_ep::MK);
    let nk = 1usize << npb_ep::MK;
    let lay = layout(ctx.nranks);
    let outer =
        ProcBarrier::new(&ctx.seg, header::OUTER_GEN, header::OUTER_COUNT, ctx.nranks as u32 + 1);
    let slot = CkptSlot::at(&ctx.seg, lay.slots[ctx.rank], PAYLOAD);
    let mut ck = super::CkptCommitter::from_env(format!("rank {}", ctx.rank));

    let my = partition(nn, ctx.nranks, ctx.rank);
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
    let (mut done, mut acc) = match slot.load() {
        Some((round, payload)) => (round, unpack(&payload)),
        None => (0, EpResult { sx: 0.0, sy: 0.0, q: [0.0; NQ], gc: 0.0 }),
    };

    for w in resume as usize..ROUNDS {
        ctx.round_start(w as u32);
        if (w as u32) >= done {
            for k in window(w) {
                npb_ep::batch::<SAFE>(k, &mut x, &mut acc);
            }
            ck.save(&slot, w as u32 + 1, &pack(&acc));
            done = w as u32 + 1;
        }
        ctx.sync(&outer);
    }

    // Publish my partials, then the final crossing releases the parent
    // to combine them (the barrier's SeqCst edge publishes the writes).
    // SAFETY: rank-disjoint window of the exchange area.
    unsafe {
        let p = ctx.seg.slice_f64(lay.partials, ctx.nranks * PAYLOAD);
        p[ctx.rank * PAYLOAD..][..PAYLOAD].copy_from_slice(&pack(&acc));
    }
    ctx.seg.status(ctx.rank).store(STATUS_DONE, std::sync::atomic::Ordering::SeqCst);
    ctx.sync(&outer);
    0
}
