//! Process-sharded IS: `npb_is::rank_pass` on worker processes, its
//! histogram exchange through shared memory.
//!
//! Rounds: round 0 is the untimed warm-up ranking (iteration 1, as in
//! `is.c`), rounds 1..=10 are the timed iterations. Each rank keeps a
//! full private key array (regenerated deterministically at spawn, with
//! the iteration markers of already-completed rounds replayed), so the
//! only shared state is the exchange itself: the per-rank histogram
//! windows and the merged `counts`. The ranks run `rank_pass` against a
//! [`RankView`] over the outer barrier, so the parent attends both of a
//! round's crossings:
//!
//! * (a), inside `rank_pass`, between the histogram and the merge;
//! * (b), after the merge; each rank then commits its checkpoint slot.
//!
//! Between (b) and the next round's (a) the parent runs
//! `npb_is::prefix_and_check` over `counts` — the same master-serial
//! step the threads backend runs.
//!
//! IS checkpoints carry no payload: a rank's resumable state is fully
//! determined by the round number (keys are regenerated, the exchange
//! areas are rewritten every round), so the slot is a committed-round
//! marker whose minimum across ranks is the recovery resume point.

use std::time::Instant;

use npb_core::trace::{self, SpanKind};
use npb_core::{BenchReport, GuardStats, Verified};
use npb_is::{create_seq, IsParams, MAX_ITERATIONS, TEST_ARRAY_SIZE};
use npb_runtime::procs::shm::{ckpt_slot_bytes, ShmLayout};
use npb_runtime::{Exchange, SharedMut};

use super::{
    ckpt_image, commit_counted, min_slot_round, tallied, Parent, ProcsConfig, RankView, WorkerCtx,
};
use crate::RunError;

/// Warm-up round plus the timed iterations.
const ROUNDS: usize = MAX_ITERATIONS + 1;

/// The ranking iteration a round runs (round 0 warms up on iteration 1).
fn iter_of(round: u32) -> usize {
    (round as usize).max(1)
}

struct Layout {
    /// `nranks * max_key` i32: per-rank histogram windows.
    hists: usize,
    /// `max_key` i32: the merged counts (cumulative after the prefix).
    counts: usize,
    /// Per-rank checkpoint slot offsets (payload 0: round marker only).
    slots: Vec<usize>,
    /// `nranks` u32: each rank's count of checkpoints that landed.
    tallies: usize,
    len: usize,
}

fn layout(nranks: usize, max_key: usize) -> Layout {
    let mut l = ShmLayout::new(nranks);
    let hists = l.alloc_i32s(nranks * max_key);
    let counts = l.alloc_i32s(max_key);
    let slots = (0..nranks).map(|_| l.alloc(ckpt_slot_bytes(0))).collect();
    let tallies = l.alloc_i32s(nranks);
    Layout { hists, counts, slots, tallies, len: l.segment_len() }
}

pub(crate) fn run_parent(cfg: &ProcsConfig) -> Result<BenchReport, RunError> {
    let p = IsParams::for_class(cfg.class);
    let (mk, nk) = (p.max_key, p.num_keys);
    let lay = layout(cfg.nranks, mk);
    let seg = cfg.segment(lay.len)?;
    let slots: Vec<_> = lay.slots.iter().map(|&off| ckpt_image(&seg, off, 0)).collect();
    // SAFETY: the parent touches `counts` only from barrier (b) to the next
    // round's (a), or after the run: the ranks' merge waits for it at (a).
    let counts = || unsafe { seg.slice_i32(lay.counts, mk) };

    // The parent's own key array mirrors every rank's: the markers of
    // rounds `0..marked` applied.
    let mut keys = create_seq(&p, None);
    let mut marked = 0u32;
    // Per-round partial-verification deltas; redone rounds overwrite
    // their entry, so a recovery never double-counts.
    let mut results: Vec<Option<(usize, usize)>> = vec![None; ROUNDS];
    let mut parent = Parent::launch(&seg, "is", cfg)?;
    let mut t0: Option<Instant> = None;
    parent.run_rounds(
        ROUNDS as u32,
        |parent, round| {
            if round < marked {
                // A recovery rewound the run: rebuild the keys exactly as
                // the respawned ranks do.
                keys = create_seq(&p, None);
                marked = 0;
            }
            let mut spot = [0i32; TEST_ARRAY_SIZE];
            while marked <= round {
                spot = npb_is::mark(&mut keys, &p, iter_of(marked));
                marked += 1;
            }
            let _phase = (round >= 1).then(|| trace::scope("rank"));
            parent.outer_sync()?; // (a): histograms complete.
            parent.outer_sync()?; // (b): counts merged.
            {
                let _x = trace::master_span(SpanKind::Exchange);
                let check =
                    npb_is::prefix_and_check(counts(), &p, cfg.class, iter_of(round), &spot);
                results[round as usize] = Some(check);
            }
            if round == 0 && t0.is_none() {
                // Timed section starts after the warm-up ranking, as in
                // is.c; a later recovery that rewinds to round 0 keeps
                // the original start (the lost time is real).
                trace::reset();
                t0 = Some(Instant::now());
            }
            Ok(())
        },
        || min_slot_round(&slots),
    )?;
    let secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let dispositions = parent.finish();

    // Counted spot checks exclude the warm-up round, as in is.c.
    let (passed, failed) =
        results[1..].iter().flatten().fold((0usize, 0usize), |(p, f), &(dp, df)| (p + dp, f + df));
    // Full verification against the final counts, on the parent's key
    // state (which is every rank's key state after round 10's markers).
    let counts_final = counts();
    let full_ok = npb_is::full_verify(&keys, counts_final, None);
    let verified = if full_ok && failed == 0 && passed == TEST_ARRAY_SIZE * MAX_ITERATIONS {
        Verified::Success
    } else {
        Verified::Failure
    };

    let guard = GuardStats {
        recoveries: parent.recoveries,
        checkpoint_count: tallied(&seg, lay.tallies, cfg.nranks),
        checkpoint_overhead_s: 0.0,
    };
    let mut report = BenchReport::new(
        "IS",
        cfg.class,
        cfg.style,
        cfg.nranks,
        (nk, 0, 0),
        MAX_ITERATIONS,
        secs,
        (MAX_ITERATIONS * nk) as f64 * 1.0e-6 / secs.max(1e-12),
        verified,
        npb_is::result_sig(counts_final),
        guard,
    );
    report.rank_dispositions = dispositions;
    Ok(report)
}

pub(crate) fn worker<const SAFE: bool>(ctx: &WorkerCtx) {
    let p = IsParams::for_class(ctx.class);
    let mk = p.max_key;
    let lay = layout(ctx.nranks, mk);
    let ex = RankView::outer(ctx);
    let mut slot = ckpt_image(&ctx.seg, lay.slots[ctx.rank], 0);
    let tally = ctx.seg.atomic_u32(lay.tallies + 4 * ctx.rank);
    let who = format!("rank {}", ctx.rank);

    let mut keys = create_seq(&p, None);
    let resume = ctx.resume();
    for round in 0..ROUNDS as u32 {
        npb_is::mark(&mut keys, &p, iter_of(round));
        if round < resume {
            continue; // committed before the recovery: markers only
        }
        ctx.round_start(round);
        // SAFETY: rank_pass writes `hists` and `counts` only under its
        // phase discipline, and the parent touches `counts` only between
        // (b) and the next round's (a).
        let (hists, counts) = unsafe {
            (
                SharedMut::new(ctx.seg.slice_i32(lay.hists, ctx.nranks * mk)),
                SharedMut::new(ctx.seg.slice_i32(lay.counts, mk)),
            )
        };
        npb_is::rank_pass::<_, SAFE>(&ex, &keys, &hists, &counts);
        ex.barrier(); // (b): counts merged, parent takes over.
        commit_counted(&mut slot, tally, &who, round + 1, &[]);
    }
}
