//! # npb-is — the NPB "Integer Sort" kernel
//!
//! Sorts `N` integer keys drawn from the NPB linear congruential
//! generator with a linear-time ranking algorithm based on the key
//! histogram (counting sort). The benchmark performs ten ranking
//! iterations, spot-checking five known key positions each time
//! (*partial verification*), and finishes with a *full verification* that
//! the permutation implied by the final ranking actually sorts the keys.
//!
//! The paper singles IS out as the benchmark with the least work per
//! thread: "the amount of work performed by each thread is small relative
//! to other benchmarks, hence, the data movement overheads eclipse the
//! gain in processing time" — which is why its scalability is the worst
//! of the suite.

mod params;

pub use params::{IsParams, MAX_ITERATIONS, TEST_ARRAY_SIZE};

use npb_core::{
    ld, st, trace, BenchReport, Class, GuardStats, Randlc, Style, Verified, SEED_DEFAULT,
};
use npb_runtime::{run_par, Exchange, Par, SharedMut, Team};
use std::sync::atomic::{AtomicBool, Ordering};

/// Generate the key sequence exactly as `create_seq` in `is.c`: each key
/// is `MAX_KEY/4` times the sum of four consecutive uniform deviates.
///
/// Key `i` takes draws `4i+1 ..= 4i+4` of the one NPB stream, so any
/// run of keys can be drawn from a generator jumped to its first key,
/// as NPB 3.x's `find_my_seed` does. On `team` (serially with `None`)
/// each rank fills the keys of its static partition with `fill_keys`.
/// Every key still adds the same four draws in the same order, so the
/// sequence is bit-identical to the one-stream loop at every width.
pub fn create_seq(p: &IsParams, team: Option<&Team>) -> Vec<i32> {
    let mut keys = vec![0i32; p.num_keys];
    // SAFETY: each rank writes only the keys of its own partition.
    let shared = unsafe { SharedMut::new(&mut keys) };
    run_par(team, |par| {
        let mine = par.range(p.num_keys);
        // SAFETY: `mine` is this rank's alone.
        fill_keys(unsafe { shared.row_mut(mine.start, mine.len()) }, mine.start, p.max_key);
    });
    keys
}

/// Keys `first..first + keys.len()` of the sequence, into `keys`. The
/// run is cut into four contiguous lanes, each with its own copy of the
/// generator jumped to its first draw, and the lanes advance in lockstep
/// so that their four multiply chains overlap. Every key adds its four
/// draws in order onto `0.0`, which adds nothing.
fn fill_keys(keys: &mut [i32], first: usize, max_key: usize) {
    let k = (max_key / 4) as f64;
    let run = keys.len().div_ceil(4).max(1);
    let mut g: [Randlc; 4] = std::array::from_fn(|l| {
        let mut g = Randlc::new(SEED_DEFAULT);
        g.jump(4 * (first + l * run) as u64);
        g
    });
    let mut runs = keys.chunks_mut(run);
    let mut next = || runs.next().unwrap_or_default();
    let (s0, s1, s2, s3) = (next(), next(), next(), next());
    // Runs never get longer, so the last one's length is the lockstep span.
    let common = s3.len();
    for (((a, b), c), d) in s0.iter_mut().zip(&mut *s1).zip(&mut *s2).zip(s3) {
        let mut x = [0.0; 4];
        for _ in 0..4 {
            for (x, g) in x.iter_mut().zip(&mut g) {
                *x += g.next_f64();
            }
        }
        [*a, *b, *c, *d] = x.map(|x| (k * x) as i32);
    }
    for (out, g) in [s0, s1, s2].into_iter().zip(&mut g) {
        for key in &mut out[common..] {
            let mut x = 0.0;
            for _ in 0..4 {
                x += g.next_f64();
            }
            *key = (k * x) as i32;
        }
    }
}

/// `is.c`'s iteration markers for `iteration`, written into `keys`;
/// returns the spot keys partial verification ranks afterwards.
pub fn mark(keys: &mut [i32], p: &IsParams, iteration: usize) -> [i32; TEST_ARRAY_SIZE] {
    keys[iteration] = iteration as i32;
    keys[iteration + MAX_ITERATIONS] = (p.max_key - iteration) as i32;
    p.test_index.map(|i| keys[i])
}

/// One rank's share of a ranking pass, the one body both backends run:
/// histogram the keys into this rank's `max_key`-sized window of
/// `hists` (`width × max_key` entries), cross a barrier, then merge
/// every window into `counts` (`max_key` entries) in ascending rank
/// order.
///
/// Both loops go through [`Exchange::for_chunks`], so
/// `--sched guided|feedback` applies on threads: the histogram counts
/// whichever keys a rank claims into that rank's *own* window, and
/// integer addition is exact and commutative, so the merged counts — and
/// the result signature — are identical under any schedule. The merge
/// writes disjoint key ranges.
///
/// The merge reads every window, so the caller must separate two passes
/// over the same `hists` by a barrier (or the end of the region).
pub fn rank_pass<X: Exchange, const SAFE: bool>(
    ex: &X,
    keys: &[i32],
    hists: &SharedMut<'_, i32>,
    counts: &SharedMut<'_, i32>,
) {
    let mk = counts.len();
    let width = ex.width();
    assert_eq!(hists.len(), width * mk, "one histogram window per rank");
    {
        // SAFETY: window `rank` of `hists` is this rank's alone until
        // the barrier below publishes it.
        let win = unsafe { hists.row_mut(ex.rank() * mk, mk) };
        win.fill(0);
        ex.for_chunks(keys.len(), |chunk| {
            for i in chunk {
                let key = ld::<_, SAFE>(keys, i) as usize;
                st::<_, SAFE>(win, key, ld::<_, SAFE>(win, key) + 1);
            }
        });
    }
    ex.barrier();
    // SAFETY: every window is complete, and no rank writes `hists`
    // again before the barrier the caller puts between passes.
    let all = unsafe { hists.row(0, width * mk) };
    ex.for_chunks(mk, |chunk| {
        // SAFETY: the chunks of `counts` are disjoint across ranks.
        let out = unsafe { counts.row_mut(chunk.start, chunk.len()) };
        for (k, c) in chunk.zip(out) {
            let mut sum = 0i32;
            for tt in 0..width {
                sum += ld::<_, SAFE>(all, tt * mk + k);
            }
            *c = sum;
        }
    });
}

/// The master-serial tail of a ranking pass (the paper's ordering; the
/// OpenMP IS prefixes within threads): turn the merged `counts` into
/// cumulative ranks (NPB's `key_buff1`: `counts[k]` = number of keys
/// `<= k`), then check the `spot` keys of `iteration` against the
/// published ranks. Returns the (passed, failed) partial verifications.
pub fn prefix_and_check(
    counts: &mut [i32],
    p: &IsParams,
    class: Class,
    iteration: usize,
    spot: &[i32; TEST_ARRAY_SIZE],
) -> (usize, usize) {
    let mut acc = 0i32;
    for c in counts.iter_mut() {
        acc += *c;
        *c = acc;
    }
    let (mut passed, mut failed) = (0, 0);
    for (i, &k) in spot.iter().enumerate() {
        if 0 < k && (k as usize) < p.num_keys {
            if counts[k as usize - 1] as i64 == p.expected_rank(class, i, iteration) {
                passed += 1;
            } else {
                failed += 1;
            }
        }
    }
    (passed, failed)
}

/// Full verification (NPB `full_verify`): scatter `keys` to the ranked
/// positions the cumulative `counts` give — each key decrements its
/// value's count and lands in the slot it frees — and check the result
/// is sorted and a permutation of the input. On `team` the ranks share
/// the work (see [`sort_checked`]); with `None` it runs serially, as the
/// procs parent calls it. The verdict is the same at every width.
///
/// The permutation check is exact: after the scatter each `counts[k]`
/// must have fallen to `counts[k-1]` (to 0 at `k = 0`), which holds if
/// and only if `counts` is the cumulative histogram of `keys`. Then the
/// keys of value `k` filled exactly `counts[k-1]..counts[k]`. This also
/// rejects a wrong count at a value no key takes, which the histogram
/// compare it replaces let through. A key outside `0..counts.len()`, or
/// a count that sends a slot out of range, fails verification rather
/// than panicking.
pub fn full_verify(keys: &[i32], counts: &[i32], team: Option<&Team>) -> bool {
    sort_checked(keys, counts, team).is_some()
}

/// High-bit buckets of [`sort_checked`]'s partition: at class A each
/// bucket's writes stay inside a ≈ 128 KB window of `sorted`.
const VERIFY_BUCKETS: usize = 1 << 8;

/// [`full_verify`]'s scatter: the sorted keys, or `None` as soon as the
/// keys and `counts` are seen to disagree.
///
/// Scattering straight from `keys` misses cache and TLB on nearly every
/// write at class A (32 MB of `sorted`). So the keys are first split,
/// stably, by their high bits into [`VERIFY_BUCKETS`] runs of `sorted`
/// itself — one sequential write stream each — and the scatter then
/// goes bucket by bucket: copy the bucket's run aside, and scatter it
/// back into that same window. The keys of one value meet their count in
/// key order, so each lands in the slot the key-order scatter gives it.
///
/// The windows are where `counts` puts each bucket, and the split checks
/// them: it fails if a bucket holds more keys than its window, and since
/// the windows add up to the key count, none can hold fewer. When
/// `counts` is right, every slot of a bucket falls inside its window; a
/// slot outside it fails the check, so no write ever reaches another
/// bucket's window.
///
/// On a Team of `w > 1` each rank first counts its static share of the
/// keys by bucket; a bucket's keys then go to its window in rank order,
/// each rank's after those of the ranks before it, which is key order.
/// Bucket totals that miss their windows fail every rank at once. Each
/// rank scatters and checks the windows that start in its share of the
/// keys: sortedness inside each window (a window holds only its bucket's
/// values, so sorted windows make a sorted array) and the exact check
/// over its bucket's values.
fn sort_checked(keys: &[i32], counts: &[i32], team: Option<&Team>) -> Option<Vec<i32>> {
    let (n, mk) = (keys.len(), counts.len());
    let top = mk.saturating_sub(1);
    let shift = (usize::BITS - top.leading_zeros()).saturating_sub(VERIFY_BUCKETS.ilog2());
    let buckets = (top >> shift) + 1;
    // `at[b]..at[b + 1]`: bucket `b`'s window of `sorted`, the count of
    // keys below its first value.
    let below = |v: usize| if v == 0 { Some(0) } else { usize::try_from(counts[v - 1]).ok() };
    let at: Vec<usize> =
        (0..=buckets).map(|b| below((b << shift).min(mk))).collect::<Option<_>>()?;
    if at[buckets] != n || at.windows(2).any(|w| w[0] > w[1]) {
        return None;
    }
    let width = team.map_or(1, Team::size);
    let mut sorted = vec![0i32; n];
    let mut tally = vec![0usize; if width > 1 { width * buckets } else { 0 }];
    // SAFETY: a rank writes only its own row of `tally`, and only the
    // slots of `sorted` its offsets and windows give it (see `rank`),
    // each phase separated by a barrier.
    let (slots, tally) = unsafe { (SharedMut::new(&mut sorted), SharedMut::new(&mut tally)) };
    // One rank's count, split, scatter and checks; `false` when it saw
    // the keys and counts disagree.
    let rank = |par: &Par<'_>| -> bool {
        let r = par.tid();
        let mine = par.range(n);
        if width > 1 {
            // SAFETY: row `r` of `tally` is this rank's alone until the
            // barrier below publishes it.
            let row = unsafe { tally.row_mut(r * buckets, buckets) };
            for &k in &keys[mine.clone()] {
                // A key out of range is counted nowhere, so the totals
                // below miss the windows, which add up to `n`.
                if (0..mk as i32).contains(&k) {
                    row[k as usize >> shift] += 1;
                }
            }
        }
        par.barrier();
        // This rank's slots in each window: `next[b]..end[b]`.
        let (mut next, end) = if width == 1 {
            (at[..buckets].to_vec(), at[1..].to_vec())
        } else {
            // SAFETY: every row is complete, and nothing writes `tally`
            // again in this region.
            let all = unsafe { tally.row(0, width * buckets) };
            let mut next = Vec::with_capacity(buckets);
            for b in 0..buckets {
                let col = |t: usize| all[t * buckets + b];
                if (0..width).map(col).sum::<usize>() != at[b + 1] - at[b] {
                    // Every rank reads the same totals, so all return here.
                    return false;
                }
                next.push(at[b] + (0..r).map(col).sum::<usize>());
            }
            let end = (0..buckets).map(|b| next[b] + all[r * buckets + b]).collect();
            (next, end)
        };
        let mut split = true;
        for &k in &keys[mine.clone()] {
            if k < 0 || k as usize >= mk {
                split = false;
                break;
            }
            let b = k as usize >> shift;
            let slot = next[b];
            if slot == end[b] {
                split = false;
                break;
            }
            slots.set::<true>(slot, k);
            next[b] = slot + 1;
        }
        par.barrier();
        // A split can fail only serially: on a Team the totals were
        // checked above. No barrier follows, so returning is safe.
        if !split {
            return false;
        }
        // No bucket overflowed and the windows add up to the `n` keys, so
        // every bucket filled its window exactly. This rank's buckets are
        // those whose windows start in its share (the last rank also takes
        // the empty ones at `n`).
        let lo = at.partition_point(|&a| a < mine.start);
        let hi = if r + 1 == width { buckets } else { at.partition_point(|&a| a < mine.end) };
        let base = at[lo];
        // SAFETY: the windows of buckets `lo..hi` are this rank's alone:
        // no other rank's buckets start in its share of the keys.
        let span = unsafe { slots.row_mut(base, at[hi] - base) };
        let widest = at[lo..=hi].windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let (mut run, mut left) = (Vec::with_capacity(widest), Vec::new());
        for b in lo..hi {
            let window = at[b] - base..at[b + 1] - base;
            let values = b << shift..((b + 1) << shift).min(mk);
            run.clear();
            run.extend_from_slice(&span[window.clone()]);
            left.clear();
            left.extend_from_slice(&counts[values.clone()]);
            for &k in &run {
                let c = &mut left[k as usize - values.start];
                let slot = i64::from(*c) - 1;
                let local = slot - base as i64;
                if local < window.start as i64 || local >= window.end as i64 {
                    return false;
                }
                *c = slot as i32;
                span[local as usize] = k;
            }
            let fell =
                left.iter().zip(values).all(|(&c, k)| c == if k == 0 { 0 } else { counts[k - 1] });
            if !fell || !span[window].windows(2).all(|w| w[0] <= w[1]) {
                return false;
            }
        }
        true
    };
    // Relaxed: the flag publishes nothing, and the region's end orders
    // every rank's store before the load.
    let ok = AtomicBool::new(true);
    run_par(team, |par| {
        if !rank(&par) {
            ok.store(false, Ordering::Relaxed);
        }
    });
    ok.into_inner().then_some(sorted)
}

/// One full IS benchmark instance (keys + working storage).
pub struct IsBench {
    class: Class,
    p: IsParams,
    /// The key array (mutated by the iteration markers each rank pass),
    /// ranked in place: NPB copies it to `key_buff2` first, and nothing
    /// writes the keys while they are ranked.
    pub keys: Vec<i32>,
    /// Cumulative counts from the last ranking (NPB's `key_buff1`):
    /// `counts[k]` = number of keys `<= k`.
    pub counts: Vec<i32>,
    /// Partial-verification checks passed / failed so far.
    pub passed: usize,
    /// Failed partial-verification checks.
    pub failed: usize,
}

impl IsBench {
    /// Generate keys for `class` and zeroed working storage.
    pub fn new(class: Class) -> IsBench {
        IsBench::on_team(class, None)
    }

    /// [`IsBench::new`] with the keys generated on `team`: the same
    /// keys, bit for bit, at every width.
    pub fn on_team(class: Class, team: Option<&Team>) -> IsBench {
        let p = IsParams::for_class(class);
        let keys = create_seq(&p, team);
        IsBench { class, p, counts: vec![0; p.max_key], keys, passed: 0, failed: 0 }
    }

    /// Problem parameters.
    pub fn params(&self) -> &IsParams {
        &self.p
    }

    /// One ranking pass (NPB `rank(iteration)`): the markers, one
    /// parallel region running [`rank_pass`] on every rank, then
    /// [`prefix_and_check`] on the master.
    ///
    /// `hists` is scratch of `nthreads * max_key` entries, reused across
    /// iterations.
    pub fn rank<const SAFE: bool>(
        &mut self,
        iteration: usize,
        team: Option<&Team>,
        hists: &mut [i32],
    ) {
        let spot = mark(&mut self.keys, &self.p, iteration);
        let keys: &[i32] = &self.keys;
        // SAFETY: rank_pass writes `hists` and `counts` only under its
        // phase discipline (own window, then disjoint key ranges).
        let (sh, sc) = unsafe { (SharedMut::new(hists), SharedMut::new(&mut self.counts)) };
        run_par(team, |par| rank_pass::<_, SAFE>(&par, keys, &sh, &sc));

        let (passed, failed) =
            prefix_and_check(&mut self.counts, &self.p, self.class, iteration, &spot);
        self.passed += passed;
        self.failed += failed;
    }

    /// Full verification of the last ranking ([`full_verify`]) on `team`.
    pub fn full_verify(&self, team: Option<&Team>) -> bool {
        full_verify(&self.keys, &self.counts, team)
    }

    /// Run the full benchmark: untimed warm-up rank, `MAX_ITERATIONS`
    /// timed ranks, full verification. Returns `(verified, seconds)`.
    pub fn run<const SAFE: bool>(&mut self, team: Option<&Team>) -> (Verified, f64) {
        let nthreads = team.map_or(1, Team::size);
        let mut hists = vec![0i32; nthreads * self.p.max_key];

        self.passed = 0;
        self.failed = 0;
        self.rank::<SAFE>(1, team, &mut hists); // untimed warm-up
        self.passed = 0;
        self.failed = 0;

        // Timed section starts here: drop the warm-up rank's spans so the
        // profile covers exactly what `secs` covers. `full_verify` stays
        // outside both the timer and the profile, as in is.c.
        trace::reset();
        let t0 = std::time::Instant::now();
        for it in 1..=MAX_ITERATIONS {
            let _phase = trace::scope("rank");
            self.rank::<SAFE>(it, team, &mut hists);
        }
        let secs = t0.elapsed().as_secs_f64();

        let full_ok = self.full_verify(team);
        let expected_passed = TEST_ARRAY_SIZE * MAX_ITERATIONS;
        let verified = if full_ok && self.failed == 0 && self.passed == expected_passed {
            Verified::Success
        } else {
            Verified::Failure
        };
        (verified, secs)
    }
}

/// Bit-exact signature of a ranking: the integrity hash over the final
/// key-population counts (the quantity `full_verify` scatters from).
/// Counts are far below 2^53, so the lift to f64 is exact.
pub fn result_sig(counts: &[i32]) -> u64 {
    let as_f64: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    npb_core::guard::state_hash(&[&as_f64])
}

/// Run the IS benchmark and produce the standard report. NPB counts
/// Mop/s as ranked keys per second.
pub fn run(class: Class, style: Style, team: Option<&Team>) -> BenchReport {
    let mut bench = IsBench::on_team(class, team);
    let (verified, secs) = match style {
        Style::Opt => bench.run::<false>(team),
        Style::Safe => bench.run::<true>(team),
    };
    let p = bench.params();
    BenchReport::new(
        "IS",
        class,
        style,
        team.map_or(0, Team::size),
        (p.num_keys, 0, 0),
        MAX_ITERATIONS,
        secs,
        (MAX_ITERATIONS * p.num_keys) as f64 * 1.0e-6 / secs.max(1e-12),
        verified,
        result_sig(&bench.counts),
        GuardStats::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_serial_verifies() {
        let mut b = IsBench::new(Class::S);
        let (v, _) = b.run::<false>(None);
        assert_eq!(b.failed, 0, "partial checks failed: passed={} failed={}", b.passed, b.failed);
        assert_eq!(v, Verified::Success);
    }

    #[test]
    fn class_s_safe_style_verifies() {
        let mut b = IsBench::new(Class::S);
        let (v, _) = b.run::<true>(None);
        assert_eq!(v, Verified::Success);
    }

    #[test]
    fn class_s_parallel_matches_serial_counts() {
        let mut serial = IsBench::new(Class::S);
        serial.run::<false>(None);
        for n in [2usize, 4] {
            let team = Team::new(n);
            let mut par = IsBench::new(Class::S);
            let (v, _) = par.run::<false>(Some(&team));
            assert_eq!(v, Verified::Success, "{n} threads");
            assert_eq!(par.counts, serial.counts, "{n} threads");
        }
    }

    #[test]
    fn key_sequence_is_in_range_and_deterministic() {
        let p = IsParams::for_class(Class::S);
        let k1 = create_seq(&p, None);
        let k2 = create_seq(&p, None);
        assert_eq!(k1, k2);
        assert!(k1.iter().all(|&k| k >= 0 && (k as usize) < p.max_key));
        // Keys are a sum of 4 uniforms: mean should be max_key/2.
        let mean: f64 = k1.iter().map(|&k| k as f64).sum::<f64>() / k1.len() as f64;
        assert!((mean / p.max_key as f64 - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn full_verify_detects_corruption() {
        let mut b = IsBench::new(Class::S);
        let mut hists = vec![0i32; b.params().max_key];
        b.rank::<false>(1, None, &mut hists);
        assert!(b.full_verify(None));
        // Corrupt a cumulative count for a key value that actually occurs
        // (keys follow a Bates distribution, so the far tails are empty):
        // the scatter then leaves a hole / collides, breaking sortedness.
        let mid = b.params().max_key / 2;
        assert!(b.counts[mid] > b.counts[mid - 1], "mid bin unexpectedly empty");
        b.counts[mid] += 1;
        assert!(!b.full_verify(None));
    }

    /// The code the two rewrites replaced, kept to test them against.
    mod oracle {
        use super::*;

        /// The one-stream key generator: key `i` is draws `4i+1 ..= 4i+4`.
        pub fn create_seq(p: &IsParams) -> Vec<i32> {
            let mut rng = Randlc::new(SEED_DEFAULT);
            let k = (p.max_key / 4) as f64;
            (0..p.num_keys)
                .map(|_| {
                    let mut x = rng.next_f64();
                    x += rng.next_f64();
                    x += rng.next_f64();
                    x += rng.next_f64();
                    (k * x) as i32
                })
                .collect()
        }

        /// The per-key scatter in key order, and its verdict: sorted, and
        /// the same histogram as the input. Panics on an out-of-range slot.
        pub fn full_verify(keys: &[i32], counts: &[i32]) -> (Vec<i32>, bool) {
            let mut counts = counts.to_vec();
            let mut sorted = vec![0i32; keys.len()];
            for &k in keys {
                counts[k as usize] -= 1;
                sorted[counts[k as usize] as usize] = k;
            }
            let is_sorted = sorted.windows(2).all(|w| w[0] <= w[1]);
            let mut h1 = vec![0i64; counts.len()];
            let mut h2 = vec![0i64; counts.len()];
            for &k in keys {
                h1[k as usize] += 1;
            }
            for &k in &sorted {
                h2[k as usize] += 1;
            }
            (sorted, is_sorted && h1 == h2)
        }
    }

    /// The keys and cumulative counts of one ranking pass at `class`.
    fn ranked(class: Class) -> IsBench {
        let mut b = IsBench::new(class);
        let mut hists = vec![0i32; b.params().max_key];
        b.rank::<false>(1, None, &mut hists);
        b
    }

    /// The keys of every rank's jumped lanes against the one stream: at
    /// classes S and W, and at key counts that ranks × four lanes do not
    /// split evenly, down to ranks with no keys; serially and on Teams of
    /// 1–4 (one self-scheduled, which set-up must not follow).
    #[test]
    fn keys_by_rank_equal_the_one_stream_keys() {
        let teams: Vec<Team> = (1..=4).map(Team::new).collect();
        let feedback = Team::new(3);
        feedback.set_sched(npb_runtime::Sched::Feedback);
        let runs: Vec<Option<&Team>> =
            std::iter::once(None).chain(teams.iter().chain([&feedback]).map(Some)).collect();
        let mut cases: Vec<IsParams> = [Class::S, Class::W].map(IsParams::for_class).to_vec();
        for num_keys in [0, 1, 2, 3, 5, 6, 7, 9, 13, 1023, 4097] {
            cases.push(IsParams { num_keys, ..IsParams::for_class(Class::S) });
        }
        for p in cases {
            let want = oracle::create_seq(&p);
            for &team in &runs {
                let width = team.map_or(0, Team::size);
                assert!(create_seq(&p, team) == want, "{} keys, width {width}", p.num_keys);
            }
        }
    }

    /// Serially and on Teams of 1–4: the bucketed scatter leaves the
    /// keys where the per-key scatter puts them.
    #[test]
    fn bucketed_scatter_equals_the_per_key_scatter() {
        let teams: Vec<Team> = (1..=4).map(Team::new).collect();
        for class in [Class::S, Class::W] {
            let b = ranked(class);
            let (want, ok) = oracle::full_verify(&b.keys, &b.counts);
            assert!(ok, "class {class:?}");
            for team in std::iter::once(None).chain(teams.iter().map(Some)) {
                let sorted = sort_checked(&b.keys, &b.counts, team).expect("in range");
                assert!(sorted == want, "class {class:?}, width {}", team.map_or(0, Team::size));
            }
        }
    }

    /// Planted corruptions, each judged on Teams of 1–4 as it is
    /// serially (`None`, the procs parent's call): a count bumped at a
    /// populated value, one bumped at an empty value, the total off by
    /// one each way, a bucket's window moved by one, and a key out of
    /// range each way. The counts as ranked pass at every width.
    #[test]
    fn team_verdicts_equal_the_serial_verdict_on_planted_corruptions() {
        let b = ranked(Class::S);
        let mk = b.params().max_key;
        let mid = mk / 2;
        assert!(b.counts[mid] > b.counts[mid - 1], "mid value unexpectedly empty");
        let empty = (1..mk).find(|&k| b.counts[k] == b.counts[k - 1]).unwrap();
        let bumped = |k: usize, d: i32| {
            let mut c = b.counts.clone();
            c[k] += d;
            c
        };
        let mut cases = vec![
            ("as ranked", b.keys.clone(), b.counts.clone()),
            ("populated value +1", b.keys.clone(), bumped(mid, 1)),
            ("populated value -1", b.keys.clone(), bumped(mid, -1)),
            ("empty value +1", b.keys.clone(), bumped(empty, 1)),
            ("bucket window moved", b.keys.clone(), bumped(mid - 1, 1)),
            ("total +1", b.keys.clone(), bumped(mk - 1, 1)),
            ("total -1", b.keys.clone(), bumped(mk - 1, -1)),
        ];
        for (what, bad) in [("key past the top", mk as i32), ("negative key", -1)] {
            let mut keys = b.keys.clone();
            keys[b.keys.len() / 3] = bad;
            cases.push((what, keys, b.counts.clone()));
        }
        let teams: Vec<Team> = (1..=4).map(Team::new).collect();
        for (what, keys, counts) in &cases {
            let serial = full_verify(keys, counts, None);
            assert_eq!(serial, *what == "as ranked", "{what}, serial");
            for team in &teams {
                assert_eq!(
                    full_verify(keys, counts, Some(team)),
                    serial,
                    "{what}, width {}",
                    team.size()
                );
            }
        }
    }

    /// Seeded corruptions of counts at values some key takes, small
    /// enough that the per-key scatter stays in range: both checks
    /// reject every one, and accept the counts as ranked.
    #[test]
    fn verdicts_agree_with_the_oracle_on_occupied_values() {
        let b = ranked(Class::S);
        let (keys, n) = (&b.keys, b.keys.len() as i32);
        assert!(full_verify(keys, &b.counts, None) && oracle::full_verify(keys, &b.counts).1);
        let mut rng = Randlc::new(SEED_DEFAULT);
        let mut tried = 0;
        while tried < 64 {
            let k = 1 + (rng.next_f64() * (b.counts.len() - 1) as f64) as usize;
            let taken = b.counts[k] - b.counts[k - 1];
            let delta = [-2, -1, 1, 2][(rng.next_f64() * 4.0) as usize];
            let c = b.counts[k] + delta;
            if taken == 0 || c - taken < 0 || c > n {
                continue;
            }
            let mut counts = b.counts.clone();
            counts[k] = c;
            assert!(!oracle::full_verify(keys, &counts).1, "oracle, counts[{k}] {delta:+}");
            assert!(!full_verify(keys, &counts, None), "counts[{k}] {delta:+}");
            tried += 1;
        }
    }

    /// The tightening: a wrong count at a value no key takes is never read
    /// by the scatter, so the sorted array and its histogram are intact
    /// and the histogram compare accepts it. The exact check rejects it,
    /// because that count did not fall to its predecessor's.
    #[test]
    fn a_wrong_count_at_an_empty_value_fails_only_the_exact_check() {
        let b = ranked(Class::S);
        // Keys are a sum of four uniforms, so the far tails are empty
        // (value 1 holds the first iteration's marker).
        let k = (1..b.counts.len()).find(|&k| b.counts[k] == b.counts[k - 1]).unwrap();
        assert!(k < 16, "first empty value {k}");
        let mut counts = b.counts.clone();
        counts[k] += 7;
        assert!(oracle::full_verify(&b.keys, &counts).1);
        assert!(!full_verify(&b.keys, &counts, None));
    }

    /// A count that moves a slot past its bucket's window stops the
    /// scatter there, although the slot is inside the array: the window
    /// after it still holds keys waiting to be scattered.
    #[test]
    fn a_slot_outside_its_bucket_window_stops_the_scatter() {
        let b = ranked(Class::S);
        let mk = b.params().max_key;
        let width = mk / VERIFY_BUCKETS;
        // The lowest value of a middle bucket, and the bucket's window.
        let k = mk / 2;
        let (lo, hi) = (b.counts[k - 1], b.counts[k + width - 1]);
        assert!(b.counts[k] > lo && (hi as usize) < b.keys.len());
        let mut counts = b.counts.clone();
        counts[k] += hi - lo;
        assert!(sort_checked(&b.keys, &counts, None).is_none());
    }

    /// Counts that send a slot out of range fail verification; the
    /// per-key scatter indexed out of bounds on both.
    #[test]
    fn out_of_range_counts_fail_instead_of_panicking() {
        let b = ranked(Class::S);
        let mk = b.params().max_key;
        let mut counts = b.counts.clone();
        counts[mk / 2] = 0; // slot -1
        assert!(!full_verify(&b.keys, &counts, None));
        // The top value holds the first iteration's other marker.
        assert_eq!(b.keys.iter().max(), Some(&(mk as i32 - 1)));
        let mut counts = b.counts.clone();
        counts[mk - 1] += 5; // slots past the end
        assert!(!full_verify(&b.keys, &counts, None));
        // Counts that give the top value's bucket no room, and a count
        // past the key count.
        assert!(!full_verify(&[0, 1, 2, 3], &[1, 2, 4, 4], None));
        assert!(!full_verify(&[0, 1, 2, 3], &[9, 2, 3, 4], None));
        let mut keys = b.keys.clone();
        keys[3] = mk as i32;
        assert!(!full_verify(&keys, &b.counts, None));
        keys[3] = -1;
        assert!(!full_verify(&keys, &b.counts, None));
    }

    #[test]
    fn report_runs() {
        let rep = run(Class::S, Style::Opt, None);
        assert!(rep.verified.is_success());
        assert_eq!(rep.niter, MAX_ITERATIONS);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    /// Counting-sort ranking invariants on seeded key sets: the
    /// cumulative counts are monotone, end at the key count, and the
    /// scatter produces a sorted permutation.
    #[test]
    fn ranking_sorts_arbitrary_keys() {
        let mk = 512usize;
        let mut rng = Randlc::new(SEED_DEFAULT);
        for case in 0..24 {
            let len = 1 + (rng.next_f64() * 3999.0) as usize;
            let keys: Vec<i32> = (0..len).map(|_| (rng.next_f64() * mk as f64) as i32).collect();
            let mut counts = vec![0i32; mk];
            for &k in &keys {
                counts[k as usize] += 1;
            }
            for k in 1..mk {
                counts[k] += counts[k - 1];
            }
            assert_eq!(counts[mk - 1] as usize, keys.len(), "case {case}");
            assert!(counts.windows(2).all(|w| w[0] <= w[1]));
            let sorted = sort_checked(&keys, &counts, None).expect("exact counts scatter in range");
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect, "case {case}");
            assert!(full_verify(&keys, &counts, None), "case {case}");
        }
    }

    /// Thread-count invariance of the full rank pass on the real
    /// benchmark keys.
    #[test]
    fn rank_invariant_under_team_size() {
        let mut serial = IsBench::new(Class::S);
        let mut hists = vec![0i32; serial.params().max_key];
        serial.rank::<false>(1, None, &mut hists);
        for nthreads in 1usize..5 {
            let team = Team::new(nthreads);
            let mut par = IsBench::new(Class::S);
            let mut hists = vec![0i32; nthreads * par.params().max_key];
            par.rank::<false>(1, Some(&team), &mut hists);
            assert_eq!(serial.counts, par.counts, "{nthreads} threads");
        }
    }
}
