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

use npb_core::{ld, st, trace, BenchReport, Class, Randlc, Style, Verified, SEED_DEFAULT};
use npb_runtime::{run_par, SharedMut, Team};

/// Generate the key sequence exactly as `create_seq` in `is.c`: each key
/// is `MAX_KEY/4` times the sum of four consecutive uniform deviates.
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

/// One full IS benchmark instance (keys + working storage).
pub struct IsBench {
    class: Class,
    p: IsParams,
    /// The key array (mutated by the iteration markers each rank pass).
    pub keys: Vec<i32>,
    /// Snapshot of the keys used by the last ranking (NPB's `key_buff2`).
    pub keys_snapshot: Vec<i32>,
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
        let p = IsParams::for_class(class);
        let keys = create_seq(&p);
        IsBench {
            class,
            p,
            keys_snapshot: vec![0; keys.len()],
            counts: vec![0; p.max_key],
            keys,
            passed: 0,
            failed: 0,
        }
    }

    /// Problem parameters.
    pub fn params(&self) -> &IsParams {
        &self.p
    }

    /// One ranking pass (NPB `rank(iteration)`), parallelized over the
    /// team with thread-private histograms merged per key range.
    ///
    /// `hists` is scratch of `nthreads * max_key` entries, reused across
    /// iterations.
    ///
    /// Both parallel loops go through [`npb_runtime::Par::for_chunks`],
    /// so `--sched guided|feedback` applies: the histogram pass counts
    /// whichever keys a rank claims into that rank's *own* window, and
    /// integer addition is exact and commutative, so the merged counts —
    /// and the result signature — are identical under any schedule. The
    /// merge pass is disjoint per-key writes.
    pub fn rank<const SAFE: bool>(
        &mut self,
        iteration: usize,
        team: Option<&Team>,
        hists: &mut [i32],
    ) {
        let nthreads = team.map_or(1, Team::size);
        let mk = self.p.max_key;
        let nk = self.p.num_keys;
        assert_eq!(hists.len(), nthreads * mk);

        // Iteration markers, exactly as in is.c.
        self.keys[iteration] = iteration as i32;
        self.keys[iteration + MAX_ITERATIONS] = (mk - iteration) as i32;

        let mut spot = [0i32; TEST_ARRAY_SIZE];
        for (i, s) in spot.iter_mut().enumerate() {
            *s = self.keys[self.p.test_index[i]];
        }

        self.keys_snapshot.copy_from_slice(&self.keys);

        let keys: &[i32] = &self.keys_snapshot;
        // SAFETY: each thread writes only its own `mk`-sized window of
        // `hists` before the barrier, and only its own key-range window of
        // `counts` after it.
        let sh = unsafe { SharedMut::new(hists) };
        let sc = unsafe { SharedMut::new(&mut self.counts) };
        run_par(team, |par| {
            let t = par.tid();
            let base = t * mk;
            // Clear my histogram window, then histogram my key range.
            for k in 0..mk {
                sh.set::<SAFE>(base + k, 0);
            }
            par.for_chunks(nk, |chunk| {
                for i in chunk {
                    let key = ld::<_, SAFE>(keys, i) as usize;
                    sh.set::<SAFE>(base + key, sh.get::<SAFE>(base + key) + 1);
                }
            });
            par.barrier();
            // Merge the private histograms across threads per key.
            par.for_chunks(mk, |chunk| {
                for k in chunk {
                    let mut sum = 0i32;
                    for tt in 0..par.num_threads() {
                        sum += sh.get::<SAFE>(tt * mk + k);
                    }
                    sc.set::<SAFE>(k, sum);
                }
            });
        });

        // Cumulative ranks: serial prefix sum by the master (cheap
        // relative to the histogram; the original OpenMP IS does the same
        // within threads but the ordering here is the paper's).
        let counts = &mut self.counts;
        for k in 1..mk {
            let prev = ld::<_, SAFE>(counts, k - 1);
            let cur = ld::<_, SAFE>(counts, k);
            st::<_, SAFE>(counts, k, cur + prev);
        }

        // Partial verification against the published spot ranks.
        for i in 0..TEST_ARRAY_SIZE {
            let k = spot[i];
            if 0 < k && (k as usize) < nk {
                let expected = self.p.expected_rank(self.class, i, iteration);
                let got = self.counts[k as usize - 1] as i64;
                if got == expected {
                    self.passed += 1;
                } else {
                    self.failed += 1;
                }
            }
        }
    }

    /// Full verification (NPB `full_verify`): scatter the keys to their
    /// ranked positions and check the result is sorted and a permutation
    /// of the input.
    pub fn full_verify(&mut self) -> bool {
        let mut counts = self.counts.clone();
        let mut sorted = vec![0i32; self.p.num_keys];
        for &k in &self.keys_snapshot {
            counts[k as usize] -= 1;
            sorted[counts[k as usize] as usize] = k;
        }
        let is_sorted = sorted.windows(2).all(|w| w[0] <= w[1]);
        // Permutation check: histogram equality with the snapshot.
        let mut h1 = vec![0i64; self.p.max_key];
        let mut h2 = vec![0i64; self.p.max_key];
        for &k in &self.keys_snapshot {
            h1[k as usize] += 1;
        }
        for &k in &sorted {
            h2[k as usize] += 1;
        }
        is_sorted && h1 == h2
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

        let full_ok = self.full_verify();
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
    let mut bench = IsBench::new(class);
    let (verified, secs) = match style {
        Style::Opt => bench.run::<false>(team),
        Style::Safe => bench.run::<true>(team),
    };
    let p = bench.params();
    BenchReport {
        name: "IS",
        class,
        size: (p.num_keys, 0, 0),
        niter: MAX_ITERATIONS,
        time_secs: secs,
        mops: (MAX_ITERATIONS * p.num_keys) as f64 * 1.0e-6 / secs.max(1e-12),
        threads: team.map_or(0, Team::size),
        style,
        verified,
        recoveries: 0,
        checkpoint_count: 0,
        checkpoint_overhead_s: 0.0,
        regions: Vec::new(),
        result_sig: Some(result_sig(&bench.counts)),
        rank_dispositions: Vec::new(),
    }
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
        let k1 = create_seq(&p);
        let k2 = create_seq(&p);
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
        assert!(b.full_verify());
        // Corrupt a cumulative count for a key value that actually occurs
        // (keys follow a Bates distribution, so the far tails are empty):
        // the scatter then leaves a hole / collides, breaking sortedness.
        let mid = b.params().max_key / 2;
        assert!(b.counts[mid] > b.counts[mid - 1], "mid bin unexpectedly empty");
        b.counts[mid] += 1;
        assert!(!b.full_verify());
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
            // Scatter to ranked positions.
            let mut c = counts.clone();
            let mut sorted = vec![0i32; keys.len()];
            for &k in &keys {
                c[k as usize] -= 1;
                sorted[c[k as usize] as usize] = k;
            }
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "case {case}");
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect, "case {case}");
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
