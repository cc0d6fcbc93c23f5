//! Cross-crate property tests: seeded team sizes, grid shapes and
//! problem instances against the invariants the suite relies on.
//!
//! Case generation is driven by the NPB linear-congruential generator
//! (`npb_core::Randlc`) instead of a property-testing framework, so the
//! whole suite is deterministic and builds offline with no external
//! dependencies.

use npb::{Partials, SharedMut, Team};
use npb_core::{Randlc, Style};

fn rng() -> Randlc {
    Randlc::new(npb_core::SEED_DEFAULT)
}

/// Uniform integer in `lo..hi` from the NPB stream.
fn draw(rng: &mut Randlc, lo: usize, hi: usize) -> usize {
    lo + (rng.next_f64() * (hi - lo) as f64) as usize
}

/// A team of any size computes the same prefix-partitioned map as
/// the serial path, for sampled lengths.
#[test]
fn team_map_matches_serial() {
    let mut rng = rng();
    for _case in 0..16 {
        let n = draw(&mut rng, 1, 2000);
        let threads = draw(&mut rng, 1, 9);
        let mut serial = vec![0.0f64; n];
        for (i, v) in serial.iter_mut().enumerate() {
            *v = (i as f64).sin();
        }
        let team = Team::new(threads);
        let mut par = vec![0.0f64; n];
        // SAFETY: each rank writes only its own `p.range`.
        let s = unsafe { SharedMut::new(&mut par) };
        team.exec(|p| {
            for i in p.range(n) {
                s.set::<true>(i, (i as f64).sin());
            }
        });
        drop(s);
        assert_eq!(serial, par, "n {n}, threads {threads}");
    }
}

/// Rank-ordered reduction is deterministic and exact for integers.
#[test]
fn reduction_is_exact_for_integers() {
    let mut rng = rng();
    for _case in 0..16 {
        let n = draw(&mut rng, 1, 5000);
        let threads = draw(&mut rng, 1, 7);
        let team = Team::new(threads);
        let partials = Partials::new(threads);
        team.exec(|p| {
            let mut s = 0.0;
            for i in p.range(n) {
                s += i as f64;
            }
            partials.set(p.tid(), s);
        });
        assert_eq!(partials.sum(), (n * (n - 1) / 2) as f64, "n {n}, threads {threads}");
    }
}

/// The basic-op checksums agree across layouts and styles for
/// sampled (small) grids.
#[test]
fn cfd_ops_variants_agree() {
    use npb_cfd_ops::{run_op, Layout, Op, OpConfig};
    let mut rng = rng();
    for _case in 0..16 {
        let cfg = OpConfig {
            n1: draw(&mut rng, 5, 14),
            n2: draw(&mut rng, 5, 14),
            n3: draw(&mut rng, 5, 14),
        };
        for op in [Op::Assignment, Op::Stencil1, Op::ReductionSum] {
            let a = run_op(op, Layout::Linearized, Style::Opt, &cfg, None).checksum;
            let b = run_op(op, Layout::MultiDim, Style::Safe, &cfg, None).checksum;
            let tol = 1e-9 * a.abs().max(1.0);
            assert!((a - b).abs() <= tol, "{op:?} on {cfg:?}: {a} vs {b}");
        }
    }
}

/// LINPACK and blocked LU both solve seeded random systems, any block
/// size.
#[test]
fn lu_factorizations_solve() {
    use npb_jgf::{dgefa, dgesl, getrf_blocked, getrs, Matrix};
    let mut rng = rng();
    for _case in 0..16 {
        let n = draw(&mut rng, 1, 60);
        let nb = draw(&mut rng, 1, 70);
        let mut m1 = Matrix::random(n, 314159265.0);
        let mut b1 = m1.row_sums();
        let p1 = dgefa::<true>(&mut m1);
        dgesl::<true>(&m1, &p1, &mut b1);
        let mut m2 = Matrix::random(n, 314159265.0);
        let mut b2 = m2.row_sums();
        let p2 = getrf_blocked::<true>(&mut m2, nb);
        getrs::<true>(&m2, &p2, &mut b2);
        for i in 0..n {
            assert!((b1[i] - 1.0).abs() < 1e-8, "n {n}: dgefa x[{i}] = {}", b1[i]);
            assert!((b2[i] - 1.0).abs() < 1e-8, "n {n}, nb {nb}: blocked x[{i}] = {}", b2[i]);
        }
    }
}

/// The NPB generator's jump-ahead matches stepping for sampled
/// offsets (the property EP/FT batch seeding relies on).
#[test]
fn rng_jump_matches_stepping() {
    let mut rng = rng();
    for _case in 0..24 {
        let n = draw(&mut rng, 0, 3000) as u64;
        let mut a = npb_core::Randlc::new(npb_core::SEED_DEFAULT);
        a.jump(n);
        let mut b = npb_core::Randlc::new(npb_core::SEED_DEFAULT);
        for _ in 0..n {
            b.next_f64();
        }
        assert_eq!(a, b, "jump({n})");
    }
}
