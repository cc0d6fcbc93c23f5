//! The block-diagonal eigenvector transforms of SP's diagonalized ADI:
//! `txinvr` (into characteristic variables before the x sweep), `ninvr`
//! / `pinvr` (rotations between sweeps), `tzetar` (back to conserved
//! variables after the z sweep).
//!
//! Each is pointwise, so each is applied inside a sweep rather than as a
//! pass of its own: `txinvr` as the x sweep gathers an interior point,
//! `ninvr`, `pinvr` and `tzetar` as the x, y and z sweeps store one
//! (`crate::solve`). `r` holds the point's five `rhs` components, one
//! point to a lane; every lane receives `sp.f`'s scalar operation
//! sequence.

use npb_cfd_common::Consts;
use npb_core::lane::Lane;

/// `txinvr`: multiply `r` by T_ξ⁻¹ P, given 1/ρ `ru1`, the velocity
/// `[u, v, w]`, the speed of sound `ac` and `qs` at the point.
#[inline(always)]
pub(crate) fn txinvr<L: Lane>(c: &Consts, r: &mut [L; 5], ru1: L, vel: [L; 3], ac: L, qs: L) {
    let [uu, vv, ww] = vel;
    let [r1, r2, r3, r4, r5] = *r;
    let ac2inv = ac * ac;
    let bt = L::splat(c.bt);

    let t1 = L::splat(c.c2) / ac2inv * (qs * r1 - uu * r2 - vv * r3 - ww * r4 + r5);
    let t2 = bt * ru1 * (uu * r1 - r2);
    let t3 = (bt * ru1 * ac) * t1;

    *r = [r1 - t1, -ru1 * (ww * r1 - r4), ru1 * (vv * r1 - r3), -t2 + t3, t2 + t3];
}

/// `ninvr`: block-diagonal rotation applied after the x sweep.
#[inline(always)]
pub(crate) fn ninvr<L: Lane>(c: &Consts, r: &mut [L; 5]) {
    let [r1, r2, r3, r4, r5] = *r;
    let bt = L::splat(c.bt);
    let t1 = bt * r3;
    let t2 = L::splat(0.5) * (r4 + r5);
    *r = [-r2, r1, bt * (r4 - r5), -t1 + t2, t1 + t2];
}

/// `pinvr`: block-diagonal rotation applied after the y sweep.
#[inline(always)]
pub(crate) fn pinvr<L: Lane>(c: &Consts, r: &mut [L; 5]) {
    let [r1, r2, r3, r4, r5] = *r;
    let bt = L::splat(c.bt);
    let t1 = bt * r1;
    let t2 = L::splat(0.5) * (r4 + r5);
    *r = [bt * (r4 - r5), -r3, r2, -t1 + t2, t1 + t2];
}

/// `tzetar`: transform back to conserved-variable increments after the
/// z sweep, given the velocity `[u, v, w]`, the speed of sound `ac`,
/// `qs` and the density `uzik1` (`u`'s component 0) at the point.
#[inline(always)]
pub(crate) fn tzetar<L: Lane>(c: &Consts, r: &mut [L; 5], vel: [L; 3], ac: L, qs: L, uzik1: L) {
    let [xvel, yvel, zvel] = vel;
    let [r1, r2, r3, r4, r5] = *r;
    let ac2u = ac * ac;
    let btuz = L::splat(c.bt) * uzik1;

    let t1 = btuz / ac * (r4 + r5);
    let t2 = r3 + t1;
    let t3 = btuz * (r4 - r5);

    *r = [
        t2,
        -uzik1 * r2 + xvel * t2,
        uzik1 * r1 + yvel * t2,
        zvel * t2 + t3,
        uzik1 * (-xvel * r2 + yvel * r1) + qs * t2 + L::splat(c.c2iv) * ac2u * t1 + zvel * t3,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use npb_cfd_common::Fields;

    fn setup() -> (Fields, Consts) {
        oracle::setup(10, 10, 10)
    }

    #[test]
    fn ninvr_then_its_inverse_relation() {
        // ninvr is an orthogonal-ish rotation: applying it four times
        // must give the identity on components (1,2) (a quarter-turn in
        // that plane) — spot-check the structure instead: two
        // applications negate r1, r2.
        let (f, c) = setup();
        let at = f.idx5(0, 4, 4, 4);
        let mut r: [f64; 5] = std::array::from_fn(|m| f.rhs[at + m]);
        ninvr(&c, &mut r);
        ninvr(&c, &mut r);
        assert!((r[0] + f.rhs[at]).abs() < 1e-14);
        assert!((r[1] + f.rhs[at + 1]).abs() < 1e-14);
    }

    /// Each helper, at every interior point of the grid, reproduces the
    /// whole-grid pass it replaced to the last bit.
    #[test]
    fn helpers_match_the_oracle_passes_bit_for_bit() {
        let (start, c) = setup();
        type Pass = fn(&mut Fields, &Consts);
        let passes: [(&str, Pass); 4] = [
            ("txinvr", oracle::txinvr),
            ("ninvr", oracle::ninvr),
            ("pinvr", oracle::pinvr),
            ("tzetar", oracle::tzetar),
        ];
        for (which, (name, pass)) in passes.into_iter().enumerate() {
            let mut want = start.clone();
            pass(&mut want, &c);
            let mut got = start.clone();
            for k in 1..got.nz - 1 {
                for j in 1..got.ny - 1 {
                    for i in 1..got.nx - 1 {
                        let (s, at) = (got.idx(i, j, k), got.idx5(0, i, j, k));
                        let vel = [got.us[s], got.vs[s], got.ws[s]];
                        let (ac, qs) = (got.speed[s], got.qs[s]);
                        let r: &mut [f64; 5] = (&mut got.rhs[at..at + 5]).try_into().unwrap();
                        match which {
                            0 => txinvr(&c, r, got.rho_i[s], vel, ac, qs),
                            1 => ninvr(&c, r),
                            2 => pinvr(&c, r),
                            _ => tzetar(&c, r, vel, ac, qs, got.u[at]),
                        }
                    }
                }
            }
            let bits = |f: &Fields| f.rhs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_ne!(bits(&want), bits(&start), "{name} did nothing");
            assert_eq!(bits(&got), bits(&want), "{name}");
        }
    }

    /// The sweeps apply the transforms at interior points only: after all
    /// three, every boundary point of `rhs` holds the value it started
    /// with (`oracle::setup` makes those values non-zero, so a transform
    /// applied there would show).
    #[test]
    fn transforms_preserve_boundary() {
        let (mut f, c) = setup();
        let before = f.rhs.clone();
        crate::solve::x_solve::<true>(&mut f, &c, None);
        crate::solve::y_solve::<true>(&mut f, &c, None);
        crate::solve::z_solve::<true>(&mut f, &c, None);
        let (nx, ny, nz) = (f.nx, f.ny, f.nz);
        let mut moved = 0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let at = f.idx5(0, i, j, k);
                    let same = f.rhs[at..at + 5] == before[at..at + 5];
                    if [i, j, k].contains(&0) || i == nx - 1 || j == ny - 1 || k == nz - 1 {
                        assert!(same, "boundary point ({i}, {j}, {k})");
                    } else {
                        moved += usize::from(!same);
                    }
                }
            }
        }
        assert_eq!(moved, (nx - 2) * (ny - 2) * (nz - 2), "every interior point is solved");
    }
}
