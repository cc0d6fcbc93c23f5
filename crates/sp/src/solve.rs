//! The three scalar-pentadiagonal line sweeps of SP, each with the
//! eigenvector transforms on either side of it.
//!
//! Each sweep factors into: build the three pentadiagonal operators
//! (`lhs` for the convective eigenvalue u, `lhsp`/`lhsm` for u±c) along
//! one grid line, then run the specialized two-pass Gaussian elimination
//! of `sp.f` (`x_solve`/`y_solve`/`z_solve`) on the five RHS components.
//!
//! The three are one body, [`SweepPlanes`], generic over the direction
//! and over the [`Lane`] width, in BT's shape: the lines of a plane are
//! independent systems, so `L::N` adjacent ones go one to a lane
//! (`npb_cfd_common::lines`). A group's five `rhs` components are
//! gathered once into a lane-major scratch, solved there, and stored once;
//! the pointwise transforms of `crate::inv` ride on that gather and store
//! — `txinvr` as the x sweep gathers an interior point, `ninvr`, `pinvr`,
//! `tzetar` as the x, y, z sweeps store one — so a step is five regions
//! (`compute_rhs`, x, y, z, `add`), not nine. The lane operations are
//! lane-wise IEEE `+ − × ÷`, every value keeps `sp.f`'s operation
//! sequence and every point has one owner, so `rhs` comes out bit for bit
//! the same at any width and thread count.

use crate::inv::{ninvr, pinvr, txinvr, tzetar};
use npb_cfd_common::lines::{Axes, Group};
use npb_cfd_common::{Consts, Fields};
use npb_core::lane::{self, Kernel, Lane};
use npb_core::{ld, st};
use npb_runtime::{run_par, SharedMut, Team};
use std::ops::Range;

/// One row of a pentadiagonal operator, in every lane: band `m`
/// multiplies the unknown at `i + m - 2`.
type Band<L> = [L; 5];

/// A direction's `dt*t?1`, `dt*t?2`, `2*dt*t?1`, in every lane.
#[derive(Clone, Copy)]
struct Steps<L> {
    dtt1: L,
    dtt2: L,
    c2dtt1: L,
}

/// Build the three pentadiagonal operators `[lhs, lhsp, lhsm]` of a line
/// whose convective velocity, viscous-eigenvalue bound and speed of sound
/// are `cv`, `rho`, `spd`.
#[inline(always)]
fn build_lhs<L: Lane>(
    [lhs, lhsp, lhsm]: [&mut [Band<L>]; 3],
    [cv, rho, spd]: [&[L]; 3],
    t: Steps<L>,
    c: &Consts,
) {
    let n = lhs.len();
    let (zero, one) = (L::splat(0.0), L::splat(1.0));
    let (z1, z4) = (L::splat(c.comz1), L::splat(c.comz4));
    let (z5, z6) = (L::splat(c.comz5), L::splat(c.comz6));

    // Boundary rows are the identity.
    for i in [0, n - 1] {
        lhs[i] = [zero, zero, one, zero, zero];
        lhsp[i] = lhs[i];
        lhsm[i] = lhs[i];
    }

    for i in 1..n - 1 {
        lhs[i] = [
            zero,
            -t.dtt2 * cv[i - 1] - t.dtt1 * rho[i - 1],
            one + t.c2dtt1 * rho[i],
            t.dtt2 * cv[i + 1] - t.dtt1 * rho[i + 1],
            zero,
        ];
    }

    // Fourth-order dissipation terms.
    let b = &mut lhs[1];
    [b[2], b[3], b[4]] = [b[2] + z5, b[3] - z4, b[4] + z1];
    let b = &mut lhs[2];
    [b[1], b[2], b[3], b[4]] = [b[1] - z4, b[2] + z6, b[3] - z4, b[4] + z1];
    for b in &mut lhs[3..n - 3] {
        *b = [b[0] + z1, b[1] - z4, b[2] + z6, b[3] - z4, b[4] + z1];
    }
    let b = &mut lhs[n - 3];
    [b[0], b[1], b[2], b[3]] = [b[0] + z1, b[1] - z4, b[2] + z6, b[3] - z4];
    let b = &mut lhs[n - 2];
    [b[0], b[1], b[2]] = [b[0] + z1, b[1] - z4, b[2] + z5];

    // The u±c operators differ only in the sub/super diagonals.
    for i in 1..n - 1 {
        let b = lhs[i];
        let (below, above) = (t.dtt2 * spd[i - 1], t.dtt2 * spd[i + 1]);
        lhsp[i] = [b[0], b[1] - below, b[2], b[3] + above, b[4]];
        lhsm[i] = [b[0], b[1] + below, b[2], b[3] - above, b[4]];
    }
}

/// Forward elimination of the operator `lhs` applied to components `ms`
/// of `r`, exactly the `sp.f` stanza.
#[inline(always)]
fn forward<L: Lane>(lhs: &mut [Band<L>], r: &mut [[L; 5]], ms: Range<usize>) {
    let n = lhs.len();
    let r = &mut r[..n];
    for i in 0..n - 2 {
        let fac1 = L::splat(1.0) / lhs[i][2];
        lhs[i][3] = fac1 * lhs[i][3];
        lhs[i][4] = fac1 * lhs[i][4];
        for m in ms.clone() {
            r[i][m] = fac1 * r[i][m];
        }
        let [b, b1, b2] = [lhs[i], lhs[i + 1], lhs[i + 2]];
        lhs[i + 1][2] = b1[2] - b1[1] * b[3];
        lhs[i + 1][3] = b1[3] - b1[1] * b[4];
        lhs[i + 2][1] = b2[1] - b2[0] * b[3];
        lhs[i + 2][2] = b2[2] - b2[0] * b[4];
        for m in ms.clone() {
            r[i + 1][m] = r[i + 1][m] - b1[1] * r[i][m];
            r[i + 2][m] = r[i + 2][m] - b2[0] * r[i][m];
        }
    }
    // Last two rows.
    let (i, i1) = (n - 2, n - 1);
    let fac1 = L::splat(1.0) / lhs[i][2];
    lhs[i][3] = fac1 * lhs[i][3];
    lhs[i][4] = fac1 * lhs[i][4];
    for m in ms.clone() {
        r[i][m] = fac1 * r[i][m];
    }
    let [b, b1] = [lhs[i], lhs[i1]];
    lhs[i1][2] = b1[2] - b1[1] * b[3];
    lhs[i1][3] = b1[3] - b1[1] * b[4];
    let fac2 = L::splat(1.0) / lhs[i1][2];
    for m in ms {
        r[i1][m] = r[i1][m] - b1[1] * r[i][m];
        r[i1][m] = fac2 * r[i1][m];
    }
}

/// Back substitution of all five components through the factored
/// operators: `lhs` carries components 0–2, `lhsp` 3, `lhsm` 4.
#[inline(always)]
fn backsub<L: Lane>([lhs, lhsp, lhsm]: [&[Band<L>]; 3], r: &mut [[L; 5]]) {
    let n = lhs.len();
    let r = &mut r[..n];
    let op = [lhs, lhs, lhs, lhsp, lhsm];
    let i = n - 2;
    for m in 0..5 {
        r[i][m] = r[i][m] - op[m][i][3] * r[i + 1][m];
    }
    for i in (0..n - 2).rev() {
        for m in 0..5 {
            let b = op[m][i];
            r[i][m] = r[i][m] - b[3] * r[i + 1][m] - b[4] * r[i + 2][m];
        }
    }
}

/// The viscous-eigenvalue bound of one point.
#[inline(always)]
fn max4(a: f64, b: f64, c: f64, d: f64) -> f64 {
    a.max(b).max(c).max(d)
}

/// One thread's share of a direction-`DIR` sweep: every interior line of
/// the planes `planes`.
struct SweepPlanes<'a, const SAFE: bool, const DIR: usize> {
    rho_i: &'a [f64],
    vel: [&'a [f64]; 3],
    qs: &'a [f64],
    speed: &'a [f64],
    u: &'a [f64],
    rhs: &'a SharedMut<'a, f64>,
    c: &'a Consts,
    ax: Axes,
    planes: Range<usize>,
}

impl<const SAFE: bool, const DIR: usize> Kernel for SweepPlanes<'_, SAFE, DIR> {
    /// Per group of lines: gather (and, along x, `txinvr`) into the
    /// scratch `r`, build, eliminate, back-substitute, store (with the
    /// direction's closing transform). Only interior points are
    /// transformed; a line's two end points are the grid's boundary.
    #[inline(always)]
    fn run<L: Lane>(self) {
        let SweepPlanes { rho_i, vel, qs, speed, u, rhs, c, ax, .. } = self;
        let n = ax.n;
        let (steps, d) = match DIR {
            0 => ([c.dttx1, c.dttx2, c.c2dttx1], [c.dx[1], c.dx[4], c.dxmax, c.dx[0]]),
            1 => ([c.dtty1, c.dtty2, c.c2dtty1], [c.dy[2], c.dy[4], c.dymax, c.dy[0]]),
            _ => ([c.dttz1, c.dttz2, c.c2dttz1], [c.dz[3], c.dz[4], c.dzmax, c.dz[0]]),
        };
        let t = Steps {
            dtt1: L::splat(steps[0]),
            dtt2: L::splat(steps[1]),
            c2dtt1: L::splat(steps[2]),
        };
        let interior = 1..n - 1;

        // Allocated here, inside the dispatched entry, so that filling
        // them with `zero` is not an AVX operation outside it.
        let zero = L::splat(0.0);
        let mut ops = vec![[zero; 5]; 3 * n];
        let mut r = vec![[zero; 5]; n];
        let mut coef = vec![zero; 3 * n];

        for p in self.planes.clone() {
            for l0 in (1..ax.lines - 1).step_by(L::N) {
                let g = Group::new(ax, p, l0, L::N);
                // The group's points at one position along its lines lie
                // in `span` consecutive values of `rhs`.
                let span = 5 * (g.at(0, L::N - 1) - g.at(0, 0) + 1);
                let offset = |i: usize, l: usize| 5 * (g.at(i, l) - g.at(i, 0));
                let point =
                    |grid: &[f64], i: usize| L::from_fn(|l| ld::<_, SAFE>(grid, g.at(i, l)));
                let velocity = |i| [point(vel[0], i), point(vel[1], i), point(vel[2], i)];
                let (cv, rest) = coef.split_at_mut(n);
                let (rho, spd) = rest.split_at_mut(n);

                for i in 0..n {
                    // SAFETY: the range holds points of plane `p` only,
                    // which no other thread touches in this region, and
                    // the borrow ends with the iteration.
                    let row = unsafe { rhs.row(5 * g.at(i, 0), span) };
                    let comp = |m| L::from_fn(|l| ld::<_, SAFE>(row, offset(i, l) + m));
                    let mut ri = [comp(0), comp(1), comp(2), comp(3), comp(4)];
                    if DIR == 0 && interior.contains(&i) {
                        let v = velocity(i);
                        txinvr(c, &mut ri, point(rho_i, i), v, point(speed, i), point(qs, i));
                    }
                    r[i] = ri;
                    cv[i] = point(vel[DIR], i);
                    rho[i] = L::from_fn(|l| {
                        let ru1 = c.c3c4 * ld::<_, SAFE>(rho_i, g.at(i, l));
                        max4(d[0] + c.con43 * ru1, d[1] + c.c1c5 * ru1, d[2] + ru1, d[3])
                    });
                    spd[i] = point(speed, i);
                }

                let (lhs, rest) = ops.split_at_mut(n);
                let (lhsp, lhsm) = rest.split_at_mut(n);
                build_lhs([lhs, lhsp, lhsm], [&*cv, &*rho, &*spd], t, c);
                forward(lhs, &mut r, 0..3);
                forward(lhsp, &mut r, 3..4);
                forward(lhsm, &mut r, 4..5);
                backsub([&*lhs, &*lhsp, &*lhsm], &mut r);

                for i in 0..n {
                    let mut ri = r[i];
                    if interior.contains(&i) {
                        match DIR {
                            0 => ninvr(c, &mut ri),
                            1 => pinvr(c, &mut ri),
                            _ => {
                                let v = velocity(i);
                                let uzik1 = L::from_fn(|l| ld::<_, SAFE>(u, 5 * g.at(i, l)));
                                tzetar(c, &mut ri, v, point(speed, i), point(qs, i), uzik1);
                            }
                        }
                    }
                    // SAFETY: as for the gather; no other borrow of `rhs`
                    // is live.
                    let row = unsafe { rhs.row_mut(5 * g.at(i, 0), span) };
                    for l in 0..g.live() {
                        for (m, v) in ri.iter().enumerate() {
                            st::<_, SAFE>(row, offset(i, l) + m, v.lane(l));
                        }
                    }
                }
            }
        }
    }
}

/// Direction-`DIR` sweep, parallel over its planes, each thread's share
/// handed to `run`. Every plane's line solves and transforms read and
/// write only that plane's `rhs` points from per-thread scratch, so any
/// plane-to-thread assignment (static, guided, or feedback) reproduces
/// the same bits.
fn sweep<const SAFE: bool, const DIR: usize>(
    f: &mut Fields,
    c: &Consts,
    team: Option<&Team>,
    run: impl Fn(SweepPlanes<'_, SAFE, DIR>) + Sync,
) {
    let ax = Axes::new::<DIR>(f.nx, f.ny, f.nz);
    let (rho_i, qs, speed, u) = (&f.rho_i[..], &f.qs[..], &f.speed[..], &f.u[..]);
    let vel = [&f.us[..], &f.vs[..], &f.ws[..]];
    // SAFETY: a thread reads and writes `rhs` only at points of its own
    // planes, and `for_chunks_in` hands each plane to exactly one thread.
    let rhs = unsafe { SharedMut::new(&mut f.rhs) };
    run_par(team, |par| {
        par.for_chunks_in(1, ax.planes - 1, |planes| {
            run(SweepPlanes { rho_i, vel, qs, speed, u, rhs: &rhs, c, ax, planes });
        });
    });
}

/// `txinvr`, the x sweep and `ninvr`, parallel over k.
pub fn x_solve<const SAFE: bool>(f: &mut Fields, c: &Consts, team: Option<&Team>) {
    sweep::<SAFE, 0>(f, c, team, |k| lane::dispatch(k));
}

/// The y sweep and `pinvr`, parallel over k.
pub fn y_solve<const SAFE: bool>(f: &mut Fields, c: &Consts, team: Option<&Team>) {
    sweep::<SAFE, 1>(f, c, team, |k| lane::dispatch(k));
}

/// The z sweep and `tzetar`, parallel over j.
pub fn z_solve<const SAFE: bool>(f: &mut Fields, c: &Consts, team: Option<&Team>) {
    sweep::<SAFE, 2>(f, c, team, |k| lane::dispatch(k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use npb_cfd_common::idx;

    /// Non-cubic, so an axis mix-up cannot cancel out; 9 and 11 interior
    /// lines leave last groups of 1 and 3 live lanes of 4.
    const ODD: (usize, usize, usize) = (13, 11, 9);

    fn bits(rhs: &[f64]) -> Vec<u64> {
        rhs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sweeps_parallel_match_serial() {
        let (mut fs, c) = oracle::setup(12, 12, 12);
        let mut fp = fs.clone();
        x_solve::<false>(&mut fs, &c, None);
        y_solve::<false>(&mut fs, &c, None);
        z_solve::<false>(&mut fs, &c, None);
        let team = npb_runtime::Team::new(4);
        x_solve::<false>(&mut fp, &c, Some(&team));
        y_solve::<false>(&mut fp, &c, Some(&team));
        z_solve::<false>(&mut fp, &c, Some(&team));
        assert_eq!(fs.rhs, fp.rhs);
    }

    /// `rhs` after the fused direction-`DIR` sweep of the [`ODD`] grid —
    /// through the `f64` instantiation and the dispatched one, serial and
    /// on a Team of 3 — must equal, byte for byte, `rhs` after the passes
    /// it fused (`oracle::direction`). Each direction starts from the
    /// oracle's result of the ones before it.
    fn lanes_match_oracle<const SAFE: bool, const DIR: usize>() {
        let (mut start, c) = oracle::setup(ODD.0, ODD.1, ODD.2);
        for dir in 0..DIR {
            oracle::direction(dir, &mut start, &c);
        }
        let mut want = start.clone();
        oracle::direction(DIR, &mut want, &c);
        assert_ne!(bits(&want.rhs), bits(&start.rhs), "the sweep did nothing");
        let three = Team::new(3);
        for (team, dispatched) in
            [(None, false), (None, true), (Some(&three), false), (Some(&three), true)]
        {
            let mut f = start.clone();
            if dispatched {
                sweep::<SAFE, DIR>(&mut f, &c, team, |k| lane::dispatch(k));
            } else {
                sweep::<SAFE, DIR>(&mut f, &c, team, |k| k.run::<f64>());
            }
            let how = format!("SAFE {SAFE}, dispatched {dispatched}, team {}", team.is_some());
            assert_eq!(bits(&f.rhs), bits(&want.rhs), "{how}");
        }
    }

    #[test]
    fn x_lanes_match_oracle_bit_for_bit() {
        lanes_match_oracle::<false, 0>();
        lanes_match_oracle::<true, 0>();
    }

    #[test]
    fn y_lanes_match_oracle_bit_for_bit() {
        lanes_match_oracle::<false, 1>();
        lanes_match_oracle::<true, 1>();
    }

    #[test]
    fn z_lanes_match_oracle_bit_for_bit() {
        lanes_match_oracle::<false, 2>();
        lanes_match_oracle::<true, 2>();
    }

    #[test]
    fn pentadiagonal_solve_against_dense_reference() {
        // Build one x line's three operators with the shipped helpers,
        // apply the factored solve to the line's five RHS components, and
        // compare each with a dense solve of its operator: `lhs` for
        // components 0-2, `lhsp` for 3, `lhsm` for 4.
        let (f, c) = oracle::setup(12, 12, 12);
        let n = 12;
        let (j, k) = (5, 6);
        let s = |i| idx(12, 12, i, j, k);
        let cv: Vec<f64> = (0..n).map(|i| f.us[s(i)]).collect();
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                let ru1 = c.c3c4 * f.rho_i[s(i)];
                max4(c.dx[1] + c.con43 * ru1, c.dx[4] + c.c1c5 * ru1, c.dxmax + ru1, c.dx[0])
            })
            .collect();
        let spd: Vec<f64> = (0..n).map(|i| f.speed[s(i)]).collect();
        let t = Steps { dtt1: c.dttx1, dtt2: c.dttx2, c2dtt1: c.c2dttx1 };
        let mut ops = vec![[0.0; 5]; 3 * n];
        let (lhs, rest) = ops.split_at_mut(n);
        let (lhsp, lhsm) = rest.split_at_mut(n);
        build_lhs([lhs, lhsp, lhsm], [&cv, &rho, &spd], t, &c);
        let dense: Vec<Vec<Vec<f64>>> = [&*lhs, &*lhsp, &*lhsm]
            .map(|op| {
                (0..n)
                    .map(|row| {
                        (0..n)
                            .map(|col| {
                                let band = col as i64 - row as i64 + 2;
                                if (0..5).contains(&band) {
                                    op[row][band as usize]
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .into();
        let b: Vec<[f64; 5]> =
            (0..n).map(|i| std::array::from_fn(|m| f.rhs[5 * s(i) + m])).collect();

        // Factored solve, as shipped.
        let mut x = b.clone();
        forward(lhs, &mut x, 0..3);
        forward(lhsp, &mut x, 3..4);
        forward(lhsm, &mut x, 4..5);
        backsub([&*lhs, &*lhsp, &*lhsm], &mut x);

        for m in 0..5 {
            // Dense Gaussian elimination with partial pivoting.
            let mut a = dense[[0, 0, 0, 1, 2][m]].clone();
            let mut y: Vec<f64> = b.iter().map(|r| r[m]).collect();
            for col in 0..n {
                let piv = (col..n)
                    .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
                    .unwrap();
                a.swap(col, piv);
                y.swap(col, piv);
                for r in col + 1..n {
                    let fmul = a[r][col] / a[col][col];
                    for cc in col..n {
                        a[r][cc] -= fmul * a[col][cc];
                    }
                    y[r] -= fmul * y[col];
                }
            }
            for r in (0..n).rev() {
                for cc in r + 1..n {
                    y[r] -= a[r][cc] * y[cc];
                }
                y[r] /= a[r][r];
            }
            for i in 0..n {
                let got = x[i][m];
                assert!(
                    (got - y[i]).abs() < 1e-10 * (1.0 + y[i].abs()),
                    "m={m} i={i}: {got} vs {}",
                    y[i]
                );
            }
        }
    }
}
