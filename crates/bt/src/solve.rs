//! BT's three block-tridiagonal sweeps: per grid line, build the flux
//! Jacobian `fjac` and viscous Jacobian `njac` at every point, assemble
//! the (A, B, C) block rows, and eliminate with the no-pivoting block
//! Thomas algorithm of `x_solve.f` / `y_solve.f` / `z_solve.f`.
//!
//! The three are one body, [`SweepPlanes`], generic over the direction
//! and over the [`Lane`] width. A lane is a *grid line*: the lines of a
//! plane are independent systems, so the body takes `L::N` adjacent ones
//! at once and runs the scalar recurrence with every value a lane
//! vector. `lane::dispatch` picks the width (`f64`, or four lines to an
//! AVX register); the lane operations are lane-wise IEEE `+ − × ÷`, no
//! multiply-add is contracted and nothing is combined across lanes, so
//! `rhs` comes out bit for bit the same either way.

use crate::blocks::{binvcrhs, binvrhs, matmul_sub, matvec_sub, Block};
use npb_cfd_common::jacobians::{jac_x, jac_y, jac_z};
use npb_cfd_common::{Consts, Fields};
use npb_core::lane::{self, Kernel, Lane};
use npb_core::ld;
use npb_runtime::{run_par, SharedMut, Team};
use std::ops::Range;

/// How a sweep direction lays its lines over the grid, in points: a line
/// has `n` points `along` apart, a plane has `lines` lines `line` apart
/// (the first and last are boundary and not solved), and the grid has
/// `planes` planes `plane` apart.
#[derive(Clone, Copy)]
struct Axes {
    n: usize,
    lines: usize,
    planes: usize,
    along: usize,
    line: usize,
    plane: usize,
}

impl Axes {
    /// `DIR` 0 sweeps x (lines over j, planes over k), 1 sweeps y (lines
    /// over i, planes over k), 2 sweeps z (lines over i, planes over j).
    fn new<const DIR: usize>(nx: usize, ny: usize, nz: usize) -> Axes {
        match DIR {
            0 => Axes { n: nx, lines: ny, planes: nz, along: 1, line: nx, plane: nx * ny },
            1 => Axes { n: ny, lines: nx, planes: nz, along: nx, line: 1, plane: nx * ny },
            _ => Axes { n: nz, lines: nx, planes: ny, along: nx * ny, line: 1, plane: nx },
        }
    }
}

/// Up to `L::N` adjacent lines of one plane, one to a lane. A short last
/// group has `live < L::N`: its spare lanes repeat the last live line, so
/// they compute on real data, and are not stored.
#[derive(Clone, Copy)]
struct Group {
    /// Point index of the first line's first point.
    first: usize,
    live: usize,
    ax: Axes,
}

impl Group {
    /// Point index of point `i` of lane `l`'s line.
    #[inline(always)]
    fn at(self, i: usize, l: usize) -> usize {
        self.first + l.min(self.live - 1) * self.ax.line + i * self.ax.along
    }
}

/// One thread's share of a direction-`DIR` sweep: every interior line of
/// the planes `planes`.
struct SweepPlanes<'a, const SAFE: bool, const DIR: usize> {
    u: &'a [f64],
    qs: &'a [f64],
    square: &'a [f64],
    rhs: &'a SharedMut<'a, f64>,
    c: &'a Consts,
    ax: Axes,
    planes: Range<usize>,
}

/// What a direction's block rows are assembled with, in every lane:
/// `t1 = dt*t?1`, `t2 = dt*t?2`, `d` = the artificial viscosities
/// `d?1..d?5`.
struct Rows<L> {
    t1: L,
    t2: L,
    d: [L; 5],
}

/// `(fjac, njac)` at one point of each lane's line.
type Jacobians<L> = (Block<L>, Block<L>);

impl<L: Lane> Rows<L> {
    /// Sub-diagonal block `a` of row `q + 1`, from the Jacobians at `q`.
    #[inline(always)]
    fn lower(&self, (fj, nj): &Jacobians<L>, a: &mut Block<L>) {
        let Rows { t1, t2, d } = *self;
        for m in 0..5 {
            for nn in 0..5 {
                let dm = if m == nn { t1 * d[m] } else { L::splat(0.0) };
                a[m][nn] = -t2 * fj[m][nn] - t1 * nj[m][nn] - dm;
            }
        }
    }

    /// Diagonal block `b` of row `q`, from the Jacobians at `q`.
    #[inline(always)]
    fn diagonal(&self, (_, nj): &Jacobians<L>, b: &mut Block<L>) {
        let Rows { t1, d, .. } = *self;
        let (one, two) = (L::splat(1.0), L::splat(2.0));
        for m in 0..5 {
            for nn in 0..5 {
                b[m][nn] = if m == nn {
                    one + t1 * two * nj[m][nn] + t1 * two * d[m]
                } else {
                    t1 * two * nj[m][nn]
                };
            }
        }
    }

    /// Super-diagonal block `c` of row `q - 1`, from the Jacobians at `q`.
    #[inline(always)]
    fn upper(&self, (fj, nj): &Jacobians<L>, c: &mut Block<L>) {
        let Rows { t1, t2, d } = *self;
        for m in 0..5 {
            for nn in 0..5 {
                let dm = if m == nn { t1 * d[m] } else { L::splat(0.0) };
                c[m][nn] = t2 * fj[m][nn] - t1 * nj[m][nn] - dm;
            }
        }
    }
}

impl<const SAFE: bool, const DIR: usize> SweepPlanes<'_, SAFE, DIR> {
    /// The Jacobians at point `q` of each of the group's lines.
    #[inline(always)]
    fn jac<L: Lane>(&self, g: Group, q: usize) -> Jacobians<L> {
        let comp = |m: usize| L::from_fn(|l| ld::<_, SAFE>(self.u, 5 * g.at(q, l) + m));
        let ub = [comp(0), comp(1), comp(2), comp(3), comp(4)];
        let qs = L::from_fn(|l| ld::<_, SAFE>(self.qs, g.at(q, l)));
        let square = L::from_fn(|l| ld::<_, SAFE>(self.square, g.at(q, l)));
        let mut fj = [[L::splat(0.0); 5]; 5];
        let mut nj = fj;
        match DIR {
            0 => jac_x(self.c, &ub, qs, square, &mut fj, &mut nj),
            1 => jac_y(self.c, &ub, qs, square, &mut fj, &mut nj),
            _ => jac_z(self.c, &ub, qs, square, &mut fj, &mut nj),
        }
        (fj, nj)
    }
}

impl<const SAFE: bool, const DIR: usize> Kernel for SweepPlanes<'_, SAFE, DIR> {
    /// Only the coupling blocks `cb` and the group's `rhs`, transposed to
    /// lane-major once, stay in memory (23 KB at class W and four lanes:
    /// L1-resident). A point's Jacobians are turned at once into the three
    /// block rows they feed — `a` of the next row, `b` of its own, `c` of
    /// the previous — so they never reach memory and the `a`, `b` blocks
    /// in flight are a handful of locals.
    #[inline(always)]
    fn run<L: Lane>(self) {
        let c = self.c;
        let ax = self.ax;
        let n = ax.n;
        let (t1, t2, d) = match DIR {
            0 => (c.dt * c.tx1, c.dt * c.tx2, &c.dx),
            1 => (c.dt * c.ty1, c.dt * c.ty2, &c.dy),
            _ => (c.dt * c.tz1, c.dt * c.tz2, &c.dz),
        };
        let rows = Rows {
            t1: L::splat(t1),
            t2: L::splat(t2),
            d: [L::splat(d[0]), L::splat(d[1]), L::splat(d[2]), L::splat(d[3]), L::splat(d[4])],
        };
        let zero = L::splat(0.0);
        let zero_block = [[zero; 5]; 5];
        let mut identity = zero_block;
        for m in 0..5 {
            identity[m][m] = L::splat(1.0);
        }

        // Allocated here, inside the dispatched entry, so that filling
        // them with `zero` is not an AVX operation outside it.
        let mut cb = vec![zero_block; n];
        let mut r = vec![[zero; 5]; n];
        // Row `i`'s `a` sits in slot `i % 3` (rows `i`, `i + 1`, `i + 2`
        // are in flight at step `i`), its `b` in slot `i % 2`.
        let mut a = [zero_block; 3];
        let mut b = [zero_block; 2];

        for p in self.planes.clone() {
            for l0 in (1..ax.lines - 1).step_by(L::N) {
                let g = Group {
                    first: p * ax.plane + l0 * ax.line,
                    live: L::N.min(ax.lines - 1 - l0),
                    ax,
                };
                for i in 0..n {
                    let comp = |m: usize| L::from_fn(|l| self.rhs.get::<SAFE>(5 * g.at(i, l) + m));
                    r[i] = [comp(0), comp(1), comp(2), comp(3), comp(4)];
                }

                // Forward block elimination. Boundary rows: identity.
                b[0] = identity;
                cb[0] = zero_block;
                binvcrhs(&mut b[0], &mut cb[0], &mut r[0]);
                rows.lower(&self.jac(g, 0), &mut a[1]);
                let second = self.jac(g, 1);
                rows.diagonal(&second, &mut b[1]);
                rows.lower(&second, &mut a[2]);
                for i in 1..n - 1 {
                    let next = self.jac(g, i + 1);
                    let (eliminated, ahead) = cb.split_at_mut(i);
                    rows.upper(&next, &mut ahead[0]);
                    rows.diagonal(&next, &mut b[(i + 1) % 2]);
                    rows.lower(&next, &mut a[(i + 2) % 3]);
                    let (done, rest) = r.split_at_mut(i);
                    matvec_sub(&a[i % 3], &done[i - 1], &mut rest[0]);
                    matmul_sub(&a[i % 3], &eliminated[i - 1], &mut b[i % 2]);
                    binvcrhs(&mut b[i % 2], &mut ahead[0], &mut rest[0]);
                }
                b[0] = identity;
                let (done, rest) = r.split_at_mut(n - 1);
                matvec_sub(&zero_block, &done[n - 2], &mut rest[0]);
                matmul_sub(&zero_block, &cb[n - 2], &mut b[0]);
                binvrhs(&mut b[0], &mut rest[0]);

                // Back substitution.
                for i in (0..n - 1).rev() {
                    let (head, solved) = r.split_at_mut(i + 1);
                    matvec_sub(&cb[i], &solved[0], &mut head[i]);
                }

                for i in 0..n {
                    for l in 0..g.live {
                        for m in 0..5 {
                            self.rhs.set::<SAFE>(5 * g.at(i, l) + m, r[i][m].lane(l));
                        }
                    }
                }
            }
        }
    }
}

/// Direction-`DIR` sweep, parallel over its planes, each thread's share
/// handed to `run`. Every plane's line solves write only that plane's
/// `rhs` rows from per-thread scratch, so any plane-to-thread assignment
/// (static, guided, or feedback) reproduces the same bits.
fn sweep<const SAFE: bool, const DIR: usize>(
    f: &mut Fields,
    c: &Consts,
    team: Option<&Team>,
    run: impl Fn(SweepPlanes<'_, SAFE, DIR>) + Sync,
) {
    let ax = Axes::new::<DIR>(f.nx, f.ny, f.nz);
    let (u, qs, square) = (&f.u[..], &f.qs[..], &f.square[..]);
    // SAFETY: a thread reads and writes `rhs` only at points of its own
    // planes, and `for_chunks_in` hands each plane to exactly one thread.
    let rhs = unsafe { SharedMut::new(&mut f.rhs) };
    run_par(team, |par| {
        par.for_chunks_in(1, ax.planes - 1, |planes| {
            run(SweepPlanes { u, qs, square, rhs: &rhs, c, ax, planes });
        });
    });
}

/// x sweep, parallel over k.
pub fn x_solve<const SAFE: bool>(f: &mut Fields, c: &Consts, team: Option<&Team>) {
    sweep::<SAFE, 0>(f, c, team, |k| lane::dispatch(k));
}

/// y sweep, parallel over k.
pub fn y_solve<const SAFE: bool>(f: &mut Fields, c: &Consts, team: Option<&Team>) {
    sweep::<SAFE, 1>(f, c, team, |k| lane::dispatch(k));
}

/// z sweep, parallel over j.
pub fn z_solve<const SAFE: bool>(f: &mut Fields, c: &Consts, team: Option<&Team>) {
    sweep::<SAFE, 2>(f, c, team, |k| lane::dispatch(k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_cfd_common::{compute_rhs, exact_rhs, initialize};

    /// Non-cubic, so an axis mix-up in [`Axes`] cannot cancel out; 9 and
    /// 11 interior lines leave last groups of 1 and 3 live lanes of 4.
    const ODD: (usize, usize, usize) = (13, 11, 9);

    fn setup((nx, ny, nz): (usize, usize, usize)) -> (Fields, Consts) {
        let c = Consts::new(nx, ny, nz, 0.01);
        let mut f = Fields::new(nx, ny, nz);
        initialize(&mut f, &c);
        exact_rhs(&mut f, &c);
        compute_rhs::<false, false>(&mut f, &c, None);
        (f, c)
    }

    #[test]
    fn sweeps_parallel_match_serial() {
        let (mut fs, c) = setup((12, 12, 12));
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

    /// `rhs` after one direction-`DIR` sweep of the [`ODD`] grid through
    /// the `f64` instantiation must equal, byte for byte, `rhs` after the
    /// dispatched one — serial and on a Team of 3.
    fn lanes_match_scalar<const SAFE: bool, const DIR: usize>() {
        let (start, c) = setup(ODD);
        let bits = |rhs: &[f64]| rhs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let swept = |team: Option<&Team>, dispatched: bool| {
            let mut f = start.clone();
            if dispatched {
                sweep::<SAFE, DIR>(&mut f, &c, team, |k| lane::dispatch(k));
            } else {
                sweep::<SAFE, DIR>(&mut f, &c, team, |k| k.run::<f64>());
            }
            bits(&f.rhs)
        };
        let team = Team::new(3);
        let scalar = swept(None, false);
        assert_ne!(scalar, bits(&start.rhs), "the sweep did nothing");
        assert_eq!(swept(None, true), scalar, "dispatched, serial");
        assert_eq!(swept(Some(&team), false), scalar, "f64, Team of 3");
        assert_eq!(swept(Some(&team), true), scalar, "dispatched, Team of 3");
    }

    #[test]
    fn x_lanes_match_scalar_bit_for_bit() {
        lanes_match_scalar::<false, 0>();
        lanes_match_scalar::<true, 0>();
    }

    #[test]
    fn y_lanes_match_scalar_bit_for_bit() {
        lanes_match_scalar::<false, 1>();
        lanes_match_scalar::<true, 1>();
    }

    #[test]
    fn z_lanes_match_scalar_bit_for_bit() {
        lanes_match_scalar::<false, 2>();
        lanes_match_scalar::<true, 2>();
    }

    /// Verify the shipped direction-`DIR` sweep against a dense solve of
    /// the full 5n x 5n block-tridiagonal matrix of one line of the
    /// [`ODD`] grid: the line whose other two coordinates, in (i, j, k)
    /// order, are `fixed`. The oracle indexes the grid through
    /// `Fields::idx`, not [`Axes`].
    fn solves_the_block_system<const DIR: usize>(fixed: (usize, usize)) {
        let (mut f, c) = setup(ODD);
        let point = |q: usize| match DIR {
            0 => (q, fixed.0, fixed.1),
            1 => (fixed.0, q, fixed.1),
            _ => (fixed.0, fixed.1, q),
        };
        let (n, t1, t2, d) = match DIR {
            0 => (f.nx, c.dt * c.tx1, c.dt * c.tx2, c.dx),
            1 => (f.ny, c.dt * c.ty1, c.dt * c.ty2, c.dy),
            _ => (f.nz, c.dt * c.tz1, c.dt * c.tz2, c.dz),
        };
        // Rebuild the Jacobians exactly as the sweep does.
        let mut fjac = vec![[[0.0f64; 5]; 5]; n];
        let mut njac = fjac.clone();
        for q in 0..n {
            let (i, j, k) = point(q);
            let pid = f.idx(i, j, k);
            let ub: [f64; 5] = std::array::from_fn(|m| f.u[f.idx5(m, i, j, k)]);
            let jac = [jac_x::<f64>, jac_y::<f64>, jac_z::<f64>][DIR];
            jac(&c, &ub, f.qs[pid], f.square[pid], &mut fjac[q], &mut njac[q]);
        }
        // Assemble dense matrix rows from the same formulas the sweep
        // uses.
        let nn5 = 5 * n;
        let mut dense = vec![vec![0.0f64; nn5]; nn5];
        for m in 0..5 {
            dense[m][m] = 1.0;
            dense[nn5 - 5 + m][nn5 - 5 + m] = 1.0;
        }
        for i in 1..n - 1 {
            for m in 0..5 {
                for q in 0..5 {
                    let dm = if m == q { t1 * d[m] } else { 0.0 };
                    dense[5 * i + m][5 * (i - 1) + q] =
                        -t2 * fjac[i - 1][m][q] - t1 * njac[i - 1][m][q] - dm;
                    dense[5 * i + m][5 * (i + 1) + q] =
                        t2 * fjac[i + 1][m][q] - t1 * njac[i + 1][m][q] - dm;
                    dense[5 * i + m][5 * i + q] = if m == q {
                        1.0 + t1 * 2.0 * njac[i][m][q] + t1 * 2.0 * d[m]
                    } else {
                        t1 * 2.0 * njac[i][m][q]
                    };
                }
            }
        }
        let b: Vec<f64> = (0..n)
            .flat_map(|q| (0..5).map(move |m| (q, m)))
            .map(|(q, m)| {
                let (i, j, k) = point(q);
                f.rhs[f.idx5(m, i, j, k)]
            })
            .collect();
        // Dense Gaussian elimination with partial pivoting.
        let mut a = dense;
        let mut x = b;
        for col in 0..nn5 {
            let piv = (col..nn5)
                .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
                .unwrap();
            a.swap(col, piv);
            x.swap(col, piv);
            for r in col + 1..nn5 {
                let fmul = a[r][col] / a[col][col];
                for cc in col..nn5 {
                    a[r][cc] -= fmul * a[col][cc];
                }
                x[r] -= fmul * x[col];
            }
        }
        for r in (0..nn5).rev() {
            for cc in r + 1..nn5 {
                x[r] -= a[r][cc] * x[cc];
            }
            x[r] /= a[r][r];
        }
        // The real sweep, as shipped.
        sweep::<true, DIR>(&mut f, &c, None, |k| lane::dispatch(k));
        for q in 0..n {
            let (i, j, k) = point(q);
            for m in 0..5 {
                let got = f.rhs[f.idx5(m, i, j, k)];
                let want = x[5 * q + m];
                assert!(
                    (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                    "q={q} m={m}: {got} vs {want}"
                );
            }
        }
    }

    // Each line below is the last interior one of its plane, so it rides
    // in a short last group (x: alone; y, z: third of three live lanes).

    #[test]
    fn x_sweep_solves_the_block_system() {
        solves_the_block_system::<0>((9, 4));
    }

    #[test]
    fn y_sweep_solves_the_block_system() {
        solves_the_block_system::<1>((11, 3));
    }

    #[test]
    fn z_sweep_solves_the_block_system() {
        solves_the_block_system::<2>((11, 5));
    }
}
