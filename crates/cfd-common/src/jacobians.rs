//! Flux (`fjac`) and viscous (`njac`) Jacobians of the discretized
//! Navier-Stokes operator, per coordinate direction — shared by BT's
//! block-tridiagonal factorization and LU's lower/upper SSOR Jacobians
//! (`jacld`/`jacu`), which assemble exactly these blocks with direction
//! signs and artificial-viscosity diagonals.
//!
//! The formulas are generic over [`Lane`]: LU evaluates them at `f64`,
//! one point a call; BT's sweeps evaluate them at the dispatched lane
//! width, one point of each of `L::N` grid lines a call. Constants and
//! literals are splatted, the expressions are the reference's.

use crate::consts::Consts;
use npb_core::lane::Lane;

/// A 5x5 block, indexed `[row][col]`, of `f64` or of lane vectors.
pub type Block<L = f64> = [[L; 5]; 5];

/// Zero block.
pub const ZERO_BLOCK: Block = [[0.0; 5]; 5];

/// The constants the Jacobians read, in every lane.
struct Splat<L> {
    c1: L,
    c2: L,
    c3c4: L,
    con43: L,
    c1345: L,
}

/// `c`'s Jacobian constants and the literals `0.0`, `1.0`, `2.0` at lane
/// width, under the names the formulas below already use.
#[inline(always)]
fn splat<L: Lane>(c: &Consts) -> (Splat<L>, L, L, L) {
    let consts = Splat {
        c1: L::splat(c.c1),
        c2: L::splat(c.c2),
        c3c4: L::splat(c.c3c4),
        con43: L::splat(c.con43),
        c1345: L::splat(c.c1345),
    };
    (consts, L::splat(0.0), L::splat(1.0), L::splat(2.0))
}

/// Flux/viscous Jacobians in the x direction at one point per lane.
#[inline(always)]
pub fn jac_x<L: Lane>(
    c: &Consts,
    u: &[L; 5],
    qs: L,
    square: L,
    fj: &mut Block<L>,
    nj: &mut Block<L>,
) {
    let (c, zero, one, two) = splat(c);
    let tmp1 = one / u[0];
    let tmp2 = tmp1 * tmp1;
    let tmp3 = tmp1 * tmp2;

    *fj = [[zero; 5]; 5];
    fj[0][1] = one;
    fj[1][0] = -(u[1] * tmp2 * u[1]) + c.c2 * qs;
    fj[1][1] = (two - c.c2) * (u[1] / u[0]);
    fj[1][2] = -c.c2 * (u[2] * tmp1);
    fj[1][3] = -c.c2 * (u[3] * tmp1);
    fj[1][4] = c.c2;
    fj[2][0] = -(u[1] * u[2]) * tmp2;
    fj[2][1] = u[2] * tmp1;
    fj[2][2] = u[1] * tmp1;
    fj[3][0] = -(u[1] * u[3]) * tmp2;
    fj[3][1] = u[3] * tmp1;
    fj[3][3] = u[1] * tmp1;
    fj[4][0] = (c.c2 * two * square - c.c1 * u[4]) * (u[1] * tmp2);
    fj[4][1] = c.c1 * u[4] * tmp1 - c.c2 * (u[1] * u[1] * tmp2 + qs);
    fj[4][2] = -c.c2 * (u[2] * u[1]) * tmp2;
    fj[4][3] = -c.c2 * (u[3] * u[1]) * tmp2;
    fj[4][4] = c.c1 * (u[1] * tmp1);

    *nj = [[zero; 5]; 5];
    nj[1][0] = -c.con43 * c.c3c4 * tmp2 * u[1];
    nj[1][1] = c.con43 * c.c3c4 * tmp1;
    nj[2][0] = -c.c3c4 * tmp2 * u[2];
    nj[2][2] = c.c3c4 * tmp1;
    nj[3][0] = -c.c3c4 * tmp2 * u[3];
    nj[3][3] = c.c3c4 * tmp1;
    nj[4][0] = -(c.con43 * c.c3c4 - c.c1345) * tmp3 * (u[1] * u[1])
        - (c.c3c4 - c.c1345) * tmp3 * (u[2] * u[2])
        - (c.c3c4 - c.c1345) * tmp3 * (u[3] * u[3])
        - c.c1345 * tmp2 * u[4];
    nj[4][1] = (c.con43 * c.c3c4 - c.c1345) * tmp2 * u[1];
    nj[4][2] = (c.c3c4 - c.c1345) * tmp2 * u[2];
    nj[4][3] = (c.c3c4 - c.c1345) * tmp2 * u[3];
    nj[4][4] = c.c1345 * tmp1;
}

/// Flux/viscous Jacobians in the y direction at one point per lane.
#[inline(always)]
pub fn jac_y<L: Lane>(
    c: &Consts,
    u: &[L; 5],
    qs: L,
    square: L,
    fj: &mut Block<L>,
    nj: &mut Block<L>,
) {
    let (c, zero, one, two) = splat(c);
    let tmp1 = one / u[0];
    let tmp2 = tmp1 * tmp1;
    let tmp3 = tmp1 * tmp2;

    *fj = [[zero; 5]; 5];
    fj[0][2] = one;
    fj[1][0] = -(u[1] * u[2]) * tmp2;
    fj[1][1] = u[2] * tmp1;
    fj[1][2] = u[1] * tmp1;
    fj[2][0] = -(u[2] * u[2] * tmp2) + c.c2 * qs;
    fj[2][1] = -c.c2 * u[1] * tmp1;
    fj[2][2] = (two - c.c2) * u[2] * tmp1;
    fj[2][3] = -c.c2 * u[3] * tmp1;
    fj[2][4] = c.c2;
    fj[3][0] = -(u[2] * u[3]) * tmp2;
    fj[3][2] = u[3] * tmp1;
    fj[3][3] = u[2] * tmp1;
    fj[4][0] = (c.c2 * two * square - c.c1 * u[4]) * u[2] * tmp2;
    fj[4][1] = -c.c2 * u[1] * u[2] * tmp2;
    fj[4][2] = c.c1 * u[4] * tmp1 - c.c2 * (qs + u[2] * u[2] * tmp2);
    fj[4][3] = -c.c2 * (u[2] * u[3]) * tmp2;
    fj[4][4] = c.c1 * u[2] * tmp1;

    *nj = [[zero; 5]; 5];
    nj[1][0] = -c.c3c4 * tmp2 * u[1];
    nj[1][1] = c.c3c4 * tmp1;
    nj[2][0] = -c.con43 * c.c3c4 * tmp2 * u[2];
    nj[2][2] = c.con43 * c.c3c4 * tmp1;
    nj[3][0] = -c.c3c4 * tmp2 * u[3];
    nj[3][3] = c.c3c4 * tmp1;
    nj[4][0] = -(c.c3c4 - c.c1345) * tmp3 * (u[1] * u[1])
        - (c.con43 * c.c3c4 - c.c1345) * tmp3 * (u[2] * u[2])
        - (c.c3c4 - c.c1345) * tmp3 * (u[3] * u[3])
        - c.c1345 * tmp2 * u[4];
    nj[4][1] = (c.c3c4 - c.c1345) * tmp2 * u[1];
    nj[4][2] = (c.con43 * c.c3c4 - c.c1345) * tmp2 * u[2];
    nj[4][3] = (c.c3c4 - c.c1345) * tmp2 * u[3];
    nj[4][4] = c.c1345 * tmp1;
}

/// Flux/viscous Jacobians in the z direction at one point per lane.
#[inline(always)]
pub fn jac_z<L: Lane>(
    c: &Consts,
    u: &[L; 5],
    qs: L,
    square: L,
    fj: &mut Block<L>,
    nj: &mut Block<L>,
) {
    let (c, zero, one, two) = splat(c);
    let tmp1 = one / u[0];
    let tmp2 = tmp1 * tmp1;
    let tmp3 = tmp1 * tmp2;

    *fj = [[zero; 5]; 5];
    fj[0][3] = one;
    fj[1][0] = -(u[1] * u[3]) * tmp2;
    fj[1][1] = u[3] * tmp1;
    fj[1][3] = u[1] * tmp1;
    fj[2][0] = -(u[2] * u[3]) * tmp2;
    fj[2][2] = u[3] * tmp1;
    fj[2][3] = u[2] * tmp1;
    fj[3][0] = -(u[3] * u[3] * tmp2) + c.c2 * qs;
    fj[3][1] = -c.c2 * u[1] * tmp1;
    fj[3][2] = -c.c2 * u[2] * tmp1;
    fj[3][3] = (two - c.c2) * u[3] * tmp1;
    fj[3][4] = c.c2;
    fj[4][0] = (c.c2 * two * square - c.c1 * u[4]) * u[3] * tmp2;
    fj[4][1] = -c.c2 * (u[1] * u[3]) * tmp2;
    fj[4][2] = -c.c2 * (u[2] * u[3]) * tmp2;
    fj[4][3] = c.c1 * u[4] * tmp1 - c.c2 * (qs + u[3] * u[3] * tmp2);
    fj[4][4] = c.c1 * u[3] * tmp1;

    *nj = [[zero; 5]; 5];
    nj[1][0] = -c.c3c4 * tmp2 * u[1];
    nj[1][1] = c.c3c4 * tmp1;
    nj[2][0] = -c.c3c4 * tmp2 * u[2];
    nj[2][2] = c.c3c4 * tmp1;
    nj[3][0] = -c.con43 * c.c3c4 * tmp2 * u[3];
    nj[3][3] = c.con43 * c.c3c4 * tmp1;
    nj[4][0] = -(c.c3c4 - c.c1345) * tmp3 * (u[1] * u[1])
        - (c.c3c4 - c.c1345) * tmp3 * (u[2] * u[2])
        - (c.con43 * c.c3c4 - c.c1345) * tmp3 * (u[3] * u[3])
        - c.c1345 * tmp2 * u[4];
    nj[4][1] = (c.c3c4 - c.c1345) * tmp2 * u[1];
    nj[4][2] = (c.c3c4 - c.c1345) * tmp2 * u[2];
    nj[4][3] = (c.con43 * c.c3c4 - c.c1345) * tmp2 * u[3];
    nj[4][4] = c.c1345 * tmp1;
}
