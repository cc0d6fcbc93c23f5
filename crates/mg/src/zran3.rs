//! `zran3`: the MG right-hand side — a field that is `+1` at the ten
//! grid points where a deterministic pseudo-random field is largest, `-1`
//! at the ten points where it is smallest, and `0` elsewhere.

use crate::ops::{comm3, id1};
use npb_core::{Randlc, SEED_DEFAULT};
use npb_runtime::SharedMut;

/// Number of +1 / -1 charges.
pub const MM: usize = 10;

/// A bounded best-`MM` list maintained exactly like `mg.f`'s `ten`
/// arrays + `bubble` subroutine: slot 0 always holds the current
/// threshold (worst member), and insertions bubble toward the back.
struct BestList {
    val: [f64; MM],
    pos: [(usize, usize, usize); MM],
    largest: bool,
}

impl BestList {
    fn new(largest: bool) -> BestList {
        BestList { val: [if largest { 0.0 } else { 1.0 }; MM], pos: [(0, 0, 0); MM], largest }
    }

    #[inline]
    fn consider(&mut self, v: f64, p: (usize, usize, usize)) {
        let beats = if self.largest { v > self.val[0] } else { v < self.val[0] };
        if !beats {
            return;
        }
        self.val[0] = v;
        self.pos[0] = p;
        // bubble: restore sortedness (ascending for largest-list,
        // descending for smallest-list).
        for i in 0..MM - 1 {
            let swap = if self.largest {
                self.val[i] > self.val[i + 1]
            } else {
                self.val[i] < self.val[i + 1]
            };
            if !swap {
                break;
            }
            self.val.swap(i, i + 1);
            self.pos.swap(i, i + 1);
        }
    }
}

/// Fill grid `z` (extent `n`, interior `nx = n - 2` per dimension) with
/// the NPB random field, then replace it by the ±1 charge field.
pub fn zran3(z: &mut [f64], n: usize, nx: usize) {
    assert_eq!(n, nx + 2);
    assert_eq!(z.len(), n * n * n);

    z.fill(0.0);

    // The reference seeds each row at `a^nx` past the previous one and
    // each plane at `a^(nx*nx)` past the previous plane so that a rank can
    // find the start of its own sub-block. A row draws exactly `nx`
    // deviates and a plane holds `nx` rows, so when one processor owns
    // the whole grid those jumps land where the stream already is: the
    // interior is one consecutive run of the sequence in (i3, i2, i1)
    // order.
    let mut rng = Randlc::new(SEED_DEFAULT);
    for i3 in 2..=nx + 1 {
        for i2 in 2..=nx + 1 {
            let off = id1(n, 2, i2, i3);
            rng.fill(&mut z[off..off + nx]);
        }
    }

    // Locate the ten largest and ten smallest interior values, scanning
    // in the reference order.
    let mut top = BestList::new(true);
    let mut bot = BestList::new(false);
    for i3 in 2..n {
        for i2 in 2..n {
            for i1 in 2..n {
                let v = z[id1(n, i1, i2, i3)];
                top.consider(v, (i1, i2, i3));
                bot.consider(v, (i1, i2, i3));
            }
        }
    }

    z.fill(0.0);
    for i in (0..MM).rev() {
        let (i1, i2, i3) = top.pos[i];
        z[id1(n, i1, i2, i3)] = 1.0;
        let (i1, i2, i3) = bot.pos[i];
        z[id1(n, i1, i2, i3)] = -1.0;
    }
    let s = unsafe { SharedMut::new(z) };
    comm3::<false>(&s, n, None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_are_balanced() {
        let nx = 32;
        let n = nx + 2;
        let mut z = vec![0.0; n * n * n];
        zran3(&mut z, n, nx);
        let mut plus = 0;
        let mut minus = 0;
        for i3 in 2..n {
            for i2 in 2..n {
                for i1 in 2..n {
                    match z[id1(n, i1, i2, i3)] {
                        v if v == 1.0 => plus += 1,
                        v if v == -1.0 => minus += 1,
                        v => assert_eq!(v, 0.0),
                    }
                }
            }
        }
        assert_eq!(plus, MM);
        assert_eq!(minus, MM);
    }

    #[test]
    fn deterministic() {
        let nx = 16;
        let n = nx + 2;
        let mut z1 = vec![0.0; n * n * n];
        let mut z2 = vec![0.0; n * n * n];
        zran3(&mut z1, n, nx);
        zran3(&mut z2, n, nx);
        assert_eq!(z1, z2);
    }

    /// The reference's per-row and per-plane seed jumps (`a^nx`,
    /// `a^(nx*nx)`) land exactly where the consecutive stream already
    /// is — the identity `zran3` relies on to draw the field in one run.
    #[test]
    fn row_and_plane_seeds_are_the_consecutive_stream() {
        use npb_core::{ipow46, randlc, vranlc, A_DEFAULT};
        let nx = 16;
        let (a1, a2) = (ipow46(A_DEFAULT, nx as u64), ipow46(A_DEFAULT, (nx * nx) as u64));
        let mut stream = Randlc::new(SEED_DEFAULT);
        let (mut row, mut want) = (vec![0.0; nx], vec![0.0; nx]);
        let mut x0 = SEED_DEFAULT;
        for _i3 in 0..nx {
            let mut x1 = x0;
            for _i2 in 0..nx {
                let mut xx = x1;
                vranlc(&mut xx, A_DEFAULT, &mut row);
                stream.fill(&mut want);
                assert_eq!(row, want);
                randlc(&mut x1, a1);
            }
            randlc(&mut x0, a2);
        }
    }

    #[test]
    fn best_list_finds_extremes() {
        let mut top = BestList::new(true);
        let mut bot = BestList::new(false);
        let vals: Vec<f64> = (0..100).map(|i| ((i * 37 + 11) % 100) as f64 / 100.0).collect();
        for (i, &v) in vals.iter().enumerate() {
            top.consider(v, (i, 0, 0));
            bot.consider(v, (i, 0, 0));
        }
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let mut top_vals = top.val.to_vec();
        top_vals.sort_by(f64::total_cmp);
        assert_eq!(top_vals, sorted[90..].to_vec());
        let mut bot_vals = bot.val.to_vec();
        bot_vals.sort_by(f64::total_cmp);
        assert_eq!(bot_vals, sorted[..10].to_vec());
    }
}
