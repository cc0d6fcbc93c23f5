//! The line geometry of BT's and SP's sweeps: which grid points make up a
//! line, a plane of lines, and a group of adjacent lines solved side by
//! side, one to a [`Lane`](npb_core::lane::Lane).
//!
//! Both solvers factor the implicit operator by direction, so a sweep is
//! a set of independent systems, one per grid line, and the lines of a
//! plane are adjacent in the array along some other axis. [`Axes`] says
//! how a direction lays them out and [`Group`] maps (point along the
//! line, lane) to a point index, so the two solvers share one index map.

/// How a sweep direction lays its lines over the grid, in points: a line
/// has `n` points `along` apart, a plane has `lines` lines `line` apart
/// (the first and last are boundary and not solved), and the grid has
/// `planes` planes `plane` apart.
#[derive(Clone, Copy)]
pub struct Axes {
    /// Points on a line.
    pub n: usize,
    /// Lines in a plane, boundary lines included.
    pub lines: usize,
    /// Planes in the grid, boundary planes included.
    pub planes: usize,
    /// Distance between consecutive points of a line.
    pub along: usize,
    /// Distance between adjacent lines of a plane.
    pub line: usize,
    /// Distance between adjacent planes.
    pub plane: usize,
}

impl Axes {
    /// `DIR` 0 sweeps x (lines over j, planes over k), 1 sweeps y (lines
    /// over i, planes over k), 2 sweeps z (lines over i, planes over j).
    pub fn new<const DIR: usize>(nx: usize, ny: usize, nz: usize) -> Axes {
        match DIR {
            0 => Axes { n: nx, lines: ny, planes: nz, along: 1, line: nx, plane: nx * ny },
            1 => Axes { n: ny, lines: nx, planes: nz, along: nx, line: 1, plane: nx * ny },
            _ => Axes { n: nz, lines: nx, planes: ny, along: nx * ny, line: 1, plane: nx },
        }
    }
}

/// Up to `width` adjacent lines of one plane, one to a lane. A short last
/// group has `live < width`: its spare lanes repeat the last live line, so
/// they compute on real data, and are not stored.
#[derive(Clone, Copy)]
pub struct Group {
    /// Point index of the first line's first point.
    first: usize,
    /// Lanes that carry a line of their own, at least one.
    live: usize,
    ax: Axes,
}

impl Group {
    /// The interior lines `l0 .. l0 + width` of plane `p`, cut short at
    /// the plane's last interior line.
    #[inline(always)]
    pub fn new(ax: Axes, p: usize, l0: usize, width: usize) -> Group {
        Group { first: p * ax.plane + l0 * ax.line, live: width.min(ax.lines - 1 - l0), ax }
    }

    /// Point index of point `i` of lane `l`'s line.
    #[inline(always)]
    pub fn at(self, i: usize, l: usize) -> usize {
        self.first + l.min(self.live - 1) * self.ax.line + i * self.ax.along
    }

    /// Lanes that carry a line of their own; the rest repeat the last.
    #[inline(always)]
    pub fn live(self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idx;

    /// Every group of every plane, at widths 1 and 4, visits each interior
    /// line of the direction once, in the (i, j, k) point `Fields::idx`
    /// gives it, and a spare lane repeats the last live line.
    #[test]
    fn groups_cover_each_interior_line_once() {
        let (nx, ny, nz) = (13, 11, 9);
        let point = |dir: usize, q: usize, line: usize, plane: usize| match dir {
            0 => idx(nx, ny, q, line, plane),
            1 => idx(nx, ny, line, q, plane),
            _ => idx(nx, ny, line, plane, q),
        };
        for dir in 0..3 {
            let ax = [Axes::new::<0>, Axes::new::<1>, Axes::new::<2>][dir](nx, ny, nz);
            for width in [1, 4] {
                let mut seen = Vec::new();
                for p in 1..ax.planes - 1 {
                    for l0 in (1..ax.lines - 1).step_by(width) {
                        let g = Group::new(ax, p, l0, width);
                        for l in 0..width {
                            let line = l0 + l.min(g.live() - 1);
                            for q in 0..ax.n {
                                assert_eq!(g.at(q, l), point(dir, q, line, p), "dir {dir}");
                            }
                            if l < g.live() {
                                seen.push((p, line));
                            }
                        }
                    }
                }
                let want: Vec<_> = (1..ax.planes - 1)
                    .flat_map(|p| (1..ax.lines - 1).map(move |line| (p, line)))
                    .collect();
                assert_eq!(seen, want, "dir {dir}, width {width}");
            }
        }
    }
}
