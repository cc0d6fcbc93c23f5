//! OpenMP-style static block partitioning of loop ranges.

use std::ops::Range;

/// Split `0..len` into `nparts` contiguous blocks and return block `part`.
///
/// The first `len % nparts` blocks get one extra iteration, exactly like
/// the static schedule the OpenMP NPB (and the paper's Java port, which
/// copied it) uses. Empty ranges are returned when `len < nparts` for the
/// trailing parts.
///
/// # Panics
///
/// Panics if `nparts == 0` or `part >= nparts`.
#[inline]
pub fn partition(len: usize, nparts: usize, part: usize) -> Range<usize> {
    assert!(nparts > 0, "partition into zero parts");
    assert!(part < nparts, "part {part} out of {nparts}");
    let base = len / nparts;
    let rem = len % nparts;
    let start = part * base + part.min(rem);
    let extra = usize::from(part < rem);
    start..start + base + extra
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        assert_eq!(partition(8, 4, 0), 0..2);
        assert_eq!(partition(8, 4, 3), 6..8);
    }

    #[test]
    fn remainder_goes_to_leading_parts() {
        assert_eq!(partition(10, 4, 0), 0..3);
        assert_eq!(partition(10, 4, 1), 3..6);
        assert_eq!(partition(10, 4, 2), 6..8);
        assert_eq!(partition(10, 4, 3), 8..10);
    }

    #[test]
    fn more_parts_than_items() {
        assert_eq!(partition(2, 4, 0), 0..1);
        assert_eq!(partition(2, 4, 1), 1..2);
        assert_eq!(partition(2, 4, 2), 2..2);
        assert_eq!(partition(2, 4, 3), 2..2);
    }

    #[test]
    fn zero_length() {
        for p in 0..3 {
            assert!(partition(0, 3, p).is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn part_out_of_range_panics() {
        partition(10, 2, 2);
    }

    /// Deterministic seeded sample of (len, nparts) cases, drawn from the
    /// NPB generator so the "property" coverage reproduces bit-for-bit.
    pub(crate) fn sampled_cases() -> Vec<(usize, usize)> {
        let mut rng = npb_core::Randlc::new(npb_core::SEED_DEFAULT);
        (0..200)
            .map(|_| {
                let len = (rng.next_f64() * 10_000.0) as usize;
                let nparts = 1 + (rng.next_f64() * 63.0) as usize;
                (len, nparts)
            })
            .collect()
    }

    /// The parts tile 0..len exactly: contiguous, ordered, disjoint.
    #[test]
    fn parts_tile_the_range() {
        for (len, nparts) in sampled_cases() {
            let mut cursor = 0usize;
            for p in 0..nparts {
                let r = partition(len, nparts, p);
                assert_eq!(r.start, cursor, "len {len}, nparts {nparts}, part {p}");
                assert!(r.end >= r.start);
                cursor = r.end;
            }
            assert_eq!(cursor, len, "len {len}, nparts {nparts}");
        }
    }

    /// Balance: no part exceeds another by more than one iteration.
    #[test]
    fn parts_are_balanced() {
        for (len, nparts) in sampled_cases() {
            let sizes: Vec<usize> = (0..nparts).map(|p| partition(len, nparts, p).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "len {len}, nparts {nparts}: {sizes:?}");
        }
    }
}
