//! [`Exchange`]: what one rank of a kernel body needs from its peers,
//! whichever backend runs it.
//!
//! A rank asks four things of the computation around it: who it is and
//! how many ranks there are, which share of an index space it owns, a
//! rendezvous, and a rank-ordered sum. The threads backend's [`Par`]
//! answers them over a [`Team`](crate::Team): the team's barrier, and
//! reductions in the team's [`Partials`](crate::Partials). The procs
//! backend's rank view answers them over a shared-memory segment: a
//! cross-process futex barrier, and reductions in a packed `f64` area.
//! A kernel crate writes its rank body once, generic over
//! `X: Exchange`, and both backends call it. Partitions, barriers and
//! reduction order then agree by construction, and so does every bit
//! of a threads run and a procs run of equal width.

use std::ops::Range;

use crate::partition;

/// Reduction slots behind [`Par`](crate::Par)'s [`Exchange::all_sum`].
///
/// Two, so consecutive reductions alternate between them and one
/// barrier per reduction suffices: a rank writes a slot again only
/// after a later reduction's barrier, by which time every rank has
/// read the slot's previous sum.
pub(crate) const REDUCE_SLOTS: usize = 2;

/// One rank's view of a parallel computation (see the module docs).
pub trait Exchange {
    /// This rank's index, `0..width()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn width(&self) -> usize;

    /// This rank's static block of `0..len`: [`partition`], the split
    /// every rank-ordered reduction is grouped by.
    fn range(&self, len: usize) -> Range<usize> {
        partition(len, self.width(), self.rank())
    }

    /// Run `body` over this rank's chunks of `0..len`. The default is
    /// one call with [`Exchange::range`]; [`Par`](crate::Par) applies
    /// its team's scheduling policy instead. Only for loops whose
    /// iterations do not depend on which rank runs them (see
    /// [`Par::for_chunks`](crate::Par::for_chunks)). An implementation
    /// that hands a rank anything but its [`Exchange::range`] must end
    /// the call at a barrier, so a rank may read back its own range
    /// after the call without one.
    #[track_caller]
    fn for_chunks<F: FnMut(Range<usize>)>(&self, len: usize, mut body: F) {
        body(self.range(len))
    }

    /// Block until every rank has arrived.
    fn barrier(&self);

    /// All-reduce `v`: store it as this rank's partial, cross one
    /// barrier, and return the ranks' partials summed in ascending rank
    /// order. Every backend folds them with the same `Iterator::sum`
    /// as [`Partials::sum`](crate::Partials::sum), so the rounding
    /// depends on the width alone. Each backend alternates its own
    /// storage between consecutive calls, so back-to-back reductions
    /// need no extra barrier; every rank must make the same sequence
    /// of calls.
    fn all_sum(&self, v: f64) -> f64;
}
