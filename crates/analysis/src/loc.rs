//! Abstract memory locations.
//!
//! Points-to analysis abstracts concrete addresses by *allocation site*:
//! every `alloca`/`halloc` instruction and every global is one abstract
//! object, and struct fields of an object are distinguished
//! (field-sensitive), because the paper's candidate sets are per
//! instruction-operand and field confusion would flood them. Arrays are
//! collapsed to their object. Functions are locations too, so function
//! pointers flow through the same machinery.

use lazy_ir::{FuncId, GlobalId, Pc};
use std::collections::BTreeSet;
use std::fmt;

/// An abstract memory location.
///
/// Field index 0 of an object is identified with the object itself
/// (matching C layout, where a pointer to a struct is a pointer to its
/// first member); constructors normalize this.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Loc {
    /// The object allocated at this site (an `alloca` or `halloc` PC).
    Site(Pc),
    /// Field `usize > 0` (in slots) of the object allocated at a site.
    SiteField(Pc, usize),
    /// A global variable's object.
    Global(GlobalId),
    /// Field `usize > 0` of a global object.
    GlobalField(GlobalId, usize),
    /// A function (the target of function pointers).
    Func(FuncId),
}

impl Loc {
    /// Returns the location of `self` offset by `slots` more slots
    /// (nested field addressing composes by offset addition in the slot
    /// model). Function locations are returned unchanged.
    #[must_use]
    pub fn offset_by(self, slots: usize) -> Loc {
        if slots == 0 {
            return self;
        }
        match self {
            Loc::Site(pc) => Loc::SiteField(pc, slots),
            Loc::SiteField(pc, f) => Loc::SiteField(pc, f + slots),
            Loc::Global(g) => Loc::GlobalField(g, slots),
            Loc::GlobalField(g, f) => Loc::GlobalField(g, f + slots),
            Loc::Func(f) => Loc::Func(f),
        }
    }

    /// The base object of this location (fields collapse to their
    /// object). Two locations with equal bases may overlap in memory;
    /// the bug-pattern stage uses field-precise equality instead.
    #[must_use]
    pub fn base(self) -> Loc {
        match self {
            Loc::SiteField(pc, _) => Loc::Site(pc),
            Loc::GlobalField(g, _) => Loc::Global(g),
            other => other,
        }
    }

    /// Returns the function if this is a function location.
    pub fn as_func(self) -> Option<FuncId> {
        match self {
            Loc::Func(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Site(pc) => write!(f, "obj@{pc}"),
            Loc::SiteField(pc, idx) => write!(f, "obj@{pc}.{idx}"),
            Loc::Global(g) => write!(f, "glob{}", g.0),
            Loc::GlobalField(g, idx) => write!(f, "glob{}.{idx}", g.0),
            Loc::Func(fun) => write!(f, "func{}", fun.0),
        }
    }
}

/// A points-to set: the abstract locations a pointer may reference.
pub type PtsSet = BTreeSet<Loc>;

/// Returns `true` if two points-to sets share any location.
pub fn sets_intersect(a: &PtsSet, b: &PtsSet) -> bool {
    if a.len() > b.len() {
        return sets_intersect(b, a);
    }
    a.iter().any(|l| b.contains(l))
}

/// Returns `true` if two ascending location slices share a location:
/// one merge walk, no allocation.
pub fn slices_intersect(a: &[Loc], b: &[Loc]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// A points-to set borrowed from a solved
/// [`PointsTo`](crate::PointsTo), for alias queries that should not
/// build a [`PtsSet`] per question.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtsView<'a> {
    /// A register's solved set, ascending.
    Solved(&'a [Loc]),
    /// The one location a global or function operand names.
    Named(Loc),
}

impl PtsView<'_> {
    /// The view of the empty set.
    pub const EMPTY: PtsView<'static> = PtsView::Solved(&[]);

    /// The set's locations, ascending.
    pub fn locs(&self) -> &[Loc] {
        match self {
            PtsView::Solved(locs) => locs,
            PtsView::Named(loc) => std::slice::from_ref(loc),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.locs().is_empty()
    }

    /// Whether the two sets share a location (may-alias).
    pub fn intersects(&self, other: &PtsView<'_>) -> bool {
        slices_intersect(self.locs(), other.locs())
    }

    /// The set as an owned [`PtsSet`].
    pub fn to_set(&self) -> PtsSet {
        self.locs().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_composes() {
        let s = Loc::Site(Pc(4));
        assert_eq!(s.offset_by(0), s);
        assert_eq!(s.offset_by(2), Loc::SiteField(Pc(4), 2));
        assert_eq!(s.offset_by(2).offset_by(3), Loc::SiteField(Pc(4), 5));
        let g = Loc::Global(GlobalId(1));
        assert_eq!(g.offset_by(1), Loc::GlobalField(GlobalId(1), 1));
    }

    #[test]
    fn base_collapses_fields() {
        assert_eq!(Loc::SiteField(Pc(4), 3).base(), Loc::Site(Pc(4)));
        assert_eq!(Loc::Global(GlobalId(0)).base(), Loc::Global(GlobalId(0)));
    }

    #[test]
    fn intersection() {
        let a: PtsSet = [Loc::Site(Pc(4)), Loc::Global(GlobalId(0))]
            .into_iter()
            .collect();
        let b: PtsSet = [Loc::Global(GlobalId(0))].into_iter().collect();
        let c: PtsSet = [Loc::Site(Pc(8))].into_iter().collect();
        assert!(sets_intersect(&a, &b));
        assert!(!sets_intersect(&a, &c));
        assert!(!sets_intersect(&b, &c));
    }

    /// The merge walk agrees with the set intersection, views included.
    #[test]
    fn slice_intersection_matches_sets() {
        let locs = [
            Loc::Site(Pc(4)),
            Loc::SiteField(Pc(4), 1),
            Loc::Global(GlobalId(0)),
            Loc::Func(FuncId(2)),
        ];
        for mask_a in 0u32..16 {
            for mask_b in 0u32..16 {
                let pick = |m: u32| -> PtsSet {
                    (0..4)
                        .filter(|i| m >> i & 1 == 1)
                        .map(|i| locs[i])
                        .collect()
                };
                let (a, b) = (pick(mask_a), pick(mask_b));
                let (va, vb): (Vec<Loc>, Vec<Loc>) =
                    (a.iter().copied().collect(), b.iter().copied().collect());
                assert_eq!(slices_intersect(&va, &vb), sets_intersect(&a, &b));
                assert_eq!(
                    PtsView::Solved(&va).intersects(&PtsView::Solved(&vb)),
                    sets_intersect(&a, &b)
                );
            }
        }
        let g = PtsView::Named(Loc::Global(GlobalId(0)));
        assert!(g.intersects(&PtsView::Solved(&locs)));
        assert!(!g.intersects(&PtsView::EMPTY));
        assert_eq!(g.to_set().len(), 1);
    }
}
