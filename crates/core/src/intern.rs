//! District interning: the grouping hot path over integer ids.
//!
//! The paper's method merges *strings* (§III-B), and [`crate::string`]
//! keeps that published textual form. But the district vocabulary is tiny
//! (229 si/gun/gu in the 2011 gazetteer, fewer under the city-grain
//! ablation) while tweet volume is millions — exactly the shape where a
//! symbol table wins. [`DistrictInterner`] maps each distinct
//! `(state, county)` pair to a dense [`DistrictId`] once; after that the
//! pipeline carries 16-byte [`LocationKey`]s instead of five heap strings
//! per tweet, and the merge test of the grouping method becomes a single
//! `u32` compare. The mapping is lossless both ways
//! ([`DistrictInterner::resolve`] is O(1)), so the string form is
//! recovered exactly at the report boundary — the method as published is
//! unchanged, only its carrier representation is.
//!
//! Note this id space is *not* the gazetteer's
//! [`stir_geokr::DistrictId`]: gazetteer ids index
//! the static district table, while interned ids number the grouping keys
//! in first-insert order — under [`crate::Granularity::City`] several
//! gazetteer districts collapse into one interned id.

use std::collections::HashMap;

/// Identifier of an interned `(state, county)` pair. Dense: ids are
/// assigned `0, 1, 2, …` in first-insert order, so a `Vec` indexed by id
/// is a perfect map over the vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DistrictId(pub u32);

impl std::fmt::Display for DistrictId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K{:03}", self.0)
    }
}

/// One tweet's location information with both district sides interned:
/// the packed equivalent of [`crate::LocationString`] (user id, profile
/// district, tweet district — the state/county pairs live in the
/// interner). 16 bytes, `Copy`, and comparable without touching memory
/// beyond the struct itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LocationKey {
    /// User id.
    pub user: u64,
    /// Interned profile-side `(state, county)`.
    pub profile: DistrictId,
    /// Interned tweet-side `(state, county)`.
    pub tweet: DistrictId,
}

impl LocationKey {
    /// True when profile and tweet districts coincide — the paper's
    /// *matched string*, now a single integer compare.
    pub fn is_matched(&self) -> bool {
        self.profile == self.tweet
    }
}

/// An append-only symbol table for `(state, county)` district pairs.
///
/// * id order = first-insert order (dense, starting at 0);
/// * [`DistrictInterner::resolve`] is an O(1) slice index, no hashing;
/// * lookups borrow — a hit never allocates, and `&DistrictInterner` is
///   freely shared across the parallel grouping workers (reads only).
///
/// ```
/// use stir_core::intern::DistrictInterner;
///
/// let mut interner = DistrictInterner::new();
/// let a = interner.intern("Seoul", "Yangcheon-gu");
/// let b = interner.intern("Seoul", "Jung-gu");
/// assert_eq!(interner.intern("Seoul", "Yangcheon-gu"), a);
/// assert_ne!(a, b);
/// assert_eq!(interner.resolve(a), ("Seoul", "Yangcheon-gu"));
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DistrictInterner {
    /// state → county → id. Two string levels so lookups can borrow the
    /// query `&str`s (a flat `(String, String)` key cannot be queried
    /// without building an owned pair).
    map: HashMap<String, HashMap<String, DistrictId>>,
    /// id → (state, county), in insert order.
    names: Vec<(String, String)>,
}

impl DistrictInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pairs interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The id of a pair if it is already interned. Never allocates.
    pub fn get(&self, state: &str, county: &str) -> Option<DistrictId> {
        self.map.get(state)?.get(county).copied()
    }

    /// Interns a pair, returning its stable id. Allocates only on the
    /// first sighting of a pair; a hit is two borrowed hash lookups.
    pub fn intern(&mut self, state: &str, county: &str) -> DistrictId {
        if let Some(id) = self.get(state, county) {
            return id;
        }
        let id = DistrictId(
            u32::try_from(self.names.len()).expect("more than u32::MAX districts interned"),
        );
        self.names.push((state.to_string(), county.to_string()));
        self.map
            .entry(state.to_string())
            .or_default()
            .insert(county.to_string(), id);
        id
    }

    /// The `(state, county)` pair behind an id — an O(1) slice index.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: DistrictId) -> (&str, &str) {
        let (s, c) = &self.names[id.0 as usize];
        (s, c)
    }

    /// Like [`DistrictInterner::resolve`], but `None` for foreign ids.
    pub fn try_resolve(&self, id: DistrictId) -> Option<(&str, &str)> {
        self.names
            .get(id.0 as usize)
            .map(|(s, c)| (s.as_str(), c.as_str()))
    }

    /// All interned pairs in id order.
    pub fn pairs(&self) -> impl Iterator<Item = (DistrictId, &str, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, (s, c))| (DistrictId(i as u32), s.as_str(), c.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_insert_order() {
        let mut it = DistrictInterner::new();
        let ids: Vec<DistrictId> = [
            ("Seoul", "Yangcheon-gu"),
            ("Seoul", "Jung-gu"),
            ("Busan", "Jung-gu"),
            ("Seoul", "Yangcheon-gu"), // repeat
            ("Gyeonggi-do", "Uiwang-si"),
        ]
        .into_iter()
        .map(|(s, c)| it.intern(s, c))
        .collect();
        assert_eq!(
            ids,
            vec![
                DistrictId(0),
                DistrictId(1),
                DistrictId(2),
                DistrictId(0),
                DistrictId(3)
            ]
        );
        assert_eq!(it.len(), 4);
        assert!(!it.is_empty());
    }

    #[test]
    fn same_county_different_state_gets_distinct_ids() {
        let mut it = DistrictInterner::new();
        let seoul = it.intern("Seoul", "Jung-gu");
        let busan = it.intern("Busan", "Jung-gu");
        assert_ne!(seoul, busan);
        assert_eq!(it.resolve(seoul), ("Seoul", "Jung-gu"));
        assert_eq!(it.resolve(busan), ("Busan", "Jung-gu"));
    }

    #[test]
    fn get_and_try_resolve_handle_unknowns() {
        let mut it = DistrictInterner::new();
        assert_eq!(it.get("Seoul", "Jung-gu"), None);
        let id = it.intern("Seoul", "Jung-gu");
        assert_eq!(it.get("Seoul", "Jung-gu"), Some(id));
        assert_eq!(it.get("Seoul", "Mapo-gu"), None);
        assert_eq!(it.try_resolve(id), Some(("Seoul", "Jung-gu")));
        assert_eq!(it.try_resolve(DistrictId(99)), None);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn resolve_panics_on_foreign_id() {
        DistrictInterner::new().resolve(DistrictId(0));
    }

    #[test]
    fn pairs_iterates_in_id_order() {
        let mut it = DistrictInterner::new();
        it.intern("Seoul", "A");
        it.intern("Busan", "B");
        let pairs: Vec<_> = it.pairs().collect();
        assert_eq!(
            pairs,
            vec![(DistrictId(0), "Seoul", "A"), (DistrictId(1), "Busan", "B")]
        );
    }

    #[test]
    fn location_key_matched_is_id_equality() {
        let mut it = DistrictInterner::new();
        let home = it.intern("Seoul", "Guro-gu");
        let away = it.intern("Seoul", "Mapo-gu");
        let k = LocationKey {
            user: 7,
            profile: home,
            tweet: home,
        };
        assert!(k.is_matched());
        let k2 = LocationKey {
            user: 7,
            profile: home,
            tweet: away,
        };
        assert!(!k2.is_matched());
        // Packed: the key is two words.
        assert_eq!(std::mem::size_of::<LocationKey>(), 16);
    }
}
