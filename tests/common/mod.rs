//! Helpers shared by the exactness-pin test binaries.

// Each test binary includes this module and uses only part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};

use stir_core::{
    group_user_strings, CollectionFunnel, GroupedUser, LocationString, ProfileRow,
    RefinementPipeline, TweetRow,
};
use stir_geokr::{Gazetteer, GeocoderBuilder};

/// FNV-1a, 64-bit: a dependency-free, platform-stable byte hash.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// What the §III-B string oracle computes: the funnel, the grouped
/// cohort in user-id order, and every kept user's profile district.
pub struct Oracle {
    pub funnel: CollectionFunnel,
    pub users: Vec<GroupedUser>,
    pub kept_profiles: HashMap<u64, (String, String)>,
}

/// The paper-literal §III-B pipeline, the reference every engine run is
/// pinned to. Stage 1 is the pipeline's own `select_users`; then the
/// tweets are walked in input order, each GPS fix of a kept user is
/// resolved through one fresh default-backend geocoder (one call per fix,
/// so its cache fills exactly as a serial walk fills it), and one
/// `user#state_p#county_p#state_t#county_t` [`LocationString`] per
/// resolved fix is merged and ordered by [`group_user_strings`].
pub fn string_oracle(g: &Gazetteer, profiles: Vec<ProfileRow>, tweets: &[TweetRow]) -> Oracle {
    let pipeline = RefinementPipeline::with_defaults(g);
    let mut funnel = CollectionFunnel::default();
    let kept = pipeline.select_users(profiles, &mut funnel);
    let kept_profiles: HashMap<u64, (String, String)> = kept
        .iter()
        .map(|(&user, &id)| {
            let (state, county) = pipeline.interner().resolve(id);
            (user, (state.to_string(), county.to_string()))
        })
        .collect();
    let backend = GeocoderBuilder::new(g).build();
    let mut strings: BTreeMap<u64, Vec<LocationString>> = BTreeMap::new();
    for t in tweets {
        funnel.tweets_total += 1;
        let Some(p) = t.gps else { continue };
        funnel.tweets_with_gps += 1;
        let Some((state_profile, county_profile)) = kept_profiles.get(&t.user) else {
            continue;
        };
        let Some(id) = backend.resolve_id(p).ok().flatten() else {
            funnel.tweets_gps_unresolvable += 1;
            continue;
        };
        funnel.strings_built += 1;
        let district = g.district(id);
        strings.entry(t.user).or_default().push(LocationString {
            user: t.user,
            state_profile: state_profile.clone(),
            county_profile: county_profile.clone(),
            state_tweet: district.province.name_en().to_string(),
            county_tweet: district.name_en.to_string(),
        });
    }
    let users: Vec<GroupedUser> = strings
        .values()
        .filter_map(|s| group_user_strings(s))
        .collect();
    funnel.users_final = users.len() as u64;
    funnel.yahoo_quota_days = backend.traffic().quota_days;
    Oracle {
        funnel,
        users,
        kept_profiles,
    }
}
