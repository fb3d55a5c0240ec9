//! Exactness pins for corpus generation.
//!
//! Generation is a pure function of `(spec, gazetteer, seed)`, and every
//! figure `repro` prints is derived from its output. These tests fix that
//! output to a recorded fingerprint, so a speed-up that moves even one
//! random draw fails here instead of silently changing the figures.

mod common;

use common::Fnv;
use stir::geokr::{Gazetteer, NEARBY_RING_LEN};
use stir::twitter_sim::datasets::{Dataset, DatasetSpec};
use stir::twitter_sim::UserId;

/// Hashes everything `Dataset::generate` draws: profiles, tweet budgets,
/// GPS habits, ground truth (home, style, archetype, mobility spots with
/// their exact weights) and the follower graph.
fn fingerprint(dataset: &Dataset) -> u64 {
    let mut h = Fnv::new();
    for (u, t) in dataset.users.iter().zip(&dataset.truth) {
        h.u64(u.id.0);
        h.str(&u.screen_name);
        h.str(&u.location_text);
        h.u64(u64::from(u.gps_device));
        h.u64(u.gps_tag_rate.to_bits());
        h.u64(u64::from(u.tweet_budget));
        h.u64(u64::from(t.profile_district.0));
        h.str(&format!("{:?}/{:?}", t.style, t.archetype));
        h.u64(t.mobility.spots().len() as u64);
        for &(d, w) in t.mobility.spots() {
            h.u64(u64::from(d.0));
            h.u64(w.to_bits());
        }
        for &f in dataset.graph.followers_of(UserId(u.id.0)) {
            h.u64(u64::from(f));
        }
    }
    h.u64(dataset.graph.edge_count() as u64);
    h.0
}

/// Mobility draws index the precomputed ring, so it must be exactly the
/// kNN answer it replaced, ties and order included.
#[test]
fn nearby_rings_equal_the_knn_query() {
    let g = Gazetteer::load();
    for d in g.districts() {
        assert_eq!(
            g.nearby_ring(d.id),
            g.nearest_districts(d.centroid, NEARBY_RING_LEN).as_slice(),
            "ring of {}",
            d.name_en
        );
    }
}

/// Recorded when mobility still ran one kNN query per draw.
#[test]
fn korean_generation_fingerprint_is_pinned() {
    let g = Gazetteer::load();
    let spec = DatasetSpec {
        n_users: 600,
        ..DatasetSpec::korean_paper()
    };
    let dataset = Dataset::generate(spec, &g, 2012);
    assert_eq!(fingerprint(&dataset), 4_407_546_338_950_081_836);
}

#[test]
fn lady_gaga_generation_fingerprint_is_pinned() {
    let g = Gazetteer::load();
    let spec = DatasetSpec {
        n_users: 3_000,
        ..DatasetSpec::lady_gaga_paper()
    };
    let dataset = Dataset::generate(spec, &g, 2012);
    assert_eq!(fingerprint(&dataset), 2_315_380_537_204_799_785);
}
