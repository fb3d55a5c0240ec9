//! E12 / Fig. 4 — tweets with GPS coordinates whose text names a place.
//!
//! The paper shows a sample of GPS tweets and observes that "some tweets
//! mentioned about their current locations and those are the same places of
//! the GPS coordinates". This experiment quantifies the observation: among
//! GPS tweets whose text contains an unambiguous district mention, how
//! often does the mention match the reverse-geocoded GPS district? The
//! generator's ground truth has people naming their actual district ~85% of
//! mention-bearing tweets (the rest talk *about* somewhere else), so the
//! measured precision validates text mentions as a usable-but-weaker third
//! spatial attribute.

use stir_geokr::ReverseGeocoder;
use stir_textgeo::MentionExtractor;
use stir_twitter_sim::datasets::Dataset;

use crate::context::{gazetteer, korean_spec, Options};

/// Runs the experiment.
pub fn run(opts: &Options) {
    report(&Dataset::generate(
        korean_spec(opts),
        gazetteer(),
        opts.seed,
    ));
}

/// Runs the experiment over the generated Korean dataset (shared with
/// `all`).
pub fn report(dataset: &Dataset) {
    let g = gazetteer();
    let extractor = MentionExtractor::new(g);
    let reverse = ReverseGeocoder::builder(g).build_reverse();

    let mut gps_tweets = 0u64;
    let mut with_mention = 0u64;
    let mut matching = 0u64;
    let mut samples: Vec<(String, &'static str, &'static str, bool)> = Vec::new();

    for u in &dataset.users {
        if !u.gps_device {
            continue;
        }
        for t in dataset.user_tweets(g, u.id) {
            let Some(p) = t.gps else { continue };
            gps_tweets += 1;
            let mentions = extractor.districts(&t.text);
            let Some(&mentioned) = mentions.first() else {
                continue;
            };
            let Some(actual) = reverse.resolve(p) else {
                continue;
            };
            with_mention += 1;
            let hit = mentioned == actual;
            if hit {
                matching += 1;
            }
            if samples.len() < 10 {
                samples.push((
                    t.text.clone(),
                    g.district(mentioned).name_en,
                    g.district(actual).name_en,
                    hit,
                ));
            }
        }
    }

    println!("\n=== Fig. 4 — tweets with GPS coordinates mentioning places ===\n");
    println!(
        "{:<46} {:<16} {:<16} match",
        "tweet text", "mentioned", "GPS district"
    );
    println!("{}", "-".repeat(88));
    for (text, mentioned, actual, hit) in &samples {
        let short: String = text.chars().take(44).collect();
        println!(
            "{short:<46} {mentioned:<16} {actual:<16} {}",
            if *hit { "yes" } else { "NO" }
        );
    }
    println!("{}", "-".repeat(88));
    println!(
        "\nGPS tweets scanned: {gps_tweets}; with an unambiguous place mention: {with_mention} \
         ({:.1}%)",
        100.0 * with_mention as f64 / gps_tweets.max(1) as f64
    );
    println!(
        "mention == GPS district: {matching} ({:.1}% precision; ground truth plants ≈ 85%)",
        100.0 * matching as f64 / with_mention.max(1) as f64
    );
    println!(
        "\npaper (§III-A): text mentions are the third spatial attribute; Fig. 4 observes they\n\
         often name the posting place — measured here, they do, at well below GPS reliability."
    );
}
