//! Property tests: the text machinery must be total (no panics on any
//! input), idempotent where claimed, and range-safe.

use proptest::prelude::*;
use stir_geokr::Gazetteer;
use stir_textgeo::coords::parse_coordinates;
use stir_textgeo::edit::{bounded_damerau_levenshtein, within_one_edit};
use stir_textgeo::hangul::romanize;
use stir_textgeo::normalize::normalize;
use stir_textgeo::segment::split_alternatives;
use stir_textgeo::ProfileClassifier;

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn normalize_is_idempotent(s in "\\PC{0,60}") {
        let once = normalize(&s);
        let twice = normalize(&once);
        prop_assert_eq!(&once, &twice, "input {:?}", s);
    }

    #[test]
    fn normalize_output_is_clean(s in "\\PC{0,60}") {
        let n = normalize(&s);
        prop_assert!(!n.starts_with(' ') && !n.ends_with(' '));
        prop_assert!(!n.contains("  "), "double space in {:?}", n);
        // ASCII letters are lowercased.
        prop_assert!(n.chars().all(|c| !c.is_ascii_uppercase()));
    }

    #[test]
    fn classifier_is_total(s in "\\PC{0,60}") {
        // Any unicode soup must classify without panicking.
        let _ = ProfileClassifier::new(gaz()).classify(&s);
    }

    #[test]
    fn classifier_total_on_korean_mixed(s in "[가-힣a-z0-9 ,/.-]{0,40}") {
        let _ = ProfileClassifier::new(gaz()).classify(&s);
    }

    #[test]
    fn coordinates_are_in_range(s in "\\PC{0,60}") {
        if let Some(p) = parse_coordinates(&s) {
            prop_assert!((-90.0..=90.0).contains(&p.lat));
            prop_assert!((-180.0..=180.0).contains(&p.lon));
        }
    }

    #[test]
    fn valid_pairs_always_parse(lat in -89.0f64..89.0, lon in -179.0f64..179.0) {
        let text = format!("{lat:.4}, {lon:.4}");
        let p = parse_coordinates(&text).expect("well-formed pair parses");
        prop_assert!((p.lat - lat).abs() < 1e-3);
        prop_assert!((p.lon - lon).abs() < 1e-3);
    }

    #[test]
    fn segments_partition_content(s in "[a-z가-힣 /,]{0,50}") {
        let normalized = normalize(&s);
        let segs = split_alternatives(&normalized);
        // No segment is empty, none contains a separator.
        for seg in &segs {
            prop_assert!(!seg.text.is_empty());
            prop_assert!(!seg.text.contains('/'));
            prop_assert!(!seg.text.contains(','));
        }
    }

    #[test]
    fn edit_distance_is_symmetric_metric(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        let ab = bounded_damerau_levenshtein(&a, &b, 20);
        let ba = bounded_damerau_levenshtein(&b, &a, 20);
        prop_assert_eq!(ab, ba);
        let d = ab.unwrap();
        prop_assert_eq!(d == 0, a == b);
        prop_assert!(d <= a.len().max(b.len()));
    }

    #[test]
    fn edit_distance_bound_is_consistent(a in "[a-z]{0,12}", b in "[a-z]{0,12}", max in 0usize..6) {
        let bounded = bounded_damerau_levenshtein(&a, &b, max);
        let full = bounded_damerau_levenshtein(&a, &b, 64).unwrap();
        match bounded {
            Some(d) => prop_assert_eq!(d, full),
            None => prop_assert!(full > max, "full {} <= max {}", full, max),
        }
    }

    #[test]
    fn one_edit_test_equals_the_dp_on_random_pairs(a in "[ab-]{0,6}", b in "[ab-]{0,6}") {
        prop_assert_eq!(
            within_one_edit(a.as_bytes(), b.as_bytes()),
            bounded_damerau_levenshtein(&a, &b, 1).is_some(),
            "{:?} vs {:?}", a, b
        );
    }

    #[test]
    fn romanize_is_total_and_ascii_for_hangul(s in "[가-힣]{0,12}") {
        let r = romanize(&s);
        prop_assert!(r.is_ascii(), "non-ascii romanization {:?} for {:?}", r, s);
        if !s.is_empty() {
            prop_assert!(!r.is_empty());
        }
    }

    #[test]
    fn romanize_passthrough_for_ascii(s in "[a-z0-9 ]{0,20}") {
        prop_assert_eq!(romanize(&s), s);
    }
}

/// Every pair of strings of up to five bytes over `{a, b, -}`: all
/// prefix, transposition and tail shapes the one-edit test distinguishes,
/// most of which random pairs rarely draw.
#[test]
fn one_edit_test_equals_the_dp_exhaustively() {
    let mut strings = vec![String::new()];
    let mut last = vec![String::new()];
    for _ in 0..5 {
        last = last
            .iter()
            .flat_map(|s| ['a', 'b', '-'].map(|c| format!("{s}{c}")))
            .collect();
        strings.extend(last.iter().cloned());
    }
    for a in &strings {
        for b in &strings {
            assert_eq!(
                within_one_edit(a.as_bytes(), b.as_bytes()),
                bounded_damerau_levenshtein(a, b, 1).is_some(),
                "{a:?} vs {b:?}"
            );
        }
    }
}
