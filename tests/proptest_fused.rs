//! Property tests pinning the fused morsel engine to the paper-literal
//! §III-B string oracle (`common::string_oracle`): for arbitrary corpora
//! and arbitrary execution geometry (threads × morsel size × partition
//! count) the engine must be byte-identical to it — same funnel, same
//! grouped users, same entries, same matched ranks — including when
//! tweets stream out of a WAL-recovered store with a torn tail.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};

use common::{string_oracle, Oracle};
use proptest::prelude::*;
use stir::core::{AnalysisResult, PipelineBuilder, ProfileRow, TweetRow};
use stir::geokr::Gazetteer;
use stir::tweetstore::{StoreFormat, TweetRecord, TweetStore, Wal};

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

/// Profile texts cycling through every classifier branch: kept districts,
/// vague, insufficient, in-coverage coordinates, foreign coordinates,
/// empty. Users with the same index share a text, exercising the select
/// memoization on the way.
const PROFILE_TEXTS: [&str; 6] = [
    "Seoul Yangcheon-gu",
    "Seoul Gangnam-gu",
    "my home",
    "Seoul",
    "37.517, 126.866",
    "",
];

/// Tweet GPS vocabulary: two resolvable Seoul districts, one
/// out-of-coverage fix (Tokyo), and a GPS-less row.
const POINTS: [Option<(f64, f64)>; 4] = [
    Some((37.517, 126.866)), // Yangcheon-gu
    Some((37.517, 127.047)), // Gangnam-gu
    Some((35.68, 139.69)),   // Tokyo — unresolvable
    None,
];

fn corpus(rows: &[(u64, usize)]) -> (Vec<ProfileRow>, Vec<TweetRow>) {
    let users: Vec<u64> = {
        let mut u: Vec<u64> = rows.iter().map(|&(u, _)| u).collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let profiles = users
        .iter()
        .map(|&u| ProfileRow {
            user: u,
            location_text: PROFILE_TEXTS[u as usize % PROFILE_TEXTS.len()].to_string(),
        })
        .collect();
    let tweets = rows
        .iter()
        .enumerate()
        .map(|(i, &(u, p))| match POINTS[p % POINTS.len()] {
            Some((lat, lon)) => TweetRow::tagged(u, i as u64, lat, lon),
            None => TweetRow::plain(u, i as u64),
        })
        .collect();
    (profiles, tweets)
}

fn assert_identical(a: &AnalysisResult, b: &Oracle) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(&a.funnel, &b.funnel);
    prop_assert_eq!(a.users.len(), b.users.len());
    for (x, y) in a.users.iter().zip(&b.users) {
        prop_assert_eq!(x.user, y.user);
        prop_assert_eq!(&x.state_profile, &y.state_profile);
        prop_assert_eq!(&x.county_profile, &y.county_profile);
        prop_assert_eq!(&x.entries, &y.entries);
        prop_assert_eq!(x.matched_rank, y.matched_rank);
    }
    prop_assert_eq!(&a.kept_profiles, &b.kept_profiles);
    Ok(())
}

const THREADS: [usize; 3] = [1, 2, 8];
const MORSELS: [usize; 3] = [1, 7, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_equals_string_oracle_on_arbitrary_corpora(
        rows in prop::collection::vec((0u64..10, 0usize..4), 1..250),
        threads_idx in 0usize..3,
        morsel_idx in 0usize..3,
        partitions in 1usize..9,
        exact in any::<bool>(),
    ) {
        let g = gaz();
        let (profiles, tweets) = corpus(&rows);
        let reference = string_oracle(g, profiles.clone(), &tweets);
        // `exact` sweeps the adaptive scheduler on and off: byte-identity
        // must hold whether the engine obeys the configured geometry or
        // adapts it to the machine (possibly collapsing to serial-inline).
        let fused = PipelineBuilder::new(g)
            .threads(THREADS[threads_idx])
            .threads_exact(exact)
            .morsel_rows(MORSELS[morsel_idx])
            .partitions(partitions)
            .build()
            .unwrap();
        let got = fused.execute(profiles, tweets);
        assert_identical(&got, &reference)?;
        let exec = got.metrics.exec.as_ref().expect("fused fills exec");
        prop_assert_eq!(exec.rows_in, got.funnel.tweets_total);
        prop_assert_eq!(exec.kept_probes, got.funnel.tweets_with_gps);
        prop_assert_eq!(
            exec.partition_keys.iter().sum::<u64>(),
            got.funnel.strings_built
        );
    }

    #[test]
    fn fused_store_run_survives_wal_recovery_with_a_torn_tail(
        rows in prop::collection::vec((0u64..8, 0usize..4), 1..120),
        threads_idx in 0usize..3,
        morsel_idx in 0usize..3,
        exact in any::<bool>(),
        junk in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let g = gaz();
        let (profiles, tweets) = corpus(&rows);

        // Journal the corpus through the WAL, then simulate a crash
        // mid-append by tacking a torn frame onto the log.
        let path = std::env::temp_dir().join(format!(
            "stir-proptest-fused-{}-{}.log",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).expect("open wal");
        for t in &tweets {
            wal.append(&TweetRecord {
                id: t.tweet_id,
                user: t.user,
                timestamp: 1_300_000_000 + t.tweet_id,
                gps: t.gps,
                text: format!("tweet {}", t.tweet_id),
            }).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen for torn tail");
            f.write_all(&junk).expect("write junk");
        }
        let (store, recovered) = Wal::recover(&path).expect("recover");
        let _ = std::fs::remove_file(&path);
        // Every synced frame survives; only the torn tail is dropped.
        prop_assert_eq!(recovered, tweets.len() as u64);

        // Fused from-store run ≡ the string oracle on the same corpus.
        let reference = string_oracle(g, profiles.clone(), &tweets);
        let fused = PipelineBuilder::new(g)
            .threads(THREADS[threads_idx])
            .threads_exact(exact)
            .morsel_rows(MORSELS[morsel_idx])
            .build()
            .unwrap();
        let got = fused.execute(profiles, &store);
        assert_identical(&got, &reference)?;
        let scan = got.metrics.scan.as_ref().expect("store runs fill scan");
        prop_assert_eq!(scan.headers_decoded, recovered);
        prop_assert_eq!(scan.records_corrupt, 0);
    }

    #[test]
    fn fused_run_is_identical_across_store_formats(
        rows in prop::collection::vec((0u64..8, 0usize..4), 1..200),
        threads_idx in 0usize..3,
        morsel_idx in 0usize..3,
        exact in any::<bool>(),
    ) {
        let g = gaz();
        let (profiles, tweets) = corpus(&rows);
        let records: Vec<TweetRecord> = tweets
            .iter()
            .map(|t| TweetRecord {
                id: t.tweet_id,
                user: t.user,
                timestamp: 1_300_000_000 + t.tweet_id,
                gps: t.gps,
                text: format!("tweet {}", t.tweet_id),
            })
            .collect();

        // Same corpus in three storage layouts: all-row, all-columnar,
        // and a mid-stream format flip that leaves a mixed segment chain.
        // Small segments force several seals so the columnar path is hot.
        let mut v1 = TweetStore::with_segment_bytes_and_format(1024, StoreFormat::V1);
        let mut v2 = TweetStore::with_segment_bytes_and_format(1024, StoreFormat::V2);
        let mut mixed = TweetStore::with_segment_bytes_and_format(1024, StoreFormat::V1);
        for (i, r) in records.iter().enumerate() {
            v1.append(r);
            v2.append(r);
            if i == records.len() / 2 {
                mixed.set_format(StoreFormat::V2);
            }
            mixed.append(r);
        }

        let reference = string_oracle(g, profiles.clone(), &tweets);
        let fused = PipelineBuilder::new(g)
            .threads(THREADS[threads_idx])
            .threads_exact(exact)
            .morsel_rows(MORSELS[morsel_idx])
            .build()
            .unwrap();
        for store in [&v1, &v2, &mixed] {
            let got = fused.execute(profiles.clone(), store);
            assert_identical(&got, &reference)?;
            let scan = got.metrics.scan.as_ref().expect("store runs fill scan");
            prop_assert_eq!(scan.headers_decoded, records.len() as u64);
            prop_assert_eq!(scan.records_corrupt, 0);
            // Any sealed columnar segment must have been served through
            // the direct column path, and the format census must agree
            // with the store's actual segment chain.
            let cols = store.segments().iter().filter(|s| s.is_columnar()).count() as u64;
            let rows_segs = store.segments().len() as u64 - cols;
            prop_assert_eq!(scan.segments_col, cols);
            prop_assert_eq!(scan.segments_row, rows_segs);
            if cols > 0 {
                prop_assert!(scan.col_bytes_read > 0);
            } else {
                prop_assert_eq!(scan.col_bytes_read, 0);
            }
        }
    }
}

/// A small mixed corpus: kept users, a dropped user, GPS-less rows, and an
/// out-of-coverage fix — every funnel branch exercised.
fn mixed_corpus() -> (Vec<ProfileRow>, Vec<TweetRow>) {
    const YANGCHEON: (f64, f64) = (37.517, 126.866);
    const GANGNAM: (f64, f64) = (37.517, 127.047);
    let profiles = [
        "Seoul Yangcheon-gu",
        "my home",
        "Seoul",
        "Seoul Gangnam-gu",
        "Gyeonggi-do Uiwang-si",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| ProfileRow {
        user: 1 + i as u64,
        location_text: text.to_string(),
    })
    .collect();
    let tweets = (0..40u64)
        .map(|i| {
            let user = 1 + i % 5;
            match i % 4 {
                0 => TweetRow::tagged(user, i, YANGCHEON.0, YANGCHEON.1),
                1 => TweetRow::tagged(user, i, GANGNAM.0, GANGNAM.1),
                2 => TweetRow::plain(user, i),
                // Tokyo: GPS present, outside coverage → unresolvable.
                _ => TweetRow::tagged(user, i, 35.68, 139.69),
            }
        })
        .collect();
    (profiles, tweets)
}

/// The full geometry grid on one fixed corpus, with the engine's own
/// accounting checked against the configured geometry at every cell.
#[test]
fn fused_engine_is_byte_identical_to_string_oracle() {
    let g = gaz();
    let (profiles, tweets) = mixed_corpus();
    let reference = string_oracle(g, profiles.clone(), &tweets);
    for threads in [1, 2, 8] {
        for morsel_rows in [1, 7, 4096] {
            for partitions in [1, 3, 16] {
                let pipeline = PipelineBuilder::new(g)
                    .threads(threads)
                    .morsel_rows(morsel_rows)
                    .partitions(partitions)
                    .build()
                    .unwrap();
                let got = pipeline.execute(profiles.clone(), tweets.clone());
                assert_identical(&got, &reference).unwrap();
                let exec = got.metrics.exec.as_ref().expect("engine fills exec");
                assert_eq!(exec.morsel_rows, morsel_rows);
                assert_eq!(exec.partitions_configured, partitions);
                assert_eq!(exec.threads_ceiling, threads);
                // Executed geometry never exceeds the configured one.
                assert!(exec.threads <= threads);
                assert!(exec.partitions <= partitions);
                assert_eq!(exec.rows_in, got.funnel.tweets_total);
                assert_eq!(
                    exec.partition_keys.iter().sum::<u64>(),
                    got.funnel.strings_built
                );
            }
        }
    }
}
