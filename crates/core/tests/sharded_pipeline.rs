//! End-to-end pins for the sharded store as a pipeline input: the full
//! refinement pipeline over a user-hash-sharded store — fresh or rebuilt
//! from torn-tail WAL recovery on every shard — must
//! produce exactly the result the single-store (and row-fed) runs do.

use stir_core::{PipelineBuilder, ProfileRow};
use stir_geoindex::Point;
use stir_geokr::Gazetteer;
use stir_tweetstore::{shard, ShardedDurableStore, ShardedStore, TweetRecord, TweetStore};

const YANGCHEON: (f64, f64) = (37.517, 126.866);
const GANGNAM: (f64, f64) = (37.517, 127.047);

fn gaz() -> &'static Gazetteer {
    Box::leak(Box::new(Gazetteer::load()))
}

/// A deterministic mixed corpus: 40 users, ~600 tweets, GPS tweets split
/// between two Seoul districts, plus GPS-less noise.
fn corpus() -> Vec<TweetRecord> {
    (0..600u64)
        .map(|i| {
            let user = (i * 7 + 3) % 40;
            let gps = match i % 5 {
                0 => Some(Point::new(YANGCHEON.0 + 1e-4 * (i % 9) as f64, YANGCHEON.1)),
                1 | 2 => Some(Point::new(GANGNAM.0, GANGNAM.1 + 1e-4 * (i % 7) as f64)),
                _ => None,
            };
            TweetRecord {
                id: i,
                user,
                timestamp: i * 97 % (30 * 86_400),
                gps,
                text: format!("tweet {i}"),
            }
        })
        .collect()
}

fn profiles() -> Vec<ProfileRow> {
    (0..40u64)
        .map(|u| ProfileRow {
            user: u,
            location_text: match u % 3 {
                0 => "Yangcheon-gu, Seoul".into(),
                1 => "Korea".into(),
                _ => "Gangnam-gu, Seoul".into(),
            },
        })
        .collect()
}

fn assert_identical(a: &stir_core::AnalysisResult, b: &stir_core::AnalysisResult, what: &str) {
    assert_eq!(a.funnel, b.funnel, "{what}: funnel diverged");
    assert_eq!(a.users, b.users, "{what}: grouped users diverged");
    assert_eq!(a.kept_profiles, b.kept_profiles, "{what}: cohort diverged");
}

#[test]
fn sharded_store_pipeline_matches_single_store() {
    let g = gaz();
    let recs = corpus();
    let mut single = TweetStore::new();
    for r in &recs {
        single.append(r);
    }
    let pipeline = PipelineBuilder::new(g).build().unwrap();
    let reference = pipeline.execute(profiles(), &single);
    for shards in [1usize, 2, 7, 16] {
        let mut sharded = ShardedStore::new(shards);
        for r in &recs {
            sharded.append(r);
        }
        let got = pipeline.execute(profiles(), &sharded);
        assert_identical(&got, &reference, &format!("shards={shards}"));
        let scan = got.metrics.scan.expect("sharded run reports scan metrics");
        assert_eq!(scan.per_shard.len(), shards, "one metrics row per shard");
        assert_eq!(
            scan.per_shard.iter().map(|s| s.records_stored).sum::<u64>(),
            recs.len() as u64
        );
    }
}

#[test]
fn pipeline_over_recovered_sharded_store_matches_single_store() {
    const SHARDS: usize = 5;
    let g = gaz();
    let recs = corpus();
    let dir = std::env::temp_dir().join(format!("stir-shard-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut durable = ShardedDurableStore::open(&dir, SHARDS).unwrap();
        for r in &recs {
            durable.append(r).unwrap();
        }
        durable.sync().unwrap();
    }
    // Tear every shard's log tail mid-frame, then recover.
    for i in 0..SHARDS {
        let path = shard::wal_path(&dir, i);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        use std::io::Write;
        f.write_all(&[0x99, 0x00, 0x00, 0x00, 0x01]).unwrap();
        f.sync_all().unwrap();
    }
    let durable = ShardedDurableStore::open(&dir, SHARDS).unwrap();
    let store = durable.store();
    assert!(
        store
            .recovery()
            .iter()
            .all(|r| r.is_some_and(|r| r.truncated_bytes == 5)),
        "every shard should report its truncated tail: {:?}",
        store.recovery()
    );
    let mut single = TweetStore::new();
    for r in &recs {
        single.append(r);
    }
    let pipeline = PipelineBuilder::new(g).build().unwrap();
    let reference = pipeline.execute(profiles(), &single);
    let got = pipeline.execute(profiles(), store);
    assert_identical(&got, &reference, "recovered sharded store");
    // The per-shard metrics carry each shard's WAL recovery outcome.
    let scan = got.metrics.scan.expect("scan metrics present");
    assert!(
        scan.per_shard
            .iter()
            .all(|s| s.wal.is_some_and(|w| w.truncated_bytes == 5)),
        "per-shard rows should surface WAL recovery: {:?}",
        scan.per_shard
    );
    std::fs::remove_dir_all(&dir).ok();
}
