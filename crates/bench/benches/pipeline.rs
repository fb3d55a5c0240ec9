//! End-to-end pipeline benchmarks: the fused morsel-driven engine, adaptive
//! and thread-exact, across the thread range.
//! The corpus is the realistic shape — district-centroid GPS fixes with a
//! GPS-less remainder, profiles cycling the classifier branches — so the
//! numbers measure the engine, not a cache-friendly toy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use stir_bench::district_points;
use stir_core::{ColumnBatch, PipelineBuilder, ProfileRow, TweetRow, NO_GPS_E6};
use stir_geokr::gazetteer::KOREA_BBOX;
use stir_geokr::Gazetteer;

const PROFILE_TEXTS: [&str; 4] = [
    "Seoul Yangcheon-gu",
    "Seoul Gangnam-gu",
    "Busan Jung-gu",
    "Gyeonggi-do Bucheon-si",
];

/// `n` tweets over `n / 50` users: ~70% carry a district-centroid GPS fix,
/// the rest are GPS-less, mirroring the funnel's real mix after the
/// crawler (the paper's corpus is GPS-sparse; post-filter it is GPS-only).
fn corpus(g: &Gazetteer, n: usize) -> (Vec<ProfileRow>, Vec<TweetRow>) {
    let users = (n / 50).max(1) as u64;
    let points = district_points(g, 256, 42);
    let profiles = (0..users)
        .map(|u| ProfileRow {
            user: u,
            location_text: PROFILE_TEXTS[u as usize % PROFILE_TEXTS.len()].to_string(),
        })
        .collect();
    let tweets = (0..n as u64)
        .map(|i| {
            let user = i % users;
            if i % 10 < 7 {
                let p = points[i as usize % points.len()];
                TweetRow::tagged(user, i, p.lat, p.lon)
            } else {
                TweetRow::plain(user, i)
            }
        })
        .collect();
    (profiles, tweets)
}

fn bench_e2e(c: &mut Criterion) {
    let g = Gazetteer::load();
    let mut group = c.benchmark_group("pipeline/e2e");
    group.sample_size(20);
    for &n in &[50_000usize, 200_000] {
        let (profiles, tweets) = corpus(&g, n);
        group.throughput(Throughput::Elements(n as u64));
        for &threads in &[1usize, 8] {
            // `fused` adapts its worker count to the machine; `fused-exact`
            // pins the configured thread count (`--threads-exact`), showing
            // what the E21 oversubscription regression cost before the
            // adaptive scheduler.
            for (label, exact) in [("fused", false), ("fused-exact", true)] {
                if exact && threads == 1 {
                    // Identical to plain `fused` at one thread.
                    continue;
                }
                let pipeline = PipelineBuilder::new(&g)
                    .threads(threads)
                    .threads_exact(exact)
                    .build()
                    .unwrap();
                group.bench_with_input(
                    BenchmarkId::new(format!("{label}/t{threads}"), n),
                    &(&profiles, &tweets),
                    |b, (profiles, tweets)| {
                        b.iter(|| {
                            let result = pipeline.execute(
                                black_box((*profiles).clone()),
                                black_box((*tweets).clone()),
                            );
                            black_box(result.funnel.users_final)
                        })
                    },
                );
            }
        }
    }
    // The columnar filter in isolation: GPS-presence + Korea-coverage
    // prescreen over a ColumnBatch's e6 grid (four i32 compares per row,
    // no `Option` discriminant) against the same predicate over row
    // structs. This is the per-morsel hot loop the fused engine runs.
    {
        const N: usize = 200_000;
        let (_, tweets) = corpus(&g, N);
        let mut batch = ColumnBatch::with_capacity(N);
        for t in &tweets {
            batch.push(t.user, t.tweet_id as i64, t.gps);
        }
        let (min_lat, max_lat) = (
            (KOREA_BBOX.min_lat * 1e6).floor() as i32,
            (KOREA_BBOX.max_lat * 1e6).ceil() as i32,
        );
        let (min_lon, max_lon) = (
            (KOREA_BBOX.min_lon * 1e6).floor() as i32,
            (KOREA_BBOX.max_lon * 1e6).ceil() as i32,
        );
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function(BenchmarkId::new("columnar_filter", N), |b| {
            b.iter(|| {
                let mut kept = 0u64;
                let lats = black_box(&batch.lats_e6);
                let lons = black_box(&batch.lons_e6);
                for (&lat, &lon) in lats.iter().zip(lons) {
                    let has_gps = lat != NO_GPS_E6;
                    let inside =
                        lat >= min_lat && lat <= max_lat && lon >= min_lon && lon <= max_lon;
                    kept += (has_gps && inside) as u64;
                }
                black_box(kept)
            })
        });
        group.bench_function(BenchmarkId::new("row_filter", N), |b| {
            b.iter(|| {
                let mut kept = 0u64;
                for t in black_box(&tweets) {
                    if let Some(p) = t.gps {
                        if KOREA_BBOX.contains(p) {
                            kept += 1;
                        }
                    }
                }
                black_box(kept)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);
