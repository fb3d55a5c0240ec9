//! Minimum-time sweep of the pipeline across threads, adaptive and exact.
//!
//! Criterion's mean-based estimates are unusable on a shared container:
//! CPU-steal spikes inflate a 7 ms run to 70 ms and the means flip
//! randomly between cells that execute identical code. This harness
//! measures each (corpus × threads × scheduler) cell as the **minimum** wall
//! time over `ROUNDS` in-process runs, with the cells interleaved
//! round-robin so slow drift in the host's steal rate lands on every cell
//! equally, and prints one JSON object per cell, ready for
//! `BENCH_pipeline.json`.
//!
//! ```text
//! cargo run --release -p stir-bench --bin sweep_pipeline
//! ```

use std::time::Instant;

use stir_bench::district_points;
use stir_core::{PipelineBuilder, ProfileRow, RefinementPipeline, TweetRow};
use stir_geokr::Gazetteer;

const PROFILE_TEXTS: [&str; 4] = [
    "Seoul Yangcheon-gu",
    "Seoul Gangnam-gu",
    "Busan Jung-gu",
    "Gyeonggi-do Bucheon-si",
];

const ROUNDS: usize = 25;

type Corpus = (Vec<ProfileRow>, Vec<TweetRow>);

/// Same corpus shape as `benches/pipeline.rs`: `n` tweets over `n / 50`
/// users, ~70% carrying a district-centroid GPS fix.
fn corpus(g: &Gazetteer, n: usize) -> Corpus {
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

struct Cell {
    label: &'static str,
    threads: usize,
    n: usize,
    pipeline: RefinementPipeline<'static>,
    best_nanos: u128,
    users_final: u64,
}

fn main() {
    let g: &'static Gazetteer = Box::leak(Box::new(Gazetteer::load()));
    let corpora: Vec<(usize, Corpus)> = [50_000usize, 200_000]
        .iter()
        .map(|&n| (n, corpus(g, n)))
        .collect();

    let mut cells: Vec<Cell> = Vec::new();
    for &(n, _) in &corpora {
        for &threads in &[1usize, 8] {
            for (label, exact) in [("fused", false), ("fused-exact", true)] {
                if exact && threads == 1 {
                    // Identical to plain `fused` at one thread.
                    continue;
                }
                cells.push(Cell {
                    label,
                    threads,
                    n,
                    pipeline: PipelineBuilder::new(g)
                        .threads(threads)
                        .threads_exact(exact)
                        .build()
                        .unwrap(),
                    best_nanos: u128::MAX,
                    users_final: 0,
                });
            }
        }
    }

    // Round-robin: one run of every cell per round (round 0 is warmup and
    // is not recorded), so a slow patch of host noise cannot single out
    // one cell's whole sample.
    for round in 0..=ROUNDS {
        for cell in cells.iter_mut() {
            let (profiles, tweets) = &corpora.iter().find(|&&(n, _)| n == cell.n).unwrap().1;
            let p = profiles.clone();
            let t = tweets.clone();
            let start = Instant::now();
            let result = cell.pipeline.execute(p, t);
            let nanos = start.elapsed().as_nanos();
            if round > 0 {
                cell.best_nanos = cell.best_nanos.min(nanos.max(1));
            }
            cell.users_final = result.funnel.users_final;
        }
    }

    println!("[");
    for (i, cell) in cells.iter().enumerate() {
        let elem_per_s = (cell.n as u128 * 1_000_000_000 / cell.best_nanos) as u64;
        println!(
            "  {{\"bench\": \"{}/t{}\", \"tweets\": {}, \"min_ms\": {:.3}, \
             \"elem_per_s\": {}, \"users_final\": {}}}{}",
            cell.label,
            cell.threads,
            cell.n,
            cell.best_nanos as f64 / 1e6,
            elem_per_s,
            cell.users_final,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    println!("]");
}
