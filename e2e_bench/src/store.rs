//! `store`: writes beside reads on the sealed store. The firehose arrival
//! order goes into a v2 `TweetStore` with the `GazetteerSketcher`
//! installed, is sealed, saved and loaded back; then all-time Fig. 7
//! queries (sketches on) alternate with 7-day windowed queries against the
//! loaded store. Seal-time geocoding and sketch building are paid at
//! ingest, so work moved from query time to seal time shows here as a
//! query gain *and* an ingest loss.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stir_core::{GazetteerSketcher, GroupTable, TimeWindow};
use stir_tweetstore::{persist, StoreFormat, TweetRecord, TweetStore};
use stir_twitter_sim::datasets::DatasetSpec;
use stir_twitter_sim::stream::{collect, StreamSpec};

use crate::corpus::{self, fig7_of_table, fig7_of_users, user_mismatches, Oracle, Order};
use crate::trace::Tracer;
use crate::{calibrate, ms, ratio, Outcome, Run, KOREAN_SCALE, POPULATION_SEED, SETUP_REPS};

/// Records per traced append span.
const APPEND_CHUNK: usize = 65_536;
/// Append chunks (of ~1 M records) between calibrations.
const CALIBRATE_EVERY_CHUNKS: usize = 16;
/// Fig. 7 / window query pairs at least, after the build.
const MIN_QUERY_PAIRS: usize = 20;
/// Days in the windowed query (the corpus's last seven).
const WINDOW_DAYS: u64 = 7;
const DAY: u64 = 86_400;

/// The firehose arrival order as store records (text included), from
/// `stream::collect`.
pub fn arrival_records(
    tr: &mut crate::trace::Tracer,
    c: &corpus::Corpus,
    keep_text: bool,
    times: &mut corpus::SetupTimes,
) -> Vec<TweetRecord> {
    let (records, t) = tr.time("twitter-sim.stream.collect", || {
        collect(&c.dataset, c.gazetteer, &StreamSpec::firehose())
            .tweets
            .into_iter()
            .map(|t| TweetRecord {
                id: t.id.0,
                user: t.user.0,
                timestamp: t.timestamp,
                gps: t.gps,
                text: if keep_text { t.text } else { String::new() },
            })
            .collect::<Vec<_>>()
    });
    times.collect = t;
    records
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(run: &mut Run) -> Outcome {
    let seed = run.seed;
    let mut out = Outcome::new(run.threads);
    let setup = corpus::repeated_setup(SETUP_REPS, &mut run.tracer, &mut out.speed, |tr, times| {
        let spec = DatasetSpec::korean_paper().scaled(KOREAN_SCALE);
        let c = corpus::generate(tr, spec, POPULATION_SEED, seed, times);
        // The sketcher resolves against a gazetteer of its own.
        let (sketcher, t) = tr.time(
            "geokr.gazetteer.load",
            || Arc::new(GazetteerSketcher::new()),
        );
        times.gazetteer += t;
        let records = arrival_records(tr, &c, true, times);
        (c, records, sketcher)
    });
    let ((c, records, sketcher), times) = setup;
    out.set_setup(times);
    let tweets = records.len() as u64;
    out.set("twitter-sim.datasets.tweets", tweets as f64);

    let kept = corpus::kept_profiles(c.gazetteer, &c.profiles);
    let oracle = Oracle::new(
        c.gazetteer,
        kept,
        records.iter().map(|r| (r.user, r.timestamp, r.gps)),
    );
    let last_day = records.iter().map(|r| r.timestamp / DAY).max().unwrap_or(0);
    let window = TimeWindow::days((last_day + 1).saturating_sub(WINDOW_DAYS), last_day + 1);
    let reference = oracle.grouped(|_| true);
    let tweets_in = records.len();
    let want_all = oracle.reference(fig7_of_users(&reference), tweets_in, |_| true, Order::Input);
    let in_window = |f: &corpus::Fix| window.contains(f.timestamp);
    let want_window = oracle.reference(
        fig7_of_users(&oracle.grouped(in_window)),
        tweets_in,
        in_window,
        Order::Input,
    );

    // One build per run (it takes most of a run); queries fill the rest.
    let budget = run.budget();
    let dir = run.scratch("store");
    let tr = &mut run.tracer;
    let speed = &mut out.speed;
    let span = tr.enter("bench.job");
    // Calibrations run every ~second of the build; none is timed.
    calibrate(tr, speed);
    let mut store = TweetStore::with_format(StoreFormat::V2);
    store.set_sketcher(sketcher.clone());
    let mut append = Duration::ZERO;
    for (i, chunk) in records.chunks(APPEND_CHUNK).enumerate() {
        let ((), t) = tr.time("tweetstore.store.append", || {
            for r in chunk {
                store.append(r);
            }
        });
        append += t;
        if (i + 1) % CALIBRATE_EVERY_CHUNKS == 0 {
            calibrate(tr, speed);
        }
    }
    let ((), seal) = tr.time("tweetstore.store.seal", || store.seal_active());
    let stats = store.stats();
    let (saved, save) = tr.time("tweetstore.persist.save", || persist::save(&store, &dir));
    let disk = dir_bytes(&dir);
    drop(store);
    calibrate(tr, speed);
    let (loaded, load) = tr.time("tweetstore.persist.load", || persist::load(&dir));
    calibrate(tr, speed);
    tr.exit(span);
    let _ = std::fs::remove_dir_all(&dir);
    out.check(saved.is_ok());
    let loaded = match loaded {
        Ok(s) if saved.is_ok() => s,
        other => {
            eprintln!("store: save {saved:?}, load {:?}", other.err());
            out.check(false);
            return out;
        }
    };
    out.check(loaded.len() as u64 == tweets);
    out.job(append + seal + save + load);
    let per_tweet = append.as_secs_f64() * 1e9 / tweets as f64;
    out.sample("tweetstore.store.append_ns_per_tweet", per_tweet);
    out.sample("tweetstore.store.seal_ms", ms(seal));
    let rate = tweets as f64 / (append + seal).as_secs_f64();
    out.sample("tweetstore.store.ingest_tweets_per_s", rate);
    out.sample("tweetstore.persist.save_ms", ms(save));
    out.sample("tweetstore.persist.load_ms", ms(load));
    out.set("tweetstore.store.segments", stats.segments as f64);
    out.set("tweetstore.store.payload_bytes", stats.payload_bytes as f64);
    out.set("tweetstore.persist.disk_bytes", disk as f64);
    out.set(
        "tweetstore.persist.bytes_per_tweet",
        disk as f64 / tweets as f64,
    );

    let pipeline = corpus::pipeline(c.gazetteer, run.threads, true);
    let fig7 = |tr: &mut Tracer| {
        let op = tr.enter("bench.op");
        let start = Instant::now();
        let (result, exec) = tr.time("core.pipeline.execute", || {
            pipeline.execute(c.profiles.clone(), &loaded)
        });
        let (table, table_t) = tr.time("core.stats.group_table", || {
            GroupTable::compute(&result.users)
        });
        let wall = start.elapsed();
        tr.exit(op);
        (result, fig7_of_table(&table), wall, exec, table_t)
    };
    let mut pairs = 0;
    let mut last = None;
    while pairs < MIN_QUERY_PAIRS || budget.another(last) {
        let pair = Instant::now();
        calibrate(tr, &mut out.speed);
        let (result, got, wall, exec, table_t) = fig7(tr);
        out.check_fig7(want_all.allows(&got), got == want_all.exact);
        out.fig7(wall);
        out.sample("core.pipeline.execute_ms", ms(exec));
        out.sample("core.stats.group_table_ms", ms(table_t));
        if pairs == 0 {
            let m = &result.metrics;
            let scan = m.scan.clone().unwrap_or_default();
            let exec = m.exec.clone().unwrap_or_default();
            out.set("core.pipeline.rows_in", exec.rows_in as f64);
            out.set(
                "core.pipeline.users_kept",
                result.kept_profiles.len() as f64,
            );
            out.set(
                "core.pipeline.select_cache_hits",
                m.select.profile_cache_hits as f64,
            );
            out.set("geokr.reverse.lookups", m.geocode.lookups as f64);
            out.set("geokr.reverse.cache_hits", m.geocode.cache_hits as f64);
            out.set(
                "geokr.reverse.cache_hit_ratio",
                ratio(m.geocode.cache_hits, m.geocode.lookups),
            );
            out.set(
                "tweetstore.scan.records_yielded",
                scan.records_yielded as f64,
            );
            out.set("tweetstore.scan.bytes_decoded", scan.bytes_decoded as f64);
            out.set("core.sketch.segments_merged", scan.sketch_segments as f64);
            out.set(
                "core.sketch.entries_merged",
                scan.sketch_entries_merged as f64,
            );
            out.set(
                "core.sketch.residual_records",
                scan.records_scanned_residual as f64,
            );
            out.set(
                "oracle.user_mismatches",
                user_mismatches(&result.users, &reference) as f64,
            );
        }

        let op = tr.enter("bench.op");
        let (result, t) = tr.time("core.pipeline.execute_windowed", || {
            pipeline.execute_windowed(c.profiles.clone(), &loaded, window)
        });
        let table = GroupTable::compute(&result.users);
        tr.exit(op);
        let got = fig7_of_table(&table);
        out.check_fig7(want_window.allows(&got), got == want_window.exact);
        out.sample("core.pipeline.execute_windowed_ms", ms(t));
        pairs += 1;
        if pairs == MIN_QUERY_PAIRS {
            out.set("bench.failed_first_job", out.failed as f64);
        }
        last = Some(pair.elapsed());
    }
    if tr.enabled() {
        out.overhead = Some(crate::overhead_probe(tr, 10, |tr| fig7(tr).2));
    }
    out
}
