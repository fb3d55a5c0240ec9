//! `stream`: the service path. The firehose arrival order goes through a
//! `DurableSession` in 4,096-tweet deliveries, with one WAL `sync` per
//! delivery as its acknowledgement. Every few deliveries a live query runs,
//! alternating all-time Fig. 7 and `window(7)`. At the halfway mark the
//! session checkpoints, is dropped and is reopened from disk (timed as
//! recovery), then ingests the rest. Bypasses the fused executor and the
//! sealed segments.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stir_core::{
    group_user_strings, DurableSession, GroupTable, GroupedUser, LocationString, ProfileRow,
};
use stir_geokr::{DistrictId, Gazetteer};
use stir_tweetstore::TweetRecord;
use stir_twitter_sim::datasets::DatasetSpec;

use crate::corpus::{
    self, fig7_of_table, fig7_of_users, user_mismatches, Fig7, Oracle, Order, Reference,
};
use crate::trace::Tracer;
use crate::{calibrate, ms, percentile, Outcome, Run, KOREAN_SCALE, POPULATION_SEED, SETUP_REPS};

/// Tweets per delivery, as `repro stream` drains its socket.
const CHUNK: usize = 4_096;
/// A live query after every this many deliveries.
const QUERY_EVERY: usize = 4;
/// Deliveries between calibrations (~0.3 s of ingest).
const CALIBRATE_EVERY: usize = 96;
/// Days in the windowed query.
const WINDOW_DAYS: u64 = 7;
const DAY: u64 = 86_400;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    AllTime,
    Window,
}

/// A query after delivery `after` (0-based).
struct QueryPoint {
    after: usize,
    kind: Kind,
    want: Reference,
}

/// The query schedule with each query's reference answer. The exact
/// tables are computed incrementally from the oracle's fixes (arrival
/// order), then widened by the cache-cell alternatives.
fn schedule(oracle: &Oracle, tweets: usize) -> Vec<QueryPoint> {
    let deliveries = tweets.div_ceil(CHUNK);
    let fixes = &oracle.fixes;
    let mut strings: HashMap<u64, Vec<LocationString>> = HashMap::new();
    let mut groups: BTreeMap<u64, usize> = BTreeMap::new();
    // Per user: district → rank of its first appearance in the user's
    // stream (the session breaks windowed ties by this global order).
    let mut first_seen: HashMap<(u64, DistrictId), usize> = HashMap::new();
    let mut dirty: HashSet<u64> = HashSet::new();
    let mut next = 0;
    let mut points = Vec::new();
    let queries = (0..deliveries).filter(|d| (d + 1) % QUERY_EVERY == 0);
    for (k, after) in queries.enumerate() {
        let prefix = ((after + 1) * CHUNK).min(tweets);
        while next < fixes.len() && fixes[next].ordinal < prefix {
            let f = &fixes[next];
            let list = strings.entry(f.user).or_default();
            let seen = first_seen.len();
            first_seen.entry((f.user, f.district)).or_insert(seen);
            list.push(oracle.string(f.user, f.district));
            dirty.insert(f.user);
            next += 1;
        }
        let mut exact: Fig7 = [0; 7];
        let (kind, want) = if k % 2 == 0 {
            for user in dirty.drain() {
                let grouped = group_user_strings(&strings[&user])
                    .expect("a dirty user has at least one string");
                groups.insert(user, grouped.group().index());
            }
            for &g in groups.values() {
                exact[g] += 1;
            }
            let want = oracle.reference(exact, prefix, |_| true, Order::Input);
            (Kind::AllTime, want)
        } else {
            let horizon = fixes[..next].last().map_or(0, |newest| {
                (newest.timestamp / DAY).saturating_sub(WINDOW_DAYS - 1)
            });
            let lo = fixes[..next].partition_point(|f| f.timestamp / DAY < horizon);
            let mut per_user: BTreeMap<u64, Vec<(usize, LocationString)>> = BTreeMap::new();
            for f in &fixes[lo..next] {
                let seen = first_seen[&(f.user, f.district)];
                per_user
                    .entry(f.user)
                    .or_default()
                    .push((seen, oracle.string(f.user, f.district)));
            }
            for mut list in per_user.into_values() {
                list.sort_by_key(|(seen, _)| *seen);
                let list: Vec<LocationString> = list.into_iter().map(|(_, s)| s).collect();
                if let Some(g) = group_user_strings(&list) {
                    exact[g.group().index()] += 1;
                }
            }
            let in_window = |f: &corpus::Fix| f.timestamp / DAY >= horizon;
            let want = oracle.reference(exact, prefix, in_window, Order::FirstSeen);
            (Kind::Window, want)
        };
        points.push(QueryPoint { after, kind, want });
    }
    points
}

/// What every pass replays and checks against.
struct Inputs<'a> {
    gazetteer: &'static Gazetteer,
    profiles: &'a [ProfileRow],
    records: &'a [TweetRecord],
    points: &'a [QueryPoint],
    /// Exact per-user answer over the whole stream.
    reference: &'a [GroupedUser],
    /// Fig. 7 reference over the whole stream.
    want: &'a Reference,
}

struct Pass {
    session: DurableSession<'static>,
    dir: PathBuf,
}

/// One full pass over the stream in a fresh directory. Live query times go
/// to `query_times` (both kinds, for the p95).
fn pass(
    run: &mut Run,
    out: &mut Outcome,
    query_times: &mut Vec<f64>,
    input: &Inputs,
    first: bool,
) -> Option<Pass> {
    let Inputs {
        gazetteer,
        profiles,
        records,
        points,
        reference,
        want,
    } = *input;
    let threads = run.threads;
    let dir = run.scratch("stream");
    let wal = dir.join("session.wal");
    let snap = dir.join("session.snap");
    let deliveries = records.len().div_ceil(CHUNK);
    let half = deliveries / 2;
    let tr = &mut run.tracer;

    let pass_start = Instant::now();
    let spent = out.speed.spent;
    let job = tr.enter("bench.job");
    calibrate(tr, &mut out.speed);
    let (opened, _) = tr.time("core.service.open", || {
        DurableSession::open(
            &wal,
            &snap,
            corpus::pipeline(gazetteer, threads, false),
            profiles.to_vec(),
        )
    });
    let mut session = match opened {
        Ok(s) => s,
        Err(e) => {
            tr.exit(job);
            eprintln!("stream: open failed: {e:?}");
            out.check(false);
            return None;
        }
    };
    let (mut ingest, mut sync) = (Duration::ZERO, Duration::ZERO);
    let (mut syncs, mut queries) = (0u64, 0u64);
    let mut points = points.iter().peekable();
    for (d, batch) in records.chunks(CHUNK).enumerate() {
        if d > 0 && d % CALIBRATE_EVERY == 0 {
            calibrate(tr, &mut out.speed);
        }
        let (appended, t) = tr.time("core.service.ingest", || {
            batch.iter().try_for_each(|r| session.ingest(r))
        });
        ingest += t;
        let (synced, t) = tr.time("tweetstore.wal.sync", || session.sync());
        sync += t;
        syncs += 1;
        out.check(appended.is_ok() && synced.is_ok());

        if let Some(p) = points.next_if(|p| p.after == d) {
            let op = tr.enter("bench.op");
            let q_start = Instant::now();
            let (result, _) = tr.time("core.service.query", || match p.kind {
                Kind::AllTime => session.query().execute(),
                Kind::Window => session.query().window(WINDOW_DAYS).execute(),
            });
            let (table, _) = tr.time("core.stats.group_table", || {
                GroupTable::compute(&result.users)
            });
            let wall = q_start.elapsed();
            tr.exit(op);
            let got = fig7_of_table(&table);
            out.check_fig7(p.want.allows(&got), got == p.want.exact);
            queries += 1;
            query_times.push(ms(wall));
            match p.kind {
                Kind::AllTime => {
                    out.fig7(wall);
                    out.sample("core.service.query_ms", ms(wall));
                }
                Kind::Window => out.sample("core.service.window7_ms", ms(wall)),
            }
        }

        if d + 1 == half {
            let (saved, t) = tr.time("core.service.checkpoint", || session.checkpoint());
            out.check(saved.is_ok());
            out.sample("core.service.checkpoint_ms", ms(t));
            drop(session);
            let (reopened, t) = tr.time("core.service.open", || {
                DurableSession::open(
                    &wal,
                    &snap,
                    corpus::pipeline(gazetteer, threads, false),
                    profiles.to_vec(),
                )
            });
            out.sample("core.service.open_ms", ms(t));
            session = match reopened {
                Ok(s) => s,
                Err(e) => {
                    tr.exit(job);
                    eprintln!("stream: reopen failed: {e:?}");
                    out.check(false);
                    return None;
                }
            };
            out.check(session.session().ingested() == (half * CHUNK).min(records.len()) as u64);
        }
    }
    let final_answer = session.query().execute();
    calibrate(tr, &mut out.speed);
    tr.exit(job);
    // The pass's wall time without the calibrations made inside it.
    out.job(pass_start.elapsed() - (out.speed.spent - spent));
    let got = fig7_of_users(&final_answer.users);
    out.check_fig7(want.allows(&got), got == want.exact);

    let tweets = records.len() as f64;
    let per_tweet = ingest.as_secs_f64() * 1e9 / tweets;
    out.sample("core.service.ingest_ns_per_tweet", per_tweet);
    let rate = tweets / (ingest + sync).as_secs_f64();
    out.sample("core.service.ingest_tweets_per_s", rate);
    out.sample("tweetstore.wal.sync_ms", ms(sync));
    if first {
        let size = |p: &PathBuf| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;
        out.set("tweetstore.wal.syncs", syncs as f64);
        out.set("tweetstore.wal.bytes", size(&wal));
        out.set("tweetstore.snapshot.bytes", size(&snap));
        out.set("core.service.queries", queries as f64);
        out.set(
            "core.pipeline.users_kept",
            final_answer.kept_profiles.len() as f64,
        );
        out.set(
            "oracle.user_mismatches",
            user_mismatches(&final_answer.users, reference) as f64,
        );
    }
    Some(Pass { session, dir })
}

pub fn run(run: &mut Run) -> Outcome {
    let seed = run.seed;
    let mut out = Outcome::new(1);
    let setup = corpus::repeated_setup(SETUP_REPS, &mut run.tracer, &mut out.speed, |tr, times| {
        let spec = DatasetSpec::korean_paper().scaled(KOREAN_SCALE);
        let c = corpus::generate(tr, spec, POPULATION_SEED, seed, times);
        // The service logs headers only, as `repro stream` does.
        let records = crate::store::arrival_records(tr, &c, false, times);
        (c, records)
    });
    let ((c, records), times) = setup;
    out.set_setup(times);
    out.set("twitter-sim.datasets.tweets", records.len() as f64);

    let kept = corpus::kept_profiles(c.gazetteer, &c.profiles);
    let oracle = Oracle::new(
        c.gazetteer,
        kept,
        records.iter().map(|r| (r.user, r.timestamp, r.gps)),
    );
    let reference = oracle.grouped(|_| true);
    let want = oracle.reference(
        fig7_of_users(&reference),
        records.len(),
        |_| true,
        Order::Input,
    );
    let points = schedule(&oracle, records.len());
    let input = Inputs {
        gazetteer: c.gazetteer,
        profiles: &c.profiles,
        records: &records,
        points: &points,
        reference: &reference,
        want: &want,
    };

    let budget = run.budget();
    let mut last: Option<Duration> = None;
    let mut kept_pass: Option<Pass> = None;
    let mut query_times = Vec::new();
    while last.is_none() || budget.another(last) {
        if let Some(p) = kept_pass.take() {
            drop(p.session);
            let _ = std::fs::remove_dir_all(&p.dir);
        }
        let t = Instant::now();
        kept_pass = pass(run, &mut out, &mut query_times, &input, last.is_none());
        if last.is_none() {
            out.set("bench.failed_first_job", out.failed as f64);
        }
        last = Some(t.elapsed());
    }
    out.sample("core.service.query_p95_ms", percentile(&query_times, 95.0));
    if let Some(p) = kept_pass {
        if run.tracer.enabled() {
            let session = &p.session;
            out.overhead = Some(crate::overhead_probe(
                &mut run.tracer,
                20,
                |tr: &mut Tracer| {
                    let op = tr.enter("bench.op");
                    let start = Instant::now();
                    let (result, _) = tr.time("core.service.query", || session.query().execute());
                    tr.time("core.stats.group_table", || {
                        GroupTable::compute(&result.users)
                    });
                    let wall = start.elapsed();
                    tr.exit(op);
                    wall
                },
            ));
        }
        drop(p.session);
        let _ = std::fs::remove_dir_all(&p.dir);
    }
    out
}
