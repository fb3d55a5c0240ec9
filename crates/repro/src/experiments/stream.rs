//! `repro stream` — E23: the paper's figures from the streaming service.
//!
//! The 2011 dataset was gathered over a streaming connection, so this
//! experiment replays that collection path: the full corpus is delivered
//! in arrival order (`StreamSpec::firehose()`), ingested chunk by chunk
//! through the incremental [`AnalysisSession`], and the final live state
//! is queried for Fig. 7. The stdout is byte-identical to `repro fig7`
//! over the same seed and scale — CI diffs the two by checksum.
//!
//! `--restore-midway` swaps in the durable service shell: the session
//! runs WAL-first, checkpoints halfway through the stream, is dropped,
//! and resumes from disk (checkpoint + WAL tail replay) before ingesting
//! the rest. Output is still byte-identical — the flag exists to prove
//! that a service restart is invisible in every figure.

use stir_core::{AnalysisResult, AnalysisSession, DurableSession, GroupTable, ProfileRow};
use stir_tweetstore::TweetRecord;
use stir_twitter_sim::datasets::Dataset;
use stir_twitter_sim::stream::{collect, StreamCollection, StreamSpec};

use crate::context::{gazetteer, korean_spec, pipeline, Options};
use crate::experiments::fig7;

/// Tweets per delivery batch — a plausible socket-drain granularity; any
/// value yields the same figures (pinned by the session proptests).
const CHUNK: usize = 4_096;

/// Runs the experiment and prints Fig. 7 from live session state.
pub fn run(opts: &Options) {
    let spec = korean_spec(opts);
    eprintln!(
        "[{}] generating {} users (seed {}, scale {:.2}) …",
        spec.name, spec.n_users, opts.seed, opts.scale
    );
    report(opts, &Dataset::generate(spec, gazetteer(), opts.seed));
}

/// Streams the generated Korean dataset (shared with `all`) through the
/// session and prints Fig. 7 from its live state.
pub fn report(opts: &Options, dataset: &Dataset) {
    let g = gazetteer();
    let stream = collect(dataset, g, &StreamSpec::firehose());
    eprintln!(
        "[stream] firehose delivered {} tweets from {} authors, in {CHUNK}-tweet chunks …",
        stream.tweets.len(),
        stream.users.len()
    );
    let profiles: Vec<ProfileRow> = dataset
        .users
        .iter()
        .map(|u| ProfileRow {
            user: u.id.0,
            location_text: u.location_text.clone(),
        })
        .collect();

    let result = if opts.restore_midway {
        durable_run(opts, &stream, &profiles)
    } else {
        let mut session = AnalysisSession::new(pipeline(g, opts), profiles);
        for batch in stream.deliveries(CHUNK) {
            for t in batch {
                session.ingest(t.user.0, t.timestamp, t.gps);
            }
        }
        eprintln!(
            "[stream] session ingested {} tweets, {} users live",
            session.ingested(),
            session.users_live()
        );
        session.query().execute()
    };

    let table = GroupTable::compute(&result.users);
    fig7::print(&table);
    fig7::print_cis(&result.users, opts);
}

/// The `--restore-midway` path: WAL-first ingest through the durable
/// shell, a checkpoint at the halfway mark, a full teardown, and a
/// resume-from-disk before the second half of the stream.
fn durable_run(
    opts: &Options,
    stream: &StreamCollection,
    profiles: &[ProfileRow],
) -> AnalysisResult {
    let g = gazetteer();
    let dir = std::env::temp_dir().join(format!(
        "stir-repro-stream-{}-{}",
        std::process::id(),
        opts.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create stream scratch dir");
    let wal_path = dir.join("session.wal");
    let snap_path = dir.join("session.snap");
    let rec = |t: &stir_twitter_sim::tweetgen::Tweet| TweetRecord {
        id: t.id.0,
        user: t.user.0,
        timestamp: t.timestamp,
        gps: t.gps,
        text: String::new(),
    };

    let half = stream.tweets.len() / 2;
    {
        let mut svc =
            DurableSession::open(&wal_path, &snap_path, pipeline(g, opts), profiles.to_vec())
                .expect("open durable session");
        for t in &stream.tweets[..half] {
            svc.ingest(&rec(t)).expect("WAL append");
        }
        svc.checkpoint().expect("checkpoint");
        eprintln!(
            "[stream] checkpointed at ordinal {}; dropping the service …",
            svc.session().ingested()
        );
    }

    let mut svc = DurableSession::open(&wal_path, &snap_path, pipeline(g, opts), profiles.to_vec())
        .expect("resume durable session");
    eprintln!(
        "[stream] resumed from disk at ordinal {}; ingesting the remaining {} tweets …",
        svc.session().ingested(),
        stream.tweets.len() - half
    );
    for t in &stream.tweets[half..] {
        svc.ingest(&rec(t)).expect("WAL append");
    }
    svc.sync().expect("WAL sync");
    let result = svc.query().execute();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    result
}
