//! End-to-end benchmark of the Fig. 7 job on the repository's four paths.
//!
//! ```text
//! e2e-bench --workload {batch,store,stream,repro_all} --seed N --seconds S
//!           --trace {0,1} [--threads T] [--out-dir DIR] [--repro-bin PATH]
//! ```
//!
//! Prints one JSON object as the last line of stdout: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). See README.md
//! for the workloads and the metric → layer → workload map.

mod batch;
mod corpus;
mod repro_all;
mod speed;
mod store;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use corpus::SetupTimes;
use speed::Speed;
use trace::Tracer;

/// Scale of the Korean paper spec for the in-process workloads: 26,100
/// users and ~5.0 M tweets, of which only ~30 K carry a GPS fix from a
/// kept user — the GPS-less majority stays in every input.
pub const KOREAN_SCALE: f64 = 0.5;

/// Seed of the user population of the in-process workloads. The run's
/// seed draws their tweets (timestamps, GPS fixes, text): redrawing the
/// population too would change the work per run by up to 20 % (geocode
/// lookups ranged 30,135–37,551 over seeds 1–5), which the spread across
/// seeds would count as noise. Seed 2012 gives exactly `repro`'s corpus.
pub const POPULATION_SEED: u64 = 2012;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// End-to-end metrics (printed untraced), with units. Times are rescaled
/// to reference machine speed (see `speed.rs`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fig7_ms", "ms"),
    ("job_s", "s"),
];

/// Per-layer metrics (printed traced), with units. A layer a workload
/// never calls reports 0. Per-call times are medians rescaled like the
/// end-to-end ones; `self.*` are raw span self times summed over the run;
/// `bench.*_raw_*` are the end-to-end times before rescaling. Units
/// `count` and `bytes` mark the exact counters `run.py --check` compares.
const PER_LAYER: &[(&str, &str)] = &[
    ("geokr.gazetteer.load_ms", "ms"),
    ("twitter-sim.datasets.generate_ms", "ms"),
    ("twitter-sim.datasets.materialize_ms", "ms"),
    ("twitter-sim.stream.collect_ms", "ms"),
    ("twitter-sim.datasets.tweets", "count"),
    ("core.pipeline.execute_ms", "ms"),
    ("core.pipeline.execute_windowed_ms", "ms"),
    ("core.pipeline.rows_in", "count"),
    ("core.pipeline.users_kept", "count"),
    ("core.pipeline.select_cache_hits", "count"),
    ("geokr.reverse.lookups", "count"),
    ("geokr.reverse.cache_hits", "count"),
    ("geokr.reverse.cache_hit_ratio", "ratio"),
    ("core.stats.group_table_ms", "ms"),
    ("core.bootstrap.cis_ms", "ms"),
    ("tweetstore.store.append_ns_per_tweet", "ns"),
    ("tweetstore.store.seal_ms", "ms"),
    ("tweetstore.store.ingest_tweets_per_s", "1/s"),
    ("tweetstore.store.segments", "count"),
    ("tweetstore.store.payload_bytes", "bytes"),
    ("tweetstore.persist.save_ms", "ms"),
    ("tweetstore.persist.load_ms", "ms"),
    ("tweetstore.persist.disk_bytes", "bytes"),
    ("tweetstore.persist.bytes_per_tweet", "bytes/tweet"),
    ("tweetstore.scan.records_yielded", "count"),
    ("tweetstore.scan.bytes_decoded", "bytes"),
    ("core.sketch.segments_merged", "count"),
    ("core.sketch.entries_merged", "count"),
    ("core.sketch.residual_records", "count"),
    ("core.service.ingest_ns_per_tweet", "ns"),
    ("core.service.ingest_tweets_per_s", "1/s"),
    ("core.service.query_ms", "ms"),
    ("core.service.window7_ms", "ms"),
    ("core.service.query_p95_ms", "ms"),
    ("core.service.queries", "count"),
    ("core.service.checkpoint_ms", "ms"),
    ("core.service.open_ms", "ms"),
    ("tweetstore.wal.sync_ms", "ms"),
    ("tweetstore.wal.syncs", "count"),
    ("tweetstore.wal.bytes", "bytes"),
    ("tweetstore.snapshot.bytes", "bytes"),
    ("repro.all_ms", "ms"),
    ("repro.fig7_ms", "ms"),
    ("repro.datasets_generated", "count"),
    ("repro.peak_rss_mb", "MB"),
    ("oracle.user_mismatches", "count"),
    ("oracle.fig7_inexact_ratio", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.failed_first_job", "count"),
    ("bench.setup_raw_s", "s"),
    ("bench.fig7_raw_ms", "ms"),
    ("bench.job_raw_s", "s"),
    ("bench.calibration_ms", "ms"),
    ("self.twitter-sim_ms", "ms"),
    ("self.geokr_ms", "ms"),
    ("self.core.pipeline_ms", "ms"),
    ("self.core.stats_ms", "ms"),
    ("self.core.bootstrap_ms", "ms"),
    ("self.tweetstore.store_ms", "ms"),
    ("self.tweetstore.persist_ms", "ms"),
    ("self.core.service_ms", "ms"),
    ("self.tweetstore.wal_ms", "ms"),
    ("self.repro_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "spans"),
];

/// Parsed command line plus the run's tracer.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub out_dir: PathBuf,
    pub repro_bin: Option<PathBuf>,
    pub tracer: Tracer,
}

/// The measured phase of a run: it starts now and lasts the run's seconds.
#[derive(Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Closed-loop pacing: start another operation if one more of the last
    /// one's length would end nearer the budget than stopping now does, so
    /// a run measures its seconds on average even when operations are long.
    pub fn another(&self, last: Option<Duration>) -> bool {
        let last = last.unwrap_or_default();
        (self.start.elapsed() + last / 2).as_secs_f64() <= self.seconds
    }
}

impl Run {
    /// Starts the measured phase.
    pub fn budget(&self) -> Budget {
        Budget {
            start: Instant::now(),
            seconds: self.seconds,
        }
    }

    /// A scratch directory for one operation, inside the output directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join(format!("{name}-{}-{}", std::process::id(), self.seed));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("output directory is writable");
        dir
    }
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Fig. 7 answers checked, and those admissible but not exact.
    fig7_checked: u64,
    fig7_inexact: u64,
    /// Calibration paired with every timed call.
    pub speed: Speed,
    setup: SetupTimes,
    /// Raw samples; every time is rescaled when the run reports.
    fig7_ms: Vec<f64>,
    job_s: Vec<f64>,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced vs untraced median of the same operation, in percent.
    pub overhead: Option<f64>,
}

impl Outcome {
    /// `parallel`: threads of the calibration kernel, matching the timed
    /// operations (see [`Speed::new`]).
    pub fn new(parallel: usize) -> Self {
        Self::with_speed(Speed::new(parallel))
    }

    /// With a calibration of the caller's choice (see [`Speed::child`]).
    pub fn with_speed(speed: Speed) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            fig7_checked: 0,
            fig7_inexact: 0,
            speed,
            setup: SetupTimes::default(),
            fig7_ms: Vec::new(),
            job_s: Vec::new(),
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
            overhead: None,
        }
    }

    /// Records the (raw) set-up medians.
    pub fn set_setup(&mut self, setup: SetupTimes) {
        self.sample("geokr.gazetteer.load_ms", ms(setup.gazetteer));
        self.sample("twitter-sim.datasets.generate_ms", ms(setup.generate));
        self.sample("twitter-sim.datasets.materialize_ms", ms(setup.materialize));
        self.sample("twitter-sim.stream.collect_ms", ms(setup.collect));
        self.set("bench.setup_raw_s", setup.total.as_secs_f64());
        self.setup = setup;
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one checked Fig. 7 answer: it fails unless `admissible`
    /// (see [`corpus::Reference`]); `exact` says whether it is the
    /// exact-geocode table.
    pub fn check_fig7(&mut self, admissible: bool, exact: bool) {
        self.check(admissible);
        self.fig7_checked += 1;
        if admissible && !exact {
            self.fig7_inexact += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// One sample of a per-layer time (or rate, unit `1/s`); the run
    /// reports the rescaled median.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.samples.entry(name).or_default().push(value);
    }

    /// One all-time Fig. 7 answer on this workload's path.
    pub fn fig7(&mut self, wall: Duration) {
        self.fig7_ms.push(ms(wall));
    }

    /// One whole job of this workload.
    pub fn job(&mut self, wall: Duration) {
        self.job_s.push(wall.as_secs_f64());
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile; 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Runs the calibration kernel under a span.
pub fn calibrate(tr: &mut Tracer, speed: &mut Speed) {
    tr.time("bench.calibrate", || speed.calibrate());
}

/// Runs `op` alternately traced and untraced, `pairs` times each, and
/// returns how much slower the traced median is, in percent.
pub fn overhead_probe(
    tr: &mut Tracer,
    pairs: usize,
    mut op: impl FnMut(&mut Tracer) -> Duration,
) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..2 * pairs {
        let traced = i % 2 == 0;
        tr.set_recording(traced);
        let d = ms(op(tr));
        if traced {
            on.push(d);
        } else {
            off.push(d);
        }
    }
    tr.set_recording(true);
    (median(&on) / median(&off) - 1.0) * 100.0
}

/// Peak resident set of process `pid` (`self` for this one), in kB.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: e2e-bench --workload {{batch,store,stream,repro_all}} --seed N --seconds S \
         --trace {{0,1}} [--threads T] [--out-dir DIR] [--repro-bin PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == [speed::CALIBRATE_ARG] {
        speed::fresh_kernel();
        return ExitCode::SUCCESS;
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag {} needs a value", pair[0]));
        };
        let Some(name) = flag.strip_prefix("--") else {
            return usage(&format!("unexpected argument {flag}"));
        };
        opts.insert(name, value);
    }
    let parse = |name: &str, default: Option<&str>| -> Result<String, String> {
        opts.get(name)
            .copied()
            .or(default)
            .map(str::to_string)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let fields = (|| -> Result<_, String> {
        let workload = parse("workload", None)?;
        let seed: u64 = parse("seed", None)?.parse().map_err(|_| "bad --seed")?;
        let seconds: f64 = parse("seconds", None)?
            .parse()
            .map_err(|_| "bad --seconds")?;
        let trace = parse("trace", Some("0"))?;
        let threads: usize = parse("threads", Some("2"))?
            .parse()
            .map_err(|_| "bad --threads")?;
        let out_dir = PathBuf::from(parse("out-dir", Some(".bench_out"))?);
        let repro_bin = opts.get("repro-bin").map(PathBuf::from);
        if !(trace == "0" || trace == "1") || !seconds.is_finite() || seconds <= 0.0 || threads == 0
        {
            return Err("bad --trace, --seconds or --threads".into());
        }
        for name in opts.keys() {
            if ![
                "workload",
                "seed",
                "seconds",
                "trace",
                "threads",
                "out-dir",
                "repro-bin",
            ]
            .contains(name)
            {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok((
            workload,
            seed,
            seconds,
            trace == "1",
            threads,
            out_dir,
            repro_bin,
        ))
    })();
    let (workload, seed, seconds, traced, threads, out_dir, repro_bin) = match fields {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let mut run = Run {
        seed,
        seconds,
        threads,
        out_dir,
        repro_bin,
        tracer: Tracer::new(traced),
    };
    let run_start = Instant::now();
    let outcome = match workload.as_str() {
        "batch" => batch::run(&mut run),
        "store" => store::run(&mut run),
        "stream" => stream::run(&mut run),
        "repro_all" => match repro_all::run(&mut run) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => return usage(&format!("unknown workload {other}")),
    };
    let line = report(&run, &outcome, &workload);
    eprintln!(
        "[e2e-bench] {workload}: {} operations, {} failed, {:.1} s",
        outcome.attempted,
        outcome.failed,
        run_start.elapsed().as_secs_f64()
    );
    println!("{line}");
    ExitCode::SUCCESS
}

/// Builds the result line and, for a traced run, writes the spans out.
fn report(run: &Run, o: &Outcome, workload: &str) -> String {
    let factor = o.speed.factor();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if run.tracer.enabled() {
        let mut values = o.values.clone();
        for (name, v) in &o.samples {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| *u);
            let rescale = if unit == "1/s" { 1.0 / factor } else { factor };
            values.insert(name, median(v) * rescale);
        }
        values.insert("bench.error_rate", ratio(o.failed, o.attempted));
        values.insert(
            "oracle.fig7_inexact_ratio",
            ratio(o.fig7_inexact, o.fig7_checked),
        );
        for (layer, t) in run.tracer.self_time_by_layer() {
            let top = match layer.split('.').next() {
                Some(crate_name @ ("twitter-sim" | "geokr" | "repro" | "bench")) => crate_name,
                _ => layer,
            };
            let key = format!("self.{top}_ms");
            if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == key) {
                *values.entry(name).or_insert(0.0) += ms(t);
            }
        }
        values.insert("trace.overhead_pct", o.overhead.unwrap_or(0.0));
        values.insert("trace.spans", run.tracer.span_count() as f64);
        values.insert("bench.fig7_raw_ms", median(&o.fig7_ms));
        values.insert("bench.job_raw_s", median(&o.job_s));
        values.insert("bench.calibration_ms", o.speed.median_kernel_ms());
        for (name, unit) in PER_LAYER {
            metrics.push((name, values.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = run
            .out_dir
            .join(format!("trace-{workload}-{}.jsonl", run.seed));
        if std::fs::create_dir_all(&run.out_dir).is_ok()
            && std::fs::write(&path, run.tracer.to_json_lines()).is_ok()
        {
            eprintln!("[e2e-bench] spans written to {}", path.display());
        }
    } else {
        let rss_kb = peak_rss_kb("self").unwrap_or_default();
        for (name, unit) in END_TO_END {
            let v = match *name {
                "setup_s" => o.setup.total.as_secs_f64() * factor,
                "peak_rss_mb" => rss_kb as f64 / 1024.0,
                "fig7_ms" => median(&o.fig7_ms) * factor,
                "job_s" => median(&o.job_s) * factor,
                _ => unreachable!("every end-to-end metric is computed above"),
            };
            metrics.push((name, v, unit));
        }
    }
    let mut body = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
    )
}
