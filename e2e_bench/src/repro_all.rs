//! `repro_all`: the user-facing command dominated by corpus generation.
//! Once per run, untimed, `repro fig7 --scale 0.05` prints the reference
//! Fig. 7 block, which must show the shares of a table the oracle admits
//! (see `corpus::Reference`). Each job then runs `repro all --scale 0.05`
//! (timed), whose every Fig. 7 block must equal that one, and `repro fig7
//! --scale 0.5` (timed). All must exit 0. The only workload that measures
//! the `repro` orchestration layer (and `eventdet`).

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use stir_core::TopKGroup;
use stir_twitter_sim::datasets::DatasetSpec;

use crate::corpus::{self, fig7_of_users, Fig7, Oracle, Order};
use crate::speed::Speed;
use crate::{calibrate, ms, peak_rss_kb, Outcome, Run, KOREAN_SCALE};

/// `repro all` regenerates the Korean corpus once per experiment, so it
/// runs at a tenth of the in-process scale to keep a job near 3 s; the
/// `repro fig7` that checks its Fig. 7 block runs at the same scale.
const CHECK_SCALE: f64 = 0.05;

/// Timed `repro fig7 --scale 0.5` runs per `repro all`.
const FIG7_PER_JOB: usize = 2;

/// Set-ups per run. One takes ~10 ms here (users only, at scale 0.05), so
/// three of them left `setup_s` spreading 0.25 across seeds; more cost
/// almost nothing.
const SETUP_REPS: usize = 15;

struct Child {
    ok: bool,
    stdout: String,
    stderr: String,
    wall: Duration,
    peak_kb: u64,
}

/// How often a child's resident set is sampled. Each sample wakes this
/// process, on a 2-vCPU box where the child runs two workers; its peak is
/// a plateau that lasts far longer than this.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Runs `bin args…` to completion, sampling its peak resident set on a
/// helper thread while this one waits for the exit.
fn run_child(bin: &Path, args: &[String]) -> std::io::Result<Child> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id().to_string();
    let mut out_pipe = child.stdout.take().expect("stdout is piped");
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    std::thread::scope(|s| {
        let out = s.spawn(move || {
            let mut buf = String::new();
            out_pipe.read_to_string(&mut buf).map(|_| buf)
        });
        let err = s.spawn(move || {
            let mut buf = String::new();
            err_pipe.read_to_string(&mut buf).map(|_| buf)
        });
        let (exited, exit) = mpsc::channel::<()>();
        let sampler = s.spawn(move || {
            let mut peak_kb = 0;
            loop {
                peak_kb = peak_kb.max(peak_rss_kb(&pid).unwrap_or(0));
                if exit.recv_timeout(RSS_SAMPLE_EVERY) != Err(RecvTimeoutError::Timeout) {
                    return peak_kb;
                }
            }
        });
        let status = child.wait();
        let wall = start.elapsed();
        drop(exited);
        let peak_kb = sampler.join().expect("sampler does not panic");
        let status = status?;
        let stdout = out.join().expect("stdout reader does not panic")?;
        let stderr = err.join().expect("stderr reader does not panic")?;
        Ok(Child {
            ok: status.success(),
            stdout,
            stderr,
            wall,
            peak_kb,
        })
    })
}

/// Every Fig. 7 block a command printed: from the heading through the
/// `None = …` share line. `all` prints it twice (Fig. 7 proper and the
/// streaming experiment); `fig7` once.
fn fig7_blocks(stdout: &str) -> Vec<Vec<&str>> {
    let lines: Vec<&str> = stdout.lines().collect();
    let mut blocks = Vec::new();
    let mut rest = &lines[..];
    while let Some(start) = rest.iter().position(|l| l.starts_with("=== Fig. 7")) {
        let Some(len) = rest[start..]
            .iter()
            .position(|l| l.starts_with("None") && l.contains(" = "))
        else {
            break;
        };
        blocks.push(rest[start..=start + len].to_vec());
        rest = &rest[start + len + 1..];
    }
    blocks
}

/// The lines of the block the oracle pins: one bar per group ending in its
/// share of users with two decimals (as `GroupTable` computes it), and the
/// cohort size.
fn matches_table(block: &[&str], table: &Fig7) -> bool {
    let total: u64 = table.iter().sum();
    let bars = TopKGroup::ALL.iter().zip(table).all(|(g, &users)| {
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * users as f64 / total as f64
        };
        block.iter().any(|l| {
            l.starts_with(&format!("{:<8} ", g.label())) && l.ends_with(&format!(" {pct:.2}"))
        })
    });
    let cohort = format!("cohort: {total} users");
    bars && block.contains(&cohort.as_str())
}

pub fn run(run: &mut Run) -> Result<Outcome, String> {
    let bin = run
        .repro_bin
        .clone()
        .ok_or("repro_all needs --repro-bin (the built `repro` executable)")?;
    let seed = run.seed;
    // The timed operations are `repro` processes: calibrate with one too.
    let mut out = Outcome::with_speed(Speed::child());
    // Set-up generates the users; the CLI derives the tweets itself, so
    // nothing is materialized here.
    let (c, times) =
        corpus::repeated_setup(SETUP_REPS, &mut run.tracer, &mut out.speed, |tr, times| {
            let spec = DatasetSpec::korean_paper().scaled(CHECK_SCALE);
            corpus::generate(tr, spec, seed, seed, times)
        });
    out.set_setup(times);
    // The oracle derives every tweet once, user by user, without keeping
    // them (rows carry no timestamp; nothing here windows).
    let kept = corpus::kept_profiles(c.gazetteer, &c.profiles);
    let d = &c.dataset;
    let tweets = d
        .users
        .iter()
        .flat_map(|u| d.user_tweets(c.gazetteer, u.id));
    let oracle = Oracle::new(c.gazetteer, kept, tweets.map(|t| (t.user.0, 0, t.gps)));
    let exact = fig7_of_users(&oracle.grouped(|_| true));
    let want = oracle.reference(exact, usize::MAX, |_| true, Order::Input);
    out.set("twitter-sim.datasets.tweets", d.total_tweets() as f64);

    let args = |cmd: &str, scale: f64| -> Vec<String> {
        let (scale, threads, seed) = (scale.to_string(), run.threads.to_string(), seed.to_string());
        [
            cmd,
            "--scale",
            &scale,
            "--threads",
            &threads,
            "--seed",
            &seed,
        ]
        .map(str::to_string)
        .to_vec()
    };
    let (all_args, check_args) = (args("all", CHECK_SCALE), args("fig7", CHECK_SCALE));
    // The timed `fig7` runs on the in-process workloads' corpus size: at
    // 0.05 it takes ~90 ms and its time spread 30 % between runs.
    let fig7_args = args("fig7", KOREAN_SCALE);
    // The output check, untimed, once per run: `fig7` at the same seed and
    // scale as `all` must print one Fig. 7 block showing an admissible
    // table. Every `all` below must print that same block.
    let check = run_child(&bin, &check_args).map_err(|e| e.to_string())?;
    if !check.ok {
        eprintln!("repro failed:\n{}", check.stderr);
    }
    let blocks = fig7_blocks(&check.stdout);
    let block = (check.ok && blocks.len() == 1).then(|| &blocks[0]);
    let exact = block.is_some_and(|b| matches_table(b, &want.exact));
    let admitted = block.is_some_and(|b| want.tables().any(|t| matches_table(b, t)));
    out.check_fig7(admitted, exact);
    // Peak resident set of each `repro all` child, reported per layer only:
    // at scale 0.05 it is ~66 MB on most seeds and ~84 MB on some, which
    // would make it too unsteady for an end-to-end bound.
    let mut peaks_kb = Vec::new();
    let budget = run.budget();
    let mut last: Option<Duration> = None;
    let mut first = true;
    while last.is_none() || budget.another(last) {
        let job = Instant::now();
        let op = run.tracer.enter("bench.op");
        calibrate(&mut run.tracer, &mut out.speed);
        let (all, _) = run.tracer.time("repro.all", || run_child(&bin, &all_args));
        let all = all.map_err(|e| e.to_string())?;
        calibrate(&mut run.tracer, &mut out.speed);
        let all_blocks = fig7_blocks(&all.stdout);
        out.job(all.wall);
        out.sample("repro.all_ms", ms(all.wall));
        peaks_kb.push(all.peak_kb as f64);
        out.check(
            all.ok
                && block.is_some()
                && !all_blocks.is_empty()
                && all_blocks.iter().all(|b| Some(b) == block),
        );
        // A `fig7` takes under half as long as an `all`; more of them give
        // its median as many samples in a run.
        for _ in 0..FIG7_PER_JOB {
            calibrate(&mut run.tracer, &mut out.speed);
            let (fig7, _) = run
                .tracer
                .time("repro.fig7", || run_child(&bin, &fig7_args));
            let fig7 = fig7.map_err(|e| e.to_string())?;
            out.check(fig7.ok && fig7_blocks(&fig7.stdout).len() == 1);
            if !fig7.ok {
                eprintln!("repro failed:\n{}", fig7.stderr);
            }
            out.fig7(fig7.wall);
            out.sample("repro.fig7_ms", ms(fig7.wall));
        }
        if !all.ok {
            eprintln!("repro failed:\n{}", all.stderr);
        }
        run.tracer.exit(op);
        if first {
            first = false;
            out.set("bench.failed_first_job", out.failed as f64);
            let generated = all
                .stderr
                .lines()
                .filter(|l| l.contains("generating"))
                .count();
            out.set("repro.datasets_generated", generated as f64);
        }
        last = Some(job.elapsed());
    }
    out.set("repro.peak_rss_mb", crate::median(&peaks_kb) / 1024.0);
    if run.tracer.enabled() {
        out.overhead = Some(crate::overhead_probe(&mut run.tracer, 2, |tr| {
            let (child, _) = tr.time("repro.fig7", || run_child(&bin, &fig7_args));
            child.map_or(Duration::ZERO, |c| c.wall)
        }));
    }
    Ok(out)
}
