//! `batch`: the paper's §III job as `repro fig7` runs it. Materialized
//! rows go through a fresh `RefinementPipeline::execute`, then
//! `GroupTable::compute` and `user_share_cis` (500 resamples), over and
//! over in one closed loop. Never touches `tweetstore` or the service.

use std::time::{Duration, Instant};

use stir_core::{user_share_cis, AnalysisResult, GroupTable, PipelineInput, ProfileRow, TweetRow};
use stir_geokr::Gazetteer;
use stir_twitter_sim::datasets::DatasetSpec;

use crate::corpus::{self, fig7_of_table, fig7_of_users, user_mismatches, Fig7, Oracle, Order};
use crate::trace::Tracer;
use crate::{calibrate, ms, ratio, Outcome, Run, KOREAN_SCALE, POPULATION_SEED, SETUP_REPS};

struct Input<'a> {
    gazetteer: &'static Gazetteer,
    profiles: &'a [ProfileRow],
    rows: &'a [TweetRow],
    threads: usize,
    seed: u64,
}

struct Op {
    wall: Duration,
    exec: Duration,
    table: Duration,
    cis: Duration,
    fig7: Fig7,
    result: AnalysisResult,
}

/// One Fig. 7, rows → table + CIs, exactly as `repro fig7` computes it.
fn fig7_op(tr: &mut Tracer, input: &Input) -> Op {
    let span = tr.enter("bench.op");
    let start = Instant::now();
    let pipeline = corpus::pipeline(input.gazetteer, input.threads, false);
    let profiles = input.profiles.to_vec();
    let (result, exec) = tr.time("core.pipeline.execute", || {
        pipeline.execute(profiles, PipelineInput::rows(input.rows.iter().copied()))
    });
    let (table, table_t) = tr.time("core.stats.group_table", || {
        GroupTable::compute(&result.users)
    });
    let (cis, cis_t) = tr.time("core.bootstrap.cis", || {
        user_share_cis(&result.users, 500, 0.95, input.seed)
    });
    let wall = start.elapsed();
    std::hint::black_box(&cis);
    tr.exit(span);
    Op {
        wall,
        exec,
        table: table_t,
        cis: cis_t,
        fig7: fig7_of_table(&table),
        result,
    }
}

pub fn run(run: &mut Run) -> Outcome {
    let seed = run.seed;
    let mut out = Outcome::new(1);
    let setup = corpus::repeated_setup(SETUP_REPS, &mut run.tracer, &mut out.speed, |tr, times| {
        let spec = DatasetSpec::korean_paper().scaled(KOREAN_SCALE);
        let c = corpus::generate(tr, spec, POPULATION_SEED, seed, times);
        let rows = corpus::materialize_rows(tr, &c, times);
        (c, rows)
    });
    let ((c, rows), times) = setup;
    out.set_setup(times);
    out.set("twitter-sim.datasets.tweets", rows.len() as f64);

    let kept = corpus::kept_profiles(c.gazetteer, &c.profiles);
    // Rows carry no timestamp; batch never windows, so 0 stands in.
    let oracle = Oracle::new(c.gazetteer, kept, rows.iter().map(|r| (r.user, 0, r.gps)));
    let reference = oracle.grouped(|_| true);
    let want = oracle.reference(
        fig7_of_users(&reference),
        rows.len(),
        |_| true,
        Order::Input,
    );
    let input = Input {
        gazetteer: c.gazetteer,
        profiles: &c.profiles,
        rows: &rows,
        threads: run.threads,
        seed,
    };

    // The first operation is checked and counted but not timed: lazy
    // set-up settles, and its metrics give the deterministic counters.
    let first = fig7_op(&mut run.tracer, &input);
    out.check_fig7(want.allows(&first.fig7), first.fig7 == want.exact);
    let m = &first.result.metrics;
    let exec = m.exec.clone().unwrap_or_default();
    out.set("core.pipeline.rows_in", exec.rows_in as f64);
    out.set(
        "core.pipeline.users_kept",
        first.result.kept_profiles.len() as f64,
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
        "oracle.user_mismatches",
        user_mismatches(&first.result.users, &reference) as f64,
    );
    drop(first);
    out.set("bench.failed_first_job", out.failed as f64);

    let budget = run.budget();
    let mut last = None;
    while last.is_none() || budget.another(last) {
        calibrate(&mut run.tracer, &mut out.speed);
        let op = fig7_op(&mut run.tracer, &input);
        out.check_fig7(want.allows(&op.fig7), op.fig7 == want.exact);
        out.fig7(op.wall);
        out.job(op.wall);
        out.sample("core.pipeline.execute_ms", ms(op.exec));
        out.sample("core.stats.group_table_ms", ms(op.table));
        out.sample("core.bootstrap.cis_ms", ms(op.cis));
        last = Some(op.wall);
    }
    if run.tracer.enabled() {
        out.overhead = Some(crate::overhead_probe(&mut run.tracer, 5, |tr| {
            fig7_op(tr, &input).wall
        }));
    }
    out
}
