//! `repro all` — every experiment in paper order. The Korean dataset is
//! generated and analysed once, and every experiment over the paper's
//! Korean spec reports from that one [`Analysed`](crate::context::Analysed)
//! (the pipeline run is the expensive step). Experiments over other specs
//! or pipeline configs (Tables I–II, Fig. 3, the Lady Gaga comparison, the
//! ablation's city grain, the GPS-adoption sweep) still run their own.

use stir_core::GroupTable;

use crate::context::{analyse, gazetteer, korean_spec, lady_gaga_spec, Options};
use crate::experiments;
use stir_core::report;
use stir_twitter_sim::{Crawler, TwitterApi};

/// Runs everything.
pub fn run(opts: &Options) {
    let g = gazetteer();
    let analysed = analyse(korean_spec(opts), g, opts);

    experiments::table12::run_table1(opts);
    experiments::table12::run_table2(opts);
    experiments::fig3::run(opts);
    experiments::fig4::report(&analysed.dataset);
    experiments::fig5::run(opts);

    let api = TwitterApi::new(&analysed.dataset, g);
    let crawl = Crawler::new(&api).run(analysed.dataset.graph.best_seed(), usize::MAX);
    println!("\n=== E3 — data refinement funnel ===\n");
    println!(
        "crawl: {} users in {} requests, {} stalls, {:.1} simulated days\n",
        crawl.users.len(),
        crawl.requests,
        crawl.rate_limit_stalls,
        crawl.simulated_days()
    );
    println!("{}", report::render_funnel(&analysed.result.funnel));

    let table = GroupTable::compute(&analysed.result.users);
    experiments::fig6::print(&table);
    experiments::fig7::print(&table);
    experiments::tweets::print(&table);

    let gaga = GroupTable::compute(&analyse(lady_gaga_spec(opts), g, opts).result.users);
    experiments::compare::print(&table, &gaga);

    experiments::eventloc::report(opts, &analysed);
    experiments::ablation::report(opts, &analysed.dataset);
    experiments::regional::report(&analysed);
    experiments::detect::report(opts, &analysed);
    experiments::nonegroup::report(&analysed);
    experiments::diurnal::report(&analysed);
    experiments::sensitivity::report(opts, &analysed);
    experiments::stream::report(opts, &analysed.dataset);
}
