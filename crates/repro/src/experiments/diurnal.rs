//! E16 / extension — when each group tweets.
//!
//! §IV's commuter scenario has a temporal signature: users who "stay
//! outside for work" tweet on the move — morning/evening commutes — while
//! home-anchored users skew to evenings at home. Comparing hour-of-day
//! histograms of GPS tweets across Top-k groups tests the scenario from
//! the time axis, independent of the spatial diagnosis (`nonegroup`).

use std::collections::HashMap;

use stir_core::temporal::per_group_histograms;
use stir_core::{report, TopKGroup};

use crate::context::{analyse, gazetteer, korean_spec, Analysed, Options};

/// Runs the experiment.
pub fn run(opts: &Options) {
    report(&analyse(korean_spec(opts), gazetteer(), opts));
}

/// Prints the experiment from the analysed Korean dataset (shared with `all`).
pub fn report(analysed: &Analysed) {
    let g = gazetteer();
    let groups: HashMap<u64, TopKGroup> = analysed
        .result
        .users
        .iter()
        .map(|u| (u.user, u.group()))
        .collect();

    // GPS tweets of cohort users, as (user, timestamp) rows.
    let mut rows: Vec<(u64, u64)> = Vec::new();
    for u in &analysed.dataset.users {
        if !groups.contains_key(&u.id.0) {
            continue;
        }
        for t in analysed.dataset.user_tweets(g, u.id) {
            if t.gps.is_some() {
                rows.push((t.user.0, t.timestamp));
            }
        }
    }
    let hists = per_group_histograms(rows, &groups);

    println!("\n=== extension — hour-of-day posting profiles per group ===\n");
    println!(
        "{:<8} {:>8} {:>10} {:>15}",
        "group", "tweets", "peak hour", "commute index"
    );
    println!("{}", "-".repeat(46));
    for grp in TopKGroup::ALL {
        let h = &hists[grp.index()];
        if h.total() == 0 {
            continue;
        }
        println!(
            "{:<8} {:>8} {:>8}:00 {:>14.1}%",
            grp.label(),
            h.total(),
            h.peak_hour(),
            100.0 * h.commute_index()
        );
    }
    println!("{}", "-".repeat(46));

    // Overall shape as a small chart.
    let mut overall = stir_core::temporal::HourHistogram::default();
    for h in &hists {
        for (hour, &c) in h.counts.iter().enumerate() {
            overall.counts[hour] += c;
        }
    }
    let labels: Vec<String> = (0..24).map(|h| format!("{h:02}:00")).collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let values: Vec<f64> = (0..24).map(|h| 100.0 * overall.share(h)).collect();
    println!(
        "\n{}",
        report::render_bar_chart(
            "all cohort GPS tweets by hour (%)",
            &label_refs,
            &values,
            36
        )
    );
    let none_ci = hists[TopKGroup::None.index()].commute_index();
    let top1_ci = hists[TopKGroup::Top1.index()].commute_index();
    println!(
        "commute index: None {:.1}% vs Top-1 {:.1}% — the None group tweets \
         disproportionately in commute hours, the temporal fingerprint of §IV's commuters.",
        100.0 * none_ci,
        100.0 * top1_ci
    );
}
