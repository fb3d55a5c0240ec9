//! E5 / Fig. 7 — the number of users in each Top-k group.
//!
//! Paper shapes to reproduce: Top-1 ∪ Top-2 hold more than 40% of users
//! ("nearly half of all users post tweets in their hometown"); the None
//! group holds about 30%; the middle groups (Top-3 … Top-5) are small and
//! decreasing.

use std::time::Instant;

use stir_core::{report, user_share_cis, GroupTable, GroupedUser, TopKGroup};

use crate::context::{analyse, gazetteer, korean_spec, Options};

/// Runs the experiment and prints the chart with bootstrap error bars.
pub fn run(opts: &Options) {
    let g = gazetteer();
    let analysed = analyse(korean_spec(opts), g, opts);
    let table = GroupTable::compute(&analysed.result.users);
    print(&table);
    print_cis(&analysed.result.users, opts);
}

/// Prints 95% bootstrap intervals for the user shares — error bars the
/// paper does not report, sized for this run's cohort. With `--verbose`
/// the bootstrap's size and time go to stderr.
pub fn print_cis(users: &[GroupedUser], opts: &Options) {
    let start = Instant::now();
    let cis = user_share_cis(users, 500, 0.95, opts.seed);
    if opts.verbose {
        eprintln!(
            "bootstrap: 500 resamples × {} users, {:.1} ms",
            users.len(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    println!(
        "\n95% bootstrap CIs ({} users, 500 resamples):",
        users.len()
    );
    for g in TopKGroup::ALL {
        let ci = cis.get(g);
        println!(
            "  {:<8} {:5.1}%  [{:5.1}, {:5.1}]",
            g.label(),
            ci.point,
            ci.lo,
            ci.hi
        );
    }
}

/// Prints Fig. 7 from a computed table (shared with `all`/`compare`).
pub fn print(table: &GroupTable) {
    println!("\n=== Fig. 7 — number of users in each group ===\n");
    let labels: Vec<&str> = TopKGroup::ALL.iter().map(|g| g.label()).collect();
    let values: Vec<f64> = table.rows.iter().map(|r| r.user_pct).collect();
    println!(
        "{}",
        report::render_bar_chart("users per group (%)", &labels, &values, 40)
    );
    println!("cohort: {} users", table.total_users);
    println!(
        "Top-1 + Top-2 = {:.1}% (paper: > 40%, 'nearly half')",
        table.top1_top2_pct()
    );
    println!(
        "None          = {:.1}% (paper: about 30%)",
        table.row(TopKGroup::None).user_pct
    );
}
