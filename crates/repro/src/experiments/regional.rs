//! E13 / extension — regional reliability breakdown.
//!
//! The paper proposes one weight factor per Top-k group; this extension
//! asks whether the factor should also depend on *where* the profile
//! points. Metropolitan profiles name one gu among dozens of neighbours —
//! easy to be near, hard to be in — while a provincial profile names a
//! whole si/gun.

use stir_core::regional::by_region;
use stir_geokr::Province;

use crate::context::{analyse, gazetteer, korean_spec, Analysed, Options};

/// Runs the experiment.
pub fn run(opts: &Options) {
    report(&analyse(korean_spec(opts), gazetteer(), opts));
}

/// Prints the experiment from the analysed Korean dataset (shared with `all`).
pub fn report(analysed: &Analysed) {
    let rows = by_region(&analysed.result.users);

    println!("\n=== extension — reliability by profile region ===\n");
    println!(
        "{:<20} {:>6} {:>12} {:>10} {:>10}",
        "profile state", "users", "mean P(home)", "Top-1 %", "None %"
    );
    println!("{}", "-".repeat(64));
    for r in rows.iter().filter(|r| r.users >= 5) {
        println!(
            "{:<20} {:>6} {:>12.3} {:>9.1}% {:>9.1}%",
            r.state,
            r.users,
            r.mean_matched_fraction,
            100.0 * r.top1_share,
            100.0 * r.none_share
        );
    }
    println!("{}", "-".repeat(64));

    // Metro vs non-metro aggregate.
    let is_metro = |state: &str| {
        Province::ALL
            .iter()
            .any(|p| p.is_metropolitan() && p.name_en() == state)
    };
    let (mut mu, mut mf, mut pu, mut pf) = (0u64, 0.0f64, 0u64, 0.0f64);
    for r in &rows {
        if is_metro(&r.state) {
            mu += r.users;
            mf += r.mean_matched_fraction * r.users as f64;
        } else {
            pu += r.users;
            pf += r.mean_matched_fraction * r.users as f64;
        }
    }
    if mu > 0 && pu > 0 {
        println!(
            "\nmetropolitan profiles: {} users, mean P(tweet from profile district) = {:.3}",
            mu,
            mf / mu as f64
        );
        println!(
            "provincial profiles:   {} users, mean P(tweet from profile district) = {:.3}",
            pu,
            pf / pu as f64
        );
        println!(
            "\n(district grain makes metro matching strictly harder — the same effect the\n\
             §III-B ablation shows from the other direction.)"
        );
    }
}
