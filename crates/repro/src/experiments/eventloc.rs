//! E8 / §V future work — reliability-weighted event location estimation.
//!
//! The paper's conclusion: "we can use the analysis result of this paper to
//! determine the weight factor for the location information, and it might
//! be helpful to improve the performance for the event location
//! estimation." We run it: inject ground-truth earthquakes, feed the mixed
//! observation set (GPS fixes + profile-derived positions) to every
//! estimator twice — once with uniform weights (the Toretter/Twitris
//! baseline behaviour) and once with the Top-k reliability weights — and
//! compare the error in km.

use stir_core::{GroupTable, ReliabilityWeights};
use stir_eventdet::eval::{evaluate, mean_error};
use stir_eventdet::weighted::RawReport;
use stir_eventdet::{
    KalmanEstimator, LocationEstimator, MeanEstimator, MedianEstimator, Observation,
    ObservationBuilder, ParticleEstimator,
};
use stir_geoindex::Point;
use stir_textgeo::MentionExtractor;
use stir_twitter_sim::event::{inject, EventScenario};

use crate::context::{analyse, gazetteer, korean_spec, Analysed, Options};

/// Epicenters for the trials: dense metro, secondary metro, provincial.
const EPICENTERS: [(f64, f64, &str); 3] = [
    (37.50, 127.00, "Seoul"),
    (35.17, 129.00, "Busan"),
    (36.55, 128.15, "Gyeongbuk inland"),
];

/// Runs the experiment.
pub fn run(opts: &Options) {
    report(opts, &analyse(korean_spec(opts), gazetteer(), opts));
}

/// Prints the experiment from the analysed Korean dataset (shared with `all`).
pub fn report(opts: &Options, analysed: &Analysed) {
    let g = gazetteer();
    let table = GroupTable::compute(&analysed.result.users);
    let weights = ReliabilityWeights::from_cohort(&analysed.result.users, 0.02);
    println!("\n=== E8 — reliability-weighted event location estimation ===\n");
    println!("learned weights from the cohort (w = P(tweet from profile district)):");
    for (grp, w) in stir_core::TopKGroup::ALL.iter().zip(weights.as_array()) {
        println!(
            "  {:<8} {:.3}  ({} users)",
            grp.label(),
            w,
            table.row(*grp).users
        );
    }

    let weighted = ObservationBuilder::from_analysis(g, &analysed.result, 0.02);
    let mean = MeanEstimator;
    let median = MedianEstimator;
    let kalman = KalmanEstimator::default();
    let particle = ParticleEstimator::default();
    let estimators: [&dyn LocationEstimator; 4] = [&mean, &median, &kalman, &particle];

    let extractor = MentionExtractor::new(g);
    let mut uw_errors: Vec<Vec<f64>> = vec![Vec::new(); estimators.len()];
    let mut w_errors: Vec<Vec<f64>> = vec![Vec::new(); estimators.len()];
    let mut m_errors: Vec<Vec<f64>> = vec![Vec::new(); estimators.len()];

    println!(
        "\n{:<18} {:<16} {:>12} {:>12} {:>12}",
        "epicenter", "estimator", "unweighted", "weighted", "+mentions"
    );
    println!("{}", "-".repeat(76));
    for (trial, &(lat, lon, label)) in EPICENTERS.iter().enumerate() {
        let truth = Point::new(lat, lon);
        let scenario = EventScenario::earthquake(truth, 10_000);
        let reports = inject(&scenario, &analysed.dataset, g, opts.seed + trial as u64);
        let raw: Vec<RawReport> = reports
            .iter()
            .map(|r| RawReport {
                user: r.tweet.user.0,
                timestamp: r.tweet.timestamp,
                gps: r.tweet.gps,
            })
            .collect();

        let obs_weighted = weighted.build(&raw);
        // The unweighted baseline is what Twitris/Toretter did: trust every
        // profile location fully, grouped or not.
        let mut uniform = ObservationBuilder::from_analysis(g, &analysed.result, 0.02)
            .with_weight_profile(ReliabilityWeights::uniform());
        uniform.unknown_user_weight = 1.0;
        let obs_uniform = uniform.build(&raw);

        // Third arm: the paper's *third* spatial attribute. GPS-less
        // reports whose text names an unambiguous district contribute that
        // district's centroid at the measured Fig. 4 mention precision.
        let mut obs_mentions = obs_weighted.clone();
        for r in &reports {
            if r.tweet.gps.is_some() {
                continue;
            }
            if let Some(&d) = extractor.districts(&r.tweet.text).first() {
                obs_mentions.push(Observation {
                    point: g.district(d).centroid,
                    weight: 0.8,
                    timestamp: r.tweet.timestamp,
                });
            }
        }

        let rows_u = evaluate(&estimators, &obs_uniform, truth);
        let rows_w = evaluate(&estimators, &obs_weighted, truth);
        let rows_m = evaluate(&estimators, &obs_mentions, truth);
        for (i, ((u, w), m)) in rows_u.iter().zip(&rows_w).zip(&rows_m).enumerate() {
            uw_errors[i].push(u.error_km);
            w_errors[i].push(w.error_km);
            m_errors[i].push(m.error_km);
            println!(
                "{:<18} {:<16} {:>9.2} km {:>9.2} km {:>9.2} km",
                label, u.estimator, u.error_km, w.error_km, m.error_km
            );
        }
        println!(
            "{:<18} ({} reports: {} GPS, {} profile-only, {} mention observations)",
            "",
            raw.len(),
            raw.iter().filter(|r| r.gps.is_some()).count(),
            obs_weighted.len() - raw.iter().filter(|r| r.gps.is_some()).count(),
            obs_mentions.len() - obs_weighted.len(),
        );
    }

    println!("{}", "-".repeat(76));
    println!("\nmean error across epicenters:");
    for (i, e) in estimators.iter().enumerate() {
        let mu = mean_error(&uw_errors[i]).unwrap_or(f64::NAN);
        let mw = mean_error(&w_errors[i]).unwrap_or(f64::NAN);
        let mm = mean_error(&m_errors[i]).unwrap_or(f64::NAN);
        println!(
            "  {:<16} unweighted {:>7.2} km   weighted {:>7.2} km ({:+.1}%)   +mentions {:>7.2} km ({:+.1}%)",
            e.name(),
            mu,
            mw,
            100.0 * (mw - mu) / mu.max(1e-9),
            mm,
            100.0 * (mm - mu) / mu.max(1e-9)
        );
    }
    println!(
        "\npaper's claim to verify: weighting by Top-k reliability reduces estimation error;\n\
         adding the third spatial attribute (text mentions at Fig. 4 precision) helps where\n\
         GPS is sparse."
    );
}
