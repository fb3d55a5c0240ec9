//! Ground-truth event injection for the event-detection experiments.
//!
//! Models the Toretter observation process (Sakaki et al., the paper's
//! ref \[3\]): an event with a known epicenter occurs at a known time; users
//! near it become "social sensors" and tweet the event term within minutes.
//! Each report carries either the sensor's GPS position (when their client
//! tags it) or nothing — in which case a downstream estimator must fall back
//! to the *profile location*, which is exactly where this paper's
//! reliability analysis plugs in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stir_geoindex::Point;
use stir_geokr::{DistrictId, Gazetteer};

use crate::datasets::Dataset;
use crate::ids::{TweetId, UserId};
use crate::textgen;
use crate::tweetgen::Tweet;

/// A ground-truth event scenario.
#[derive(Clone, Debug)]
pub struct EventScenario {
    /// True epicenter.
    pub epicenter: Point,
    /// Event time, seconds on the dataset window clock.
    pub start: u64,
    /// The term sensors tweet ("earthquake").
    pub term: &'static str,
    /// Radius (km) within which users sense the event.
    pub felt_radius_km: f64,
    /// Probability that a user inside the radius reports at all.
    pub report_rate: f64,
    /// Mean reporting delay in seconds (exponential).
    pub mean_delay_secs: f64,
}

impl EventScenario {
    /// A magnitude-5-style earthquake felt across ~80 km.
    pub fn earthquake(epicenter: Point, start: u64) -> Self {
        EventScenario {
            epicenter,
            start,
            term: "earthquake",
            felt_radius_km: 80.0,
            report_rate: 0.55,
            mean_delay_secs: 240.0,
        }
    }
}

/// One injected event report.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// The tweet as it would appear in the stream.
    pub tweet: Tweet,
    /// The district the sensor was actually in when reporting.
    pub true_district: DistrictId,
}

/// Injects the scenario into a dataset: every user whose *current position*
/// (sampled from their mobility model) falls inside the felt radius reports
/// with probability `report_rate` after an exponential delay. GPS presence
/// follows the user's device/tag profile.
///
/// Returns the reports sorted by timestamp.
pub fn inject(
    scenario: &EventScenario,
    dataset: &Dataset,
    gazetteer: &Gazetteer,
    seed: u64,
) -> Vec<EventReport> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7E7_E7E7);
    let mut reports = Vec::new();
    for (profile, truth) in dataset.users.iter().zip(&dataset.truth) {
        // Where is this user right now? One draw from their mobility model.
        let district = truth.mobility.sample_district(&mut rng);
        let position = gazetteer.sample_point_in(district, || rng.gen::<f64>());
        if position.haversine_km(scenario.epicenter) > scenario.felt_radius_km {
            continue;
        }
        if !rng.gen_bool(scenario.report_rate) {
            continue;
        }
        let delay = -scenario.mean_delay_secs * (1.0 - rng.gen::<f64>()).ln();
        let timestamp = scenario.start + delay as u64;
        let gps_tagged = profile.gps_device && rng.gen_bool(profile.gps_tag_rate);
        let name = gazetteer.district(district).name_en;
        let text = textgen::compose_event_report(&mut rng, scenario.term, name);
        reports.push(EventReport {
            tweet: Tweet {
                id: TweetId::compose(UserId(profile.id.0), u16::MAX as u32),
                user: profile.id,
                timestamp,
                text,
                gps: gps_tagged.then_some(position),
            },
            true_district: district,
        });
    }
    reports.sort_by_key(|r| r.tweet.timestamp);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;

    fn fixtures() -> (&'static Gazetteer, &'static Dataset) {
        let g: &'static Gazetteer = Box::leak(Box::new(Gazetteer::load()));
        let d: &'static Dataset = Box::leak(Box::new(Dataset::generate(
            DatasetSpec {
                n_users: 3000,
                ..DatasetSpec::korean_paper()
            },
            g,
            55,
        )));
        (g, d)
    }

    #[test]
    fn reports_cluster_near_epicenter() {
        let (g, d) = fixtures();
        let epicenter = Point::new(37.50, 127.00); // Seoul
        let scenario = EventScenario::earthquake(epicenter, 1000);
        let reports = inject(&scenario, d, g, 1);
        assert!(reports.len() > 20, "only {} reports", reports.len());
        for r in &reports {
            let c = g.district(r.true_district).centroid;
            assert!(
                c.haversine_km(epicenter) < scenario.felt_radius_km + 40.0,
                "report from {} km away",
                c.haversine_km(epicenter)
            );
            assert!(r.tweet.text.contains("earthquake"));
            assert!(r.tweet.timestamp >= scenario.start);
        }
    }

    #[test]
    fn remote_epicenter_yields_fewer_reports() {
        let (g, d) = fixtures();
        let seoul = inject(
            &EventScenario::earthquake(Point::new(37.50, 127.00), 0),
            d,
            g,
            2,
        );
        let ulleung = inject(
            &EventScenario::earthquake(Point::new(37.48, 130.90), 0),
            d,
            g,
            2,
        );
        assert!(
            seoul.len() > ulleung.len() * 3,
            "seoul {} vs ulleung {}",
            seoul.len(),
            ulleung.len()
        );
    }

    #[test]
    fn injection_is_deterministic() {
        let (g, d) = fixtures();
        let s = EventScenario::earthquake(Point::new(37.50, 127.00), 500);
        let a = inject(&s, d, g, 9);
        let b = inject(&s, d, g, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tweet.timestamp, y.tweet.timestamp);
            assert_eq!(x.true_district, y.true_district);
        }
    }

    #[test]
    fn delays_are_exponential_ish() {
        let (g, d) = fixtures();
        let s = EventScenario::earthquake(Point::new(37.50, 127.00), 10_000);
        let reports = inject(&s, d, g, 3);
        let delays: Vec<f64> = reports
            .iter()
            .map(|r| (r.tweet.timestamp - s.start) as f64)
            .collect();
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        assert!(
            (mean - s.mean_delay_secs).abs() < s.mean_delay_secs * 0.5,
            "mean delay {mean}"
        );
    }

    #[test]
    fn some_reports_have_gps_most_do_not() {
        let (g, d) = fixtures();
        let s = EventScenario::earthquake(Point::new(37.50, 127.00), 0);
        let reports = inject(&s, d, g, 4);
        let with_gps = reports.iter().filter(|r| r.tweet.gps.is_some()).count();
        assert!(with_gps > 0, "no GPS reports at all");
        assert!(
            with_gps * 2 < reports.len(),
            "{with_gps}/{} tagged",
            reports.len()
        );
    }
}
