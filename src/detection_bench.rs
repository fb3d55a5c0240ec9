//! Detection-quality benchmark: how well does the Toretter-style detector
//! do over many injected events and quiet control windows?
//!
//! The paper's Fig. 2 narrative reports one anecdote (an earthquake located
//! closely and alerted quickly). This harness turns that into a measured
//! protocol: N positive trials (event injected, did the detector fire? how
//! late? how far off?) and M negative trials (no event — false alarms?),
//! summarized as detection rate, false-alarm rate, latency and location
//! error.

use stir_core::ReliabilityWeights;
use stir_eventdet::toretter::{StreamTweet, Toretter};
use stir_eventdet::{LocationEstimator, ObservationBuilder};
use stir_geoindex::Point;
use stir_geokr::Gazetteer;
use stir_twitter_sim::datasets::Dataset;
use stir_twitter_sim::event::{inject, EventScenario};

/// Outcome of one trial.
#[derive(Clone, Copy, Debug)]
pub struct TrialOutcome {
    /// Whether this trial contained a real event.
    pub event_present: bool,
    /// Whether the detector raised an alert.
    pub detected: bool,
    /// Alert latency in seconds after the event (positive trials only).
    pub latency_secs: Option<u64>,
    /// Location error in km (positive, detected trials only).
    pub error_km: Option<f64>,
}

/// Aggregated benchmark results.
#[derive(Clone, Debug, Default)]
pub struct DetectionReport {
    /// All trial outcomes.
    pub trials: Vec<TrialOutcome>,
}

impl DetectionReport {
    /// Fraction of event trials that were detected.
    pub fn detection_rate(&self) -> f64 {
        let (hits, total) = self
            .trials
            .iter()
            .filter(|t| t.event_present)
            .fold((0u64, 0u64), |(h, n), t| (h + u64::from(t.detected), n + 1));
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of quiet trials that raised a (false) alert.
    pub fn false_alarm_rate(&self) -> f64 {
        let (fa, total) = self
            .trials
            .iter()
            .filter(|t| !t.event_present)
            .fold((0u64, 0u64), |(f, n), t| (f + u64::from(t.detected), n + 1));
        if total == 0 {
            0.0
        } else {
            fa as f64 / total as f64
        }
    }

    /// Mean alert latency over detected event trials.
    pub fn mean_latency_secs(&self) -> Option<f64> {
        let lats: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|t| t.latency_secs)
            .map(|l| l as f64)
            .collect();
        if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<f64>() / lats.len() as f64)
        }
    }

    /// Mean location error over detected event trials.
    pub fn mean_error_km(&self) -> Option<f64> {
        let errs: Vec<f64> = self.trials.iter().filter_map(|t| t.error_km).collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }
}

/// The background stream every trial shares: the first `background_users`
/// users' tweets, stably sorted by timestamp. Built once per benchmark run.
fn background_stream(
    dataset: &Dataset,
    gazetteer: &Gazetteer,
    background_users: usize,
) -> Vec<StreamTweet> {
    let mut stream: Vec<StreamTweet> = Vec::new();
    for u in dataset.users.iter().take(background_users) {
        for t in dataset.user_tweets(gazetteer, u.id) {
            stream.push(StreamTweet {
                user: t.user.0,
                timestamp: t.timestamp,
                text: t.text,
                gps: t.gps,
            });
        }
    }
    stream.sort_by_key(|t| t.timestamp);
    stream
}

/// One event trial's stream: the scenario's injected reports merged into
/// the sorted `background`, background first on equal timestamps. That is
/// exactly the stable sort of background-then-reports by timestamp.
fn with_event(
    background: &[StreamTweet],
    dataset: &Dataset,
    gazetteer: &Gazetteer,
    scenario: &EventScenario,
    seed: u64,
) -> Vec<StreamTweet> {
    let reports = inject(scenario, dataset, gazetteer, seed)
        .into_iter()
        .map(|r| StreamTweet {
            user: r.tweet.user.0,
            timestamp: r.tweet.timestamp,
            text: r.tweet.text,
            gps: r.tweet.gps,
        })
        .collect();
    merge_stable(background, reports)
}

/// Stable merge of a sorted `background` with `reports` (any order).
fn merge_stable(background: &[StreamTweet], mut reports: Vec<StreamTweet>) -> Vec<StreamTweet> {
    reports.sort_by_key(|t| t.timestamp);
    let mut stream = Vec::with_capacity(background.len() + reports.len());
    let mut rest = background;
    for r in reports {
        let cut = rest.partition_point(|t| t.timestamp <= r.timestamp);
        stream.extend_from_slice(&rest[..cut]);
        rest = &rest[cut..];
        stream.push(r);
    }
    stream.extend_from_slice(rest);
    stream
}

/// Runs the benchmark: one positive trial per `epicenters` entry, plus
/// `quiet_trials` negative controls, with the given estimator and
/// observation weighting.
#[allow(clippy::too_many_arguments)]
pub fn run_detection_benchmark(
    dataset: &Dataset,
    gazetteer: &Gazetteer,
    epicenters: &[(Point, u64)],
    quiet_trials: usize,
    background_users: usize,
    estimator: &dyn LocationEstimator,
    builder: &ObservationBuilder<'_>,
    seed: u64,
) -> DetectionReport {
    let mut report = DetectionReport::default();
    let toretter = Toretter::new("earthquake", estimator);
    let background = background_stream(dataset, gazetteer, background_users);

    for (i, &(epicenter, start)) in epicenters.iter().enumerate() {
        let scenario = EventScenario::earthquake(epicenter, start);
        let stream = with_event(&background, dataset, gazetteer, &scenario, seed + i as u64);
        match toretter.detect(&stream, builder) {
            Some(alert) => report.trials.push(TrialOutcome {
                event_present: true,
                detected: true,
                latency_secs: Some(alert.alert_time.saturating_sub(start)),
                error_km: Some(epicenter.haversine_km(alert.estimate)),
            }),
            None => report.trials.push(TrialOutcome {
                event_present: true,
                detected: false,
                latency_secs: None,
                error_km: None,
            }),
        }
    }
    // A quiet trial is the background alone, identical in every trial.
    for _ in 0..quiet_trials {
        let detected = toretter.detect(&background, builder).is_some();
        report.trials.push(TrialOutcome {
            event_present: false,
            detected,
            latency_secs: None,
            error_km: None,
        });
    }
    report
}

/// Convenience: a full-trust observation builder over an analysed cohort.
pub fn uniform_builder<'g>(
    gazetteer: &'g Gazetteer,
    analysis: &stir_core::AnalysisResult,
) -> ObservationBuilder<'g> {
    let mut b = ObservationBuilder::from_analysis(gazetteer, analysis, 0.02)
        .with_weight_profile(ReliabilityWeights::uniform());
    b.unknown_user_weight = 1.0;
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_core::{PipelineInput, ProfileRow, RefinementPipeline, TweetRow};
    use stir_eventdet::MeanEstimator;
    use stir_twitter_sim::datasets::DatasetSpec;

    #[test]
    fn benchmark_detects_events_without_false_alarms() {
        let gazetteer = Gazetteer::load();
        let dataset = Dataset::generate(
            DatasetSpec {
                n_users: 4_000,
                ..DatasetSpec::korean_paper()
            },
            &gazetteer,
            61,
        );
        let analysis = RefinementPipeline::with_defaults(&gazetteer).execute(
            dataset.users.iter().map(|u| ProfileRow {
                user: u.id.0,
                location_text: u.location_text.clone(),
            }),
            PipelineInput::rows(dataset.users.iter().flat_map(|u| {
                dataset
                    .user_tweets(&gazetteer, u.id)
                    .into_iter()
                    .map(|t| TweetRow {
                        user: t.user.0,
                        tweet_id: t.id.0,
                        gps: t.gps,
                    })
            })),
        );
        let builder = ObservationBuilder::from_analysis(&gazetteer, &analysis, 0.02);
        let est = MeanEstimator;
        let epicenters = [
            (Point::new(37.5, 127.0), 30_000u64),
            (Point::new(35.2, 129.0), 50_000u64),
        ];
        let report =
            run_detection_benchmark(&dataset, &gazetteer, &epicenters, 2, 500, &est, &builder, 9);
        assert_eq!(report.trials.len(), 4);
        assert!(
            report.detection_rate() >= 0.5,
            "rate {}",
            report.detection_rate()
        );
        assert_eq!(report.false_alarm_rate(), 0.0);
        if let Some(err) = report.mean_error_km() {
            assert!(err < 120.0, "error {err} km");
        }
        if let Some(lat) = report.mean_latency_secs() {
            assert!(lat < 1_800.0, "latency {lat} s");
        }
    }

    /// The construction `with_event` replaced, kept as its oracle:
    /// background in user order, then the reports, then one stable sort.
    fn concat_then_sort(
        dataset: &Dataset,
        gazetteer: &Gazetteer,
        background_users: usize,
        reports: &[StreamTweet],
    ) -> Vec<StreamTweet> {
        let mut stream: Vec<StreamTweet> = Vec::new();
        for u in dataset.users.iter().take(background_users) {
            for t in dataset.user_tweets(gazetteer, u.id) {
                stream.push(StreamTweet {
                    user: t.user.0,
                    timestamp: t.timestamp,
                    text: t.text,
                    gps: t.gps,
                });
            }
        }
        stream.extend_from_slice(reports);
        stream.sort_by_key(|t| t.timestamp);
        stream
    }

    fn fields(stream: &[StreamTweet]) -> Vec<(u64, u64, &str, Option<Point>)> {
        stream
            .iter()
            .map(|t| (t.user, t.timestamp, t.text.as_str(), t.gps))
            .collect()
    }

    #[test]
    fn merged_stream_equals_concat_then_stable_sort() {
        let gazetteer = Gazetteer::load();
        let dataset = Dataset::generate(
            DatasetSpec {
                n_users: 400,
                ..DatasetSpec::korean_paper()
            },
            &gazetteer,
            17,
        );
        let background = background_stream(&dataset, &gazetteer, 150);
        let scenario = EventScenario::earthquake(Point::new(37.5, 127.0), 40_000);
        let stream = with_event(&background, &dataset, &gazetteer, &scenario, 5);
        let mut reports: Vec<StreamTweet> = inject(&scenario, &dataset, &gazetteer, 5)
            .into_iter()
            .map(|r| StreamTweet {
                user: r.tweet.user.0,
                timestamp: r.tweet.timestamp,
                text: r.tweet.text,
                gps: r.tweet.gps,
            })
            .collect();
        assert!(!reports.is_empty(), "the scenario must inject reports");
        assert_eq!(
            fields(&stream),
            fields(&concat_then_sort(&dataset, &gazetteer, 150, &reports))
        );

        // Reports that tie background tweets (and each other) on the
        // timestamp, given out of order: the background tweet stays first
        // and tied reports keep their given order.
        let tied = background[background.len() / 2].timestamp;
        let first = background[0].timestamp;
        for (i, ts) in [tied, first, tied].into_iter().enumerate() {
            reports.push(StreamTweet {
                user: 1_000_000 + i as u64,
                timestamp: ts,
                text: format!("tied report {i}"),
                gps: None,
            });
        }
        assert_eq!(
            fields(&merge_stable(&background, reports.clone())),
            fields(&concat_then_sort(&dataset, &gazetteer, 150, &reports))
        );
    }

    #[test]
    fn empty_report_rates() {
        let r = DetectionReport::default();
        assert_eq!(r.detection_rate(), 0.0);
        assert_eq!(r.false_alarm_rate(), 0.0);
        assert!(r.mean_latency_secs().is_none());
        assert!(r.mean_error_km().is_none());
    }
}
