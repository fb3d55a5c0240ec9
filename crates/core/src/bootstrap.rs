//! Bootstrap confidence intervals for the group statistics.
//!
//! The paper reports point percentages over a ~1,1xx-user cohort with no
//! uncertainty. Resampling users with replacement gives the missing error
//! bars — and tells a reader of the reproduction which digits of Fig. 6/7
//! are meaningful at a given cohort size.
//!
//! Uses an internal xorshift generator so the crate keeps its zero-runtime-
//! dependency policy; results are deterministic in the seed.

use crate::grouping::GroupedUser;
use crate::stats::GroupTable;
use crate::topk::TopKGroup;

/// A percentile bootstrap interval around a point estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ci {
    /// The statistic on the full cohort.
    pub point: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Ci {
    /// True when `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Per-group intervals for one statistic, in [`TopKGroup::ALL`] order.
#[derive(Clone, Copy, Debug)]
pub struct GroupCis {
    /// The intervals.
    pub by_group: [Ci; 7],
}

impl GroupCis {
    /// The interval for a group.
    pub fn get(&self, group: TopKGroup) -> Ci {
        self.by_group[group.index()]
    }
}

struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// One user reduced to the three numbers a [`GroupTable`] sums. A resample
/// draws these, so it costs three `[u64; 7]` accumulators instead of a
/// cohort of cloned [`GroupedUser`]s.
#[derive(Clone, Copy)]
struct UserSums {
    group: usize,
    tweets: u64,
    locations: u64,
}

/// Bootstraps a per-group statistic (chosen by `stat`) over `resamples`
/// resampled cohorts at the given two-sided `confidence` (e.g. 0.95).
///
/// Allocates a fixed number of buffers whatever the cohort size and the
/// resample count: the per-user summaries, the samples, one sort buffer.
fn bootstrap_stat<F: Fn(&GroupTable, TopKGroup) -> f64>(
    users: &[GroupedUser],
    resamples: usize,
    confidence: f64,
    seed: u64,
    stat: F,
) -> GroupCis {
    assert!(resamples > 0, "need at least one resample");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let point_table = GroupTable::compute(users);
    let sums: Vec<UserSums> = users
        .iter()
        .map(|u| UserSums {
            group: u.group().index(),
            tweets: u.total_tweets(),
            locations: u.distinct_locations() as u64,
        })
        .collect();
    let mut rng = XorShift(seed | 1);
    let mut samples: Vec<[f64; 7]> = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut user_counts = [0u64; 7];
        let mut tweet_counts = [0u64; 7];
        let mut loc_sums = [0u64; 7];
        for _ in 0..sums.len() {
            let u = sums[rng.below(sums.len())];
            user_counts[u.group] += 1;
            tweet_counts[u.group] += u.tweets;
            loc_sums[u.group] += u.locations;
        }
        let table = GroupTable::from_sums(user_counts, tweet_counts, loc_sums);
        samples.push(std::array::from_fn(|i| stat(&table, TopKGroup::ALL[i])));
    }
    let alpha = (1.0 - confidence) / 2.0;
    let mut values: Vec<f64> = Vec::with_capacity(resamples);
    let by_group = std::array::from_fn(|i| {
        values.clear();
        values.extend(samples.iter().map(|s| s[i]));
        // Unstable is exact here: `total_cmp` equality is bit equality.
        values.sort_unstable_by(f64::total_cmp);
        Ci {
            point: stat(&point_table, TopKGroup::ALL[i]),
            lo: percentile(&values, alpha),
            hi: percentile(&values, 1.0 - alpha),
        }
    });
    GroupCis { by_group }
}

/// Bootstrap CIs for the users-per-group percentages (Fig. 7).
pub fn user_share_cis(
    users: &[GroupedUser],
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> GroupCis {
    bootstrap_stat(users, resamples, confidence, seed, |t, g| t.row(g).user_pct)
}

/// Bootstrap CIs for the average-distinct-districts statistic (Fig. 6).
pub fn avg_locations_cis(
    users: &[GroupedUser],
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> GroupCis {
    bootstrap_stat(users, resamples, confidence, seed, |t, g| {
        t.row(g).avg_locations
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{group_user_strings, MergedEntry};
    use crate::string::LocationString;
    use proptest::prelude::*;

    /// The clone-per-resample loop the summary kernel replaced, kept as
    /// its oracle: every resample is a cohort of cloned users run through
    /// [`GroupTable::compute`].
    fn clone_per_resample<F: Fn(&GroupTable, TopKGroup) -> f64>(
        users: &[GroupedUser],
        resamples: usize,
        confidence: f64,
        seed: u64,
        stat: F,
    ) -> GroupCis {
        let point_table = GroupTable::compute(users);
        let mut rng = XorShift(seed | 1);
        let mut samples: Vec<[f64; 7]> = Vec::with_capacity(resamples);
        let mut resample: Vec<GroupedUser> = Vec::with_capacity(users.len());
        for _ in 0..resamples {
            resample.clear();
            for _ in 0..users.len() {
                resample.push(users[rng.below(users.len())].clone());
            }
            let table = GroupTable::compute(&resample);
            samples.push(std::array::from_fn(|i| stat(&table, TopKGroup::ALL[i])));
        }
        let alpha = (1.0 - confidence) / 2.0;
        let by_group = std::array::from_fn(|i| {
            let mut values: Vec<f64> = samples.iter().map(|s| s[i]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Ci {
                point: stat(&point_table, TopKGroup::ALL[i]),
                lo: percentile(&values, alpha),
                hi: percentile(&values, 1.0 - alpha),
            }
        });
        GroupCis { by_group }
    }

    fn bits(cis: &GroupCis) -> Vec<[u64; 3]> {
        cis.by_group
            .iter()
            .map(|c| [c.point.to_bits(), c.lo.to_bits(), c.hi.to_bits()])
            .collect()
    }

    /// A user with `counts` merged entries and the given matched rank; the
    /// district names do not enter any statistic.
    fn synthetic_user(user: u64, counts: Vec<u64>, matched_rank: Option<usize>) -> GroupedUser {
        GroupedUser {
            user,
            state_profile: "Seoul".into(),
            county_profile: "Guro-gu".into(),
            entries: counts
                .into_iter()
                .enumerate()
                .map(|(i, count)| MergedEntry {
                    state: "Seoul".into(),
                    county: format!("District-{i}"),
                    count,
                    matched: matched_rank == Some(i + 1),
                })
                .collect(),
            matched_rank,
        }
    }

    fn arb_cohort() -> impl Strategy<Value = Vec<GroupedUser>> {
        prop::collection::vec(
            (
                prop::collection::vec(1u64..40, 1..8),
                prop::option::of(1usize..9),
            ),
            0..60,
        )
        .prop_map(|users| {
            users
                .into_iter()
                .enumerate()
                .map(|(u, (counts, rank))| synthetic_user(u as u64, counts, rank))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn summary_kernel_is_bit_identical_to_cloning_resamples(
            users in arb_cohort(),
            resamples in 1usize..120,
            seed in any::<u64>(),
            confidence in 0.05f64..0.999,
        ) {
            let share = |t: &GroupTable, g| t.row(g).user_pct;
            let locs = |t: &GroupTable, g| t.row(g).avg_locations;
            prop_assert_eq!(
                bits(&user_share_cis(&users, resamples, confidence, seed)),
                bits(&clone_per_resample(&users, resamples, confidence, seed, share))
            );
            prop_assert_eq!(
                bits(&avg_locations_cis(&users, resamples, confidence, seed)),
                bits(&clone_per_resample(&users, resamples, confidence, seed, locs))
            );
        }
    }

    #[test]
    fn empty_cohort_matches_the_oracle() {
        let share = |t: &GroupTable, g| t.row(g).user_pct;
        assert_eq!(
            bits(&user_share_cis(&[], 50, 0.95, 9)),
            bits(&clone_per_resample(&[], 50, 0.95, 9, share))
        );
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0,1)")]
    fn zero_confidence_is_rejected() {
        let _ = user_share_cis(&cohort(5, 5), 10, 0.0, 1);
    }

    fn cohort(n_top1: usize, n_none: usize) -> Vec<GroupedUser> {
        let mut out = Vec::new();
        for u in 0..n_top1 {
            out.push(
                group_user_strings(&[LocationString {
                    user: u as u64,
                    state_profile: "Seoul".into(),
                    county_profile: "Guro-gu".into(),
                    state_tweet: "Seoul".into(),
                    county_tweet: "Guro-gu".into(),
                }])
                .unwrap(),
            );
        }
        for u in 0..n_none {
            out.push(
                group_user_strings(&[LocationString {
                    user: (n_top1 + u) as u64,
                    state_profile: "Seoul".into(),
                    county_profile: "Guro-gu".into(),
                    state_tweet: "Seoul".into(),
                    county_tweet: "Mapo-gu".into(),
                }])
                .unwrap(),
            );
        }
        out
    }

    #[test]
    fn point_estimates_match_table() {
        let users = cohort(70, 30);
        let cis = user_share_cis(&users, 200, 0.95, 42);
        assert!((cis.get(TopKGroup::Top1).point - 70.0).abs() < 1e-9);
        assert!((cis.get(TopKGroup::None).point - 30.0).abs() < 1e-9);
    }

    #[test]
    fn intervals_cover_their_points() {
        let users = cohort(70, 30);
        let cis = user_share_cis(&users, 400, 0.95, 7);
        for g in TopKGroup::ALL {
            let ci = cis.get(g);
            assert!(ci.contains(ci.point), "{g}: {ci:?}");
            assert!(ci.lo <= ci.hi);
        }
    }

    #[test]
    fn larger_cohorts_give_tighter_intervals() {
        let small = user_share_cis(&cohort(35, 15), 400, 0.95, 1);
        let large = user_share_cis(&cohort(700, 300), 400, 0.95, 1);
        assert!(
            large.get(TopKGroup::Top1).width() < small.get(TopKGroup::Top1).width(),
            "large {:?} vs small {:?}",
            large.get(TopKGroup::Top1),
            small.get(TopKGroup::Top1)
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let users = cohort(60, 40);
        let a = user_share_cis(&users, 100, 0.9, 5);
        let b = user_share_cis(&users, 100, 0.9, 5);
        for g in TopKGroup::ALL {
            assert_eq!(a.get(g), b.get(g));
        }
    }

    #[test]
    fn avg_locations_cis_work() {
        let users = cohort(50, 50);
        let cis = avg_locations_cis(&users, 100, 0.95, 3);
        // Every user has exactly one district in this cohort.
        assert!((cis.get(TopKGroup::Top1).point - 1.0).abs() < 1e-9);
        assert!(cis.get(TopKGroup::Top1).width() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
    }
}
