//! Per-group statistics — the numbers behind the paper's Figs. 6 and 7 and
//! the slides' tweets-per-group chart.

use crate::grouping::GroupedUser;
use crate::topk::TopKGroup;

/// One row of the group table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupRow {
    /// The group.
    pub group: TopKGroup,
    /// Users in the group.
    pub users: u64,
    /// Users as a percentage of the cohort.
    pub user_pct: f64,
    /// GPS tweets by users in the group.
    pub tweets: u64,
    /// Tweets as a percentage of all cohort GPS tweets.
    pub tweet_pct: f64,
    /// Average number of distinct tweet districts (Fig. 6's quantity).
    pub avg_locations: f64,
}

/// The full 7-row table plus cohort-level aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupTable {
    /// Rows in [`TopKGroup::ALL`] order.
    pub rows: [GroupRow; 7],
    /// Cohort size.
    pub total_users: u64,
    /// Total GPS tweets in the cohort.
    pub total_tweets: u64,
    /// User-weighted average of distinct tweet districts across the cohort
    /// (the paper's closing §IV statistic).
    pub overall_avg_locations: f64,
}

impl GroupTable {
    /// Computes the table from grouped users.
    pub fn compute(users: &[GroupedUser]) -> Self {
        let mut user_counts = [0u64; 7];
        let mut tweet_counts = [0u64; 7];
        let mut loc_sums = [0u64; 7];
        for u in users {
            let idx = u.group().index();
            user_counts[idx] += 1;
            tweet_counts[idx] += u.total_tweets();
            loc_sums[idx] += u.distinct_locations() as u64;
        }
        Self::from_sums(user_counts, tweet_counts, loc_sums)
    }

    /// Builds the table from per-group sums in [`TopKGroup::ALL`] order:
    /// users, GPS tweets, and distinct tweet districts summed over users.
    pub fn from_sums(user_counts: [u64; 7], tweet_counts: [u64; 7], loc_sums: [u64; 7]) -> Self {
        let total_users: u64 = user_counts.iter().sum();
        let total_tweets: u64 = tweet_counts.iter().sum();
        let rows = std::array::from_fn(|i| GroupRow {
            group: TopKGroup::ALL[i],
            users: user_counts[i],
            user_pct: pct(user_counts[i], total_users),
            tweets: tweet_counts[i],
            tweet_pct: pct(tweet_counts[i], total_tweets),
            avg_locations: if user_counts[i] == 0 {
                0.0
            } else {
                loc_sums[i] as f64 / user_counts[i] as f64
            },
        });
        let overall_avg_locations = if total_users == 0 {
            0.0
        } else {
            loc_sums.iter().sum::<u64>() as f64 / total_users as f64
        };
        GroupTable {
            rows,
            total_users,
            total_tweets,
            overall_avg_locations,
        }
    }

    /// The row for a group.
    pub fn row(&self, group: TopKGroup) -> &GroupRow {
        &self.rows[group.index()]
    }

    /// Combined user percentage of Top-1 and Top-2 — the paper's headline
    /// ("more than 4x% of all users are in the Top-1 group and Top-2
    /// group … nearly half of all users post tweets in their hometown").
    pub fn top1_top2_pct(&self) -> f64 {
        self.row(TopKGroup::Top1).user_pct + self.row(TopKGroup::Top2).user_pct
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_user_strings;
    use crate::string::LocationString;

    fn user_with(user: u64, tweets: &[(&str, usize)], profile_county: &str) -> GroupedUser {
        let strings: Vec<LocationString> = tweets
            .iter()
            .flat_map(|&(county, n)| {
                std::iter::repeat_with(move || LocationString {
                    user,
                    state_profile: "Seoul".into(),
                    county_profile: profile_county.into(),
                    state_tweet: "Seoul".into(),
                    county_tweet: county.into(),
                })
                .take(n)
            })
            .collect();
        group_user_strings(&strings).unwrap()
    }

    fn cohort() -> Vec<GroupedUser> {
        vec![
            // Top-1: 4 home, 1 elsewhere → 2 districts
            user_with(1, &[("Guro-gu", 4), ("Mapo-gu", 1)], "Guro-gu"),
            // Top-1: all home → 1 district
            user_with(2, &[("Guro-gu", 3)], "Guro-gu"),
            // Top-2: elsewhere dominates
            user_with(
                3,
                &[("Mapo-gu", 5), ("Guro-gu", 2), ("Jung-gu", 1)],
                "Guro-gu",
            ),
            // None
            user_with(4, &[("Mapo-gu", 2), ("Jung-gu", 2)], "Guro-gu"),
        ]
    }

    #[test]
    fn table_counts() {
        let t = GroupTable::compute(&cohort());
        assert_eq!(t.total_users, 4);
        assert_eq!(t.total_tweets, 5 + 3 + 8 + 4);
        assert_eq!(t.row(TopKGroup::Top1).users, 2);
        assert_eq!(t.row(TopKGroup::Top2).users, 1);
        assert_eq!(t.row(TopKGroup::None).users, 1);
        assert_eq!(t.row(TopKGroup::Top3).users, 0);
        assert!((t.row(TopKGroup::Top1).user_pct - 50.0).abs() < 1e-12);
        assert!((t.top1_top2_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn avg_locations_per_group() {
        let t = GroupTable::compute(&cohort());
        assert!((t.row(TopKGroup::Top1).avg_locations - 1.5).abs() < 1e-12); // (2+1)/2
        assert!((t.row(TopKGroup::Top2).avg_locations - 3.0).abs() < 1e-12);
        assert!((t.row(TopKGroup::None).avg_locations - 2.0).abs() < 1e-12);
        assert_eq!(t.row(TopKGroup::Top5).avg_locations, 0.0);
        // Overall: (2 + 1 + 3 + 2) / 4 = 2.0
        assert!((t.overall_avg_locations - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tweet_percentages_sum_to_100() {
        let t = GroupTable::compute(&cohort());
        let sum: f64 = t.rows.iter().map(|r| r.tweet_pct).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        let usum: f64 = t.rows.iter().map(|r| r.user_pct).sum();
        assert!((usum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cohort() {
        let t = GroupTable::compute(&[]);
        assert_eq!(t.total_users, 0);
        assert_eq!(t.overall_avg_locations, 0.0);
        assert_eq!(t.top1_top2_pct(), 0.0);
    }
}
