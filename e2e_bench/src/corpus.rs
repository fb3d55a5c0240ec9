//! Untimed-correctness side of every workload: corpus set-up and the
//! exact-geocode oracle.
//!
//! The oracle is the paper-literal §III-B path with no cache anywhere:
//! every kept user's GPS fix goes through `Gazetteer::resolve_point`, is
//! written as a `user#state#county#state#county` [`LocationString`], and
//! each user's strings are merged by [`group_user_strings`]. Fast paths are
//! compared against it two ways: the Fig. 7 table (users per Top-k group),
//! whose disagreement fails the operation, and per-user grouped output,
//! whose disagreement is only counted (`oracle.user_mismatches`).
//!
//! `geokr::reverse` answers each ~50 m cell of its cache with the district
//! of whichever fix filled it first, so a fix in a cell that straddles a
//! district border may take its neighbour's district. A Fig. 7 table is
//! therefore checked against a [`Reference`]: the exact table, plus every
//! table the exact path gives when each fix in such a shared cell takes
//! any district the exact geocoder gives a kept fix of that cell. Answers
//! that are admissible but not exact are counted, not failed
//! (`oracle.fig7_inexact_ratio`).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

use stir_core::{
    group_user_strings, Granularity, GroupTable, GroupedUser, LocationString, PipelineBuilder,
    ProfileRow, RefinementPipeline, TweetRow,
};
use stir_geoindex::Point;
use stir_geokr::{DistrictId, Gazetteer};
use stir_twitter_sim::datasets::{Dataset, DatasetSpec};

use crate::speed::Speed;
use crate::trace::Tracer;

/// Users per Top-k group, in `TopKGroup::ALL` order — what Fig. 7 plots.
pub type Fig7 = [u64; 7];

pub fn fig7_of_table(table: &GroupTable) -> Fig7 {
    std::array::from_fn(|i| table.rows[i].users)
}

pub fn fig7_of_users(users: &[GroupedUser]) -> Fig7 {
    let mut f = [0u64; 7];
    for u in users {
        f[u.group().index()] += 1;
    }
    f
}

/// Times of one set-up, reported per layer.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub gazetteer: Duration,
    pub generate: Duration,
    pub materialize: Duration,
    pub collect: Duration,
    pub total: Duration,
}

/// A generated corpus: the dataset's users and their profile rows.
pub struct Corpus {
    pub gazetteer: &'static Gazetteer,
    pub dataset: Dataset,
    pub profiles: Vec<ProfileRow>,
}

/// Loads the gazetteer and generates the users of `spec` from
/// `population_seed`; their tweets are drawn from `seed` when the
/// materialize step derives them. With both seeds equal this is exactly
/// `Dataset::generate(spec, gazetteer, seed)`.
pub fn generate(
    tr: &mut Tracer,
    spec: DatasetSpec,
    population_seed: u64,
    seed: u64,
    times: &mut SetupTimes,
) -> Corpus {
    let (gazetteer, t) = tr.time("geokr.gazetteer.load", || {
        &*Box::leak(Box::new(Gazetteer::load()))
    });
    times.gazetteer = t;
    let (mut dataset, t) = tr.time("twitter-sim.datasets.generate", || {
        Dataset::generate(spec, gazetteer, population_seed)
    });
    dataset.seed = seed;
    times.generate = t;
    let profiles = dataset
        .users
        .iter()
        .map(|u| ProfileRow {
            user: u.id.0,
            location_text: u.location_text.clone(),
        })
        .collect();
    Corpus {
        gazetteer,
        dataset,
        profiles,
    }
}

/// Materializes the corpus as pipeline rows, in user-id then time order
/// (the order `repro fig7` feeds the pipeline).
pub fn materialize_rows(tr: &mut Tracer, corpus: &Corpus, times: &mut SetupTimes) -> Vec<TweetRow> {
    let (rows, t) = tr.time("twitter-sim.datasets.materialize", || {
        let mut rows = Vec::with_capacity(corpus.dataset.total_tweets() as usize);
        corpus.dataset.for_each_tweet(corpus.gazetteer, |t| {
            rows.push(TweetRow {
                user: t.user.0,
                tweet_id: t.id.0,
                gps: t.gps,
            })
        });
        rows
    });
    times.materialize = t;
    rows
}

/// Runs `make` `reps` times, with calibrations around each, and keeps the
/// last result. Returns it with the median of each set-up time (raw; the
/// run rescales when it reports).
pub fn repeated_setup<T>(
    reps: usize,
    tr: &mut Tracer,
    speed: &mut Speed,
    mut make: impl FnMut(&mut Tracer, &mut SetupTimes) -> T,
) -> (T, SetupTimes) {
    let mut all = Vec::with_capacity(reps);
    let mut kept = None;
    crate::calibrate(tr, speed);
    for _ in 0..reps.max(1) {
        // Drop the previous corpus first, so repetitions never overlap in
        // memory.
        drop(kept.take());
        let span = tr.enter("bench.setup");
        let start = Instant::now();
        let mut t = SetupTimes::default();
        let out = make(tr, &mut t);
        t.total = start.elapsed();
        tr.exit(span);
        crate::calibrate(tr, speed);
        all.push(t);
        kept = Some(out);
    }
    let med = |f: fn(&SetupTimes) -> Duration| {
        let mut v: Vec<Duration> = all.iter().map(f).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    let times = SetupTimes {
        gazetteer: med(|t| t.gazetteer),
        generate: med(|t| t.generate),
        materialize: med(|t| t.materialize),
        collect: med(|t| t.collect),
        total: med(|t| t.total),
    };
    (kept.expect("at least one set-up ran"), times)
}

/// A pipeline over the default (gazetteer) backend.
pub fn pipeline(
    gazetteer: &'static Gazetteer,
    threads: usize,
    sketches: bool,
) -> RefinementPipeline<'static> {
    PipelineBuilder::new(gazetteer)
        .threads(threads)
        .sketches(sketches)
        .build()
        .expect("default backend with explicit threads is a valid pipeline")
}

/// Kept users and their profile districts, from the pipeline's own select
/// stage (the oracle pins the GPS side, not profile classification).
pub fn kept_profiles(
    gazetteer: &'static Gazetteer,
    profiles: &[ProfileRow],
) -> HashMap<u64, (String, String)> {
    pipeline(gazetteer, 1, false)
        .execute(profiles.to_vec(), Vec::<TweetRow>::new())
        .kept_profiles
}

/// Cells of `geokr::reverse`'s cache per degree: it keys a fix on
/// `floor(coordinate × 2000)`, ~50 m.
const CACHE_CELLS_PER_DEGREE: f64 = 2000.0;

/// District combinations tried per user at most; past this a user's
/// answer must be exact (no corpus has come near: at most 2 fixes of one
/// user in shared cells).
const MAX_COMBINATIONS: usize = 1 << 16;

fn cache_cell(p: Point) -> (i32, i32) {
    (
        (p.lat * CACHE_CELLS_PER_DEGREE).floor() as i32,
        (p.lon * CACHE_CELLS_PER_DEGREE).floor() as i32,
    )
}

/// One kept user's GPS fix, resolved exactly.
#[derive(Clone, Copy)]
pub struct Fix {
    /// Position in the input order.
    pub ordinal: usize,
    pub user: u64,
    pub timestamp: u64,
    pub district: DistrictId,
    cell: (i32, i32),
}

/// The order a query path merges one user's strings in.
#[derive(Clone, Copy)]
pub enum Order {
    /// Input order.
    Input,
    /// By the rank of each district's first appearance in the user's whole
    /// stream so far, input order within a district (the session's
    /// windowed tie-break).
    FirstSeen,
}

/// The Fig. 7 tables a query may answer with: the exact one, and those the
/// reverse geocoder's cell cache can produce (see the module docs).
pub struct Reference {
    pub exact: Fig7,
    tables: HashSet<Fig7>,
}

impl Reference {
    pub fn allows(&self, got: &Fig7) -> bool {
        self.tables.contains(got)
    }

    /// Every admissible table, the exact one included.
    pub fn tables(&self) -> impl Iterator<Item = &Fig7> {
        self.tables.iter()
    }
}

/// The exact-geocode reference over one input order.
pub struct Oracle {
    gazetteer: &'static Gazetteer,
    kept: HashMap<u64, (String, String)>,
    /// Resolvable GPS fixes of kept users, in input order.
    pub fixes: Vec<Fix>,
    /// Cache cells whose fixes resolve to more than one district, with
    /// those districts.
    shared: HashMap<(i32, i32), Vec<DistrictId>>,
    /// Users with a fix in a shared cell: indices of all their fixes.
    exposed: BTreeMap<u64, Vec<usize>>,
}

impl Oracle {
    /// Resolves every kept user's fix in `tweets` (input order:
    /// `(user, timestamp, gps)`).
    pub fn new(
        gazetteer: &'static Gazetteer,
        kept: HashMap<u64, (String, String)>,
        tweets: impl Iterator<Item = (u64, u64, Option<Point>)>,
    ) -> Self {
        let mut fixes = Vec::new();
        let mut cells: HashMap<(i32, i32), BTreeSet<DistrictId>> = HashMap::new();
        for (ordinal, (user, timestamp, gps)) in tweets.enumerate() {
            let Some(p) = gps else { continue };
            if !kept.contains_key(&user) {
                continue;
            }
            // Generated fixes lie inside district footprints, so the exact
            // answer is never "outside Korea".
            if let Some(id) = gazetteer.resolve_point(p) {
                let cell = cache_cell(p);
                cells.entry(cell).or_default().insert(id);
                fixes.push(Fix {
                    ordinal,
                    user,
                    timestamp,
                    district: id,
                    cell,
                });
            }
        }
        let shared: HashMap<_, Vec<_>> = cells
            .into_iter()
            .filter(|(_, ds)| ds.len() > 1)
            .map(|(cell, ds)| (cell, ds.into_iter().collect()))
            .collect();
        let mut exposed: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for f in fixes.iter().filter(|f| shared.contains_key(&f.cell)) {
            exposed.entry(f.user).or_default();
        }
        for (i, f) in fixes.iter().enumerate() {
            if let Some(list) = exposed.get_mut(&f.user) {
                list.push(i);
            }
        }
        Oracle {
            gazetteer,
            kept,
            fixes,
            shared,
            exposed,
        }
    }

    /// The paper's location string for a fix of `user` in `district`.
    pub fn string(&self, user: u64, district: DistrictId) -> LocationString {
        let (state_profile, county_profile) = self.kept[&user].clone();
        let d = self.gazetteer.district(district);
        let (state_tweet, county_tweet) =
            Granularity::default().key(d.province.name_en(), d.name_en);
        LocationString {
            user,
            state_profile,
            county_profile,
            state_tweet,
            county_tweet,
        }
    }

    /// Groups the fixes accepted by `keep`, in input order, one user at a
    /// time; users come out in id order, as the pipeline returns them.
    pub fn grouped(&self, keep: impl Fn(&Fix) -> bool) -> Vec<GroupedUser> {
        let mut per_user: BTreeMap<u64, Vec<LocationString>> = BTreeMap::new();
        for f in self.fixes.iter().filter(|f| keep(f)) {
            per_user
                .entry(f.user)
                .or_default()
                .push(self.string(f.user, f.district));
        }
        per_user
            .values()
            .filter_map(|strings| group_user_strings(strings))
            .collect()
    }

    /// One user's Top-k group index (`None`: no string kept) when their
    /// `fixes` (the whole stream so far, input order) resolve to
    /// `districts` and `keep` picks the merged ones.
    fn group_of(
        &self,
        fixes: &[&Fix],
        districts: &[DistrictId],
        keep: &dyn Fn(&Fix) -> bool,
        order: Order,
    ) -> Option<usize> {
        let mut rank: HashMap<DistrictId, usize> = HashMap::new();
        let mut list = Vec::new();
        for (f, &d) in fixes.iter().zip(districts) {
            let next = rank.len();
            let r = *rank.entry(d).or_insert(next);
            if keep(f) {
                let key = match order {
                    Order::Input => 0,
                    Order::FirstSeen => r,
                };
                list.push((key, self.string(f.user, d)));
            }
        }
        // Stable: input order within a key.
        list.sort_by_key(|(key, _)| *key);
        let strings: Vec<LocationString> = list.into_iter().map(|(_, s)| s).collect();
        group_user_strings(&strings).map(|g| g.group().index())
    }

    /// The reference for a query over the fixes before input position
    /// `prefix`, merging those `keep` accepts in `order`; `exact` is the
    /// exact path's table for that query.
    pub fn reference(
        &self,
        exact: Fig7,
        prefix: usize,
        keep: impl Fn(&Fix) -> bool,
        order: Order,
    ) -> Reference {
        let mut tables = HashSet::from([exact]);
        for (user, indices) in &self.exposed {
            let fixes: Vec<&Fix> = indices
                .iter()
                .map(|&i| &self.fixes[i])
                .take_while(|f| f.ordinal < prefix)
                .collect();
            let choices: Vec<&[DistrictId]> = fixes
                .iter()
                .map(|f| {
                    self.shared
                        .get(&f.cell)
                        .map_or(std::slice::from_ref(&f.district), Vec::as_slice)
                })
                .collect();
            let combinations = choices
                .iter()
                .try_fold(1usize, |n, c| n.checked_mul(c.len()))
                .filter(|&n| n <= MAX_COMBINATIONS);
            let Some(combinations) = combinations else {
                eprintln!("oracle: user {user} has too many shared-cell fixes; exact only");
                continue;
            };
            if combinations == 1 {
                continue;
            }
            let mut districts: Vec<DistrictId> = fixes.iter().map(|f| f.district).collect();
            let exact_group = self.group_of(&fixes, &districts, &keep, order);
            let mut groups = BTreeSet::new();
            for mut n in 0..combinations {
                for (d, c) in districts.iter_mut().zip(&choices) {
                    *d = c[n % c.len()];
                    n /= c.len();
                }
                groups.insert(self.group_of(&fixes, &districts, &keep, order));
            }
            groups.remove(&exact_group);
            if groups.is_empty() {
                continue;
            }
            let shifted: Vec<Fig7> = tables
                .iter()
                .flat_map(|t| {
                    groups.iter().map(move |&g| {
                        let mut t = *t;
                        if let Some(i) = exact_group {
                            t[i] -= 1;
                        }
                        if let Some(i) = g {
                            t[i] += 1;
                        }
                        t
                    })
                })
                .collect();
            tables.extend(shifted);
        }
        Reference { exact, tables }
    }
}

/// Users whose grouped output differs between `got` and `want` (both in
/// user-id order), counting users present on one side only.
pub fn user_mismatches(got: &[GroupedUser], want: &[GroupedUser]) -> u64 {
    let got: BTreeMap<u64, &GroupedUser> = got.iter().map(|u| (u.user, u)).collect();
    let want: BTreeMap<u64, &GroupedUser> = want.iter().map(|u| (u.user, u)).collect();
    let mut n = 0;
    for (user, w) in &want {
        if got.get(user) != Some(w) {
            n += 1;
        }
    }
    n + got.keys().filter(|u| !want.contains_key(u)).count() as u64
}
