//! Proves the interned merge loop allocates nothing per tweet, a warm
//! session ingest nothing at all, and the bootstrap nothing per resample
//! or per user.
//!
//! A counting global allocator wraps the system one; each test runs the
//! same stage at two sizes orders of magnitude apart and asserts the
//! allocation count is identical — every allocation the merge stage makes
//! is per *distinct district* (the merge vector, the boundary strings),
//! never per key. The count is per thread, so tests the harness runs on
//! other threads cannot pollute a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stir_core::grouping::MergedEntry;
use stir_core::intern::{DistrictInterner, LocationKey};
use stir_core::{group_user_keys_with, user_share_cis, GroupedUser, ProfileRow, TieBreak};

struct CountingAllocator;

thread_local! {
    // `const`-initialised and drop-free, so the allocator can touch it
    // without allocating or registering a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `n` keys for one user cycling over `districts` tweet districts.
fn keys(interner: &mut DistrictInterner, n: usize, districts: usize) -> Vec<LocationKey> {
    let profile = interner.intern("Seoul", "District-0");
    let tweet_ids: Vec<_> = (0..districts)
        .map(|d| interner.intern("Seoul", &format!("District-{d}")))
        .collect();
    (0..n)
        .map(|i| LocationKey {
            user: 1,
            profile,
            tweet: tweet_ids[i % districts],
        })
        .collect()
}

/// Allocations `f` makes on the calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn merge_loop_allocation_count_is_independent_of_tweet_count() {
    let mut interner = DistrictInterner::new();
    let small = keys(&mut interner, 1_000, 8);
    let large = keys(&mut interner, 100_000, 8);

    // Warm up once so lazily-initialized runtime structures don't bill
    // their one-time allocations to the first measured run.
    let _ = group_user_keys_with(&small, TieBreak::FirstSeen, &interner);

    let (a, small_allocs) =
        allocations_during(|| group_user_keys_with(&small, TieBreak::FirstSeen, &interner));
    let (b, large_allocs) =
        allocations_during(|| group_user_keys_with(&large, TieBreak::FirstSeen, &interner));

    let a = a.expect("non-empty");
    let b = b.expect("non-empty");
    assert_eq!(a.entries.len(), 8);
    assert_eq!(b.entries.len(), 8);
    assert_eq!(b.total_tweets(), 100_000);

    // 100× the tweets, identical allocation count: every allocation is per
    // distinct district, zero are per tweet.
    assert_eq!(
        small_allocs, large_allocs,
        "merge loop allocated per tweet: {small_allocs} allocs at 1k keys \
         vs {large_allocs} at 100k keys"
    );
    // Sanity: the stage does allocate *something* (the merge vector and the
    // boundary strings), so the counter is actually live.
    assert!(small_allocs > 0);
}

#[test]
fn warm_session_ingest_and_rank_queries_are_allocation_free() {
    use stir_core::{AnalysisSession, RefinementPipeline};
    use stir_geoindex::Point;
    use stir_geokr::Gazetteer;

    let g = Gazetteer::load();
    let profiles = (0..16u64).map(|user| ProfileRow {
        user,
        location_text: "Seoul Yangcheon-gu".into(),
    });
    let mut session = AnalysisSession::new(RefinementPipeline::with_defaults(&g), profiles);
    // Yangcheon-gu, Gangnam-gu, Busan Jung-gu.
    let districts = [
        Point::new(37.517, 126.866),
        Point::new(37.517, 127.047),
        Point::new(35.106, 129.032),
    ];
    // Warm-up: every user tweets from every district on day 0, so each
    // merged list and day bucket has reached its final length, every
    // point sits in the geocoder cache, and the maps their final capacity.
    for user in 0..16u64 {
        for (i, &p) in districts.iter().enumerate() {
            session.ingest(user, i as u64, Some(p));
        }
    }
    assert_eq!(session.users_live(), 16);

    // Steady state: 50k ingests into already-open days plus a rank query
    // each, zero heap traffic.
    let (last, allocs) = allocations_during(|| {
        let mut last = None;
        for i in 0..50_000u64 {
            let user = i % 16;
            let p = districts[(i % districts.len() as u64) as usize];
            session.ingest(user, i % 86_400, Some(p));
            last = session.group_of(user);
        }
        last
    });
    assert!(last.is_some());
    assert_eq!(
        allocs, 0,
        "warm ingest/group_of allocated {allocs} times over 50k tweets"
    );
}

#[test]
fn merge_loop_allocations_scale_with_district_count_only() {
    let mut interner = DistrictInterner::new();
    let narrow = keys(&mut interner, 50_000, 4);
    let wide = keys(&mut interner, 50_000, 64);
    let _ = group_user_keys_with(&narrow, TieBreak::FirstSeen, &interner);
    let (_, narrow_allocs) =
        allocations_during(|| group_user_keys_with(&narrow, TieBreak::FirstSeen, &interner));
    let (_, wide_allocs) =
        allocations_during(|| group_user_keys_with(&wide, TieBreak::FirstSeen, &interner));
    assert!(
        wide_allocs > narrow_allocs,
        "a wider district vocabulary must cost more ({narrow_allocs} vs {wide_allocs})"
    );
    // But still bounded by the vocabulary, not the 50k tweets: even at 64
    // districts the whole stage stays under ~6 allocations per district
    // (merge vector growth + two strings and a Vec per merged entry).
    assert!(
        wide_allocs < 6 * 64,
        "{wide_allocs} allocations for 64 districts"
    );
}

/// `n` users spread over every Top-k group, with 1–4 merged entries each.
fn cohort(n: usize) -> Vec<GroupedUser> {
    (0..n)
        .map(|u| {
            let entries = 1 + u % 4;
            let rank = [Some(1), Some(2), Some(3), Some(4), Some(5), Some(7), None][u % 7];
            GroupedUser {
                user: u as u64,
                state_profile: "Seoul".into(),
                county_profile: "District-0".into(),
                entries: (0..entries)
                    .map(|e| MergedEntry {
                        state: "Seoul".into(),
                        county: format!("District-{e}"),
                        count: (entries - e) as u64,
                        matched: rank == Some(e + 1),
                    })
                    .collect(),
                matched_rank: rank,
            }
        })
        .collect()
}

#[test]
fn bootstrap_allocation_count_is_independent_of_resamples_and_users() {
    let small = cohort(100);
    let large = cohort(10_000);
    let _ = user_share_cis(&small, 100, 0.95, 7);

    let (_, few) = allocations_during(|| user_share_cis(&small, 100, 0.95, 7));
    let (_, many) = allocations_during(|| user_share_cis(&small, 1_000, 0.95, 7));
    assert_eq!(
        few, many,
        "bootstrap allocated per resample: {few} allocs at 100 resamples vs {many} at 1,000"
    );
    let (_, wide) = allocations_during(|| user_share_cis(&large, 100, 0.95, 7));
    assert_eq!(
        few, wide,
        "bootstrap allocated per user: {few} allocs at 100 users vs {wide} at 10,000"
    );
    assert!(few > 0);
}
