//! Checks the fused engine's peak-memory estimate against a byte-counting
//! global allocator: on a 50k-tweet corpus, the counter-based
//! `ExecMetrics::peak_bytes_estimate` must bound the measured peak heap
//! growth from below and stay within 2× of it. The engine's only
//! tweet-proportional intermediate is the `(ordinal, key)` partition
//! buffers, so an estimate that drifts from the allocator means a new
//! intermediate crept in. Lives in its own test binary so no other
//! test's allocations pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stir_core::{
    CollectionFunnel, PipelineBuilder, PipelineMetrics, ProfileRow, RowSource, TweetRow,
};
use stir_geokr::Gazetteer;

struct TrackingAllocator;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the grown size before the old block frees — that is the
        // worst-case residency a reallocating `Vec` actually touches.
        on_alloc(new_size as u64);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Serializes the measuring sections: the harness runs tests on parallel
/// threads, and a concurrent test's allocations would land in our window.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` and returns its result plus the peak heap growth *above the
/// entry baseline* observed while it ran.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let _guard = MEASURE.lock().unwrap();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (out, peak.saturating_sub(base))
}

/// ~50k GPS tweets over a 400-user kept cohort, every fix resolvable, so
/// every tweet emits a key.
fn corpus() -> (Vec<ProfileRow>, Vec<TweetRow>) {
    const YANGCHEON: (f64, f64) = (37.517, 126.866);
    const GANGNAM: (f64, f64) = (37.517, 127.047);
    let profiles = (1..=400u64)
        .map(|u| ProfileRow {
            user: u,
            location_text: "Seoul Yangcheon-gu".to_string(),
        })
        .collect();
    let tweets = (0..50_000u64)
        .map(|i| {
            let (lat, lon) = if i % 2 == 0 { YANGCHEON } else { GANGNAM };
            TweetRow::tagged(1 + i % 400, i, lat, lon)
        })
        .collect();
    (profiles, tweets)
}

#[test]
fn peak_bytes_estimate_brackets_the_measured_peak() {
    let g = Gazetteer::load();
    let pipe = PipelineBuilder::new(&g).threads(1).build().unwrap();
    let (profiles, tweets) = corpus();
    let mut funnel = CollectionFunnel::default();
    let kept = pipe.select_users(profiles, &mut funnel);

    // Warm up once so lazily-initialized runtime structures don't bill
    // their one-time allocations to the measured run.
    {
        let mut m = PipelineMetrics::default();
        let mut f = funnel;
        let src = RowSource::new(tweets.clone().into_iter(), 2048);
        let _ = pipe.process_tweets(&kept, &src, &mut f, &mut m);
    }

    let mut metrics = PipelineMetrics::default();
    let src = RowSource::new(tweets.into_iter(), 2048);
    let (users, peak) = peak_during(|| pipe.process_tweets(&kept, &src, &mut funnel, &mut metrics));
    assert_eq!(users.len(), 400);
    assert_eq!(funnel.strings_built, 50_000);

    assert!(peak > 0, "tracking allocator not live");
    let exec = metrics.exec.as_ref().expect("engine fills exec");
    let estimate = exec.peak_bytes_estimate;
    eprintln!(
        "estimated peak {estimate} B, measured peak {peak} B ({:.2}x)",
        peak as f64 / estimate as f64
    );
    assert!(
        estimate <= peak,
        "estimate {estimate} B exceeds the measured peak {peak} B"
    );
    assert!(
        peak <= 2 * estimate,
        "measured peak {peak} B is more than 2x the estimate {estimate} B"
    );
}
