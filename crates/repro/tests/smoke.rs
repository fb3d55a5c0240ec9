//! End-to-end smoke tests: run the actual `repro` binary and check that
//! every experiment produces its key output markers and exits cleanly.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn all_experiments_run_at_tiny_scale() {
    let (stdout, stderr, code) = run(&["all", "--scale", "0.02", "--seed", "1"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    for marker in [
        "Table I",
        "Table II",
        "Fig. 3",
        "Fig. 4",
        "Fig. 5",
        "data refinement funnel",
        "Fig. 6",
        "Fig. 7",
        "number of tweets in each group",
        "Lady Gaga",
        "reliability-weighted event location estimation",
        "metropolitan split",
        "reliability by profile region",
        "detection-quality benchmark",
        "diagnosing the None group",
        "hour-of-day posting profiles",
        "tie-break",
        "GPS adoption sweep",
    ] {
        assert!(stdout.contains(marker), "missing {marker:?} in output");
    }
}

#[test]
fn help_lists_every_experiment() {
    let (stdout, _, code) = run(&["help"]);
    assert_eq!(code, Some(0));
    for cmd in [
        "table1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "funnel",
        "fig6",
        "fig7",
        "tweets",
        "compare",
        "eventloc",
        "ablation",
        "regional",
        "export",
        "detect",
        "nonegroup",
        "diurnal",
        "report",
        "sensitivity",
        "all",
    ] {
        assert!(stdout.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn bad_arguments_exit_nonzero() {
    let (_, stderr, code) = run(&["no-such-experiment"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown experiment"));
    let (_, stderr, code) = run(&["fig7", "--seed"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--seed needs a value"));
}

#[test]
fn export_writes_files() {
    let dir = std::env::temp_dir().join(format!("stir-smoke-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, stderr, code) = run(&[
        "export",
        "--scale",
        "0.02",
        "--seed",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    for f in [
        "group_table.csv",
        "funnel.csv",
        "cohort.csv",
        "regional.csv",
        "districts.geojson",
    ] {
        assert!(dir.join(f).exists(), "missing {f}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verbose_prints_stage_metrics() {
    let (_, stderr, code) = run(&["funnel", "--scale", "0.02", "--seed", "1", "--verbose"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    for marker in [
        "pipeline stage timings:",
        "select users",
        "tweet intake",
        "fixes/sec",
        "cache hit ratio",
        "grouping stage:",
        "strings/sec",
        "merge ratio",
        "interned districts",
        "fused exec:",
        "memory: peak intermediate",
    ] {
        assert!(
            stderr.contains(marker),
            "missing {marker:?} in stderr:\n{stderr}"
        );
    }
    // Without --verbose the timing block stays out of both streams, keeping
    // stdout deterministic and stderr limited to progress lines.
    let (stdout, stderr, code) = run(&["funnel", "--scale", "0.02", "--seed", "1"]);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("pipeline stage timings:"));
    assert!(!stderr.contains("pipeline stage timings:"));
}

#[test]
fn verbose_fig7_reports_the_bootstrap_on_stderr_only() {
    let (quiet_out, quiet_err, code) = run(&["fig7", "--scale", "0.02", "--seed", "1"]);
    assert_eq!(code, Some(0), "stderr:\n{quiet_err}");
    assert!(!quiet_err.contains("bootstrap:"), "stderr:\n{quiet_err}");
    let (stdout, stderr, code) = run(&["fig7", "--scale", "0.02", "--seed", "1", "--verbose"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(
        stderr.contains("bootstrap: 500 resamples × "),
        "missing bootstrap line in stderr:\n{stderr}"
    );
    assert_eq!(stdout, quiet_out, "--verbose changed stdout");
}

#[test]
fn resilient_backend_rides_out_faults_without_changing_figures() {
    // The acceptance bar for the service layer: a seeded fault schedule at
    // the endpoint must not perturb a single byte of figure output when the
    // resilient backend is in front of it.
    let clean = run(&["fig7", "--scale", "0.02", "--seed", "1"]);
    assert_eq!(clean.2, Some(0), "stderr:\n{}", clean.1);
    let faulted = run(&[
        "fig7",
        "--scale",
        "0.02",
        "--seed",
        "1",
        "--backend",
        "resilient",
        "--faults",
        "drop:0.1",
    ]);
    assert_eq!(faulted.2, Some(0), "stderr:\n{}", faulted.1);
    assert_eq!(
        clean.0, faulted.0,
        "fault injection leaked into figure output"
    );
}

#[test]
fn figures_are_invariant_across_threads_and_backends() {
    // The interned, parallel grouping engine must not move a byte of
    // figure or table output: fig7 and table2 are pinned across every
    // thread-count × backend combination the acceptance criteria name.
    let fig7_base = run(&[
        "fig7",
        "--scale",
        "0.05",
        "--seed",
        "2012",
        "--threads",
        "1",
    ]);
    assert_eq!(fig7_base.2, Some(0), "stderr:\n{}", fig7_base.1);
    let table2_base = run(&[
        "table2",
        "--scale",
        "0.05",
        "--seed",
        "2012",
        "--threads",
        "1",
    ]);
    assert_eq!(table2_base.2, Some(0), "stderr:\n{}", table2_base.1);
    for threads in ["1", "8"] {
        for backend in ["gazetteer", "resilient"] {
            let fig7 = run(&[
                "fig7",
                "--scale",
                "0.05",
                "--seed",
                "2012",
                "--threads",
                threads,
                "--backend",
                backend,
            ]);
            assert_eq!(fig7.2, Some(0), "stderr:\n{}", fig7.1);
            assert_eq!(
                fig7_base.0, fig7.0,
                "fig7 drifted at threads={threads} backend={backend}"
            );
            let table2 = run(&[
                "table2",
                "--scale",
                "0.05",
                "--seed",
                "2012",
                "--threads",
                threads,
                "--backend",
                backend,
            ]);
            assert_eq!(table2.2, Some(0), "stderr:\n{}", table2.1);
            assert_eq!(
                table2_base.0, table2.0,
                "table2 drifted at threads={threads} backend={backend}"
            );
        }
    }
}

#[test]
fn store_backed_run_is_byte_identical_to_row_based() {
    // S6 acceptance bar: routing the corpus through a TweetStore and the
    // zero-copy header scan (`--from-store`) must not move a byte of
    // figure output relative to the direct row-fed path.
    let rows = run(&["fig7", "--scale", "0.05", "--seed", "2012"]);
    assert_eq!(rows.2, Some(0), "stderr:\n{}", rows.1);
    let store = run(&["fig7", "--scale", "0.05", "--seed", "2012", "--from-store"]);
    assert_eq!(store.2, Some(0), "stderr:\n{}", store.1);
    assert_eq!(
        rows.0, store.0,
        "--from-store drifted from the row-based run"
    );
    // The store path announces itself on stderr (segment/byte counts).
    assert!(
        store.1.contains("store:"),
        "store path left no trace in stderr:\n{}",
        store.1
    );
}

#[test]
fn sharded_store_run_is_byte_identical_to_single_store() {
    // PR-8 acceptance bar: splitting the store into user-hash shards and
    // running the scatter-gather scan (`--from-store --shards N`) must
    // not move a byte of figure output relative to the single-store run.
    let single = run(&["fig7", "--scale", "0.05", "--seed", "2012", "--from-store"]);
    assert_eq!(single.2, Some(0), "stderr:\n{}", single.1);
    for extra in [&["--shards", "8"][..], &["--shards", "3"][..]] {
        let mut args = vec!["fig7", "--scale", "0.05", "--seed", "2012", "--from-store"];
        args.extend_from_slice(extra);
        let sharded = run(&args);
        assert_eq!(sharded.2, Some(0), "stderr:\n{}", sharded.1);
        assert_eq!(single.0, sharded.0, "fig7 drifted with {extra:?}");
    }
    // The sharded path announces itself on stderr.
    let sharded = run(&[
        "fig7",
        "--scale",
        "0.05",
        "--seed",
        "2012",
        "--from-store",
        "--shards",
        "8",
    ]);
    assert!(
        sharded.1.contains("8 shard(s)"),
        "sharded path left no trace in stderr:\n{}",
        sharded.1
    );
}

#[test]
fn fig7_matches_the_recorded_golden() {
    // `repro_fig7_scale05.txt` was recorded when a second, staged engine
    // still existed and both engines printed it byte for byte; the one
    // engine left must keep printing it, row-fed and store-fed, at both
    // ends of the thread range.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../repro_fig7_scale05.txt"
    ))
    .expect("read the recorded golden");
    for extra in [
        &[][..],
        &["--threads", "1"][..],
        &["--from-store"][..],
        &["--from-store", "--threads", "1"][..],
    ] {
        let mut args = vec!["fig7", "--scale", "0.05", "--seed", "2012"];
        args.extend_from_slice(extra);
        let fig7 = run(&args);
        assert_eq!(fig7.2, Some(0), "stderr:\n{}", fig7.1);
        assert_eq!(
            golden, fig7.0,
            "fig7 drifted from the golden with {extra:?}"
        );
    }
}

#[test]
fn invalid_pipeline_options_are_usage_errors() {
    // Options the pipeline builder rejects, and scales that cannot size a
    // corpus, exit 2 with a usage error before any work — never a panic,
    // never an empty figure.
    for bad in [
        &["fig7", "--threads", "0"][..],
        &["fig7", "--faults", "drop:0.1"],
        &["fig7", "--scale", "-1"],
        &["fig7", "--scale", "nan"],
    ] {
        let (stdout, stderr, code) = run(bad);
        assert_eq!(code, Some(2), "{bad:?} stderr:\n{stderr}");
        assert!(stderr.contains("error: "), "{bad:?} stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?} stderr:\n{stderr}");
        assert!(stdout.is_empty(), "{bad:?} printed:\n{stdout}");
    }
}

#[test]
fn deterministic_across_invocations() {
    let a = run(&["fig7", "--scale", "0.02", "--seed", "9"]);
    let b = run(&["fig7", "--scale", "0.02", "--seed", "9"]);
    assert_eq!(a.0, b.0, "same seed must print identical results");
    let c = run(&["fig7", "--scale", "0.02", "--seed", "10"]);
    assert_ne!(a.0, c.0, "different seeds should differ");
}
