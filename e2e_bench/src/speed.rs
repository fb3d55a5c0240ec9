//! Machine-speed calibration for the reported times.
//!
//! The shared 2-vCPU box this benchmark was tuned on runs in speed regimes
//! that last 10–50 s and differ by up to 2×: the same Fig. 7 over rows took
//! ~400 ms, ~600 ms and ~840 ms within one two-minute run. A run of ten
//! seconds lands in one regime, so raw medians spread ~25 % between runs
//! whatever their length. A fixed calibration kernel therefore runs between
//! the timed calls all through a run (never inside one), and every time the
//! run reports is rescaled by `REFERENCE_MS / median kernel time` — to the
//! speed at which the kernel takes [`REFERENCE_MS`], the box's uncontended
//! speed. One kernel run varies ±20 % from the next, so the run's median
//! is the estimate. A code change moves the rescaled time exactly as it
//! moves the raw one: the kernel is benchmark code that no change to the
//! program touches. Raw medians are reported per layer.
//!
//! Where the timed operations are `repro` processes, the kernel runs in a
//! child process too, on memory it maps fresh: an in-process kernel on a
//! warm buffer did not see the slow spells of those children (rescaled
//! `repro_all` medians drifted 30 % within four minutes), as it pays no
//! process start and no page faults.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel time that defines reference speed: what it takes on the box
/// above when no neighbour contends.
pub const REFERENCE_MS: f64 = 25.0;

/// The same for the kernel run in a child process on fresh memory
/// ([`Speed::child`]): process start, page faults and exit included. It
/// took about twice as long as the in-process kernel on the box above.
pub const CHILD_REFERENCE_MS: f64 = 2.0 * REFERENCE_MS;

/// Argument that makes the benchmark executable run [`fresh_kernel`] and
/// exit.
pub const CALIBRATE_ARG: &str = "--calibrate";

/// Random read-modify-write steps per kernel run.
const STEPS: usize = 3_000_000;
/// Kernel working set: 32 MiB of `u64`, larger than the last-level cache,
/// so the kernel waits on memory the way the hash-heavy pipeline does.
const WORDS: usize = 4 << 20;

/// Where the kernel runs.
enum Site {
    /// In this process: one buffer per kernel thread, allocated once.
    InProcess(Vec<Vec<u64>>),
    /// In a fresh child process of this executable, on fresh memory.
    Child(PathBuf),
}

pub struct Speed {
    site: Site,
    reference_ms: f64,
    /// Kernel time of each calibration so far, in ms.
    kernel_ms: Vec<f64>,
    /// Total time spent in the kernel, to exclude it from job walls.
    pub spent: Duration,
}

impl Speed {
    /// A calibration that runs the kernel on `threads` threads at once and
    /// times the slowest, as a parallel operation waits for its slowest
    /// worker; match the parallelism of the timed operations.
    pub fn new(threads: usize) -> Self {
        let words = WORDS / threads.max(1);
        let bufs = (0..threads.max(1))
            .map(|_| (0..words as u64).collect())
            .collect();
        Speed {
            site: Site::InProcess(bufs),
            reference_ms: REFERENCE_MS,
            kernel_ms: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// A calibration that runs the kernel in a child process of this
    /// executable, on memory the child maps fresh, and times the child
    /// from spawn to exit: the reference for timed operations that are
    /// processes themselves, which pay process start and page faults too.
    pub fn child() -> Self {
        let exe = std::env::current_exe().expect("the running executable has a path");
        Speed {
            site: Site::Child(exe),
            reference_ms: CHILD_REFERENCE_MS,
            kernel_ms: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Runs the kernel once and records its time.
    pub fn calibrate(&mut self) {
        let start = Instant::now();
        match &mut self.site {
            Site::InProcess(bufs) => match bufs.as_mut_slice() {
                [one] => kernel(one),
                many => std::thread::scope(|s| {
                    for buf in many.iter_mut() {
                        s.spawn(|| kernel(buf));
                    }
                }),
            },
            Site::Child(exe) => {
                let ran = Command::new(&*exe)
                    .arg(CALIBRATE_ARG)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .status();
                if !ran.as_ref().is_ok_and(|s| s.success()) {
                    eprintln!("calibration child failed: {ran:?}");
                    return;
                }
            }
        }
        let took = start.elapsed();
        self.spent += took;
        self.kernel_ms.push(took.as_secs_f64() * 1e3);
    }

    /// Median kernel time over the run, in ms.
    pub fn median_kernel_ms(&self) -> f64 {
        crate::median(&self.kernel_ms)
    }

    /// The run's rescale factor: reference over median kernel time (1 with
    /// no calibration).
    pub fn factor(&self) -> f64 {
        if self.kernel_ms.is_empty() {
            1.0
        } else {
            self.reference_ms / self.median_kernel_ms()
        }
    }
}

/// The kernel on freshly mapped memory: the body of a calibration child.
pub fn fresh_kernel() {
    let mut buf = vec![0u64; WORDS];
    kernel(&mut buf);
}

/// Random read-modify-write steps over `buf`.
fn kernel(buf: &mut [u64]) {
    let n = buf.len() as u64;
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for _ in 0..STEPS {
        // SplitMix64 step picks the next slot.
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let i = (x % n) as usize;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc;
    }
    std::hint::black_box(acc);
}
