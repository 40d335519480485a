//! The host-speed yardstick end-to-end timings are divided by.
//!
//! On a shared virtual machine the same code does not run at one speed:
//! on the 2-vCPU reference host the WRITE-side `solve_delta` of one fixed
//! program took 1.45 ms in one second and 2.5 ms in the next, and a whole
//! `large_file` lint moved between 414 and 699 ms within a minute, while
//! the CPU steal counter stayed flat. Ten runs of one workload met such
//! phases in different shares, and their quartiles spread by up to 45 %.
//! Running longer does not help against phases that last minutes.
//!
//! A [`Yardstick`] is a fixed piece of work written in this module alone
//! and run between operations: it writes a 500-line MiniF-like text with
//! a generator of its own, counts its tokens in a hash map, sorts them,
//! and indexes the lines in a B-tree — string, hashing and allocation work
//! like the pipeline's, but no code of the repository's crates, so a
//! change to them cannot move it. Each timing is divided by the host's
//! slowness at that moment: the median of the yardsticks nearest to it in
//! time, relative to [`REFERENCE_MS`].
//!
//! A sample runs the work twice and times the second run. Right after an
//! operation the first run was 5–28 % slower, by how much depending on
//! what the operation left in the caches and the allocator; timing it
//! would let a change to the program's footprint move the yardstick.
//! In an interleaved comparison over ten seeds, on a host whose raw
//! timings spread 12–27 %, a yardstick of this kind brought the spreads
//! to 2–7 %. One that also ran a bit dataflow over a 512 KiB graph read
//! differently from process to process (its working set lands on other
//! physical pages each time) and left `zero_trip_lint` at 11 %.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// About the yardstick's time on the reference host: normalised timings
/// read close to milliseconds there.
pub const REFERENCE_MS: f64 = 1.0;

/// Yardsticks whose median gives the host's speed at one moment.
const NEAREST: usize = 9;

/// The longest time between two samples, as long as no single operation
/// outlasts it: about 3 % of a run goes to the yardstick.
const EVERY: Duration = Duration::from_millis(60);

/// Lines of the text one run of the work writes.
const LINES: u64 = 500;

/// The yardstick and the samples it has taken.
#[derive(Debug)]
pub struct Yardstick {
    /// The clock's zero: moments are seconds since then.
    origin: Instant,
    /// `(moment, duration in ms)`, in the order taken.
    samples: Vec<(f64, f64)>,
    /// When the last sample ended.
    last: Option<Instant>,
}

impl Yardstick {
    /// A yardstick with no samples yet, its clock starting now.
    pub fn new() -> Yardstick {
        Yardstick {
            origin: Instant::now(),
            samples: Vec::new(),
            last: None,
        }
    }

    /// Seconds since the clock started: the moment to pass to
    /// [`Yardstick::slowness_at`].
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Takes a sample unless the last one ended less than [`EVERY`] ago.
    pub fn sample_if_due(&mut self) {
        if self.last.is_none_or(|last| last.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Runs the work twice and records the second run's duration.
    pub fn sample(&mut self) {
        work();
        let start = Instant::now();
        work();
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        let at = (start - self.origin).as_secs_f64() + ms / 2e3;
        self.samples.push((at, ms));
        self.last = Some(end);
    }

    /// The host's slowness at moment `at` (seconds on the samples' clock):
    /// the median of the [`NEAREST`] samples closest in time, divided by
    /// [`REFERENCE_MS`]. 2 means the host ran at half the reference speed;
    /// 1 without samples.
    pub fn slowness_at(&self, at: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        // Samples are in time order: widen a window around `at` towards
        // whichever neighbour is closer.
        let mut hi = self.samples.partition_point(|&(t, _)| t < at);
        let mut lo = hi;
        while hi - lo < NEAREST.min(self.samples.len()) {
            let left = (lo > 0).then(|| at - self.samples[lo - 1].0);
            let right = self.samples.get(hi).map(|&(t, _)| t - at);
            match (left, right) {
                (Some(l), Some(r)) if l <= r => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let window: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect();
        crate::stats::median(&window) / REFERENCE_MS
    }

    /// The median of every sample, relative to [`REFERENCE_MS`]: the run's
    /// typical slowness, printed beside its raw timings.
    pub fn median_slowness(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        if all.is_empty() {
            1.0
        } else {
            crate::stats::median(&all) / REFERENCE_MS
        }
    }
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick::new()
    }
}

/// The work one run of the yardstick does, the same every time.
fn work() {
    // A linear congruential generator: the text never depends on another
    // crate's random numbers.
    let mut state = black_box(0x5eed_u64);
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let mut text = String::new();
    for _ in 0..LINES {
        let indent = "  ".repeat(next(4) as usize);
        let (i, k) = (next(12), next(9));
        let _ = match next(4) {
            0 => writeln!(text, "{indent}do i{i} = 1, n{k}"),
            1 => writeln!(text, "{indent}x{k}(a{k}(i{i})) = y{k}(i{i} + {})", next(5)),
            2 => writeln!(
                text,
                "{indent}s{} = s{} + x{k}(b{k}(i{i}))",
                next(30),
                next(30)
            ),
            _ => writeln!(text, "{indent}enddo"),
        };
    }
    // A fixed hasher, so every run hashes (and collides) the same way.
    let mut counts: HashMap<String, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for token in text.split(|c: char| !c.is_alphanumeric()) {
        *counts.entry(token.to_string()).or_default() += 1;
    }
    let mut tokens: Vec<(String, u32)> = counts.into_iter().collect();
    tokens.sort();
    let lines: BTreeMap<String, usize> = text
        .lines()
        .enumerate()
        .map(|(i, line)| (line.trim().to_string(), i))
        .collect();
    black_box((tokens.len(), lines.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_median_of_the_nearest_samples() {
        let mut y = Yardstick::new();
        assert_eq!(y.slowness_at(3.0), 1.0);
        // A slow phase (2×) from t = 10 on, one sample a second.
        for t in 0..20 {
            let ms = if t < 10 {
                REFERENCE_MS
            } else {
                2.0 * REFERENCE_MS
            };
            y.samples.push((f64::from(t), ms));
        }
        assert_eq!(y.slowness_at(2.0), 1.0);
        assert_eq!(y.slowness_at(17.5), 2.0);
        // Past both ends the window is the nine samples at that end.
        assert_eq!(y.slowness_at(-5.0), 1.0);
        assert_eq!(y.slowness_at(99.0), 2.0);
        assert!((y.median_slowness() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn samples_are_taken_when_due() {
        let mut y = Yardstick::new();
        y.sample_if_due();
        y.sample_if_due();
        assert_eq!(y.samples.len(), 1, "the second call came too soon");
        y.sample();
        assert_eq!(y.samples.len(), 2);
        assert!(y.samples[0].0 < y.samples[1].0 && y.samples[1].0 < y.now());
        assert!(y.slowness_at(y.now()) > 0.0);
    }
}
