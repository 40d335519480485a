//! One part of an untraced run: the timings one child process measured,
//! and the line it hands them to its parent in.
//!
//! Where a process's code, stack and heap land in memory changes how fast
//! it runs: on the reference host, processes of one seed linted the
//! `zero_trip_lint` corpus at a median of 22.4–24 ms or of 26.6–28.6 ms,
//! with nothing but the process differing, and with address-space
//! randomization off they fell into one group. A run is therefore split
//! over several processes, one after another, and pools their timings,
//! so that its numbers average over layouts instead of drawing one.

/// One timing, as measured and divided by the host's slowness at that
/// moment (see [`crate::yardstick`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Wall time as measured.
    pub raw: f64,
    /// Wall time divided by the host's slowness.
    pub normalised: f64,
}

/// What one process measured, or several processes pooled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Part {
    /// Operations and checks run.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Peak live heap of the process, in MiB (the largest, pooled).
    pub peak_heap_mib: f64,
    /// The process's median host slowness (the median, pooled).
    pub slowness: f64,
    /// Operation latencies in ms.
    pub ops_ms: Vec<Timing>,
    /// Set-up times in s.
    pub setup_s: Vec<Timing>,
}

impl Part {
    /// The part as one line:
    /// `part <attempted> <failed> <peak> <slowness> ops <n> <raw> <normalised> … setups <m> …`,
    /// every number with all its digits.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "part {} {} {:?} {:?}",
            self.attempted, self.failed, self.peak_heap_mib, self.slowness
        );
        for (label, timings) in [("ops", &self.ops_ms), ("setups", &self.setup_s)] {
            line.push_str(&format!(" {label} {}", timings.len()));
            for t in timings {
                line.push_str(&format!(" {:?} {:?}", t.raw, t.normalised));
            }
        }
        line
    }

    /// Reads a line [`Part::to_line`] wrote; `None` for anything else.
    pub fn parse(line: &str) -> Option<Part> {
        let mut words = line.split_whitespace();
        if words.next()? != "part" {
            return None;
        }
        let mut part = Part {
            attempted: words.next()?.parse().ok()?,
            failed: words.next()?.parse().ok()?,
            peak_heap_mib: words.next()?.parse().ok()?,
            slowness: words.next()?.parse().ok()?,
            ..Part::default()
        };
        for label in ["ops", "setups"] {
            if words.next()? != label {
                return None;
            }
            let n: usize = words.next()?.parse().ok()?;
            let mut timings = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                timings.push(Timing {
                    raw: words.next()?.parse().ok()?,
                    normalised: words.next()?.parse().ok()?,
                });
            }
            if label == "ops" {
                part.ops_ms = timings;
            } else {
                part.setup_s = timings;
            }
        }
        words.next().is_none().then_some(part)
    }

    /// The parts pooled: counts summed, timings concatenated, the largest
    /// heap peak and the median slowness.
    pub fn pool(parts: &[Part]) -> Part {
        let slowness: Vec<f64> = parts.iter().map(|p| p.slowness).collect();
        Part {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            peak_heap_mib: parts.iter().map(|p| p.peak_heap_mib).fold(0.0, f64::max),
            slowness: crate::stats::median(&slowness),
            ops_ms: parts
                .iter()
                .flat_map(|p| p.ops_ms.iter().copied())
                .collect(),
            setup_s: parts
                .iter()
                .flat_map(|p| p.setup_s.iter().copied())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(attempted: u64, heap: f64, ops: &[f64]) -> Part {
        Part {
            attempted,
            failed: 0,
            peak_heap_mib: heap,
            slowness: 0.9,
            ops_ms: ops
                .iter()
                .map(|&raw| Timing {
                    raw,
                    normalised: raw / 0.9,
                })
                .collect(),
            setup_s: vec![Timing {
                raw: 0.1,
                normalised: 0.1 / 0.9,
            }],
        }
    }

    #[test]
    fn a_line_reads_back_to_the_same_part() {
        let p = part(7, 12.345_678_9, &[0.1, 2.0 / 3.0, 1e-7]);
        assert_eq!(Part::parse(&p.to_line()), Some(p.clone()));
        let empty = Part::default();
        assert_eq!(Part::parse(&empty.to_line()), Some(empty));
        assert_eq!(Part::parse("{\"correct\": true}"), None);
        assert_eq!(Part::parse(&format!("{} 1.0", p.to_line())), None);
        let line = p.to_line();
        let (cut, _) = line.rsplit_once(' ').expect("several words");
        assert_eq!(Part::parse(cut), None);
    }

    #[test]
    fn pooling_sums_counts_and_concatenates_timings() {
        let pooled = Part::pool(&[part(3, 5.0, &[1.0]), part(4, 6.0, &[2.0, 3.0])]);
        assert_eq!(pooled.attempted, 7);
        assert_eq!(pooled.peak_heap_mib, 6.0);
        assert_eq!(pooled.ops_ms.len(), 3);
        assert_eq!(pooled.setup_s.len(), 2);
        assert_eq!(pooled.slowness, 0.9);
    }
}
