//! Order statistics and the load generator's bookkeeping rules: the
//! tail percentile, open-loop lateness, and miss/repeat query classes.

/// The tail is the highest percentile with at least this many samples
/// strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

/// An open-loop frame the generator itself sent more than this late
/// counts as late (see [`generator_lateness`]).
pub const LATE_LIMIT_MS: f64 = 5.0;

/// A run is invalid when more than this share of its open-loop frames
/// were sent late by the generator.
pub const LATE_SHARE_MAX: f64 = 0.01;

/// Sorted copy of `xs` (which must hold no NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples hold no NaN"));
    s
}

/// The median; the mean of the two middle samples for an even count,
/// and 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail reading: the value, the percentile it sits at, and the
/// sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile (0–100) the value sits at.
    pub pct: f64,
    /// Samples the reading was taken from.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples strictly
/// beyond it. `None` when no sample has that many larger samples (fewer
/// than `TAIL_BEYOND + 1` samples, or ties at the top).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut idx = n - TAIL_BEYOND - 1;
    // With ties the samples equal to s[idx] are not beyond it: step down
    // to a value strictly below its successor.
    while s[idx] == s[idx + 1] {
        if idx == 0 {
            return None;
        }
        idx -= 1;
    }
    Some(Tail {
        value: s[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    })
}

/// The median of the [`tail`]s of `k` consecutive segments of `xs`, in
/// sample order (the last segment takes the remainder). One slow
/// stretch of a run then moves one segment's tail, not the reading.
/// `None` when a segment has too few samples for a tail.
pub fn segmented_tail(xs: &[f64], k: usize) -> Option<Tail> {
    let len = xs.len() / k.max(1);
    let tails = (0..k.max(1))
        .map(|i| {
            let end = if i + 1 == k.max(1) {
                xs.len()
            } else {
                (i + 1) * len
            };
            tail(&xs[i * len..end])
        })
        .collect::<Option<Vec<Tail>>>()?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let pcts: Vec<f64> = tails.iter().map(|t| t.pct).collect();
    Some(Tail {
        value: median(&values),
        pct: median(&pcts),
        samples: xs.len(),
    })
}

/// How late the generator itself sent an open-loop frame: the send time
/// past the later of its due time and the moment the connection was
/// free again. Waiting for the server is not the generator's lateness
/// (that wait is charged to the frame's latency, timed from its due
/// time); oversleeping or being descheduled is.
pub fn generator_lateness(due: f64, free_at: f64, sent: f64) -> f64 {
    (sent - due.max(free_at)).max(0.0)
}

/// The latency charged to an open-loop frame: from its due time, so a
/// stall that delays later frames is charged to each of them.
pub fn due_latency(due: f64, done: f64) -> f64 {
    (done - due).max(0.0)
}

/// Whether an open-loop run kept its schedule: at most
/// [`LATE_SHARE_MAX`] of `lateness_ms` exceed [`LATE_LIMIT_MS`].
/// Returns the late share and the verdict.
pub fn schedule_kept(lateness_ms: &[f64]) -> (f64, bool) {
    if lateness_ms.is_empty() {
        return (0.0, true);
    }
    let late = lateness_ms.iter().filter(|&&l| l > LATE_LIMIT_MS).count();
    let share = late as f64 / lateness_ms.len() as f64;
    (share, share <= LATE_SHARE_MAX)
}

/// What a `QUERY` found, as far as the load generator can know it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// The tenant's state changed since its previous query (or there
    /// was none): the server's answer memo cannot serve it.
    Miss,
    /// The state provably did not change: the memo serves it.
    Repeat,
    /// A frame was in flight, so the generator cannot tell. Counted in
    /// neither latency metric.
    Ambiguous,
}

/// Classifies a query from the window of ingest frames it may have
/// seen: `lo` frames were acknowledged when it was sent and at most `hi`
/// had been sent when its answer arrived. `prev` is the previous query's
/// window on the same tenant.
pub fn classify(prev: Option<(u64, u64)>, lo: u64, hi: u64) -> QueryClass {
    match prev {
        None => QueryClass::Miss,
        Some((plo, phi)) if plo == phi && lo == hi && lo == phi => QueryClass::Repeat,
        Some((_, phi)) if lo > phi => QueryClass::Miss,
        Some(_) => QueryClass::Ambiguous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("100 samples support a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.samples, 100);

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
    }

    #[test]
    fn tail_needs_eleven_samples_and_skips_ties() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.value), Some(1.0));
        // Ten 9s and one 1, plus 5s: the 9s are ties at the top, so the
        // tail is the largest value with ten samples strictly above it.
        let mut xs = vec![9.0; 10];
        xs.extend([5.0, 5.0, 1.0]);
        let t = tail(&xs).expect("a value below the ties exists");
        assert_eq!(t.value, 5.0);
        assert!(xs.iter().filter(|&&x| x > t.value).count() >= TAIL_BEYOND);
        assert_eq!(tail(&[3.0; 20]), None);
    }

    #[test]
    fn tail_does_not_depend_on_order() {
        let mut xs: Vec<f64> = (0..57).map(|i| ((i * 37) % 57) as f64).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
    }

    #[test]
    fn segmented_tail_ignores_one_slow_stretch() {
        // Three segments of 100; the second holds a burst of 30 slow
        // samples, enough to carry the whole-series tail.
        let mut xs: Vec<f64> = (0..300).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        for (i, x) in xs[120..150].iter_mut().enumerate() {
            *x = 50.0 + i as f64;
        }
        assert!(tail(&xs).is_some_and(|t| t.value >= 50.0));
        let t = segmented_tail(&xs, 3).expect("segments of 100 have tails");
        assert!(t.value < 2.0, "one slow segment moved the reading: {t:?}");
        assert_eq!(t.samples, 300);
        // One segment is the plain tail.
        assert_eq!(segmented_tail(&xs, 1), tail(&xs));
        // Segments too short for a tail give none.
        assert_eq!(segmented_tail(&xs[..30], 3), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lateness_counts_only_the_generators_own_delay() {
        // Connection free before the due time: lateness is send − due.
        assert_eq!(generator_lateness(10.0, 8.0, 10.5), 0.5);
        // The server held the connection past the due time: lateness is
        // measured from when it became free, not from the due time.
        assert_eq!(generator_lateness(10.0, 12.0, 12.25), 0.25);
        // Sent early (never happens, but must not go negative).
        assert_eq!(generator_lateness(10.0, 8.0, 9.0), 0.0);
        // Latency is charged from the due time either way.
        assert_eq!(due_latency(10.0, 12.5), 2.5);
    }

    #[test]
    fn schedule_verdict_tolerates_one_percent_late() {
        let mut ms = vec![0.1; 99];
        ms.push(LATE_LIMIT_MS + 1.0);
        assert_eq!(schedule_kept(&ms), (0.01, true));
        ms.push(LATE_LIMIT_MS + 1.0);
        assert!(!schedule_kept(&ms).1);
        assert_eq!(schedule_kept(&[]), (0.0, true));
    }

    #[test]
    fn queries_classify_by_frame_windows() {
        assert_eq!(classify(None, 0, 0), QueryClass::Miss);
        // Nothing acknowledged or in flight since: a repeat.
        assert_eq!(classify(Some((4, 4)), 4, 4), QueryClass::Repeat);
        // A frame acknowledged since the previous answer: a miss.
        assert_eq!(classify(Some((4, 4)), 5, 5), QueryClass::Miss);
        assert_eq!(classify(Some((3, 4)), 5, 6), QueryClass::Miss);
        // A frame in flight around either query: cannot tell.
        assert_eq!(classify(Some((4, 4)), 4, 5), QueryClass::Ambiguous);
        assert_eq!(classify(Some((3, 4)), 4, 4), QueryClass::Ambiguous);
    }
}
