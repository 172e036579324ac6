//! The stage clock behind every per-stage wall-clock report in the
//! workspace (`BENCH_suite.json`, `BENCH_pipeline.json`, the streamed
//! pipeline's stage list).
//!
//! A run starts one [`Stages`] and calls [`Stages::lap`] as each stage
//! ends. Laps are back to back — each covers the time since the previous
//! lap, the first the time since the start — so they tile the run, and
//! their sum never exceeds [`Stages::elapsed`]. The clock is a side
//! channel: reading it never changes what the run computes.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Wall clock of one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name.
    pub stage: String,
    /// Elapsed seconds.
    pub seconds: f64,
}

/// A run's stage clock: started with the run, lapped at each stage end.
#[derive(Debug)]
pub struct Stages {
    start: Instant,
    last: Instant,
    laps: Vec<StageTiming>,
}

impl Stages {
    /// Start the clock.
    pub fn start() -> Stages {
        let now = Instant::now();
        Stages {
            start: now,
            last: now,
            laps: Vec::new(),
        }
    }

    /// End `stage`: record the time since the previous lap.
    pub fn lap(&mut self, stage: &str) {
        let now = Instant::now();
        self.laps.push(StageTiming {
            stage: stage.to_string(),
            seconds: (now - self.last).as_secs_f64(),
        });
        self.last = now;
    }

    /// The laps so far, in stage order.
    pub fn laps(&self) -> &[StageTiming] {
        &self.laps
    }

    /// The laps, consuming the clock.
    pub fn into_laps(self) -> Vec<StageTiming> {
        self.laps
    }

    /// Seconds since the clock started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_ordered_non_negative_within_elapsed_and_serialize() {
        let mut clock = Stages::start();
        for stage in ["a", "b", "c"] {
            std::hint::black_box((0..10_000u64).sum::<u64>());
            clock.lap(stage);
        }
        let names: Vec<&str> = clock.laps().iter().map(|l| l.stage.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(clock.laps().iter().all(|l| l.seconds >= 0.0));
        let sum: f64 = clock.laps().iter().map(|l| l.seconds).sum();
        assert!(sum <= clock.elapsed(), "{sum} > {}", clock.elapsed());
        // The field names the `BENCH_*.json` readers rely on.
        let json = serde_json::to_string(&clock.laps()[0]).unwrap();
        assert!(json.contains(r#""stage":"a""#) && json.contains(r#""seconds":"#));
    }
}
