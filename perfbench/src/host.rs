//! What the benchmark reads about the machine it runs on: the host stamp,
//! peak memory, and a stopwatch that leaves out time the hypervisor took
//! from the machine's vCPUs.
//!
//! On a shared virtual machine the hypervisor can preempt a vCPU that has
//! work to do ("steal"). That time belongs to other tenants and comes and
//! goes over minutes. [`Lap::seconds`] subtracts the machine's stolen time
//! averaged over its vCPUs: a fixed rule that does not look at how many
//! threads the code under test kept busy, so two versions of the program
//! that meet the same steal get the same adjustment. [`Lap::wall_s`] keeps
//! the raw reading, which the report prints too.

use std::time::Instant;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`).
const TICKS: f64 = 100.0;

/// CPU time stolen from this machine's vCPUs since boot, averaged over
/// the vCPUs, seconds: the `steal` column of the `cpu` line of
/// `/proc/stat` over the number of `cpuN` lines (0 where it is not
/// readable).
fn steal_per_vcpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = text
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .unwrap_or(0.0);
    let vcpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
        .max(1);
    steal / TICKS / vcpus as f64
}

/// A running measurement; [`Stopwatch::lap`] reads it.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    steal_s: f64,
}

/// One measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds stolen from the machine's vCPUs, averaged over vCPUs.
    pub steal_s: f64,
}

impl Stopwatch {
    /// Start measuring.
    pub fn start() -> Stopwatch {
        Stopwatch {
            steal_s: steal_per_vcpu_s(),
            start: Instant::now(),
        }
    }

    /// The interval since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        Lap {
            wall_s: self.start.elapsed().as_secs_f64(),
            steal_s: (steal_per_vcpu_s() - self.steal_s).max(0.0),
        }
    }
}

impl Lap {
    /// Wall seconds minus the stolen seconds per vCPU.
    pub fn seconds(&self) -> f64 {
        (self.wall_s - self.steal_s).max(0.0)
    }

    /// Stolen seconds per vCPU per wall second.
    pub fn steal_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.steal_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// The process's peak resident set so far (`VmHWM`), MiB; `0.0` where
/// `/proc/self/status` is not readable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
            None => Some(head),
        }
        .unwrap_or_else(|| "unknown".to_string()),
        None => "unknown".to_string(),
    }
}
