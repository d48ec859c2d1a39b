//! What the benchmark reads from the host: peak resident memory and the
//! fingerprint fields a recorded number is attributed to.

/// `VmHWM` of this process in MB (0 where `/proc` has no such field).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU seconds the guest has been busy so far (`/proc/stat`, every state
/// but idle and iowait) and CPU seconds of this process (`utime + stime`
/// of `/proc/self/stat`), assuming the usual 100 ticks a second. `None`
/// where `/proc` does not say.
fn busy_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal: all but idle, iowait.
    let guest: f64 = ticks.iter().take(8).sum::<f64>() - ticks.get(3)? - ticks.get(4)?;
    let own = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them.
    let fields: Vec<&str> = own.rsplit(')').next()?.split_whitespace().collect();
    let own: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some((guest / 100.0, own / 100.0))
}

/// How much CPU everything else in the guest used while a run measured,
/// as a percentage of one CPU: a run that shared its vCPUs with another
/// process says so.
pub struct OtherCpu {
    began: std::time::Instant,
    at_start: Option<(f64, f64)>,
}

impl OtherCpu {
    /// Start watching.
    pub fn start() -> Self {
        OtherCpu {
            began: std::time::Instant::now(),
            at_start: busy_seconds(),
        }
    }

    /// Percent of one CPU used by other processes since [`OtherCpu::start`]
    /// (0 where `/proc` does not say).
    pub fn percent(&self) -> f64 {
        match (self.at_start, busy_seconds()) {
            (Some((guest0, own0)), Some((guest1, own1))) => {
                let others = (guest1 - guest0) - (own1 - own0);
                100.0 * others.max(0.0) / self.began.elapsed().as_secs_f64()
            }
            _ => 0.0,
        }
    }
}
