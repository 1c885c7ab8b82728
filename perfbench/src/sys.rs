//! Process-level measurements: CPU time, resident memory, and the
//! environment stamp every result carries.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) this process has used so far, to the
/// nanosecond.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process, KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}

/// Current resident set size of this process, KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `rustc --version`, as the compiler reports itself.
    pub rustc: String,
    /// Commit of the measured tree, as `run.py` passes it in
    /// `PERFBENCH_COMMIT`.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// `simulated` or `loopback`.
    pub traffic: &'static str,
}

impl EnvStamp {
    /// Stamp for a run with `seed` whose traffic is `traffic`.
    pub fn collect(seed: u64, traffic: &'static str) -> Self {
        EnvStamp {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            seed,
            traffic,
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}
