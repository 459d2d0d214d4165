//! Host-side readings from `/proc`: CPU time, peak resident set, load.
//!
//! Everything the end-to-end metrics need from the operating system is
//! read here, as plain text, so the benchmark has no dependency beyond
//! `std` and measures the program from outside.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux has reported 100 to user space on every
/// architecture since 2.6, whatever the kernel's own `HZ`.
const CLK_TCK: f64 = 100.0;

/// How often a spawned child's `/proc/<pid>/status` is polled.
const CHILD_POLL: Duration = Duration::from_millis(5);

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Fields of `/proc/<pid>/stat` after the `(comm)` column, which may
/// itself contain spaces; index 0 is the state letter (field 3 of
/// proc(5)).
fn stat_fields(text: &str) -> Vec<&str> {
    match text.rfind(')') {
        Some(i) => text[i + 1..].split_whitespace().collect(),
        None => Vec::new(),
    }
}

fn ticks_at(fields: &[&str], a: usize, b: usize) -> Option<f64> {
    let x: f64 = fields.get(a)?.parse().ok()?;
    let y: f64 = fields.get(b)?.parse().ok()?;
    Some((x + y) / CLK_TCK)
}

/// CPU seconds (user + system) this process has consumed so far.
///
/// Prefers the scheduler's nanosecond accounting summed over the live
/// threads of the process; falls back to the 10 ms ticks of
/// `/proc/self/stat` where `schedstat` is not compiled in.
pub fn self_cpu_s() -> f64 {
    let mut total_ns = 0u64;
    let mut seen = false;
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let path = entry.path().join("schedstat");
            if let Some(ns) = std::fs::read_to_string(path)
                .ok()
                .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()))
            {
                total_ns += ns;
                seen = true;
            }
        }
    }
    if seen {
        return total_ns as f64 / 1e9;
    }
    // utime, stime are fields 14 and 15 of proc(5): 11 and 12 after comm.
    read("/proc/self/stat").and_then(|t| ticks_at(&stat_fields(&t), 11, 12)).unwrap_or(0.0)
}

/// CPU seconds the calling thread has consumed, where the kernel keeps
/// per-thread scheduler statistics.
pub fn thread_cpu_s() -> Option<f64> {
    let text = read("/proc/thread-self/schedstat")?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// CPU seconds of every child this process has waited for (`cutime` +
/// `cstime`). The delta around one spawn→wait is that child's CPU time,
/// threads included, at 10 ms resolution.
pub fn reaped_children_cpu_s() -> f64 {
    // cutime, cstime are fields 16 and 17 of proc(5): 13 and 14 after comm.
    read("/proc/self/stat").and_then(|t| ticks_at(&stat_fields(&t), 13, 14)).unwrap_or(0.0)
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`; monotone).
pub fn self_peak_rss_mb() -> f64 {
    read("/proc/self/status").and_then(|s| vm_hwm_mb(&s)).unwrap_or(0.0)
}

/// Reset this process's `VmHWM` to its current RSS, so the next reading is
/// the peak of what ran in between. False where the kernel refuses (then
/// readings stay monotone over the whole process).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The three load averages of `/proc/loadavg`, as text for manifests.
pub fn loadavg() -> String {
    read("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// What one spawned child cost, measured from its parent.
pub struct ChildRun {
    pub status: ExitStatus,
    pub stdout: Vec<u8>,
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child and its threads.
    pub cpu_s: f64,
    /// Highest `VmHWM` seen while polling, MiB.
    pub peak_rss_mb: f64,
}

/// Remove every `PPT_*` variable from this process's environment, and so
/// from every child's: the harness and the figure binaries read several
/// of them mid-run. Call once, before any thread exists.
pub fn scrub_env() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PPT_") {
            std::env::remove_var(&key);
        }
    }
}

/// Run `cmd` to completion, capturing stdout and measuring wall, CPU and
/// peak RSS from outside.
///
/// Only one child exists at a time: this call blocks until the child has
/// exited and been waited for.
pub fn run_child(mut cmd: Command) -> std::io::Result<ChildRun> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    let cpu0 = reaped_children_cpu_s();
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    // Drain stdout on a thread so a chatty child can never block on a
    // full pipe while we poll its status.
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut pipe, &mut buf).map(|_| buf)
    });
    let polled = poll_until_exit(&mut child);
    let wall_s = t0.elapsed().as_secs_f64();
    if polled.is_err() {
        // Never leave a child behind, whatever went wrong with polling.
        let _ = child.kill();
        let _ = child.wait();
    }
    let (status, peak_rss_mb) = polled?;
    let stdout = reader.join().expect("stdout reader thread does not panic")?;
    let cpu_s = reaped_children_cpu_s() - cpu0;
    Ok(ChildRun { status, stdout, wall_s, cpu_s, peak_rss_mb })
}

fn poll_until_exit(child: &mut Child) -> std::io::Result<(ExitStatus, f64)> {
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak = 0.0f64;
    loop {
        if let Some(mb) = read(&status_path).and_then(|s| vm_hwm_mb(&s)) {
            peak = peak.max(mb);
        }
        if let Some(status) = child.try_wait()? {
            return Ok((status, peak));
        }
        std::thread::sleep(CHILD_POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_comm() {
        let text = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 700 300 50 25 x";
        let f = stat_fields(text);
        assert_eq!(f[0], "S");
        assert_eq!(ticks_at(&f, 11, 12), Some(10.0));
        assert_eq!(ticks_at(&f, 13, 14), Some(0.75));
    }

    #[test]
    fn hwm_parses_kilobytes() {
        assert_eq!(vm_hwm_mb("Name:\tx\nVmHWM:\t    2048 kB\n"), Some(2.0));
        assert_eq!(vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn own_readings_are_positive_and_monotone() {
        let a = self_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(self_cpu_s() >= a);
        assert!(self_peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        // Other tests allocate on their own threads, so only the plumbing
        // is checked here: a reset leaves a sane reading behind.
        if reset_peak_rss() {
            assert!(self_peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn child_is_measured_from_outside() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo done"]);
        let run = run_child(cmd).expect("sh runs");
        assert!(run.status.success());
        assert_eq!(String::from_utf8_lossy(&run.stdout), "done\n");
        assert!(run.wall_s > 0.0);
    }
}
