//! CPU time and peak memory of a process from `/proc`, without libc.

use std::fs;
use std::io;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc; the
/// value has been 100 on every Linux architecture this builds for.
const TICKS_PER_SECOND: f64 = 100.0;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `utime + stime` in clock ticks from one `/proc/<pid>/stat` line.
///
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn stat_cpu_ticks(line: &str) -> Option<u64> {
    let after_comm = &line[line.rfind(')')? + 1..];
    // Field 3 (state) is the first token here; utime and stime are
    // fields 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in kB.
pub fn status_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// User+system CPU time of `pid` so far (all threads, exited ones too).
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let line = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = stat_cpu_ticks(&line).ok_or_else(|| bad("unparseable /proc stat line"))?;
    Ok(ticks as f64 * 1000.0 / TICKS_PER_SECOND)
}

/// Peak resident set of `pid` so far, in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status_vm_hwm_kb(&status).ok_or_else(|| bad("no VmHWM in /proc status"))?;
    Ok(kb as f64 / 1024.0)
}

/// What a reader needs to place a result file: cores, CPU, kernel, commit.
pub fn host_info() -> Vec<(&'static str, String)> {
    let read = |path: &str| fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        ("commit", commit()),
    ]
}

/// The checked-out commit, read from `.git` (a driver checkout has none).
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = fs::read_to_string(format!("{git}/HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!("{git}/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".into(),
        h => h.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_and_parens_in_comm() {
        let line = "4242 (tmux: server (1)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    731 269 5 7 20 0 3 0 8675309 12345678 456 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(stat_cpu_ticks(line), Some(731 + 269));
        assert_eq!(stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(stat_cpu_ticks("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_from_status() {
        let status =
            "Name:\tserve\nVmPeak:\t  500000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(status_vm_hwm_kb(status), Some(20480));
        assert_eq!(status_vm_hwm_kb("Name:\tserve\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
    }
}
