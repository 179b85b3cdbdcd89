//! Whole-process counters from `/proc/self`, plus the facts every result
//! records about where it ran.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat` CPU times (Linux USER_HZ).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User + system CPU time of every thread, live or exited, in ms.
    pub cpu_ms: f64,
    /// Voluntary context switches summed over the live threads.
    pub vol_csw: u64,
    /// Involuntary context switches summed over the live threads.
    pub invol_csw: u64,
    /// Live threads.
    pub threads: u64,
    /// Peak resident set size (VmHWM), in KiB.
    pub hwm_kib: u64,
}

/// Reads the counters; fields that cannot be read stay 0.
pub fn sample() -> ProcSample {
    let mut s = ProcSample::default();
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        s.cpu_ms = parse_stat_cpu_ticks(&stat) as f64 * 1000.0 / TICKS_PER_S;
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        s.threads = status_field(&status, "Threads:").unwrap_or(0);
        s.hwm_kib = status_field(&status, "VmHWM:").unwrap_or(0);
    }
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                s.vol_csw += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
                s.invol_csw += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
    }
    s
}

/// Machine-wide `(all, steal)` CPU ticks from `/proc/stat`: steal is time
/// the hypervisor ran something else while this VM's CPUs had work.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_cpu_line(stat.lines().next()?))
        .unwrap_or((0, 0))
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let ticks: Vec<u64> = fields.take(8).filter_map(|f| f.parse().ok()).collect();
    (ticks.len() == 8).then(|| (ticks.iter().sum(), ticks[7]))
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name may contain spaces, so fields are counted after its `)`.
fn parse_stat_cpu_ticks(stat: &str) -> u64 {
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field n is `fields[n - 3]`.
    let get = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok());
    get(14).unwrap_or(0) + get(15).unwrap_or(0)
}

/// The leading number of a `/proc/.../status` line starting with `key`.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo`, or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mount_fs_type(&info, &path.to_string_lossy()).unwrap_or_else(|| "unknown".into())
}

/// The fs type of the longest mount point that prefixes `path`.
fn mount_fs_type(mountinfo: &str, path: &str) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        let inside = *mount == "/"
            || path == *mount
            || path.strip_prefix(mount).is_some_and(|r| r.starts_with('/'));
        if inside && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map(|(_, t)| t)
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_are_counted_after_the_command_name() {
        let line = "1234 (my prog) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 7 0";
        assert_eq!(parse_stat_cpu_ticks(line), 300);
        assert_eq!(parse_stat_cpu_ticks("garbage"), 0);
    }

    #[test]
    fn cpu_line_yields_total_and_steal() {
        let line = "cpu  100 0 50 800 10 0 5 35 0 0";
        assert_eq!(parse_cpu_line(line), Some((1000, 35)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nThreads:\t12\nVmHWM:\t  20480 kB\n";
        assert_eq!(status_field(status, "Threads:"), Some(12));
        assert_eq!(status_field(status, "VmHWM:"), Some(20480));
        assert_eq!(status_field(status, "Nope:"), None);
    }

    #[test]
    fn mount_lookup_takes_the_longest_prefix() {
        let info = "\
22 1 0:21 / / rw - overlay overlay rw
23 22 0:22 / /dev/shm rw - tmpfs tmpfs rw
24 22 0:23 / /data rw - ext4 /dev/sda1 rw
";
        assert_eq!(mount_fs_type(info, "/data/wal").as_deref(), Some("ext4"));
        assert_eq!(mount_fs_type(info, "/dev/shm").as_deref(), Some("tmpfs"));
        assert_eq!(mount_fs_type(info, "/database").as_deref(), Some("overlay"));
    }

    #[test]
    fn live_sample_sees_this_process() {
        let s = sample();
        assert!(s.threads >= 1);
        assert!(s.hwm_kib > 0);
        assert!(nproc() >= 1);
    }
}
