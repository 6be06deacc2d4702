//! What the operating system says about this process: CPU time, peak
//! memory, context switches, threads, and the filesystem under a path.
//!
//! Everything is read from `/proc`, so the numbers are the kernel's, not
//! the program's own counters.

use std::path::Path;

/// Kernel clock ticks per second (`USER_HZ`); fixed at 100 on Linux.
const USER_HZ: f64 = 100.0;

/// utime + stime, in seconds, of one `stat` file (a process's or a
/// thread's).
fn stat_cpu_seconds(path: &Path) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // The command name is parenthesised and may contain spaces; fields
    // are counted after the closing parenthesis (state is field 3).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> f64 { fields.get(i).and_then(|s| s.parse().ok()).unwrap_or(0.0) };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after state.
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU time (user + system) in seconds of the process: every thread that
/// ever ran in it.
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds(Path::new("/proc/self/stat"))
}

/// Parses a kernel CPU list such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.parse::<u32>().ok()?..=hi.parse().ok()?);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The processors this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status`, in ascending order.
pub fn allowed_cpus() -> Option<Vec<u32>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_cpu_list(
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?,
    )
}

/// Median microseconds of a small append followed by `fdatasync` in `dir`,
/// which is what every journaled delivery of the durable workload waits
/// for. Measured from the processor the caller is pinned to.
pub fn sync_probe_us(dir: &Path) -> std::io::Result<f64> {
    use std::io::Write as _;
    const WARM_UP: usize = 32;
    const SAMPLES: usize = 256;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("sync-probe-{}", std::process::id()));
    let mut file = std::fs::File::create(&path)?;
    let record = [0x5Au8; 200];
    let mut us = Vec::with_capacity(SAMPLES);
    let probed = (0..WARM_UP + SAMPLES).try_for_each(|i| -> std::io::Result<()> {
        let started = std::time::Instant::now();
        file.write_all(&record)?;
        file.sync_data()?;
        if i >= WARM_UP {
            us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    });
    drop(file);
    // The probe file goes whether or not the probe worked.
    let removed = std::fs::remove_file(&path);
    probed.and(removed)?;
    us.sort_by(f64::total_cmp);
    Ok(us[SAMPLES / 2])
}

/// The number after `key` on its line of a `/proc/.../status` file.
fn status_number(text: &str, key: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_number(&status, "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Context switches (voluntary + involuntary) summed over every live
/// thread, and the number of live threads.
pub fn ctx_switches_and_threads() -> (u64, u64) {
    let mut switches = 0u64;
    let mut threads = 0u64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between readdir and open
        };
        threads += 1;
        for key in ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"] {
            switches += status_number(&status, key).unwrap_or(0.0) as u64;
        }
    }
    (switches, threads)
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`). A tmpfs makes `fdatasync` free, so the
/// durable workload records what it ran on.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut it = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fs)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fs));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        let (_, threads) = ctx_switches_and_threads();
        assert!(threads >= 1);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
        assert!(allowed_cpus().is_some());
        assert_eq!(parse_cpu_list("0,2-4\n"), Some(vec![0, 2, 3, 4]));
        assert_eq!(parse_cpu_list("7"), Some(vec![7]));
        assert_eq!(parse_cpu_list("0-x"), None);
        // Burn a little CPU so utime is visibly non-negative and monotone.
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
