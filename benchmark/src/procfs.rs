//! Process CPU time and peak resident set from `/proc/self`, and the
//! guest's stolen time from `/proc/stat`.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports today.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks from the contents of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `state` is field 3, so field k sits at index k - 3 here.
    let mut fields = after_comm.split_ascii_whitespace().skip(14 - 3);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// `steal` ticks, all CPUs, from the contents of `/proc/stat`: the eighth
/// value of the aggregate `cpu` line.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.lines().next()?.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    fields.nth(7)?.parse().ok()
}

/// Seconds the hypervisor has run something else while this guest had
/// work to do, summed over its CPUs. 0 where the kernel reports none.
pub fn steal_seconds() -> f64 {
    let ticks = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0);
    ticks as f64 / TICKS_PER_SECOND
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = parse_status_kib(&status, "VmHWM").expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (stack) bench (x)) S 1 4242 4242 0 -1 4194304 901 0 0 0 \
                        1234 56 0 0 20 0 9 0 100 1000000 200 18446744073709551615";

    #[test]
    fn stat_survives_spaces_and_parens_in_comm() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(1234 + 56));
    }

    #[test]
    fn stat_rejects_truncated_input() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn status_field_lookup() {
        let status = "Name:\tstack-bench\nVmPeak:\t  900 kB\nVmHWM:\t  140288 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(140_288));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(1));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kib("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat = "cpu  382715 0 88126 778123 3088 0 4575 11723 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(11_723));
        // Old kernels stop before `steal`; a per-CPU line is not the total.
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(steal_seconds() >= 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
