//! Process accounting read from `/proc/self`: peak and current resident
//! set, and CPU seconds. Linux only; on other systems every reading is
//! `None` and the metrics that need it are reported as failed checks.

/// The value in kB of `field` (e.g. `"VmHWM"`) in the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse::<u64>().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`. Ticks are USER_HZ, which Linux fixes
/// at 100 for every architecture it exports `/proc` on.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime = fields.nth(11)?.parse::<u64>().ok()?;
    let stime = fields.next()?.parse::<u64>().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field).map(|kb| kb as f64 / 1024.0)
}

/// Peak resident set of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM")
}

/// Current resident set of this process (VmRSS), in MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS")
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_s() -> Option<f64> {
    parse_stat_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tgwbench\nVmPeak:\t  123456 kB\nVmHWM:\t   71680 kB\n\
                          VmRSS:\t   65536 kB\nThreads:\t3\n";

    #[test]
    fn vm_hwm_parser() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(71_680));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(65_536));
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // Not a kB field.
        assert_eq!(parse_status_kb(STATUS, "Threads"), None);
        assert_eq!(parse_status_kb("VmHWM:\tmany kB\n", "VmHWM"), None);
    }

    #[test]
    fn stat_cpu_parser_survives_odd_command_names() {
        let stat = "4242 (gw) bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) R 1"), None);
    }

    #[test]
    fn live_status_parses_on_linux() {
        // One read for both fields: other tests allocate concurrently, so
        // two reads could see the resident set pass an older peak.
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            let peak = parse_status_kb(&status, "VmHWM").expect("VmHWM");
            let now = parse_status_kb(&status, "VmRSS").expect("VmRSS");
            assert!(peak >= now && now > 0);
            assert!(cpu_s().is_some());
        }
    }
}
