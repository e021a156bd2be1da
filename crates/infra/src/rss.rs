//! Process peak-RSS measurement.
//!
//! Memory-budgeted (out-of-core) runs are gated on their *high-water
//! mark*, not their instantaneous footprint: a pipeline that touches
//! the budget for one allocation and immediately frees it has still
//! blown the budget. The kernel already tracks exactly this as `VmHWM`
//! in `/proc/self/status`, so the reading costs one small file read
//! and needs no allocator instrumentation.

/// The process's peak resident set size in bytes, if the platform
/// exposes it.
///
/// Reads `VmHWM` from `/proc/self/status` (Linux). Returns `None` on
/// platforms without procfs or if the field is missing — callers (the
/// bench gate, `--stats-json`) degrade to omitting the metric rather
/// than failing the run.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Resets the kernel's peak-RSS high-water mark down to the current
/// resident set (`clear_refs` code 5, Linux), so distinct phases of one
/// process can be measured independently — [`peak_rss_bytes`] after a
/// reset reports the high-water mark *since* the reset. Returns `false`
/// where unsupported; callers fall back to whole-process peaks.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Parses the `VmHWM:    123456 kB` line out of a `/proc/<pid>/status`
/// document.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let doc = "Name:\todrc\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(doc), Some(204800 * 1024));
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(parse_vm_hwm("Name:\todrc\n"), None);
    }

    #[test]
    fn garbage_value_is_none() {
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_reading_reflects_allocation() {
        let before = peak_rss_bytes().expect("procfs available");
        // A touch-every-page allocation must raise the high-water mark.
        let mut v = vec![0u8; 64 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        // Nothing else reads the buffer: keep the optimizer from
        // deleting the allocation and its page touches.
        std::hint::black_box(&mut v);
        let after = peak_rss_bytes().expect("procfs available");
        assert!(after >= before);
        assert!(
            after >= v.len() as u64 / 2,
            "HWM {after} ignores the 64 MiB touch"
        );
    }
}
