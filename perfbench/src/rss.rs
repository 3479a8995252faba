//! Peak resident memory of the benchmark process (Linux procfs).

/// Resets the peak-RSS high-water mark, so later readings cover only what
/// runs after this call. Returns false where the kernel refuses, in which
/// case the peak also covers input generation.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory in MiB (`VmHWM`), or zero where procfs is
/// missing.
pub fn peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
