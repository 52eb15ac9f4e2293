//! The host record printed with every result, and peak memory.

use crate::report::json_str;

/// Worker threads the workloads use: every core the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB; 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One JSON line naming the host and the run's inputs.
pub fn host_line(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    format!(
        "{{\"host\": {{\"nproc\": {}, \"rustc\": {}, \"git_rev\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}}}",
        nproc(),
        json_str(env!("NVPERF_RUSTC")),
        json_str(env!("NVPERF_GIT_REV")),
        json_str(workload),
        u8::from(traced),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_from_proc() {
        let mb = peak_rss_mb();
        assert!(mb > 0.0 && mb < 1e6, "{mb}");
    }

    #[test]
    fn host_line_names_the_inputs() {
        let line = host_line("synth", 7, 10, true);
        assert!(line.contains("\"seed\": 7") && line.contains("\"workload\": \"synth\""));
        assert!(line.contains("\"trace\": 1") && line.contains("\"nproc\": "));
    }
}
