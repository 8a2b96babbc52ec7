//! Machine fingerprint and process memory.

use std::path::Path;

/// `key=value` pairs describing the machine and the run.
pub fn fingerprint(workload: &str, seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("simd_hardware", lncl_tensor::simd::hardware_tier().label().to_string()),
        ("simd_active", lncl_tensor::simd::detected_tier().label().to_string()),
        ("lncl_threads", std::env::var("LNCL_THREADS").unwrap_or_else(|_| "unset".to_string())),
        ("commit", commit(Path::new("."))),
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
    ]
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
fn commit(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&root.join(".git").join(reference))
            .or_else(|| {
                read(&root.join(".git/packed-refs")).and_then(|packed| {
                    packed.lines().find(|l| l.ends_with(reference)).and_then(|l| l.split(' ').next()).map(String::from)
                })
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    lncl_bench::timing::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}
