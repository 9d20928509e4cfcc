//! The host and provenance block printed with every result: a number
//! without the machine it came from is not a number.

use std::path::Path;

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Widest SIMD tier the CPU reports — the tier the lane kernels
/// dispatch to when a workload selects them.
pub fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The provenance block as a JSON object body.
pub fn provenance_json(workload: &str, seed: u64, options: &str) -> String {
    format!(
        "\"host\": {{\"nproc\": {}, \"simd\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}, \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"options\": \"{}\"",
        nproc(),
        simd_tier(),
        env!("MPHBENCH_RUSTC_VERSION"),
        git_commit(),
        options.replace('"', "'"),
    )
}
