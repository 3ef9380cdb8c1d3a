//! The run header printed with every result: enough about the host and
//! the build to tell whether two results are comparable.

use std::path::Path;

use rflash::core::RuntimeParams;
use rflash::hugepages::BackingReport;
use serde_json::Value;

use crate::workload::Workload;

fn s(x: impl Into<String>) -> Value {
    Value::Str(x.into())
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|t| t.trim().to_string())
}

/// The commit of the checkout, read from `.git` without running git; a
/// plain source tree has none.
fn git_rev() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unavailable (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read_trimmed(Path::new(".git").join(reference)) {
        return rev;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn cpu_model() -> String {
    read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The counter backend, or why it is denied.
fn counters() -> String {
    if rflash::perfmon::hw::hw_available() {
        return "perf_event_open".into();
    }
    match read_trimmed("/proc/sys/kernel/perf_event_paranoid") {
        Some(level) => format!(
            "denied: perf_event_open failed (perf_event_paranoid={level}); TLB figures are simulated"
        ),
        None => "denied: perf_event_open failed; TLB figures are simulated".into(),
    }
}

/// Build the header. `unk` is the verified (smaps) backing of the run's
/// `unk` container; fleet workers build theirs with the same settings.
pub fn run_header(
    workload: Workload,
    seed: u64,
    params: &RuntimeParams,
    unk: &BackingReport,
) -> Value {
    let simd = rflash::simd::dispatch_report(params.simd_backend);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unk_backing = Value::Object(vec![
        ("huge_fraction".into(), Value::F64(unk.huge_fraction)),
        ("rss_bytes".into(), Value::U64(unk.rss_bytes)),
        ("huge_bytes".into(), Value::U64(unk.huge_bytes)),
        ("kernel_page_size".into(), Value::U64(unk.kernel_page_size)),
    ]);
    let seed_value = if workload.takes_seed() {
        Value::U64(seed)
    } else {
        s(format!(
            "none: {} builds its scenario by name (seed {seed} ignored)",
            workload.name()
        ))
    };
    Value::Object(vec![
        ("git_rev".into(), s(git_rev())),
        (
            "host".into(),
            s(format!(
                "{} ({})",
                read_trimmed("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into()),
                cpu_model()
            )),
        ),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("simd_requested".into(), s(simd.requested.name())),
        ("simd_resolved".into(), s(simd.resolved.name())),
        ("simd_width".into(), Value::U64(simd.width as u64)),
        ("hugepage_policy".into(), s(params.policy.to_string())),
        (
            "RFLASH_HPAGE_TYPE".into(),
            s(std::env::var(rflash::hugepages::policy::POLICY_ENV_VAR)
                .unwrap_or_else(|_| "unset".into())),
        ),
        (
            "thp_enabled".into(),
            s(read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled")
                .unwrap_or_else(|| "unknown".into())),
        ),
        ("unk_backing".into(), unk_backing),
        ("counters".into(), s(counters())),
        ("workload".into(), s(workload.name())),
        ("seed".into(), seed_value),
        ("scale".into(), s(workload.scale())),
        ("nranks".into(), Value::U64(params.nranks as u64)),
    ])
}
