//! Machine fingerprint and process CPU time.

use std::path::Path;
use std::process::Command;

/// `key: value` lines identifying where a result was measured.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout: an exported tree may sit inside an
    // unrelated repository whose HEAD would be misreported.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", commit),
    ]
}

/// First line of a command's standard output; the child is waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// User + system CPU seconds of this process, all threads, including threads
/// that already ended (`/proc/self/stat` fields 14 and 15, in the fixed
/// 100 Hz `USER_HZ` ticks of the proc ABI). `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers. After the closing parenthesis, field 3 is index 0.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
