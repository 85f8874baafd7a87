//! The run record: which host, toolchain and source a result came from, and
//! the process's peak resident memory.

use std::path::Path;
use std::process::Command;

/// Host and source identification printed with every run.
pub struct RunRecord {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Threads available to this process.
    pub nproc: usize,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the program's source files, which identifies the
    /// code also where git is absent.
    pub source_digest: String,
}

impl RunRecord {
    /// Collects the record for the checkout rooted at the working directory.
    pub fn collect() -> RunRecord {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| s.lines().find(|l| l.starts_with("model name")).map(|l| l.to_string()))
            .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        let commit = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        } else {
            "none".into()
        };
        let source_digest = format!("{:016x}", source_digest(Path::new(".")));
        RunRecord { cpu, nproc, rustc, commit, source_digest }
    }
}

/// First line of a command's standard output; waits for the command to end.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the relative path and contents of every file under the
/// program's source roots, in sorted order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench/src", "perfbench/Cargo.toml"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        }
    }
}

/// 64-bit FNV-1a, the digest used for sources and simulated statistics.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a string.
pub fn digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
