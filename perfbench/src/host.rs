//! Process resource usage and run provenance: CPU seconds from
//! `getrusage`, peak memory from `/proc/self/status`, and the
//! host/commit/tree identity every result is recorded with.

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::path::Path;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// CPU seconds (user + system, all threads) the process has used.
/// Only differences are meaningful: the count includes whatever the
/// process ran before `cargo run` exec'd the benchmark into it.
#[must_use]
pub fn cpu_secs() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // declared above; `getrusage(RUSAGE_SELF, …)` writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set of the process image, in megabytes: `VmHWM` from
/// `/proc/self/status`, which starts afresh at `exec` (unlike
/// `ru_maxrss`, which would report `cargo run`'s own peak). 0 when
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out at `root`, read from `.git` without running
/// git, or `none` when the tree is not a git checkout.
#[must_use]
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a, 64-bit.
#[must_use]
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A fingerprint of the source tree at `root`: every file under
/// `crates/` and `perfbench/src/`, plus the manifests and the build
/// configuration, hashed by path and content. Two runs with one
/// fingerprint run the same code, which is what the exact-counter
/// check keys on (a source export need not be a git repository).
#[must_use]
pub fn tree_fingerprint(root: &Path) -> String {
    let mut files = BTreeMap::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&root.join(dir), root, &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo/config.toml",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        if let Ok(bytes) = std::fs::read(root.join(file)) {
            files.insert(file.to_owned(), bytes);
        }
    }
    let mut hash = FNV_BASIS;
    for (path, bytes) in &files {
        hash = fnv1a(path.as_bytes(), hash);
        hash = fnv1a(&[0], hash);
        hash = fnv1a(bytes, hash);
    }
    format!("{hash:016x}")
}

fn collect(dir: &Path, root: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, root, files);
        } else if let Ok(bytes) = std::fs::read(&path) {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            files.insert(rel.to_string_lossy().into_owned(), bytes);
        }
    }
}
