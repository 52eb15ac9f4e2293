//! Records the compiler version and the source revision for the host record
//! every run prints. The revision comes from the repository's `.git`
//! directory when there is one (read as plain files, never by spawning git,
//! so the build reads nothing above the checkout). A checkout without `.git`
//! gets `tree-<digest>`, an FNV-1a digest of the repository's sources.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The sources the benchmark builds, relative to the repository root.
const SOURCES: [&str; 5] = ["Cargo.toml", "Cargo.lock", "src", "crates", "nvperf/src"];

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=NVPERF_RUSTC={version}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rev =
        git_rev(&root.join(".git")).unwrap_or_else(|| format!("tree-{:016x}", tree_digest(&root)));
    println!("cargo:rustc-env=NVPERF_GIT_REV={rev}");
    // A rerun-if-changed path that does not exist reruns the script on every
    // build, so name `.git/HEAD` only where there is one.
    if root.join(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    for s in SOURCES {
        println!("cargo:rerun-if-changed=../{s}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}

fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

/// FNV-1a over the relative path and contents of every file under
/// [`SOURCES`], in sorted path order.
fn tree_digest(root: &Path) -> u64 {
    fn walk(path: PathBuf, out: &mut Vec<PathBuf>) {
        match std::fs::read_dir(&path) {
            Ok(entries) => entries.flatten().for_each(|e| walk(e.path(), out)),
            Err(_) if path.is_file() => out.push(path),
            Err(_) => {}
        }
    }
    let mut files = Vec::new();
    for s in SOURCES {
        walk(root.join(s), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}
