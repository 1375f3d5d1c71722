//! Unsafe code stays on its two islands.
//!
//! drum-net and drum-crypto deny `unsafe_code` crate-wide and allow it in
//! exactly one module each: the `sys` syscall shims in
//! `crates/net/src/lib.rs` and the SHA-NI kernel (`mod shani`) in
//! `crates/crypto/src/sha256.rs`. Every other crate root forbids it, which
//! no inner attribute can override.

use std::path::{Path, PathBuf};

/// The files allowed to lift the `unsafe_code` lint, once each, sorted.
const ISLANDS: [&str; 2] = ["crates/crypto/src/sha256.rs", "crates/net/src/lib.rs"];

/// Crates whose roots deny rather than forbid, because of an island.
const DENYING: [&str; 2] = ["crypto", "net"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Attribute lines that allow `unsafe_code`.
fn allow_sites(text: &str) -> usize {
    text.lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with('#') && l.contains("allow(") && l.contains("unsafe_code"))
        .count()
}

#[test]
fn unsafe_code_is_allowed_only_on_the_islands() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut sites = Vec::new();
    for file in &files {
        let n = allow_sites(&std::fs::read_to_string(file).expect("read source"));
        let rel = file.strip_prefix(&root).expect("under root");
        sites.extend(std::iter::repeat_n(rel.to_string_lossy().into_owned(), n));
    }
    sites.sort();
    assert_eq!(sites, ISLANDS, "allow(unsafe_code) sites");
}

#[test]
fn every_other_crate_root_forbids_unsafe_code() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut roots = 0;
    for entry in std::fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let name = dir
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        let lint = if DENYING.contains(&name.as_str()) {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        for root in ["src/lib.rs", "src/main.rs"] {
            let Ok(text) = std::fs::read_to_string(dir.join(root)) else {
                continue;
            };
            roots += 1;
            assert!(
                text.lines().any(|l| l.trim() == lint),
                "crates/{name}/{root} lacks {lint}"
            );
        }
    }
    assert!(roots >= 11, "found only {roots} crate roots");
}
