//! Every repository path that DESIGN.md and README.md name in backticks
//! exists.
//!
//! A path is an inline code span starting with `crates/`, `tests/`,
//! `examples/`, `scripts/`, `benchmark/` or `results/`. Only its first
//! word is checked (so a command such as `scripts/verify.sh --quick`
//! checks the script), and a `:line` suffix is dropped. Spans holding `*`
//! or `<` are patterns or placeholders, not paths, and are skipped.
//! Fenced code blocks hold commands and are skipped too.

use std::path::Path;

const ROOTS: [&str; 6] = [
    "crates/",
    "tests/",
    "examples/",
    "scripts/",
    "benchmark/",
    "results/",
];

/// The repository paths named in `doc`'s inline code spans.
fn named_paths(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    // Odd pieces between backticks are code spans.
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.split_whitespace().next())
        .filter(|word| ROOTS.iter().any(|r| word.starts_with(r)) && !word.contains(['*', '<']))
        .map(|word| word.split(':').next().unwrap_or(word).to_string())
        .collect()
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for path in named_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(checked > 0, "no paths found; is the span parser broken?");
    assert!(
        missing.is_empty(),
        "docs name missing paths:\n{}",
        missing.join("\n")
    );
}
