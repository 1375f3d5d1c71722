//! Every deterministic figure at smoke scale, byte for byte against a
//! checked-in golden in `tests/goldens/`.
//!
//! A figure is deterministic when the simulator, the closed-form analysis
//! and the real node in virtual time compute all of it: its text is then
//! a pure function of the scale and the fixed seed, identical for any
//! `DRUM_POOL_THREADS` setting. Figures 9 to 12 and ext_soak measure the
//! real node in virtual time and have goldens; ext_cluster, the one
//! wall-clock figure, times real UDP clusters and has none
//! (`tests/ext_cluster.rs` checks its shape).
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p drum-lab --test figure_goldens
//! ```
//!
//! then review the diff like any other code change; the quick-scale
//! `results/` files move with it (`drum-lab figures`).

use std::path::Path;

use drum_lab::figures::{self, FigureFn};
use drum_lab::{set_scale, Scale};

fn check(name: &str, figure: FigureFn) {
    // Every test in this binary runs at smoke scale, so it does not matter
    // which of them sets the process-wide scale first.
    set_scale(Scale::Smoke);
    let mut out = Vec::new();
    figure(&mut out).expect("writing into memory cannot fail");
    let got = String::from_utf8(out).expect("figures print UTF-8");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; regenerate with \
             `UPDATE_GOLDEN=1 cargo test -p drum-lab --test figure_goldens`",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{name} diverged from {}; if the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p drum-lab --test figure_goldens` and review the diff",
        path.display()
    );
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), figures::$name);
        }
    )*};
}

goldens!(
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    ext_fanout,
    ext_scale,
    ext_rotation,
    ext_soak,
    ext_adversary,
    ext_pull_abuse,
);
