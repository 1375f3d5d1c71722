//! `ext_cluster` at smoke scale: with no attack, every published message
//! reaches every correct node before the figure reports.
//!
//! The figure times a live UDP cluster, so its latency column is not
//! byte-stable and it has no golden. Its delivered fraction at x = 0 is: a
//! Drum group of 48 correct nodes on loopback loses no message, so any
//! value below 1.000 means the figure stopped waiting too early.

use drum_lab::figures;
use drum_lab::{set_scale, Scale};

#[test]
fn unattacked_row_delivers_every_message() {
    set_scale(Scale::Smoke);
    let mut out = Vec::new();
    figures::ext_cluster(&mut out).expect("writing into memory cannot fail");
    let text = String::from_utf8(out).expect("figures print UTF-8");

    // Columns: n, shards, x, reached, delivered, mean latency, rounds late.
    let row: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|c| c.len() >= 5 && c[2] == "0" && c[0].parse::<usize>().is_ok())
        .unwrap_or_else(|| panic!("no x = 0 row in:\n{text}"));
    assert_eq!(row[3], "1.000", "reached, in:\n{text}");
    assert_eq!(row[4], "1.000", "delivered, in:\n{text}");
}
