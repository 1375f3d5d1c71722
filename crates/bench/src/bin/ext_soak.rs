//! Extension experiment (beyond the paper): the sustained-throughput
//! soak — a paced multi-message stream with the Figure 7 flood toggled
//! on and off mid-run.
//!
//! Thin wrapper over [`drum_bench::figures::ext_soak`]; `drum-lab figures`
//! regenerates every figure in one process instead.

fn main() {
    let mut out = std::io::stdout().lock();
    drum_bench::figures::ext_soak(&mut out).expect("write ext_soak to stdout");
}
