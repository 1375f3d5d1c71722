//! Every figure of the paper as a writer-based generator.
//!
//! The `fig01`–`fig14` (and extension) binaries are thin wrappers around
//! these functions, printing to stdout; `drum-lab figures` calls them
//! with file writers to regenerate the whole `results/` directory in one
//! process — which is what lets the simulation sweeps share the global
//! `drum-pool` across figures instead of paying per-binary start-up and
//! per-point join barriers.
//!
//! Figures run **sequentially**; each one's sweeps saturate the pool
//! internally, and the cluster figures (09–12) bind real UDP sockets
//! that should not compete with a concurrent cluster for ports.

use std::io::{self, Write};
use std::time::Duration;

use drum_analysis::appendix_a::{figure_1a, figure_1b};
use drum_analysis::appendix_b::std_rounds_to_leave_source;
use drum_analysis::appendix_c::{analysis_cdf, Protocol};
use drum_core::config::{BoundMode, GossipConfig};
use drum_core::ProtocolVariant;
use drum_metrics::table::Table;
use drum_net::experiment::{paper_cluster_config, propagation_experiment, throughput_experiment};
use drum_sim::config::SimConfig;
use drum_sim::experiments::{
    cdf_curve, cdf_curves, ext_scale_sweep, fig12a_random_ports, fig2a_scalability, fig2b_crashes,
    fig3a_attack_strength, fig3b_attack_extent, fixed_strength_sweep,
};
use drum_sim::runner::run_experiment;

use crate::{
    banner_to, cdf_table, scale, scaled, scaled3, sweep_table, sweep_table_std, trials, Scale,
    PROTOCOLS, PROTOCOL_NAMES, SEED,
};

/// A figure generator: writes one complete `results/<name>.txt`.
pub type FigureFn = fn(&mut dyn Write) -> io::Result<()>;

/// Every regenerable figure, in figure order — the registry behind
/// `drum-lab figures`.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig01", fig01),
    ("fig02", fig02),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ext_fanout", ext_fanout),
    ("ext_scale", ext_scale),
    ("ext_rotation", ext_rotation),
    ("ext_cluster", ext_cluster),
    ("ext_soak", ext_soak),
    ("ext_adversary", ext_adversary),
    ("ext_pull_abuse", ext_pull_abuse),
];

/// Figure 1: the acceptance probabilities of Appendix A.
pub fn fig01(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 1",
        "p_u vs F and p_a vs F/x (numerical, Appendix A)",
    )?;
    let n = scaled(1000, 1000);

    writeln!(
        w,
        "(a) probability p_u that a non-attacked process accepts a valid message, n = {n}"
    )?;
    let mut t = Table::new(vec!["F".into(), "p_u".into()]);
    for (f, pu) in figure_1a(n, &[1, 2, 3, 4, 6, 8, 12, 16]) {
        t.row(vec![f.to_string(), format!("{pu:.4}")]);
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "paper: p_u > 0.6 for every F >= 1 (Lemma 8 / Fig 1(a))\n"
    )?;

    writeln!(
        w,
        "(b) probability p_a that an attacked process accepts a valid message, F = 4, n = {n}"
    )?;
    let mut t = Table::new(vec!["x".into(), "p_a".into(), "bound F/x".into()]);
    for (x, pa, bound) in figure_1b(n, 4, &[8, 16, 32, 64, 128, 256, 512]) {
        t.row(vec![
            x.to_string(),
            format!("{pa:.4}"),
            format!("{bound:.4}"),
        ]);
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "paper: p_a < F/x (used by Lemmas 1-6); both columns shrink like 1/x"
    )
}

/// Figure 2: validating known gossip results (no DoS attack).
pub fn fig02(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 2",
        "failure-free scalability and crash-failure degradation",
    )?;
    let trials = trials();

    let ns: Vec<usize> = scaled3(
        vec![8, 16, 32, 64],
        vec![8, 16, 32, 64, 128, 256],
        vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048],
    );
    writeln!(
        w,
        "(a) average rounds to reach 99% of processes, no failures ({trials} trials/point)"
    )?;
    let rows = fig2a_scalability(&ns, trials, SEED);
    writeln!(w, "{}", sweep_table("n", &rows, &PROTOCOL_NAMES))?;
    writeln!(
        w,
        "paper: O(log n) growth; all protocols within a round or two of each other\n"
    )?;

    let n = scaled3(100, 200, 1000);
    writeln!(w, "(b) average rounds vs crashed fraction, n = {n}")?;
    let rows = fig2b_crashes(n, &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], trials, SEED);
    writeln!(w, "{}", sweep_table("crashed", &rows, &PROTOCOL_NAMES))?;
    writeln!(
        w,
        "paper: graceful degradation — a 50% crash rate only adds a few rounds"
    )
}

/// Figure 3: targeted DoS attacks — the paper's headline result.
pub fn fig03(w: &mut dyn Write) -> io::Result<()> {
    banner_to(w, "Figure 3", "propagation time under targeted DoS attacks")?;
    let trials = trials();
    let ns: Vec<usize> = if scale() == Scale::Full {
        vec![120, 1000]
    } else {
        vec![120]
    };
    let xs: Vec<f64> = scaled(
        vec![0.0, 32.0, 64.0, 128.0, 256.0, 512.0],
        vec![
            0.0, 32.0, 64.0, 96.0, 128.0, 192.0, 256.0, 320.0, 384.0, 448.0, 512.0,
        ],
    );

    for &n in &ns {
        writeln!(
            w,
            "(a) alpha = 10%, n = {n}: average rounds to 99% of correct processes vs x"
        )?;
        let rows = fig3a_attack_strength(n, &xs, trials, SEED);
        writeln!(w, "{}", sweep_table("x", &rows, &PROTOCOL_NAMES))?;
        writeln!(w, "paper: Drum flat; Push and Pull linear in x\n")?;
    }

    let alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    for &n in &ns {
        writeln!(
            w,
            "(b) x = 128, n = {n}: average rounds vs attacked fraction alpha"
        )?;
        let rows = fig3b_attack_extent(n, 128.0, &alphas, trials, SEED);
        writeln!(w, "{}", sweep_table("alpha", &rows, &PROTOCOL_NAMES))?;
        writeln!(
            w,
            "paper: all grow with alpha, but Drum stays far below Push and Pull\n"
        )?;
    }
    Ok(())
}

/// Figure 4: standard deviation of the propagation times of Figure 3.
pub fn fig04(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 4",
        "STD of the propagation time under targeted attacks",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);

    let xs: Vec<f64> = scaled(
        vec![0.0, 32.0, 64.0, 128.0, 256.0],
        vec![0.0, 32.0, 64.0, 128.0, 192.0, 256.0, 384.0, 512.0],
    );
    writeln!(
        w,
        "(a) alpha = 10%, n = {n}: STD of rounds-to-99% vs x ({trials} trials)"
    )?;
    let rows = fig3a_attack_strength(n, &xs, trials, SEED);
    writeln!(w, "{}", sweep_table_std("x", &rows, &PROTOCOL_NAMES))?;

    writeln!(w, "(b) x = 128, n = {n}: STD vs attacked fraction")?;
    let rows = fig3b_attack_extent(n, 128.0, &[0.1, 0.2, 0.4, 0.6, 0.8], trials, SEED);
    writeln!(w, "{}", sweep_table_std("alpha", &rows, &PROTOCOL_NAMES))?;

    // The paper explains Pull's large STD via p̃ (Appendix B): with F = 4
    // and x = 128 the analytic STD of the source-escape wait is 8.17.
    let analytic = std_rounds_to_leave_source(scaled(120, 1000), 4, 128);
    writeln!(
        w,
        "analytic STD of Pull's source-escape wait (F=4, x=128, n={n}): {analytic:.2} rounds"
    )?;
    writeln!(
        w,
        "paper: 8.17 rounds for n = 1000, explaining Pull's measured STD of 9.3"
    )
}

/// Figure 5: CDF of the fraction of correct processes holding `M`.
pub fn fig05(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 5",
        "CDF of the fraction of correct processes holding M per round",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);
    let rounds = 40;

    for (alpha_label, alpha, x) in [("10%", 0.1, 64.0), ("10%", 0.1, 128.0), ("40%", 0.4, 128.0)] {
        writeln!(
            w,
            "alpha = {alpha_label}, x = {x}, n = {n} ({trials} trials)"
        )?;
        let cfgs: Vec<SimConfig> = PROTOCOLS
            .iter()
            .map(|&p| SimConfig::attack_alpha(p, n, alpha, x))
            .collect();
        let curves = cdf_curves(&cfgs, trials, SEED, rounds);
        writeln!(w, "{}", cdf_table(&PROTOCOL_NAMES, &curves, rounds))?;
        writeln!(
            w,
            "paper: Push rises fastest early (non-attacked processes) but stalls on the\n\
             attacked tail; Pull's average is dragged down by runs stuck at the source;\n\
             Drum dominates throughout.\n"
        )?;
    }
    Ok(())
}

/// Figure 6: propagation time split by victim class.
pub fn fig06(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 6",
        "propagation time to non-attacked vs attacked processes",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);
    let xs: Vec<f64> = scaled(
        vec![32.0, 64.0, 128.0, 256.0],
        vec![32.0, 64.0, 128.0, 256.0, 512.0],
    );

    let mut to_unattacked = Table::new(
        std::iter::once("x".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|s| s.to_string()))
            .collect(),
    );
    let mut to_attacked = to_unattacked.clone();

    for &x in &xs {
        let mut row_u = vec![format!("{x:.0}")];
        let mut row_a = vec![format!("{x:.0}")];
        for &p in &PROTOCOLS {
            let cfg = SimConfig::paper_attack(p, n, x);
            let res = run_experiment(&cfg, trials, SEED, 0);
            row_u.push(format!("{:.1}", res.rounds_unattacked.mean()));
            row_a.push(format!("{:.1}", res.rounds_attacked.mean()));
        }
        to_unattacked.row(row_u);
        to_attacked.row(row_a);
    }

    writeln!(
        w,
        "(a) rounds until 99% of the NON-ATTACKED correct processes hold M, n = {n}"
    )?;
    writeln!(w, "{to_unattacked}")?;
    writeln!(
        w,
        "paper: Push reaches non-attacked processes much faster than Pull\n"
    )?;

    writeln!(
        w,
        "(b) rounds until 99% of the ATTACKED correct processes hold M, n = {n}"
    )?;
    writeln!(w, "{to_attacked}")?;
    writeln!(
        w,
        "paper: Push and Pull take similarly long on the attacked set;\nDrum is fast for both classes"
    )
}

/// Figure 7: strong fixed-strength attacks, varying spread.
pub fn fig07(w: &mut dyn Write) -> io::Result<()> {
    banner_to(w, "Figure 7", "fixed total attack strength, varying spread")?;
    let trials = trials();
    let ns: Vec<usize> = if scale() == Scale::Full {
        vec![120, 500]
    } else {
        vec![120]
    };
    let alphas = scaled(
        vec![0.1, 0.3, 0.5, 0.7, 0.9],
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    );

    for &n in &ns {
        for (label, b) in [
            ("B = 7.2n (c = 1.8)", 7.2 * n as f64),
            ("B = 36n (c = 9)", 36.0 * n as f64),
        ] {
            writeln!(
                w,
                "{label}, n = {n}: average rounds to 99% vs attacked fraction alpha"
            )?;
            let rows = fixed_strength_sweep(n, b, &alphas, &PROTOCOLS, trials, SEED);
            writeln!(w, "{}", sweep_table("alpha", &rows, &PROTOCOL_NAMES))?;
            writeln!(
                w,
                "paper: Drum increases with alpha (no benefit in focusing);\n\
                 Push/Pull are worst at small alpha; all meet at the rightmost point\n"
            )?;
        }
    }
    Ok(())
}

/// Figure 8: weak fixed-strength attacks against Drum.
pub fn fig08(w: &mut dyn Write) -> io::Result<()> {
    banner_to(w, "Figure 8", "weak fixed-strength attacks on Drum")?;
    let trials = trials();
    let ns: Vec<usize> = if scale() == Scale::Full {
        vec![120, 500]
    } else {
        vec![120]
    };
    let alphas = scaled(
        vec![0.1, 0.3, 0.5, 0.7, 0.9],
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    );

    for &n in &ns {
        // Baseline without any attack (but with 10% malicious members).
        let mut baseline_cfg = SimConfig::baseline(ProtocolVariant::Drum, n);
        baseline_cfg.malicious = n / 10;
        let baseline = run_experiment(&baseline_cfg, trials, SEED, 0).mean_rounds();
        writeln!(
            w,
            "n = {n}: Drum, average rounds to 99% (no-attack baseline: {baseline:.1})"
        )?;

        let mut header = vec!["alpha".to_string()];
        for c in [0.25, 0.5, 1.0] {
            header.push(format!("B={:.1}n", c * 3.6));
        }
        let mut table = Table::new(header);

        let budgets: Vec<f64> = [0.9, 1.8, 3.6].iter().map(|c| c * n as f64).collect();
        let sweeps: Vec<_> = budgets
            .iter()
            .map(|&b| fixed_strength_sweep(n, b, &alphas, &[ProtocolVariant::Drum], trials, SEED))
            .collect();

        for (i, &alpha) in alphas.iter().enumerate() {
            let mut cells = vec![format!("{alpha}")];
            for sweep in &sweeps {
                cells.push(format!("{:.1}", sweep[i].results[0].mean_rounds()));
            }
            table.row(cells);
        }
        writeln!(w, "{table}")?;
        writeln!(
            w,
            "paper: all three curves sit within ~1-2 rounds of the baseline\n"
        )?;
    }
    Ok(())
}

/// Figure 9: simulations vs measurements, n = 50.
pub fn fig09(w: &mut dyn Write) -> io::Result<()> {
    banner_to(w, "Figure 9", "simulation vs measurement, n = 50")?;
    let n = scaled3(16, 50, 50);
    let sim_trials = trials();
    let messages = scaled3(2, 5, 40);
    let round = Duration::from_millis(scaled3(50, 80, 150));

    let xs: Vec<f64> = scaled3(
        vec![0.0, 64.0],
        vec![0.0, 64.0, 128.0],
        vec![0.0, 32.0, 64.0, 128.0, 256.0],
    );
    writeln!(w, "(a) alpha = 10%, rounds to 99% vs x  [sim | measured]")?;
    let mut table = Table::new(
        std::iter::once("x".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|p| format!("{p} sim/net")))
            .collect(),
    );
    for &x in &xs {
        let mut cells = vec![format!("{x:.0}")];
        for &p in &PROTOCOLS {
            let sim_cfg = if x == 0.0 {
                let mut c = SimConfig::baseline(p, n);
                c.malicious = n / 10;
                c
            } else {
                SimConfig::paper_attack(p, n, x)
            };
            let sim = run_experiment(&sim_cfg, sim_trials, SEED, 0).mean_rounds();

            let net_cfg =
                paper_cluster_config(p, n, if x == 0.0 { 0 } else { n / 10 }, x, round, SEED);
            let report = propagation_experiment(
                net_cfg,
                messages,
                2,
                Duration::from_secs(scaled3(10, 15, 120)),
            )
            .expect("cluster failed");
            let net = if report.rounds_to_99.count() > 0 {
                format!("{:.1}", report.rounds_to_99.mean())
            } else {
                ">to".into()
            };
            cells.push(format!("{sim:.1} / {net}"));
        }
        table.row(cells);
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "paper: measurement tracks simulation closely for all protocols\n"
    )?;

    let alphas: Vec<f64> = scaled3(vec![0.1], vec![0.1, 0.4], vec![0.1, 0.2, 0.4, 0.6, 0.8]);
    writeln!(w, "(b) x = 128, rounds to 99% vs alpha  [sim | measured]")?;
    let mut table = Table::new(
        std::iter::once("alpha".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|p| format!("{p} sim/net")))
            .collect(),
    );
    for &alpha in &alphas {
        let mut cells = vec![format!("{alpha}")];
        let attacked = ((n as f64) * alpha).round() as usize;
        for &p in &PROTOCOLS {
            let sim_cfg = SimConfig::attack_alpha(p, n, alpha, 128.0);
            let sim = run_experiment(&sim_cfg, sim_trials, SEED, 0).mean_rounds();

            let net_cfg = paper_cluster_config(p, n, attacked, 128.0, round, SEED);
            let report = propagation_experiment(
                net_cfg,
                messages,
                2,
                Duration::from_secs(scaled3(12, 20, 180)),
            )
            .expect("cluster failed");
            let net = if report.rounds_to_99.count() > 0 {
                format!("{:.1}", report.rounds_to_99.mean())
            } else {
                ">to".into()
            };
            cells.push(format!("{sim:.1} / {net}"));
        }
        table.row(cells);
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "('>to' marks timed-out measurements — Pull under heavy source attack)"
    )
}

/// Figure 10: received throughput under increasing attack strength.
pub fn fig10(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 10",
        "average received throughput under attack (measurements)",
    )?;
    let n = scaled3(10, 20, 50);
    let round = Duration::from_millis(scaled3(50, 100, 1000));
    let messages = scaled3(30, 300, 10_000);
    let rate = 40.0;
    let drain = Duration::from_secs(scaled3(2, 5, 5));
    writeln!(
        w,
        "n = {n}, round = {round:?}, {messages} messages at {rate} msg/s\n"
    )?;

    let xs: Vec<f64> = scaled3(
        vec![0.0, 128.0],
        vec![0.0, 64.0, 128.0, 256.0],
        vec![0.0, 32.0, 64.0, 128.0, 256.0, 512.0],
    );
    writeln!(w, "(a) alpha = 10%: mean received throughput (msg/s) vs x")?;
    let mut table = Table::new(
        std::iter::once("x".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|s| s.to_string()))
            .collect(),
    );
    for &x in &xs {
        let mut cells = vec![format!("{x:.0}")];
        for &p in &PROTOCOLS {
            let attacked = if x == 0.0 { 0 } else { n / 10 };
            let cfg = paper_cluster_config(p, n, attacked, x, round, SEED);
            let report =
                throughput_experiment(cfg, messages, rate, 50, drain).expect("cluster failed");
            cells.push(format!("{:.1}", report.mean_throughput()));
        }
        table.row(cells);
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "paper: Drum flat near the send rate; Push slightly degrading; Pull collapsing\n"
    )?;

    let alphas: Vec<f64> = scaled3(
        vec![0.1],
        vec![0.1, 0.2, 0.4],
        vec![0.1, 0.2, 0.4, 0.6, 0.8],
    );
    writeln!(w, "(b) x = 128: mean received throughput (msg/s) vs alpha")?;
    let mut table = Table::new(
        std::iter::once("alpha".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|s| s.to_string()))
            .collect(),
    );
    for &alpha in &alphas {
        let mut cells = vec![format!("{alpha}")];
        let attacked = ((n as f64) * alpha).round() as usize;
        for &p in &PROTOCOLS {
            let cfg = paper_cluster_config(p, n, attacked, 128.0, round, SEED);
            let report =
                throughput_experiment(cfg, messages, rate, 50, drain).expect("cluster failed");
            cells.push(format!("{:.1}", report.mean_throughput()));
        }
        table.row(cells);
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "paper: Drum degrades gracefully with alpha; Push linearly; Pull drastically"
    )
}

/// Figure 11: CDF of per-receiver average latency.
pub fn fig11(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 11",
        "CDF of per-process average delivery latency (measurements)",
    )?;
    let n = scaled3(10, 20, 50);
    let round = Duration::from_millis(scaled3(50, 100, 1000));
    let messages = scaled3(30, 300, 10_000);
    let rate = 40.0;
    let drain = Duration::from_secs(scaled3(2, 5, 5));

    let alphas: Vec<f64> = scaled3(vec![0.1], vec![0.1, 0.4], vec![0.1, 0.4]);
    for &alpha in &alphas {
        let attacked = ((n as f64) * alpha).round() as usize;
        writeln!(
            w,
            "alpha = {alpha}, x = 128, n = {n}: per-receiver mean latency (ms), sorted"
        )?;
        let mut table = Table::new(
            std::iter::once("percentile".to_string())
                .chain(PROTOCOL_NAMES.iter().map(|s| s.to_string()))
                .collect(),
        );

        let mut per_protocol: Vec<Vec<f64>> = Vec::new();
        for &p in &PROTOCOLS {
            let cfg = paper_cluster_config(p, n, attacked, 128.0, round, SEED);
            let report =
                throughput_experiment(cfg, messages, rate, 50, drain).expect("cluster failed");
            let mut lats: Vec<f64> = report
                .receivers
                .iter()
                .filter(|r| r.received > 0)
                .map(|r| r.mean_latency_ms)
                .collect();
            lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
            per_protocol.push(lats);
        }

        for pct in [10usize, 25, 50, 75, 90, 100] {
            let mut cells = vec![format!("{pct}%")];
            for lats in &per_protocol {
                if lats.is_empty() {
                    cells.push("-".into());
                    continue;
                }
                let idx = ((pct as f64 / 100.0) * lats.len() as f64).ceil() as usize;
                let idx = idx.clamp(1, lats.len()) - 1;
                cells.push(format!("{:.0}", lats[idx]));
            }
            table.row(cells);
        }
        writeln!(w, "{table}")?;
        writeln!(
            w,
            "paper: Drum tracks Push up to the ~90th percentile and avoids Push's\n\
             attacked-receiver tail (4x the non-attacked latency); Pull is uniformly slow\n"
        )?;
    }
    Ok(())
}

/// Figure 12: the other two DoS-mitigation measures, ablated.
pub fn fig12(w: &mut dyn Write) -> io::Result<()> {
    banner_to(w, "Figure 12", "random ports and separate bounds ablations")?;
    let trials = trials();
    let n = scaled(120, 1000);

    let xs: Vec<f64> = scaled(
        vec![0.0, 64.0, 128.0, 256.0, 512.0],
        vec![0.0, 32.0, 64.0, 128.0, 192.0, 256.0, 384.0, 512.0],
    );
    writeln!(
        w,
        "(a) alpha = 10%, n = {n} (simulation): rounds to 99% vs x"
    )?;
    let rows = fig12a_random_ports(n, &xs, trials, SEED);
    writeln!(
        w,
        "{}",
        sweep_table("x", &rows, &["random ports", "well-known ports"])
    )?;
    writeln!(
        w,
        "paper: random ports flat; well-known ports linear in x\n"
    )?;

    // (b) — real measurements with the engine's bound modes.
    let net_n = scaled3(10, 16, 50);
    let round = Duration::from_millis(scaled3(50, 80, 1000));
    let messages = scaled3(3, 6, 30);
    let net_xs: Vec<f64> = scaled3(
        vec![0.0, 128.0],
        vec![0.0, 128.0, 256.0],
        vec![0.0, 64.0, 128.0, 256.0, 512.0],
    );
    writeln!(
        w,
        "(b) alpha = 10%, n = {net_n} (measurement): rounds to 99% vs x"
    )?;
    let mut table = Table::new(vec![
        "x".into(),
        "separate bounds".into(),
        "shared bounds".into(),
    ]);
    for &x in &net_xs {
        let mut cells = vec![format!("{x:.0}")];
        for mode in [BoundMode::Separate, BoundMode::SharedControl] {
            let attacked = if x == 0.0 { 0 } else { (net_n / 10).max(1) };
            let mut cfg = paper_cluster_config(
                drum_core::ProtocolVariant::Drum,
                net_n,
                attacked,
                x,
                round,
                SEED,
            );
            cfg.net.gossip = GossipConfig::drum().with_bound_mode(mode);
            let report = propagation_experiment(cfg, messages, 2, Duration::from_secs(45))
                .expect("cluster failed");
            if report.rounds_to_99.count() > 0 {
                cells.push(format!("{:.1}", report.rounds_to_99.mean()));
            } else {
                cells.push(">timeout".into());
            }
        }
        table.row(cells);
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "paper: separate bounds flat; shared bounds degrade linearly under attack"
    )
}

fn sim_variant(p: Protocol) -> ProtocolVariant {
    match p {
        Protocol::Drum => ProtocolVariant::Drum,
        Protocol::Push => ProtocolVariant::Push,
        Protocol::Pull => ProtocolVariant::Pull,
    }
}

/// Figure 13: detailed analysis (Appendix C) vs simulation, no attack.
pub fn fig13(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 13",
        "analysis vs simulation CDFs without DoS attacks",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);
    let rounds = 20;

    for (label, crashed) in [("(a) failure-free", 0usize), ("(b) 10% crashed", n / 10)] {
        writeln!(w, "{label}, n = {n} ({trials} trials)")?;
        let mut labels = Vec::new();
        let mut curves = Vec::new();
        for proto in [Protocol::Drum, Protocol::Push, Protocol::Pull] {
            // Analysis: fraction at round start; shift by one to align with
            // the simulator's after-round samples.
            let a = analysis_cdf(proto, n, crashed, 0.01, 4, 0, 0, rounds + 1);
            curves.push(a[1..].to_vec());
            labels.push(format!("{proto} anl"));

            let mut cfg = SimConfig::baseline(sim_variant(proto), n);
            cfg.crashed = crashed;
            curves.push(cdf_curve(&cfg, trials, SEED, rounds));
            labels.push(format!("{proto} sim"));
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        writeln!(w, "{}", cdf_table(&label_refs, &curves, rounds))?;
        writeln!(
            w,
            "paper: analysis and simulation curves are almost identical\n"
        )?;
    }
    Ok(())
}

/// Figure 14: analysis vs simulation CDFs under DoS attacks, n = 120.
pub fn fig14(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Figure 14",
        "analysis vs simulation CDFs under DoS attacks, n = 120",
    )?;
    let trials = trials();
    let n = 120;
    let b = 12;
    let rounds = 40;

    let scenarios = [
        ("(a)", 0.10, 32u64),
        ("(b)", 0.10, 64),
        ("(c)", 0.10, 128),
        ("(d)", 0.40, 128),
        ("(e)", 0.60, 128),
        ("(f)", 0.80, 128),
    ];

    for (panel, alpha, x) in scenarios {
        let attacked = ((n as f64) * alpha).round() as usize;
        writeln!(w, "{panel} alpha = {alpha}, x = {x} ({trials} trials)")?;
        let mut labels = Vec::new();
        let mut curves = Vec::new();
        for proto in [Protocol::Drum, Protocol::Push, Protocol::Pull] {
            let a = analysis_cdf(proto, n, b, 0.01, 4, attacked, x, rounds + 1);
            curves.push(a[1..].to_vec());
            labels.push(format!("{proto} anl"));

            let mut cfg = SimConfig::attack_alpha(sim_variant(proto), n, alpha, x as f64);
            cfg.malicious = b;
            curves.push(cdf_curve(&cfg, trials, SEED, rounds));
            labels.push(format!("{proto} sim"));
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        writeln!(w, "{}", cdf_table(&label_refs, &curves, rounds))?;
        writeln!(w)?;
    }
    writeln!(
        w,
        "paper: in every panel the analysis curve overlays the simulation curve"
    )
}

/// Extension experiment: fan-out sensitivity.
pub fn ext_fanout(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Extension: fan-out sensitivity",
        "rounds to 99% vs F, with and without attack",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);

    for (label, x) in [("no attack", 0.0), ("alpha = 10%, x = 128", 128.0)] {
        writeln!(w, "{label}, n = {n} ({trials} trials)")?;
        let mut table = Table::new(vec![
            "F".into(),
            "Drum".into(),
            "Push".into(),
            "Pull".into(),
        ]);
        for fan_out in [2usize, 4, 8, 12] {
            let mut cells = vec![fan_out.to_string()];
            for proto in [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ] {
                let mut cfg = if x > 0.0 {
                    SimConfig::paper_attack(proto, n, x)
                } else {
                    let mut c = SimConfig::baseline(proto, n);
                    c.malicious = n / 10;
                    c
                };
                cfg.fan_out = fan_out;
                cfg.max_rounds = 2000;
                let res = run_experiment(&cfg, trials, SEED, 0);
                cells.push(format!("{:.1}", res.mean_rounds()));
            }
            table.row(cells);
        }
        writeln!(w, "{table}")?;
    }
    writeln!(
        w,
        "finding: higher F speeds everything up (log base grows), but only Drum's\n\
         *shape* is attack-independent at every F; Push/Pull remain linear in x\n\
         no matter how much fan-out they are given."
    )
}

/// Extension experiment: million-member simulated groups.
///
/// The paper's simulations stop at n = 1000. The sharded intra-trial
/// stepper (struct-of-arrays state, counter-derived per-sender RNG
/// streams, deterministic shard merge) runs single trials at n = 10⁶,
/// so the O(log n) propagation claim — and its robustness to the
/// Figure 7 flood — can be checked two orders of magnitude further out.
/// Trial counts shrink with n; every point is byte-identical for any
/// `DRUM_POOL_THREADS` / `DRUM_SIM_SHARDS` setting.
pub fn ext_scale(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Extension: million-member groups",
        "rounds to 99% vs n, with and without the Figure 7 flood (sharded stepper)",
    )?;
    // (n, trials) pairs: larger groups tighten their own confidence
    // (each trial averages over n members), so fewer trials suffice.
    let points: Vec<(usize, usize)> = scaled3(
        vec![(1_000, 4), (10_000, 2)],
        vec![(10_000, 24), (100_000, 8), (1_000_000, 3)],
        vec![(10_000, 100), (100_000, 24), (1_000_000, 8)],
    );
    let (alpha, x) = (0.1, 72.0);
    writeln!(
        w,
        "Drum only; flood column is the Figure 7 setting alpha = {alpha}, x = {x}\n\
         (both columns keep the paper's 10% malicious non-cooperators)\n"
    )?;
    let rows = ext_scale_sweep(&points, alpha, x, SEED);
    let mut table = Table::new(vec![
        "n".into(),
        "trials".into(),
        "no attack".into(),
        "flood x=72".into(),
        "delta".into(),
    ]);
    for (row, &(_, trials)) in rows.iter().zip(&points) {
        let base = row.results[0].mean_rounds();
        let flood = row.results[1].mean_rounds();
        table.row(vec![
            format!("{}", row.x as usize),
            trials.to_string(),
            format!("{base:.1}"),
            format!("{flood:.1}"),
            format!("{:+.1}", flood - base),
        ]);
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "finding: rounds-to-99% grows like log n — each 10x in n adds a near-\n\
         constant number of rounds — and the flood's toll stays a small additive\n\
         delta at every scale: Drum's per-round bounds do not erode as the group\n\
         (and with it the adversary's 10% slice) grows a hundredfold."
    )
}

/// Extension experiment: large-n multiplexed clusters.
///
/// The paper measures 50 machines; the sharded net runtime lifts the live
/// UDP measurement to hundreds and (at `--full`) 1,000 correct nodes in
/// one OS process. Reported per point: the fraction of correct nodes the
/// multicast reached, the delivered message fraction, mean delivery
/// latency, and the runtime's own `rounds_late` counter (cadence health
/// under load).
pub fn ext_cluster(w: &mut dyn Write) -> io::Result<()> {
    use drum_net::experiment::{decode_payload, Cluster};
    use std::time::Instant;

    banner_to(
        w,
        "Extension: large-n multiplexed clusters",
        "delivered fraction and latency vs attack strength, sharded runtime",
    )?;
    // `n` counts CORRECT nodes (engines actually running); the cluster
    // adds the paper's 10% malicious members on top of them.
    let ns: Vec<usize> = scaled3(vec![48], vec![96], vec![200, 500, 1000]);
    let xs: Vec<f64> = scaled3(vec![0.0, 72.0], vec![0.0, 72.0], vec![0.0, 72.0, 360.0]);
    let shards = scaled3(1usize, 2, 8);
    let round = Duration::from_millis(scaled3(60, 100, 1000));
    let messages = scaled3(4u64, 5, 5);
    let wait = Duration::from_secs(scaled3(10, 15, 90));
    writeln!(
        w,
        "Drum, alpha = 0.1, x fabricated messages per attacked node per round (the\n\
         Figure 7 setting x = 72, and 5x it); every point is ONE OS process running\n\
         all n engines on the sharded net runtime.\n"
    )?;

    let mut table = Table::new(vec![
        "n".into(),
        "shards".into(),
        "x".into(),
        "reached".into(),
        "delivered".into(),
        "mean latency".into(),
        "rounds late".into(),
    ]);
    for &n in &ns {
        for &x in &xs {
            let attacked = if x == 0.0 {
                0
            } else {
                ((n as f64) * 0.1).round() as usize
            };
            let mut cfg =
                paper_cluster_config(ProtocolVariant::Drum, n + n / 10, attacked, x, round, SEED);
            // paper_cluster_config derived malicious from the total;
            // re-anchor it so exactly `n` engines run.
            cfg.malicious = n / 10;
            cfg.shards = shards;
            let shard_count = cfg.resolved_shards();

            let cluster = Cluster::start(cfg).expect("cluster start");
            let epoch = cluster.epoch();
            let correct = cluster.handles().len();
            let mut reached = vec![false; correct];
            reached[0] = true; // the source trivially has its own messages
            let mut total = 0u64;
            let mut lat_sum_ms = 0.0f64;
            let mut lat_count = 0u64;
            let mut drain = |reached: &mut Vec<bool>| {
                for (i, h) in cluster.handles().iter().enumerate().skip(1) {
                    for d in h.take_delivered() {
                        total += 1;
                        reached[i] = true;
                        if let Some((_, sent_us)) = decode_payload(&d.message.payload) {
                            let arrived_us = d.at.duration_since(epoch).as_micros() as u64;
                            if arrived_us > sent_us {
                                lat_sum_ms += (arrived_us - sent_us) as f64 / 1000.0;
                                lat_count += 1;
                            }
                        }
                    }
                }
            };

            for m in 0..messages {
                cluster.publish_from_source(m, 50);
                std::thread::sleep(round * 2);
                drain(&mut reached);
            }
            let deadline = Instant::now() + wait;
            while Instant::now() < deadline && reached.iter().any(|r| !r) {
                drain(&mut reached);
                std::thread::sleep(Duration::from_millis(20));
            }
            drain(&mut reached);
            let stats = cluster.shutdown();

            let late: u64 = stats.iter().map(|s| s.rounds_late).sum();
            let reached_frac =
                reached.iter().filter(|r| **r).count() as f64 / correct.max(1) as f64;
            let delivered_frac = total as f64 / (messages * (correct as u64 - 1)) as f64;
            let mean_latency = if lat_count > 0 {
                lat_sum_ms / lat_count as f64
            } else {
                f64::NAN
            };
            table.row(vec![
                n.to_string(),
                shard_count.to_string(),
                format!("{x:.0}"),
                format!("{:.3}", reached_frac),
                format!("{:.3}", delivered_frac),
                format!("{mean_latency:.0} ms"),
                late.to_string(),
            ]);
        }
    }
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "finding: dissemination stays complete (reached ~1.0) as n grows past the\n\
         paper's 50-machine testbed, with or without the flood — Drum's DoS\n\
         resistance is not an artifact of small clusters. The fixed-cadence timer\n\
         wheel reports how often engines ran behind their round deadline."
    )
}

/// Extension experiment: the sustained multi-message soak — a paced
/// stream from the source for a minute-plus, the Figure 7 flood toggled
/// on for the middle third of the run.
pub fn ext_soak(w: &mut dyn Write) -> io::Result<()> {
    use drum_core::stream::StreamConfig;
    use drum_net::experiment::soak_experiment;

    banner_to(
        w,
        "Extension: sustained-throughput soak",
        "paced multi-message stream, flood toggled mid-run",
    )?;
    let n = scaled3(10usize, 18, 33);
    let attacked = scaled3(1usize, 2, 3);
    let duration = Duration::from_millis(scaled3(1_500, 61_500, 123_000));
    let rate = scaled3(60.0, 120.0, 200.0);
    let flood_x = 72.0;
    let round = Duration::from_millis(scaled3(40, 60, 60));
    let drain = Duration::from_millis(scaled3(1_000, 3_000, 5_000));

    let mut cfg = paper_cluster_config(ProtocolVariant::Drum, n, attacked, 0.0, round, SEED);
    // Pace the source stream: bursts are smoothed over rounds, and
    // overflow past the window is queued with backpressure accounting —
    // never silently dropped.
    let per_round = (rate * round.as_secs_f64()).ceil() as usize + 2;
    cfg.net.stream = StreamConfig::paced(per_round);
    let correct = cfg.correct();

    writeln!(
        w,
        "Drum, n = {n} ({correct} correct), source rate {rate:.0} msg/s for {:.0}s,\n\
         x = {flood_x:.0} fabricated messages per round against {attacked} processes\n\
         during the middle third of the run (the Figure 7 flood, toggled mid-run),\n\
         50-byte payloads, stream paced at {per_round} msgs/round.\n",
        duration.as_secs_f64()
    )?;

    let report = soak_experiment(cfg, duration, rate, 50, flood_x, drain).expect("soak cluster");

    let mut table = Table::new(vec![
        "phase".into(),
        "published".into(),
        "delivered".into(),
        "msgs/s per receiver".into(),
    ]);
    for p in &report.phases {
        table.row(vec![
            p.name.into(),
            p.published.to_string(),
            p.delivered.to_string(),
            format!("{:.1}", p.throughput),
        ]);
    }
    writeln!(w, "{table}")?;

    let mut cdf = Table::new(vec!["quantile".into(), "delivery latency".into()]);
    for (q, ms) in &report.latency_cdf_ms {
        cdf.row(vec![format!("p{:.0}", q * 100.0), format!("{ms:.1} ms")]);
    }
    writeln!(w, "{cdf}")?;

    let receivers = (correct - 1) as u64;
    writeln!(
        w,
        "published {} total; delivered fraction {:.3} of the full published x {}\n\
         receiver coverage; peak message-buffer footprint {} KiB on the busiest\n\
         process; stream backpressure events {} (queued, never dropped).\n",
        report.published,
        report.delivery_fraction(receivers),
        receivers,
        report.buffer_bytes_peak / 1024,
        report.backpressure,
    )?;
    writeln!(
        w,
        "finding: delivery holds at the offered rate straight through the flood —\n\
         Drum's per-channel bounds confine the damage — without unbounded buffer\n\
         growth: the age-bucketed buffer's high-water mark stays bounded over the\n\
         sustained run, and the paced stream queues (with backpressure accounting)\n\
         instead of silently dropping."
    )
}

/// Extension experiment: rotating adversary.
pub fn ext_rotation(w: &mut dyn Write) -> io::Result<()> {
    banner_to(
        w,
        "Extension: rotating adversary",
        "static vs rotating target sets, alpha = 10%, x = 128",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);

    let mut table = Table::new(
        std::iter::once("rotation".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|s| s.to_string()))
            .collect(),
    );

    for (label, rotate) in [
        ("static (paper)", None),
        ("every 8 rounds", Some(8u32)),
        ("every 4 rounds", Some(4)),
        ("every 2 rounds", Some(2)),
        ("every round", Some(1)),
    ] {
        let mut cells = vec![label.to_string()];
        for &p in &PROTOCOLS {
            let mut cfg = SimConfig::paper_attack(p, n, 128.0);
            cfg.attack.as_mut().unwrap().rotate_every = rotate;
            cfg.max_rounds = 2000;
            let res = run_experiment(&cfg, trials, SEED, 0);
            cells.push(format!("{:.1}", res.mean_rounds()));
        }
        table.row(cells);
    }
    writeln!(
        w,
        "average rounds to 99% of correct processes, n = {n} ({trials} trials)"
    )?;
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "finding: rotation never helps the adversary — for Push and Pull it\n\
         *hurts* the attack (the pinned-down victims get released), and Drum\n\
         is indifferent, as its design predicts."
    )
}

/// Extension experiment: adaptive adversary strategies.
pub fn ext_adversary(w: &mut dyn Write) -> io::Result<()> {
    use drum_sim::AdversaryKind;

    banner_to(
        w,
        "Extension: adaptive adversaries",
        "pluggable attack strategies vs the paper's static flood, alpha = 10%, x = 128",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);

    let mut table = Table::new(
        std::iter::once("adversary".to_string())
            .chain(PROTOCOL_NAMES.iter().map(|s| s.to_string()))
            .collect(),
    );

    for (label, kind) in [
        ("static (paper)", AdversaryKind::Static),
        ("chase every 8", AdversaryKind::TargetChasing { every: 8 }),
        ("chase every 2", AdversaryKind::TargetChasing { every: 2 }),
        (
            "chase every round",
            AdversaryKind::TargetChasing { every: 1 },
        ),
        ("eclipse the source", AdversaryKind::Eclipse),
        ("replay flood", AdversaryKind::Replay),
    ] {
        let mut cells = vec![label.to_string()];
        for &p in &PROTOCOLS {
            let mut cfg = SimConfig::paper_attack(p, n, 128.0).with_adversary(kind);
            cfg.max_rounds = 2000;
            let res = run_experiment(&cfg, trials, SEED, 0);
            cells.push(format!("{:.1}", res.mean_rounds()));
        }
        table.row(cells);
    }
    writeln!(
        w,
        "average rounds to 99% of correct processes, n = {n} ({trials} trials)"
    )?;
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "finding: every adaptive strategy redistributes the same total budget,\n\
         and none of them moves Drum by more than half a round — its per-round\n\
         per-channel bounds cap what *any* aiming of the budget can extract.\n\
         The undefended protocols tell the opposite story: eclipsing the\n\
         source is catastrophic for Pull (progress rides on the source\n\
         answering pull-requests) yet *helps* Push, since concentrating on\n\
         one process releases the other victims; fast chasing releases\n\
         victims before the flood bites, so Pull recovers. The adversary's\n\
         best strategy is thus protocol-specific — and against Drum there\n\
         isn't one. Replay is budget-identical to static before\n\
         authentication; its real cost, the per-copy MAC verify, is what\n\
         batched verification removes."
    )
}

/// Extension experiment: pull-channel abuse vs attack strength.
pub fn ext_pull_abuse(w: &mut dyn Write) -> io::Result<()> {
    use drum_sim::AdversaryKind;

    banner_to(
        w,
        "Extension: pull-channel abuse",
        "whole budget as valid-looking pull-requests vs the split flood",
    )?;
    let trials = trials();
    let n = scaled(120, 1000);
    let xs: &[f64] = &[32.0, 64.0, 128.0, 256.0];

    let mut table = Table::new(vec![
        "x".into(),
        "drum static".into(),
        "drum pull-abuse".into(),
        "pull static".into(),
        "pull pull-abuse".into(),
    ]);
    for &x in xs {
        let mut cells = vec![format!("{x:.0}")];
        for p in [ProtocolVariant::Drum, ProtocolVariant::Pull] {
            for kind in [AdversaryKind::Static, AdversaryKind::PullAbuse] {
                let mut cfg = SimConfig::paper_attack(p, n, x).with_adversary(kind);
                cfg.max_rounds = 2000;
                let res = run_experiment(&cfg, trials, SEED, 0);
                cells.push(format!("{:.1}", res.mean_rounds()));
            }
        }
        table.row(cells);
    }
    writeln!(
        w,
        "average rounds to 99% of correct processes, n = {n} ({trials} trials)"
    )?;
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "finding: doubling the pressure on pull-request reception never pays.\n\
         For pure Pull it is a no-op — the static flood already spends the\n\
         whole budget on the only channel there is, and degradation keeps\n\
         growing unbounded with x. For Drum it slightly *helps* the victims:\n\
         the pull bound caps what the extra traffic can displace, so the\n\
         budget moved off the push channel is simply wasted against a\n\
         saturated limit while pushes flow unharassed. Under per-channel\n\
         bounds the pull channel is a budget sink, which is the paper's\n\
         channel-separation argument driven to its limit."
    )
}
