//! `drum-lab` — command-line laboratory for the Drum stack.
//!
//! ```text
//! drum-lab simulate --protocol drum --n 120 --alpha 0.1 --x 128 --trials 200
//! drum-lab analyze  --protocol push --n 120 --alpha 0.1 --x 128
//! drum-lab probs    --n 1000 --f 4 --x 128
//! drum-lab cluster  --n 12 --attacked 2 --x 64 --messages 100 --rate 40
//! ```

#![forbid(unsafe_code)]

mod args;

use std::time::Duration;

use args::{ArgError, Args};
use drum_analysis::appendix_c::{analysis_cdf, Protocol};
use drum_core::config::{AdversaryKind, BoundMode, GossipConfig, ProtocolVariant};
use drum_lab::figures::{FigureFn, FIGURES};
use drum_metrics::table::Table;
use drum_net::experiment::{paper_cluster_config, throughput_experiment};
use drum_sim::config::SimConfig;
use drum_sim::runner::run_experiment;

const USAGE: &str = "\
drum-lab — DoS-resistant gossip multicast laboratory (Drum, DSN 2004)

USAGE:
    drum-lab <COMMAND> [OPTIONS]

COMMANDS:
    simulate   Monte-Carlo simulation of one attack scenario
    analyze    closed-form Appendix C propagation curve
    probs      acceptance probabilities p_u / p_a / p~ (appendices A-B)
    cluster    live UDP cluster throughput experiment
    figures    regenerate every results/fig*.txt in one run
    help       show this message

COMMON OPTIONS:
    --protocol drum|push|pull   (default drum)
    --n <usize>                 group size (default 120)
    --alpha <f64>               attacked fraction (default 0.1)
    --x <f64>                   fabricated msgs per attacked process/round (default 128)
    --seed <u64>                RNG seed (default 20040628)

simulate:
    --trials <usize>            trials per point (default 200)
    --crashed <usize>           crashed processes (default 0)
    --loss <f64>                link loss (default 0.01)
    --rotate <u32>              rotate attack targets every k rounds
    --adversary <name>          attack strategy: static|chase[:k]|eclipse|
                                pull-abuse|replay (default: static)
    --no-random-ports           Figure 12(a) ablation

analyze:
    --rounds <usize>            horizon (default 40)

probs:
    --f <usize>                 fan-out (default 4)

cluster:
    --attacked <usize>          attacked process count (default n/10)
    --round-ms <u64>            round duration in ms (default 100)
    --messages <u64>            messages to send (default 200)
    --rate <f64>                send rate msg/s (default 40)
    --shards <usize>            run the engines on this many shard threads
                                (default 0 = one per core, at most one per
                                correct process)
    --adversary <name>          wire-level attack strategy (same names as
                                simulate; default: static)
    --shared-bounds             Figure 12(b) ablation

figures:
    --out <dir>                 output directory (default results)
    --only <names>              comma-separated subset (e.g. fig03,fig05)
    --quick                     CI smoke sizing (smallest end-to-end runs)
    --full                      the paper's parameters
";

fn protocol_of(args: &Args) -> Result<ProtocolVariant, String> {
    match args.get("protocol").unwrap_or("drum") {
        "drum" => Ok(ProtocolVariant::Drum),
        "push" => Ok(ProtocolVariant::Push),
        "pull" => Ok(ProtocolVariant::Pull),
        other => Err(format!("unknown protocol '{other}' (drum|push|pull)")),
    }
}

fn adversary_of(args: &Args) -> Result<AdversaryKind, String> {
    let name = args.get("adversary").unwrap_or("static");
    AdversaryKind::parse(name).ok_or_else(|| {
        format!("unknown adversary '{name}' (static|chase[:k]|eclipse|pull-abuse|replay)")
    })
}

/// `cluster`'s ablation flags applied to the protocol's gossip settings:
/// `--shared-bounds` (Figure 12(b)) and `--no-random-ports` (Figure 12(a))
/// each change one field and keep the rest.
fn cluster_gossip(args: &Args, mut gossip: GossipConfig) -> GossipConfig {
    if args.flag("shared-bounds") {
        gossip = gossip.with_bound_mode(BoundMode::SharedControl);
    }
    if args.flag("no-random-ports") {
        gossip = gossip.with_random_ports(false);
    }
    gossip
}

/// The figures `--only` names, in registry order (all when `None`); an
/// unknown name is an error that lists the known ones.
fn select_figures(only: Option<&str>) -> Result<Vec<(&'static str, FigureFn)>, String> {
    let known: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    let names: Vec<&str> = only.map_or(known.clone(), |only| only.split(',').collect());
    match names.iter().find(|name| !known.contains(name)) {
        Some(unknown) => Err(format!(
            "--only: unknown figure '{unknown}'; known: {}",
            known.join(", ")
        )),
        None => Ok(FIGURES
            .iter()
            .filter(|(name, _)| names.contains(name))
            .copied()
            .collect()),
    }
}

fn analysis_protocol(p: ProtocolVariant) -> Protocol {
    match p {
        ProtocolVariant::Drum => Protocol::Drum,
        ProtocolVariant::Push => Protocol::Push,
        ProtocolVariant::Pull => Protocol::Pull,
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1)).map_err(|e: ArgError| e.to_string())?;
    if args.flag("help") || args.command.is_none() {
        println!("{USAGE}");
        return Ok(());
    }
    let err = |e: ArgError| e.to_string();

    match args.command.as_deref().unwrap_or("") {
        "help" => println!("{USAGE}"),
        "simulate" => {
            let protocol = protocol_of(&args)?;
            let n = args.get_or("n", 120usize).map_err(err)?;
            let alpha = args.get_or("alpha", 0.1f64).map_err(err)?;
            let x = args.get_or("x", 128.0f64).map_err(err)?;
            let trials = args.get_or("trials", 200usize).map_err(err)?;
            let seed = args.get_or("seed", 20040628u64).map_err(err)?;

            let mut cfg = if x > 0.0 && alpha > 0.0 {
                SimConfig::attack_alpha(protocol, n, alpha, x)
            } else {
                SimConfig::baseline(protocol, n)
            };
            cfg.crashed = args.get_or("crashed", 0usize).map_err(err)?;
            cfg.loss = args.get_or("loss", 0.01f64).map_err(err)?;
            cfg.random_ports = !args.flag("no-random-ports");
            let rotate = args.get_or("rotate", 0u32).map_err(err)?;
            if rotate > 0 {
                if let Some(a) = cfg.attack.as_mut() {
                    a.rotate_every = Some(rotate);
                }
            }
            cfg = cfg.with_adversary(adversary_of(&args)?);
            cfg.validate().map_err(|e| e.to_string())?;

            println!(
                "simulating {protocol}: n={n} alpha={alpha} x={x} crashed={} loss={} \
                 random_ports={} adversary={} stepper=sharded({}) ({trials} trials, seed {seed})",
                cfg.crashed,
                cfg.loss,
                cfg.random_ports,
                cfg.adversary().name(),
                drum_sim::auto_shards(n)
            );
            let res = run_experiment(&cfg, trials, seed, 0);
            let mut t = Table::new(vec!["metric".into(), "value".into()]);
            t.row(vec![
                "rounds to 99% (mean)".into(),
                format!("{:.2}", res.mean_rounds()),
            ]);
            t.row(vec![
                "rounds to 99% (std)".into(),
                format!("{:.2}", res.std_rounds()),
            ]);
            t.row(vec![
                "rounds, attacked subset".into(),
                format!("{:.2}", res.rounds_attacked.mean()),
            ]);
            t.row(vec![
                "rounds, non-attacked".into(),
                format!("{:.2}", res.rounds_unattacked.mean()),
            ]);
            t.row(vec!["failed trials".into(), res.failures.to_string()]);
            println!("{t}");
        }
        "analyze" => {
            let protocol = analysis_protocol(protocol_of(&args)?);
            let n = args.get_or("n", 120usize).map_err(err)?;
            let alpha = args.get_or("alpha", 0.1f64).map_err(err)?;
            let x = args.get_or("x", 128u64).map_err(err)?;
            let rounds = args.get_or("rounds", 40usize).map_err(err)?;
            let b = n / 10;
            let attacked = ((n as f64) * alpha).round() as usize;

            println!("closed-form {protocol}: n={n} b={b} attacked={attacked} x={x}");
            let curve = analysis_cdf(protocol, n, b, 0.01, 4, attacked, x, rounds);
            let mut t = Table::new(vec!["round".into(), "E[fraction with M]".into()]);
            for (r, f) in curve.iter().enumerate().skip(1) {
                t.row(vec![r.to_string(), format!("{f:.4}")]);
                if *f > 0.9999 {
                    break;
                }
            }
            println!("{t}");
            match curve.iter().position(|f| *f >= 0.99) {
                Some(r) => println!("expected fraction reaches 99% at round {r}"),
                None => println!("does not reach 99% within {rounds} rounds"),
            }
        }
        "probs" => {
            let n = args.get_or("n", 1000usize).map_err(err)?;
            let f = args.get_or("f", 4usize).map_err(err)?;
            let x = args.get_or("x", 128u64).map_err(err)?;
            let mut t = Table::new(vec!["quantity".into(), "value".into()]);
            t.row(vec![
                "p_u (non-attacked acceptance)".into(),
                format!("{:.4}", drum_analysis::p_u(n, f)),
            ]);
            t.row(vec![
                format!("p_a (x={x})"),
                format!("{:.4}", drum_analysis::p_a(n, f, x)),
            ]);
            t.row(vec![
                "bound F/x".into(),
                format!("{:.4}", f as f64 / x as f64),
            ]);
            if x >= f as u64 {
                t.row(vec![
                    format!("p~ (Pull source escape, x={x})"),
                    format!("{:.4}", drum_analysis::p_tilde(n, f, x)),
                ]);
                t.row(vec![
                    "E[rounds to escape source]".into(),
                    format!(
                        "{:.2}",
                        drum_analysis::expected_rounds_to_leave_source(n, f, x)
                    ),
                ]);
            }
            println!("{t}");
        }
        "cluster" => {
            let protocol = protocol_of(&args)?;
            let n = args.get_or("n", 12usize).map_err(err)?;
            let x = args.get_or("x", 64.0f64).map_err(err)?;
            let attacked = args.get_or("attacked", n / 10).map_err(err)?;
            let round_ms = args.get_or("round-ms", 100u64).map_err(err)?;
            let messages = args.get_or("messages", 200u64).map_err(err)?;
            let rate = args.get_or("rate", 40.0f64).map_err(err)?;
            let seed = args.get_or("seed", 20040628u64).map_err(err)?;
            let shards = args.get_or("shards", 0usize).map_err(err)?;

            let mut cfg = paper_cluster_config(
                protocol,
                n,
                attacked,
                x,
                Duration::from_millis(round_ms),
                seed,
            );
            cfg.shards = shards;
            cfg.adversary = adversary_of(&args)?;
            cfg.net.gossip = cluster_gossip(&args, cfg.net.gossip);
            println!(
                "cluster {protocol}: n={n} attacked={attacked} x={x} round={round_ms}ms \
                 {messages} msgs at {rate}/s, {} shard(s)",
                cfg.resolved_shards()
            );
            let report = throughput_experiment(cfg, messages, rate, 50, Duration::from_secs(3))
                .map_err(|e| e.to_string())?;
            let mut t = Table::new(vec![
                "receiver".into(),
                "attacked".into(),
                "received".into(),
                "throughput".into(),
                "mean latency".into(),
            ]);
            for r in &report.receivers {
                t.row(vec![
                    r.id.to_string(),
                    if r.attacked {
                        "yes".into()
                    } else {
                        "no".into()
                    },
                    r.received.to_string(),
                    format!("{:.1}/s", r.throughput),
                    format!("{:.1} ms", r.mean_latency_ms),
                ]);
            }
            println!("{t}");
            println!(
                "mean throughput {:.1} msg/s, mean latency {:.1} ms",
                report.mean_throughput(),
                report.mean_latency_ms()
            );
            println!(
                "crypto.compress_calls per delivered message {:.2} ({} calls, {} deliveries)",
                report.compress_calls as f64 / report.delivered.max(1) as f64,
                report.compress_calls,
                report.delivered
            );
            println!(
                "net.sockets_opened per engine-round {:.2} ({} sockets, {} engine-rounds)",
                report.sockets_opened as f64 / report.rounds.max(1) as f64,
                report.sockets_opened,
                report.rounds
            );
            println!(
                "net.bind_failed {} (random-port allocations that could bind nothing)",
                report.bind_failed
            );
            println!(
                "net.shard_wakeups per engine-round {:.2} ({} wakeups, {} engine-rounds)",
                report.shard_wakeups as f64 / report.rounds.max(1) as f64,
                report.shard_wakeups,
                report.rounds
            );
        }
        "figures" => {
            let out_dir = std::path::PathBuf::from(args.get("out").unwrap_or("results"));
            let selected = select_figures(args.get("only"))?;
            if args.flag("full") {
                drum_lab::set_scale(drum_lab::Scale::Full);
            } else if args.flag("quick") {
                drum_lab::set_scale(drum_lab::Scale::Smoke);
            } else {
                drum_lab::set_scale(drum_lab::Scale::Quick);
            }

            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("create {}: {e}", out_dir.display()))?;

            // Figures run sequentially: each one's simulation sweeps
            // already keep every thread busy, and the cluster figures
            // bind real UDP sockets that should not fight a concurrent
            // cluster for ports.
            println!(
                "regenerating {} figure(s) into {} ({} thread(s))",
                selected.len(),
                out_dir.display(),
                drum_sim::par::threads()
            );
            let started = std::time::Instant::now();
            for (name, figure) in selected {
                let path = out_dir.join(format!("{name}.txt"));
                let fig_started = std::time::Instant::now();
                let mut out = std::io::BufWriter::new(
                    std::fs::File::create(&path)
                        .map_err(|e| format!("create {}: {e}", path.display()))?,
                );
                figure(&mut out).map_err(|e| format!("write {}: {e}", path.display()))?;
                use std::io::Write as _;
                out.flush()
                    .map_err(|e| format!("flush {}: {e}", path.display()))?;
                println!("  {name}  {:>6.1}s", fig_started.elapsed().as_secs_f64());
            }
            println!("done in {:.1}s", started.elapsed().as_secs_f64());
        }
        other => {
            return Err(format!("unknown command '{other}'; try 'drum-lab help'"));
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace()).expect("valid command line")
    }

    #[test]
    fn cluster_ablation_flags_keep_the_configured_protocol() {
        let gossip = cluster_gossip(
            &args("cluster --protocol push --shared-bounds --no-random-ports"),
            GossipConfig::push(),
        );
        assert_eq!(gossip.variant, ProtocolVariant::Push);
        assert_eq!(gossip.bound_mode, BoundMode::SharedControl);
        assert!(!gossip.random_ports);
        assert_eq!(
            cluster_gossip(&args("cluster"), GossipConfig::pull()),
            GossipConfig::pull()
        );
    }

    #[test]
    fn figures_only_rejects_any_unknown_name() {
        let err = select_figures(Some("fig01,fig99")).expect_err("fig99 is no figure");
        assert!(err.contains("'fig99'"), "{err}");
        assert!(
            err.contains("fig01, fig02"),
            "must list the known figures: {err}"
        );
        let picked = select_figures(Some("fig03,fig01")).expect("known figures");
        assert_eq!(
            picked.iter().map(|f| f.0).collect::<Vec<_>>(),
            ["fig01", "fig03"]
        );
        assert_eq!(select_figures(None).expect("all").len(), FIGURES.len());
    }
}
