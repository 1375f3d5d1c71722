//! Protocol configuration.
//!
//! One configuration type drives all three evaluated protocols (§5): **Drum**
//! (push + pull with split fan-out), **Push** (push only) and **Pull** (pull
//! only), plus the two ablation variants of §9 (no random ports; shared
//! control-message bounds). [`AdversaryKind`] names the attacker a DoS
//! scenario runs against them.

/// Which gossip protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolVariant {
    /// Drum: push and pull combined, fan-out split evenly (§4).
    Drum,
    /// Push-only baseline.
    Push,
    /// Pull-only baseline.
    Pull,
}

impl core::fmt::Display for ProtocolVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolVariant::Drum => f.write_str("Drum"),
            ProtocolVariant::Push => f.write_str("Push"),
            ProtocolVariant::Pull => f.write_str("Pull"),
        }
    }
}

/// The adversary a DoS scenario states (an extension beyond the paper,
/// whose adversary is [`AdversaryKind::Static`]). One vocabulary for the
/// whole workspace: `drum-sim` and `drum-net` each interpret it, and every
/// kind redistributes the configured budget (`x` per attacked process per
/// round), never enlarges it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AdversaryKind {
    /// The paper's fixed flood: the attacked set never moves and each
    /// victim's `x` is split across its protocol's channels (§5).
    #[default]
    Static,
    /// Moves the attack every `every` rounds (≥ 1), chasing the victims
    /// the way an adaptive attacker chases port rotation.
    TargetChasing {
        /// Rounds between re-aims.
        every: u32,
    },
    /// Concentrates the whole group budget `x·attacked` on the source,
    /// trying to eclipse it from the group.
    Eclipse,
    /// Spends each victim's whole budget on pull-requests, which cost the
    /// victim a reply-budget slot rather than a reception slot only.
    PullAbuse,
    /// Resends one previously-seen datagram per channel instead of
    /// fabricating fresh ones: budget-identical to `Static`, but maximal
    /// identical fan-in for the victim's verifier.
    Replay,
}

impl AdversaryKind {
    /// Every kind, for CLI listings and test/figure sweeps.
    /// `TargetChasing` appears with its default cadence of 1.
    pub const ALL: [AdversaryKind; 5] = [
        AdversaryKind::Static,
        AdversaryKind::TargetChasing { every: 1 },
        AdversaryKind::Eclipse,
        AdversaryKind::PullAbuse,
        AdversaryKind::Replay,
    ];

    /// Stable name (used by `--adversary`, traces and figures).
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::Static => "static",
            AdversaryKind::TargetChasing { .. } => "chase",
            AdversaryKind::Eclipse => "eclipse",
            AdversaryKind::PullAbuse => "pull-abuse",
            AdversaryKind::Replay => "replay",
        }
    }

    /// Parses a name as printed by [`AdversaryKind::name`]; `chase` also
    /// takes a cadence suffix (`chase:4` = re-aim every 4 rounds). Only
    /// valid kinds come back (`chase:0` is `None`).
    pub fn parse(s: &str) -> Option<AdversaryKind> {
        let kind = match s {
            "static" => AdversaryKind::Static,
            "chase" => AdversaryKind::TargetChasing { every: 1 },
            "eclipse" => AdversaryKind::Eclipse,
            "pull-abuse" => AdversaryKind::PullAbuse,
            "replay" => AdversaryKind::Replay,
            other => AdversaryKind::TargetChasing {
                every: other.strip_prefix("chase:")?.parse().ok()?,
            },
        };
        kind.is_valid().then_some(kind)
    }

    /// Whether the kind can run: a chase re-aims every `every ≥ 1` rounds,
    /// so `TargetChasing { every: 0 }` is invalid. The simulator's and the
    /// cluster harness's scenario checks refuse it.
    pub fn is_valid(self) -> bool {
        !matches!(self, AdversaryKind::TargetChasing { every: 0 })
    }

    /// The adversary's budget split, decided here only: each of `flooded`
    /// victims' rates when `attacked` processes are attacked with `x`
    /// fabricated messages a round each. Every kind spends `x·attacked`,
    /// so one that floods fewer victims at once (eclipse: one) gives each
    /// of them more. A victim's share goes `x/2 + x/2` to Drum's channels
    /// (§5), all to Push's or Pull's one channel, and all to pull-requests
    /// under pull-abuse.
    ///
    /// ```
    /// use drum_core::config::{AdversaryKind::Eclipse, FloodRates, ProtocolVariant::Drum};
    ///
    /// let rates = FloodRates { push: 768.0, pull: 768.0 };
    /// assert_eq!(Eclipse.rates(Drum, 128.0, 12, 1), rates);
    /// ```
    pub fn rates(
        self,
        variant: ProtocolVariant,
        x: f64,
        attacked: usize,
        flooded: usize,
    ) -> FloodRates {
        if flooded == 0 {
            return FloodRates::default();
        }
        // Exactly `x` when every victim is flooded, not a rounded `x·k/k`.
        let share = x * (attacked as f64 / flooded as f64);
        let (push, pull) = match (self, variant) {
            (AdversaryKind::PullAbuse, _) | (_, ProtocolVariant::Pull) => (0.0, share),
            (_, ProtocolVariant::Push) => (share, 0.0),
            (_, ProtocolVariant::Drum) => (share / 2.0, share / 2.0),
        };
        FloodRates { push, pull }
    }
}

/// One victim's fabricated messages per round on each channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FloodRates {
    /// Push-offers, to the well-known push port.
    pub push: f64,
    /// Pull-requests, before [`FloodRates::pull_split`].
    pub pull: f64,
}

impl FloodRates {
    /// The pull rate as `(requests, replies)`: against §9's fixed reply
    /// ports half of it goes to the victim's knowable pull-reply port.
    pub fn pull_split(self, random_ports: bool) -> (f64, f64) {
        if random_ports {
            (self.pull, 0.0)
        } else {
            (self.pull / 2.0, self.pull / 2.0)
        }
    }
}

/// How reception bounds are accounted (§9, Figure 12(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundMode {
    /// Separate bound per operation — Drum's design: "a DoS attack on one
    /// operation does not hamper the other".
    Separate,
    /// One joint bound for all control messages (pull-requests, push-offers,
    /// push-replies) — the weakened ablation variant.
    SharedControl,
}

/// Errors validating a [`GossipConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Fan-out must be at least 1.
    ZeroFanOut,
    /// Drum needs an even fan-out to split between push and pull.
    OddDrumFanOut {
        /// The rejected fan-out.
        fan_out: usize,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroFanOut => write!(f, "fan-out must be at least 1"),
            ConfigError::OddDrumFanOut { fan_out } => {
                write!(
                    f,
                    "Drum requires an even fan-out to split push/pull, got {fan_out}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a gossip endpoint.
///
/// Use [`GossipConfig::drum`], [`GossipConfig::push`] or
/// [`GossipConfig::pull`] for the paper's standard settings (`F = 4`), then
/// customize with the builder-style setters.
///
/// # Examples
///
/// ```
/// use drum_core::config::{GossipConfig, ProtocolVariant};
///
/// let config = GossipConfig::drum().with_fan_out(8).unwrap();
/// assert_eq!(config.view_push_size(), 4);
/// assert_eq!(config.view_pull_size(), 4);
/// assert_eq!(config.variant, ProtocolVariant::Drum);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipConfig {
    /// Protocol variant.
    pub variant: ProtocolVariant,
    /// Combined fan-out `F` (paper default 4). Drum splits it F/2 + F/2.
    pub fan_out: usize,
    /// Bound accounting mode (default [`BoundMode::Separate`]).
    pub bound_mode: BoundMode,
    /// Whether reply/data ports are randomly chosen and sealed (default
    /// `true`; `false` reproduces the Figure 12(a) ablation).
    pub random_ports: bool,
    /// Rounds a message stays buffered; 0 = forever (§8.2 uses 10).
    pub buffer_rounds: u64,
    /// Max new messages sent to one partner per round (§8.2 uses 80).
    pub max_msgs_per_exchange: usize,
    /// How many rounds a random-port listener stays open ("terminated after
    /// a few rounds", §4).
    pub port_lifetime_rounds: u64,
}

impl GossipConfig {
    /// Drum with the paper's defaults: F=4 (2 push + 2 pull), separate
    /// bounds, random ports, 10-round buffers, 80 messages/exchange.
    pub fn drum() -> Self {
        GossipConfig {
            variant: ProtocolVariant::Drum,
            fan_out: 4,
            bound_mode: BoundMode::Separate,
            random_ports: true,
            buffer_rounds: 10,
            max_msgs_per_exchange: 80,
            port_lifetime_rounds: 3,
        }
    }

    /// Push-only baseline with F=4 on the push channel.
    pub fn push() -> Self {
        GossipConfig {
            variant: ProtocolVariant::Push,
            ..Self::drum()
        }
    }

    /// Pull-only baseline with F=4 on the pull channel.
    pub fn pull() -> Self {
        GossipConfig {
            variant: ProtocolVariant::Pull,
            ..Self::drum()
        }
    }

    /// Returns a copy with a different fan-out.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroFanOut`] if `fan_out == 0`.
    /// * [`ConfigError::OddDrumFanOut`] if the variant is Drum and `fan_out`
    ///   is odd.
    pub fn with_fan_out(mut self, fan_out: usize) -> Result<Self, ConfigError> {
        if fan_out == 0 {
            return Err(ConfigError::ZeroFanOut);
        }
        if self.variant == ProtocolVariant::Drum && !fan_out.is_multiple_of(2) {
            return Err(ConfigError::OddDrumFanOut { fan_out });
        }
        self.fan_out = fan_out;
        Ok(self)
    }

    /// Returns a copy with the given bound mode.
    pub fn with_bound_mode(mut self, mode: BoundMode) -> Self {
        self.bound_mode = mode;
        self
    }

    /// Returns a copy with random ports enabled/disabled.
    pub fn with_random_ports(mut self, enabled: bool) -> Self {
        self.random_ports = enabled;
        self
    }

    /// Returns a copy with the given buffer retention.
    pub fn with_buffer_rounds(mut self, rounds: u64) -> Self {
        self.buffer_rounds = rounds;
        self
    }

    /// Returns a copy with the given per-exchange message cap.
    pub fn with_max_msgs_per_exchange(mut self, max: usize) -> Self {
        self.max_msgs_per_exchange = max;
        self
    }

    /// Size of `view_push` (0 for Pull).
    pub fn view_push_size(&self) -> usize {
        match self.variant {
            ProtocolVariant::Drum => self.fan_out / 2,
            ProtocolVariant::Push => self.fan_out,
            ProtocolVariant::Pull => 0,
        }
    }

    /// Size of `view_pull` (0 for Push).
    pub fn view_pull_size(&self) -> usize {
        match self.variant {
            ProtocolVariant::Drum => self.fan_out / 2,
            ProtocolVariant::Push => 0,
            ProtocolVariant::Pull => self.fan_out,
        }
    }

    /// Per-round bound on accepted push(-offer) messages (`F_in-push`,
    /// Appendix C: F/2 in Drum, F in Push, 0 in Pull).
    pub fn f_in_push(&self) -> usize {
        self.view_push_size()
    }

    /// Per-round bound on accepted pull-requests (`F_in-pull`).
    pub fn f_in_pull(&self) -> usize {
        self.view_pull_size()
    }

    /// Whether the variant uses the push operation.
    pub fn uses_push(&self) -> bool {
        self.view_push_size() > 0
    }

    /// Whether the variant uses the pull operation.
    pub fn uses_pull(&self) -> bool {
        self.view_pull_size() > 0
    }
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self::drum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drum_splits_fan_out() {
        let c = GossipConfig::drum();
        assert_eq!(c.fan_out, 4);
        assert_eq!(c.view_push_size(), 2);
        assert_eq!(c.view_pull_size(), 2);
        assert_eq!(c.f_in_push(), 2);
        assert_eq!(c.f_in_pull(), 2);
        assert!(c.uses_push() && c.uses_pull());
    }

    #[test]
    fn push_uses_full_fan_out() {
        let c = GossipConfig::push();
        assert_eq!(c.view_push_size(), 4);
        assert_eq!(c.view_pull_size(), 0);
        assert!(c.uses_push() && !c.uses_pull());
    }

    #[test]
    fn pull_uses_full_fan_out() {
        let c = GossipConfig::pull();
        assert_eq!(c.view_push_size(), 0);
        assert_eq!(c.view_pull_size(), 4);
        assert!(!c.uses_push() && c.uses_pull());
    }

    #[test]
    fn fan_out_validation() {
        assert_eq!(
            GossipConfig::drum().with_fan_out(0).unwrap_err(),
            ConfigError::ZeroFanOut
        );
        assert_eq!(
            GossipConfig::drum().with_fan_out(5).unwrap_err(),
            ConfigError::OddDrumFanOut { fan_out: 5 }
        );
        // Odd fan-out fine for Push/Pull.
        assert!(GossipConfig::push().with_fan_out(5).is_ok());
        assert!(GossipConfig::pull().with_fan_out(3).is_ok());
    }

    #[test]
    fn builder_setters() {
        let c = GossipConfig::drum()
            .with_bound_mode(BoundMode::SharedControl)
            .with_random_ports(false)
            .with_buffer_rounds(5)
            .with_max_msgs_per_exchange(10);
        assert_eq!(c.bound_mode, BoundMode::SharedControl);
        assert!(!c.random_ports);
        assert_eq!(c.buffer_rounds, 5);
        assert_eq!(c.max_msgs_per_exchange, 10);
    }

    #[test]
    fn default_is_drum() {
        assert_eq!(GossipConfig::default(), GossipConfig::drum());
    }

    #[test]
    fn variant_display() {
        assert_eq!(ProtocolVariant::Drum.to_string(), "Drum");
        assert_eq!(ProtocolVariant::Push.to_string(), "Push");
        assert_eq!(ProtocolVariant::Pull.to_string(), "Pull");
    }

    #[test]
    fn parse_round_trips_every_kind() {
        for kind in AdversaryKind::ALL {
            assert_eq!(AdversaryKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            AdversaryKind::parse("chase:4"),
            Some(AdversaryKind::TargetChasing { every: 4 })
        );
        assert_eq!(AdversaryKind::parse("chase:0"), None);
        assert!(!AdversaryKind::TargetChasing { every: 0 }.is_valid());
        assert_eq!(AdversaryKind::parse("nonsense"), None);
        assert_eq!(AdversaryKind::default(), AdversaryKind::Static);
    }

    #[test]
    fn every_kind_spends_the_group_budget() {
        use ProtocolVariant::{Drum, Pull, Push};
        for kind in AdversaryKind::ALL {
            for variant in [Drum, Push, Pull] {
                for x in [0.1, 2.5, 7.0, 128.0] {
                    for attacked in [1usize, 3, 5, 12] {
                        for flooded in [1, attacked] {
                            let r = kind.rates(variant, x, attacked, flooded);
                            let spent = (r.push + r.pull) * flooded as f64;
                            let budget = x * attacked as f64;
                            assert!(
                                (spent - budget).abs() <= 1e-9 * budget,
                                "{kind:?} {variant} x={x} {attacked}/{flooded}: {spent}"
                            );
                            let abuse = kind == AdversaryKind::PullAbuse;
                            assert_eq!(r.push > 0.0, variant != Pull && !abuse);
                            assert_eq!(r.pull > 0.0, variant != Push || abuse);
                        }
                    }
                }
            }
        }
        // Flooding every victim leaves the paper's rates exact, fractions
        // included; pull-abuse moves the push half, whatever the variant.
        let r = AdversaryKind::Static.rates(Drum, 0.1, 3, 3);
        assert_eq!(
            r,
            FloodRates {
                push: 0.05,
                pull: 0.05
            }
        );
        let r = AdversaryKind::PullAbuse.rates(Push, 0.1, 3, 3);
        assert_eq!(
            r,
            FloodRates {
                push: 0.0,
                pull: 0.1
            }
        );
        assert_eq!(
            AdversaryKind::Eclipse.rates(Drum, 3.0, 0, 0),
            FloodRates::default()
        );
    }

    #[test]
    fn fixed_reply_ports_take_half_the_pull_rate() {
        let r = FloodRates {
            push: 32.0,
            pull: 64.0,
        };
        assert_eq!(r.pull_split(true), (64.0, 0.0));
        assert_eq!(r.pull_split(false), (32.0, 32.0));
    }

    #[test]
    fn error_display() {
        assert!(ConfigError::ZeroFanOut.to_string().contains("at least 1"));
        assert!(ConfigError::OddDrumFanOut { fan_out: 3 }
            .to_string()
            .contains('3'));
    }
}
