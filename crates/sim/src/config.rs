//! Simulation scenario configuration (§7 of the paper).

use drum_core::ProtocolVariant;

use crate::adversary::AdversaryKind;

/// Process roles inside a simulated group.
///
/// Index layout within `0..n`:
/// `[attacked correct | non-attacked correct | crashed | malicious]`,
/// with the message source always at index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Correct process currently under DoS attack.
    AttackedCorrect,
    /// Correct process not under attack.
    Correct,
    /// Crashed: sends nothing, responds to nothing.
    Crashed,
    /// Malicious group member: participates in the attack, drops all valid
    /// gossip sent to it, propagates nothing.
    Malicious,
}

/// A DoS attack against a subset of the correct processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Number of attacked correct processes (the source is always one of
    /// them, per §5: "we assume the message source is being attacked").
    pub attacked: usize,
    /// Fabricated messages per attacked process per round (`x`). May be
    /// fractional for fixed-budget sweeps; randomized rounding is applied
    /// per round. Drum splits it x/2 push + x/2 pull (§5).
    pub x_per_round: f64,
    /// Extension beyond the paper: every `k` rounds the adversary re-draws
    /// its target set uniformly among the correct processes (`None` = the
    /// paper's static targeting). Lets us ask whether a *mobile* attacker
    /// does better — it does not, against any of the protocols, because no
    /// per-target state survives the move.
    pub rotate_every: Option<u32>,
    /// Which adversary drives targeting and channel rates
    /// ([`crate::adversary`]). [`AdversaryKind::Static`] is the paper's
    /// fixed flood.
    pub strategy: AdversaryKind,
}

impl AttackConfig {
    /// Total attack strength `B = x·(attacked)` per round.
    pub fn total_strength(&self) -> f64 {
        self.attacked as f64 * self.x_per_round
    }
}

/// Full description of one simulated scenario.
///
/// # Examples
///
/// ```
/// use drum_core::ProtocolVariant;
/// use drum_sim::config::SimConfig;
///
/// // The paper's Figure 3(a) point: n=120, 10% malicious, 10% attacked, x=128.
/// let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0);
/// assert_eq!(cfg.malicious, 12);
/// assert_eq!(cfg.attack.unwrap().attacked, 12);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Group size `n`.
    pub n: usize,
    /// Protocol to simulate.
    pub protocol: ProtocolVariant,
    /// Combined fan-out `F` (default 4).
    pub fan_out: usize,
    /// Link-loss probability (default 0.01).
    pub loss: f64,
    /// Number of malicious group members (they emit the attack and drop
    /// valid messages). 10% of `n` in the paper's DoS scenarios.
    pub malicious: usize,
    /// Number of crashed processes (Figure 2(b) scenarios).
    pub crashed: usize,
    /// The DoS attack, if any.
    pub attack: Option<AttackConfig>,
    /// Random (concealed) reply ports; `false` reproduces Figure 12(a)'s
    /// weakened variant where pull-replies go to a well-known port.
    pub random_ports: bool,
    /// Hard cap on simulated rounds per trial.
    pub max_rounds: u32,
    /// Fraction of correct processes that must hold `M` (0.99 in §5).
    pub threshold: f64,
}

/// Errors validating a [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimConfigError {
    /// Fewer than 2 processes, or roles exceed the group size.
    BadPopulation,
    /// Loss or threshold outside `[0, 1)` / `(0, 1]`.
    BadProbability,
    /// Fan-out invalid for the protocol (0, or odd for Drum).
    BadFanOut,
    /// Attack configured with zero targets.
    EmptyAttack,
    /// Adversary kind that cannot run (`TargetChasing { every: 0 }`).
    BadAdversary,
}

impl core::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimConfigError::BadPopulation => write!(f, "role counts exceed group size"),
            SimConfigError::BadProbability => write!(f, "probability parameter out of range"),
            SimConfigError::BadFanOut => write!(f, "fan-out invalid for protocol"),
            SimConfigError::EmptyAttack => write!(f, "attack must target at least one process"),
            SimConfigError::BadAdversary => write!(f, "chase cadence must be at least 1 round"),
        }
    }
}

impl std::error::Error for SimConfigError {}

impl SimConfig {
    /// Baseline failure-free scenario: `n` processes, F=4, 1% loss.
    pub fn baseline(protocol: ProtocolVariant, n: usize) -> Self {
        SimConfig {
            n,
            protocol,
            fan_out: 4,
            loss: 0.01,
            malicious: 0,
            crashed: 0,
            attack: None,
            random_ports: true,
            max_rounds: 500,
            threshold: 0.99,
        }
    }

    /// The paper's standard DoS scenario: 10% of the group malicious, 10%
    /// of the group attacked (source included), `x` fabricated messages per
    /// attacked process per round.
    pub fn paper_attack(protocol: ProtocolVariant, n: usize, x: f64) -> Self {
        let tenth = n / 10;
        SimConfig {
            malicious: tenth,
            attack: Some(AttackConfig {
                attacked: tenth,
                x_per_round: x,
                rotate_every: None,
                strategy: AdversaryKind::Static,
            }),
            ..Self::baseline(protocol, n)
        }
    }

    /// DoS scenario with an explicit attacked fraction `alpha` (of the whole
    /// group, as in the paper's α) and per-target rate `x`.
    pub fn attack_alpha(protocol: ProtocolVariant, n: usize, alpha: f64, x: f64) -> Self {
        let attacked = ((n as f64 * alpha).round() as usize).max(1);
        SimConfig {
            malicious: n / 10,
            attack: Some(AttackConfig {
                attacked,
                x_per_round: x,
                rotate_every: None,
                strategy: AdversaryKind::Static,
            }),
            ..Self::baseline(protocol, n)
        }
    }

    /// Sets the adversary strategy on an attack scenario (no-op when no
    /// attack is configured).
    pub fn with_adversary(mut self, kind: AdversaryKind) -> Self {
        if let Some(a) = self.attack.as_mut() {
            a.strategy = kind;
        }
        self
    }

    /// The configured adversary strategy (static when unattacked).
    pub fn adversary(&self) -> AdversaryKind {
        self.attack.map(|a| a.strategy).unwrap_or_default()
    }

    /// Number of correct processes (`n − crashed − malicious`).
    pub fn correct(&self) -> usize {
        self.n - self.crashed - self.malicious
    }

    /// `count` as a fraction of the correct population, with the
    /// all-crashed/all-malicious degenerate case pinned to `0.0` instead of
    /// letting a `0/0 = NaN` propagate into experiment tables.
    pub fn fraction_of_correct(&self, count: usize) -> f64 {
        let correct = self.correct();
        if correct == 0 {
            0.0
        } else {
            count as f64 / correct as f64
        }
    }

    /// Number of attacked correct processes.
    pub fn attacked(&self) -> usize {
        self.attack.map(|a| a.attacked).unwrap_or(0)
    }

    /// Per-round fabricated-message rate per attacked process.
    pub fn x_rate(&self) -> f64 {
        self.attack.map(|a| a.x_per_round).unwrap_or(0.0)
    }

    /// The role of process `idx` under the fixed index layout.
    pub fn role_of(&self, idx: usize) -> Role {
        let attacked = self.attacked();
        let correct_end = self.n - self.malicious - self.crashed;
        if idx < attacked {
            Role::AttackedCorrect
        } else if idx < correct_end {
            Role::Correct
        } else if idx < self.n - self.malicious {
            Role::Crashed
        } else {
            Role::Malicious
        }
    }

    /// `|view_push|` for the configured protocol.
    pub fn view_push(&self) -> usize {
        match self.protocol {
            ProtocolVariant::Drum => self.fan_out / 2,
            ProtocolVariant::Push => self.fan_out,
            ProtocolVariant::Pull => 0,
        }
    }

    /// `|view_pull|` for the configured protocol.
    pub fn view_pull(&self) -> usize {
        match self.protocol {
            ProtocolVariant::Drum => self.fan_out / 2,
            ProtocolVariant::Push => 0,
            ProtocolVariant::Pull => self.fan_out,
        }
    }

    /// Fabricated-message rate aimed at the push channel of one attacked
    /// process (x/2 for Drum, x for Push, 0 for Pull — §5).
    pub fn x_push(&self) -> f64 {
        match self.protocol {
            ProtocolVariant::Drum => self.x_rate() / 2.0,
            ProtocolVariant::Push => self.x_rate(),
            ProtocolVariant::Pull => 0.0,
        }
    }

    /// Fabricated-message rate aimed at the pull channel(s).
    pub fn x_pull(&self) -> f64 {
        match self.protocol {
            ProtocolVariant::Drum => self.x_rate() / 2.0,
            ProtocolVariant::Push => 0.0,
            ProtocolVariant::Pull => self.x_rate(),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimConfigError`] found.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.n < 2 || self.malicious + self.crashed >= self.n {
            return Err(SimConfigError::BadPopulation);
        }
        if !(0.0..1.0).contains(&self.loss)
            || !(0.0..=1.0).contains(&self.threshold)
            || self.threshold == 0.0
        {
            return Err(SimConfigError::BadProbability);
        }
        if self.fan_out == 0
            || (self.protocol == ProtocolVariant::Drum && !self.fan_out.is_multiple_of(2))
        {
            return Err(SimConfigError::BadFanOut);
        }
        if let Some(a) = self.attack {
            if a.attacked == 0 {
                return Err(SimConfigError::EmptyAttack);
            }
            if a.attacked > self.correct() || a.x_per_round < 0.0 {
                return Err(SimConfigError::BadPopulation);
            }
            if !a.strategy.is_valid() {
                return Err(SimConfigError::BadAdversary);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        for p in [
            ProtocolVariant::Drum,
            ProtocolVariant::Push,
            ProtocolVariant::Pull,
        ] {
            SimConfig::baseline(p, 120).validate().unwrap();
        }
    }

    #[test]
    fn paper_attack_layout() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0);
        cfg.validate().unwrap();
        assert_eq!(cfg.correct(), 108);
        assert_eq!(cfg.role_of(0), Role::AttackedCorrect);
        assert_eq!(cfg.role_of(11), Role::AttackedCorrect);
        assert_eq!(cfg.role_of(12), Role::Correct);
        assert_eq!(cfg.role_of(107), Role::Correct);
        assert_eq!(cfg.role_of(108), Role::Malicious);
        assert_eq!(cfg.role_of(119), Role::Malicious);
    }

    #[test]
    fn crashed_layout() {
        let mut cfg = SimConfig::baseline(ProtocolVariant::Push, 100);
        cfg.crashed = 10;
        cfg.validate().unwrap();
        assert_eq!(cfg.correct(), 90);
        assert_eq!(cfg.role_of(89), Role::Correct);
        assert_eq!(cfg.role_of(90), Role::Crashed);
        assert_eq!(cfg.role_of(99), Role::Crashed);
    }

    #[test]
    fn view_and_x_split() {
        let drum = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0);
        assert_eq!(drum.view_push(), 2);
        assert_eq!(drum.view_pull(), 2);
        assert_eq!(drum.x_push(), 64.0);
        assert_eq!(drum.x_pull(), 64.0);

        let push = SimConfig::paper_attack(ProtocolVariant::Push, 120, 128.0);
        assert_eq!(push.view_push(), 4);
        assert_eq!(push.view_pull(), 0);
        assert_eq!(push.x_push(), 128.0);
        assert_eq!(push.x_pull(), 0.0);

        let pull = SimConfig::paper_attack(ProtocolVariant::Pull, 120, 128.0);
        assert_eq!(pull.view_pull(), 4);
        assert_eq!(pull.x_pull(), 128.0);
    }

    #[test]
    fn attack_alpha_rounds_targets() {
        let cfg = SimConfig::attack_alpha(ProtocolVariant::Drum, 120, 0.4, 18.0);
        assert_eq!(cfg.attack.unwrap().attacked, 48);
        assert!((cfg.attack.unwrap().total_strength() - 864.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 120);
        cfg.fan_out = 5;
        assert_eq!(cfg.validate(), Err(SimConfigError::BadFanOut));

        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 120);
        cfg.loss = 1.0;
        assert_eq!(cfg.validate(), Err(SimConfigError::BadProbability));

        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 120);
        cfg.malicious = 120;
        assert_eq!(cfg.validate(), Err(SimConfigError::BadPopulation));

        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 120);
        cfg.attack = Some(AttackConfig {
            attacked: 0,
            x_per_round: 10.0,
            rotate_every: None,
            strategy: AdversaryKind::Static,
        });
        assert_eq!(cfg.validate(), Err(SimConfigError::EmptyAttack));

        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 120);
        cfg.attack = Some(AttackConfig {
            attacked: 500,
            x_per_round: 10.0,
            rotate_every: None,
            strategy: AdversaryKind::Static,
        });
        assert_eq!(cfg.validate(), Err(SimConfigError::BadPopulation));
    }

    #[test]
    fn chase_without_cadence_is_rejected() {
        // Built directly, not parsed: the model would otherwise never
        // retarget and silently run the static flood.
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0)
            .with_adversary(AdversaryKind::TargetChasing { every: 0 });
        assert_eq!(cfg.validate(), Err(SimConfigError::BadAdversary));
        let cfg = cfg.with_adversary(AdversaryKind::TargetChasing { every: 1 });
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn error_display() {
        assert!(SimConfigError::BadFanOut.to_string().contains("fan-out"));
    }
}
