//! Name-keyed construction of strategies and forwarding policies.
//!
//! Every `Strategy` and `ForwardingPolicy` in the workspace is buildable
//! from a spec string — `"sliding(s=10,c=0.05)"`, `"k-walk(k=4)"`,
//! `"flood"` — making this module the single source of truth for the
//! CLI, the experiment harness, and tests. A spec is a registered name
//! optionally followed by `key=value` parameters; omitted parameters take
//! the documented defaults, and the canonical label reported by the
//! constructed object round-trips through [`make_strategy`] /
//! [`make_policy`].
//!
//! Unknown names produce an error that lists every valid name, so a typo
//! at the CLI is self-correcting.

use crate::hybrid::HybridPolicy;
use crate::policy::{AssocPolicy, AssocPolicyConfig};
use crate::strategy::{
    AdaptiveSlidingWindow, LazySlidingWindow, Maintainer, SlidingWindow, StaticRuleset, Strategy,
    TopicSlidingWindow,
};
use arq_assoc::{DecayedPairCounts, LossyPairCounts};
use arq_baselines::{
    expanding_ring, CommunityPolicy, FloodPolicy, InterestShortcuts, KRandomWalk, RoutingIndices,
    SuperPeerPolicy,
};
use arq_gnutella::policy::ForwardingPolicy;
use arq_gnutella::sim::{AdaptPlan, RetryPolicy, RingSchedule, SimConfig};
use arq_gnutella::{FaultPlan, LinkPlan};
use arq_obs::ObsConfig;
use arq_simkern::time::Duration;

/// Every registered strategy name, in registry order.
pub const STRATEGY_NAMES: &[&str] = &[
    "static",
    "sliding",
    "lazy",
    "adaptive",
    "incremental",
    "lossy",
    "topic-sliding",
];

/// Every registered forwarding-policy name, in registry order.
pub const POLICY_NAMES: &[&str] = &[
    "flood",
    "expanding-ring",
    "k-walk",
    "shortcuts",
    "routing-index",
    "superpeer",
    "assoc",
    "assoc-adaptive",
    "hybrid",
    "community",
];

/// A spec failed to parse or named something unregistered.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The name is not a registered strategy.
    UnknownStrategy(String),
    /// The name is not a registered policy.
    UnknownPolicy(String),
    /// The spec's parameter list is malformed or names an unknown key.
    BadSpec {
        /// The offending spec string.
        spec: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownStrategy(name) => write!(
                f,
                "unknown strategy `{name}` (valid: {})",
                STRATEGY_NAMES.join(", ")
            ),
            RegistryError::UnknownPolicy(name) => write!(
                f,
                "unknown policy `{name}` (valid: {})",
                POLICY_NAMES.join(", ")
            ),
            RegistryError::BadSpec { spec, reason } => {
                write!(f, "bad spec `{spec}`: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A spec string split into its name and `key=value` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpec {
    /// The registered name.
    pub name: String,
    /// Parameters in written order.
    pub params: Vec<(String, f64)>,
}

/// Splits `"name(k=v,...)"` (or bare `"name"`) into name and parameters.
/// Does not check the name against a registry — [`make_strategy`] /
/// [`make_policy`] do that.
pub fn parse_spec(spec: &str) -> Result<ParsedSpec, RegistryError> {
    let spec = spec.trim();
    // Structural errors carry the offending spec and the byte offset of
    // the broken construct, so a truncated nested spec buried in a longer
    // command line (`faults(loss=0.1,`) is locatable at a glance.
    let bad = |reason: String| RegistryError::BadSpec {
        spec: spec.to_string(),
        reason,
    };
    let (name, args) = match spec.find('(') {
        None => (spec, None),
        Some(open) => {
            let Some(inner) = spec[open + 1..].strip_suffix(')') else {
                return Err(bad(format!("missing closing `)` for `(` at byte {open}")));
            };
            (&spec[..open], Some(inner))
        }
    };
    if name.is_empty() {
        return Err(bad("empty name".to_string()));
    }
    let mut params = Vec::new();
    if let Some(args) = args {
        for part in args.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            // `part` is a subslice of `spec`, so pointer distance is the
            // parameter's byte offset within the spec string.
            let at = part.as_ptr() as usize - spec.as_ptr() as usize;
            let Some((key, value)) = part.split_once('=') else {
                return Err(bad(format!(
                    "parameter `{part}` at byte {at} is not `key=value`"
                )));
            };
            let value: f64 = value.trim().parse().map_err(|_| {
                bad(format!(
                    "parameter `{part}` at byte {at} has a non-numeric value"
                ))
            })?;
            params.push((key.trim().to_string(), value));
        }
    }
    Ok(ParsedSpec {
        name: name.to_string(),
        params,
    })
}

/// Looks up the parsed parameters against a table of `(key, default)`
/// entries (extra slots in `keys` may be aliases mapping to the same
/// canonical index via `alias_of`). Returns the resolved values in table
/// order, rejecting unknown keys.
struct ParamTable<'a> {
    spec: &'a str,
    keys: &'a [(&'a str, f64)],
    values: Vec<f64>,
}

impl<'a> ParamTable<'a> {
    fn resolve(
        spec: &'a str,
        parsed: &ParsedSpec,
        keys: &'a [(&'a str, f64)],
        aliases: &[(&str, &str)],
    ) -> Result<Self, RegistryError> {
        let mut values: Vec<f64> = keys.iter().map(|&(_, d)| d).collect();
        for (given, value) in &parsed.params {
            let canonical = aliases
                .iter()
                .find(|(a, _)| a == given)
                .map(|&(_, c)| c)
                .unwrap_or(given.as_str());
            let Some(idx) = keys.iter().position(|&(k, _)| k == canonical) else {
                let valid: Vec<&str> = keys.iter().map(|&(k, _)| k).collect();
                let valid = if valid.is_empty() {
                    "none".to_string()
                } else {
                    valid.join(", ")
                };
                return Err(RegistryError::BadSpec {
                    spec: spec.to_string(),
                    reason: format!("unknown parameter `{given}` (valid: {valid})"),
                });
            };
            values[idx] = *value;
        }
        Ok(ParamTable { spec, keys, values })
    }

    fn f64(&self, key: &str) -> f64 {
        let idx = self
            .keys
            .iter()
            .position(|&(k, _)| k == key)
            .expect("lookup of undeclared parameter");
        self.values[idx]
    }

    fn u64(&self, key: &str) -> Result<u64, RegistryError> {
        let v = self.f64(key);
        if v < 0.0 || v.fract() != 0.0 {
            return Err(RegistryError::BadSpec {
                spec: self.spec.to_string(),
                reason: format!("parameter `{key}` must be a non-negative integer, got {v}"),
            });
        }
        Ok(v as u64)
    }

    fn usize(&self, key: &str) -> Result<usize, RegistryError> {
        Ok(self.u64(key)? as usize)
    }

    /// A count the constructors assert to be `>= 1`.
    fn positive(&self, key: &str) -> Result<usize, RegistryError> {
        match self.usize(key)? {
            0 => Err(RegistryError::BadSpec {
                spec: self.spec.to_string(),
                reason: format!("parameter `{key}` must be at least 1, got 0"),
            }),
            v => Ok(v),
        }
    }

    /// A real the constructors assert on: `ok` must hold, or the error
    /// says the parameter `must be {want}`. NaN fails every range.
    fn check(&self, key: &str, ok: fn(f64) -> bool, want: &str) -> Result<f64, RegistryError> {
        let v = self.f64(key);
        if !ok(v) {
            return Err(RegistryError::BadSpec {
                spec: self.spec.to_string(),
                reason: format!("parameter `{key}` must be {want}, got {v}"),
            });
        }
        Ok(v)
    }

    /// A fraction in `[0, 1]` (confidences, attenuations, shares).
    fn unit(&self, key: &str) -> Result<f64, RegistryError> {
        self.check(key, |v| (0.0..=1.0).contains(&v), "in [0, 1]")
    }

    /// A real `>= 1` (support thresholds, backoff factors).
    fn at_least_one(&self, key: &str) -> Result<f64, RegistryError> {
        self.check(key, |v| v >= 1.0, "at least 1")
    }
}

/// Constructs a rule-maintenance strategy from a spec string.
///
/// | name | parameters (default) |
/// |------|----------------------|
/// | `static` | `s` min support (10) |
/// | `sliding` | `s` (10), `c` min confidence (0) |
/// | `lazy` | `s` (10), `p` regeneration period in blocks (10) |
/// | `adaptive` | `s` (10), `h` threshold history (10), `i` initial threshold (0.7) |
/// | `incremental` | `t` decayed-support threshold (10), `hl` half-life in pairs (20000) |
/// | `lossy` | `t` support threshold (10), `eps` Lossy Counting error (5e-5) |
/// | `topic-sliding` | `s` (10) |
///
/// Every value a constructor would assert on is checked here instead, so
/// a bad one comes back as a [`RegistryError::BadSpec`] naming the
/// parameter: the supports `s` and `t` and the counts `p` and `h` are at
/// least 1 (`t` on `lossy` an integer), `c` is in [0, 1], `hl` is
/// positive and `eps` is in (0, 1). `s` is accepted as an alias for `t`
/// on the streaming maintainers, so a generic `--support` CLI flag maps
/// onto every strategy.
pub fn make_strategy(spec: &str) -> Result<Box<dyn Strategy + Send>, RegistryError> {
    let parsed = parse_spec(spec)?;
    let table =
        |keys: &'static [(&'static str, f64)]| ParamTable::resolve(spec, &parsed, keys, &[]);
    let support = |p: &ParamTable| p.positive("s").map(|s| s as u64);
    Ok(match parsed.name.as_str() {
        "static" => Box::new(StaticRuleset::new(support(&table(&[("s", 10.0)])?)?)),
        "sliding" => {
            let p = table(&[("s", 10.0), ("c", 0.0)])?;
            Box::new(SlidingWindow::with_confidence(support(&p)?, p.unit("c")?))
        }
        "lazy" => {
            let p = table(&[("s", 10.0), ("p", 10.0)])?;
            Box::new(LazySlidingWindow::new(support(&p)?, p.positive("p")?))
        }
        "adaptive" => {
            let p = table(&[("s", 10.0), ("h", 10.0), ("i", 0.7)])?;
            Box::new(AdaptiveSlidingWindow::new(
                support(&p)?,
                p.positive("h")?,
                p.f64("i"),
            ))
        }
        "incremental" | "lossy" => Box::new(maintainer(spec, &parsed)?),
        "topic-sliding" => Box::new(TopicSlidingWindow::new(support(&table(&[("s", 10.0)])?)?)),
        other => return Err(RegistryError::UnknownStrategy(other.to_string())),
    })
}

/// The one constructor of the streaming [`Maintainer`], behind both
/// [`make_strategy`] and [`Maintainer::from_spec`].
fn maintainer(spec: &str, parsed: &ParsedSpec) -> Result<Maintainer, RegistryError> {
    let table = |keys| ParamTable::resolve(spec, parsed, keys, &[("s", "t")]);
    match parsed.name.as_str() {
        "incremental" => {
            let p = table(&[("t", 10.0), ("hl", 20_000.0)])?;
            let threshold = p.at_least_one("t")?;
            let hl = p.check("hl", |v| v > 0.0, "positive")?;
            Ok(Maintainer::Incremental {
                counts: DecayedPairCounts::new(hl),
                threshold,
            })
        }
        "lossy" => {
            let p = table(&[("t", 10.0), ("eps", 5e-5)])?;
            let support = p.positive("t")? as u64;
            let eps = p.check("eps", |v| v > 0.0 && v < 1.0, "in (0, 1)")?;
            Ok(Maintainer::Lossy {
                counts: LossyPairCounts::new(eps),
                support,
            })
        }
        other => Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: format!("unknown maintainer `{other}` (valid: incremental, lossy)"),
        }),
    }
}

impl Maintainer {
    /// Builds a maintainer from a spec string with the grammar and
    /// defaults of [`make_strategy`]: `incremental(t=10,hl=20000)`
    /// (support threshold, half-life in pairs) or `lossy(t=10,eps=0.00005)`
    /// (integer support threshold, Lossy Counting error).
    pub fn from_spec(spec: &str) -> Result<Maintainer, RegistryError> {
        maintainer(spec, &parse_spec(spec)?)
    }
}

/// A constructed forwarding policy plus the run-configuration riders its
/// scheme requires.
///
/// Two registered schemes are more than a `select()` implementation:
/// expanding ring needs a reissue schedule installed in the
/// [`SimConfig`], and k-random walks need a long TTL (each walker step
/// costs one message, so the TTL plays a different role than in
/// flooding). Encoding those riders here keeps every experiment and CLI
/// invocation of the same scheme identical.
pub struct BuiltPolicy {
    /// The policy itself.
    pub policy: Box<dyn ForwardingPolicy + Send>,
    /// Reissue schedule to install, if the scheme uses one.
    pub ring: Option<RingSchedule>,
    /// TTL the scheme requires, overriding the run configuration.
    pub ttl: Option<u32>,
    /// Canonical label for metrics. Usually `policy.name()`; differs for
    /// schemes defined by their riders (expanding ring floods, but is
    /// reported as `expanding-ring`).
    pub label: String,
}

impl BuiltPolicy {
    /// Installs this scheme's riders (ring schedule, TTL) into `cfg`.
    pub fn apply_to(&self, cfg: &mut SimConfig) {
        if let Some(ttl) = self.ttl {
            cfg.ttl = ttl;
        }
        if let Some(ring) = &self.ring {
            cfg.ring = Some(ring.clone());
        }
    }
}

/// Constructs a forwarding policy (plus config riders) from a spec
/// string.
///
/// | name | parameters (default) |
/// |------|----------------------|
/// | `flood` | — |
/// | `expanding-ring` | `start` TTL (2), `step` (2), `max` TTL (6), `wait` ticks (1500) |
/// | `k-walk` | `k` walkers (4), `ttl` walker TTL (48) |
/// | `shortcuts` | `cap` per-topic shortcut cap (5), `k` fan-out (2) |
/// | `routing-index` | `horizon` (3), `atten` attenuation (0.5), `k` fan-out (2) |
/// | `superpeer` | `n` core size (16) |
/// | `assoc` | `k` fan-out (2), `s` min decayed support (3), `hl` half-life (500), `top` top-by-support 1/0 (1), `minconf` min confidence (0) |
/// | `assoc-adaptive` | `assoc` params plus `demote` dead-rule factor (0.5), `fw` failure window (20), `ft` miss threshold (0.75) |
/// | `hybrid` | `cap` (5), `k` (2), `s` (3), `hl` (500), `minconf` (0) |
/// | `community` | `n` core size (16), `k` (2), `s` (3), `hl` (500), `minconf` (0) |
///
/// `minconf`, `demote`, `ft` and `atten` (each in [0, 1]), the support
/// `s` and the counts a constructor asserts to be at least 1 (`k`,
/// `cap`, `n`, `horizon`) are validated here, at spec-parse time, so a
/// bad value comes back as a [`RegistryError::BadSpec`] rather than a
/// panic from the policy constructor deep inside a run.
pub fn make_policy(spec: &str) -> Result<BuiltPolicy, RegistryError> {
    let parsed = parse_spec(spec)?;
    let minconf = |p: &ParamTable| p.unit("minconf");
    let support = |p: &ParamTable| p.at_least_one("s");
    let plain = |policy: Box<dyn ForwardingPolicy + Send>| {
        let label = policy.name().to_string();
        BuiltPolicy {
            policy,
            ring: None,
            ttl: None,
            label,
        }
    };
    Ok(match parsed.name.as_str() {
        "flood" => {
            ParamTable::resolve(spec, &parsed, &[], &[])?;
            plain(Box::new(FloodPolicy))
        }
        "expanding-ring" => {
            let p = ParamTable::resolve(
                spec,
                &parsed,
                &[
                    ("start", 2.0),
                    ("step", 2.0),
                    ("max", 6.0),
                    ("wait", 1_500.0),
                ],
                &[],
            )?;
            let (policy, ring) = expanding_ring(
                p.u64("start")? as u32,
                p.u64("step")? as u32,
                p.u64("max")? as u32,
                Duration::from_ticks(p.u64("wait")?),
            );
            BuiltPolicy {
                policy: Box::new(policy),
                ring: Some(ring),
                ttl: None,
                label: "expanding-ring".to_string(),
            }
        }
        "k-walk" => {
            let p = ParamTable::resolve(spec, &parsed, &[("k", 4.0), ("ttl", 48.0)], &[])?;
            BuiltPolicy {
                policy: Box::new(KRandomWalk::new(p.positive("k")?)),
                ring: None,
                ttl: Some(p.u64("ttl")? as u32),
                label: "k-walk".to_string(),
            }
        }
        "shortcuts" => {
            let p = ParamTable::resolve(spec, &parsed, &[("cap", 5.0), ("k", 2.0)], &[])?;
            plain(Box::new(InterestShortcuts::new(
                p.positive("cap")?,
                p.positive("k")?,
            )))
        }
        "routing-index" => {
            let p = ParamTable::resolve(
                spec,
                &parsed,
                &[("horizon", 3.0), ("atten", 0.5), ("k", 2.0)],
                &[],
            )?;
            plain(Box::new(RoutingIndices::new(
                p.positive("horizon")? as u32,
                p.unit("atten")?,
                p.positive("k")?,
            )))
        }
        "superpeer" => {
            let p = ParamTable::resolve(spec, &parsed, &[("n", 16.0)], &[])?;
            plain(Box::new(SuperPeerPolicy::new(p.positive("n")?)))
        }
        "assoc" => {
            let p = ParamTable::resolve(
                spec,
                &parsed,
                &[
                    ("k", 2.0),
                    ("s", 3.0),
                    ("hl", 500.0),
                    ("top", 1.0),
                    ("minconf", 0.0),
                ],
                &[],
            )?;
            plain(Box::new(AssocPolicy::new(AssocPolicyConfig {
                k: p.positive("k")?,
                min_support: support(&p)?,
                min_confidence: minconf(&p)?,
                half_life: p.f64("hl"),
                top_by_support: p.f64("top") != 0.0,
                ..Default::default()
            })))
        }
        "assoc-adaptive" => {
            let p = ParamTable::resolve(
                spec,
                &parsed,
                &[
                    ("k", 2.0),
                    ("s", 3.0),
                    ("hl", 500.0),
                    ("top", 1.0),
                    ("minconf", 0.0),
                    ("demote", 0.5),
                    ("fw", 20.0),
                    ("ft", 0.75),
                ],
                &[],
            )?;
            plain(Box::new(AssocPolicy::new(AssocPolicyConfig {
                k: p.positive("k")?,
                min_support: support(&p)?,
                min_confidence: minconf(&p)?,
                half_life: p.f64("hl"),
                top_by_support: p.f64("top") != 0.0,
                demote: p.unit("demote")?,
                fail_window: p.usize("fw")?,
                fail_threshold: p.unit("ft")?,
            })))
        }
        "hybrid" => {
            let p = ParamTable::resolve(
                spec,
                &parsed,
                &[
                    ("cap", 5.0),
                    ("k", 2.0),
                    ("s", 3.0),
                    ("hl", 500.0),
                    ("minconf", 0.0),
                ],
                &[],
            )?;
            plain(Box::new(HybridPolicy::new(
                p.positive("cap")?,
                p.positive("k")?,
                AssocPolicyConfig {
                    k: p.positive("k")?,
                    min_support: support(&p)?,
                    min_confidence: minconf(&p)?,
                    half_life: p.f64("hl"),
                    top_by_support: true,
                    ..Default::default()
                },
            )))
        }
        "community" => {
            let p = ParamTable::resolve(
                spec,
                &parsed,
                &[
                    ("n", 16.0),
                    ("k", 2.0),
                    ("s", 3.0),
                    ("hl", 500.0),
                    ("minconf", 0.0),
                ],
                &[],
            )?;
            plain(Box::new(CommunityPolicy::new(
                p.positive("n")?,
                p.positive("k")?,
                support(&p)?,
                minconf(&p)?,
                p.f64("hl"),
            )))
        }
        other => return Err(RegistryError::UnknownPolicy(other.to_string())),
    })
}

/// Constructs a [`FaultPlan`] from a spec string:
/// `faults(loss=0.05,jitter=40,crash=0.01,silent=0.02)`.
///
/// All parameters default to zero, so `faults` alone is a valid (no-op)
/// plan; unknown keys are rejected with the valid keys listed.
pub fn make_fault_plan(spec: &str) -> Result<FaultPlan, RegistryError> {
    let parsed = parse_spec(spec)?;
    if parsed.name != "faults" {
        return Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: format!("fault spec must be `faults(...)`, got `{}`", parsed.name),
        });
    }
    let p = ParamTable::resolve(
        spec,
        &parsed,
        &[
            ("loss", 0.0),
            ("jitter", 0.0),
            ("crash", 0.0),
            ("silent", 0.0),
        ],
        &[],
    )?;
    let plan = FaultPlan {
        loss: p.f64("loss"),
        jitter: p.u64("jitter")?,
        crash: p.f64("crash"),
        silent: p.f64("silent"),
    };
    plan.validate().map_err(|e| RegistryError::BadSpec {
        spec: spec.to_string(),
        reason: e.to_string(),
    })?;
    Ok(plan)
}

/// Constructs a [`LinkPlan`] from a spec string:
/// `links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.02,jitter=20,riders=0.2,riderup=2)`.
///
/// `up`/`down`/`riderup` are bandwidths in bytes/tick; `upbuf`/`downbuf`
/// are byte budgets for the bounded buffers; `loss`, `jitter`, and
/// `riders` mirror the fault-plan knobs. All parameters default to zero,
/// so bare `links` is a valid no-op (zero-capacity) plan — but a
/// bandwidth *explicitly given* as zero or negative is rejected, since
/// writing `up=0` almost certainly means a typo rather than "remove the
/// constraint I just asked for". Unknown keys are rejected with the
/// valid keys listed.
pub fn make_link_plan(spec: &str) -> Result<LinkPlan, RegistryError> {
    let parsed = parse_spec(spec)?;
    if parsed.name != "links" {
        return Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: format!("link spec must be `links(...)`, got `{}`", parsed.name),
        });
    }
    let p = ParamTable::resolve(
        spec,
        &parsed,
        &[
            ("up", 0.0),
            ("down", 0.0),
            ("upbuf", 0.0),
            ("downbuf", 0.0),
            ("loss", 0.0),
            ("jitter", 0.0),
            ("riders", 0.0),
            ("riderup", 0.0),
        ],
        &[],
    )?;
    for key in ["up", "down", "riderup"] {
        if parsed.params.iter().any(|(k, v)| k == key && *v <= 0.0) {
            return Err(RegistryError::BadSpec {
                spec: spec.to_string(),
                reason: format!("parameter `{key}` must be positive"),
            });
        }
    }
    let plan = LinkPlan {
        up: p.f64("up"),
        down: p.f64("down"),
        up_buf: p.u64("upbuf")?,
        down_buf: p.u64("downbuf")?,
        loss: p.f64("loss"),
        jitter: p.u64("jitter")?,
        riders: p.f64("riders"),
        rider_up: p.f64("riderup"),
    };
    plan.validate().map_err(|e| RegistryError::BadSpec {
        spec: spec.to_string(),
        reason: e.to_string(),
    })?;
    Ok(plan)
}

/// Constructs an [`AdaptPlan`] from a spec string:
/// `adapt(every=50000,budget=8,degree=2)`.
///
/// `every` is the tumbling adaptation-round interval in ticks; `budget`
/// caps shortcut additions per round; `degree` caps shortcut edges per
/// asker node. Bare `adapt` uses the defaults. All three must be
/// positive; plan-level validation surfaces as a [`RegistryError::BadSpec`].
pub fn make_adapt_plan(spec: &str) -> Result<AdaptPlan, RegistryError> {
    let parsed = parse_spec(spec)?;
    if parsed.name != "adapt" {
        return Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: format!("adapt spec must be `adapt(...)`, got `{}`", parsed.name),
        });
    }
    let p = ParamTable::resolve(
        spec,
        &parsed,
        &[("every", 50_000.0), ("budget", 8.0), ("degree", 2.0)],
        &[],
    )?;
    let plan = AdaptPlan {
        every: Duration::from_ticks(p.u64("every")?),
        budget: p.usize("budget")?,
        degree: p.usize("degree")?,
    };
    plan.validate().map_err(|e| RegistryError::BadSpec {
        spec: spec.to_string(),
        reason: e.to_string(),
    })?;
    Ok(plan)
}

/// Constructs an [`ObsConfig`] from a spec string:
/// `obs(events=1,series=1,fanout=16)`.
///
/// Bare `obs` enables full instrumentation with the defaults. `events`
/// and `series` are 1/0 switches for the event log and the per-block
/// α/ρ/traffic series; `fanout` sets the forward fan-out histogram's
/// bucket count. Unknown keys are rejected with the valid keys listed.
pub fn make_obs_plan(spec: &str) -> Result<ObsConfig, RegistryError> {
    let parsed = parse_spec(spec)?;
    if parsed.name != "obs" {
        return Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: format!("obs spec must be `obs(...)`, got `{}`", parsed.name),
        });
    }
    let p = ParamTable::resolve(
        spec,
        &parsed,
        &[("events", 1.0), ("series", 1.0), ("fanout", 16.0)],
        &[],
    )?;
    let fanout_buckets = p.usize("fanout")?;
    if fanout_buckets == 0 {
        return Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: "parameter `fanout` must be positive".to_string(),
        });
    }
    Ok(ObsConfig {
        events: p.f64("events") != 0.0,
        series: p.f64("series") != 0.0,
        fanout_buckets,
    })
}

/// Constructs a [`RetryPolicy`] from a spec string:
/// `retry(deadline=2000,attempts=3,backoff=2,step=1,maxttl=8)`.
///
/// Unknown keys are rejected with the valid keys listed.
pub fn make_retry_policy(spec: &str) -> Result<RetryPolicy, RegistryError> {
    let parsed = parse_spec(spec)?;
    if parsed.name != "retry" {
        return Err(RegistryError::BadSpec {
            spec: spec.to_string(),
            reason: format!("retry spec must be `retry(...)`, got `{}`", parsed.name),
        });
    }
    let p = ParamTable::resolve(
        spec,
        &parsed,
        &[
            ("deadline", 2_000.0),
            ("attempts", 3.0),
            ("backoff", 2.0),
            ("step", 1.0),
            ("maxttl", 8.0),
        ],
        &[],
    )?;
    let bad = |reason: String| RegistryError::BadSpec {
        spec: spec.to_string(),
        reason,
    };
    let deadline = p.u64("deadline")?;
    if deadline == 0 {
        return Err(bad("parameter `deadline` must be positive".to_string()));
    }
    let attempts = p.u64("attempts")?;
    if attempts == 0 {
        return Err(bad("parameter `attempts` must be positive".to_string()));
    }
    let backoff = p.at_least_one("backoff")?;
    Ok(RetryPolicy {
        deadline: Duration::from_ticks(deadline),
        max_attempts: attempts as u32,
        backoff,
        ttl_step: p.u64("step")? as u32,
        max_ttl: p.u64("maxttl")? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        let p = parse_spec("sliding(s=10, c=0.05)").unwrap();
        assert_eq!(p.name, "sliding");
        assert_eq!(p.params, vec![("s".into(), 10.0), ("c".into(), 0.05)]);
        assert_eq!(parse_spec("flood").unwrap().params, vec![]);
        assert!(parse_spec("x(").is_err());
        assert!(parse_spec("x(a)").is_err());
        assert!(parse_spec("x(a=b)").is_err());
        assert!(parse_spec("").is_err());
    }

    #[test]
    fn strategy_defaults_match_bare_names() {
        for name in STRATEGY_NAMES {
            let bare = make_strategy(name).unwrap();
            assert!(
                bare.name().starts_with(name),
                "{name} constructed as {}",
                bare.name()
            );
        }
    }

    fn strategy_err(spec: &str) -> String {
        match make_strategy(spec) {
            Err(e) => e.to_string(),
            Ok(s) => panic!("`{spec}` unexpectedly built {}", s.name()),
        }
    }

    #[test]
    fn unknown_names_list_alternatives() {
        let e = strategy_err("slidng");
        assert!(e.contains("unknown strategy"), "{e}");
        assert!(e.contains("topic-sliding"), "{e}");
        let e = match make_policy("floood") {
            Err(e) => e.to_string(),
            Ok(p) => panic!("`floood` unexpectedly built {}", p.label),
        };
        assert!(e.contains("unknown policy"), "{e}");
        assert!(e.contains("expanding-ring"), "{e}");
    }

    #[test]
    fn unknown_parameters_are_rejected() {
        let e = strategy_err("sliding(q=3)");
        assert!(e.contains("unknown parameter"), "{e}");
        assert!(make_policy("k-walk(k=0.5)").is_err());
    }

    /// Every value a strategy constructor would assert on is a typed
    /// error naming the parameter, never a panic.
    #[test]
    fn bad_strategy_values_are_errors_naming_the_parameter() {
        for (spec, key) in [
            ("sliding(c=2)", "c"),
            ("sliding(c=-1)", "c"),
            ("sliding(s=0)", "s"),
            ("lazy(p=0)", "p"),
            ("adaptive(h=0)", "h"),
            ("static(s=0)", "s"),
            ("topic-sliding(s=0)", "s"),
            ("incremental(t=0.5)", "t"),
            ("incremental(t=nan)", "t"),
            ("incremental(hl=0)", "hl"),
            ("incremental(hl=-5)", "hl"),
            ("lossy(t=0)", "t"),
            ("lossy(t=2.7)", "t"),
            ("lossy(eps=0)", "eps"),
            ("lossy(eps=2)", "eps"),
        ] {
            let e = strategy_err(spec);
            assert!(e.contains(&format!("parameter `{key}`")), "{spec}: {e}");
        }
    }

    /// `make_strategy` and `Maintainer::from_spec` are one grammar: the
    /// same canonical name for good specs, the same error for bad ones.
    #[test]
    fn maintainer_specs_agree_on_both_surfaces() {
        for spec in [
            "incremental",
            "lossy",
            "incremental(t=4,hl=8000)",
            "lossy(s=5,eps=0.001)",
        ] {
            let m = Maintainer::from_spec(spec).unwrap();
            assert_eq!(make_strategy(spec).unwrap().name(), m.spec(), "{spec}");
        }
        assert_eq!(
            Maintainer::from_spec("lossy").unwrap().spec(),
            "lossy(t=10,eps=0.00005)"
        );
        for spec in [
            "incremental(t=0.5)",
            "incremental(hl=0)",
            "lossy(t=0)",
            "lossy(t=2.7)",
            "lossy(eps=0)",
            "lossy(eps=2)",
            "incremental(zap=1)",
        ] {
            let e = Maintainer::from_spec(spec).unwrap_err();
            assert_eq!(make_strategy(spec).err(), Some(e), "{spec}");
        }
        let e = Maintainer::from_spec("sliding").unwrap_err().to_string();
        assert!(e.contains("unknown maintainer `sliding`"), "{e}");
    }

    #[test]
    fn support_alias_reaches_streaming_maintainers() {
        let s = make_strategy("incremental(s=7)").unwrap();
        assert!(s.name().contains("t=7"), "{}", s.name());
    }

    #[test]
    fn fault_specs_round_trip() {
        let plan = make_fault_plan("faults(loss=0.05,crash=0.01,silent=0.02,jitter=40)").unwrap();
        assert_eq!(plan.loss, 0.05);
        assert_eq!(plan.jitter, 40);
        assert_eq!(plan.crash, 0.01);
        assert_eq!(plan.silent, 0.02);
        assert!(make_fault_plan("faults").unwrap().is_noop());
        assert!(make_fault_plan("faults(loss=1.5)").is_err());
        assert!(make_fault_plan("retry(loss=0.1)").is_err());
    }

    #[test]
    fn structural_errors_carry_spec_and_position() {
        // A truncated nested spec: the missing `)` is reported with the
        // offset of the `(` that never closed.
        let e = parse_spec("faults(loss=0.1,").unwrap_err().to_string();
        assert!(e.contains("`faults(loss=0.1,`"), "{e}");
        assert!(e.contains("missing closing `)` for `(` at byte 6"), "{e}");
        // Malformed parameters are located by byte offset too.
        let e = parse_spec("faults(loss=0.1,jitter)")
            .unwrap_err()
            .to_string();
        assert!(e.contains("parameter `jitter` at byte 16"), "{e}");
        let e = parse_spec("retry(deadline=soon)").unwrap_err().to_string();
        assert!(
            e.contains("parameter `deadline=soon` at byte 6 has a non-numeric value"),
            "{e}"
        );
    }

    #[test]
    fn obs_specs_round_trip() {
        let cfg = make_obs_plan("obs").unwrap();
        assert!(cfg.events && cfg.series);
        assert_eq!(cfg.fanout_buckets, 16);
        let cfg = make_obs_plan("obs(events=0,series=1,fanout=8)").unwrap();
        assert!(!cfg.events);
        assert!(cfg.series);
        assert_eq!(cfg.fanout_buckets, 8);
        assert!(make_obs_plan("obs(fanout=0)").is_err());
        assert!(make_obs_plan("faults(loss=0.1)").is_err());
        let e = make_obs_plan("obs(event=1)").unwrap_err().to_string();
        assert!(e.contains("unknown parameter `event`"), "{e}");
        assert!(e.contains("events"), "{e}");
    }

    #[test]
    fn unknown_fault_keys_list_valid_keys() {
        let e = make_fault_plan("faults(los=0.05)").unwrap_err().to_string();
        assert!(e.contains("unknown parameter `los`"), "{e}");
        for key in ["loss", "jitter", "crash", "silent"] {
            assert!(e.contains(key), "`{key}` missing from: {e}");
        }
    }

    #[test]
    fn link_specs_round_trip() {
        let plan = make_link_plan(
            "links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.02,jitter=20,riders=0.2,riderup=2)",
        )
        .unwrap();
        assert_eq!(plan.up, 8.0);
        assert_eq!(plan.down, 32.0);
        assert_eq!(plan.up_buf, 2_048);
        assert_eq!(plan.down_buf, 8_192);
        assert_eq!(plan.loss, 0.02);
        assert_eq!(plan.jitter, 20);
        assert_eq!(plan.riders, 0.2);
        assert_eq!(plan.rider_up, 2.0);
        assert!(make_link_plan("links").unwrap().is_noop());
        assert!(make_link_plan("faults(loss=0.1)").is_err());
        // Plan-level validation surfaces through the spec error.
        let e = make_link_plan("links(loss=1.5)").unwrap_err().to_string();
        assert!(e.contains("must be in [0, 1)"), "{e}");
        let e = make_link_plan("links(upbuf=64)").unwrap_err().to_string();
        assert!(e.contains("requires the matching bandwidth"), "{e}");
    }

    #[test]
    fn unknown_link_keys_list_valid_keys() {
        let e = make_link_plan("links(upload=8)").unwrap_err().to_string();
        assert!(e.contains("unknown parameter `upload`"), "{e}");
        for key in [
            "up", "down", "upbuf", "downbuf", "loss", "jitter", "riders", "riderup",
        ] {
            assert!(e.contains(key), "`{key}` missing from: {e}");
        }
    }

    #[test]
    fn explicit_zero_link_bandwidth_is_rejected() {
        for spec in ["links(up=0)", "links(down=-4)", "links(riderup=0)"] {
            let e = make_link_plan(spec).unwrap_err().to_string();
            assert!(e.contains("must be positive"), "`{spec}`: {e}");
        }
        // Omitting the key entirely still means "unconstrained".
        assert_eq!(make_link_plan("links(loss=0.1)").unwrap().up, 0.0);
        // A positive rate below the 0.001 B/tick resolution would round
        // to "unconstrained" too; it is rejected by field name.
        let e = make_link_plan("links(up=0.0004,upbuf=100)")
            .unwrap_err()
            .to_string();
        assert!(e.contains("`up`") && e.contains("0.001"), "{e}");
        assert!(make_link_plan("links(up=0.001,upbuf=100)").is_ok());
    }

    #[test]
    fn retry_specs_round_trip() {
        let rp = make_retry_policy("retry(deadline=1500,attempts=4,backoff=1.5,step=2,maxttl=9)")
            .unwrap();
        assert_eq!(rp.deadline, Duration::from_ticks(1_500));
        assert_eq!(rp.max_attempts, 4);
        assert_eq!(rp.backoff, 1.5);
        assert_eq!(rp.ttl_step, 2);
        assert_eq!(rp.max_ttl, 9);
        let defaults = make_retry_policy("retry").unwrap();
        assert_eq!(defaults.max_attempts, 3);
        assert!(make_retry_policy("retry(attempts=0)").is_err());
        assert!(make_retry_policy("retry(deadline=0)").is_err());
        assert!(make_retry_policy("retry(backoff=0.5)").is_err());
        let e = make_retry_policy("retry(atempts=2)")
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown parameter"), "{e}");
        assert!(e.contains("deadline"), "{e}");
    }

    #[test]
    fn adaptive_assoc_builds_with_its_own_label() {
        let built = make_policy("assoc-adaptive(demote=0.25,fw=10)").unwrap();
        assert_eq!(built.label, "assoc-adaptive");
        // Plain assoc stays plain — adaptive defaults must not leak in.
        let plain = make_policy("assoc").unwrap();
        assert_eq!(plain.label, "assoc");
    }

    #[test]
    fn minconf_is_validated_at_spec_parse_time() {
        // A bad value is a typed BadSpec, not a panic from the policy
        // constructor.
        for spec in [
            "assoc(minconf=1.5)",
            "assoc(minconf=-0.1)",
            "assoc-adaptive(minconf=2)",
            "hybrid(minconf=-1)",
            "community(minconf=1.01)",
        ] {
            let e = match make_policy(spec) {
                Err(e) => e,
                Ok(p) => panic!("`{spec}` unexpectedly built {}", p.label),
            };
            assert!(
                matches!(e, RegistryError::BadSpec { .. }),
                "`{spec}` gave {e:?}"
            );
            let msg = e.to_string();
            assert!(msg.contains("`minconf` must be in [0, 1]"), "{msg}");
        }
        // In-range values build on every policy that accepts the key.
        for spec in [
            "assoc(k=4,minconf=0.6)",
            "assoc-adaptive(minconf=1)",
            "hybrid(minconf=0.5)",
            "community(n=8,minconf=0.25)",
        ] {
            make_policy(spec).unwrap();
        }
    }

    fn policy_err(spec: &str) -> String {
        match make_policy(spec) {
            Err(e @ RegistryError::BadSpec { .. }) => e.to_string(),
            Err(e) => panic!("`{spec}` gave {e:?}"),
            Ok(p) => panic!("`{spec}` unexpectedly built {}", p.label),
        }
    }

    #[test]
    fn flood_rejects_parameters_like_every_other_policy() {
        // `flood(ttl=0)` used to run as plain `flood`.
        for spec in ["flood(ttl=0)", "flood(bogus=3)"] {
            let msg = policy_err(spec);
            assert!(msg.contains("unknown parameter"), "{msg}");
            assert!(msg.contains("(valid: none)"), "{msg}");
        }
        assert_eq!(make_policy("flood()").unwrap().label, "flood");
    }

    #[test]
    fn zero_counts_are_rejected_at_spec_parse_time() {
        // Each of these was a panic from the policy constructor.
        for (spec, key) in [
            ("k-walk(k=0)", "k"),
            ("assoc(k=0)", "k"),
            ("assoc-adaptive(k=0)", "k"),
            ("shortcuts(cap=0)", "cap"),
            ("shortcuts(k=0)", "k"),
            ("hybrid(cap=0)", "cap"),
            ("hybrid(k=0)", "k"),
            ("superpeer(n=0)", "n"),
            ("community(n=0)", "n"),
            ("community(k=0)", "k"),
            ("routing-index(k=0)", "k"),
            ("routing-index(horizon=0)", "horizon"),
        ] {
            let msg = policy_err(spec);
            let want = format!("parameter `{key}` must be at least 1, got 0");
            assert!(msg.contains(&want), "{msg}");
        }
    }

    #[test]
    fn sub_unit_support_is_rejected_at_spec_parse_time() {
        // Each of these was a panic from the policy constructor.
        for spec in [
            "assoc(s=0)",
            "assoc-adaptive(s=0.5)",
            "hybrid(s=0)",
            "community(s=-1)",
        ] {
            let msg = policy_err(spec);
            assert!(
                msg.contains("parameter `s` must be at least 1, got"),
                "{msg}"
            );
        }
        make_policy("assoc(s=1)").unwrap();
    }

    #[test]
    fn demote_is_validated_at_spec_parse_time() {
        let msg = policy_err("assoc-adaptive(demote=1.5)");
        assert!(
            msg.contains("parameter `demote` must be in [0, 1], got 1.5"),
            "{msg}"
        );
        make_policy("assoc-adaptive(demote=1)").unwrap();
    }

    #[test]
    fn fail_threshold_is_validated_at_spec_parse_time() {
        let msg = policy_err("assoc-adaptive(ft=2)");
        assert!(
            msg.contains("parameter `ft` must be in [0, 1], got 2"),
            "{msg}"
        );
        make_policy("assoc-adaptive(ft=0)").unwrap();
    }

    #[test]
    fn attenuation_is_validated_at_spec_parse_time() {
        for spec in ["routing-index(atten=2)", "routing-index(atten=-1)"] {
            let msg = policy_err(spec);
            assert!(
                msg.contains("parameter `atten` must be in [0, 1], got"),
                "{msg}"
            );
        }
        make_policy("routing-index(atten=1)").unwrap();
    }

    #[test]
    fn community_policy_builds_with_its_own_label() {
        let built = make_policy("community(n=8,k=3)").unwrap();
        assert_eq!(built.label, "community");
    }

    #[test]
    fn adapt_specs_round_trip() {
        let plan = make_adapt_plan("adapt(every=20000,budget=16,degree=3)").unwrap();
        assert_eq!(plan.every, Duration::from_ticks(20_000));
        assert_eq!(plan.budget, 16);
        assert_eq!(plan.degree, 3);
        let defaults = make_adapt_plan("adapt").unwrap();
        assert_eq!(defaults.every, Duration::from_ticks(50_000));
        assert_eq!(defaults.budget, 8);
        assert_eq!(defaults.degree, 2);
        // Plan-level validation surfaces through the spec error.
        for spec in ["adapt(every=0)", "adapt(budget=0)", "adapt(degree=0)"] {
            let e = make_adapt_plan(spec).unwrap_err().to_string();
            assert!(e.contains("must be positive"), "`{spec}`: {e}");
        }
        assert!(make_adapt_plan("faults(loss=0.1)").is_err());
        let e = make_adapt_plan("adapt(evry=10)").unwrap_err().to_string();
        assert!(e.contains("unknown parameter `evry`"), "{e}");
        assert!(e.contains("budget"), "{e}");
    }

    #[test]
    fn riders_are_applied() {
        let built = make_policy("expanding-ring(start=2,step=2,max=7,wait=500)").unwrap();
        assert_eq!(built.label, "expanding-ring");
        let mut cfg = SimConfig::default_with(50, 10, 1);
        built.apply_to(&mut cfg);
        assert_eq!(cfg.ring.as_ref().unwrap().ttls, vec![2, 4, 6, 7]);

        let walk = make_policy("k-walk").unwrap();
        let mut cfg = SimConfig::default_with(50, 10, 1);
        walk.apply_to(&mut cfg);
        assert_eq!(cfg.ttl, 48);
    }
}
