//! The invariant watchdog: hard contracts checked throughout the soak.
//!
//! The cross-sample history (previous counter values, drop tally, wedge
//! streak) lives in private fields, written only here.
//!
//! The driver hands the watchdog a [`WatchdogSample`] every few
//! maintenance ticks; the watchdog enforces the catalog below and
//! returns the first [`Violation`] it finds, at which point the driver
//! dumps every flight recorder and fails the run. The invariants
//! (DESIGN.md §15):
//!
//! 1. **occupancy-cap** — no host's flow table ever exceeds the
//!    configured `max_flows` cap;
//! 2. **counter-monotone** — every merged metric of counter kind is
//!    non-decreasing between samples (a decrease means lost or
//!    corrupted state, e.g. a checkpoint restored over live counters);
//! 3. **dropped-events-bound** — the summed flight-recorder
//!    `dropped_events` tally stays monotone and under the scenario
//!    bound (a runaway event storm is a bug even when the ring absorbs
//!    it);
//! 4. **health-wedged** — the ladder never sits in `PassThrough` while
//!    occupancy is below the recovery watermark for more than a grace
//!    number of consecutive samples: recovery is gc/tick-driven and
//!    must happen within a couple of ticks of the pressure receding;
//! 5. **seq-divergence** — the vSwitch's passively reconstructed
//!    [`SeqView`] for a foreground flow stays inside the endpoint's
//!    ground-truth window: `ep.snd_una ≤ dp.snd_una ≤ ep.snd_nxt` and
//!    `dp.snd_nxt ≤ ep.snd_nxt` (the vSwitch may lag after a reset's
//!    mid-stream re-adoption, but may never run ahead of the guest).

use std::collections::BTreeMap;

use acdc_packet::{FlowKey, SeqView};
use acdc_stats::time::Nanos;
use acdc_telemetry::{MetricKind, MetricValue};

/// Watchdog tuning; mirrors the scenario's datapath configuration.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// The datapath's `max_flows` cap (invariants 1 and 4).
    pub max_flows: usize,
    /// Hard bound on summed `dropped_events` (invariant 3).
    pub dropped_events_bound: u64,
    /// The ladder's `PassThrough → LogOnly` recovery watermark, as a
    /// percentage of `max_flows` (invariant 4).
    pub pass_recover_pct: u8,
    /// Consecutive below-watermark samples the ladder may spend in
    /// `PassThrough` before it counts as wedged (invariant 4).
    pub max_wedged_samples: u32,
}

/// One foreground flow's paired sequence views (invariant 5).
#[derive(Debug, Clone)]
pub struct FlowProbe {
    /// The flow's egress-direction key.
    pub key: FlowKey,
    /// The vSwitch's reconstruction, if the flow is tracked with valid
    /// sequence state.
    pub dp: Option<SeqView>,
    /// The endpoint's ground truth, if the connection is established.
    pub ep: Option<SeqView>,
}

/// Everything the watchdog sees at one sampling edge.
#[derive(Debug, Clone)]
pub struct WatchdogSample {
    /// Virtual time of the sample.
    pub at: Nanos,
    /// Flow-table occupancy per host, `(host index, tracked flows)`.
    pub occupancy: Vec<(usize, usize)>,
    /// The watched host's health rung (0 = Enforcing .. 2 = PassThrough).
    pub health_rung: u8,
    /// The watched host's occupancy (drives the wedge check).
    pub watched_occupancy: usize,
    /// Summed flight-recorder `dropped_events` across the watched
    /// host's hubs.
    pub dropped_events: u64,
    /// Deterministically merged metrics of the watched host.
    pub metrics: Vec<MetricValue>,
    /// Foreground sequence-view probes.
    pub probes: Vec<FlowProbe>,
}

/// A broken invariant: where, which, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Virtual time of the failing sample.
    pub at: Nanos,
    /// Invariant name from the catalog in the module docs.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} ns] {}: {}", self.at, self.invariant, self.detail)
    }
}

/// Stateful checker for the invariant catalog (see module docs).
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    prev_counters: BTreeMap<String, u64>,
    prev_dropped: u64,
    wedged: u32,
    samples: u64,
}

impl Watchdog {
    /// A fresh watchdog with no history.
    pub fn new(cfg: WatchdogConfig) -> Watchdog {
        Watchdog {
            cfg,
            prev_counters: BTreeMap::new(),
            prev_dropped: 0,
            wedged: 0,
            samples: 0,
        }
    }

    /// Samples checked so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Check one sample against the catalog; the first broken invariant
    /// wins. State (counter history, wedge streak) advances only for
    /// the checks that passed before the failure.
    pub fn check(&mut self, s: &WatchdogSample) -> Result<(), Violation> {
        self.samples += 1;
        let fail = |invariant, detail| {
            Err(Violation {
                at: s.at,
                invariant,
                detail,
            })
        };

        // 1. occupancy-cap
        for &(host, occ) in &s.occupancy {
            if occ > self.cfg.max_flows {
                return fail(
                    "occupancy-cap",
                    format!("host {host} tracks {occ} flows, cap {}", self.cfg.max_flows),
                );
            }
        }

        // 2. counter-monotone
        for m in &s.metrics {
            if m.kind != MetricKind::Counter {
                continue;
            }
            if let Some(&prev) = self.prev_counters.get(&m.name) {
                if m.value < prev {
                    return fail(
                        "counter-monotone",
                        format!("counter {} went backwards: {prev} -> {}", m.name, m.value),
                    );
                }
            }
        }
        for m in &s.metrics {
            if m.kind == MetricKind::Counter {
                self.prev_counters.insert(m.name.clone(), m.value);
            }
        }

        // 3. dropped-events-bound
        if s.dropped_events < self.prev_dropped {
            return fail(
                "dropped-events-bound",
                format!(
                    "dropped_events went backwards: {} -> {}",
                    self.prev_dropped, s.dropped_events
                ),
            );
        }
        self.prev_dropped = s.dropped_events;
        if s.dropped_events > self.cfg.dropped_events_bound {
            return fail(
                "dropped-events-bound",
                format!(
                    "dropped_events {} over bound {}",
                    s.dropped_events, self.cfg.dropped_events_bound
                ),
            );
        }

        // 4. health-wedged
        let below_recovery =
            s.watched_occupancy * 100 < self.cfg.max_flows * usize::from(self.cfg.pass_recover_pct);
        if s.health_rung >= 2 && below_recovery {
            self.wedged += 1;
            if self.wedged > self.cfg.max_wedged_samples {
                return fail(
                    "health-wedged",
                    format!(
                        "PassThrough for {} samples with occupancy {} below the {}% recovery \
                         watermark of cap {}",
                        self.wedged,
                        s.watched_occupancy,
                        self.cfg.pass_recover_pct,
                        self.cfg.max_flows
                    ),
                );
            }
        } else {
            self.wedged = 0;
        }

        // 5. seq-divergence
        for p in &s.probes {
            let (Some(dp), Some(ep)) = (p.dp, p.ep) else {
                continue;
            };
            let una_in_window =
                dp.snd_una.distance(ep.snd_una) >= 0 && ep.snd_nxt.distance(dp.snd_una) >= 0;
            let nxt_bounded = ep.snd_nxt.distance(dp.snd_nxt) >= 0;
            if !una_in_window || !nxt_bounded {
                return fail(
                    "seq-divergence",
                    format!(
                        "flow {:?}: vSwitch ({:?}, {:?}) outside endpoint window ({:?}, {:?})",
                        p.key, dp.snd_una, dp.snd_nxt, ep.snd_una, ep.snd_nxt
                    ),
                );
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_packet::SeqNumber;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            max_flows: 100,
            dropped_events_bound: 1_000,
            pass_recover_pct: 85,
            max_wedged_samples: 2,
        }
    }

    fn sample(at: Nanos) -> WatchdogSample {
        WatchdogSample {
            at,
            occupancy: vec![(0, 10), (1, 5)],
            health_rung: 0,
            watched_occupancy: 10,
            dropped_events: 0,
            metrics: Vec::new(),
            probes: Vec::new(),
        }
    }

    #[test]
    fn clean_samples_pass() {
        let mut w = Watchdog::new(cfg());
        for t in 0..5 {
            w.check(&sample(t)).expect("clean sample must pass");
        }
        assert_eq!(w.samples(), 5);
    }

    #[test]
    fn occupancy_over_cap_fires() {
        let mut w = Watchdog::new(cfg());
        let mut s = sample(1);
        s.occupancy.push((2, 101));
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "occupancy-cap");
        assert!(v.detail.contains("host 2"));
    }

    #[test]
    fn counter_regression_fires() {
        let mut w = Watchdog::new(cfg());
        let mut s = sample(1);
        s.metrics = vec![MetricValue {
            name: "acdc.rwnd_rewrites".into(),
            kind: MetricKind::Counter,
            value: 7,
        }];
        w.check(&s).expect("first sight just records");
        s.at = 2;
        s.metrics[0].value = 3;
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "counter-monotone");

        // Gauges may go down freely.
        let mut w = Watchdog::new(cfg());
        let mut s = sample(1);
        s.metrics = vec![MetricValue {
            name: "acdc.flows".into(),
            kind: MetricKind::Gauge,
            value: 7,
        }];
        w.check(&s).unwrap();
        s.metrics[0].value = 0;
        w.check(&s).expect("gauge decrease is not a violation");
    }

    #[test]
    fn dropped_events_bound_and_monotonicity_fire() {
        let mut w = Watchdog::new(cfg());
        let mut s = sample(1);
        s.dropped_events = 1_001;
        assert_eq!(w.check(&s).unwrap_err().invariant, "dropped-events-bound");

        let mut w = Watchdog::new(cfg());
        s.dropped_events = 500;
        w.check(&s).unwrap();
        s.dropped_events = 499;
        assert_eq!(w.check(&s).unwrap_err().invariant, "dropped-events-bound");
    }

    #[test]
    fn wedged_ladder_fires_after_grace() {
        let mut w = Watchdog::new(cfg());
        let mut s = sample(1);
        s.health_rung = 2;
        s.watched_occupancy = 10; // far below 85% of 100
        w.check(&s).expect("grace sample 1");
        w.check(&s).expect("grace sample 2");
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "health-wedged");

        // High occupancy legitimizes PassThrough indefinitely.
        let mut w = Watchdog::new(cfg());
        s.watched_occupancy = 95;
        for t in 0..10 {
            s.at = t;
            w.check(&s).expect("loaded PassThrough is legitimate");
        }
    }

    #[test]
    fn seq_divergence_fires_when_vswitch_runs_ahead() {
        let mut w = Watchdog::new(cfg());
        let mut s = sample(1);
        s.probes = vec![FlowProbe {
            key: FlowKey {
                src_ip: [10, 0, 0, 1],
                dst_ip: [10, 0, 1, 1],
                src_port: 40_000,
                dst_port: 5_001,
            },
            dp: Some(SeqView {
                snd_una: SeqNumber(100),
                snd_nxt: SeqNumber(2_000), // ahead of the endpoint: impossible
            }),
            ep: Some(SeqView {
                snd_una: SeqNumber(100),
                snd_nxt: SeqNumber(1_000),
            }),
        }];
        assert_eq!(w.check(&s).unwrap_err().invariant, "seq-divergence");

        // Lagging after a reset's re-adoption is fine.
        s.probes[0].dp = Some(SeqView {
            snd_una: SeqNumber(500),
            snd_nxt: SeqNumber(900),
        });
        w.check(&s).expect("vSwitch inside the endpoint window");

        // Untracked or unestablished flows are skipped.
        s.probes[0].dp = None;
        w.check(&s).unwrap();
    }
}
