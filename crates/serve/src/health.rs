//! Worker health checking: typed states, probe logic, and the
//! demotion/promotion state machine the fleet's router and supervisor
//! both consult.
//!
//! A fleet worker is useful only while it answers the protocol; a
//! worker that crashed, hung (SIGSTOP, deadlock), or wedged its worker
//! pool must stop receiving traffic *before* clients notice. The
//! health loop probes every worker on a fixed cadence — a `ping`
//! normally, a `stats` request every
//! [`HealthPolicy::stats_every`]-th probe (a worker's connection
//! threads answer pings inline while its service workers are wedged; a stats
//! round trip proves the whole request path, and a stats response that
//! stops arriving is the staleness signal) — each over a fresh
//! connection with a hard [`HealthPolicy::timeout_ms`] deadline.
//!
//! The state machine is deliberately asymmetric: demotion is gradual
//! (one failed probe is suspicion, [`HealthPolicy::dead_after`]
//! consecutive failures are a verdict), promotion is instant (one
//! successful probe fully resets the tracker). The router keeps
//! routing to a [`HealthState::Degraded`] worker — a single dropped
//! probe on a busy box must not hemorrhage its shard's cache warmth —
//! but skips [`HealthState::Dead`] ones, failing their keyspace over
//! to the backup; the supervisor additionally force-restarts a worker
//! whose *process* is alive but whose health says dead (the hung-worker
//! shape a crash monitor alone never catches).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Cadence and thresholds for the fleet health loop.
#[derive(Clone, Debug)]
pub struct HealthPolicy {
    /// Milliseconds between probe rounds.
    pub interval_ms: u64,
    /// Per-probe deadline (connect + request + response).
    pub timeout_ms: u64,
    /// Consecutive probe failures before a worker is declared
    /// [`HealthState::Dead`] (below that it is merely degraded).
    pub dead_after: u32,
    /// Every Nth probe sends `stats` instead of `ping`, exercising the
    /// full admission→worker→response path instead of the connection
    /// thread's inline pong. `0` disables stats probes.
    pub stats_every: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            interval_ms: 500,
            timeout_ms: 1_000,
            dead_after: 3,
            stats_every: 4,
        }
    }
}

/// Where a worker stands in the health state machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Spawned (or respawned) but not yet probed successfully — kept
    /// out of rotation until the first probe lands.
    Starting,
    /// Probes are landing; in rotation.
    Healthy,
    /// At least one recent probe failed, but fewer than
    /// [`HealthPolicy::dead_after`] in a row — still in rotation (the
    /// cache-warmth of a shard is worth a little suspicion), watched.
    Degraded,
    /// [`HealthPolicy::dead_after`] consecutive probes failed: out of
    /// rotation, keyspace failed over, supervisor restart incoming.
    Dead,
}

impl HealthState {
    /// The lowercase wire name used in fleet `stats` responses.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Starting => "starting",
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Dead => "dead",
        }
    }
}

/// One worker's health bookkeeping: the current state plus lifetime
/// probe counters.
#[derive(Debug)]
pub struct HealthTracker {
    state: HealthState,
    consecutive_failures: u32,
    probes: u64,
    failures: u64,
    last_ok: Option<Instant>,
}

impl Default for HealthTracker {
    fn default() -> HealthTracker {
        HealthTracker::new()
    }
}

impl HealthTracker {
    /// A fresh tracker in [`HealthState::Starting`].
    pub fn new() -> HealthTracker {
        HealthTracker {
            state: HealthState::Starting,
            consecutive_failures: 0,
            probes: 0,
            failures: 0,
            last_ok: None,
        }
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Lifetime `(probes, failures)`.
    pub fn counts(&self) -> (u64, u64) {
        (self.probes, self.failures)
    }

    /// How long since the last successful probe (`None`: never).
    pub fn staleness(&self) -> Option<Duration> {
        self.last_ok.map(|t| t.elapsed())
    }

    /// Records a successful probe: full, immediate promotion to
    /// [`HealthState::Healthy`].
    pub fn record_success(&mut self) -> HealthState {
        self.probes += 1;
        self.consecutive_failures = 0;
        self.last_ok = Some(Instant::now());
        self.state = HealthState::Healthy;
        self.state
    }

    /// Records a failed probe: demotion to [`HealthState::Degraded`]
    /// on the first failure, [`HealthState::Dead`] once `dead_after`
    /// land in a row. A worker still [`HealthState::Starting`] goes
    /// straight to dead at the same threshold (a worker that never
    /// answered is no better than one that stopped).
    pub fn record_failure(&mut self, dead_after: u32) -> HealthState {
        self.probes += 1;
        self.failures += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.state = if self.consecutive_failures >= dead_after.max(1) {
            HealthState::Dead
        } else if self.state == HealthState::Starting {
            // Not yet proven alive; stay out of rotation, don't
            // pretend a degraded-but-working history exists.
            HealthState::Starting
        } else {
            HealthState::Degraded
        };
        self.state
    }

    /// Resets to [`HealthState::Starting`] — called when the
    /// supervisor respawns the worker, so stale history never vouches
    /// for a new process.
    pub fn reset(&mut self) {
        self.state = HealthState::Starting;
        self.consecutive_failures = 0;
        self.last_ok = None;
    }
}

/// What one probe sends.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Reactor-inline liveness (`ping`).
    Ping,
    /// Full-path round trip (`stats` through the admission queue and a
    /// service worker).
    Stats,
}

/// Probes one worker once: fresh connection, one request, one
/// response, all under `timeout`. Returns the failure reason — the
/// caller owns the state machine.
///
/// # Errors
///
/// A human-readable reason: connect/write/read failure, timeout, or a
/// response that parses but is not `ok`.
pub fn probe(addr: SocketAddr, probe_kind: ProbeKind, timeout: Duration) -> Result<(), String> {
    let op = match probe_kind {
        ProbeKind::Ping => "ping",
        ProbeKind::Stats => "stats",
    };
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("read timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("write timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    writeln!(writer, "{{\"id\": 0, \"op\": \"{op}\"}}").map_err(|e| format!("write: {e}"))?;
    writer.flush().map_err(|e| format!("flush: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Err("connection closed before response".to_string());
    }
    let resp = crate::protocol::parse_response(line.trim())
        .map_err(|e| format!("unparseable response: {e}"))?;
    if resp.ok {
        Ok(())
    } else {
        Err(format!(
            "{op} answered with error {}",
            resp.error.as_deref().unwrap_or("?")
        ))
    }
}

/// Which [`ProbeKind`] the `n`th probe (1-based) should send under a
/// policy: every `stats_every`th is a stats probe, the rest pings.
pub fn probe_kind_for(policy: &HealthPolicy, n: u64) -> ProbeKind {
    if policy.stats_every > 0 && n.is_multiple_of(u64::from(policy.stats_every)) {
        ProbeKind::Stats
    } else {
        ProbeKind::Ping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demotion_is_gradual_promotion_is_instant() {
        let mut t = HealthTracker::new();
        assert_eq!(t.state(), HealthState::Starting);
        assert_eq!(t.record_success(), HealthState::Healthy);
        assert_eq!(t.record_failure(3), HealthState::Degraded);
        assert_eq!(t.record_failure(3), HealthState::Degraded);
        assert_eq!(t.record_failure(3), HealthState::Dead);
        assert_eq!(t.record_failure(3), HealthState::Dead, "dead stays dead");
        assert_eq!(
            t.record_success(),
            HealthState::Healthy,
            "one good probe fully promotes"
        );
        assert_eq!(t.counts(), (6, 4));
    }

    #[test]
    fn starting_worker_never_reports_degraded() {
        let mut t = HealthTracker::new();
        assert_eq!(t.record_failure(3), HealthState::Starting);
        assert_eq!(t.record_failure(3), HealthState::Starting);
        assert_eq!(
            t.record_failure(3),
            HealthState::Dead,
            "a worker that never answered is declared dead at the same threshold"
        );
    }

    #[test]
    fn reset_discards_history() {
        let mut t = HealthTracker::new();
        t.record_success();
        t.record_failure(1);
        assert_eq!(t.state(), HealthState::Dead);
        t.reset();
        assert_eq!(t.state(), HealthState::Starting);
        assert!(t.staleness().is_none(), "a new process has no history");
    }

    #[test]
    fn probe_schedule_interleaves_stats() {
        let policy = HealthPolicy {
            stats_every: 3,
            ..HealthPolicy::default()
        };
        let kinds: Vec<ProbeKind> = (1..=6).map(|n| probe_kind_for(&policy, n)).collect();
        assert_eq!(
            kinds,
            vec![
                ProbeKind::Ping,
                ProbeKind::Ping,
                ProbeKind::Stats,
                ProbeKind::Ping,
                ProbeKind::Ping,
                ProbeKind::Stats,
            ]
        );
        let none = HealthPolicy {
            stats_every: 0,
            ..HealthPolicy::default()
        };
        assert!((1..=8).all(|n| probe_kind_for(&none, n) == ProbeKind::Ping));
    }

    #[test]
    fn dead_after_zero_is_clamped() {
        let mut t = HealthTracker::new();
        t.record_success();
        assert_eq!(t.record_failure(0), HealthState::Dead);
    }

    #[test]
    fn probe_against_a_vacant_port_fails_fast() {
        // Bind-then-drop guarantees an unserved port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let started = Instant::now();
        let err = probe(addr, ProbeKind::Ping, Duration::from_millis(500)).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "probe respects its timeout"
        );
        assert!(!err.is_empty());
    }
}
