//! In-memory span recording for the traced run.
//!
//! Every wrapper boundary records one [`Span`]: its layer name, start and
//! end (nanoseconds since the recorder was created) and its parent. A
//! *root* span covers one engine step (batch) or one serve op; every span
//! recorded while a root is open is its child and carries the root's id.
//! Spans stay in memory until [`Recorder::write_csv`] at the end of a run,
//! so recording costs two clock reads and a vector push.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One timed interval at a wrapper boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.step` or `policy.schedule`.
    pub name: &'static str,
    /// Shared by a root span and all of its children.
    pub id: u64,
    /// Index of the parent span in the recorder, `None` for roots.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while still open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Policy-side counters the scheduler wrapper accumulates alongside its
/// spans (exact counts, never timings).
#[derive(Debug, Clone, Default)]
pub struct PolicyTally {
    /// Scheduling rounds (`schedule` calls).
    pub rounds: u64,
    /// Sum over rounds of the number of job snapshots handed to the policy.
    pub jobs: u64,
    /// Sums of the policy's `last_round_stats` over all rounds.
    pub dirty: u64,
    /// See [`rubick_sim::scheduler::RoundStats::clean`].
    pub clean: u64,
    /// See [`rubick_sim::scheduler::RoundStats::reused`].
    pub reused: u64,
    /// See [`rubick_sim::scheduler::RoundStats::searched`].
    pub searched: u64,
    /// See [`rubick_sim::scheduler::RoundStats::classified`].
    pub classified: u64,
    /// Distinct (model, global batch) pairs seen in snapshots.
    pub distinct_keys: u64,
}

/// Refit-side counters the refit wrapper accumulates.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefitTally {
    /// Observations offered to the refitter.
    pub observations: u64,
    /// Observations that produced a material model change.
    pub material: u64,
}

/// The span store plus the counters of one traced simulation.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open_root: Option<usize>,
    next_id: u64,
    /// Policy counters.
    pub policy: PolicyTally,
    /// Refit counters.
    pub refit: RefitTally,
}

/// The recorder as shared between the wrappers the engine owns and the
/// benchmark loop that reads it back (the engine requires `Send` schedulers).
pub type SharedRecorder = Arc<Mutex<Recorder>>;

/// Locks a shared recorder; a poisoned lock means a wrapper panicked, and
/// the run is lost anyway.
pub fn lock(rec: &SharedRecorder) -> MutexGuard<'_, Recorder> {
    rec.lock().expect("span recorder lock poisoned")
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open_root: None,
            next_id: 0,
            policy: PolicyTally::default(),
            refit: RefitTally::default(),
        }
    }

    /// A new recorder behind the shared handle.
    pub fn shared() -> SharedRecorder {
        Arc::new(Mutex::new(Recorder::new()))
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root span starting at `start`; returns its index.
    pub fn open(&mut self, name: &'static str, start: Instant) -> usize {
        let idx = self.spans.len();
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id: self.next_id,
            parent: None,
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.open_root = Some(idx);
        idx
    }

    /// Closes the root span `idx` at `end`.
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end_ns = self.ns(end);
        self.open_root = None;
    }

    /// Records a child of the open root (a root itself when none is open).
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (id, parent) = match self.open_root {
            Some(root) => (self.spans[root].id, Some(root)),
            None => {
                self.next_id += 1;
                (self.next_id, None)
            }
        };
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Per-layer self time: each span's duration minus the time its children
/// cover, summed per layer prefix (`engine`, `policy`, `obs`, `refit`,
/// `serve`, ...), in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let own = s.dur_ns().saturating_sub(*covered);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, total)) => *total += own,
            None => layers.push((layer, own)),
        }
    }
    layers
}

/// Durations (ns) of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_share_the_root_id_and_self_time_subtracts_them() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = rec.open("engine.step", at(0));
        rec.child("policy.schedule", at(1), at(4));
        rec.child("obs.event", at(5), at(6));
        rec.close(root, at(10));
        rec.child("obs.event", at(11), at(12));
        let spans = rec.spans();
        assert_eq!(spans[1].id, spans[0].id);
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[3].id, spans[0].id);
        assert_eq!(spans[3].parent, None);
        let layers = self_time_by_layer(spans);
        let get = |l: &str| layers.iter().find(|(n, _)| *n == l).map(|(_, v)| *v);
        assert_eq!(get("engine"), Some(6_000_000));
        assert_eq!(get("policy"), Some(3_000_000));
        assert_eq!(get("obs"), Some(2_000_000));
    }
}
