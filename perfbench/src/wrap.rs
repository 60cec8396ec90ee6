//! Forwarding wrappers around the engine's public seams.
//!
//! Each wrapper forwards every trait method to the wrapped value
//! unchanged and, around the calls that do work, records a span in the
//! shared [`Recorder`]. The engine cannot tell a wrapped layer from a bare
//! one: the transparency test compares their event streams byte for byte.

use crate::spans::{lock, SharedRecorder};
use rubick_obs::{EventSink, SimEvent};
use rubick_sim::scheduler::{ClusterDelta, RoundStats};
use rubick_sim::{
    Assignment, Cluster, JobDelta, JobId, JobSnapshot, RefitHook, RefitObservation, RefitOutcome,
    Scheduler, Tenant,
};
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// A policy wrapper: `policy.schedule` / `policy.notify` spans, plus the
/// round counters of [`crate::spans::PolicyTally`].
pub struct TracedScheduler<'a> {
    inner: Box<dyn Scheduler + 'a>,
    rec: SharedRecorder,
    /// Global batches seen per model name.
    keys: HashMap<String, Vec<u32>>,
    distinct: u64,
    /// Jobs changed since the previous round (from `notify_jobs`); only
    /// these can carry a key not seen yet. `None` means no delta arrived,
    /// so every snapshot is checked.
    changed: Option<Vec<JobId>>,
}

impl<'a> TracedScheduler<'a> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Scheduler + 'a>, rec: SharedRecorder) -> Self {
        TracedScheduler {
            inner,
            rec,
            keys: HashMap::new(),
            distinct: 0,
            changed: None,
        }
    }

    /// Counts (model, global batch) pairs not seen before. Snapshots are
    /// sorted by job id, so the changed jobs are found by binary search.
    fn count_keys(&mut self, jobs: &[JobSnapshot]) {
        let fresh: Vec<&JobSnapshot> = match self.changed.take() {
            Some(ids) => ids
                .iter()
                .filter_map(|id| jobs.binary_search_by_key(id, JobSnapshot::id).ok())
                .map(|i| &jobs[i])
                .collect(),
            None => jobs.iter().collect(),
        };
        for job in fresh {
            let batch = job.spec.global_batch;
            match self.keys.get_mut(job.spec.model.name.as_str()) {
                Some(batches) if batches.contains(&batch) => {}
                Some(batches) => {
                    batches.push(batch);
                    self.distinct += 1;
                }
                None => {
                    self.keys.insert(job.spec.model.name.clone(), vec![batch]);
                    self.distinct += 1;
                }
            }
        }
    }
}

impl Scheduler for TracedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_parallelism(&mut self, parallelism: Option<usize>) {
        self.inner.set_parallelism(parallelism);
    }

    fn notify(&mut self, delta: &ClusterDelta) {
        let t0 = Instant::now();
        self.inner.notify(delta);
        let t1 = Instant::now();
        lock(&self.rec).child("policy.notify", t0, t1);
    }

    fn notify_jobs(&mut self, delta: &JobDelta) {
        let t0 = Instant::now();
        self.inner.notify_jobs(delta);
        let t1 = Instant::now();
        lock(&self.rec).child("policy.notify", t0, t1);
        self.changed
            .get_or_insert_with(Vec::new)
            .extend_from_slice(&delta.changed);
    }

    fn last_round_stats(&self) -> Option<RoundStats> {
        self.inner.last_round_stats()
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        tenants: &[Tenant],
    ) -> Vec<Assignment> {
        let t0 = Instant::now();
        let out = self.inner.schedule(now, jobs, cluster, tenants);
        let t1 = Instant::now();
        self.count_keys(jobs);
        let stats = self.inner.last_round_stats().unwrap_or_default();
        let mut rec = lock(&self.rec);
        rec.child("policy.schedule", t0, t1);
        let tally = &mut rec.policy;
        tally.rounds += 1;
        tally.jobs += jobs.len() as u64;
        tally.dirty += stats.dirty;
        tally.clean += stats.clean;
        tally.reused += stats.reused;
        tally.searched += stats.searched;
        tally.classified += stats.classified;
        tally.distinct_keys = self.distinct;
        out
    }
}

/// An event-sink wrapper: one `obs.event` span per forwarded event.
pub struct TracedSink<'s> {
    inner: &'s mut dyn EventSink,
    rec: SharedRecorder,
}

impl<'s> TracedSink<'s> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'s mut dyn EventSink, rec: SharedRecorder) -> Self {
        TracedSink { inner, rec }
    }
}

impl EventSink for TracedSink<'_> {
    fn on_event(&mut self, event: &SimEvent) {
        let t0 = Instant::now();
        self.inner.on_event(event);
        let t1 = Instant::now();
        lock(&self.rec).child("obs.event", t0, t1);
    }

    fn on_round_latency(&mut self, nanos: u64) {
        let t0 = Instant::now();
        self.inner.on_round_latency(nanos);
        let t1 = Instant::now();
        lock(&self.rec).child("obs.round_latency", t0, t1);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A refit-hook wrapper: one `refit.observe` span per observation.
pub struct TracedRefit<H> {
    inner: H,
    rec: SharedRecorder,
}

impl<H: RefitHook> TracedRefit<H> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: H, rec: SharedRecorder) -> Self {
        TracedRefit { inner, rec }
    }
}

impl<H: RefitHook> RefitHook for TracedRefit<H> {
    fn observe(&mut self, obs: &RefitObservation<'_>) -> Option<RefitOutcome> {
        let t0 = Instant::now();
        let out = self.inner.observe(obs);
        let t1 = Instant::now();
        let mut rec = lock(&self.rec);
        rec.child("refit.observe", t0, t1);
        rec.refit.observations += 1;
        rec.refit.material += u64::from(out.is_some());
        out
    }
}
