//! The per-round scheduling logic (lines 1–24 of Algorithm 1).

use super::RubickScheduler;
use crate::common::{job_baseline, job_gpu_curve, PlanSearch};
use crate::round::RoundContext;
use rubick_model::{
    ExecutionPlan, MemoryEstimator, Placement, Resources, SensitivityCurve, ThroughputModel,
};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::job::{JobClass, JobId, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, RoundStats};
use rubick_sim::tenant::Tenant;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// CPU transfer unit `Δr` (GPUs move one at a time).
const CPU_DELTA: u32 = 4;
/// Slope below this is treated as "no benefit from more of this resource".
const EPS_SLOPE: f64 = 1e-9;
/// Hysteresis on the shrink decision: a transfer needs the victim's loss
/// slope to be *clearly* below the grower's gain slope, otherwise pairs of
/// jobs with near-equal slopes flap resources back and forth, paying a
/// checkpoint-resume penalty on every swing.
const SHRINK_HYSTERESIS: f64 = 0.45;

/// The slice of a job's round context that does not change between
/// rounds: fitted model, plan-search mode, sensitivity curve, slope
/// normalizer and minimum demand. The penalty gate (`frozen`) is *not*
/// cached — it depends on the job's runtime and is recomputed every round.
#[derive(Clone)]
struct CachedParts {
    /// The registry's fitted model for the job's type, if known.
    model: Option<Arc<ThroughputModel>>,
    /// Plan-reconfiguration freedom (a function of the policy config and
    /// the job's immutable initial plan).
    search: PlanSearch,
    /// GPU sensitivity curve under `search`, if the model is known.
    curve: Option<Arc<SensitivityCurve>>,
    /// Slope normalizer ([`slope_norm`]) from the job's SLA baseline and
    /// curve peak.
    norm: f64,
    /// Minimum resource demand (`MinRes` of Algorithm 1).
    minimum: Resources,
}

/// Per-job [`CachedParts`] carried across rounds (`DESIGN.md` §11).
/// [`build_job_parts`] is pure in (policy config, job spec, registry
/// version, total schedulable GPUs), so the entries stay valid until one
/// of the last two moves; entries for jobs that left the round are
/// dropped.
#[derive(Default)]
pub(super) struct PartsCache {
    /// `(registry version, total schedulable GPUs)` the entries were built
    /// under.
    key: Option<(u64, u32)>,
    parts: BTreeMap<JobId, CachedParts>,
    /// The [`JobIndex`] allocation, recycled between rounds.
    index: JobIndex,
    /// `GetBestPlan` results of the last round (`DESIGN.md` §8).
    memo: PlanMemo,
}

/// `GetBestPlan` inputs: the fitted model (by address — every job of a
/// type shares the registry's one `Arc`, which stays alive and unique
/// until the registry version moves, and the memo is cleared then),
/// global batch, search mode and placement. The placement's host memory
/// is compared by bits, so equal keys mean bit-identical inputs.
struct PlanKey {
    model: usize,
    global_batch: u32,
    search: PlanSearch,
    placement: Placement,
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        self.model == other.model
            && self.global_batch == other.global_batch
            && self.search == other.search
            && self.placement.gpus_per_node == other.placement.gpus_per_node
            && self.placement.cpus == other.placement.cpus
            && self.placement.host_mem_gb.to_bits() == other.placement.host_mem_gb.to_bits()
    }
}

impl Eq for PlanKey {}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.model.hash(state);
        self.global_batch.hash(state);
        self.search.hash(state);
        self.placement.gpus_per_node.hash(state);
        self.placement.cpus.hash(state);
        self.placement.host_mem_gb.to_bits().hash(state);
    }
}

/// Memo of `GetBestPlan` results (`DESIGN.md` §8). `best_plan` is pure in
/// its [`PlanKey`] while the fitted models stay put, so a hit returns
/// exactly what the search would. Within a round, jobs probe the same
/// placements over and over while resources move between them; across
/// rounds, a job whose grant did not change probes its old placement
/// again. So an entry lives as long as some round uses it: each round
/// drops the entries the previous round did not touch, which bounds the
/// memo by two rounds' probes, and a registry-version change (a refit or
/// a newly profiled type) clears it.
#[derive(Default)]
struct PlanMemo {
    /// Registry version the entries were computed under.
    version: Option<u64>,
    /// Stamp of the current round.
    round: u32,
    /// Result per key, with the stamp of the last round that used it.
    entries: HashMap<PlanKey, (u32, Option<(ExecutionPlan, f64)>)>,
}

impl PlanMemo {
    /// Starts a round under registry `version`.
    fn begin_round(&mut self, version: u64) {
        if self.version != Some(version) {
            self.entries.clear();
            self.version = Some(version);
        } else {
            let last = self.round;
            self.entries.retain(|_, (used, _)| *used == last);
        }
        self.round = self.round.wrapping_add(1);
    }

    /// The memoized `search.best_plan` for `key`, searching on a miss.
    fn best_plan(&mut self, key: PlanKey, model: &ThroughputModel) -> Option<(ExecutionPlan, f64)> {
        let round = self.round;
        match self.entries.entry(key) {
            Entry::Occupied(mut hit) => {
                hit.get_mut().0 = round;
                hit.get().1
            }
            Entry::Vacant(miss) => {
                let k = miss.key();
                let best = k.search.best_plan(model, k.global_batch, &k.placement);
                miss.insert((round, best)).1
            }
        }
    }
}

/// Generation-stamped dense map from [`JobId`] to a job's position in the
/// current round's jobs slice. Rebuilding bumps the generation instead of
/// clearing the slot table, so steady-state rebuilds are O(jobs) scatter
/// stores with no zeroing pass; a sorted-vec fallback handles id spaces
/// too sparse for the dense table.
#[derive(Debug, Default)]
struct JobIndex {
    /// `slots[id] = (generation, position)`; valid iff the stamp matches.
    slots: Vec<(u32, u32)>,
    gen: u32,
    /// Sorted `(id, position)` fallback when ids are too sparse.
    sparse: Vec<(JobId, u32)>,
    dense: bool,
}

impl JobIndex {
    /// Re-points the index at `jobs` (by slice position).
    fn rebuild(&mut self, jobs: &[JobSnapshot]) {
        let max_id = jobs.iter().map(|s| s.id()).max().unwrap_or(0);
        self.dense = (max_id as usize) < 8 * jobs.len() + 1024;
        if self.dense {
            if self.slots.len() <= max_id as usize {
                self.slots.resize(max_id as usize + 1, (0, 0));
            }
            self.gen = self.gen.wrapping_add(1);
            if self.gen == 0 {
                // Generation wrapped: stale stamps could collide, so pay
                // one full clear every 2^32 rebuilds.
                self.slots.fill((0, 0));
                self.gen = 1;
            }
            let gen = self.gen;
            for (pos, snap) in jobs.iter().enumerate() {
                self.slots[snap.id() as usize] = (gen, pos as u32);
            }
            self.sparse.clear();
        } else {
            self.sparse.clear();
            self.sparse
                .extend(jobs.iter().enumerate().map(|(pos, s)| (s.id(), pos as u32)));
            self.sparse.sort_unstable_by_key(|&(id, _)| id);
        }
    }

    /// The slice position of `id`, if it is in the current round.
    fn get(&self, id: JobId) -> Option<usize> {
        if self.dense {
            let slot = self.slots.get(id as usize)?;
            (slot.0 == self.gen).then_some(slot.1 as usize)
        } else {
            self.sparse
                .binary_search_by_key(&id, |&(id, _)| id)
                .ok()
                .map(|i| self.sparse[i].1 as usize)
        }
    }
}

/// Per-round immutable context: snapshots, models, curves, slope
/// normalizers, minima, and the [`PlanMemo`].
/// Stored as dense vectors parallel to the jobs slice, addressed through
/// the round's [`JobIndex`] — per-job probes are array reads instead of
/// tree walks, which is what keeps 100k-job rounds cache-friendly.
struct Ctx<'a> {
    sched: &'a RubickScheduler,
    index: JobIndex,
    snaps: Vec<&'a JobSnapshot>,
    models: Vec<Option<Arc<ThroughputModel>>>,
    searches: Vec<PlanSearch>,
    minima: Vec<Resources>,
    norms: Vec<f64>,
    curves: Vec<Option<Arc<SensitivityCurve>>>,
    frozen: Vec<bool>,
    /// [`is_finishing`] per job: such jobs are never victims.
    finishing: Vec<bool>,
    estimator: MemoryEstimator,
    total_gpus: u32,
    memo: RefCell<PlanMemo>,
}

/// Mutable round state: the shared [`RoundContext`] ledger plus Rubick's
/// tentative allocation table. Unlike the baselines, Rubick does not
/// commit assignments incrementally — its passes move resources between
/// jobs until the round settles, so it keeps the table here and emits the
/// final list at the end. Cloning snapshots the whole state for the
/// per-job accept-or-roll-back decision in [`schedule_job`].
#[derive(Clone)]
struct State<'a> {
    round: RoundContext<'a>,
    alloc: BTreeMap<JobId, Allocation>,
    changed: BTreeSet<JobId>,
}

impl<'a> Ctx<'a> {
    fn idx(&self, id: JobId) -> usize {
        self.index.get(id).expect("job known to round context")
    }

    fn snap(&self, id: JobId) -> &JobSnapshot {
        self.snaps[self.idx(id)]
    }

    fn model(&self, id: JobId) -> Option<&Arc<ThroughputModel>> {
        self.models[self.idx(id)].as_ref()
    }

    fn curve(&self, id: JobId) -> Option<&Arc<SensitivityCurve>> {
        self.curves[self.idx(id)].as_ref()
    }

    fn minimum(&self, id: JobId) -> Resources {
        self.minima[self.idx(id)]
    }

    fn is_frozen(&self, id: JobId) -> bool {
        self.frozen[self.idx(id)]
    }

    fn norm(&self, id: JobId) -> f64 {
        self.norms[self.idx(id)]
    }

    /// `GetBestPlan` for job `id` on `placement` under the job's search
    /// mode, through the [`PlanMemo`].
    fn best_plan(&self, id: JobId, placement: Placement) -> Option<(ExecutionPlan, f64)> {
        let pos = self.idx(id);
        let model = self.models[pos].as_ref()?;
        let key = PlanKey {
            model: Arc::as_ptr(model) as usize,
            global_batch: self.snaps[pos].spec.global_batch,
            search: self.searches[pos],
            placement,
        };
        self.memo.borrow_mut().best_plan(key, model)
    }

    /// Jump-aware normalized gain: sensitivity curves are lumpy (a 30B
    /// model produces zero throughput until ~12 GPUs), so the marginal
    /// value of the *next useful amount* is what matters when growing —
    /// `(value(g') − value(g)) / (g' − g)` for the smallest improving `g'`.
    fn jump_gain(&self, id: JobId, gpus: u32) -> f64 {
        let Some(curve) = self.curve(id) else {
            return 0.0;
        };
        let here = curve.value(gpus);
        let next = (gpus + 1..=self.total_gpus).find(|&g| curve.value(g) > here + 1e-12);
        match next {
            Some(g) => (curve.value(g) - here) / (g - gpus) as f64 / self.norm(id),
            None => 0.0,
        }
    }

    /// Normalized marginal loss of one fewer GPU at `gpus` (envelope step)
    /// for the job at slice position `pos` (victim probes run once per
    /// job per visit, so they skip the id lookup).
    fn loss_slope(&self, pos: usize, gpus: u32) -> f64 {
        self.curves[pos]
            .as_ref()
            .map(|c| c.loss_slope(gpus) / self.norms[pos])
            .unwrap_or(f64::INFINITY)
    }

    /// The useful GPU cap: the smallest amount achieving (within 0.5 %) the
    /// best throughput the curve reaches on this cluster.
    fn g_star(&self, id: JobId) -> u32 {
        let Some(curve) = self.curve(id) else {
            return self.snap(id).spec.requested.gpus;
        };
        let peak = curve.value(self.total_gpus);
        if peak <= 0.0 {
            return 0;
        }
        curve
            .min_amount_reaching(peak * 0.995)
            .unwrap_or(self.total_gpus)
    }

    /// Whether shrinking the job at slice position `pos` from `gpus` to
    /// `gpus − 1` is permitted: stay above its minimum, and either remain
    /// runnable or (best-effort only) be preempted to zero.
    fn can_shrink(&self, pos: usize, gpus: u32) -> bool {
        if gpus == 0 {
            return false;
        }
        let min_gpus = self.minima[pos].gpus;
        if gpus <= min_gpus {
            return false;
        }
        let new_gpus = gpus - 1;
        if new_gpus == 0 {
            return self.snaps[pos].spec.class == JobClass::BestEffort;
        }
        self.curves[pos]
            .as_ref()
            .map(|c| c.value(new_gpus) > 0.0)
            .unwrap_or(false)
    }

    /// CPU marginal gain for a job under its current plan (direct model
    /// evaluation; CPUs only matter for offloaded optimizers).
    fn cpu_gain(&self, id: JobId, plan: &ExecutionPlan, placement: &Placement) -> f64 {
        let snap = self.snap(id);
        let Some(model) = self.model(id) else {
            return 0.0;
        };
        let mut more = placement.clone();
        more.cpus += CPU_DELTA;
        let cur = model.params.throughput(
            &model.spec,
            plan,
            snap.spec.global_batch,
            placement,
            &model.env,
        );
        let next =
            model
                .params
                .throughput(&model.spec, plan, snap.spec.global_batch, &more, &model.env);
        ((next - cur) / CPU_DELTA as f64 / self.norm(id)).max(0.0)
    }

    fn cpu_loss(&self, id: JobId, plan: &ExecutionPlan, placement: &Placement) -> f64 {
        if placement.cpus <= CPU_DELTA {
            return f64::INFINITY;
        }
        let snap = self.snap(id);
        let Some(model) = self.model(id) else {
            return f64::INFINITY;
        };
        let mut fewer = placement.clone();
        fewer.cpus -= CPU_DELTA;
        let cur = model.params.throughput(
            &model.spec,
            plan,
            snap.spec.global_batch,
            placement,
            &model.env,
        );
        let prev = model.params.throughput(
            &model.spec,
            plan,
            snap.spec.global_batch,
            &fewer,
            &model.env,
        );
        ((cur - prev) / CPU_DELTA as f64 / self.norm(id)).max(0.0)
    }
}

/// Below this many jobs the context build stays sequential: thread spawn
/// and join overhead outweighs the per-job work.
const MIN_PARALLEL_JOBS: usize = 16;

/// The worker-thread count for a round over `items` jobs: `None` =
/// sequential, `Some(0)` = all available cores, `Some(n)` = at most `n`.
fn effective_threads(parallelism: Option<usize>, items: usize) -> usize {
    let configured = match parallelism {
        None => 1,
        Some(0) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Some(n) => n,
    };
    if items < MIN_PARALLEL_JOBS {
        1
    } else {
        configured.clamp(1, items)
    }
}

/// Computes one job's context entries: plan-search mode, GPU sensitivity
/// curve, SLA baseline and minimum demand. Pure in (snapshot spec,
/// registry, cluster geometry) — full-search curves go through the shared
/// keyed cache, whose hit/miss pattern cannot change the values. Because
/// no input changes from round to round, the result is kept across rounds
/// in the [`PartsCache`]; the penalty-gate state (`frozen`) depends on the
/// job's runtime and is computed per round at merge time instead.
fn build_job_parts(
    sched: &RubickScheduler,
    snap: &JobSnapshot,
    total_gpus: u32,
    estimator: MemoryEstimator,
) -> CachedParts {
    let cfg = &sched.config;
    let search = if cfg.plan_reconfig {
        PlanSearch::Full
    } else if cfg.resource_realloc {
        PlanSearch::DpScale(snap.spec.initial_plan)
    } else {
        PlanSearch::Fixed(snap.spec.initial_plan)
    };
    let curve = job_gpu_curve(
        &sched.registry,
        &search,
        &snap.spec.model.name,
        snap.spec.global_batch,
        total_gpus,
    );
    CachedParts {
        model: sched.registry.model(&snap.spec.model.name),
        norm: slope_norm(
            job_baseline(&sched.registry, snap),
            curve.as_deref(),
            total_gpus,
        ),
        curve,
        minimum: super::minres::min_res(
            &sched.registry,
            snap,
            &search,
            cfg.resource_realloc,
            estimator,
        ),
        search,
    }
}

/// Slope normalization constant: the geometric mean of the job's SLA
/// baseline (throughput of the user-requested configuration) and its best
/// achievable throughput on this cluster (curve peak). Baseline
/// normalization alone lets jobs with weak submitted plans dominate the
/// slope order (low average JCT but heavy churn and starved tails); peak
/// normalization alone is scale-free but sacrifices average JCT. The
/// geometric mean interpolates between the two.
fn slope_norm(baseline: Option<f64>, curve: Option<&SensitivityCurve>, total_gpus: u32) -> f64 {
    let baseline = baseline.unwrap_or(1.0).max(1e-9);
    let peak = curve
        .map(|c| c.value(total_gpus))
        .filter(|v| *v > 0.0)
        .unwrap_or(baseline);
    (baseline * peak).sqrt().max(1e-9)
}

/// Builds the round's [`Ctx`] (`DESIGN.md` §11): per-job parts from the
/// [`PartsCache`] or freshly built, the round's penalty-gate and
/// finishing flags, and the recycled [`JobIndex`] and [`PlanMemo`].
fn build_ctx<'a>(
    sched: &'a RubickScheduler,
    cache: &mut PartsCache,
    jobs: &'a [JobSnapshot],
    cluster: &Cluster,
) -> Ctx<'a> {
    let cfg = &sched.config;
    let total_gpus = cluster.schedulable_capacity().gpus;
    // The per-job work (curve, baseline, minimum demand) is the round's
    // hot path and is embarrassingly parallel: each entry is a pure
    // function of (snapshot, registry). Entries are computed on worker
    // threads and merged back in slice order, so the result is
    // byte-identical to the sequential build at any thread count.
    // One estimator per round (it is a cheap `Copy` of the cluster's GPU
    // memory capacity), shared by every per-job minimum-demand search and
    // the allocation passes below.
    //
    // Jobs seen in an earlier round reuse their cached parts; the cache
    // key is read *after* the observe loop, so a refit this round bumps
    // the registry version and rebuilds every entry.
    let estimator = MemoryEstimator::new(cluster.shape().gpu_mem_gb);
    let key = (sched.registry.version(), total_gpus);
    if cache.key != Some(key) {
        cache.parts.clear();
        cache.key = Some(key);
    }
    let mut index = std::mem::take(&mut cache.index);
    index.rebuild(jobs);
    // Cached parts for jobs that left the system are dead weight.
    cache.parts.retain(|id, _| index.get(*id).is_some());
    let mut memo = std::mem::take(&mut cache.memo);
    memo.begin_round(key.0);
    let n = jobs.len();
    let mut ctx = Ctx {
        sched,
        index,
        snaps: Vec::with_capacity(n),
        models: Vec::with_capacity(n),
        searches: Vec::with_capacity(n),
        minima: Vec::with_capacity(n),
        norms: Vec::with_capacity(n),
        curves: Vec::with_capacity(n),
        frozen: Vec::with_capacity(n),
        finishing: Vec::with_capacity(n),
        estimator,
        total_gpus,
        memo: RefCell::new(memo),
    };
    let cached: Vec<Option<CachedParts>> = jobs
        .iter()
        .map(|s| cache.parts.get(&s.id()).cloned())
        .collect();
    let missing: Vec<&JobSnapshot> = jobs
        .iter()
        .zip(&cached)
        .filter(|(_, hit)| hit.is_none())
        .map(|(s, _)| s)
        .collect();
    let threads = effective_threads(cfg.parallelism, missing.len());
    let built: Vec<CachedParts> = if threads <= 1 {
        missing
            .iter()
            .map(|snap| build_job_parts(sched, snap, total_gpus, estimator))
            .collect()
    } else {
        let chunk = missing.len().div_ceil(threads);
        crossbeam::scope(|scope| {
            let handles: Vec<_> = missing
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|snap| build_job_parts(sched, snap, total_gpus, estimator))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("round context thread panicked"))
                .collect()
        })
        .expect("round context scope panicked")
    };
    let mut built = built.into_iter();
    for (snap, hit) in jobs.iter().zip(cached) {
        let id = snap.id();
        ctx.snaps.push(snap);
        let parts = match hit {
            Some(parts) => parts,
            None => {
                let parts = built.next().expect("one built part per cache miss");
                cache.parts.insert(id, parts.clone());
                parts
            }
        };
        ctx.models.push(parts.model);
        ctx.curves.push(parts.curve);
        ctx.norms.push(parts.norm);
        ctx.minima.push(parts.minimum);
        // The penalty gate reads the job's accumulated runtime, which
        // grows every round — never cached.
        ctx.frozen
            .push(snap.status.is_running() && !snap.reconfig_allowed(cfg.reconfig_threshold));
        ctx.finishing.push(is_finishing(snap));
        ctx.searches.push(parts.search);
    }

    ctx
}

/// Entry point called from [`Scheduler::schedule`](rubick_sim::Scheduler):
/// plans every job and reports how many plan searches ran.
pub(super) fn run_round(
    sched: &RubickScheduler,
    cache: &mut PartsCache,
    now: f64,
    jobs: &[JobSnapshot],
    cluster: &Cluster,
    tenants: &[Tenant],
) -> (Vec<Assignment>, RoundStats) {
    let cfg = &sched.config;

    // ---- lazy profiling (phase ① of Fig. 4) -----------------------------
    // Unknown model types are profiled on first sight; their jobs stay in
    // the queue until the simulated profiling window elapses.
    let filtered: Option<Vec<JobSnapshot>> = sched.lazy.as_ref().map(|lazy| {
        let mut ready = lazy.ready_at.lock();
        for snap in jobs {
            let name = &snap.spec.model.name;
            if sched.registry.model(name).is_none() && !ready.contains_key(name) {
                let wall = sched
                    .registry
                    .profile_on_demand(&lazy.oracle, &snap.spec.model)
                    .unwrap_or(0.0);
                ready.insert(name.clone(), now + wall);
            }
        }
        jobs.iter()
            .filter(|s| {
                ready
                    .get(&s.spec.model.name)
                    .map(|&t| now >= t)
                    .unwrap_or(true)
            })
            .cloned()
            .collect()
    });
    let jobs: &[JobSnapshot] = filtered.as_deref().unwrap_or(jobs);

    // ---- continuous model fitting (§4.3) --------------------------------
    // Feed live throughput observations into the per-model online fitters;
    // mispredicted models are refit and their cached curves invalidated
    // before this round's decisions are made.
    for snap in jobs {
        if let JobStatus::Running {
            allocation,
            plan,
            throughput,
            ..
        } = &snap.status
        {
            if *throughput > 0.0 {
                let iter_time = snap.spec.global_batch as f64 / throughput;
                sched.registry.observe(
                    &snap.spec.model.name,
                    plan,
                    &allocation.to_placement(),
                    snap.spec.global_batch,
                    iter_time,
                );
            }
        }
    }

    // ---- initial state: current allocations applied --------------------
    let mut state = State {
        round: RoundContext::new(cluster, jobs),
        alloc: BTreeMap::new(),
        changed: BTreeSet::new(),
    };
    for (id, alloc) in state.round.charge_running() {
        state.alloc.insert(id, alloc);
    }

    // ---- build round context ------------------------------------------
    let mut ctx = build_ctx(sched, cache, jobs, cluster);

    let mut searched: u64 = 0;

    // ---- pass 1: privileged guaranteed jobs within quota ---------------
    let queued_guaranteed: Vec<JobId> = state
        .round
        .queued_fifo(|s| s.spec.class == JobClass::Guaranteed)
        .iter()
        .map(|s| s.id())
        .collect();
    for id in queued_guaranteed {
        if quota_allows(&ctx, &state, tenants, id) {
            searched += 1;
            schedule_job(&ctx, &mut state, id);
        }
    }

    // ---- pass 1b: starving best-effort jobs get priority ---------------
    let starving: Vec<JobId> = state
        .round
        .queued_fifo(|s| {
            s.spec.class == JobClass::BestEffort && now - s.queued_since > cfg.starvation_timeout
        })
        .iter()
        .map(|s| s.id())
        .collect();
    for id in starving {
        searched += 1;
        schedule_job(&ctx, &mut state, id);
    }

    // ---- pass 2: best-effort + running, sorted by slope ----------------
    let rest: Vec<JobId> = jobs
        .iter()
        .filter(|s| {
            // Queued jobs already admitted by the privileged/starvation
            // passes hold an allocation in `state` and are done this round.
            (s.status.is_queued()
                && s.spec.class == JobClass::BestEffort
                && !state.alloc.contains_key(&s.id()))
                || s.status.is_running()
        })
        .map(|s| s.id())
        .collect();
    // Sort by jump-aware slope with queue aging: a job's priority rises as
    // it waits, smoothly generalizing the hard starvation promotion so
    // large lumpy-curve jobs (low slope-per-GPU) still get scheduled.
    let priority = |ctx: &Ctx<'_>, state: &State<'_>, id: &JobId| -> f64 {
        let gpus = state.alloc.get(id).map(|x| x.gpus()).unwrap_or(0);
        let slope = ctx.jump_gain(*id, gpus);
        let snap = ctx.snap(*id);
        let age = if snap.status.is_queued() {
            (now - snap.queued_since).max(0.0) / cfg.starvation_timeout.max(1.0)
        } else {
            0.0
        };
        slope * (1.0 + age)
    };
    // Keys are computed once per job, not per comparison: deriving them
    // in the comparator would repeat the curve queries O(n log n) times.
    let mut rest: Vec<(f64, JobId)> = rest
        .into_iter()
        .map(|id| (priority(&ctx, &state, &id), id))
        .collect();
    rest.sort_by(|(pa, a), (pb, b)| pb.total_cmp(pa).then(a.cmp(b)));
    let rest: Vec<JobId> = rest.into_iter().map(|(_, id)| id).collect();
    for id in rest {
        searched += 1;
        schedule_job(&ctx, &mut state, id);
    }

    // ---- emit assignments ----------------------------------------------
    let out = emit(&ctx, state);
    cache.index = std::mem::take(&mut ctx.index);
    cache.memo = ctx.memo.into_inner();
    let stats = RoundStats {
        dirty: jobs.len() as u64,
        searched,
        ..RoundStats::default()
    };
    (out, stats)
}

/// Remaining-quota check for a guaranteed job: the sum of minimum demands
/// of this tenant's already-assigned guaranteed jobs plus this job's must
/// fit the quota. Unknown tenants are unconstrained.
fn quota_allows(ctx: &Ctx<'_>, state: &State<'_>, tenants: &[Tenant], id: JobId) -> bool {
    let snap = ctx.snap(id);
    let Some(tenant) = tenants.iter().find(|t| t.id == snap.spec.tenant) else {
        return true;
    };
    let mut used = Resources::zero();
    for (other, alloc) in &state.alloc {
        if *other == id || alloc.is_empty() {
            continue;
        }
        let o = ctx.snap(*other);
        if o.spec.class == JobClass::Guaranteed && o.spec.tenant == snap.spec.tenant {
            used += ctx.minimum(*other);
        }
    }
    let want = ctx.minimum(id);
    tenant.quota.dominates(&(used + want))
}

/// `ScheduleJob` of Algorithm 1: grow `id` using free resources and, where
/// justified by slopes, resources reclaimed from the least sensitive jobs.
fn schedule_job(ctx: &Ctx<'_>, state: &mut State<'_>, id: JobId) -> bool {
    // The reconfiguration-penalty gate (§5.2) deters churn, but it must not
    // hard-block a clear win: a gated job may still absorb *free* capacity
    // (no victims disturbed) when the predicted saving clears a stricter
    // amortization bar — see the commit guard below.
    let frozen = ctx.is_frozen(id);
    let snap = ctx.snap(id);
    let Some(model) = ctx.model(id) else {
        return false;
    };
    let backup = state.clone();

    let cur_alloc = state
        .alloc
        .get(&id)
        .cloned()
        .unwrap_or_else(Allocation::empty);
    let minimum = ctx.minimum(id);
    // Admission is capped at the user's request (or the smallest runnable
    // amount if the request itself is invalid): a job may not hoard the
    // whole idle cluster the moment it arrives. Growth beyond the request
    // happens in later rounds through the guarded running-job path, once
    // competing demand is visible. Stealing is further restricted: jobs
    // whose penalty gate is active may only absorb free capacity.
    let cap_gpus = if !ctx.sched.config.resource_realloc {
        snap.spec.requested.gpus
    } else if snap.status.is_running() {
        ctx.g_star(id)
    } else {
        let first_useful = ctx
            .curve(id)
            .and_then(|c| c.min_amount_reaching(1e-12))
            .unwrap_or(snap.spec.requested.gpus);
        ctx.g_star(id)
            .min(snap.spec.requested.gpus.max(first_useful))
    };
    let steal_cap_gpus = if frozen { cur_alloc.gpus() } else { cap_gpus };
    if cap_gpus == 0 {
        return false;
    }
    let cap_cpus = if ctx.sched.config.resource_realloc {
        (10 * cap_gpus + 4).max(minimum.cpus)
    } else {
        snap.spec.requested.cpus
    };
    let cap_mem = ctx
        .estimator
        .host_mem_gb(
            &snap.spec.model,
            &ExecutionPlan::zero_offload(cap_gpus.max(1)),
        )
        .max(snap.spec.requested.mem_gb);

    let mut tentative = cur_alloc.clone();
    // Built on the first victim search (see `victim_candidates`).
    let mut candidates: Option<Vec<(usize, JobId)>> = None;
    // `jump_gain` at the last GPU count it was asked for: most nodes leave
    // the count unchanged, and the curve scan is the loop's costliest read.
    let mut gain_at: Option<(u32, f64)> = None;
    // The lowest loss slope any victim could offer (`victim_slope_floor`),
    // valid until the next transfer.
    let mut floor: Option<f64> = None;

    // Node order: nodes the job already occupies first (consolidation),
    // then descending free GPUs.
    let mut order: Vec<usize> = (0..state.round.free().len()).collect();
    order.sort_by_key(|&n| {
        let mine = tentative
            .per_node
            .iter()
            .find(|(i, _)| *i == n)
            .map(|(_, r)| r.gpus)
            .unwrap_or(0);
        (
            std::cmp::Reverse(mine),
            std::cmp::Reverse(state.round.free()[n].gpus),
            n,
        )
    });

    for n in order {
        let total = tentative.total();
        if total.gpus >= cap_gpus && total.cpus >= cap_cpus.min(total.gpus * 2 + 1) {
            break;
        }
        // Grab free resources (capped at what the job can use).
        let avail = state.round.free()[n];
        let take = Resources::new(
            cap_gpus.saturating_sub(total.gpus).min(avail.gpus),
            cap_cpus.saturating_sub(total.cpus).min(avail.cpus),
            (cap_mem - total.mem_gb).clamp(0.0, avail.mem_gb),
        );
        if take.any_positive() {
            state.round.free_mut()[n] -= take;
            tentative.merge(&Allocation::on_node(n, take));
        }
        // Reclaim GPUs from the least sensitive job on this node.
        loop {
            let gpus_now = tentative.gpus();
            if gpus_now >= steal_cap_gpus {
                break;
            }
            let below_min = gpus_now < minimum.gpus;
            let my_gain = match gain_at {
                Some((gpus, gain)) if gpus == gpus_now => gain,
                _ => {
                    let gain = ctx.jump_gain(id, gpus_now);
                    gain_at = Some((gpus_now, gain));
                    gain
                }
            };
            if !below_min && my_gain <= EPS_SLOPE {
                break;
            }
            // No victim on any node beats the floor, so when the floor does
            // not clear the hysteresis bar no node can yield a transfer.
            if !below_min
                && *floor.get_or_insert_with(|| victim_slope_floor(ctx, state, id))
                    >= my_gain * SHRINK_HYSTERESIS
            {
                break;
            }
            let cands = candidates.get_or_insert_with(|| victim_candidates(ctx, state, id));
            let Some(victim) = lowest_slope_victim(ctx, state, cands, n) else {
                break;
            };
            let victim_gpus = state.alloc[&victim].gpus();
            if below_min
                || ctx.loss_slope(ctx.idx(victim), victim_gpus) < my_gain * SHRINK_HYSTERESIS
            {
                transfer_gpu(state, victim, n, &mut tentative);
                floor = None;
            } else {
                break;
            }
        }
        // Reclaim CPUs similarly (relevant for offload-bound jobs).
        if ctx.sched.config.resource_realloc {
            reclaim_cpus(ctx, state, n, id, &mut tentative, cap_cpus);
        }
    }

    // ---- accept or roll back -------------------------------------------
    let total = tentative.total();
    if tentative.is_empty() || !total.dominates(&minimum) {
        *state = backup;
        return false;
    }
    let Some((plan, mut tput)) = ctx.best_plan(id, tentative.to_placement()) else {
        *state = backup;
        return false;
    };

    // If some grabbed GPUs are useless (invalid plan sizes), return them.
    let mut plan = plan;
    if let Some(curve) = ctx.curve(id) {
        let envelope = curve.value(total.gpus);
        if envelope > tput * 1.005 {
            if let Some(target) = curve.min_amount_reaching(envelope) {
                shrink_alloc_to(state.round.free_mut(), &mut tentative, target);
                if let Some((p2, t2)) = ctx.best_plan(id, tentative.to_placement()) {
                    plan = p2;
                    tput = t2;
                }
            }
        }
    }

    // AllocMem: trim CPUs and memory to the chosen plan's demand.
    let demand = ctx
        .estimator
        .demand(&snap.spec.model, &plan, snap.spec.global_batch);
    trim_to_demand(state, &mut tentative, &demand);

    // Churn guard for running jobs: only reconfigure for a real gain.
    if let JobStatus::Running {
        allocation: old_alloc,
        plan: old_plan,
        ..
    } = &snap.status
    {
        if *old_alloc == tentative && *old_plan == plan {
            // Nothing changed; keep as-is but preserve any shrinks made to
            // other jobs (they were justified by slope comparisons).
            state.alloc.insert(id, tentative);
            return true;
        }
        let old_tput = model
            .throughput(old_plan, snap.spec.global_batch, &old_alloc.to_placement())
            .unwrap_or(0.0);
        if tput < old_tput * (1.0 + ctx.sched.config.min_gain) {
            *state = backup;
            return true;
        }
        // Amortization: the upgrade must save more wall-clock over the
        // job's remaining work than the checkpoint-resume it costs (plus
        // one victim restart's worth of slack). Jobs whose penalty gate is
        // active face a stricter bar — only clear wins restart them.
        let samples_left = snap.remaining_batches * snap.spec.global_batch as f64;
        if old_tput > 0.0 && tput > 0.0 {
            let saved = samples_left / old_tput - samples_left / tput;
            let bar = if frozen { 5.0 } else { 2.0 };
            if saved < bar * snap.spec.checkpoint_resume_secs() {
                *state = backup;
                return true;
            }
        }
    }

    state.alloc.insert(id, tentative);
    state.changed.insert(id);
    true
}

/// `GetLowestSlopeOverMinJob`: the job on node `n` that may still shrink
/// with the lowest normalized GPU loss slope, among `candidates` (see
/// [`victim_candidates`]).
fn lowest_slope_victim(
    ctx: &Ctx<'_>,
    state: &State<'_>,
    candidates: &[(usize, JobId)],
    n: usize,
) -> Option<JobId> {
    let start = candidates.partition_point(|&(node, _)| node < n);
    let mut best: Option<(JobId, f64)> = None;
    for &(_, cand) in candidates[start..]
        .iter()
        .take_while(|(node, _)| *node == n)
    {
        // Transfers earlier in the visit may have emptied the grant.
        let Some(alloc) = state.alloc.get(&cand) else {
            continue;
        };
        let on_node = alloc
            .per_node
            .iter()
            .find(|(i, _)| *i == n)
            .map(|(_, r)| r.gpus)
            .unwrap_or(0);
        if on_node == 0 {
            continue;
        }
        let gpus = alloc.gpus();
        let pos = ctx.idx(cand);
        if !ctx.can_shrink(pos, gpus) {
            continue;
        }
        let loss = ctx.loss_slope(pos, gpus);
        if best.as_ref().map(|(_, b)| loss < *b).unwrap_or(true) {
            best = Some((cand, loss));
        }
    }
    best.map(|(id, _)| id)
}

/// The lowest normalized GPU loss slope among the jobs a visit by `id` may
/// shrink, on any node. Every victim [`lowest_slope_victim`] can return is
/// among them, so none has a lower slope; the steal loop stops when this
/// floor does not clear the hysteresis bar, without building candidates.
/// Only a GPU transfer changes it (CPU reclaim leaves GPU counts alone).
fn victim_slope_floor(ctx: &Ctx<'_>, state: &State<'_>, id: JobId) -> f64 {
    let mut floor = f64::INFINITY;
    for (&cand, alloc) in &state.alloc {
        let (pos, gpus) = (ctx.idx(cand), alloc.gpus());
        if cand != id && may_shrink(ctx, pos, gpus) {
            floor = floor.min(ctx.loss_slope(pos, gpus));
        }
    }
    floor
}

/// Every job a visit by `id` may take GPUs from, as `(node, job)` pairs
/// sorted by node and then [`JobId`]: each other job that may shrink,
/// under every node it holds GPUs on. A visit's transfers only take GPUs
/// away from these jobs, so no pair joins the list mid-visit and it is
/// built once per visit instead of scanning every allocation per node.
fn victim_candidates(ctx: &Ctx<'_>, state: &State<'_>, id: JobId) -> Vec<(usize, JobId)> {
    let mut out: Vec<(usize, JobId)> = state
        .alloc
        .iter()
        .filter(|(cand, alloc)| **cand != id && may_shrink(ctx, ctx.idx(**cand), alloc.gpus()))
        .flat_map(|(cand, alloc)| {
            alloc
                .per_node
                .iter()
                .filter(|(_, r)| r.gpus > 0)
                .map(move |(node, _)| (*node, *cand))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Whether the job at slice position `pos`, holding `gpus` GPUs, may lose
/// one to another job.
fn may_shrink(ctx: &Ctx<'_>, pos: usize, gpus: u32) -> bool {
    // Note: the reconfiguration-penalty gate deliberately does NOT protect
    // victims here. The gate (§5.2) limits how often a job reconfigures
    // *for its own benefit*; being shrunk by a higher-slope job or
    // preempted for an SLA is a scheduler decision the victim cannot veto
    // (best-effort jobs "can be preempted by the system", §5.1). Churn is
    // bounded instead by the slope comparison itself: a transfer only
    // happens when it increases total normalized throughput.
    ctx.can_shrink(pos, gpus) && !ctx.finishing[pos]
}

/// Whether a running job is about to finish: it will release everything
/// shortly, and a restart would cost more GPU-time than a transfer from it
/// recovers. Fixed for the round, so computed once per job.
fn is_finishing(snap: &JobSnapshot) -> bool {
    match &snap.status {
        JobStatus::Running { throughput, .. } => {
            let remaining_secs =
                snap.remaining_batches * snap.spec.global_batch as f64 / throughput.max(1e-9);
            remaining_secs < 3.0 * snap.spec.checkpoint_resume_secs()
        }
        _ => false,
    }
}

/// Moves one GPU (with a proportional CPU share) from `victim`'s grant on
/// node `n` into `tentative`.
fn transfer_gpu(state: &mut State<'_>, victim: JobId, n: usize, tentative: &mut Allocation) {
    let alloc = state.alloc.get_mut(&victim).expect("victim allocated");
    let entry = alloc
        .per_node
        .iter_mut()
        .find(|(i, _)| *i == n)
        .expect("victim on node");
    let cpus_per_gpu = (entry.1.cpus / entry.1.gpus.max(1)).min(entry.1.cpus);
    entry.1.gpus -= 1;
    entry.1.cpus -= cpus_per_gpu;
    let moved = Resources::new(1, cpus_per_gpu, 0.0);
    alloc.per_node.retain(|(_, r)| r.any_positive());
    if alloc.is_empty() {
        state.alloc.remove(&victim);
    }
    state.changed.insert(victim);
    tentative.merge(&Allocation::on_node(n, moved));
}

/// CPU reclamation on node `n` for job `id` under its current tentative
/// plan, driven by direct model slope comparisons.
fn reclaim_cpus(
    ctx: &Ctx<'_>,
    state: &mut State<'_>,
    n: usize,
    id: JobId,
    tentative: &mut Allocation,
    cap_cpus: u32,
) {
    // Only bother when the job has GPUs on this node already.
    if !tentative
        .per_node
        .iter()
        .any(|(i, r)| *i == n && r.gpus > 0)
    {
        return;
    }
    for _ in 0..8 {
        let total = tentative.total();
        if total.cpus >= cap_cpus {
            break;
        }
        let placement = tentative.to_placement();
        let Some((plan, _)) = ctx.best_plan(id, placement.clone()) else {
            break;
        };
        let my_gain = ctx.cpu_gain(id, &plan, &placement);
        if my_gain <= EPS_SLOPE {
            break;
        }
        // Lowest CPU-loss victim on the node.
        let mut best: Option<(JobId, f64)> = None;
        for (cand, alloc) in &state.alloc {
            if *cand == id || ctx.is_frozen(*cand) {
                continue;
            }
            let on_node = alloc
                .per_node
                .iter()
                .find(|(i, _)| *i == n)
                .map(|(_, r)| r.cpus)
                .unwrap_or(0);
            let min_cpus = ctx.minimum(*cand).cpus;
            if on_node < CPU_DELTA || alloc.total().cpus < min_cpus + CPU_DELTA {
                continue;
            }
            let c_snap = ctx.snap(*cand);
            let Some(plan) = c_snap.plan().copied() else {
                continue;
            };
            let loss = ctx.cpu_loss(*cand, &plan, &alloc.to_placement());
            if best.as_ref().map(|(_, b)| loss < *b).unwrap_or(true) {
                best = Some((*cand, loss));
            }
        }
        let Some((victim, loss)) = best else { break };
        if loss >= my_gain * SHRINK_HYSTERESIS {
            break;
        }
        let alloc = state.alloc.get_mut(&victim).expect("victim allocated");
        let entry = alloc
            .per_node
            .iter_mut()
            .find(|(i, _)| *i == n)
            .expect("victim on node");
        entry.1.cpus -= CPU_DELTA;
        state.changed.insert(victim);
        tentative.merge(&Allocation::on_node(n, Resources::new(0, CPU_DELTA, 0.0)));
    }
}

/// Returns GPUs above `target` to the free pool, smallest per-node grants
/// first (consolidation).
fn shrink_alloc_to(free: &mut [Resources], tentative: &mut Allocation, target: u32) {
    while tentative.gpus() > target {
        // Drop from the node entry with the fewest GPUs.
        let Some(idx) = tentative
            .per_node
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| r.gpus > 0)
            .min_by_key(|(_, (_, r))| r.gpus)
            .map(|(i, _)| i)
        else {
            break;
        };
        let node = tentative.per_node[idx].0;
        tentative.per_node[idx].1.gpus -= 1;
        free[node] += Resources::new(1, 0, 0.0);
        tentative.per_node.retain(|(_, r)| r.any_positive());
    }
}

/// `AllocMem` (lines 19–23): size the job's CPU and host-memory grant to
/// the chosen plan's demand, returning the excess to the free pool.
fn trim_to_demand(
    state: &mut State<'_>,
    tentative: &mut Allocation,
    demand: &rubick_model::ResourceDemand,
) {
    let total = tentative.total();
    let mut excess_cpus = total.cpus.saturating_sub(demand.cpus.max(1));
    let mut excess_mem = (total.mem_gb - demand.host_mem_gb.max(1.0)).max(0.0);
    for (node, res) in tentative.per_node.iter_mut() {
        if excess_cpus > 0 {
            let back = excess_cpus.min(res.cpus.saturating_sub(res.gpus)); // keep ≥1 cpu/gpu
            res.cpus -= back;
            state.round.free_mut()[*node] += Resources::new(0, back, 0.0);
            excess_cpus -= back;
        }
        if excess_mem > 0.0 {
            let back = excess_mem.min(res.mem_gb);
            res.mem_gb -= back;
            state.round.free_mut()[*node] += Resources::new(0, 0, back);
            excess_mem -= back;
        }
    }
    tentative.per_node.retain(|(_, r)| r.any_positive());
}

/// Builds the final assignment list: recompute plans for changed jobs,
/// reproduce current configs verbatim for untouched ones.
fn emit(ctx: &Ctx<'_>, mut state: State<'_>) -> Vec<Assignment> {
    let mut out = Vec::new();
    let ids: Vec<JobId> = state.alloc.keys().copied().collect();
    for id in ids {
        let alloc = state.alloc[&id].clone();
        if alloc.is_empty() {
            continue;
        }
        let snap = ctx.snap(id);
        if !state.changed.contains(&id) {
            if let JobStatus::Running {
                allocation, plan, ..
            } = &snap.status
            {
                out.push(Assignment {
                    job: id,
                    allocation: allocation.clone(),
                    plan: *plan,
                });
                continue;
            }
        }
        let Some(model) = ctx.model(id) else {
            continue;
        };
        let mut alloc = alloc;
        let placement = alloc.to_placement();
        let best = ctx.best_plan(id, placement.clone()).or_else(|| {
            // The exact GPU count has no valid plan (common under
            // DP-rescaling, whose valid counts are sparse): trim the
            // allocation down to the largest runnable amount instead of
            // preempting the job outright.
            let curve = ctx.curve(id)?;
            let (plan, _) = curve.best_plan_at(alloc.gpus())?;
            shrink_alloc_to(state.round.free_mut(), &mut alloc, plan.gpus());
            ctx.best_plan(id, alloc.to_placement())
        });
        let Some((plan, _)) = best else {
            // Genuinely no feasible plan: preempt to queue.
            continue;
        };
        // Keep the current plan when it performs within the churn guard on
        // unchanged resources (avoids checkpoint thrash on plan ties).
        let plan = match &snap.status {
            JobStatus::Running {
                allocation: old_alloc,
                plan: old_plan,
                ..
            } if *old_alloc == alloc => {
                let new = model
                    .throughput(&plan, snap.spec.global_batch, &placement)
                    .unwrap_or(0.0);
                let old = model
                    .throughput(old_plan, snap.spec.global_batch, &placement)
                    .unwrap_or(0.0);
                if new > old * (1.0 + ctx.sched.config.min_gain)
                    && snap.reconfig_allowed(ctx.sched.config.reconfig_threshold)
                {
                    plan
                } else {
                    *old_plan
                }
            }
            _ => plan,
        };
        // Memory trim for changed victims.
        let demand = ctx
            .estimator
            .demand(&snap.spec.model, &plan, snap.spec.global_batch);
        trim_to_demand(&mut state, &mut alloc, &demand);
        if alloc.is_empty() {
            continue;
        }
        out.push(Assignment {
            job: id,
            allocation: alloc,
            plan,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{build_ctx, schedule_job, JobIndex, PartsCache, State, SHRINK_HYSTERESIS};
    use crate::registry::ModelRegistry;
    use crate::round::RoundContext;
    use crate::rubick::RubickScheduler;
    use rubick_model::resources::ResourceKind;
    use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, Resources, SensitivityCurve};
    use rubick_sim::cluster::{Allocation, Cluster};
    use rubick_sim::engine::{Engine, EngineConfig};
    use rubick_sim::job::{JobClass, JobSpec, JobStatus};
    use rubick_sim::scheduler::JobSnapshot;
    use rubick_sim::tenant::{Tenant, TenantId};
    use rubick_sim::SimReport;
    use rubick_testbed::TestbedOracle;
    use std::sync::Arc;

    fn registry(oracle: &TestbedOracle, specs: &[ModelSpec]) -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::from_oracle(oracle, specs).unwrap())
    }

    fn job(id: u64, model: ModelSpec, gpus: u32, plan: ExecutionPlan, batches: u64) -> JobSpec {
        JobSpec {
            id,
            global_batch: model.default_batch,
            submit_time: 0.0,
            target_batches: batches,
            requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
            initial_plan: plan,
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
            model,
        }
    }

    fn run(
        oracle: &TestbedOracle,
        registry: Arc<ModelRegistry>,
        nodes: usize,
        tenants: Vec<Tenant>,
        jobs: Vec<JobSpec>,
    ) -> SimReport {
        let mut engine = Engine::new(
            oracle,
            Box::new(RubickScheduler::new(registry)),
            Cluster::new(nodes, NodeShape::a800()),
            tenants,
            EngineConfig::default(),
        );
        engine.run(jobs)
    }

    #[test]
    fn single_job_expands_beyond_request_on_idle_cluster() {
        let oracle = TestbedOracle::new(21);
        let reg = registry(&oracle, &[ModelSpec::roberta_large()]);
        let j = job(1, ModelSpec::roberta_large(), 2, ExecutionPlan::dp(2), 3000);
        let report = run(&oracle, reg, 1, vec![], vec![j]);
        assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
        let r = &report.jobs[0];
        assert!(
            r.avg_throughput > r.baseline_throughput.unwrap() * 1.2,
            "rubick should expand an idle cluster: {} vs {}",
            r.avg_throughput,
            r.baseline_throughput.unwrap()
        );
    }

    #[test]
    fn guaranteed_jobs_meet_sla_under_contention() {
        let oracle = TestbedOracle::new(22);
        let reg = registry(
            &oracle,
            &[ModelSpec::roberta_large(), ModelSpec::bert_large()],
        );
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                let model = if i % 2 == 0 {
                    ModelSpec::roberta_large()
                } else {
                    ModelSpec::bert_large()
                };
                job(i, model, 4, ExecutionPlan::dp(4), 1500)
            })
            .collect();
        let report = run(&oracle, reg, 2, vec![], jobs);
        assert_eq!(report.jobs.len(), 4, "unfinished: {:?}", report.unfinished);
        assert!(
            report.sla_attainment() >= 0.75,
            "sla attainment {}",
            report.sla_attainment()
        );
    }

    #[test]
    fn llama7b_runs_on_single_gpu_cluster_via_offload() {
        // Fig. 7's end state: with only one GPU available, Rubick must pick
        // ZeRO-Offload (the only feasible plan) instead of failing.
        let oracle = TestbedOracle::new(23);
        let reg = registry(&oracle, &[ModelSpec::llama2_7b()]);
        let mut j = job(
            1,
            ModelSpec::llama2_7b(),
            1,
            ExecutionPlan::zero_offload(1),
            50,
        );
        j.requested = Resources::new(1, 32, 400.0);
        let mut engine = Engine::new(
            &oracle,
            Box::new(RubickScheduler::new(reg)),
            Cluster::new(
                1,
                NodeShape {
                    gpus: 1,
                    cpus: 32,
                    mem_gb: 400.0,
                    gpu_mem_gb: 80.0,
                },
            ),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![j]);
        assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
    }

    #[test]
    fn best_effort_yields_to_guaranteed() {
        let oracle = TestbedOracle::new(24);
        let reg = registry(&oracle, &[ModelSpec::roberta_large()]);
        let mut be = job(
            1,
            ModelSpec::roberta_large(),
            8,
            ExecutionPlan::dp(8),
            60_000,
        );
        be.class = JobClass::BestEffort;
        be.tenant = TenantId::new("tenant-b");
        let mut g = job(2, ModelSpec::roberta_large(), 8, ExecutionPlan::dp(8), 1000);
        g.submit_time = 120.0;
        g.tenant = TenantId::new("tenant-a");
        let report = run(&oracle, reg, 1, Tenant::paper_mt_pair(), vec![be, g]);
        assert_eq!(report.jobs.len(), 2, "unfinished: {:?}", report.unfinished);
        let g_rec = report.jobs.iter().find(|r| r.id == 2).unwrap();
        // The guaranteed job gets resources soon after submission (the
        // best-effort job is shrunk or preempted to make room).
        assert!(
            g_rec.first_start.unwrap() < 300.0,
            "guaranteed start: {:?}",
            g_rec.first_start
        );
    }

    #[test]
    fn skewed_allocation_beats_equal_share_total() {
        // Fig. 8's mechanism: RoBERTa benefits little from a 2nd GPU
        // compared to T5; Rubick should skew GPUs toward T5.
        let oracle = TestbedOracle::new(25);
        let reg = registry(&oracle, &[ModelSpec::roberta_large(), ModelSpec::t5_1b()]);
        let roberta = job(1, ModelSpec::roberta_large(), 4, ExecutionPlan::dp(4), 2000);
        let t5 = job(2, ModelSpec::t5_1b(), 4, ExecutionPlan::zero_dp(4), 600);
        let mut engine = Engine::new(
            &oracle,
            Box::new(RubickScheduler::new(reg)),
            Cluster::new(
                1,
                NodeShape {
                    gpus: 4,
                    cpus: 48,
                    mem_gb: 800.0,
                    gpu_mem_gb: 80.0,
                },
            ),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![roberta, t5]);
        assert_eq!(report.jobs.len(), 2, "unfinished: {:?}", report.unfinished);
        // Rubick produced *some* non-trivial schedule without violating
        // accounting, and at least one reconfiguration/allocation decision
        // happened across the run.
        assert!(report.rounds >= 2);
        assert_eq!(report.infeasible_assignments, 0);
    }

    #[test]
    fn no_infeasible_assignments_on_mixed_workload() {
        // The policy's memory estimator is shared with the oracle, so it
        // must never emit an assignment the testbed rejects.
        let oracle = TestbedOracle::new(26);
        let zoo = [
            ModelSpec::roberta_large(),
            ModelSpec::gpt2_xl(),
            ModelSpec::t5_1b(),
        ];
        let reg = registry(&oracle, &zoo);
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                let model = zoo[i as usize % 3].clone();
                let gpus = [1u32, 2, 4][i as usize % 3];
                let mut j = job(i, model, gpus, ExecutionPlan::zero_dp(gpus), 400);
                j.submit_time = i as f64 * 200.0;
                j
            })
            .collect();
        let report = run(&oracle, reg, 2, vec![], jobs);
        assert_eq!(report.jobs.len(), 6, "unfinished: {:?}", report.unfinished);
        assert_eq!(report.infeasible_assignments, 0);
    }

    fn queued(id: u64) -> JobSnapshot {
        JobSnapshot {
            spec: Arc::new(job(
                id,
                ModelSpec::roberta_large(),
                1,
                ExecutionPlan::dp(1),
                1000,
            )),
            status: JobStatus::Queued,
            remaining_batches: 1000.0,
            queued_since: 0.0,
            runtime: 0.0,
            reconfig_count: 0,
            baseline_throughput: None,
        }
    }

    fn running(spec: JobSpec, cpus: u32) -> JobSnapshot {
        JobSnapshot {
            status: JobStatus::Running {
                allocation: Allocation::on_node(
                    0,
                    Resources::new(spec.requested.gpus, cpus, spec.requested.mem_gb),
                ),
                plan: spec.initial_plan,
                throughput: 10.0,
                resume_at: 0.0,
            },
            remaining_batches: spec.target_batches as f64,
            queued_since: 0.0,
            runtime: 1.0e5,
            reconfig_count: 0,
            baseline_throughput: None,
            spec: Arc::new(spec),
        }
    }

    /// One visit of the steal loop on a full 8-GPU node: a running GPT-2
    /// job on 2 GPUs grows against a best-effort job on 6 GPUs whose GPU
    /// curve is linear with slope `victim_vs_gain` times the grower's
    /// normalized gain. Neither job is below its minimum, so only the
    /// slope rule can move a GPU. Returns both jobs' GPUs after the visit.
    fn steal_visit(victim_vs_gain: f64) -> (u32, u32) {
        let oracle = TestbedOracle::new(27);
        let reg = registry(&oracle, &[ModelSpec::gpt2_xl(), ModelSpec::roberta_large()]);
        let sched = RubickScheduler::new(reg);
        let grower = running(
            job(
                1,
                ModelSpec::gpt2_xl(),
                2,
                ExecutionPlan::zero_dp(2),
                1_000_000,
            ),
            16,
        );
        let mut victim = job(
            2,
            ModelSpec::roberta_large(),
            6,
            ExecutionPlan::dp(6),
            1_000_000,
        );
        victim.class = JobClass::BestEffort;
        let jobs = vec![grower, running(victim, 48)];
        let cluster = Cluster::new(1, NodeShape::a800());

        let mut cache = PartsCache::default();
        let mut ctx = build_ctx(&sched, &mut cache, &jobs, &cluster);
        ctx.minima = vec![Resources::zero(); 2];
        let gain = ctx.jump_gain(1, 2);
        assert!(gain > 0.0, "the grower gains from a third GPU");
        let slope = victim_vs_gain * gain;
        let plan = ExecutionPlan::dp(1);
        ctx.curves[1] = Some(Arc::new(SensitivityCurve::from_fn(
            ResourceKind::Gpu,
            8,
            |g| Some((plan, slope * g as f64)),
        )));
        ctx.norms[1] = 1.0;
        let loss = ctx.loss_slope(1, 6);
        assert!(loss < gain, "without hysteresis the transfer would pay off");

        let mut state = State {
            round: RoundContext::new(&cluster, &jobs),
            alloc: Default::default(),
            changed: Default::default(),
        };
        for (id, alloc) in state.round.charge_running() {
            state.alloc.insert(id, alloc);
        }
        assert_eq!(state.round.free()[0].gpus, 0, "the node is full");
        schedule_job(&ctx, &mut state, 1);
        let gpus = |id| state.alloc.get(&id).map(|a| a.gpus()).unwrap_or(0);
        (gpus(1), gpus(2))
    }

    #[test]
    fn steep_grower_takes_gpus_from_flat_best_effort_job() {
        let (grower, victim) = steal_visit(0.1);
        assert!(grower > 2, "the grower took a GPU: {grower}");
        assert!(victim < 6, "the flat victim gave one up: {victim}");
    }

    #[test]
    fn hysteresis_blocks_a_transfer_that_would_pay_off() {
        let factor = (1.0 + SHRINK_HYSTERESIS) / 2.0;
        assert_eq!(steal_visit(factor), (2, 6));
    }

    #[test]
    fn job_index_dense_and_sparse_agree() {
        let dense_jobs: Vec<JobSnapshot> = (0..40u64).map(queued).collect();
        let mut ix = JobIndex::default();
        ix.rebuild(&dense_jobs);
        assert!(ix.dense);
        for (pos, s) in dense_jobs.iter().enumerate() {
            assert_eq!(ix.get(s.id()), Some(pos));
        }
        assert_eq!(ix.get(40), None);

        // Sparse ids force the sorted-vec fallback.
        let sparse_jobs: Vec<JobSnapshot> = (0..4u64).map(|i| queued(i * 1_000_000 + 17)).collect();
        ix.rebuild(&sparse_jobs);
        assert!(!ix.dense);
        for (pos, s) in sparse_jobs.iter().enumerate() {
            assert_eq!(ix.get(s.id()), Some(pos));
        }
        assert_eq!(ix.get(18), None);

        // Rebuilding back to dense invalidates all stale entries.
        ix.rebuild(&dense_jobs);
        assert_eq!(ix.get(17), Some(17));
        assert_eq!(ix.get(1_000_017), None);
    }
}

#[cfg(test)]
mod lazy_profiling_tests {
    use crate::registry::ModelRegistry;
    use crate::rubick::RubickScheduler;
    use rubick_model::{ClusterEnv, ExecutionPlan, ModelSpec, NodeShape, Resources};
    use rubick_sim::cluster::Cluster;
    use rubick_sim::engine::{Engine, EngineConfig};
    use rubick_sim::job::{JobClass, JobSpec};
    use rubick_sim::tenant::TenantId;
    use rubick_testbed::TestbedOracle;
    use std::sync::Arc;

    #[test]
    fn unknown_model_types_are_profiled_on_demand() {
        let oracle = TestbedOracle::new(41);
        // Empty registry: nothing pre-profiled.
        let registry = Arc::new(ModelRegistry::new(ClusterEnv::a800(), NodeShape::a800()));
        let scheduler =
            RubickScheduler::new(Arc::clone(&registry)).with_lazy_profiling(oracle.clone());
        let job = JobSpec {
            id: 1,
            model: ModelSpec::roberta_large(),
            global_batch: 64,
            submit_time: 0.0,
            target_batches: 500,
            requested: Resources::new(4, 16, 100.0),
            initial_plan: ExecutionPlan::dp(4),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        };
        let mut engine = Engine::new(
            &oracle,
            Box::new(scheduler),
            Cluster::new(1, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![job]);
        assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
        // The model was registered on demand...
        assert!(registry.model("roberta-355m").is_some());
        // ...and the job waited out the simulated profiling window (~210s+,
        // surfaced at the next scheduling round).
        let start = report.jobs[0].first_start.unwrap();
        assert!(
            start >= 200.0,
            "job started before profiling finished: {start}"
        );
    }

    #[test]
    fn preprofiled_types_pay_nothing() {
        let oracle = TestbedOracle::new(41);
        let registry =
            Arc::new(ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap());
        let scheduler =
            RubickScheduler::new(Arc::clone(&registry)).with_lazy_profiling(oracle.clone());
        let job = JobSpec {
            id: 1,
            model: ModelSpec::roberta_large(),
            global_batch: 64,
            submit_time: 0.0,
            target_batches: 200,
            requested: Resources::new(4, 16, 100.0),
            initial_plan: ExecutionPlan::dp(4),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        };
        let mut engine = Engine::new(
            &oracle,
            Box::new(scheduler),
            Cluster::new(1, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![job]);
        assert_eq!(report.jobs.len(), 1);
        assert!(report.jobs[0].first_start.unwrap() < 60.0);
    }
}
