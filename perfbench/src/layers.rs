//! The traced pass: every per-layer metric, each timed around a public call
//! of its layer, on its home workload's inputs.
//!
//! | layer | measured on |
//! |---|---|
//! | `graph` | the meshes every workload generates |
//! | `shims` (rayon) | an empty parallel pass in a loop |
//! | `core`, `routing` | `edt-mesh`, through [`TimedBackend`] and [`SpanClock`] |
//! | `runtime` | `bfs-mesh` (bare phase split, arena, 1-thread speed-up) and `ldd-mesh-digest` |
//! | `trace`, `prof` | the observer ladder on `ldd-mesh-digest` inputs |
//! | `replay` | `journal-replay`'s four stages |
//!
//! Whatever workload is named, the whole table runs, so every traced run
//! prints every per-layer metric. The named workload additionally reports
//! one untraced pass (`bench.wall_s`) beside its traced pass
//! (`bench.traced_wall_s`); their difference is the tracing overhead.
//! Every wrapped, observed or profiled run is checked against the bare
//! run's outputs, so the instruments are shown not to perturb what they
//! measure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt_traced, ClusterRoundSpec, EdtBackend};
use mfd_core::programs::{BfsState, VoronoiState};
use mfd_graph::{gen, Graph};
use mfd_prof::Profile;
use mfd_routing::backend::{Executed, GatherBackend, GatherJob};
use mfd_routing::gather::{GatherReport, GatherStrategy};
use mfd_runtime::profile::{
    PHASE_COMMIT, PHASE_DELIVER, PHASE_EXCHANGE, PHASE_ROUTE, PHASE_SCAN, PHASE_STEP,
};
use mfd_runtime::{Executor, RuntimeError, ShardedExecution};
use mfd_trace::{DigestSink, Event, MetricsSink, NullSink, TraceSink};
use rayon::prelude::*;

use crate::util::{median, quantile, timed, Metrics};
use crate::workloads::{
    BfsMesh, EdtMesh, Env, JournalReplay, LddMesh, Workload, EDT_SIDE, LARGE_SIDE,
};
use crate::{Outcome, Stamp};

/// Repetitions of each observer-ladder rung (the median is reported).
const LADDER_REPS: usize = 3;
/// Empty parallel passes timed for `shims.par_pass_us`.
const PAR_PASSES: usize = 2000;

/// Counts checked runs and failed checks across the traced pass.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("check failed ({what}): {e}");
            self.failed += 1;
        }
    }
}

/// Wall time of the named workload's untraced and traced pass.
#[derive(Default)]
struct Named {
    wall_s: f64,
    traced_wall_s: f64,
}

pub fn run_traced(named: &str, env: Env, stamp: &mut Stamp) -> Outcome {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let mut bench = Named::default();
    stamp.observers = "traced: span sink, timed backend, Profile, observer ladder";

    graph_layer(&mut m);
    shims_layer(&mut m, env.threads);
    edt_layers(
        &mut m,
        &mut checks,
        env,
        (named == "edt-mesh").then_some(&mut bench),
    );
    bfs_layer(
        &mut m,
        &mut checks,
        env,
        (named == "bfs-mesh").then_some(&mut bench),
    );
    ldd_layers(
        &mut m,
        &mut checks,
        env,
        (named == "ldd-mesh-digest").then_some(&mut bench),
    );
    replay_layer(
        &mut m,
        &mut checks,
        env,
        (named == "journal-replay").then_some(&mut bench),
    );
    (stamp.n, stamp.m) = match named {
        "bfs-mesh" | "ldd-mesh-digest" => {
            let g = gen::mesh(LARGE_SIDE, LARGE_SIDE);
            (g.n(), g.m())
        }
        _ => {
            let g = gen::mesh(EDT_SIDE, EDT_SIDE);
            (g.n(), g.m())
        }
    };

    m.put("bench.wall_s", bench.wall_s, "s");
    m.put("bench.traced_wall_s", bench.traced_wall_s, "s");
    println!(
        "tracing overhead on {named}: traced_wall_s - wall_s = {:.4} s",
        bench.traced_wall_s - bench.wall_s
    );
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
    }
}

// ---------------------------------------------------------------------------
// graph, shims
// ---------------------------------------------------------------------------

fn graph_layer(m: &mut Metrics) {
    let (large, gen_s) = timed(|| gen::mesh(LARGE_SIDE, LARGE_SIDE));
    drop(black_box(large));
    let small = gen::mesh(EDT_SIDE, EDT_SIDE);
    let (g, to_graph_s) = timed(|| small.to_graph());
    drop(black_box(g));
    m.put("graph.gen_s", gen_s, "s");
    m.put("graph.to_graph_s", to_graph_s, "s");
}

/// One empty `par_iter().map().collect()` over `threads` items, in a loop:
/// the fork-join cost the sharded engine pays a few times per round.
fn shims_layer(m: &mut Metrics, threads: usize) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction cannot fail");
    let items: Vec<usize> = (0..threads).collect();
    let ((), secs) = timed(|| {
        pool.install(|| {
            for _ in 0..PAR_PASSES {
                let out: Vec<usize> = items.par_iter().map(|&x| black_box(x)).collect();
                black_box(out);
            }
        })
    });
    m.put("shims.par_pass_us", secs * 1e6 / PAR_PASSES as f64, "us");
}

// ---------------------------------------------------------------------------
// core, routing: the executed decomposition
// ---------------------------------------------------------------------------

/// An [`EdtBackend`] around [`Executed`] that delegates every trait method
/// and times each delegated call.
pub struct TimedBackend {
    inner: Executed,
    gather_ns: AtomicU64,
    gather_jobs: AtomicU64,
    cluster_round_ns: AtomicU64,
    cluster_round_calls: AtomicU64,
}

impl TimedBackend {
    pub fn new(inner: Executed) -> Self {
        TimedBackend {
            inner,
            gather_ns: AtomicU64::new(0),
            gather_jobs: AtomicU64::new(0),
            cluster_round_ns: AtomicU64::new(0),
            cluster_round_calls: AtomicU64::new(0),
        }
    }

    fn add(counter: &AtomicU64, start: Instant) {
        counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl GatherBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gather(
        &self,
        cluster: &Graph,
        leader: usize,
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
    ) -> GatherReport {
        let t = Instant::now();
        let report = self.inner.gather(cluster, leader, f, strategy, meter);
        Self::add(&self.gather_ns, t);
        self.gather_jobs.fetch_add(1, Ordering::Relaxed);
        report
    }

    fn gather_all_traced(
        &self,
        g: &Graph,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<GatherReport> {
        let t = Instant::now();
        let reports = self
            .inner
            .gather_all_traced(g, jobs, f, strategy, meter, sink);
        Self::add(&self.gather_ns, t);
        self.gather_jobs
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        reports
    }
}

impl EdtBackend for TimedBackend {
    fn cluster_graph_rounds(
        &self,
        g: &Graph,
        spec: &ClusterRoundSpec<'_>,
        cg_rounds: u64,
        meter: &mut RoundMeter,
    ) {
        let t = Instant::now();
        self.inner.cluster_graph_rounds(g, spec, cg_rounds, meter);
        Self::add(&self.cluster_round_ns, t);
        self.cluster_round_calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`TraceSink`] that timestamps `span_open`/`span_close` and sums the
/// wall time of each span name.
#[derive(Default)]
pub struct SpanClock {
    open: Vec<(&'static str, Instant)>,
    totals: BTreeMap<&'static str, f64>,
    cluster_runs: u64,
}

impl SpanClock {
    fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

impl TraceSink for SpanClock {
    fn event(&mut self, event: &Event) {
        if matches!(event, Event::ClusterRun { .. }) {
            self.cluster_runs += 1;
        }
    }

    fn span_open(&mut self, name: &'static str) {
        self.open.push((name, Instant::now()));
    }

    fn span_close(&mut self, name: &'static str, _rounds: u64, _messages: u64) {
        if let Some(pos) = self.open.iter().rposition(|&(n, _)| n == name) {
            let (_, start) = self.open.remove(pos);
            *self.totals.entry(name).or_default() += start.elapsed().as_secs_f64();
        }
    }
}

fn edt_layers(m: &mut Metrics, checks: &mut Checks, env: Env, named: Option<&mut Named>) {
    let mut w = EdtMesh::setup(env);
    let (bare, bare_s) = timed(|| w.pass());
    let Ok(bare) = bare else {
        checks.record("edt bare pass", Err("engine error".into()));
        return;
    };
    let verdict = w.check(&bare);
    checks.record("edt bare pass", verdict);

    let timed_backend = TimedBackend::new(w.backend.clone());
    let mut spans = SpanClock::default();
    let ((d, meter), traced_s) =
        timed(|| build_edt_traced(&w.graph, &w.config, &timed_backend, &mut spans));
    let (bare_d, bare_meter) = &bare;
    checks.record(
        "edt wrappers are non-perturbing",
        if d.clustering == bare_d.clustering
            && d.leaders == bare_d.leaders
            && meter.rounds() == bare_meter.rounds()
            && meter.messages() == bare_meter.messages()
        {
            Ok(())
        } else {
            Err("wrapped/traced EDT differs from the bare EDT".into())
        },
    );
    checks.record("edt traced pass", w.check(&(d.clone(), meter)));

    let gather_s = timed_backend.gather_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let cluster_round_s = timed_backend.cluster_round_ns.load(Ordering::Relaxed) as f64 / 1e9;
    m.put("core.merge_s", spans.total("merge"), "s");
    m.put("core.routing_s", spans.total("routing"), "s");
    m.put("routing.gather_s", gather_s, "s");
    m.put(
        "routing.gather_jobs",
        timed_backend.gather_jobs.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.put("routing.cluster_runs", spans.cluster_runs as f64, "count");
    m.put("core.cluster_round_s", cluster_round_s, "s");
    m.put(
        "core.cluster_round_calls",
        timed_backend.cluster_round_calls.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.put(
        "core.centralized_s",
        traced_s - gather_s - cluster_round_s,
        "s",
    );
    m.put("core.clusters", d.clustering.num_clusters() as f64, "count");
    m.put("core.epsilon_achieved", d.epsilon_achieved, "frac");
    m.put("core.diameter", d.diameter as f64, "count");
    m.put(
        "core.construction_rounds",
        d.construction_rounds as f64,
        "count",
    );
    m.put("core.routing_rounds", d.routing_rounds as f64, "count");
    m.put("core.merge_iterations", d.iterations as f64, "count");
    if let Some(named) = named {
        named.wall_s = bare_s;
        named.traced_wall_s = traced_s;
    }
}

// ---------------------------------------------------------------------------
// runtime: bare phase split on bfs-mesh
// ---------------------------------------------------------------------------

fn bfs_layer(m: &mut Metrics, checks: &mut Checks, env: Env, named: Option<&mut Named>) {
    let mut w = BfsMesh::setup(env);
    let prepared = w.prepare();
    checks.record("bfs reference", prepared);
    let (bare, bare_s) = timed(|| w.pass());
    let bare = bare.and_then(|run| {
        w.check_states(&run.states)?;
        w.check_counts(&run)?;
        Ok(run)
    });
    // Every other run must repeat the bare run exactly.
    let same = |run: Result<ShardedExecution<BfsState>, RuntimeError>| match (&bare, run) {
        (Ok(b), Ok(r))
            if r.states == b.states
                && (r.rounds, r.messages) == (b.rounds, b.messages)
                && r.arena == b.arena =>
        {
            Ok(())
        }
        (Err(e), _) => Err(e.clone()),
        _ => Err("differs from the bare run".to_string()),
    };
    checks.record(
        "bfs bare pass",
        bare.as_ref().map(|_| ()).map_err(String::clone),
    );

    // Bare phase split: the profiler beside the no-op observer, never a
    // digest sink.
    let mut profile = Profile::new();
    let (profiled, profiled_s) = timed(|| {
        w.engine
            .run_profiled(&w.graph, &w.program, &mut NullSink, &mut profile)
    });
    checks.record("bfs profiled == bare", same(profiled));

    let (one, one_s) = timed(|| env.sharded(1).run(&w.graph, &w.program));
    checks.record("bfs 1-thread == bare", same(one));

    let totals = profile.phase_wall_totals();
    let s = |phase: usize| totals[phase] as f64 / 1e9;
    m.put("runtime.scan_s", s(PHASE_SCAN), "s");
    m.put("runtime.step_s", s(PHASE_STEP), "s");
    m.put("runtime.route_s", s(PHASE_ROUTE), "s");
    m.put("runtime.exchange_s", s(PHASE_EXCHANGE), "s");
    m.put("runtime.deliver_s", s(PHASE_DELIVER), "s");
    m.put("runtime.commit_s", s(PHASE_COMMIT), "s");
    let round_ms: Vec<f64> = profile
        .rounds
        .iter()
        .map(|r| r.wall_ns as f64 / 1e6)
        .collect();
    if !round_ms.is_empty() {
        m.put("runtime.round_ms_p50", quantile(&round_ms, 0.5), "ms");
        m.put("runtime.round_ms_p99", quantile(&round_ms, 0.99), "ms");
    }
    let scanned = (w.graph.n() as u64 * profile.round_count()).max(1);
    m.put(
        "runtime.active_frac",
        profile.frontier_total() as f64 / scanned as f64,
        "frac",
    );
    let step = profile.phase_stats(PHASE_STEP);
    m.put("runtime.step_occupancy", step.occupancy, "frac");
    m.put("runtime.step_imbalance", step.imbalance, "ratio");
    if let Ok(run) = &bare {
        m.put(
            "runtime.mailbox_hwm",
            run.arena.mailbox_slots_hwm as f64,
            "count",
        );
        m.put(
            "runtime.route_hwm",
            run.arena.route_slots_hwm as f64,
            "count",
        );
    }
    m.put("runtime.speedup_1t", one_s / bare_s, "ratio");
    if let Some(named) = named {
        named.wall_s = bare_s;
        named.traced_wall_s = profiled_s;
    }
}

// ---------------------------------------------------------------------------
// trace, prof, runtime: the observer ladder on ldd-mesh-digest
// ---------------------------------------------------------------------------

fn ldd_layers(m: &mut Metrics, checks: &mut Checks, env: Env, named: Option<&mut Named>) {
    let mut w = LddMesh::setup(env);
    let prepared = w.prepare();
    checks.record("ldd references", prepared);

    // Every rung must repeat the bare run's states and messages.
    let vs_bare = |run: Result<ShardedExecution<VoronoiState>, RuntimeError>| {
        run.map_err(|e| e.to_string())
            .and_then(|r| w.check_states(&r))
    };
    // Rungs interleaved per repetition, so drift hits every rung alike.
    let mut bare = Vec::new();
    let mut metrics = Vec::new();
    let mut digest = Vec::new();
    let mut profiled = Vec::new();
    let mut profile = Profile::new();
    for _ in 0..LADDER_REPS {
        let (run, t) = timed(|| w.engine.run(&w.graph, &w.program));
        checks.record("ldd bare rung", vs_bare(run));
        bare.push(t);

        let mut sink = MetricsSink::new();
        let (run, t) = timed(|| w.engine.run_traced(&w.graph, &w.program, &mut sink));
        checks.record("ldd metrics rung == bare", vs_bare(run));
        metrics.push(t);

        let mut sink = DigestSink::new();
        let (run, t) = timed(|| w.engine.run_traced(&w.graph, &w.program, &mut sink));
        checks.record("ldd digest rung == bare", vs_bare(run));
        checks.record(
            "ldd digest head thread-invariant",
            if sink.head() == w.head_1t {
                Ok(())
            } else {
                Err("digest head differs".into())
            },
        );
        digest.push(t);

        profile = Profile::new();
        let (run, t) = timed(|| {
            w.engine
                .run_profiled(&w.graph, &w.program, &mut NullSink, &mut profile)
        });
        checks.record("ldd profiled rung == bare", vs_bare(run));
        profiled.push(t);
    }

    // The profiler beside the digest sink: where the seal sits in commit.
    let mut sink = DigestSink::new();
    let mut sealed = Profile::new();
    let (run, digest_profiled_s) = timed(|| {
        w.engine
            .run_profiled(&w.graph, &w.program, &mut sink, &mut sealed)
    });
    checks.record("ldd digest+profile == bare", vs_bare(run));

    let (one, one_s) = timed(|| env.sharded(1).run(&w.graph, &w.program));
    checks.record("ldd 1-thread == bare", vs_bare(one));

    let base = median(&bare);
    let frac = |rung: &[f64]| (median(rung) - base) / base;
    m.put("trace.ladder_bare_s", base, "s");
    m.put("trace.metrics_overhead_frac", frac(&metrics), "frac");
    m.put("trace.digest_overhead_frac", frac(&digest), "frac");
    m.put("prof.profiler_overhead_frac", frac(&profiled), "frac");
    m.put("trace.seal_s", sealed.seal_ns_total() as f64 / 1e9, "s");
    m.put("runtime.commit_frac", sealed.commit_frac(), "frac");
    let totals = profile.phase_wall_totals();
    m.put("runtime.ldd_step_s", totals[PHASE_STEP] as f64 / 1e9, "s");
    m.put(
        "runtime.ldd_deliver_s",
        totals[PHASE_DELIVER] as f64 / 1e9,
        "s",
    );
    m.put(
        "runtime.ldd_commit_s",
        totals[PHASE_COMMIT] as f64 / 1e9,
        "s",
    );
    m.put("runtime.speedup_1t_ldd", one_s / base, "ratio");
    if let Some(named) = named {
        named.wall_s = median(&digest);
        named.traced_wall_s = digest_profiled_s;
    }
}

// ---------------------------------------------------------------------------
// replay: record, encode, decode + verify, resume
// ---------------------------------------------------------------------------

fn replay_layer(m: &mut Metrics, checks: &mut Checks, env: Env, named: Option<&mut Named>) {
    let mut w = JournalReplay::setup(env);
    let (first, first_s) = timed(|| w.pass());
    let (bare, bare_s) = timed(|| Executor::new(w.config.clone()).run(&w.graph, &w.probe));
    let (pass, pass_s) = timed(|| w.pass());
    for (what, out) in [("journal pass", &first), ("journal traced pass", &pass)] {
        let verdict = match out {
            Ok(out) => w.check(out),
            Err(e) => Err(e.clone()),
        };
        checks.record(what, verdict);
    }
    let Ok(pass) = pass else { return };
    checks.record(
        "journaled states == bare executor",
        match &bare {
            Ok(run) if run.states == pass.full.run.states => Ok(()),
            _ => Err("journaled run differs from the bare executor".into()),
        },
    );
    let st = pass.stages;
    let mb = pass.bytes as f64 / 1e6;
    m.put("replay.record_s", st.record, "s");
    m.put("replay.encode_s", st.encode, "s");
    m.put("replay.decode_s", st.decode, "s");
    m.put("replay.resume_s", st.resume, "s");
    m.put("replay.journal_mb", mb, "MB");
    m.put("replay.encode_mb_per_s", mb / st.encode, "MB/s");
    m.put("replay.decode_mb_per_s", mb / st.decode, "MB/s");
    m.put("replay.bare_s", bare_s, "s");
    m.put(
        "replay.journal_overhead_frac",
        (st.record - bare_s) / bare_s,
        "frac",
    );
    if let Some(named) = named {
        named.wall_s = first_s;
        named.traced_wall_s = pass_s;
    }
}
