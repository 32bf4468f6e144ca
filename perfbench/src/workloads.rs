//! The four workloads: set-up (timed as `setup_s`), one timed pass, and the
//! output check that runs outside the timed region.

use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt_traced, EdtConfig, EdtDecomposition};
use mfd_core::programs::{BfsProgram, BfsState, VoronoiLddProgram, VoronoiState};
use mfd_graph::{gen, CsrGraph, Graph};
use mfd_replay::Journal;
use mfd_routing::backend::Executed;
use mfd_runtime::{ExecutorConfig, ShardedConfig, ShardedExecution, ShardedExecutor};
use mfd_trace::DigestSink;

use crate::util::SplitMix;

/// Side of the square mesh the executed decomposition runs on.
pub const EDT_SIDE: usize = 150;
/// Side of the square mesh the journaled probe runs on.
pub const JOURNAL_SIDE: usize = 150;
/// Side of the square mesh the sharded BFS and LDD workloads run on.
pub const LARGE_SIDE: usize = 500;
/// Shards of the sharded engine.
pub const SHARDS: usize = 64;
/// Voronoi LDD centers: one per cell of a `LDD_GRID × LDD_GRID` grid, the
/// density of 1024 centers on a 1000 × 1000 mesh.
pub const LDD_GRID: usize = 16;
/// Largest per-axis offset of an LDD center from its cell's middle.
pub const LDD_JITTER: usize = 3;
/// ε of the executed decomposition.
pub const EDT_EPSILON: f64 = 0.5;
/// Rounds of the journaled probe.
pub const PROBE_ROUNDS: u64 = 32;
/// Checkpoint interval of the journal.
pub const CHECKPOINT_EVERY: u64 = 4;

/// Everything a workload needs besides its own inputs.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub seed: u64,
    pub threads: usize,
}

impl Env {
    pub fn executor_config(&self) -> ExecutorConfig {
        ExecutorConfig {
            seed: self.seed,
            ..ExecutorConfig::with_threads(self.threads)
        }
    }

    pub fn sharded(&self, threads: usize) -> ShardedExecutor {
        ShardedExecutor::new(ShardedConfig {
            seed: self.seed,
            ..ShardedConfig::with_shards_threads(SHARDS, threads)
        })
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    type Output;
    /// Observers attached to the timed pass.
    const OBSERVERS: &'static str;

    /// Generates the inputs from the seed (timed as `setup_s`).
    fn setup(env: Env) -> Self;
    /// Vertex and edge count of the input graph.
    fn size(&self) -> (usize, usize);
    /// Computes the check's references (untimed, once per process).
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One timed pass.
    fn pass(&self) -> Result<Self::Output, String>;
    /// Checks a pass's outputs (untimed).
    fn check(&mut self, out: &Self::Output) -> Result<(), String>;
    /// `(rounds, messages)` of a pass.
    fn counts(out: &Self::Output) -> (u64, u64);
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// The (rounds, messages) every later pass must repeat.
fn same_counts(first: &mut Option<(u64, u64)>, now: (u64, u64)) -> Result<(), String> {
    let first = *first.get_or_insert(now);
    ensure(first == now, "rounds/messages differ between passes")
}

// ---------------------------------------------------------------------------
// edt-mesh
// ---------------------------------------------------------------------------

/// The executed (ε, D, T)-decomposition of a triangulated mesh.
pub struct EdtMesh {
    pub graph: Graph,
    pub config: EdtConfig,
    pub backend: Executed,
    first: Option<(u64, u64)>,
}

impl Workload for EdtMesh {
    type Output = (EdtDecomposition, RoundMeter);
    const OBSERVERS: &'static str = "none";

    fn setup(env: Env) -> Self {
        EdtMesh {
            graph: gen::mesh(EDT_SIDE, EDT_SIDE).to_graph(),
            config: EdtConfig::new(EDT_EPSILON),
            backend: Executed::executor(env.executor_config()),
            first: None,
        }
    }

    fn size(&self) -> (usize, usize) {
        (self.graph.n(), self.graph.m())
    }

    fn pass(&self) -> Result<Self::Output, String> {
        Ok(build_edt_traced(
            &self.graph,
            &self.config,
            &self.backend,
            &mut (),
        ))
    }

    fn check(&mut self, (d, meter): &Self::Output) -> Result<(), String> {
        ensure(d.is_valid(&self.graph), "decomposition is not valid")?;
        ensure(
            d.epsilon_achieved <= self.config.epsilon,
            "achieved epsilon exceeds the target",
        )?;
        same_counts(&mut self.first, (meter.rounds(), meter.messages()))
    }

    fn counts((_, meter): &Self::Output) -> (u64, u64) {
        (meter.rounds(), meter.messages())
    }
}

// ---------------------------------------------------------------------------
// bfs-mesh
// ---------------------------------------------------------------------------

/// A BFS root on the mesh's main diagonal. On the down-right triangulated
/// mesh every diagonal vertex has eccentricity `side - 1`, so the seed moves
/// the root without changing the round count.
pub fn diagonal_root(side: usize, seed: u64) -> usize {
    let r = SplitMix::new(seed ^ 0xb75).below(side);
    r * side + r
}

/// Bare sharded BFS on a long-diameter mesh.
pub struct BfsMesh {
    pub graph: CsrGraph,
    pub program: BfsProgram,
    pub engine: ShardedExecutor,
    expected: Vec<usize>,
}

impl BfsMesh {
    /// The BFS depths `states` must carry.
    pub fn check_states(&self, states: &[BfsState]) -> Result<(), String> {
        let ok = states.len() == self.expected.len()
            && states
                .iter()
                .zip(&self.expected)
                .all(|(s, &d)| s.depth == Some(d as u64));
        ensure(ok, "BFS depths differ from the sequential BFS")
    }

    /// Rounds and messages a BFS from this root must take.
    pub fn check_counts(&self, run: &ShardedExecution<BfsState>) -> Result<(), String> {
        let ecc = self.expected.iter().copied().max().unwrap_or(0) as u64;
        ensure(
            run.rounds == ecc + 1,
            "BFS rounds differ from eccentricity + 1",
        )?;
        ensure(
            run.messages == 2 * self.graph.m() as u64,
            "BFS messages differ from 2m",
        )
    }
}

impl Workload for BfsMesh {
    type Output = ShardedExecution<BfsState>;
    const OBSERVERS: &'static str = "none";

    fn setup(env: Env) -> Self {
        BfsMesh {
            graph: gen::mesh(LARGE_SIDE, LARGE_SIDE),
            program: BfsProgram {
                root: diagonal_root(LARGE_SIDE, env.seed),
            },
            engine: env.sharded(env.threads),
            expected: Vec::new(),
        }
    }

    fn size(&self) -> (usize, usize) {
        (self.graph.n(), self.graph.m())
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.expected = self.graph.bfs_distances(self.program.root);
        ensure(
            self.expected.iter().all(|&d| d != usize::MAX),
            "mesh is not connected",
        )
    }

    fn pass(&self) -> Result<Self::Output, String> {
        self.engine
            .run(&self.graph, &self.program)
            .map_err(|e| e.to_string())
    }

    fn check(&mut self, run: &Self::Output) -> Result<(), String> {
        self.check_states(&run.states)?;
        self.check_counts(run)
    }

    fn counts(run: &Self::Output) -> (u64, u64) {
        (run.rounds, run.messages)
    }
}

// ---------------------------------------------------------------------------
// ldd-mesh-digest
// ---------------------------------------------------------------------------

/// `LDD_GRID²` centers, one per cell of a square grid over the mesh, each
/// jittered by up to `LDD_JITTER` per axis around its cell's middle. The
/// two cells at the mesh's far corners (top-right, bottom-left: the corners
/// the triangulation's diagonals do not shortcut) keep their centers
/// unjittered, and the jitter is too small for any other vertex to end up
/// farther from its nearest center than those corners are. So the seed moves
/// every other center while the covering radius, hence the round count,
/// stays fixed.
pub fn lattice_centers(side: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed ^ 0x1dd);
    let mid = |i: usize| (i * side / LDD_GRID + (i + 1) * side / LDD_GRID) / 2;
    let mut jitter = |pinned: bool| {
        if pinned {
            0
        } else {
            rng.below(2 * LDD_JITTER + 1) as isize - LDD_JITTER as isize
        }
    };
    let mut centers = Vec::with_capacity(LDD_GRID * LDD_GRID);
    for br in 0..LDD_GRID {
        for bc in 0..LDD_GRID {
            let pinned = (br, bc) == (0, LDD_GRID - 1) || (br, bc) == (LDD_GRID - 1, 0);
            let r = mid(br).saturating_add_signed(jitter(pinned));
            let c = mid(bc).saturating_add_signed(jitter(pinned));
            centers.push(r * side + c);
        }
    }
    centers
}

/// Digest-observed sharded Voronoi LDD on the same mesh.
pub struct LddMesh {
    pub graph: CsrGraph,
    pub program: VoronoiLddProgram,
    pub env: Env,
    pub engine: ShardedExecutor,
    /// The bare run's states at `env.threads` threads.
    pub bare_states: Vec<VoronoiState>,
    /// The digest head of a single-threaded observed run.
    pub head_1t: u64,
}

impl LddMesh {
    /// Observed states must equal the bare run's.
    pub fn check_states(&self, run: &ShardedExecution<VoronoiState>) -> Result<(), String> {
        ensure(
            run.states == self.bare_states,
            "observed states differ from the bare run",
        )?;
        ensure(
            run.messages == 2 * self.graph.m() as u64,
            "LDD messages differ from 2m",
        )
    }
}

impl Workload for LddMesh {
    type Output = (ShardedExecution<VoronoiState>, DigestSink);
    const OBSERVERS: &'static str = "DigestSink";

    fn setup(env: Env) -> Self {
        let graph = gen::mesh(LARGE_SIDE, LARGE_SIDE);
        let program = VoronoiLddProgram::new(graph.n(), &lattice_centers(LARGE_SIDE, env.seed));
        LddMesh {
            graph,
            program,
            env,
            engine: env.sharded(env.threads),
            bare_states: Vec::new(),
            head_1t: 0,
        }
    }

    fn size(&self) -> (usize, usize) {
        (self.graph.n(), self.graph.m())
    }

    fn prepare(&mut self) -> Result<(), String> {
        let bare = self
            .engine
            .run(&self.graph, &self.program)
            .map_err(|e| e.to_string())?;
        ensure(
            bare.states.iter().all(|s| s.center.is_some()),
            "a vertex joined no cluster",
        )?;
        self.bare_states = bare.states;
        let mut sink = DigestSink::new();
        self.env
            .sharded(1)
            .run_traced(&self.graph, &self.program, &mut sink)
            .map_err(|e| e.to_string())?;
        self.head_1t = sink.head();
        Ok(())
    }

    fn pass(&self) -> Result<Self::Output, String> {
        let mut sink = DigestSink::new();
        let run = self
            .engine
            .run_traced(&self.graph, &self.program, &mut sink)
            .map_err(|e| e.to_string())?;
        Ok((run, sink))
    }

    fn check(&mut self, (run, sink): &Self::Output) -> Result<(), String> {
        self.check_states(run)?;
        ensure(
            sink.head() == self.head_1t,
            "digest head differs from the single-threaded run",
        )
    }

    fn counts((run, _): &Self::Output) -> (u64, u64) {
        (run.rounds, run.messages)
    }
}

// ---------------------------------------------------------------------------
// journal-replay
// ---------------------------------------------------------------------------

/// Wall times of the four stages of one journal pass, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalStages {
    pub record: f64,
    pub encode: f64,
    pub decode: f64,
    pub resume: f64,
}

/// Outputs of one journal pass.
pub struct JournalPass {
    pub full: mfd_bench::replay::JournaledRun<mfd_runtime::Execution<u64>>,
    pub decoded: Journal,
    pub resumed: mfd_bench::replay::Resumed<mfd_runtime::Execution<u64>>,
    pub bytes: usize,
    pub stages: JournalStages,
}

/// Journaled executor run, encode, decode + verify, and resume from the
/// middle checkpoint.
pub struct JournalReplay {
    pub graph: Graph,
    pub probe: mfd_bench::trace::DivergenceProbe,
    pub config: ExecutorConfig,
    first: Option<(u64, u64)>,
}

impl Workload for JournalReplay {
    type Output = JournalPass;
    const OBSERVERS: &'static str = "DigestSink+journal";

    fn setup(env: Env) -> Self {
        JournalReplay {
            graph: gen::mesh(JOURNAL_SIDE, JOURNAL_SIDE).to_graph(),
            probe: mfd_bench::trace::DivergenceProbe::clean(PROBE_ROUNDS),
            config: env.executor_config(),
            first: None,
        }
    }

    fn size(&self) -> (usize, usize) {
        (self.graph.n(), self.graph.m())
    }

    fn pass(&self) -> Result<Self::Output, String> {
        let mut stages = JournalStages::default();
        let (full, t) = crate::util::timed(|| {
            mfd_bench::replay::executor_journal(
                &self.graph,
                &self.probe,
                &self.config,
                CHECKPOINT_EVERY,
                "perfbench/journal-replay",
            )
        });
        stages.record = t;
        let full = full.map_err(|e| e.to_string())?;
        let (bytes, t) = crate::util::timed(|| full.journal.to_bytes());
        stages.encode = t;
        let (decoded, t) = crate::util::timed(|| {
            let j = Journal::from_bytes(&bytes)?;
            j.verify().map(|()| j)
        });
        stages.decode = t;
        let decoded = decoded.map_err(|e| e.to_string())?;
        let (resumed, t) = crate::util::timed(|| {
            mfd_bench::replay::resume_executor(
                &decoded,
                PROBE_ROUNDS / 2,
                &self.graph,
                &self.probe,
                &self.config,
            )
        });
        stages.resume = t;
        let resumed = resumed.map_err(|e| e.to_string())?;
        Ok(JournalPass {
            full,
            decoded,
            resumed,
            bytes: bytes.len(),
            stages,
        })
    }

    fn check(&mut self, out: &Self::Output) -> Result<(), String> {
        ensure(out.decoded == out.full.journal, "decoded journal differs")?;
        ensure(
            out.resumed.from_round > 0 && out.resumed.from_round < PROBE_ROUNDS,
            "resume did not start mid-run",
        )?;
        ensure(
            out.resumed.sink.chain() == out.full.sink.chain(),
            "resumed digest chain differs",
        )?;
        ensure(
            out.resumed.run.states == out.full.run.states,
            "resumed states differ",
        )?;
        same_counts(&mut self.first, Self::counts(out))
    }

    fn counts(out: &Self::Output) -> (u64, u64) {
        (out.full.run.rounds, out.full.run.messages)
    }
}
