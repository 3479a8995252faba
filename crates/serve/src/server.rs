//! The `rcpn-serve` job server: a long-running TCP service over
//! pre-compiled simulator artifacts.
//!
//! Architecture (`DESIGN.md` §3b):
//!
//! * **Warm once, instantiate per job.** [`Server::bind`] compiles (or
//!   reloads through an [`ArtifactCache`]) one [`CompiledSim`] per
//!   [`ProcModel`] registry variant. Jobs only *instantiate* engines from
//!   those shared artifacts — exactly the seam
//!   [`CompiledSim::run_batch`] uses, which is why served results are
//!   bit-identical to an in-process batch.
//! * **Scoped-thread worker pool.** [`Server::run`] spawns the workers
//!   and one reader thread per connection inside a `std::thread::scope`,
//!   all borrowing the warmed artifacts from the server's stack — no
//!   `Arc` around the models, no `unsafe`.
//! * **Bounded admission.** Submissions pass through a
//!   `sync_channel(queue_capacity)`. When it is full the reader replies
//!   [`Reply::Busy`] instead of buffering — backpressure is a typed
//!   protocol event, not an unbounded queue.
//! * **Ordered replies per job.** The reader holds the connection's
//!   write lock while it enqueues and acknowledges a submission, so
//!   [`Reply::Accepted`] is always on the wire before any
//!   [`Reply::JobDone`] for that job, even if a worker finishes first.

use std::io::Write as _;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;

use arm_isa::program::{MemLayout, Program, DEFAULT_MEM_BYTES, DEFAULT_STACK_TOP};
use processors::sim::{CompiledSim, ProcModel};
use rcpn::artifact::{ArtifactCache, ArtifactError};
use rcpn::batch::BatchRunner;
use rcpn::engine::EngineConfig;
use rcpn_bench::sweep::{render_json, EngineVariant, Sweep};
use workloads::Workload;

use crate::protocol::{read_request, write_reply, JobOutcome, JobSpec, Reply, Request, WireError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port; read it
    /// back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker-pool size. `0` is permitted and means *accept but never
    /// run* — jobs queue up to `queue_capacity` and the next submission
    /// gets [`Reply::Busy`]; the backpressure tests rely on this to make
    /// queue-full deterministic.
    pub workers: usize,
    /// Bounded admission-queue capacity (≥ 1).
    pub queue_capacity: usize,
    /// Artifact-cache directory for model warm-up. `None` compiles
    /// fresh; `Some` reloads on hit and stores on miss, so a restarted
    /// server warms from disk.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: BatchRunner::host_parallel().workers(),
            queue_capacity: 64,
            cache_dir: None,
        }
    }
}

/// Errors from binding or running the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept-loop configuration).
    Io(std::io::Error),
    /// Model warm-up failed (artifact store not writable, …).
    Artifact(ArtifactError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}

/// The memory every served job runs in. [`Server::admit`] checks each
/// image against it and [`worker_loop`] loads the image into it, so the
/// fit check always guards the memory the job gets. It is the default
/// layout, the one [`CompiledSim::run_batch`] runs in, so served results
/// stay identical to in-process ones.
const JOB_LAYOUT: MemLayout =
    MemLayout { mem_bytes: DEFAULT_MEM_BYTES, stack_top: DEFAULT_STACK_TOP };

/// One admitted job, owned by the queue until a worker claims it.
struct Job {
    job_id: u64,
    model_idx: usize,
    program: Program,
    max_cycles: u64,
    /// The submitting connection's write half; the worker streams the
    /// result back through it as soon as the job completes.
    out: std::sync::Arc<Mutex<TcpStream>>,
}

/// A bound, warmed-up `rcpn-serve` instance. [`Server::run`] serves until
/// a [`Request::Shutdown`] arrives.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    warmed: Vec<CompiledSim>,
    cache: Option<ArtifactCache>,
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Open connections (id, socket clone): shut down at exit so blocked
    /// reader threads unblock and the scope can join. Entries are removed
    /// (and the socket shut down, so the peer sees EOF) when their reader
    /// thread finishes.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Server {
    /// Binds the listener and warms one compiled simulator per
    /// [`ProcModel::ALL`] registry variant (through the artifact cache
    /// when one is configured — a warm restart loads each model from its
    /// artifact instead of lowering its spec). Compilation happens here,
    /// exactly once per model; serving jobs never compiles.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the address cannot be bound,
    /// [`ServeError::Artifact`] if a freshly compiled artifact cannot be
    /// stored into the cache.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = match &config.cache_dir {
            Some(dir) => Some(ArtifactCache::open(dir)?),
            None => None,
        };
        let warmed = ProcModel::ALL
            .iter()
            .map(|&model| {
                let cfg = model.default_config();
                match &cache {
                    Some(c) => CompiledSim::load_or_compile(model, &cfg, c),
                    None => Ok(CompiledSim::new(model, &cfg)),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Server {
            listener,
            local_addr,
            warmed,
            cache,
            config,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Artifact-cache `(hits, misses, bypasses)` observed during model
    /// warm-up; all zero when running cacheless. Serving jobs never
    /// touches the cache, so these stay constant after [`Server::bind`] —
    /// the loopback tests assert exactly that ("0 recompiles per job").
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        self.cache.as_ref().map_or((0, 0, 0), |c| (c.hits(), c.misses(), c.bypasses()))
    }

    /// The warmed models' labels, in registry order.
    pub fn model_labels(&self) -> Vec<String> {
        self.warmed.iter().map(|s| s.model().label().to_string()).collect()
    }

    fn server_info(&self) -> Reply {
        let (cache_hits, cache_misses, cache_bypasses) = self.cache_counters();
        Reply::ServerInfo {
            models: self.model_labels(),
            workers: self.config.workers as u32,
            queue_capacity: self.config.queue_capacity as u32,
            cache_hits,
            cache_misses,
            cache_bypasses,
        }
    }

    /// Serves connections until a [`Request::Shutdown`] arrives, then
    /// drains: the admission queue's senders are dropped (workers exit
    /// after finishing claimed jobs) and open connections are shut down
    /// (reader threads unblock), so this returns with every thread
    /// joined — a clean exit, no detached work.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the listener cannot be switched to
    /// non-blocking accept.
    pub fn run(self) -> Result<(), ServeError> {
        self.listener.set_nonblocking(true)?;
        // The queue is declared outside the scope so worker threads can
        // borrow it for the scope's whole lifetime.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(self.config.queue_capacity);
        let rx = Mutex::new(rx);
        let this = &self;
        let rx = &rx;
        std::thread::scope(|s| {
            for _ in 0..this.config.workers {
                s.spawn(move || worker_loop(rx, &this.warmed));
            }
            let mut next_conn_id = 0u64;
            loop {
                if this.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match this.listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        if let Ok(clone) = stream.try_clone() {
                            this.conns.lock().unwrap().push((conn_id, clone));
                        }
                        let tx = tx.clone();
                        s.spawn(move || {
                            this.connection_loop(stream, tx);
                            this.release_conn(conn_id);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            // Drain: no new jobs can be admitted once every sender is
            // gone; workers exit when the queue runs dry.
            drop(tx);
            for (_, conn) in this.conns.lock().unwrap().iter() {
                let _ = conn.shutdown(SockShutdown::Both);
            }
        });
        Ok(())
    }

    /// Drops a finished connection from the registry, shutting the
    /// socket down so the peer observes EOF even though `try_clone`d
    /// handles (held by in-flight jobs) may still exist.
    fn release_conn(&self, conn_id: u64) {
        let mut conns = self.conns.lock().unwrap();
        if let Some(pos) = conns.iter().position(|(id, _)| *id == conn_id) {
            let (_, sock) = conns.swap_remove(pos);
            let _ = sock.shutdown(SockShutdown::Both);
        }
    }

    /// One connection's reader loop: decode frames, admit or answer,
    /// close on the first malformed frame or EOF. A failure here only
    /// ends *this* connection — the server keeps serving others (the
    /// robustness tests drive exactly that).
    fn connection_loop(&self, stream: TcpStream, tx: SyncSender<Job>) {
        let _ = stream.set_nodelay(true);
        let out = match stream.try_clone() {
            Ok(w) => std::sync::Arc::new(Mutex::new(w)),
            Err(_) => return,
        };
        let mut rd = stream;
        loop {
            match read_request(&mut rd) {
                Ok(Request::Hello) => {
                    if write_locked(&out, &self.server_info()).is_err() {
                        return;
                    }
                }
                Ok(Request::Submit(spec)) => {
                    if !self.admit(spec, &tx, &out) {
                        return;
                    }
                }
                Ok(Request::RunSweep { scale }) => {
                    let json = self.run_sweep(scale);
                    if write_locked(&out, &Reply::SweepRecord { json }).is_err() {
                        return;
                    }
                }
                Ok(Request::Shutdown) => {
                    let _ = write_locked(&out, &Reply::ShuttingDown);
                    self.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                Err(WireError::Closed) => return,
                Err(
                    e @ (WireError::BadVersion { .. }
                    | WireError::UnknownTag { .. }
                    | WireError::Oversize { .. }
                    | WireError::Corrupt { .. }),
                ) => {
                    // Answer with a typed protocol error, then drop the
                    // connection; the frame boundary is unrecoverable.
                    let _ = write_locked(&out, &Reply::ProtoError { message: e.to_string() });
                    let _ = rd.shutdown(SockShutdown::Both);
                    return;
                }
                Err(WireError::Truncated { .. } | WireError::Io { .. }) => return,
            }
        }
    }

    /// Admission control for one submission. Returns `false` if the
    /// connection died while replying.
    fn admit(
        &self,
        spec: JobSpec,
        tx: &SyncSender<Job>,
        out: &std::sync::Arc<Mutex<TcpStream>>,
    ) -> bool {
        let Some(model_idx) = self.warmed.iter().position(|sim| sim.model().label() == spec.model)
        else {
            let labels = self.model_labels().join(", ");
            let reply = Reply::JobFailed {
                job_id: spec.job_id,
                error: format!("unknown model {:?} (serving: {labels})", spec.model),
            };
            return write_locked(out, &reply).is_ok();
        };
        // An image past the end of the job memory would panic the worker
        // that loads it. The end is computed in u64 so a base near
        // u32::MAX cannot wrap.
        let mem_bytes = JOB_LAYOUT.mem_bytes;
        let image_end = u64::from(spec.base) + 4 * spec.words.len() as u64;
        if image_end > u64::from(mem_bytes) {
            let reply = Reply::JobFailed {
                job_id: spec.job_id,
                error: format!(
                    "image [{:#x}..{image_end:#x}) exceeds the {mem_bytes:#x}-byte memory",
                    spec.base
                ),
            };
            return write_locked(out, &reply).is_ok();
        }
        // Hold the write lock across try_send + acknowledgement: a worker
        // can only write JobDone after taking this same lock, so Accepted
        // always precedes the job's result on the wire.
        let mut w = out.lock().unwrap();
        let job = Job {
            job_id: spec.job_id,
            model_idx,
            program: spec.program(),
            max_cycles: spec.max_cycles,
            out: out.clone(),
        };
        let reply = match tx.try_send(job) {
            Ok(()) => Reply::Accepted { job_id: spec.job_id },
            Err(TrySendError::Full(_)) => Reply::Busy { job_id: spec.job_id },
            Err(TrySendError::Disconnected(_)) => Reply::ShuttingDown,
        };
        write_reply(&mut *w, &reply).is_ok()
    }

    /// Runs the warmed models over the six-kernel suite at `scale`
    /// (serially, on the calling connection's thread — an admin
    /// operation, deliberately kept off the job workers) and renders the
    /// record in the `BENCH_sweep.json` house format. Rows carry the
    /// default engine-variant labels (`"<model>/tables:per-place-class"`),
    /// so a served record diffs directly against a committed sweep.
    fn run_sweep(&self, scale: f64) -> String {
        let variants: Vec<EngineVariant> = self
            .warmed
            .iter()
            .map(|sim| {
                EngineVariant::new(sim.model(), "tables:per-place-class", EngineConfig::default())
            })
            .collect();
        let sweep = Sweep::over_artifacts(variants, self.warmed.clone(), Workload::suite(scale));
        let run = sweep.run(&BatchRunner::new(1));
        render_json(&run, &run, self.cache.as_ref())
    }
}

/// Writes one reply under the connection's write lock (frames from the
/// reader and from workers interleave whole, never byte-wise).
fn write_locked(out: &std::sync::Arc<Mutex<TcpStream>>, reply: &Reply) -> Result<(), WireError> {
    let mut w = out.lock().unwrap();
    write_reply(&mut *w, reply)?;
    w.flush().map_err(WireError::from)
}

/// A worker: claim a job, instantiate an engine from the shared warmed
/// artifact, run, stream the result back. This is the same
/// instantiate-and-run body as [`CompiledSim::run_batch`]'s job closure —
/// the determinism guarantee ("served ≡ in-process") is by construction,
/// not by re-verification.
fn worker_loop(rx: &Mutex<Receiver<Job>>, warmed: &[CompiledSim]) {
    loop {
        // Take the lock only to claim; run with it released so workers
        // execute jobs concurrently.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // all senders dropped: drained, exit
        };
        let mut sim = warmed[job.model_idx].instantiate_with(&job.program, JOB_LAYOUT);
        let result = sim.run(job.max_cycles);
        let outcome = JobOutcome {
            result,
            stats: sim.engine.stats().clone(),
            sched: sim.engine.sched().clone(),
        };
        // A dead submitter is not a server error; drop the result.
        let _ = write_locked(
            &job.out,
            &Reply::JobDone { job_id: job.job_id, outcome: Box::new(outcome) },
        );
    }
}
