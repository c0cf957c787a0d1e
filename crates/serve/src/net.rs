//! The network frontend: a dependency-free HTTP/1.1 listener over
//! [`ScreenService`].
//!
//! [`NetServer::bind`] opens a [`std::net::TcpListener`] (no async
//! runtime, matching the workspace's minimal-dependency policy) and
//! serves a small JSON API speaking the [`wire`] module's codec:
//!
//! | Method   | Path                 | Meaning                                   |
//! |----------|----------------------|-------------------------------------------|
//! | `POST`   | `/jobs`              | submit a campaign + receptor + ligands    |
//! | `GET`    | `/jobs/{id}`         | status / progress / terminal outcome      |
//! | `GET`    | `/jobs/{id}/results` | the job's per-ligand JSONL stream so far  |
//! | `DELETE` | `/jobs/{id}`         | request cancellation                      |
//! | `GET`    | `/healthz`           | liveness + boot-random node id + version  |
//! | `GET`    | `/stats`             | service + cache + connection counters     |
//!
//! ## Connection model
//!
//! A pool of [`NetConfig::event_loops`] event-loop threads (default:
//! one per core, capped at four) drives the connections, each loop
//! owning its *own* [`reactor`](crate::reactor) (epoll on Linux,
//! kqueue on mac/BSD, `poll` elsewhere) and its own connection table:
//! non-blocking accept, read, and write, with a per-connection state
//! machine (idle → header → body → write). A connection is **pinned to
//! one loop for life** — on Linux each loop accepts from its own
//! `SO_REUSEPORT` listener and the kernel's flow hash spreads new
//! connections; elsewhere a dedicated accept thread deals connections
//! round-robin into per-loop inboxes. Either way the state machines
//! stay single-threaded and lock-free; only the connection-count cap
//! and the metric atomics are shared. Connections are HTTP/1.1
//! **keep-alive** by default and requests may be **pipelined**: each
//! completed request is answered in order, and any bytes already
//! buffered behind it are processed immediately. Request bodies are
//! parsed *incrementally* as bytes arrive ([`wire::PushParser`]), so a
//! large submission never sits buffered waiting for its last byte
//! before parsing starts.
//!
//! Slow and dead peers are bounded by per-state deadlines
//! ([`NetConfig::idle_timeout`], [`NetConfig::header_timeout`],
//! [`NetConfig::body_timeout`], [`NetConfig::write_timeout`]) plus one
//! end-to-end bound per request ([`NetConfig::request_timeout`], first
//! header byte → response flushed — the backstop for a response stuck
//! behind a slow downstream while the peer keeps the per-phase clocks
//! fresh): a slow-loris client dripping header bytes is closed at the
//! header deadline while thousands of idle keep-alive connections cost
//! only their sockets. Beyond [`NetConfig::max_connections`] — an
//! *exact* cap shared across every loop — the server sheds load
//! gracefully: accept, answer a canned `503`, close — instead of
//! letting the kernel backlog time clients out, and job submission
//! uses [`ScreenService::try_submit`] so a full queue is a `503` the
//! client retries rather than a wedged executor.
//!
//! The frontend machinery is route-agnostic: [`HttpFrontend`] mounts
//! any [`HttpRoutes`] implementation. [`NetServer`] is the screening
//! node's mount; the cluster coordinator mounts its own routes on the
//! same loops, so both tiers share one connection model and metrics
//! surface.
//!
//! Error mapping: malformed HTTP or JSON → `400`, unknown job → `404`,
//! wrong method → `405`, oversized body → `413`, campaign validation
//! ([`CampaignError`](mudock_core::CampaignError)) → `422`, queue full
//! or shutting down → `503`. Protocol-level failures close the
//! connection (framing is unrecoverable); a body that is merely bad
//! JSON keeps it open — the byte framing was intact.
//!
//! The [`client`] module is the matching blocking client (used by the
//! `mudock submit`/`mudock poll` CLI, the loopback bench mode, and the
//! end-to-end tests); [`client::Client`] holds its connection open
//! across requests, so poll loops stop paying a handshake per poll.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mudock_obs::{now_ns, Counter, Gauge, Histogram, Registry};

use crate::job::{JobHandle, JobId, JobSpec, JobState};
use crate::queue::SubmitError;
use crate::reactor::{Event, Interest, Reactor, Token};
use crate::server::ScreenService;
use crate::wire::{self, Json, PushParser, WireError};

/// Network-frontend sizing and timeouts. `Default` fits a CI host.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Open connections the reactor will hold at once. Beyond this,
    /// new connections are accepted, answered a canned `503`, and
    /// closed (graceful shedding — the client sees the overload signal
    /// instead of a backlog timeout).
    pub max_connections: usize,
    /// Request bodies larger than this are refused with `413`.
    pub max_body_bytes: usize,
    /// Per-job JSONL result files are written here (served back by
    /// `GET /jobs/{id}/results`). Created on bind.
    pub results_dir: PathBuf,
    /// Finished jobs kept queryable (status + results). When more
    /// than this many *terminal* jobs are retained, the oldest are
    /// evicted and their result files deleted, so a long-running
    /// server does not grow memory and disk per submission. Running
    /// and queued jobs are never evicted.
    pub max_retained_jobs: usize,
    /// Accept `{"path": …}` receptor/ligand sources, which make the
    /// *server* read the named file. Off by default: on an
    /// unauthenticated socket they are a filesystem probe (error
    /// responses would reveal whether arbitrary paths exist). Enable
    /// only on trusted networks where clients legitimately share the
    /// server's filesystem; inline `pdbqt` text always works.
    pub allow_path_sources: bool,
    /// How long a keep-alive connection may sit between requests.
    pub idle_timeout: Duration,
    /// From the first byte of a request until its headers complete.
    /// This is the slow-loris bound: a client dripping header bytes is
    /// closed here, not at some multi-minute global deadline.
    pub header_timeout: Duration,
    /// From headers-complete until the body's last byte.
    pub body_timeout: Duration,
    /// From response-queued until it is fully flushed.
    pub write_timeout: Duration,
    /// End-to-end bound per request: first header byte until the
    /// response is fully flushed. The per-phase deadlines above each
    /// reset as a connection changes state; this one does not, so a
    /// response stuck behind a slow downstream (a job poll that never
    /// resolves, say) on a connection whose peer keeps the per-phase
    /// clocks fresh is still bounded.
    pub request_timeout: Duration,
    /// Event-loop threads sharing the listen address. Each loop owns
    /// its own reactor and connection table and a connection is pinned
    /// to one loop for life, so per-connection state needs no locking.
    /// `0` means [`default_event_loops`] (one per core, capped at 4).
    pub event_loops: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 1024,
            max_body_bytes: 8 << 20,
            results_dir: std::env::temp_dir().join(format!("mudock-net-{}", std::process::id())),
            max_retained_jobs: 256,
            allow_path_sources: false,
            idle_timeout: Duration::from_secs(60),
            header_timeout: Duration::from_secs(10),
            body_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            request_timeout: Duration::from_secs(300),
            event_loops: 0,
        }
    }
}

/// The default event-loop count: one per core, capped at four. Both
/// accept paths (REUSEPORT flow hashing, round-robin handoff) spread
/// connections well past four loops, but the dock executors want the
/// remaining cores more than the frontend does.
pub fn default_event_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// One submitted job as the frontend tracks it.
struct NetJob {
    handle: JobHandle,
    name: String,
    results: PathBuf,
}

/// The screening node's routes: the job CRUD + health + stats API over
/// a [`ScreenService`], mounted on the generic frontend by
/// [`NetServer::bind`].
struct NodeRoutes {
    service: Arc<ScreenService>,
    jobs: Mutex<HashMap<JobId, NetJob>>,
    cfg: NetConfig,
    /// The same registry-backed atomics the frontend updates —
    /// [`Registry`] hands out one instrument per (name, labels), so
    /// registering here again just shares the handles and `/stats` can
    /// read them without any plumbing from the event loops.
    metrics: NetMetrics,
    /// Random-at-boot identity served in `/healthz`. A coordinator that
    /// sees the id change behind a stable address knows the node
    /// restarted (grids cold, in-flight jobs gone) even though the
    /// socket still answers.
    node_id: u64,
}

/// The frontend's registry-backed instruments. Every gauge/counter
/// here *is* the `/metrics` series of the same name — `/stats` and
/// Prometheus scrape one set of atomics, so they can never disagree.
struct NetMetrics {
    /// The service-wide registry `/metrics` renders.
    registry: Registry,
    /// Connections currently registered with the reactor.
    open: Arc<Gauge>,
    /// Connections accepted since bind (shed ones included).
    accepted: Arc<Counter>,
    /// Connections answered the canned `503` at the cap.
    shed: Arc<Counter>,
    /// Requests refused for malformed HTTP or JSON (4xx/5xx protocol
    /// and syntax refusals — not semantic errors like 404 or 422).
    parse_errors: Arc<Counter>,
    /// Requests dispatched to a route.
    requests: Arc<Counter>,
    /// Header-first-byte → response-flushed, per request.
    request_seconds: Arc<Histogram>,
    /// Time the event loop spends blocked in the reactor.
    reactor_wait: Arc<Histogram>,
    /// Time the event loop spends dispatching a non-empty wakeup.
    reactor_dispatch: Arc<Histogram>,
    /// Full iteration time (wait + dispatch) of non-empty wakeups.
    reactor_iteration: Arc<Histogram>,
}

impl NetMetrics {
    fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            open: registry.gauge(
                "mudock_connections_open",
                &[],
                "Connections currently registered with the reactor",
            ),
            accepted: registry.counter(
                "mudock_connections_accepted_total",
                &[],
                "Connections accepted since bind (shed ones included)",
            ),
            shed: registry.counter(
                "mudock_connections_shed_total",
                &[],
                "Connections answered the canned 503 at the connection cap",
            ),
            parse_errors: registry.counter(
                "mudock_request_parse_errors_total",
                &[],
                "Requests refused for malformed HTTP or JSON",
            ),
            requests: registry.counter(
                "mudock_requests_total",
                &[],
                "Requests dispatched to a route",
            ),
            request_seconds: registry.histogram(
                "mudock_request_seconds",
                &[],
                "Request latency, header first byte to response flushed",
            ),
            reactor_wait: registry.histogram(
                "mudock_reactor_wait_seconds",
                &[],
                "Event-loop time blocked waiting for readiness",
            ),
            reactor_dispatch: registry.histogram(
                "mudock_reactor_dispatch_seconds",
                &[],
                "Event-loop time dispatching a non-empty wakeup",
            ),
            reactor_iteration: registry.histogram(
                "mudock_reactor_iteration_seconds",
                &[],
                "Full event-loop iteration time (wait + dispatch)",
            ),
            registry: registry.clone(),
        }
    }

    /// A torn-view-proof snapshot of the connection gauges. `open` is
    /// read *first*: every open connection incremented `accepted`
    /// before registering, and `accepted` only grows, so the loads can
    /// never observe `open > accepted` — and the final clamp makes the
    /// invariant structural rather than an ordering argument.
    fn snapshot(&self) -> ConnectionStats {
        let open = self.open.get().max(0) as u64;
        let accepted = self.accepted.get();
        ConnectionStats {
            open: open.min(accepted),
            accepted,
            shed: self.shed.get(),
            parse_errors: self.parse_errors.get(),
            requests: self.requests.get(),
        }
    }
}

/// Per-loop slices of the connection instruments, labelled
/// `{loop="N"}` under the same metric names as the unlabelled totals.
/// Updated alongside the totals at the same sites, so at quiescence
/// the labelled series sum to the totals — the invariant the CI
/// net-scale smoke asserts.
struct LoopMetrics {
    open: Arc<Gauge>,
    accepted: Arc<Counter>,
    shed: Arc<Counter>,
    requests: Arc<Counter>,
}

impl LoopMetrics {
    fn register(registry: &Registry, index: usize) -> LoopMetrics {
        let i = index.to_string();
        let labels: &[(&str, &str)] = &[("loop", i.as_str())];
        LoopMetrics {
            open: registry.gauge(
                "mudock_connections_open",
                labels,
                "Connections currently registered with the reactor",
            ),
            accepted: registry.counter(
                "mudock_connections_accepted_total",
                labels,
                "Connections accepted since bind (shed ones included)",
            ),
            shed: registry.counter(
                "mudock_connections_shed_total",
                labels,
                "Connections answered the canned 503 at the connection cap",
            ),
            requests: registry.counter(
                "mudock_requests_total",
                labels,
                "Requests dispatched to a route",
            ),
        }
    }
}

/// Connection-level counters, as served under `"connections"` in
/// `GET /stats` and readable in-process for tests and benches.
#[derive(Clone, Copy, Debug)]
pub struct ConnectionStats {
    pub open: u64,
    pub accepted: u64,
    pub shed: u64,
    pub parse_errors: u64,
    pub requests: u64,
}

/// Monotonic counter naming result files (assigned pre-submit, before
/// the service id exists). Process-global, not per-server: two
/// frontends in one process can share the default (pid-derived)
/// `results_dir`, and per-server counters would both hand out
/// `job-1.jsonl` — one server's eviction would then delete the other's
/// live results.
static NEXT_FILE: AtomicU64 = AtomicU64::new(1);

/// Boot-random node identity: an FNV mix of the wall clock, the pid,
/// and the bound address. Not cryptographic — it only needs to differ
/// between two boots of the same node with overwhelming probability,
/// so a coordinator polling `/healthz` can detect a restart behind a
/// stable address.
fn boot_node_id(addr: SocketAddr) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    mudock_grids::Fnv64::new()
        .write_u64(nanos)
        .write_u64(std::process::id() as u64)
        .write(addr.to_string().as_bytes())
        .finish()
}

/// A request router the multi-loop frontend can mount. The node's job
/// API ([`NetServer`]) and the cluster coordinator both implement it,
/// so the two tiers share one connection model, reactor pool, and
/// metrics surface.
///
/// `route` runs on an event-loop thread: it must not block on slow
/// work. Submissions go through non-blocking `try_submit`-style paths
/// and large payloads stream from disk via [`Body::File`].
pub trait HttpRoutes: Send + Sync + 'static {
    /// Whether `method path` carries a JSON body worth parsing
    /// incrementally as it streams in. Bodies of other requests are
    /// drained for framing and discarded.
    fn wants_body(&self, method: &str, path: &str) -> bool;

    /// Dispatch one parsed request. `body` is `Some` only when
    /// [`HttpRoutes::wants_body`] said yes — `Err` when the body bytes
    /// were not valid JSON (the HTTP framing was still intact, so the
    /// connection survives).
    fn route(&self, method: &str, path: &str, body: Option<Result<Json, WireError>>) -> Response;
}

/// State shared by every event loop of one frontend.
struct FrontendShared {
    routes: Arc<dyn HttpRoutes>,
    cfg: NetConfig,
    metrics: NetMetrics,
    /// Exact open-connection count across all loops, for the
    /// [`NetConfig::max_connections`] cap. A per-loop split of the cap
    /// would be cheaper but wrong: REUSEPORT's flow hash has enough
    /// variance at 10k connections that one loop would breach its
    /// share while the others sit under theirs.
    open_conns: AtomicUsize,
}

/// How a loop is fed new connections.
enum LoopFeed {
    /// The loop owns a listener outright: the single-loop case, or one
    /// of the per-loop `SO_REUSEPORT` listeners on Linux.
    Listener(TcpListener),
    /// A dedicated accept thread deals connections round-robin into
    /// per-loop inboxes — the portable fallback.
    Inbox(Arc<Handoff>),
}

/// One loop's inbox for the accept-thread fallback, plus the write end
/// of that loop's waker (one byte per handoff so the loop leaves its
/// reactor wait promptly).
struct Handoff {
    inbox: Mutex<VecDeque<TcpStream>>,
    waker: UnixStream,
}

enum AcceptPlan {
    PerLoop(Vec<TcpListener>),
    Handoff(TcpListener),
}

/// Phase one of bringing up a frontend: sockets bound, address
/// resolved, nothing running yet. The two-phase shape exists because
/// routers (the node's own, the coordinator's) want the resolved
/// address (for the boot node id) before the loops start routing to
/// them.
pub struct FrontendBuilder {
    addr: SocketAddr,
    cfg: NetConfig,
    plan: AcceptPlan,
}

impl FrontendBuilder {
    /// Bind the listen socket(s) for `cfg.event_loops` loops. With more
    /// than one loop this tries per-loop `SO_REUSEPORT` listeners
    /// (Linux); anywhere that fails, one blocking listener plus an
    /// accept thread takes over. `addr` may name port 0; the resolved
    /// port is shared by every sibling listener.
    pub fn bind(addr: impl ToSocketAddrs, mut cfg: NetConfig) -> io::Result<FrontendBuilder> {
        if cfg.event_loops == 0 {
            cfg.event_loops = default_event_loops();
        }
        let want = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to bind"))?;
        let plan = if cfg.event_loops == 1 {
            let listener = TcpListener::bind(want)?;
            listener.set_nonblocking(true)?;
            AcceptPlan::PerLoop(vec![listener])
        } else {
            match Self::bind_per_loop(want, cfg.event_loops) {
                Ok(listeners) => AcceptPlan::PerLoop(listeners),
                Err(_) => AcceptPlan::Handoff(TcpListener::bind(want)?),
            }
        };
        let local = match &plan {
            AcceptPlan::PerLoop(listeners) => listeners[0].local_addr()?,
            AcceptPlan::Handoff(listener) => listener.local_addr()?,
        };
        Ok(FrontendBuilder {
            addr: local,
            cfg,
            plan,
        })
    }

    #[cfg(target_os = "linux")]
    fn bind_per_loop(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpListener>> {
        let first = reuseport::bind_reuseport(addr)?;
        // `addr` may have named port 0; siblings must bind the port the
        // kernel actually picked.
        let resolved = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..n {
            listeners.push(reuseport::bind_reuseport(resolved)?);
        }
        Ok(listeners)
    }

    #[cfg(not(target_os = "linux"))]
    fn bind_per_loop(_addr: SocketAddr, _n: usize) -> io::Result<Vec<TcpListener>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "per-loop SO_REUSEPORT listeners are Linux-only",
        ))
    }

    /// The bound address (resolved, if `bind` was given port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Phase two: register metrics in `registry`, spawn the loops (and
    /// the accept thread, in handoff mode), and start serving `routes`.
    pub fn start(
        self,
        routes: Arc<dyn HttpRoutes>,
        registry: &Registry,
    ) -> io::Result<HttpFrontend> {
        let n = self.cfg.event_loops;
        let shared = Arc::new(FrontendShared {
            routes,
            cfg: self.cfg,
            metrics: NetMetrics::register(registry),
            open_conns: AtomicUsize::new(0),
        });

        // Every loop gets a waker pair regardless of accept mode, so
        // shutdown (and handoff delivery) never waits out a reactor
        // timeout.
        let mut wakers = Vec::with_capacity(n);
        let mut waker_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            wakers.push(tx);
            waker_rxs.push(rx);
        }

        let (feeds, accept) = match self.plan {
            AcceptPlan::PerLoop(listeners) => (
                listeners
                    .into_iter()
                    .map(LoopFeed::Listener)
                    .collect::<Vec<_>>(),
                None,
            ),
            AcceptPlan::Handoff(listener) => {
                let handoffs = wakers
                    .iter()
                    .map(|tx| {
                        Ok(Arc::new(Handoff {
                            inbox: Mutex::new(VecDeque::new()),
                            waker: tx.try_clone()?,
                        }))
                    })
                    .collect::<io::Result<Vec<_>>>()?;
                let feeds = handoffs
                    .iter()
                    .map(|h| LoopFeed::Inbox(Arc::clone(h)))
                    .collect();
                (feeds, Some((listener, handoffs)))
            }
        };

        let stop = Arc::new(AtomicBool::new(false));
        let handoff = accept.is_some();
        let mut threads = Vec::with_capacity(n + 1);
        for (i, (feed, waker_rx)) in feeds.into_iter().zip(waker_rxs).enumerate() {
            let reactor = Reactor::new()?;
            let ctx = LoopCtx {
                shared: Arc::clone(&shared),
                lm: LoopMetrics::register(registry, i),
            };
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-loop-{i}"))
                    .spawn(move || event_loop(feed, waker_rx, reactor, &ctx, &stop))?,
            );
        }
        if let Some((listener, handoffs)) = accept {
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("net-accept".into())
                    .spawn(move || accept_thread(&listener, &handoffs, &stop))?,
            );
        }

        Ok(HttpFrontend {
            addr: self.addr,
            shared,
            stop,
            wakers,
            threads,
            handoff,
        })
    }
}

/// A running multi-loop HTTP frontend serving an [`HttpRoutes`]
/// router. [`NetServer`] wraps one for the screening node; the cluster
/// coordinator mounts its own routes on the same machinery.
pub struct HttpFrontend {
    addr: SocketAddr,
    shared: Arc<FrontendShared>,
    stop: Arc<AtomicBool>,
    wakers: Vec<UnixStream>,
    threads: Vec<JoinHandle<()>>,
    handoff: bool,
}

impl HttpFrontend {
    /// The bound address (resolves the port for `…:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection gauges as of now, aggregated across loops.
    pub fn connection_stats(&self) -> ConnectionStats {
        self.shared.metrics.snapshot()
    }

    /// Stop every loop (and the accept thread) and join them; open
    /// connections are dropped. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for tx in &self.wakers {
            let _ = (&mut &*tx).write(&[1]);
        }
        if self.handoff {
            // Unblock the accept thread with one last connection.
            let _ = TcpStream::connect(self.addr);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The portable accept path: a blocking accept loop dealing
/// connections round-robin into per-loop inboxes, waking each loop's
/// reactor as it delivers.
fn accept_thread(listener: &TcpListener, loops: &[Arc<Handoff>], stop: &AtomicBool) {
    let mut next = 0usize;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let handoff = &loops[next % loops.len()];
                next = next.wrapping_add(1);
                handoff.inbox.lock().unwrap().push_back(stream);
                let _ = (&mut &handoff.waker).write(&[1]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (ECONNABORTED, fd exhaustion):
            // back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// `SO_REUSEPORT` listener sockets via direct FFI — `std` exposes no
/// pre-bind socket options, and the whole point is setting the option
/// *before* `bind(2)`. Linux-only: the kernel's REUSEPORT flow hash is
/// what spreads connections across the per-loop listeners.
#[cfg(target_os = "linux")]
pub(crate) mod reuseport {
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_void};

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const IPPROTO_IPV6: c_int = 41;
    const IPV6_V6ONLY: c_int = 26;

    /// `struct sockaddr_in`; `port` and `addr` in network byte order.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    fn opt(fd: c_int, level: c_int, name: c_int, value: c_int) -> io::Result<()> {
        let rc = unsafe {
            setsockopt(
                fd,
                level,
                name,
                &value as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Bind a non-blocking `SO_REUSEPORT` listener on `addr`. Several
    /// listeners bound this way to one port each receive a
    /// kernel-hashed share of incoming connections.
    pub(crate) fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Owns the fd from here: every early return closes it.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        opt(fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
        opt(fd, SOL_SOCKET, SO_REUSEPORT, 1)?;
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                unsafe {
                    bind(
                        fd,
                        &sa as *const SockAddrIn as *const c_void,
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                opt(fd, IPPROTO_IPV6, IPV6_V6ONLY, 1)?;
                let sa = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo().to_be(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                unsafe {
                    bind(
                        fd,
                        &sa as *const SockAddrIn6 as *const c_void,
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        if unsafe { listen(fd, 1024) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(TcpListener::from(owned))
    }
}

/// A running HTTP listener bound to a [`ScreenService`].
pub struct NetServer {
    frontend: HttpFrontend,
    node_id: u64,
    shed: Arc<Counter>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the event-loop pool. The service is shared — in-process
    /// submissions keep working alongside network ones.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<ScreenService>,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        std::fs::create_dir_all(&cfg.results_dir)?;
        let registry = service.registry();
        let builder = FrontendBuilder::bind(addr, cfg.clone())?;
        let node_id = boot_node_id(builder.local_addr());
        let metrics = NetMetrics::register(&registry);
        let shed = Arc::clone(&metrics.shed);
        let routes = Arc::new(NodeRoutes {
            service,
            jobs: Mutex::new(HashMap::new()),
            cfg,
            metrics,
            node_id,
        });
        let frontend = builder.start(routes, &registry)?;
        Ok(NetServer {
            frontend,
            node_id,
            shed,
        })
    }

    /// The bound address (resolves the port for `…:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// This server's boot-random identity, as served in `/healthz`.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Connections shed with the canned `503` so far (kept under its
    /// historical name; equals [`ConnectionStats::shed`]).
    pub fn rejected_connections(&self) -> u64 {
        self.shed.get()
    }

    /// Connection gauges as of now.
    pub fn connection_stats(&self) -> ConnectionStats {
        self.frontend.connection_stats()
    }

    /// Stop the event loops and join them; every open connection is
    /// dropped. The underlying [`ScreenService`] is left running (it
    /// may have in-process users); shut it down separately.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.frontend.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

const LISTENER: Token = Token(0);
/// The read end of the loop's waker pair: poked by [`HttpFrontend::shutdown`]
/// and, in handoff mode, by the accept thread when it delivers into the
/// loop's inbox.
const WAKER: Token = Token(1);
/// Connection tokens start above the reserved ones.
const FIRST_CONN_TOKEN: usize = 2;

/// One request/header line. Long enough for any payload this API
/// carries; short enough that a line-free byte stream cannot grow a
/// connection's memory.
const MAX_LINE_BYTES: usize = 16 << 10;
/// The whole request head (request line + headers + terminator).
const MAX_HEAD_BYTES: usize = 32 << 10;
/// Header-line count cap.
const MAX_HEADERS: usize = 128;
/// Responses queued behind one connection beyond this pause its reads:
/// a client pipelining requests faster than it drains responses gets
/// TCP backpressure, not server memory growth.
const MAX_PENDING_OUT: usize = 1 << 20;
/// Result files stream to the socket in chunks of this size.
const FILE_CHUNK: usize = 64 << 10;
/// Bytes a closing connection will still drain so the final response
/// is not lost to a reset while the client is mid-write.
const DRAIN_BUDGET: usize = 256 << 10;
/// How long a closing connection lingers draining after its last
/// response flushed.
const LINGER: Duration = Duration::from_secs(1);

/// Parsed request head.
struct RequestHead {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// Where a connection is in its request/response cycle.
enum Phase {
    /// Keep-alive, between requests.
    Idle,
    /// Accumulating head bytes (first byte seen, terminator not yet).
    Header,
    /// Streaming the body: `parser` is fed incrementally for routes
    /// that take JSON (`POST /jobs`); other bodies are discarded for
    /// framing. A parse error is latched so the remaining body still
    /// drains and the connection stays usable.
    Body {
        head: RequestHead,
        remaining: usize,
        /// Boxed: the parser's state dwarfs the other phases, and most
        /// connections sit in `Idle`/`Header`.
        parser: Option<Box<PushParser>>,
        parse_err: Option<WireError>,
    },
    /// Close-bound: drain (bounded) whatever the peer still sends so
    /// the final response is delivered, then close.
    Lingering { budget: usize },
}

/// One queued slice of response data.
enum OutItem {
    Bytes(Vec<u8>),
    /// A results file streamed in [`FILE_CHUNK`]s; `remaining` is the
    /// advertised `Content-Length` tail still to send.
    File {
        file: std::fs::File,
        remaining: u64,
    },
    /// Zero-byte end-of-response marker: when the writer reaches it,
    /// the oldest in-flight request's latency is recorded. Pipelined
    /// requests match FIFO because responses are queued in order.
    Mark,
}

struct Conn {
    stream: TcpStream,
    token: Token,
    buf: Vec<u8>,
    phase: Phase,
    deadline: Instant,
    out: VecDeque<OutItem>,
    /// Bytes of `out.front()` already written.
    front_off: usize,
    close_after_flush: bool,
    /// Interest currently registered with the reactor.
    interest: Interest,
    /// Header-first-byte stamps of requests awaiting a flushed
    /// response, oldest first (pipelining keeps several in flight).
    /// The `u64` is the wall-clock ns for the latency histogram; the
    /// `Instant` anchors the request-level deadline.
    req_starts: VecDeque<(u64, Instant)>,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out
            .iter()
            .map(|i| match i {
                OutItem::Bytes(b) => b.len(),
                OutItem::File { remaining, .. } => *remaining as usize,
                OutItem::Mark => 0,
            })
            .sum::<usize>()
            .saturating_sub(self.front_off)
    }

    /// The nearest of the phase deadline and the oldest unanswered
    /// request's end-to-end bound. The phase deadlines reset as the
    /// connection changes state; the request bound does not, so a
    /// response wedged behind a slow route cannot be kept alive forever
    /// by a peer that keeps the phase clocks fresh.
    fn effective_deadline(&self, request_timeout: Duration) -> Instant {
        match self.req_starts.front() {
            Some(&(_, started)) => self.deadline.min(started + request_timeout),
            None => self.deadline,
        }
    }
}

/// What to do with a connection after handling an event.
#[derive(PartialEq)]
enum Action {
    Keep,
    Close,
}

/// Everything one event loop needs: the frontend-wide shared state
/// plus this loop's labelled metric slice.
struct LoopCtx {
    shared: Arc<FrontendShared>,
    lm: LoopMetrics,
}

fn event_loop(
    feed: LoopFeed,
    waker_rx: UnixStream,
    mut reactor: Reactor,
    ctx: &LoopCtx,
    stop: &AtomicBool,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    if let LoopFeed::Listener(listener) = &feed {
        if reactor
            .register(listener.as_raw_fd(), LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
    }
    if reactor
        .register(waker_rx.as_raw_fd(), WAKER, Interest::READ)
        .is_err()
    {
        return;
    }
    let request_timeout = ctx.shared.cfg.request_timeout;
    let metrics = &ctx.shared.metrics;
    // Cache of the earliest effective deadline across the table; `None`
    // forces a rescan. This keeps a wakeup's work proportional to the
    // events it carries, not the table it guards: a deadline only moves
    // for a connection an event touched (folded below as they are
    // handled), so the O(connections) expiry sweep runs when the cached
    // deadline actually comes due — never as a per-request tax on a
    // 10k-connection herd. The cache may run early (a closed or
    // re-phased connection can leave a stale earlier value); the cost
    // is one spurious sweep, never a missed eviction.
    let mut next_deadline: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        // Deadlines: a connection past its phase deadline (or its
        // oldest request's end-to-end bound) is closed — that is the
        // slow-loris/dead-peer/wedged-response bound.
        if next_deadline.is_none_or(|d| now >= d) {
            let expired: Vec<usize> = conns
                .iter()
                .filter(|(_, c)| now >= c.effective_deadline(request_timeout))
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                close_conn(&mut reactor, &mut conns, id, ctx);
            }
            next_deadline = conns
                .values()
                .map(|c| c.effective_deadline(request_timeout))
                .min();
        }
        // Sleep until the nearest deadline (capped for robustness).
        let timeout = next_deadline
            .map(|d| d.saturating_duration_since(now))
            .unwrap_or(Duration::from_secs(1))
            .min(Duration::from_secs(1));
        let wait_t0 = now_ns();
        let n_events = match reactor.wait(&mut events, Some(timeout)) {
            Ok(n) => n,
            Err(_) => break, // reactor fd gone — unrecoverable
        };
        let wake_ns = now_ns();
        metrics
            .reactor_wait
            .record_ns(wake_ns.saturating_sub(wait_t0));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let mut adopted_any = false;
        for &ev in &events {
            if ev.token == LISTENER {
                if let LoopFeed::Listener(listener) = &feed {
                    accept_all(listener, &mut reactor, &mut conns, &mut next_token, ctx);
                    adopted_any = true;
                }
                continue;
            }
            if ev.token == WAKER {
                drain_waker(&waker_rx);
                if let LoopFeed::Inbox(handoff) = &feed {
                    drain_inbox(handoff, &mut reactor, &mut conns, &mut next_token, ctx);
                    adopted_any = true;
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token.0) else {
                continue; // closed earlier this batch
            };
            let mut action = Action::Keep;
            if ev.readable || ev.hangup {
                action = do_read(conn, ctx, now);
            }
            if action == Action::Keep && (ev.writable || !conn.out.is_empty()) {
                action = do_write(conn, now, ctx);
            }
            if action == Action::Close {
                close_conn(&mut reactor, &mut conns, ev.token.0, ctx);
            } else if let Some(conn) = conns.get_mut(&ev.token.0) {
                // Re-arm interest for the connection this event
                // touched: read unless output backpressure says pause,
                // write only while output is queued. Untouched
                // connections kept their interest — no table scan.
                let want = Interest {
                    readable: conn.pending_out() <= MAX_PENDING_OUT,
                    writable: !conn.out.is_empty(),
                };
                if want != conn.interest
                    && reactor
                        .modify(conn.stream.as_raw_fd(), conn.token, want)
                        .is_ok()
                {
                    conn.interest = want;
                }
                // Fold the (possibly now earlier) deadline into the
                // cache — a fresh request start binds it to
                // `request_timeout` even under a lazier phase deadline.
                let d = conn.effective_deadline(request_timeout);
                next_deadline = Some(next_deadline.map_or(d, |nd| nd.min(d)));
            }
        }
        if adopted_any {
            // Freshly adopted connections start at `now + idle_timeout`;
            // folding that bound keeps the cache exact without a rescan.
            let d = now + ctx.shared.cfg.idle_timeout;
            next_deadline = Some(next_deadline.map_or(d, |nd| nd.min(d)));
        }
        // Empty wakeups are pure timer ticks; folding them in would
        // drown the dispatch/iteration histograms in near-zeros.
        if n_events > 0 {
            let done = now_ns();
            metrics
                .reactor_dispatch
                .record_ns(done.saturating_sub(wake_ns));
            metrics
                .reactor_iteration
                .record_ns(done.saturating_sub(wait_t0));
        }
    }
    // Per-connection teardown, not `open.set(0)`: sibling loops are
    // still counting in the same gauge.
    for (_, conn) in conns.drain() {
        let _ = reactor.deregister(conn.stream.as_raw_fd());
        ctx.shared.metrics.open.sub(1);
        ctx.lm.open.sub(1);
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

fn close_conn(reactor: &mut Reactor, conns: &mut HashMap<usize, Conn>, id: usize, ctx: &LoopCtx) {
    if let Some(conn) = conns.remove(&id) {
        let _ = reactor.deregister(conn.stream.as_raw_fd());
        ctx.shared.metrics.open.sub(1);
        ctx.lm.open.sub(1);
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Swallow whatever bytes are queued on the waker pair; each byte was
/// only ever a "wake up and look around" signal.
fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&mut &*rx).read(&mut buf), Ok(n) if n > 0) {}
}

fn accept_all(
    listener: &TcpListener,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &LoopCtx,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient (ECONNABORTED, fd exhaustion): the next
            // readiness event retries; never spin.
            Err(_) => return,
        };
        adopt(stream, reactor, conns, next_token, ctx);
    }
}

/// Move every stream the accept thread queued into this loop's
/// connection table.
fn drain_inbox(
    handoff: &Handoff,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &LoopCtx,
) {
    loop {
        let Some(stream) = handoff.inbox.lock().unwrap().pop_front() else {
            return;
        };
        adopt(stream, reactor, conns, next_token, ctx);
    }
}

/// Pin a freshly accepted connection to this loop: count it against
/// the frontend-wide cap, register it, insert it. From here on only
/// this loop ever touches it.
fn adopt(
    stream: TcpStream,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &LoopCtx,
) {
    ctx.shared.metrics.accepted.inc();
    ctx.lm.accepted.inc();
    // The cap is exact and frontend-wide: reserve a slot first, give it
    // back on any failure path. (A per-loop split would be cheaper but
    // REUSEPORT's flow hash is uneven enough at 10k connections that
    // one loop would breach its share early.)
    let cap = ctx.shared.cfg.max_connections.max(1);
    let prev = ctx.shared.open_conns.fetch_add(1, Ordering::AcqRel);
    if prev >= cap {
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        // Graceful shedding: the overload answer reaches the client
        // instead of a backlog timeout.
        ctx.shared.metrics.shed.inc();
        ctx.lm.shed.inc();
        shed_503(stream);
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    let _ = stream.set_nodelay(true);
    let token = Token(*next_token);
    *next_token += 1;
    if reactor
        .register(stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    ctx.shared.metrics.open.add(1);
    ctx.lm.open.add(1);
    conns.insert(
        token.0,
        Conn {
            stream,
            token,
            buf: Vec::new(),
            phase: Phase::Idle,
            deadline: Instant::now() + ctx.shared.cfg.idle_timeout,
            out: VecDeque::new(),
            front_off: 0,
            close_after_flush: false,
            interest: Interest::READ,
            req_starts: VecDeque::new(),
        },
    );
}

/// Best-effort canned `503` at the connection cap: one non-blocking
/// write (the payload is far below a socket send buffer), then drop.
/// The accept path must NEVER block on a rejected client.
fn shed_503(stream: TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let body = Json::Obj(vec![(
        "error".into(),
        Json::str("server is saturated; retry later"),
    )])
    .encode();
    let msg = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = (&stream).write(msg.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}

/// Drain the socket into the connection buffer and run the request
/// state machine over whatever arrived.
fn do_read(conn: &mut Conn, ctx: &LoopCtx, now: Instant) -> Action {
    let mut tmp = [0u8; 16 << 10];
    loop {
        // Backpressure: stop pulling bytes while responses are backed
        // up (interest re-arming pauses the readiness events too).
        if conn.pending_out() > MAX_PENDING_OUT {
            return Action::Keep;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                // EOF. Clean between requests; abrupt mid-request.
                return Action::Close;
            }
            Ok(n) => {
                if let Phase::Lingering { budget } = &mut conn.phase {
                    *budget = budget.saturating_sub(n);
                    if *budget == 0 {
                        return Action::Close;
                    }
                    continue;
                }
                conn.buf.extend_from_slice(&tmp[..n]);
                if process_input(conn, ctx, now) == Action::Close {
                    return Action::Close;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Action::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        }
    }
}

/// Advance the request state machine over `conn.buf`. Loops so that
/// pipelined requests already buffered are answered back-to-back.
fn process_input(conn: &mut Conn, ctx: &LoopCtx, now: Instant) -> Action {
    loop {
        match &mut conn.phase {
            Phase::Idle => {
                if conn.buf.is_empty() {
                    return Action::Keep;
                }
                // Request latency (and the request-level deadline)
                // starts at the header's first byte.
                conn.req_starts.push_back((now_ns(), now));
                conn.phase = Phase::Header;
                conn.deadline = now + ctx.shared.cfg.header_timeout;
            }
            Phase::Header => {
                let Some(head_len) = find_head_end(&conn.buf) else {
                    if conn.buf.len() > MAX_HEAD_BYTES {
                        return refuse(
                            conn,
                            ctx,
                            now,
                            400,
                            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                        );
                    }
                    return Action::Keep; // need more bytes
                };
                let head_bytes: Vec<u8> = conn.buf.drain(..head_len).collect();
                let head = match parse_head(&head_bytes) {
                    Ok(h) => h,
                    Err((status, msg)) => return refuse(conn, ctx, now, status, msg),
                };
                if head.content_length > ctx.shared.cfg.max_body_bytes {
                    return refuse(
                        conn,
                        ctx,
                        now,
                        413,
                        format!(
                            "body of {} bytes exceeds the {}-byte limit",
                            head.content_length, ctx.shared.cfg.max_body_bytes
                        ),
                    );
                }
                let parse_body = ctx.shared.routes.wants_body(&head.method, &head.path);
                conn.deadline = now + ctx.shared.cfg.body_timeout;
                conn.phase = Phase::Body {
                    remaining: head.content_length,
                    parser: parse_body.then(|| Box::new(PushParser::new())),
                    parse_err: None,
                    head,
                };
            }
            Phase::Body {
                remaining,
                parser,
                parse_err,
                ..
            } => {
                let take = (*remaining).min(conn.buf.len());
                if take > 0 {
                    // Incremental parse: the body never waits, whole,
                    // for a parse pass — and a malformed one is known
                    // bad at its first wrong byte.
                    if parse_err.is_none() {
                        if let Some(p) = parser.as_mut() {
                            if let Err(e) = p.feed(&conn.buf[..take]) {
                                *parse_err = Some(e);
                            }
                        }
                    }
                    conn.buf.drain(..take);
                    *remaining -= take;
                }
                if *remaining > 0 {
                    return Action::Keep; // need more bytes
                }
                let (head, parser, parse_err) =
                    match std::mem::replace(&mut conn.phase, Phase::Idle) {
                        Phase::Body {
                            head,
                            parser,
                            parse_err,
                            ..
                        } => (head, parser, parse_err),
                        _ => unreachable!("we are in Body"),
                    };
                let body = parser.map(|p| match parse_err {
                    Some(e) => Err(e),
                    None => p.finish(),
                });
                if let Some(Err(WireError::Syntax { .. })) = &body {
                    ctx.shared.metrics.parse_errors.inc();
                }
                // Panic isolation: a panicking route must cost one
                // response, never the whole event loop.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.shared.routes.route(&head.method, &head.path, body)
                }))
                .unwrap_or_else(|_| Response::error(500, "internal error"));
                ctx.shared.metrics.requests.inc();
                ctx.lm.requests.inc();
                queue_response(conn, response, head.keep_alive, now, ctx);
                if conn.close_after_flush {
                    conn.buf.clear();
                    conn.phase = Phase::Lingering {
                        budget: DRAIN_BUDGET,
                    };
                    return Action::Keep;
                }
                // Keep-alive: loop — pipelined bytes may already hold
                // the next request.
                if conn.buf.is_empty() {
                    conn.deadline = now
                        + ctx
                            .shared
                            .cfg
                            .idle_timeout
                            .max(ctx.shared.cfg.write_timeout);
                    return Action::Keep;
                }
            }
            Phase::Lingering { budget } => {
                *budget = budget.saturating_sub(conn.buf.len());
                conn.buf.clear();
                if *budget == 0 {
                    return Action::Close;
                }
                return Action::Keep;
            }
        }
    }
}

/// Queue a protocol-level refusal and mark the connection close-bound
/// (its framing can no longer be trusted).
fn refuse(conn: &mut Conn, ctx: &LoopCtx, now: Instant, status: u16, message: String) -> Action {
    ctx.shared.metrics.parse_errors.inc();
    queue_response(conn, Response::error(status, message), false, now, ctx);
    conn.buf.clear();
    conn.phase = Phase::Lingering {
        budget: DRAIN_BUDGET,
    };
    Action::Keep
}

/// Index just past the blank line ending the request head, if present.
/// Lines are `\n`-separated, tolerating the `\r` HTTP requires.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Some(i + 2),
                (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parse the request line + headers. `Err(status, message)` is
/// answered as-is (and closes the connection).
fn parse_head(head: &[u8]) -> Result<RequestHead, (u16, String)> {
    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        let l = l.strip_suffix(b"\r").unwrap_or(l);
        if l.len() > MAX_LINE_BYTES {
            return Err((400, format!("line exceeds {MAX_LINE_BYTES} bytes")));
        }
        std::str::from_utf8(l).map_err(|_| (400, "non-UTF-8 line".to_string()))
    });
    let line = lines.next().unwrap_or(Ok(""))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or((400, "empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or((400, "request line without a path".to_string()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err((505, format!("unsupported protocol '{version}'")));
    }

    let mut content_length = 0usize;
    let mut connection = String::new();
    let mut headers_seen = 0usize;
    for header in lines {
        let header = header?;
        if header.is_empty() {
            break; // the terminator line
        }
        headers_seen += 1;
        if headers_seen > MAX_HEADERS {
            return Err((400, format!("more than {MAX_HEADERS} header lines")));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| (400, format!("bad content-length '{}'", value.trim())))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && !value.trim().eq_ignore_ascii_case("identity")
            {
                return Err((501, "chunked bodies are not supported".to_string()));
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    // HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let keep_alive = if version == "HTTP/1.0" {
        connection == "keep-alive"
    } else {
        connection != "close"
    };
    Ok(RequestHead {
        method,
        path,
        content_length,
        keep_alive,
    })
}

/// Serialize a response onto the connection's output queue and attempt
/// an optimistic flush (most responses fit the socket buffer whole, so
/// the common case never waits for a writability event).
fn queue_response(
    conn: &mut Conn,
    response: Response,
    keep_alive: bool,
    now: Instant,
    ctx: &LoopCtx,
) {
    let Response {
        status,
        content_type,
        body,
    } = response;
    let len = match &body {
        Body::Text(t) => t.len() as u64,
        Body::File(_, len) => *len,
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: {}\r\n\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut first = head.into_bytes();
    match body {
        Body::Text(t) => first.extend_from_slice(t.as_bytes()),
        Body::File(file, remaining) => {
            conn.out.push_back(OutItem::Bytes(first));
            conn.out.push_back(OutItem::File { file, remaining });
            conn.out.push_back(OutItem::Mark);
            conn.close_after_flush |= !keep_alive;
            conn.deadline = now + ctx.shared.cfg.write_timeout;
            let _ = do_write(conn, now, ctx);
            return;
        }
    }
    conn.out.push_back(OutItem::Bytes(first));
    conn.out.push_back(OutItem::Mark);
    conn.close_after_flush |= !keep_alive;
    conn.deadline = now + ctx.shared.cfg.write_timeout;
    let _ = do_write(conn, now, ctx);
}

/// Push queued output to the socket until it blocks or drains.
fn do_write(conn: &mut Conn, now: Instant, ctx: &LoopCtx) -> Action {
    loop {
        let Some(front) = conn.out.front_mut() else {
            // Fully flushed.
            if conn.close_after_flush {
                // Half-close so the last response's bytes are
                // delivered, then linger draining (bounded) until the
                // peer hangs up — closing with unread input would RST
                // the response away.
                let _ = conn.stream.shutdown(Shutdown::Write);
                if !matches!(conn.phase, Phase::Lingering { .. }) {
                    conn.phase = Phase::Lingering {
                        budget: DRAIN_BUDGET,
                    };
                }
                conn.deadline = now + LINGER;
            }
            return Action::Keep;
        };
        match front {
            OutItem::Bytes(bytes) => {
                while conn.front_off < bytes.len() {
                    match conn.stream.write(&bytes[conn.front_off..]) {
                        Ok(0) => return Action::Close,
                        Ok(n) => conn.front_off += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return Action::Keep;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => return Action::Close,
                    }
                }
                conn.front_off = 0;
                conn.out.pop_front();
            }
            OutItem::File { file, remaining } => {
                if *remaining == 0 {
                    conn.out.pop_front();
                    continue;
                }
                let want = (*remaining).min(FILE_CHUNK as u64) as usize;
                let mut chunk = vec![0u8; want];
                match file.read(&mut chunk) {
                    // Truncated under us: the advertised Content-Length
                    // cannot be met — the framing is broken, close.
                    Ok(0) => return Action::Close,
                    Ok(n) => {
                        chunk.truncate(n);
                        *remaining -= n as u64;
                        // The chunk is the file's next bytes: it goes
                        // *in front of* the file item it came from.
                        conn.out.push_front(OutItem::Bytes(chunk));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Action::Close,
                }
            }
            OutItem::Mark => {
                // Everything queued for this response hit the socket:
                // the oldest in-flight request is answered.
                conn.out.pop_front();
                if let Some((t0, _)) = conn.req_starts.pop_front() {
                    ctx.shared
                        .metrics
                        .request_seconds
                        .record_ns(now_ns().saturating_sub(t0));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// A response body: in-memory text, or a file streamed straight from
/// disk (results can be large — they must not be buffered whole).
pub enum Body {
    Text(String),
    /// The file plus the length to advertise; the copy is capped at
    /// that length so a sink appending mid-response cannot overrun the
    /// declared `Content-Length`.
    File(std::fs::File, u64),
}

/// One HTTP response as an [`HttpRoutes`] router produces it.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Body,
}

impl Response {
    /// A JSON body with the given status.
    pub fn json(status: u16, v: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Text(v.encode()),
        }
    }

    /// The standard `{"error": …}` envelope.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &Json::Obj(vec![("error".into(), Json::str(message.into()))]),
        )
    }

    /// A [`WireError`] mapped to its HTTP status.
    pub fn wire_error(e: &WireError) -> Response {
        Response::error(e.http_status(), e.to_string())
    }

    /// An arbitrary body under an explicit content type.
    pub fn text(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body: Body::Text(body),
        }
    }
}

impl HttpRoutes for NodeRoutes {
    fn wants_body(&self, method: &str, path: &str) -> bool {
        let path = path.split('?').next().unwrap_or("");
        method == "POST" && path.split('/').filter(|s| !s.is_empty()).eq(["jobs"])
    }

    fn route(
        &self,
        method: &str,
        raw_path: &str,
        body: Option<Result<Json, WireError>>,
    ) -> Response {
        let path = raw_path.split('?').next().unwrap_or("");
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => {
                // Still a plain 200 for old clients that only check the
                // status; the body now carries the boot-random node id (a
                // restart behind the same address changes it) and version.
                Response::json(
                    200,
                    &Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("node".into(), Json::str(format!("{:016x}", self.node_id))),
                        ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
                    ]),
                )
            }
            ("GET", ["stats"]) => {
                // One ordered snapshot feeds every connection field, so a
                // scrape can never see `open > accepted` torn views.
                let conns = self.metrics.snapshot();
                let mut v = wire::stats_to_json(&self.service.stats());
                if let Json::Obj(members) = &mut v {
                    members.push(("rejected_connections".into(), Json::u64(conns.shed)));
                    members.push((
                        "queue_capacity".into(),
                        Json::usize(self.service.queue_capacity()),
                    ));
                    members.push((
                        "connections".into(),
                        Json::Obj(vec![
                            ("open".into(), Json::u64(conns.open)),
                            ("accepted".into(), Json::u64(conns.accepted)),
                            ("shed".into(), Json::u64(conns.shed)),
                            ("parse_errors".into(), Json::u64(conns.parse_errors)),
                            ("requests".into(), Json::u64(conns.requests)),
                        ]),
                    ));
                }
                Response::json(200, &v)
            }
            ("GET", ["metrics"]) => {
                // Prometheus text exposition, rendered from the same
                // registry `/stats` reads — one source of truth.
                Response::text(
                    200,
                    "text/plain; version=0.0.4",
                    self.metrics.registry.render_prometheus(),
                )
            }
            ("POST", ["jobs"]) => self.submit_job(body),
            ("GET", ["jobs", id]) => self.with_job(id, job_status),
            ("GET", ["jobs", id, "results"]) => self.with_job(id, job_results),
            ("DELETE", ["jobs", id]) => self.with_job(id, cancel_job),
            (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["stats"]) | (_, ["metrics"]) => {
                Response::error(405, format!("method {method} not allowed on {path}"))
            }
            _ => Response::error(404, format!("no route for {path}")),
        }
    }
}

impl NodeRoutes {
    fn submit_job(&self, body: Option<Result<Json, WireError>>) -> Response {
        let parsed = match body {
            Some(Ok(v)) => v,
            Some(Err(e)) => return Response::wire_error(&e),
            None => return Response::error(400, "POST /jobs requires a JSON body"),
        };
        let sub = match wire::submission_from_json(&parsed) {
            Ok(s) => s,
            Err(e) => return Response::wire_error(&e),
        };
        // Path sources make *this* process read the named file; on an
        // unauthenticated socket that is a filesystem probe. Refuse before
        // any I/O happens unless the operator opted in.
        if !self.cfg.allow_path_sources && sub.uses_path_sources() {
            return Response::error(
                403,
                "server-side 'path' sources are disabled on this server; \
                 ship the PDBQT text inline instead",
            );
        }
        let receptor = match sub.load_receptor() {
            Ok(r) => r,
            Err(e) => return Response::wire_error(&e),
        };
        let file_no = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let results = self.cfg.results_dir.join(format!("job-{file_no}.jsonl"));
        let name = sub.campaign.name.clone();
        let spec = JobSpec {
            receptor,
            ligands: sub.ligands,
            slice: sub.slice,
            priority: sub.priority,
            jsonl: Some(results.clone()),
            ..JobSpec::from(sub.campaign)
        };
        // try_submit, not submit: a full queue must become backpressure on
        // the wire (503 + retry), never the event loop blocked on a
        // condvar while every other connection starves.
        match self.service.try_submit(spec) {
            Ok(handle) => {
                let id = handle.id();
                let evicted = {
                    let mut jobs = self.jobs.lock().unwrap();
                    jobs.insert(
                        id,
                        NetJob {
                            handle,
                            name,
                            results,
                        },
                    );
                    evict_terminal_jobs(&mut jobs, self.cfg.max_retained_jobs)
                };
                for path in evicted {
                    std::fs::remove_file(path).ok();
                }
                Response::json(
                    201,
                    &Json::Obj(vec![
                        ("id".into(), Json::u64(id)),
                        (
                            "state".into(),
                            Json::str(wire::state_name(JobState::Queued)),
                        ),
                        ("results".into(), Json::str(format!("/jobs/{id}/results"))),
                    ]),
                )
            }
            Err(e @ (SubmitError::Full | SubmitError::Shutdown)) => {
                Response::error(503, e.to_string())
            }
        }
    }

    /// Look a job up and run `f` on a clone of its tracking entry, or
    /// 404. The clone means the global map lock is held only for the
    /// lookup — never across `f` (which may open a large results file).
    fn with_job(&self, id: &str, f: fn(&NetJob, JobId) -> Response) -> Response {
        let Ok(id) = id.parse::<JobId>() else {
            return Response::error(404, format!("job id '{id}' is not a number"));
        };
        let job = {
            let jobs = self.jobs.lock().unwrap();
            jobs.get(&id).map(|j| NetJob {
                handle: j.handle.clone(),
                name: j.name.clone(),
                results: j.results.clone(),
            })
        };
        match job {
            Some(job) => f(&job, id),
            None => Response::error(404, format!("no job {id}")),
        }
    }
}

/// Drop the oldest *terminal* jobs beyond `max_retained` so a
/// long-running server does not grow per submission forever; returns
/// their result-file paths for deletion outside the lock. Running and
/// queued jobs are never touched, so the map can exceed the cap while
/// that many jobs are genuinely in flight.
fn evict_terminal_jobs(jobs: &mut HashMap<JobId, NetJob>, max_retained: usize) -> Vec<PathBuf> {
    let mut terminal: Vec<JobId> = jobs
        .iter()
        .filter(|(_, j)| j.handle.try_outcome().is_some())
        .map(|(&id, _)| id)
        .collect();
    // The cap applies to *terminal* jobs alone (as NetConfig documents):
    // in-flight jobs must neither be evicted nor crowd finished ones
    // out of their retention window.
    let excess = terminal.len().saturating_sub(max_retained.max(1));
    if excess == 0 {
        return Vec::new();
    }
    terminal.sort_unstable();
    terminal
        .into_iter()
        .take(excess)
        .filter_map(|id| jobs.remove(&id).map(|j| j.results))
        .collect()
}

fn job_status(job: &NetJob, id: JobId) -> Response {
    Response::json(200, &status_json(job, id))
}

/// A job's status document. State and outcome come from one snapshot,
/// so a poll racing the job's end never reads a terminal state without
/// its outcome.
fn status_json(job: &NetJob, id: JobId) -> Json {
    let (state, outcome) = job.handle.snapshot();
    wire::status_to_json(
        id,
        &job.name,
        state,
        job.handle.ligands_done(),
        job.handle.chunks_done(),
        &job.handle.stage_timings(),
        outcome.as_ref(),
    )
}

fn job_results(job: &NetJob, _id: JobId) -> Response {
    // The sink appends + flushes at chunk boundaries, so serving the
    // file mid-run streams every completed chunk — same contract as
    // tailing the JSONL locally. Streamed from disk in chunks, never
    // buffered whole: results files grow with the campaign. The length
    // is snapshotted up front so a chunk landing mid-response cannot
    // overrun the declared Content-Length.
    match std::fs::File::open(&job.results) {
        Ok(file) => match file.metadata() {
            Ok(meta) => Response {
                status: 200,
                content_type: "application/x-ndjson",
                body: Body::File(file, meta.len()),
            },
            Err(e) => Response::error(500, format!("results file: {e}")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Response::text(200, "application/x-ndjson", String::new())
        }
        Err(e) => Response::error(500, format!("results file: {e}")),
    }
}

fn cancel_job(job: &NetJob, id: JobId) -> Response {
    job.handle.cancel();
    Response::json(202, &status_json(job, id))
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The matching blocking HTTP client. [`Client`](client::Client) keeps its connection
/// open across requests (HTTP/1.1 keep-alive), so a poll loop pays one
/// TCP handshake total instead of one per poll; the free functions are
/// one-shot conveniences over it. Used by the CLI (`mudock submit`,
/// `mudock poll`), the loopback bench mode, and the integration tests.
pub mod client {
    use super::*;
    use crate::ingest::LigandSource;
    use crate::job::{LigandSlice, Priority};
    use crate::wire::{JobStatus, ReceptorSource};
    use mudock_core::CampaignSpec;
    use std::io::{BufRead, BufReader};

    /// A client-side failure.
    ///
    /// Connect-refused and timeout are split out of the generic I/O
    /// arm because a coordinator's dead-node detection treats them
    /// differently: refused means nothing is listening (node down or
    /// restarting — act now), a timeout means *something* answered the
    /// handshake but stalled (overloaded or wedged — back off first).
    #[derive(Debug)]
    pub enum ClientError {
        /// Nothing is listening at the address.
        ConnectRefused(std::io::Error),
        /// A connect/read/write deadline expired.
        Timeout(std::io::Error),
        /// Any other connect/read/write failure.
        Io(std::io::Error),
        /// The server answered with a non-2xx status.
        Http { status: u16, body: String },
        /// The response body did not decode.
        Wire(WireError),
    }

    impl std::fmt::Display for ClientError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ClientError::ConnectRefused(e) => write!(f, "connection failed (refused): {e}"),
                ClientError::Timeout(e) => write!(f, "connection failed (timed out): {e}"),
                ClientError::Io(e) => write!(f, "connection failed: {e}"),
                ClientError::Http { status, body } => {
                    // Surface the server's JSON error message when present.
                    let detail = wire::parse(body)
                        .ok()
                        .and_then(|v| match v.get("error") {
                            Some(Json::Str(s)) => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap_or_else(|| body.clone());
                    write!(f, "HTTP {status}: {detail}")
                }
                ClientError::Wire(e) => write!(f, "bad response body: {e}"),
            }
        }
    }

    impl std::error::Error for ClientError {}

    impl From<std::io::Error> for ClientError {
        fn from(e: std::io::Error) -> Self {
            use std::io::ErrorKind;
            match e.kind() {
                ErrorKind::ConnectionRefused => ClientError::ConnectRefused(e),
                // Blocking sockets with SO_RCVTIMEO/SO_SNDTIMEO report
                // an expired deadline as WouldBlock on Unix (TimedOut
                // on Windows) — both are "the peer stalled".
                ErrorKind::TimedOut | ErrorKind::WouldBlock => ClientError::Timeout(e),
                _ => ClientError::Io(e),
            }
        }
    }

    impl From<WireError> for ClientError {
        fn from(e: WireError) -> Self {
            ClientError::Wire(e)
        }
    }

    /// A raw HTTP exchange.
    #[derive(Clone, Debug)]
    pub struct HttpResponse {
        pub status: u16,
        pub body: String,
    }

    impl HttpResponse {
        /// Error on non-2xx, pass through otherwise.
        pub fn ok(self) -> Result<HttpResponse, ClientError> {
            if (200..300).contains(&self.status) {
                Ok(self)
            } else {
                Err(ClientError::Http {
                    status: self.status,
                    body: self.body,
                })
            }
        }
    }

    /// A keep-alive HTTP client bound to one server address.
    ///
    /// The connection is opened lazily, reused across requests, and
    /// dropped when the server answers `Connection: close` (or on any
    /// I/O error). A request that fails on a *reused* connection is
    /// retried once on a fresh one: the usual cause is the server's
    /// idle timeout racing the request, and the retry makes that race
    /// invisible to callers.
    pub struct Client {
        addr: String,
        conn: Option<BufReader<TcpStream>>,
    }

    impl Client {
        pub fn new(addr: impl Into<String>) -> Client {
            Client {
                addr: addr.into(),
                conn: None,
            }
        }

        fn connect(addr: &str) -> Result<BufReader<TcpStream>, ClientError> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            let _ = stream.set_nodelay(true);
            Ok(BufReader::new(stream))
        }

        /// One blocking request; reuses the held connection when
        /// possible.
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            body: Option<&str>,
        ) -> Result<HttpResponse, ClientError> {
            let reused = self.conn.is_some();
            if self.conn.is_none() {
                self.conn = Some(Self::connect(&self.addr)?);
            }
            let conn = self.conn.as_mut().expect("just ensured");
            match Self::exchange(conn, &self.addr, method, path, body) {
                Ok((resp, keep)) => {
                    if !keep {
                        self.conn = None;
                    }
                    Ok(resp)
                }
                Err(e) => {
                    self.conn = None;
                    if reused {
                        // Stale keep-alive connection (server idle
                        // timeout won the race): retry once, fresh.
                        // Timeouts retry too — the old socket may have
                        // died under us; refused never does, a fresh
                        // connect would have failed identically.
                        if let ClientError::Io(_) | ClientError::Timeout(_) = e {
                            let mut fresh = Self::connect(&self.addr)?;
                            let (resp, keep) =
                                Self::exchange(&mut fresh, &self.addr, method, path, body)?;
                            if keep {
                                self.conn = Some(fresh);
                            }
                            return Ok(resp);
                        }
                    }
                    Err(e)
                }
            }
        }

        fn exchange(
            reader: &mut BufReader<TcpStream>,
            addr: &str,
            method: &str,
            path: &str,
            body: Option<&str>,
        ) -> Result<(HttpResponse, bool), ClientError> {
            let body = body.unwrap_or("");
            let head = format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len(),
            );
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()?;

            let mut status_line = String::new();
            if reader.read_line(&mut status_line)? == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before the status line",
                )));
            }
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad status line '{}'", status_line.trim_end()),
                    ))
                })?;
            let mut content_length: Option<usize> = None;
            let mut close = false;
            loop {
                let mut header = String::new();
                let n = reader.read_line(&mut header)?;
                let header = header.trim_end();
                if n == 0 || header.is_empty() {
                    break;
                }
                if let Some((name, value)) = header.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().ok();
                    } else if name.eq_ignore_ascii_case("connection") {
                        close = value.trim().eq_ignore_ascii_case("close");
                    }
                }
            }
            let body = match content_length {
                Some(len) => {
                    let mut buf = vec![0u8; len];
                    reader.read_exact(&mut buf)?;
                    String::from_utf8_lossy(&buf).into_owned()
                }
                None => {
                    // No framing: the exchange only ends at EOF, so
                    // the connection cannot be reused.
                    close = true;
                    let mut buf = String::new();
                    reader.read_to_string(&mut buf)?;
                    buf
                }
            };
            Ok((HttpResponse { status, body }, !close))
        }

        /// `POST /jobs`: submit a campaign; returns the assigned job id.
        pub fn submit(
            &mut self,
            campaign: &CampaignSpec,
            receptor: &ReceptorSource,
            ligands: &LigandSource,
            priority: Priority,
        ) -> Result<JobId, ClientError> {
            self.submit_sliced(campaign, receptor, ligands, None, priority)
        }

        /// [`Client::submit`] with an optional sub-job window — the
        /// coordinator's scatter path. The server docks only
        /// `slice.take` ligands starting at global index `slice.skip`,
        /// seeding each by its global index, so the window's results
        /// are bit-identical to the same ligands of an unsliced run.
        pub fn submit_sliced(
            &mut self,
            campaign: &CampaignSpec,
            receptor: &ReceptorSource,
            ligands: &LigandSource,
            slice: Option<LigandSlice>,
            priority: Priority,
        ) -> Result<JobId, ClientError> {
            let body =
                wire::sliced_submission_to_json(campaign, receptor, ligands, slice, priority)?
                    .encode();
            let resp = self.request("POST", "/jobs", Some(&body))?.ok()?;
            let v = wire::parse(&resp.body)?;
            match v.get("id") {
                Some(Json::Num(n)) => n.as_u64().ok_or_else(|| {
                    ClientError::Wire(WireError::invalid("id", "expected an integer"))
                }),
                _ => Err(ClientError::Wire(WireError::Missing { field: "id" })),
            }
        }

        /// `GET /jobs/{id}`: one status snapshot.
        pub fn poll(&mut self, id: JobId) -> Result<JobStatus, ClientError> {
            let resp = self.request("GET", &format!("/jobs/{id}"), None)?.ok()?;
            Ok(wire::status_from_json(&wire::parse(&resp.body)?)?)
        }

        /// Poll until the job reaches a terminal state — over one
        /// connection, not one per poll.
        pub fn wait(&mut self, id: JobId, interval: Duration) -> Result<JobStatus, ClientError> {
            loop {
                let status = self.poll(id)?;
                if status.is_terminal() {
                    return Ok(status);
                }
                std::thread::sleep(interval);
            }
        }

        /// `GET /jobs/{id}/results`: the JSONL produced so far.
        pub fn results(&mut self, id: JobId) -> Result<String, ClientError> {
            Ok(self
                .request("GET", &format!("/jobs/{id}/results"), None)?
                .ok()?
                .body)
        }

        /// `DELETE /jobs/{id}`: request cancellation.
        pub fn cancel(&mut self, id: JobId) -> Result<JobStatus, ClientError> {
            let resp = self.request("DELETE", &format!("/jobs/{id}"), None)?.ok()?;
            Ok(wire::status_from_json(&wire::parse(&resp.body)?)?)
        }

        /// `GET /healthz`, as a boolean.
        pub fn healthy(&mut self) -> bool {
            matches!(self.request("GET", "/healthz", None), Ok(r) if r.status == 200)
        }

        /// `GET /healthz`, decoded. Tolerates pre-node-id servers: a
        /// plain `200` with no recognizable body still reports healthy,
        /// just without an identity.
        pub fn health(&mut self) -> Result<NodeHealth, ClientError> {
            let resp = self.request("GET", "/healthz", None)?.ok()?;
            let v = wire::parse(&resp.body).unwrap_or(Json::Null);
            let node = match v.get("node") {
                Some(Json::Str(s)) => u64::from_str_radix(s, 16).ok(),
                _ => None,
            };
            let version = match v.get("version") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            };
            Ok(NodeHealth { node, version })
        }
    }

    /// A decoded `/healthz` body: the node's boot-random identity and
    /// crate version (both `None` when talking to an old server).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct NodeHealth {
        pub node: Option<u64>,
        pub version: Option<String>,
    }

    /// One-shot request against `addr` (e.g. `"127.0.0.1:7979"`).
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        Client::new(addr).request(method, path, body)
    }

    /// `POST /jobs`: submit a campaign; returns the assigned job id.
    pub fn submit(
        addr: &str,
        campaign: &CampaignSpec,
        receptor: &ReceptorSource,
        ligands: &LigandSource,
        priority: Priority,
    ) -> Result<JobId, ClientError> {
        Client::new(addr).submit(campaign, receptor, ligands, priority)
    }

    /// `GET /jobs/{id}`: one status snapshot.
    pub fn poll(addr: &str, id: JobId) -> Result<JobStatus, ClientError> {
        Client::new(addr).poll(id)
    }

    /// Poll until the job reaches a terminal state (one keep-alive
    /// connection for the whole loop).
    pub fn wait(addr: &str, id: JobId, interval: Duration) -> Result<JobStatus, ClientError> {
        Client::new(addr).wait(id, interval)
    }

    /// `GET /jobs/{id}/results`: the JSONL produced so far.
    pub fn results(addr: &str, id: JobId) -> Result<String, ClientError> {
        Client::new(addr).results(id)
    }

    /// `DELETE /jobs/{id}`: request cancellation.
    pub fn cancel(addr: &str, id: JobId) -> Result<JobStatus, ClientError> {
        Client::new(addr).cancel(id)
    }

    /// `GET /healthz`, as a boolean.
    pub fn healthy(addr: &str) -> bool {
        Client::new(addr).healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use std::io::{BufRead, BufReader};

    fn tiny_service() -> Arc<ScreenService> {
        Arc::new(ScreenService::start(ServeConfig {
            total_threads: 1,
            job_slots: 1,
            queue_capacity: 2,
            cache_capacity: 1,
            ..ServeConfig::default()
        }))
    }

    fn bind(service: &Arc<ScreenService>) -> NetServer {
        NetServer::bind("127.0.0.1:0", Arc::clone(service), NetConfig::default())
            .expect("loopback bind")
    }

    /// Read one HTTP response (status + Content-Length framed body)
    /// off a raw reader, leaving the stream positioned at the next
    /// pipelined response.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut len = 0usize;
        loop {
            let mut header = String::new();
            let n = reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    #[test]
    fn healthz_and_stats_respond() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        assert!(client::healthy(&addr));
        let resp = client::request(&addr, "GET", "/stats", None)
            .unwrap()
            .ok()
            .unwrap();
        let v = wire::parse(&resp.body).unwrap();
        assert!(v.get("cache").is_some());
        assert!(v.get("queue_capacity").is_some());
        // Sharding and spill telemetry is part of the stats contract.
        assert_eq!(v.get("shard_count"), Some(&wire::Json::usize(0)));
        assert!(matches!(v.get("shards"), Some(wire::Json::Arr(a)) if a.is_empty()));
        let cache = v.get("cache").unwrap();
        assert!(cache.get("spills").is_some());
        assert!(cache.get("reloads").is_some());
        assert!(cache.get("spilled").is_some());
        // Connection gauges are part of the stats contract too.
        let conns = v.get("connections").expect("connections gauges");
        for gauge in ["open", "accepted", "shed", "parse_errors", "requests"] {
            assert!(conns.get(gauge).is_some(), "missing gauge {gauge}");
        }
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn unknown_routes_and_methods_are_typed_errors() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        assert_eq!(
            client::request(&addr, "GET", "/nope", None).unwrap().status,
            404
        );
        assert_eq!(
            client::request(&addr, "DELETE", "/healthz", None)
                .unwrap()
                .status,
            405
        );
        assert_eq!(
            client::request(&addr, "GET", "/jobs/999", None)
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            client::request(&addr, "GET", "/jobs/not-a-number", None)
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            client::request(&addr, "POST", "/jobs", Some("{not json"))
                .unwrap()
                .status,
            400
        );
        // Structurally fine, semantically invalid campaign → 422.
        let body = r#"{"campaign": {"name": "x", "top_k": 0},
                       "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                       "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
        assert_eq!(
            client::request(&addr, "POST", "/jobs", Some(body))
                .unwrap()
                .status,
            422
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn path_sources_are_refused_unless_enabled() {
        let body = r#"{"campaign": {"name": "p"},
                       "receptor": {"path": "/nonexistent/receptor.pdbqt"},
                       "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        // Default policy: 403 before any filesystem access.
        assert_eq!(
            client::request(&addr, "POST", "/jobs", Some(body))
                .unwrap()
                .status,
            403
        );
        server.shutdown();

        // Opted in: the path is now attempted — and since it does not
        // exist, the failure is the loader's 400, not the policy 403.
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                allow_path_sources: true,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        assert_eq!(
            client::request(&addr, "POST", "/jobs", Some(body))
                .unwrap()
                .status,
            400
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn eviction_drops_only_the_oldest_terminal_jobs() {
        use crate::job::{JobOutcome, JobShared};
        fn job(id: u64, terminal: bool) -> NetJob {
            let shared = JobShared::new(id);
            if terminal {
                shared.finish(JobOutcome {
                    id,
                    name: String::new(),
                    state: JobState::Completed,
                    ligands_done: 0,
                    chunks_done: 0,
                    replayed_chunks: 0,
                    grid_cache_hit: false,
                    stopped_early: false,
                    top: Vec::new(),
                    elapsed: Duration::ZERO,
                    error: None,
                });
            }
            NetJob {
                handle: JobHandle { shared },
                name: format!("j{id}"),
                results: PathBuf::from(format!("/nonexistent/none-{id}.jsonl")),
            }
        }
        let mut jobs = HashMap::new();
        for id in 1..=4u64 {
            jobs.insert(id, job(id, id != 3)); // job 3 is still running
        }
        // Three *terminal* jobs (1, 2, 4) against a cap of 2 → the
        // oldest terminal job (1) goes. The running job neither counts
        // toward the cap nor gets evicted, even though it is older
        // than 4.
        let evicted = evict_terminal_jobs(&mut jobs, 2);
        assert_eq!(evicted.len(), 1);
        assert!(jobs.contains_key(&3), "running jobs are never evicted");
        assert!(jobs.contains_key(&2) && jobs.contains_key(&4));
        assert!(!jobs.contains_key(&1));
        // Exactly at the cap now: nothing further to do.
        assert!(evict_terminal_jobs(&mut jobs, 2).is_empty());
        // A sea of running jobs cannot push terminal ones out early.
        for id in 10..=30u64 {
            jobs.insert(id, job(id, false));
        }
        assert!(evict_terminal_jobs(&mut jobs, 2).is_empty());
    }

    #[test]
    fn overlong_header_lines_are_refused_not_buffered() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        // A request line far beyond the head budget: the server must
        // answer 400 (it read a bounded prefix), not buffer it all.
        let mut conn = TcpStream::connect(&addr).unwrap();
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 << 10));
        conn.write_all(huge.as_bytes()).unwrap();
        conn.flush().unwrap();
        let mut resp = String::new();
        let mut reader = BufReader::new(conn);
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("400"), "got: {resp}");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let service = tiny_service();
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                max_body_bytes: 64,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let body = "x".repeat(256);
        assert_eq!(
            client::request(&addr, "POST", "/jobs", Some(&body))
                .unwrap()
                .status,
            413
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        let mut c = client::Client::new(&addr);
        for _ in 0..5 {
            assert!(c.healthy());
        }
        let resp = c.request("GET", "/stats", None).unwrap().ok().unwrap();
        assert!(resp.body.contains("connections"));
        // All six requests rode one accepted connection.
        let stats = server.connection_stats();
        assert_eq!(stats.accepted, 1, "handshake per request: {stats:?}");
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.open, 1);
        drop(c);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Two requests in one write: both must be answered, in order,
        // on the same connection.
        conn.write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /stats HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .unwrap();
        let mut reader = BufReader::new(conn);
        let (status1, body1) = read_response(&mut reader);
        let (status2, body2) = read_response(&mut reader);
        assert_eq!(status1, 200);
        assert!(body1.contains("ok"), "healthz first: {body1}");
        assert_eq!(status2, 200);
        assert!(body2.contains("cache"), "stats second: {body2}");
        assert_eq!(server.connection_stats().accepted, 1);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn slow_header_writers_are_deadlined() {
        let service = tiny_service();
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                header_timeout: Duration::from_millis(150),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A slow-loris writer: partial headers, then silence. The
        // header deadline must close the connection.
        conn.write_all(b"GET /healthz HTTP/1.1\r\nX-Drip: ")
            .unwrap();
        let t0 = Instant::now();
        let mut buf = [0u8; 64];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF, got {n} bytes");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadline did not fire promptly"
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn connection_cap_sheds_with_a_503() {
        let service = tiny_service();
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                max_connections: 1,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // Occupy the only slot (a completed request guarantees the
        // connection is registered, not just in the backlog).
        let mut holder = client::Client::new(&addr);
        assert!(holder.healthy());
        // The next connection is accepted, told 503, and closed.
        let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 503);
        let stats = server.connection_stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(server.rejected_connections(), 1);
        // The held connection is unaffected.
        assert!(holder.healthy());
        drop(holder);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn body_parse_errors_keep_the_connection_alive() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        let mut c = client::Client::new(&addr);
        // Bad JSON poisons the request, not the connection: the body
        // framing was intact, so the next request still works.
        let resp = c.request("POST", "/jobs", Some("{broken")).unwrap();
        assert_eq!(resp.status, 400);
        assert!(c.healthy());
        let stats = server.connection_stats();
        assert_eq!(stats.accepted, 1);
        assert!(stats.parse_errors >= 1);
        drop(c);
        server.shutdown();
        service.shutdown();
    }

    /// Full cycle (submit → wait → results → stats → metrics): the
    /// status reports a per-stage breakdown, `/metrics` is well-formed
    /// Prometheus text, and its counters agree with `/stats`.
    #[test]
    fn metrics_expose_prometheus_text_that_agrees_with_stats() {
        let service = tiny_service();
        let mut server = bind(&service);
        let addr = server.local_addr().to_string();
        let mut c = client::Client::new(&addr);
        let body = r#"{"campaign": {"name": "obs", "population": 6, "generations": 1,
                                    "search_radius": 3.0, "top_k": 2},
                       "receptor": {"synth": {"seed": 3, "atoms": 30, "radius": 5.0}},
                       "ligands": {"synth": {"seed": 7, "count": 2}}}"#;
        let resp = c
            .request("POST", "/jobs", Some(body))
            .unwrap()
            .ok()
            .unwrap();
        let id = match wire::parse(&resp.body).unwrap().get("id") {
            Some(Json::Num(n)) => n.as_u64().unwrap(),
            other => panic!("no id in submit response: {other:?}"),
        };
        let status = c.wait(id, Duration::from_millis(20)).unwrap();
        assert_eq!(status.state, JobState::Completed);
        let stages = status.stages.expect("status carries stage timings");
        assert!(stages.queue_wait_ns.is_some(), "queue wait unstamped");
        assert!(stages.grid_ns.is_some() && stages.grid_source.is_some());
        assert!(stages.dock_ns.is_some() && stages.dock_chunks >= 1);
        assert!(stages.total_ns.is_some(), "terminal stamp missing");
        assert!(!c.results(id).unwrap().is_empty());

        let stats_body = c.request("GET", "/stats", None).unwrap().ok().unwrap().body;
        let stats = wire::parse(&stats_body).unwrap();
        let stats_requests = match stats.get("connections").and_then(|c| c.get("requests")) {
            Some(Json::Num(n)) => n.as_u64().unwrap(),
            other => panic!("no request count in /stats: {other:?}"),
        };

        let metrics = c
            .request("GET", "/metrics", None)
            .unwrap()
            .ok()
            .unwrap()
            .body;
        // Every line must be a HELP/TYPE comment or `series value`
        // with a numeric value — the Prometheus text contract.
        for line in metrics.lines().filter(|l| !l.is_empty()) {
            if let Some(comment) = line.strip_prefix('#') {
                assert!(
                    comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("sample without value: {line}"));
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "bad series name: {line}"
            );
        }
        for needle in [
            "mudock_requests_total ",
            "mudock_jobs_total{event=\"submitted\"} 1\n",
            "mudock_jobs_total{event=\"completed\"} 1\n",
            "mudock_job_stage_seconds_count{stage=\"total\"} 1\n",
            "mudock_job_stage_seconds_bucket{stage=\"dock\"",
            "mudock_request_seconds_count ",
            "mudock_reactor_wait_seconds_count ",
            "mudock_connections_accepted_total 1\n",
        ] {
            assert!(metrics.contains(needle), "missing series {needle:?}");
        }
        // Requests counted on the wire and in the registry are the same
        // atomics. The counter ticks *after* a route runs, so the
        // /metrics render sees exactly one more request (the /stats
        // call) than the /stats body reported.
        let requests_line = metrics
            .lines()
            .find(|l| l.starts_with("mudock_requests_total "))
            .expect("requests series");
        let metrics_requests: u64 = requests_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(metrics_requests, stats_requests + 1);
        drop(c);
        server.shutdown();
        service.shutdown();
    }

    /// Sum every `name{loop="i"}` sample and read the unlabelled
    /// `name` total from a Prometheus render.
    fn loop_sum_and_total(metrics: &str, name: &str) -> (i64, i64, usize) {
        let mut sum = 0i64;
        let mut loops_hit = 0usize;
        let mut total = 0i64;
        for line in metrics.lines() {
            if let Some(rest) = line.strip_prefix(name) {
                if let Some(value) = rest.strip_prefix(' ') {
                    total = value.trim().parse::<f64>().unwrap() as i64;
                } else if rest.starts_with("{loop=") {
                    let value = rest.rsplit(' ').next().unwrap();
                    let v = value.trim().parse::<f64>().unwrap() as i64;
                    sum += v;
                    loops_hit += usize::from(v > 0);
                }
            }
        }
        (sum, total, loops_hit)
    }

    /// The tentpole invariants: with four loops, connections spread
    /// across them (REUSEPORT hashing on Linux, round-robin handoff
    /// elsewhere), every connection still gets correct answers, and the
    /// per-loop labelled series sum to the unlabelled totals.
    #[test]
    fn four_loops_spread_connections_and_aggregate_metrics() {
        let service = tiny_service();
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                event_loops: 4,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // Enough connections that all of them landing on one loop is
        // (astronomically) improbable under REUSEPORT hashing, and
        // impossible under round-robin.
        let mut herd: Vec<client::Client> = (0..24).map(|_| client::Client::new(&addr)).collect();
        for c in &mut herd {
            assert!(c.healthy(), "connection unanswered under 4 loops");
        }
        let stats = server.connection_stats();
        assert_eq!(stats.accepted, 24);
        assert_eq!(stats.open, 24);
        assert_eq!(stats.shed, 0);

        let metrics = herd[0]
            .request("GET", "/metrics", None)
            .unwrap()
            .ok()
            .unwrap()
            .body;
        for name in [
            "mudock_connections_accepted_total",
            "mudock_connections_open",
            "mudock_requests_total",
        ] {
            let (sum, total, loops_hit) = loop_sum_and_total(&metrics, name);
            assert_eq!(sum, total, "per-loop {name} series do not sum to the total");
            assert!(
                loops_hit >= 2,
                "{name}: all traffic landed on one loop ({loops_hit} loops hit)"
            );
        }
        drop(herd);
        server.shutdown();
        service.shutdown();
    }

    /// A response that can never flush (the route is fine; the *peer*
    /// never reads and keeps the connection busy) is bounded by the
    /// request-level deadline even though every per-phase deadline
    /// keeps being met.
    #[test]
    fn request_deadline_reaps_a_wedged_request() {
        let service = tiny_service();
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                request_timeout: Duration::from_millis(300),
                // Per-phase clocks far beyond the request bound: only
                // the end-to-end deadline can fire in this test.
                idle_timeout: Duration::from_secs(3600),
                header_timeout: Duration::from_secs(3600),
                body_timeout: Duration::from_secs(3600),
                write_timeout: Duration::from_secs(3600),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut raw = TcpStream::connect(addr).unwrap();
        // A started-but-never-finished request: the header phase alone
        // would allow it for an hour, the request deadline does not.
        raw.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 64];
        let t0 = Instant::now();
        // EOF (Ok(0)) once the server reaps the connection.
        loop {
            match raw.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("expected server-side close, got {e}"),
            }
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(250),
            "closed before the request deadline: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "request deadline never fired: {elapsed:?}"
        );
        server.shutdown();
        service.shutdown();
    }

    /// `GET /jobs/{id}` polled while jobs finish: every terminal state it
    /// reports must carry the outcome. A handler reading state and outcome
    /// under two lock acquisitions fails this: a `finish` between them
    /// yields `completed` with no outcome.
    #[test]
    fn status_polled_while_jobs_finish_never_lacks_the_outcome() {
        use crate::job::{JobOutcome, JobShared};
        use std::hint::spin_loop;
        for id in 0..2000 {
            let shared = JobShared::new(id);
            shared.set_running();
            let job = NetJob {
                handle: JobHandle {
                    shared: Arc::clone(&shared),
                },
                name: "race".into(),
                results: PathBuf::new(),
            };
            let go = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !go.load(Ordering::SeqCst) {
                        spin_loop();
                    }
                    // Sweep the finish instant across the poll loop.
                    for _ in 0..(id % 64) * 8 {
                        spin_loop();
                    }
                    shared.finish(JobOutcome {
                        id,
                        name: "race".into(),
                        state: JobState::Completed,
                        ligands_done: 1,
                        chunks_done: 1,
                        replayed_chunks: 0,
                        grid_cache_hit: false,
                        stopped_early: false,
                        top: Vec::new(),
                        elapsed: Duration::from_millis(1),
                        error: None,
                    });
                });
                go.store(true, Ordering::SeqCst);
                loop {
                    let status = wire::status_from_json(&status_json(&job, id)).unwrap();
                    if status.is_terminal() {
                        assert!(status.outcome.is_some(), "job {id}: terminal, no outcome");
                        break;
                    }
                    assert!(status.outcome.is_none(), "job {id}: outcome while running");
                }
            });
        }
    }
}
