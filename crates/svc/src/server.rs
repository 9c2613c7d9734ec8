//! Unix-domain-socket front end for the scheduler, plus a blocking
//! client.
//!
//! [`serve`] runs the nonblocking [`crate::reactor`]: one thread
//! multiplexes every connection, `Wait` requests park instead of
//! pinning a thread, and pipelined frames are first-class. Parked
//! requests are completion-driven: the scheduler wakes the reactor
//! each time it publishes a result, so a parked `Wait` is answered
//! then, with no timed re-check. A `Shutdown` request parks until the
//! scheduler drains, then stops the loop.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::job::{JobSpec, TraceCtx};
use crate::proto::{BackendsReport, Request, Response};
use crate::reactor::{Action, Handler, Reactor, Resolution, Token};
use crate::scheduler::{HealthReport, Scheduler, SvcStats, SvcStatsExt};
use crate::telemetry::{AlertReport, ProfileReport, SeriesReport, TraceReport};
use crate::wire::{read_frame, write_frame};
use crate::JobResult;

/// Removes the socket file when the server exits, on *every* path out
/// of [`serve`] — normal shutdown, accept errors, panics. Before this
/// guard existed a crashed server left a stale socket behind, and the
/// next start papered over it by unconditionally unlinking (which would
/// also tear the socket out from under a *live* server).
///
/// Public so other daemons speaking this protocol (`wabench-router`)
/// get identical socket hygiene.
pub struct SocketGuard(PathBuf);

impl SocketGuard {
    /// Guards `path`: it is unlinked when the guard drops.
    pub fn new(path: &Path) -> SocketGuard {
        SocketGuard(PathBuf::from(path))
    }
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Binds a listener at `path`, handling leftover socket files safely:
/// if a file is already there, probe it with a connect — a live server
/// answers and we refuse to usurp it (`AddrInUse`); a dead one (stale
/// socket from a crashed server) gets unlinked and the bind retried.
///
/// # Errors
///
/// I/O errors binding, including `AddrInUse` for a live socket.
pub fn bind_socket(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a server is already listening on {}", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

/// Serves `sched` on a Unix socket at `path` until a client sends
/// `Shutdown`, multiplexing every connection on one thread with the
/// nonblocking [`crate::reactor`], which the scheduler wakes on every
/// job completion. A stale socket file at `path` (no
/// listener behind it) is replaced; a live one makes the bind fail with
/// `AddrInUse`. The socket file is removed on every exit path,
/// including errors.
///
/// # Errors
///
/// I/O errors binding or polling the socket, including `AddrInUse`
/// when another server already owns `path`.
pub fn serve(path: &Path, sched: Arc<Scheduler>) -> io::Result<()> {
    let listener = bind_socket(path)?;
    let _guard = SocketGuard(PathBuf::from(path));
    let reactor = Reactor::new()?;
    let waker = reactor.waker();
    sched.on_complete(move || waker.wake());
    let mut handler = SchedHandler {
        sched,
        waits: Vec::new(),
        shutdowns: Vec::new(),
        parked: obs::metrics::gauge("svc.wait.parked"),
    };
    reactor.run(&listener, &mut handler)
}

/// Adapts the [`Scheduler`] to the reactor's [`Handler`] contract.
///
/// Everything except `Wait` and `Shutdown` answers synchronously (the
/// scheduler's query paths are lock-bounded, never job-bounded).
/// `Wait` parks until the job's result is claimable; `Shutdown` parks
/// until the scheduler drains, then resolves to `Bye` and stops the
/// reactor. Both are resolved from [`Handler::tick`], which runs when
/// the scheduler's completion wake arrives.
struct SchedHandler {
    sched: Arc<Scheduler>,
    /// Parked `Wait`s: (response slot, job id).
    waits: Vec<(Token, u64)>,
    /// Parked `Shutdown`s, resolved together once the scheduler is
    /// idle. More than one is possible (two clients racing to stop the
    /// server); each gets its `Bye`.
    shutdowns: Vec<Token>,
    /// Gauge `svc.wait.parked`: currently parked `Wait` requests.
    parked: Arc<obs::metrics::Gauge>,
}

impl Handler for SchedHandler {
    fn handle(&mut self, token: Token, payload: &[u8]) -> Action {
        let sched = &self.sched;
        let response = match Request::decode(payload) {
            Err(e) => Response::Err(e.to_string()),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Submit(spec, ctx)) => Response::Submitted(sched.submit_traced(spec, ctx)),
            Ok(Request::Poll(id)) => match sched.poll(id) {
                Some(res) => Response::Result(res),
                None => Response::Pending,
            },
            Ok(Request::Wait(id)) => match sched.try_take(id) {
                Some(res) => Response::Result(res),
                None => {
                    self.waits.push((token, id));
                    self.parked.set(self.waits.len() as u64);
                    return Action::Park;
                }
            },
            Ok(Request::Stats) => Response::Stats(sched.stats()),
            Ok(Request::StatsExt) => Response::StatsExt(Box::new(sched.stats_ext())),
            Ok(Request::Health) => Response::Health(sched.health()),
            Ok(Request::Series(since)) => Response::Series(sched.series_since(since)),
            Ok(Request::TraceDump) => Response::TraceDump(sched.trace_dump()),
            Ok(Request::ProfileDump) => Response::ProfileDump(sched.profile_dump()),
            Ok(Request::AlertLog) => Response::AlertLog(sched.alert_log()),
            Ok(Request::Backends) => Response::Err(
                "backends: this server is a single shard, not a router; \
                 see docs/DEPLOYMENT.md"
                    .to_string(),
            ),
            Ok(Request::Shutdown) => {
                if sched.idle() {
                    return Action::Bye(Response::Bye.encode());
                }
                self.shutdowns.push(token);
                return Action::Park;
            }
        };
        Action::Respond(response.encode())
    }

    fn tick(&mut self, done: &mut Vec<(Token, Resolution)>) {
        let sched = &self.sched;
        self.waits.retain(|(token, id)| match sched.try_take(*id) {
            Some(res) => {
                done.push((*token, Resolution::Respond(Response::Result(res).encode())));
                false
            }
            None => true,
        });
        self.parked.set(self.waits.len() as u64);
        if !self.shutdowns.is_empty() && sched.idle() {
            for token in self.shutdowns.drain(..) {
                done.push((token, Resolution::Bye(Response::Bye.encode())));
            }
        }
    }

    fn conn_closed(&mut self, conn: u64) {
        self.waits.retain(|(token, _)| token.conn != conn);
        self.shutdowns.retain(|token| token.conn != conn);
    }
}

/// Outcome of a submit against a server that may shed load
/// (protocol v9): a router under admission control answers `Busy`
/// instead of accepting the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// The job was accepted; carry this id to `wait`/`poll`.
    Accepted(u64),
    /// The server shed the job; retry no sooner than the hinted
    /// backoff.
    Busy {
        /// Server's suggested retry delay, milliseconds.
        retry_after_ms: u32,
    },
}

/// A blocking protocol client.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// I/O errors connecting to the socket.
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
        })
    }

    /// Sends one request, reads one response.
    ///
    /// # Errors
    ///
    /// I/O errors, a malformed response, or server-side `Err`.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))?;
        let resp = Response::decode(&payload)?;
        if let Response::Err(msg) = &resp {
            return Err(io::Error::other(format!("server error: {msg}")));
        }
        Ok(resp)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits an untraced job, returning its id.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn submit(&mut self, spec: JobSpec) -> io::Result<u64> {
        self.submit_traced(spec, TraceCtx::default())
    }

    /// Submits a job carrying a client trace context (protocol v7),
    /// returning its id. An untraced (default) context encodes exactly
    /// like a v6 submit, so this also works against older servers.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn submit_traced(&mut self, spec: JobSpec, ctx: TraceCtx) -> io::Result<u64> {
        match self.request(&Request::Submit(spec, ctx))? {
            Response::Submitted(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a traced job against a server that may shed load
    /// (protocol v9). A `Busy` answer is a *successful* exchange — the
    /// job was refused, not lost in transit — so it comes back as
    /// [`Submission::Busy`] rather than an error. Single-shard servers
    /// never answer `Busy`.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn try_submit_traced(&mut self, spec: JobSpec, ctx: TraceCtx) -> io::Result<Submission> {
        match self.request(&Request::Submit(spec, ctx))? {
            Response::Submitted(id) => Ok(Submission::Accepted(id)),
            Response::Busy(retry_after_ms) => Ok(Submission::Busy { retry_after_ms }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the router's per-backend routing table (protocol v9).
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; single-shard servers answer `Err`.
    pub fn backends(&mut self) -> io::Result<BackendsReport> {
        match self.request(&Request::Backends)? {
            Response::Backends(b) => Ok(b),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until job `id` finishes; returns its result.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn wait(&mut self, id: u64) -> io::Result<JobResult> {
        match self.request(&Request::Wait(id))? {
            Response::Result(res) => Ok(res),
            other => Err(unexpected(&other)),
        }
    }

    /// Non-blocking result query.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn poll(&mut self, id: u64) -> io::Result<Option<JobResult>> {
        match self.request(&Request::Poll(id))? {
            Response::Result(res) => Ok(Some(res)),
            Response::Pending => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches service statistics.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn stats(&mut self) -> io::Result<SvcStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches extended statistics (protocol v2: queue depth, worker
    /// utilization, latency histograms).
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v2 servers answer `Err`.
    pub fn stats_ext(&mut self) -> io::Result<SvcStatsExt> {
        match self.request(&Request::StatsExt)? {
            Response::StatsExt(s) => Ok(*s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the resilience health report (protocol v4: retry /
    /// fallback / repair counters, circuit-breaker states, active
    /// fault-injection sites).
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v4 servers answer `Err`.
    pub fn health(&mut self) -> io::Result<HealthReport> {
        match self.request(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the live telemetry sample window (protocol v7). Empty
    /// when the server runs without a sampler.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v7 servers answer `Err`.
    pub fn series(&mut self) -> io::Result<SeriesReport> {
        self.series_since(None)
    }

    /// Fetches the sample window after the `since` cursor (protocol
    /// v8): only points with a greater seq come back. `None` fetches
    /// the whole window and encodes exactly like a v7 request, so it
    /// also works against v7 servers (which ignore no cursor — a
    /// cursored request to a v7 server fails to decode there).
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v7 servers answer `Err`.
    pub fn series_since(&mut self, since: Option<u64>) -> io::Result<SeriesReport> {
        match self.request(&Request::Series(since))? {
            Response::Series(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the continuous profiler's retained windows (protocol
    /// v8). `window_ns == 0` means the profiler is off.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v8 servers answer `Err`.
    pub fn profile_dump(&mut self) -> io::Result<ProfileReport> {
        match self.request(&Request::ProfileDump)? {
            Response::ProfileDump(p) => Ok(p),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the alert engine's firing set and transition log
    /// (protocol v8), pumping pending observations through the rules
    /// server-side first.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v8 servers answer `Err`.
    pub fn alert_log(&mut self) -> io::Result<AlertReport> {
        match self.request(&Request::AlertLog)? {
            Response::AlertLog(a) => Ok(a),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches recent and slow-request server span digests for
    /// client-side stitching (protocol v7).
    ///
    /// # Errors
    ///
    /// I/O or protocol errors; pre-v7 servers answer `Err`.
    pub fn trace_dump(&mut self) -> io::Result<TraceReport> {
        match self.request(&Request::TraceDump)? {
            Response::TraceDump(t) => Ok(t),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response {resp:?}"),
    )
}
