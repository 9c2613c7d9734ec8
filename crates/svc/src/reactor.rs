//! A single-threaded nonblocking event loop over a Unix-domain
//! listener.
//!
//! The reactor multiplexes every connection on one thread with
//! `poll(2)`: per-connection read buffers make **pipelining**
//! first-class (a client may write many frames back-to-back and read
//! the responses later; partial frames are reassembled across reads),
//! and per-connection write buffers absorb slow readers without
//! blocking the loop.
//!
//! The loop is deliberately protocol-agnostic: a [`Handler`] decodes
//! payloads and produces responses, so both `wabench-served` (scheduler
//! front end) and `wabench-router` (shard multiplexer) run on the same
//! reactor. Responses stay **in request order per connection** — the
//! wire contract ("one response per request, in order") is enforced
//! here with ordered response slots, not left to handlers: a handler
//! may *park* a request (e.g. `Wait` for an unfinished job) and resolve
//! it later from [`Handler::tick`]; frames queued behind the parked
//! slot are held until it fills.
//!
//! [`Handler::tick`] runs after every poll. Another thread gets it run
//! at once with a [`Waker`], which writes to a socket pair polled next
//! to the connections: `wabench-served` wakes the loop on each job
//! completion instead of re-checking parked `Wait`s on a timer.
//!
//! No epoll and no external crates: `poll(2)` is declared directly
//! (the workspace builds offline and deliberately avoids a libc
//! dependency), and the fd sets here are small enough that O(n) scans
//! are irrelevant next to job execution times.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;

use crate::wire::MAX_FRAME;

/// `struct pollfd` from `<poll.h>`; layout is identical on every
/// platform this workspace targets (Linux/macOS).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Blocks until any registered fd is ready or the timeout elapses,
/// retrying on EINTR.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // correctly laid-out `pollfd` records for the whole call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Identifies one in-order response slot: the `slot`-th request ever
/// received on connection `conn`. Handlers hand tokens back when they
/// resolve parked requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    /// Reactor-assigned connection id (stable for the connection's
    /// lifetime, never reused within a run).
    pub conn: u64,
    /// Per-connection request sequence number.
    pub slot: u64,
}

/// What a handler does with one decoded request payload.
pub enum Action {
    /// Answer immediately with this frame payload.
    Respond(Vec<u8>),
    /// No answer yet; the handler will resolve the token from a later
    /// [`Handler::tick`]. Responses to later requests on the same
    /// connection are held behind the parked slot.
    Park,
    /// Answer with this frame payload, then shut the reactor down once
    /// every connection's pending responses are flushed.
    Bye(Vec<u8>),
}

/// One resolved parked request, produced by [`Handler::tick`].
pub enum Resolution {
    /// The response frame payload.
    Respond(Vec<u8>),
    /// The response frame payload, plus a shutdown of the reactor after
    /// all write buffers flush (used for drain-then-stop semantics).
    Bye(Vec<u8>),
}

/// Protocol logic plugged into the reactor. All methods run on the
/// reactor thread and must not block.
pub trait Handler {
    /// Process one complete frame payload from `token.conn`.
    fn handle(&mut self, token: Token, payload: &[u8]) -> Action;

    /// Called once per loop iteration: resolve any parked requests that
    /// have become answerable by pushing `(token, resolution)` pairs.
    fn tick(&mut self, done: &mut Vec<(Token, Resolution)>);

    /// The connection is gone (EOF or error); drop any parked state for
    /// it. Resolutions for its tokens are silently discarded.
    fn conn_closed(&mut self, conn: u64);

    /// Whether parked work needs a periodic re-check (a 2 ms poll tick)
    /// because nothing can wake the loop when it resolves. Only the
    /// router, whose parked `Wait`s poll backends, says yes.
    fn parked(&self) -> bool {
        false
    }
}

/// Both ends of the wake channel, a nonblocking socket pair. Wakers
/// keep the read end open, so a late wake never hits a closed peer.
#[derive(Debug)]
struct WakeChannel {
    rx: UnixStream,
    tx: UnixStream,
}

/// Wakes a [`Reactor`] from any thread so it runs [`Handler::tick`]
/// promptly. Cheap to clone.
#[derive(Clone, Debug)]
pub struct Waker(Arc<WakeChannel>);

impl Waker {
    /// Makes the reactor's current or next poll return. The read end is
    /// level-triggered, so a wake written after the handler's state
    /// changed is never lost. `WouldBlock` (a full buffer) is ignored:
    /// a wake is already pending.
    pub fn wake(&self) {
        let _ = (&self.0.tx).write(&[1]);
    }
}

struct Conn {
    id: u64,
    stream: UnixStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// In-order response slots, front = oldest pending request.
    /// `Some(frame)` is ready to flush; `None` is parked.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Slot id of `slots.front()`.
    head_slot: u64,
    /// Slot id handed to the next incoming request.
    next_slot: u64,
    /// Read side saw EOF (flush what's pending, then drop).
    eof: bool,
    /// A read, write or poll error; dropped without flushing.
    dead: bool,
}

impl Conn {
    /// Fills the slot a resolution addresses; ignores slots already
    /// flushed (can happen if a handler double-resolves).
    fn fill(&mut self, slot: u64, frame: Vec<u8>) {
        if slot < self.head_slot {
            return;
        }
        let idx = (slot - self.head_slot) as usize;
        if let Some(entry) = self.slots.get_mut(idx) {
            *entry = Some(frame);
        }
    }

    /// Moves every leading ready slot into the write buffer, preserving
    /// request order.
    fn flush_ready(&mut self) {
        while matches!(self.slots.front(), Some(Some(_))) {
            let frame = self.slots.pop_front().flatten().expect("ready slot");
            self.wbuf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            self.wbuf.extend_from_slice(&frame);
            self.head_slot += 1;
        }
    }

    /// A connection is finished when its read side is closed and
    /// nothing remains to write.
    fn finished(&self) -> bool {
        self.eof && self.wbuf.is_empty()
    }
}

/// The event loop, with the wake channel it polls.
#[derive(Debug)]
pub struct Reactor {
    waker: Waker,
}

impl Reactor {
    /// Creates the reactor and its wake channel.
    ///
    /// # Errors
    ///
    /// I/O errors creating or configuring the socket pair.
    pub fn new() -> io::Result<Reactor> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Reactor {
            waker: Waker(Arc::new(WakeChannel { rx, tx })),
        })
    }

    /// A handle other threads use to wake this reactor.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Runs the event loop on an already-bound listener until a handler
    /// returns [`Action::Bye`] / [`Resolution::Bye`] and all responses are
    /// flushed.
    ///
    /// # Errors
    ///
    /// Fatal I/O errors on the listener or `poll(2)` itself. Per-connection
    /// errors (resets, oversized frames) just drop that connection.
    pub fn run(&self, listener: &UnixListener, handler: &mut dyn Handler) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut conns: Vec<Conn> = Vec::new();
        let mut next_conn_id: u64 = 0;
        let mut draining = false;
        let mut done: Vec<(Token, Resolution)> = Vec::new();
        let accepted = obs::metrics::counter("svc.conn.accepted");
        let pipelined = obs::metrics::counter("svc.frames.pipelined");

        loop {
            // 1. Give parked requests a chance to resolve.
            done.clear();
            handler.tick(&mut done);
            for (token, res) in done.drain(..) {
                let frame = match res {
                    Resolution::Respond(f) => f,
                    Resolution::Bye(f) => {
                        draining = true;
                        f
                    }
                };
                if let Some(conn) = conns.iter_mut().find(|c| c.id == token.conn) {
                    conn.fill(token.slot, frame);
                    conn.flush_ready();
                }
            }

            // 2. Write every ready frame, then reap. This is the only
            // write path (POLLOUT just wakes the poll below) and the only
            // place connections are dropped.
            let mut i = 0;
            while i < conns.len() {
                let conn = &mut conns[i];
                if !conn.dead && !conn.wbuf.is_empty() {
                    if let Err(e) = write_some(conn) {
                        conn.dead = e.kind() != io::ErrorKind::WouldBlock;
                    }
                }
                if conn.dead || conn.finished() {
                    let id = conn.id;
                    conns.swap_remove(i);
                    handler.conn_closed(id);
                    continue;
                }
                i += 1;
            }

            // 3. Draining and everything flushed: stop.
            if draining && conns.iter().all(|c| c.wbuf.is_empty()) {
                return Ok(());
            }

            // 4. Wait for readiness of a socket or the wake channel. Only
            // a handler that asks for re-checks gets a short tick.
            let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 2);
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: if draining { 0 } else { POLLIN },
                revents: 0,
            });
            fds.push(PollFd {
                fd: self.waker.0.rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for conn in &conns {
                let mut events = 0i16;
                if !conn.eof && !draining {
                    events |= POLLIN;
                }
                if !conn.wbuf.is_empty() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            let timeout_ms = if handler.parked() { 2 } else { 250 };
            poll_fds(&mut fds, timeout_ms)?;
            if fds[1].revents != 0 {
                // Drain every pending wake; the tick at the top of the
                // loop then sees whatever state the wakers published.
                let mut buf = [0u8; 64];
                while matches!((&self.waker.0.rx).read(&mut buf), Ok(n) if n > 0) {}
            }

            // 5. Accept every pending connection.
            if fds[0].revents & (POLLIN | POLLERR) != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(true)?;
                            accepted.inc();
                            conns.push(Conn {
                                id: next_conn_id,
                                stream,
                                rbuf: Vec::new(),
                                wbuf: Vec::new(),
                                slots: VecDeque::new(),
                                head_slot: 0,
                                next_slot: 0,
                                eof: false,
                                dead: false,
                            });
                            next_conn_id += 1;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                }
            }

            // 6. Service ready connections (fds[i+2] maps to conns[i] —
            // both were frozen together above; step 2 reaps the dead).
            for (fd, conn) in fds[2..].iter().zip(conns.iter_mut()) {
                if fd.revents & (POLLERR | POLLNVAL) != 0 {
                    conn.dead = true;
                } else if fd.revents & (POLLIN | POLLHUP) != 0 && !conn.eof {
                    match read_and_dispatch(conn, handler, &pipelined) {
                        Ok(keep) => draining |= !keep,
                        Err(_) => conn.dead = true,
                    }
                }
            }
        }
    }
}

/// Drains the socket into the connection's read buffer, carves out
/// every complete frame, and dispatches each to the handler. Returns
/// `Ok(false)` when a handler answered [`Action::Bye`].
///
/// # Errors
///
/// Read errors, oversized frames, or a frame length lying beyond
/// `MAX_FRAME` — all of which drop the connection.
fn read_and_dispatch(
    conn: &mut Conn,
    handler: &mut dyn Handler,
    pipelined: &obs::metrics::Counter,
) -> io::Result<bool> {
    let mut keep = true;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    // Extract complete frames; anything partial waits for the next
    // readiness event. More than one frame per pass is a pipelined
    // batch.
    let mut frames_this_pass = 0u64;
    while conn.rbuf.len() >= 4 {
        let len = u32::from_le_bytes(conn.rbuf[..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME",
            ));
        }
        if conn.rbuf.len() < 4 + len {
            break;
        }
        let payload: Vec<u8> = conn.rbuf[4..4 + len].to_vec();
        conn.rbuf.drain(..4 + len);
        frames_this_pass += 1;
        let token = Token {
            conn: conn.id,
            slot: conn.next_slot,
        };
        conn.next_slot += 1;
        match handler.handle(token, &payload) {
            Action::Respond(frame) => conn.slots.push_back(Some(frame)),
            Action::Park => conn.slots.push_back(None),
            Action::Bye(frame) => {
                conn.slots.push_back(Some(frame));
                keep = false;
            }
        }
    }
    if frames_this_pass > 1 {
        pipelined.add(frames_this_pass - 1);
    }
    conn.flush_ready();
    Ok(keep)
}

/// Writes as much buffered response data as the socket accepts.
///
/// # Errors
///
/// `WouldBlock` when the socket is full (retry on POLLOUT); anything
/// else is fatal for the connection.
fn write_some(conn: &mut Conn) -> io::Result<()> {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
