//! Reactor front-end behavior a thread-per-connection server never had
//! to get right: pipelined frames (many requests in one write),
//! partial-frame reassembly across writes, strict in-order replies
//! even when an earlier request parks (`Wait`) while a later one could
//! answer immediately, and parked requests answered as soon as another
//! thread wakes the reactor rather than at its idle timeout.

#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use svc::job::{JobSpec, Scale};
use svc::proto::{Request, Response};
use svc::reactor::{Action, Handler, Reactor, Resolution, Token};
use svc::scheduler::{Config, Scheduler};
use svc::server::{serve, Client};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wabench-reactor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn start_server(socket: &Path, workers: usize) -> std::thread::JoinHandle<std::io::Result<()>> {
    start_server_with(
        socket,
        Config {
            workers,
            ..Config::default()
        },
    )
}

fn start_server_with(socket: &Path, cfg: Config) -> std::thread::JoinHandle<std::io::Result<()>> {
    let sched = Arc::new(Scheduler::start(cfg).expect("start scheduler"));
    let path = socket.to_path_buf();
    let handle = std::thread::spawn(move || serve(&path, sched));
    for _ in 0..400 {
        if let Ok(mut c) = Client::connect(socket) {
            if c.ping().is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle
}

/// Length-prefixes a request payload into one wire frame.
fn frame(req: &Request) -> Vec<u8> {
    let payload = req.encode();
    let mut f = Vec::with_capacity(4 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&payload);
    f
}

/// Reads exactly one response frame off a raw stream.
fn read_response(stream: &mut UnixStream) -> Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    Response::decode(&payload).expect("decode response")
}

fn shutdown(socket: &Path, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut c = Client::connect(socket).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("serve");
}

#[test]
fn pipelined_requests_in_one_write_get_ordered_replies() {
    let dir = tmp_dir("pipeline");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    // Two Pings and a Stats in a single write: a blocking
    // read_frame/handle/write_frame loop would also survive this, but
    // only because the socket buffered it — the reactor must carve all
    // three out of one readiness event and answer in order.
    let mut batch = frame(&Request::Ping);
    batch.extend_from_slice(&frame(&Request::Stats));
    batch.extend_from_slice(&frame(&Request::Ping));
    stream.write_all(&batch).expect("pipelined write");

    assert!(matches!(read_response(&mut stream), Response::Pong));
    assert!(matches!(read_response(&mut stream), Response::Stats(_)));
    assert!(matches!(read_response(&mut stream), Response::Pong));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_frames_reassemble_across_writes() {
    let dir = tmp_dir("partial");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let ping = frame(&Request::Ping);
    let stats = frame(&Request::Stats);

    // Dribble the first frame byte-by-byte: the reactor sees many
    // readiness events, none containing a complete frame until the
    // last.
    for b in &ping[..ping.len() - 1] {
        stream.write_all(&[*b]).expect("dribble");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Finish frame one and immediately start frame two, splitting it
    // mid-length-prefix — the nastiest boundary.
    let mut tail = vec![ping[ping.len() - 1]];
    tail.extend_from_slice(&stats[..2]);
    stream.write_all(&tail).expect("tail + partial prefix");
    std::thread::sleep(Duration::from_millis(10));
    stream.write_all(&stats[2..]).expect("rest of second frame");

    assert!(matches!(read_response(&mut stream), Response::Pong));
    assert!(matches!(read_response(&mut stream), Response::Stats(_)));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parked_wait_holds_later_replies_in_order() {
    let dir = tmp_dir("ordered");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 2);

    let spec = JobSpec::exec(
        "crc32",
        engines::EngineKind::Wasm3,
        wacc::OptLevel::O0,
        Scale::Test,
    );
    let mut stream = UnixStream::connect(&socket).expect("connect");
    // Submit, then pipeline Wait(id)+Ping before the job can possibly
    // finish... except we don't know the id until Submitted comes back,
    // so submit first, read the id, then pipeline Wait + Ping in one
    // write. The Wait parks (or resolves) server-side; the Pong must
    // not overtake the Result.
    stream
        .write_all(&frame(&Request::Submit(spec, Default::default())))
        .expect("submit");
    let id = match read_response(&mut stream) {
        Response::Submitted(id) => id,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let mut batch = frame(&Request::Wait(id));
    batch.extend_from_slice(&frame(&Request::Ping));
    stream.write_all(&batch).expect("wait + ping");

    match read_response(&mut stream) {
        Response::Result(res) => assert_eq!(res.id, id),
        other => panic!("Result must come before Pong, got {other:?}"),
    }
    assert!(matches!(read_response(&mut stream), Response::Pong));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An oversized length prefix must drop the connection, not hang it or
/// take the server down.
#[test]
fn oversized_frame_drops_only_that_connection() {
    let dir = tmp_dir("oversized");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut bad = UnixStream::connect(&socket).expect("connect");
    bad.write_all(&(u32::MAX).to_le_bytes()).expect("bad prefix");
    let mut buf = [0u8; 1];
    // The server closes on us: read returns Ok(0) (EOF).
    bad.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    assert_eq!(bad.read(&mut buf).expect("read after bad frame"), 0);

    // The server itself is still healthy.
    let mut c = Client::connect(&socket).expect("connect after bad conn");
    c.ping().expect("ping after bad conn");
    drop(c);

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parks every request but `Shutdown` and answers it (`Pong`) only
/// from `tick`, once `ready` is set; until then each `tick` that finds
/// a parked request reports on `checked`. It never asks for a periodic
/// re-check, so only a [`svc::reactor::Waker`] gets `tick` to run
/// before the reactor's 250 ms idle timeout.
struct WakeHandler {
    ready: Arc<AtomicBool>,
    checked: mpsc::Sender<()>,
    parked: Vec<Token>,
}

impl Handler for WakeHandler {
    fn handle(&mut self, token: Token, payload: &[u8]) -> Action {
        if matches!(Request::decode(payload), Ok(Request::Shutdown)) {
            return Action::Bye(Response::Bye.encode());
        }
        self.parked.push(token);
        Action::Park
    }

    fn tick(&mut self, done: &mut Vec<(Token, Resolution)>) {
        if self.ready.load(Ordering::SeqCst) {
            for token in self.parked.drain(..) {
                done.push((token, Resolution::Respond(Response::Pong.encode())));
            }
        } else if !self.parked.is_empty() {
            let _ = self.checked.send(());
        }
    }

    fn conn_closed(&mut self, conn: u64) {
        self.parked.retain(|t| t.conn != conn);
    }
}

/// A wake from another thread runs `tick` at once: the parked reply
/// arrives well inside the idle timeout, and not before the wake even
/// though the handler is ready.
#[test]
fn waker_resolves_parked_request_before_idle_timeout() {
    let dir = tmp_dir("waker");
    let socket = dir.join("wake.sock");
    let listener = UnixListener::bind(&socket).expect("bind");
    let reactor = Reactor::new().expect("reactor");
    let waker = reactor.waker();
    let ready = Arc::new(AtomicBool::new(false));
    let (checked, checked_rx) = mpsc::channel();
    let mut handler = WakeHandler {
        ready: Arc::clone(&ready),
        checked,
        parked: Vec::new(),
    };
    let server = std::thread::spawn(move || reactor.run(&listener, &mut handler));

    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(&frame(&Request::Ping)).expect("parked request");
    // Once a tick has found the request parked and not ready, the
    // reactor goes back to sleep in poll.
    checked_rx.recv().expect("parked request checked");
    ready.store(true, Ordering::SeqCst);
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
    let early = stream.read(&mut [0u8; 1]);
    assert!(early.is_err(), "reply arrived without a wake: {early:?}");

    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let t0 = Instant::now();
    std::thread::spawn(move || waker.wake()).join().expect("waker thread");
    assert!(matches!(read_response(&mut stream), Response::Pong));
    let waited = t0.elapsed();
    assert!(waited < Duration::from_millis(100), "reply took {waited:?} after the wake");

    stream.write_all(&frame(&Request::Shutdown)).expect("shutdown");
    assert!(matches!(read_response(&mut stream), Response::Bye));
    server.join().expect("join").expect("reactor run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Over the served socket: a `Wait` parked on a running job gets its
/// result as soon as the job publishes it, and a `Shutdown` parked
/// behind that job gets `Bye` once it finishes. Every job sleeps
/// 200 ms first, so both requests surely park.
#[test]
fn served_parked_wait_and_shutdown_resolve_on_completion() {
    let dir = tmp_dir("served-wake");
    let socket = dir.join("svc.sock");
    let plan = fault::FaultPlan::parse("seed=7,delay=1.0:200ms").expect("fault plan");
    let server = start_server_with(
        &socket,
        Config {
            workers: 1,
            faults: Some(Arc::new(plan)),
            ..Config::default()
        },
    );
    let spec = JobSpec::exec("crc32", engines::EngineKind::Wasm3, wacc::OptLevel::O0, Scale::Test);
    let mut client = Client::connect(&socket).expect("connect");
    let id = client.submit(spec).expect("submit");
    let mut stopper = UnixStream::connect(&socket).expect("connect");
    stopper.write_all(&frame(&Request::Shutdown)).expect("shutdown");

    let res = client.wait(id).expect("wait");
    let residual = Duration::from_nanos(obs::trace::now_ns().saturating_sub(res.trace.done_ns));
    assert!(res.ok() && res.id == id, "unexpected result {res:?}");
    assert!(residual < Duration::from_millis(100), "Wait answered {residual:?} after the job");

    stopper.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    assert!(matches!(read_response(&mut stopper), Response::Bye));
    server.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}
