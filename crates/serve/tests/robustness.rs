//! Protocol-robustness tests over real TCP sockets: malformed JSON,
//! oversized requests, deeply nested JSON, half-closed connections,
//! and slow-loris clients must each produce clean, typed protocol
//! errors — and none of them may wedge the server for the
//! well-behaved connections sharing it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tadfa_serve::protocol::{kind, parse_response, ParsedResponse};
use tadfa_serve::{Server, ServerConfig};

fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// An in-process server listening on an ephemeral port, exactly as
/// `tadfa-serve --listen` would run it.
fn tcp_server(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::load(&cfg).expect("committed scenarios load");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.serve_listener(listener));
    (addr, handle)
}

/// One client connection with line-oriented send/recv helpers.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        Conn {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("line writes");
        self.writer.flush().expect("line flushes");
    }

    /// The next response line; panics on EOF.
    fn recv(&mut self) -> ParsedResponse {
        let raw = self.recv_raw().expect("response before EOF");
        parse_response(&raw).unwrap_or_else(|e| panic!("unparseable response ({e}): {raw}"))
    }

    /// The next nonempty line, or `None` at EOF.
    fn recv_raw(&mut self) -> Option<String> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("socket readable");
            if n == 0 {
                return None;
            }
            let line = line.trim_end_matches('\n');
            if !line.trim().is_empty() {
                return Some(line.to_string());
            }
        }
    }

    fn ping(&mut self, id: u64) {
        self.send(&format!("{{\"id\": {id}, \"op\": \"ping\"}}"));
        let resp = self.recv();
        assert!(resp.ok, "ping {id} answered");
        assert_eq!(resp.id, Some(id));
    }
}

/// Requests shutdown over a fresh connection and joins the listener.
fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut conn = Conn::open(addr);
    conn.send(r#"{"id": 9999, "op": "shutdown"}"#);
    let resp = conn.recv();
    assert!(resp.ok, "shutdown acknowledged");
    handle
        .join()
        .expect("listener thread exits")
        .expect("listener exits cleanly");
}

fn config() -> ServerConfig {
    ServerConfig {
        scenario_dir: scenario_dir(),
        service_workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn malformed_json_gets_a_typed_error_and_the_connection_survives() {
    let (addr, handle) = tcp_server(config());
    let mut conn = Conn::open(addr);

    // Garbage is answered (uncorrelated — there is no id to echo), and
    // the connection is still perfectly usable afterwards.
    conn.send("this is not json");
    let resp = conn.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::BAD_REQUEST));
    assert_eq!(resp.id, None);

    // Structured-but-wrong keeps its id.
    conn.send(r#"{"id": 7, "op": "run-scenario", "scenario": "solo_baseline", "bogus": 1}"#);
    let resp = conn.recv();
    assert_eq!(resp.error.as_deref(), Some(kind::BAD_REQUEST));
    assert_eq!(resp.id, Some(7));

    conn.ping(8);
    stop(addr, handle);
}

#[test]
fn oversized_requests_are_rejected_and_the_socket_closed() {
    let (addr, handle) = tcp_server(ServerConfig {
        max_line_bytes: 1024,
        ..config()
    });

    // An 8 KiB line against a 1 KiB cap: a typed rejection, then the
    // connection is closed — an unbounded line may never buffer
    // unboundedly.
    let mut fat = Conn::open(addr);
    let mut line = "x".repeat(8 * 1024);
    line.push('\n');
    fat.writer
        .write_all(line.as_bytes())
        .expect("fat line writes");
    let resp = fat.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::REQUEST_TOO_LARGE));
    assert_eq!(fat.recv_raw(), None, "connection closed after rejection");

    // The server keeps serving everyone else.
    let mut healthy = Conn::open(addr);
    healthy.ping(1);
    stop(addr, handle);
}

#[test]
fn deeply_nested_json_is_a_bad_request_not_a_crash() {
    let (addr, handle) = tcp_server(config());
    let mut conn = Conn::open(addr);

    // 10 KB of `[`: far under the line cap, far over any parser stack
    // without a nesting limit.
    conn.send(&"[".repeat(10_000));
    let resp = conn.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::BAD_REQUEST));
    assert_eq!(resp.id, None);

    // The service, this connection and a fresh one all survive.
    conn.ping(1);
    Conn::open(addr).ping(2);
    stop(addr, handle);
}

#[test]
fn half_closed_connections_still_receive_their_responses() {
    let (addr, handle) = tcp_server(config());
    let mut conn = Conn::open(addr);

    // Send one request and immediately close our write half — the
    // classic "fire then shutdown(WR)" client. The response must still
    // arrive on the intact read half.
    conn.send(r#"{"id": 3, "op": "run-scenario", "scenario": "solo_baseline"}"#);
    conn.writer
        .shutdown(Shutdown::Write)
        .expect("half-close succeeds");
    let resp = conn.recv();
    assert!(resp.ok, "half-closed client still gets its answer");
    assert_eq!(resp.id, Some(3));
    assert!(resp.fingerprint.is_some());
    assert_eq!(conn.recv_raw(), None, "then the server closes too");

    stop(addr, handle);
}

#[test]
fn slow_loris_is_reaped_without_wedging_the_reactor() {
    let (addr, handle) = tcp_server(ServerConfig {
        stall_timeout_ms: 200,
        ..config()
    });

    // A loris: half a request, then silence.
    let mut loris = Conn::open(addr);
    loris
        .writer
        .write_all(br#"{"id": 1, "op": "#)
        .expect("partial line writes");
    loris.writer.flush().expect("partial line flushes");

    // The server keeps serving a healthy neighbour while the loris
    // stalls...
    let mut healthy = Conn::open(addr);
    healthy.ping(1);
    std::thread::sleep(Duration::from_millis(600));
    healthy.ping(2);

    // ...and the loris is gone: its socket reads EOF (possibly after a
    // final typed error line) instead of holding a thread forever.
    let mut tail = Vec::new();
    loris
        .reader
        .read_to_end(&mut tail)
        .expect("loris socket drains to EOF");
    if !tail.is_empty() {
        let text = String::from_utf8_lossy(&tail);
        let line = text.lines().next().expect("a final line");
        let resp = parse_response(line).expect("final line is protocol");
        assert!(!resp.ok, "a stalled connection cannot succeed");
    }

    // Idle-but-quiet connections (no partial line) are NOT loris: the
    // healthy conn sat idle through the same window and still works.
    healthy.ping(3);
    stop(addr, handle);
}
