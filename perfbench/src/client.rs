//! Driving the real binaries: a spawned `tadfa-serve` on loopback TCP,
//! one closed-loop connection to it, and the server's `stats`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;
use tadfa_sched::json::JsonValue;
use tadfa_serve::protocol::{kind, parse_response, ParsedResponse};

/// How long a spawned server may take to start listening.
const START_PATIENCE: Duration = Duration::from_secs(60);

/// A running `tadfa-serve --listen 127.0.0.1:0`. Dropping it kills the
/// process if it is still running and waits for it.
pub struct ServeProcess {
    child: Child,
    stderr: Option<JoinHandle<()>>,
    pub addr: String,
}

/// How a waited-for child process ended and what it used.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    pub success: bool,
    /// User plus system CPU seconds, every thread included.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Waits for `child` to end with `wait4`, which reports the CPU time
/// and peak RSS of that one process. The kernel does not charge steal
/// time to a process, so its CPU time does not stretch when the host
/// runs other work.
pub fn wait_exit(child: Child) -> Result<Exit, String> {
    // struct rusage on Linux: two struct timevals, then 14 longs, the
    // first of which is ru_maxrss in kB.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    }
    let pid = child.id() as i32;
    let mut status = 0;
    let mut u = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `u` are live, writable and laid out as
        // the platform's int and `struct rusage`; `pid` is our own
        // child, which nothing else waits for (`Child` does not wait on
        // drop).
        if unsafe { wait4(pid, &mut status, 0, &mut u) } == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 {pid}: {err}"));
        }
    }
    let [us, uus, ss, sus] = u.times;
    Ok(Exit {
        // Exited normally with code 0.
        success: status == 0,
        cpu_s: (us + ss) as f64 + (uus + sus) as f64 * 1e-6,
        peak_rss_mb: u.maxrss as f64 / 1024.0,
    })
}

/// Spawns `tadfa-serve` in pipe mode, waits for its first `pong` (by
/// then every spec is loaded and prepared), closes its input and
/// returns the CPU seconds the process used from spawn to exit.
pub fn setup_cpu_seconds(bin: &Path, root: &Path) -> Result<f64, String> {
    let mut child = Command::new(bin)
        .current_dir(root)
        .args(["--scenarios", "scenarios", "--pipe"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let answered = writeln!(stdin, "{}", ping_line(0))
        .and_then(|()| stdin.flush())
        .and_then(|()| stdout.read_line(&mut line));
    drop(stdin);
    let exit = wait_exit(child)?;
    match (answered, parse_response(line.trim_end())) {
        (Ok(_), Ok(r)) if r.ok && exit.success => Ok(exit.cpu_s),
        _ => Err("tadfa-serve --pipe did not answer ping".into()),
    }
}

impl ServeProcess {
    /// Spawns the server and waits until it listens and answers `ping`.
    pub fn spawn(bin: &Path, root: &Path, extra: &[String]) -> Result<ServeProcess, String> {
        let mut child = Command::new(bin)
            .current_dir(root)
            .args(["--scenarios", "scenarios", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining stderr after the address is known, so the server
        // never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut proc = ServeProcess {
            child,
            stderr: Some(reader),
            addr: String::new(),
        };
        proc.addr = rx
            .recv_timeout(START_PATIENCE)
            .map_err(|_| "tadfa-serve did not start listening".to_string())?;
        let mut conn = Conn::open(&proc.addr)?;
        let pong = conn.call(&ping_line(0))?;
        if !pong.ok {
            return Err("tadfa-serve did not answer ping".into());
        }
        Ok(proc)
    }

    /// The server's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// CPU seconds (user + system, every thread, ended ones included)
    /// the server has used so far, from `/proc/<pid>/stat`.
    pub fn cpu_s(&self) -> Result<f64, String> {
        extern "C" {
            fn sysconf(name: i32) -> i64;
        }
        const SC_CLK_TCK: i32 = 2;
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("cannot read server stat: {e}"))?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15, in clock ticks.
        let rest: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, r)| r.split_whitespace().collect());
        let ticks = |i: usize| rest.get(i).and_then(|v| v.parse::<f64>().ok());
        // SAFETY: sysconf reads a constant of the C library.
        let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) if hz > 0.0 => Ok((u + s) / hz),
            _ => Err("no utime/stime in server stat".into()),
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.send(&format!(
            "{{\"id\": {}, \"op\": \"shutdown\"}}",
            u64::MAX >> 12
        ))?;
        let _ = conn.recv();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if !status.success() {
            return Err(format!("tadfa-serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection: whole request lines out, whole response
/// lines back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<ParsedResponse, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => parse_response(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<ParsedResponse, String> {
        self.send(line)?;
        self.recv()
    }

    /// Sends a request, retrying `queue-full` rejections with a short
    /// backoff. Returns the final response and the retries it took.
    pub fn call_retrying(&mut self, line: &str) -> Result<(ParsedResponse, u64), String> {
        let mut retries = 0;
        loop {
            let r = self.call(line)?;
            if r.error.as_deref() != Some(kind::QUEUE_FULL) || retries >= 1000 {
                return Ok((r, retries));
            }
            retries += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's `stats` document.
    pub fn stats(&mut self) -> Result<Stats, String> {
        self.send("{\"id\": 0, \"op\": \"stats\"}")?;
        self.recv()?;
        Stats::from_line(self.line.trim_end())
    }
}

fn ping_line(id: u64) -> String {
    format!("{{\"id\": {id}, \"op\": \"ping\"}}")
}

/// A `stats` response.
pub struct Stats(JsonValue);

/// Cache counters summed over every scenario of a `stats` response.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheTotals {
    pub hits: f64,
    pub misses: f64,
    pub rejected: f64,
    pub appended: f64,
}

impl Stats {
    /// Parses a `stats` response line.
    pub fn from_line(line: &str) -> Result<Stats, String> {
        let r = parse_response(line)?;
        if !r.ok {
            return Err(format!("stats failed: {:?}", r.message));
        }
        Ok(Stats(r.doc))
    }

    fn num(v: Option<&JsonValue>) -> f64 {
        v.and_then(JsonValue::as_f64).unwrap_or(0.0)
    }

    pub fn cache(&self) -> CacheTotals {
        let mut t = CacheTotals::default();
        for s in self
            .0
            .get("scenarios")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let c = s.get("cache");
            let get = |k: &str| Self::num(c.and_then(|c| c.get(k)));
            t.hits += get("hits");
            t.misses += get("misses");
            t.rejected += get("rejected_stores");
            t.appended += Self::num(s.get("persist").and_then(|p| p.get("appended")));
        }
        t
    }

    /// The server-side admission → response p50, ms.
    pub fn latency_p50_ms(&self) -> f64 {
        Self::num(self.0.get("latency").and_then(|l| l.get("p50_ns"))) / 1e6
    }

    pub fn queue_peak(&self) -> f64 {
        Self::num(self.0.get("queue").and_then(|q| q.get("peak_depth")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_are_summed_over_scenarios() {
        let s = Stats::from_line(
            r#"{"id": 0, "ok": true, "scenarios": [
                {"cache": {"hits": 3, "misses": 1, "rejected_stores": 0}, "persist": {"appended": 1}},
                {"cache": {"hits": 2, "misses": 4, "rejected_stores": 1}}],
              "queue": {"peak_depth": 2}, "latency": {"p50_ns": 1500000}}"#,
        )
        .expect("a stats line");
        let c = s.cache();
        assert_eq!(
            (c.hits, c.misses, c.rejected, c.appended),
            (5.0, 5.0, 1.0, 1.0)
        );
        assert_eq!(s.latency_p50_ms(), 1.5);
        assert_eq!(s.queue_peak(), 2.0);
    }
}
