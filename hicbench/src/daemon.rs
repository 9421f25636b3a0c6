//! A `hic serve` subprocess on a fresh store and a free port.

use hic_serve::Client;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variables that would point the daemon at another store
/// or change its configuration behind the benchmark's back.
const SCRUBBED_ENV: [&str; 3] = ["HIC_CACHE_DIR", "HIC_CACHE_MAX_BYTES", "HIC_SERVE_SLO_MS"];

/// A running daemon. Dropping it without [`Serve::stop`] kills it.
pub struct Serve {
    child: Option<Child>,
    /// Kept open so the daemon never blocks on a full stderr pipe.
    _stderr: BufReader<ChildStderr>,
    /// The daemon's TCP port on 127.0.0.1.
    pub port: u16,
    /// The daemon's artifact store directory.
    pub store: PathBuf,
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind(("127.0.0.1", 0))?.local_addr()?.port())
}

impl Serve {
    /// Start `hic serve --jobs 1` on `store` (created if absent) and
    /// return once it answers `ping`. The daemon announces readiness on
    /// stderr after its accept loop is running; connecting right after
    /// that line gives every start the same phase against the accept
    /// loop's poll sleep. A port taken between probing and binding is
    /// retried on another port.
    pub fn start(hic: &Path, store: &Path) -> io::Result<Serve> {
        let mut last_err = None;
        for _ in 0..5 {
            let port = free_port()?;
            let mut cmd = Command::new(hic);
            cmd.args(["serve", "--jobs", "1", "--port"])
                .arg(port.to_string())
                .arg("--cache-dir")
                .arg(store)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            for var in SCRUBBED_ENV {
                cmd.env_remove(var);
            }
            let mut child = cmd.spawn()?;
            let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
            let mut line = String::new();
            let mut said = String::new();
            let ready = loop {
                line.clear();
                if stderr.read_line(&mut line)? == 0 {
                    break false;
                }
                if line.contains("listening on") {
                    break true;
                }
                said.push_str(&line);
            };
            if !ready {
                let status = child.wait()?;
                last_err = Some(io::Error::other(format!(
                    "hic serve exited ({status}) before listening: {}",
                    said.trim()
                )));
                continue;
            }
            let serve = Serve {
                child: Some(child),
                _stderr: stderr,
                port,
                store: store.to_path_buf(),
            };
            let mut c = serve.connect()?;
            let pong = c.roundtrip("{\"cmd\":\"ping\"}")?;
            if !pong.contains(hic_serve::SERVE_SCHEMA) {
                return Err(io::Error::other(format!("unexpected ping reply: {pong}")));
            }
            return Ok(serve);
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("hic serve did not start")))
    }

    /// Open one more client connection.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(self.port)
    }

    /// A client connected through a new [`Relay`] to this daemon.
    pub fn relayed_client(&self) -> io::Result<(Client, Relay)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let port = listener.local_addr()?.port();
        let upstream = TcpStream::connect(("127.0.0.1", self.port))?;
        upstream.set_nodelay(true)?;
        let requests = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&requests);
        let handle = std::thread::spawn(move || -> io::Result<()> {
            let (down, _) = listener.accept()?;
            down.set_nodelay(true)?;
            let mut from_client = BufReader::new(down.try_clone()?);
            let mut to_client = down;
            let mut from_daemon = BufReader::new(upstream.try_clone()?);
            let mut to_daemon = upstream;
            let mut line = String::new();
            loop {
                line.clear();
                if from_client.read_line(&mut line)? == 0 {
                    return Ok(());
                }
                count.fetch_add(1, Ordering::SeqCst);
                to_daemon.write_all(line.as_bytes())?;
                line.clear();
                if from_daemon.read_line(&mut line)? == 0 {
                    return Err(io::Error::other("daemon closed a relayed connection"));
                }
                to_client.write_all(line.as_bytes())?;
            }
        });
        let client = Client::connect(port)?;
        Ok((client, Relay { requests, handle }))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Ask the daemon to drain and wait for it to exit.
    pub fn stop(mut self, c: &mut Client) -> io::Result<()> {
        c.shutdown()?;
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("hic serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("hic serve did not drain within 20 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A request-counting relay between one client connection and the
/// daemon, for traced runs. `hic-serve/v1` is strictly one reply line
/// per request line, so one thread relays both directions in turn and
/// the count includes every request the client sends, whatever
/// `Client::wait_done` does internally.
pub struct Relay {
    /// Requests forwarded so far.
    pub requests: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

impl Relay {
    /// Wait for the relay to end; call after its client is dropped.
    pub fn join(self) -> io::Result<()> {
        self.handle.join().expect("relay thread panicked")
    }
}

/// `VmHWM` of process `pid`, from `/proc/<pid>/status`, in MiB.
pub fn vm_hwm_mb(pid: u32) -> io::Result<f64> {
    let status_path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&status_path)?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))?;
    Ok(kb / 1024.0)
}

/// `(hits, misses)` from the daemon's `stats` verb.
pub fn cache_counts(c: &mut Client) -> io::Result<(u64, u64)> {
    let resp = c.stats()?;
    let v = serde_json::parse(&resp).map_err(|e| io::Error::other(e.to_string()))?;
    let field = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| io::Error::other(format!("stats reply lacks {k}: {resp}")))
    };
    Ok((field("cache_hits")?, field("cache_misses")?))
}
