//! A dependency-free scrape endpoint over `std::net`.
//!
//! The soak service publishes one immutable [`Published`] snapshot per
//! epoch (an `Arc` swap behind a mutex — the simulation thread never
//! renders text or serializes JSON for scrapers, and a slow scraper can
//! never block an epoch). A single acceptor thread answers:
//!
//! * `GET /metrics`  — the registry snapshot in OpenMetrics text
//!   exposition format (rendered on the HTTP thread, `# EOF` terminated);
//! * `GET /healthz`  — liveness plus the current epoch counter;
//! * `GET /recorder` — the flight recorder's current ring, a
//!   [`RecorderDump`] (an on-demand snapshot — it answers even when no
//!   triggered dump was ever cut);
//! * `GET /slo`      — error-budget burn state, an [`SloDoc`]: fast and
//!   slow window burn rates, firing severities, policy knobs;
//! * `GET /topk`     — worst-K cells / links / servers by live
//!   critical-path blame, a [`TopkDoc`], from the in-process
//!   attribution fold.
//!
//! Before the first epoch each JSON route serves its type's empty
//! value: every key, zeroed.
//!
//! Everything speaks blocking HTTP/1.0-style request/response with
//! `Connection: close` — exactly enough for `curl` and a Prometheus
//! scraper, with zero dependencies beyond `std`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pran_insight::openmetrics;
use pran_telemetry::RegistrySnapshot;
use serde::Serialize;

use crate::docs::{SloDoc, TopkDoc};
use crate::recorder::RecorderDump;

/// What the simulation thread publishes once per epoch. `Default` is
/// the pre-first-epoch snapshot: an empty registry and every document's
/// empty value, so a scraper that races the first epoch sees each
/// route's full shape, never a bare `null`.
#[derive(Debug, Clone, Default)]
pub struct Published {
    /// Epochs completed when this snapshot was cut.
    pub epoch: u64,
    /// Metrics registry snapshot (rendered to OpenMetrics per scrape).
    pub snapshot: Arc<RegistrySnapshot>,
    /// The flight recorder's ring (`/recorder`).
    pub recorder: Arc<RecorderDump>,
    /// Burn-rate SLO state (`/slo`).
    pub slo: Arc<SloDoc>,
    /// Worst-K attribution (`/topk`).
    pub topk: Arc<TopkDoc>,
}

struct Shared {
    published: Mutex<Arc<Published>>,
    stop: AtomicBool,
}

impl Shared {
    /// The published slot, recovered if a panicking holder poisoned it:
    /// the guarded value is one `Arc`, only ever replaced whole, so it is
    /// never half-written.
    fn published(&self) -> MutexGuard<'_, Arc<Published>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The scrape endpoint: a bound listener plus its acceptor thread.
pub struct ObsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// start the acceptor thread.
    pub fn bind(addr: &str) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            published: Mutex::new(Arc::new(Published::default())),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pran-obs-http".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if worker.stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // One request per connection; errors just drop it.
                        let _ = serve_one(stream, &worker);
                    }
                }
            })?;
        Ok(ObsServer {
            addr,
            shared,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Swap in this epoch's snapshot. Cheap for the caller: one `Arc`
    /// allocation and a mutex-guarded pointer swap.
    pub fn publish(&self, p: Published) {
        *self.shared.published() = Arc::new(p);
    }

    /// Stop the acceptor thread and release the port.
    pub fn shutdown(mut self) {
        self.stop_acceptor();
    }

    fn stop_acceptor(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_acceptor();
    }
}

fn serve_one(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let path = match read_request_path(&mut stream)? {
        Some(p) => p,
        None => return Ok(()),
    };
    let published = Arc::clone(&shared.published());
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            openmetrics::render(&published.snapshot),
        ),
        "/healthz" => (
            "200 OK",
            "text/plain; charset=utf-8",
            format!("ok\nepoch {}\n", published.epoch),
        ),
        "/recorder" => json(&*published.recorder),
        "/slo" => json(&*published.slo),
        "/topk" => json(&*published.topk),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no route for {path}\n"),
        ),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A `200` JSON response carrying `doc`, written here on the HTTP thread.
fn json(doc: &impl Serialize) -> (&'static str, &'static str, String) {
    (
        "200 OK",
        "application/json; charset=utf-8",
        serde_json::to_string_pretty(doc).expect("documents serialize"),
    )
}

/// Read the request head and return the path of a `GET` request
/// (`None` for anything unparseable — the connection is just dropped).
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = [0u8; 4096];
    let mut used = 0;
    loop {
        // Stop once the request line is complete; ignore the rest of the
        // head (scrapers send no body on GET).
        if let Some(eol) = buf[..used].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[..eol]);
            let mut parts = line.split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            if method != "GET" || path.is_empty() {
                return Ok(None);
            }
            return Ok(Some(path.to_string()));
        }
        if used == buf.len() {
            return Ok(None);
        }
        let n = stream.read(&mut buf[used..])?;
        if n == 0 {
            return Ok(None);
        }
        used += n;
    }
}

/// Minimal blocking HTTP GET against the soak endpoint — for tests, the
/// CI smoke job and the E16 scrape benchmark. Returns
/// `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: pran-soak\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pran_telemetry::Registry;

    #[test]
    fn serves_metrics_healthz_recorder_and_404() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let r = Registry::new();
        r.inc("soak.epochs", &[], 3);
        r.gauge("soak.miss_ratio", &[], 0.25);
        let recorder = RecorderDump {
            reason: "scrape".to_string(),
            epoch: 2,
            ..RecorderDump::default()
        };
        server.publish(Published {
            epoch: 3,
            snapshot: Arc::new(r.snapshot()),
            recorder: Arc::new(recorder.clone()),
            ..Published::default()
        });

        let (code, metrics) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(metrics.contains("soak_epochs_total 3"), "{metrics}");
        assert!(metrics.contains("soak_miss_ratio 0.25"), "{metrics}");
        assert!(metrics.ends_with("# EOF\n"), "{metrics}");

        let (code, health) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(health.contains("epoch 3"), "{health}");

        let (code, rec) = http_get(server.addr(), "/recorder").unwrap();
        assert_eq!(code, 200);
        assert_eq!(
            serde_json::from_str::<RecorderDump>(&rec).unwrap(),
            recorder
        );

        let (code, body) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(code, 404);
        assert_eq!(body, "no route for /nope\n", "404 must carry a body");
        server.shutdown();
    }

    #[test]
    fn empty_snapshot_serves_valid_documents_on_every_json_route() {
        // Before the first publish, /recorder, /slo and /topk must serve
        // their types' empty values — never a bare `null` body.
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let get = |path: &str| {
            let (code, body) = http_get(server.addr(), path).unwrap();
            assert_eq!(code, 200, "{path}");
            body
        };
        let recorder: RecorderDump = serde_json::from_str(&get("/recorder")).unwrap();
        assert_eq!(recorder.check(), Ok(()));
        assert_eq!(recorder, RecorderDump::default());
        let slo: SloDoc = serde_json::from_str(&get("/slo")).unwrap();
        assert_eq!(slo.check(), Ok(()));
        assert_eq!(slo, SloDoc::default());
        let topk: TopkDoc = serde_json::from_str(&get("/topk")).unwrap();
        assert_eq!(topk.check(), Ok(()));
        assert_eq!(topk, TopkDoc::default());
        server.shutdown();
    }

    #[test]
    fn truncated_and_malformed_requests_drop_without_wedging_the_server() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        // Truncated request line: no newline ever arrives; the server
        // must drop the connection without a response.
        {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(b"GET /metr").unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(
                out.is_empty(),
                "truncated request must get no reply: {out:?}"
            );
        }
        // Non-GET method: same silent drop.
        {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.is_empty(), "non-GET must get no reply: {out:?}");
        }
        // An oversized request line (> the 4 KiB head buffer) is dropped.
        {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(8192));
            let _ = s.write_all(long.as_bytes());
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "oversized head must get no reply");
        }
        // The acceptor survives all of the above and still serves.
        let (code, health) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(health.starts_with("ok\n"), "{health}");
        server.shutdown();
    }

    #[test]
    fn concurrent_scrapes_during_epoch_swaps_always_see_a_coherent_snapshot() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Each scraper stops at its first failed check and names it: the
        // path, then a refused or reset connection, the status, or the
        // torn body.
        let scrapers: Vec<_> = (0..4)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let served = Arc::clone(&served);
                std::thread::spawn(move || -> Result<(), String> {
                    let paths = ["/metrics", "/healthz", "/recorder", "/slo", "/topk"];
                    let mut n = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        let path = paths[(i + n) % paths.len()];
                        let (code, body) = http_get(addr, path)
                            .map_err(|e| format!("GET {path} #{n} failed: {e:?}"))?;
                        if code != 200 {
                            return Err(format!("GET {path} #{n} answered {code}: {body:?}"));
                        }
                        // Every JSON body must read whole as its type: a
                        // swap mid-scrape must never tear a document.
                        let whole = match path {
                            "/metrics" => Ok(body.ends_with("# EOF\n")),
                            "/healthz" => Ok(body.starts_with("ok\n")),
                            "/recorder" => {
                                serde_json::from_str::<RecorderDump>(&body).map(|_| true)
                            }
                            "/slo" => serde_json::from_str::<SloDoc>(&body).map(|_| true),
                            _ => serde_json::from_str::<TopkDoc>(&body).map(|_| true),
                        };
                        match whole {
                            Ok(true) => {}
                            Ok(false) => return Err(format!("GET {path} #{n} tore: {body:?}")),
                            Err(e) => return Err(format!("GET {path} #{n} tore: {e}: {body:?}")),
                        }
                        n += 1;
                        served.fetch_add(1, Ordering::Release);
                    }
                    Ok(())
                })
            })
            .collect();
        // Swap snapshots as fast as the publisher side can, until the
        // scrapers have demonstrably overlapped at least 40 requests with
        // the swap storm (bare publishes are far faster than a scrape, so
        // a fixed swap count can finish before the first GET lands), or a
        // scraper has stopped on a failure.
        let mut epoch = 0u64;
        while served.load(Ordering::Acquire) < 40 && !scrapers.iter().any(|h| h.is_finished()) {
            epoch += 1;
            let r = Registry::new();
            r.inc("soak.epochs", &[], epoch);
            server.publish(Published {
                epoch,
                snapshot: Arc::new(r.snapshot()),
                ..Published::default()
            });
        }
        stop.store(true, Ordering::Release);
        let failures: Vec<String> = scrapers
            .into_iter()
            .filter_map(|h| h.join().expect("a scraper panicked").err())
            .collect();
        assert!(failures.is_empty(), "{failures:#?}");
        assert!(epoch >= 1, "the publisher must have swapped snapshots");
        server.shutdown();
    }

    #[test]
    fn a_poisoned_slot_still_publishes_and_serves() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.published.lock().unwrap();
            panic!("a publisher dies holding the slot");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.published.is_poisoned());
        server.publish(Published {
            epoch: 7,
            ..Published::default()
        });
        let (code, health) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(health.contains("epoch 7"), "{health}");
        server.shutdown();
    }

    #[test]
    fn publish_swaps_snapshots_between_scrapes() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let (_, health0) = http_get(server.addr(), "/healthz").unwrap();
        assert!(health0.contains("epoch 0"));
        for epoch in 1..=3u64 {
            server.publish(Published {
                epoch,
                ..Published::default()
            });
        }
        let (_, health) = http_get(server.addr(), "/healthz").unwrap();
        assert!(health.contains("epoch 3"), "{health}");
        server.shutdown();
    }
}
