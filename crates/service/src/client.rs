//! A small blocking JSON client for the service's HTTP subset — used by
//! the server's own tests and the integration tests (`tests/service.rs`,
//! `tests/chaos.rs`) to drive a server programmatically without shelling
//! out to curl.
//!
//! [`Client`] holds one kept-alive TCP connection and reuses it across
//! requests (`Connection: keep-alive`), reconnecting transparently when
//! the server closes it — idle timeout, per-connection request cap, or a
//! restart. Connection reuse matters under load: a fresh TCP
//! handshake per request both caps throughput and perturbs the very
//! latencies being measured. The module-level [`request`] and
//! [`wait_for_job`] helpers remain for one-shot call sites.

use serde_json::Value;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-request read/write timeout on the client's socket.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response: status, JSON body, and the `Retry-After` seconds
/// advertised by admission-control 429s (absent otherwise).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Parsed JSON body (`Value::Null` when the response has none).
    pub body: Value,
    /// Seconds from a `Retry-After` header, when present.
    pub retry_after_s: Option<u64>,
}

/// A keep-alive HTTP/JSON client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    api_key: Option<String>,
}

impl Client {
    /// A client for `addr` ("host:port"). No connection is made until the
    /// first request.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            api_key: None,
        }
    }

    /// Attach a tenant API key, sent as `X-Api-Key` on every request.
    pub fn with_api_key(mut self, key: &str) -> Client {
        self.api_key = Some(key.to_string());
        self
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            stream.set_nodelay(true).ok();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    /// Issue one request, returning `(status, parsed body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> io::Result<(u16, Value)> {
        self.send(method, path, body).map(|r| (r.status, r.body))
    }

    /// Issue one request, returning the full [`Response`] (status, body,
    /// `Retry-After`). A request that fails on a *reused* connection is
    /// retried once on a fresh one: the server closes idle kept-alive
    /// sockets, and the close is only observable as an error on the next
    /// use. Fresh-connection failures propagate.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&Value>) -> io::Result<Response> {
        let payload = body.map(|b| b.to_string()).unwrap_or_default();
        self.send_bytes(method, path, payload.as_bytes(), "application/json")
    }

    /// [`Client::send`] with a raw byte body (`application/octet-stream`)
    /// — the graph-ingest chunk upload path.
    pub fn send_raw(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send_bytes(method, path, body, "application/octet-stream")
    }

    fn send_bytes(
        &mut self,
        method: &str,
        path: &str,
        payload: &[u8],
        content_type: &str,
    ) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.try_send(method, path, payload, content_type) {
            Ok(response) => Ok(response),
            Err(_) if reused => {
                self.stream = None;
                self.try_send(method, path, payload, content_type)
            }
            Err(e) => Err(e),
        }
    }

    fn try_send(
        &mut self,
        method: &str,
        path: &str,
        payload: &[u8],
        content_type: &str,
    ) -> io::Result<Response> {
        let addr = self.addr.clone();
        let auth = self
            .api_key
            .as_deref()
            .map(|k| format!("X-Api-Key: {k}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{auth}Connection: keep-alive\r\n\r\n",
            payload.len()
        );
        let result = (|| {
            let stream = self.connect()?;
            stream.write_all(head.as_bytes())?;
            stream.write_all(payload)?;
            stream.flush()?;
            read_response(stream)
        })();
        match result {
            Ok((response, server_keeps_alive)) => {
                if !server_keeps_alive {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                // The connection state is unknown after any failure.
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Read one `Content-Length`-delimited response off the stream. Returns
/// the parsed response and whether the server will keep the connection
/// open.
fn read_response(stream: &mut TcpStream) -> io::Result<(Response, bool)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before end of response header",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response header"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing status code"))?;

    let mut content_length: usize = 0;
    let mut retry_after_s: Option<u64> = None;
    let mut keep_alive = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "unparseable Content-Length")
                })?;
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after_s = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
        }
    }

    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before end of response body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    let value = if body.is_empty() {
        Value::Null
    } else {
        serde_json::from_slice(&body).map_err(io::Error::other)?
    };
    Ok((
        Response {
            status,
            body: value,
            retry_after_s,
        },
        keep_alive,
    ))
}

/// Issue one request on a fresh connection, return `(status, parsed
/// body)`. One-shot convenience; loops should hold a [`Client`] instead.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> io::Result<(u16, Value)> {
    Client::new(addr).request(method, path, body)
}

/// Poll `GET /jobs/:id` until the job reaches a terminal state, returning
/// its final status document. The polling loop reuses one kept-alive
/// connection.
pub fn wait_for_job(addr: &str, id: u64, timeout: Duration) -> io::Result<Value> {
    let mut client = Client::new(addr);
    wait_for_job_with(&mut client, id, timeout)
}

/// [`wait_for_job`] on an existing client (and its connection).
pub fn wait_for_job_with(client: &mut Client, id: u64, timeout: Duration) -> io::Result<Value> {
    let deadline = Instant::now() + timeout;
    let path = format!("/jobs/{id}");
    loop {
        let (status, v) = client.request("GET", &path, None)?;
        if status == 200 {
            let state = v.get("state").and_then(Value::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "cancelled" | "timed_out") {
                return Ok(v);
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("job {id} not terminal within {timeout:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
