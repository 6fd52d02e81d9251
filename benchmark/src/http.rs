//! A minimal keep-alive HTTP/1.1 client: the benchmark's own, so that
//! `graphmine_service::Client` can change without moving the numbers.
//!
//! One [`Conn`] is one TCP connection used by one thread. The server
//! recycles a connection after a fixed number of requests or a second of
//! idleness; the client follows the `Connection` response header and
//! reconnects, and retries once when a reused socket turns out to have
//! been closed before the request reached the server. It asks the kernel
//! to acknowledge responses at once; [`quick_ack`] says why.

use serde_json::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// JSON body (`Null` when empty).
    pub body: Value,
}

/// One kept-alive connection.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    api_key: Option<String>,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened over this client's lifetime.
    pub connects: u64,
    /// Whether to set `TCP_QUICKACK` before reading each response.
    acknowledge_at_once: bool,
}

const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    /// A client for `addr`; connects on first use. `api_key` is sent as
    /// `X-Api-Key` on every request.
    pub fn new(addr: SocketAddr, api_key: Option<&str>) -> Conn {
        Conn {
            addr,
            api_key: api_key.map(str::to_string),
            stream: None,
            buf: Vec::with_capacity(4096),
            connects: 0,
            acknowledge_at_once: true,
        }
    }

    /// A client that leaves the kernel's delayed ACKs alone, as an HTTP
    /// library that knows nothing about this server would: used only to
    /// measure what such a client pays per exchange.
    pub fn plain(addr: SocketAddr) -> Conn {
        Conn {
            acknowledge_at_once: false,
            ..Conn::new(addr, None)
        }
    }

    /// Replace the API key (one connection can speak for several tenants).
    pub fn set_api_key(&mut self, api_key: Option<&str>) {
        self.api_key = api_key.map(str::to_string);
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.buf.clear();
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Send one request and read its response. `body` is sent verbatim
    /// with a `Content-Length`.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.request_once(method, target, body) {
            Ok(r) => Ok(r),
            // A kept-alive socket the server closed while we were idle
            // fails before any response byte arrives; the request was
            // never read, so sending it again on a fresh socket is safe.
            Err(e) if reused && is_stale(&e) => {
                self.stream = None;
                self.request_once(method, target, body)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<Response> {
        let mut head =
            format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n");
        if let Some(key) = &self.api_key {
            head.push_str("X-Api-Key: ");
            head.push_str(key);
            head.push_str("\r\n");
        }
        let body = body.unwrap_or(&[]);
        if !body.is_empty() || method == "POST" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        let acknowledge_at_once = self.acknowledge_at_once;
        let stream = self.stream()?;
        stream.write_all(&message)?;
        if acknowledge_at_once {
            quick_ack(stream);
        }
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 8192];
        let mut got_any = !self.buf.is_empty();
        let header_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(bad("response header too large"));
            }
            let n = self.stream()?.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    if got_any {
                        io::ErrorKind::UnexpectedEof
                    } else {
                        io::ErrorKind::ConnectionReset
                    },
                    "connection closed before a response",
                ));
            }
            got_any = true;
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let header =
            std::str::from_utf8(&self.buf[..header_end]).map_err(|_| bad("non-UTF-8 header"))?;
        let mut lines = header.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut keep_alive = false;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = value.eq_ignore_ascii_case("keep-alive");
                }
            }
        }
        // Bound what a confused peer can make us allocate.
        if content_length > 64 * 1024 * 1024 {
            return Err(bad("response body too large"));
        }
        let body_start = header_end + 4;
        while self.buf.len() < body_start + content_length {
            let n = self.stream()?.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = if content_length == 0 {
            Value::Null
        } else {
            serde_json::from_slice(&self.buf[body_start..body_start + content_length])
                .map_err(|e| bad(&format!("response is not JSON: {e}")))?
        };
        self.buf.drain(..body_start + content_length);
        if !keep_alive {
            self.stream = None;
            self.buf.clear();
        }
        Ok(Response { status, body })
    }

    /// `POST` a JSON document.
    pub fn post_json(&mut self, target: &str, body: &Value) -> io::Result<Response> {
        let bytes = serde_json::to_vec(body)?;
        self.request("POST", target, Some(&bytes))
    }

    /// `GET`.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.request("GET", target, None)
    }
}

/// Ask the kernel to acknowledge the segments of the coming response at
/// once (`TCP_QUICKACK`; Linux resets it, so it is set per request).
///
/// The server writes a response's head and body with two `write_all`
/// calls and leaves Nagle's algorithm on, so the body waits for the ACK
/// of the head; a kept-alive client that just sent a request is in the
/// kernel's "interactive" mode and delays that ACK by 40 ms. Left alone,
/// every exchange costs ≈ 44 ms and both service workloads measure a
/// kernel timer instead of the service. The stall is still measured — by
/// [`Conn::plain`] connections, as `service.keepalive_exchange_ms`.
fn quick_ack(stream: &TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_void,
                len: u32,
            ) -> c_int;
        }
        const IPPROTO_TCP: c_int = 6;
        const TCP_QUICKACK: c_int = 12;
        let one: c_int = 1;
        // SAFETY: `fd` is the open socket `stream` owns for the whole call;
        // `value` points at a live `c_int` and `len` is its size. A failure
        // only leaves delayed ACKs on, so the result is ignored.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                IPPROTO_TCP,
                TCP_QUICKACK,
                (&one as *const c_int).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            );
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = stream;
}

fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
    )
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted peer: answers each request on a connection with the
    /// next canned response, closing after `per_conn` of them.
    fn scripted_server(
        responses: Vec<&'static str>,
        per_conn: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut responses = responses.into_iter();
            'outer: loop {
                let (mut s, _) = listener.accept().unwrap();
                for _ in 0..per_conn {
                    let Some(resp) = responses.next() else {
                        break 'outer;
                    };
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    while find(&buf, b"\r\n\r\n").is_none() {
                        let n = s.read(&mut chunk).unwrap();
                        if n == 0 {
                            continue 'outer;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    seen.push(String::from_utf8_lossy(&buf).into_owned());
                    s.write_all(resp.as_bytes()).unwrap();
                }
                if responses.len() == 0 {
                    break;
                }
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn keeps_alive_follows_close_and_reconnects() {
        let (addr, server) = scripted_server(
            vec![
                "HTTP/1.1 200 OK\r\nContent-Length: 8\r\nConnection: keep-alive\r\n\r\n{\"a\": 1}",
                "HTTP/1.1 202 Accepted\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"id\": 7}",
                "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
            ],
            2,
        );
        let mut c = Conn::new(addr, Some("k1"));
        let r = c.get("/x").unwrap();
        assert_eq!((r.status, r.body["a"].as_u64()), (200, Some(1)));
        let r = c
            .post_json("/jobs", &serde_json::json!({"algorithm": "PR"}))
            .unwrap();
        assert_eq!((r.status, r.body["id"].as_u64()), (202, Some(7)));
        // The server said `close`: the next request opens a new socket.
        let r = c.get("/y").unwrap();
        assert_eq!(r.status, 404);
        assert!(r.body.is_null());
        assert_eq!(c.connects, 2);
        let seen = server.join().unwrap();
        assert!(seen[0].starts_with("GET /x HTTP/1.1\r\n"));
        assert!(seen[0].contains("X-Api-Key: k1\r\n"));
        assert!(seen[1].contains("Content-Length: 18\r\n"));
    }
}
