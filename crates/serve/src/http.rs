//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! Only what the query service needs: request-line + headers + an
//! optional `Content-Length` body on the way in, and a fixed
//! `Connection: close` JSON response on the way out. One request per
//! connection keeps the worker loop free of keep-alive bookkeeping —
//! the service's clients are scripted queries and load generators, not
//! browsers holding sockets open.
//!
//! Hard input bounds (header block and body size) are enforced before
//! any allocation proportional to the claimed length, so a malicious
//! `Content-Length` cannot reserve memory the peer never sends.
//!
//! Reads go through one [`BufReader`] per request, so a request that
//! arrives in one segment costs one `read` syscall, not one per byte;
//! body bytes that arrived with the head are served from the same
//! buffer. A response goes out as one buffer in one `write_all`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block, in bytes, counting the blank line
/// that ends it.
pub(crate) const MAX_HEAD: usize = 16 * 1024;

/// Largest accepted request body, in bytes.
pub(crate) const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, path (query string split off), body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Path component before any `?`.
    pub path: String,
    /// Raw query string after the `?` (empty if none).
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

impl Request {
    /// The value of a `key=value` pair in the query string.
    pub(crate) fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Socket error or timeout while reading.
    Io(String),
    /// The bytes were not an HTTP/1.1 request we accept.
    Malformed(&'static str),
    /// Header block or body exceeded its bound.
    TooLarge(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(m) => write!(f, "i/o: {m}"),
            FrameError::Malformed(m) => write!(f, "malformed request: {m}"),
            FrameError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

/// Reads one request from the stream (which should already carry a
/// read timeout; a slow or silent peer surfaces as [`FrameError::Io`]).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, FrameError> {
    let mut reader = BufReader::new(&*stream);
    let head = read_head(&mut reader)?;
    let head = String::from_utf8(head).map_err(|_| FrameError::Malformed("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or(FrameError::Malformed("missing request target"))?;
    if method.is_empty() || !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(FrameError::Malformed("not an HTTP/1.x request line"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| FrameError::Malformed("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(FrameError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| FrameError::Io(e.to_string()))?;
    let body = String::from_utf8(body).map_err(|_| FrameError::Malformed("non-UTF-8 body"))?;
    Ok(Request { method, path, query, body })
}

/// Reads through the blank line that ends the header block, leaving
/// every byte after it (the start of the body) in `reader`.
fn read_head(reader: &mut impl BufRead) -> Result<Vec<u8>, FrameError> {
    const END: &[u8] = b"\r\n\r\n";
    let mut head = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Err(FrameError::Malformed("connection closed before headers ended")),
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        };
        // The terminator may straddle the previous chunk.
        let from = head.len().saturating_sub(END.len() - 1);
        let take = chunk.len().min(MAX_HEAD - head.len());
        head.extend_from_slice(&chunk[..take]);
        if let Some(at) = head[from..].windows(END.len()).position(|w| w == END) {
            let end = from + at + END.len();
            reader.consume(take - (head.len() - end));
            head.truncate(end);
            return Ok(head);
        }
        reader.consume(take);
        if head.len() == MAX_HEAD {
            return Err(FrameError::TooLarge("header block"));
        }
    }
}

/// The reason phrase for the status codes this service emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with an explicit content type and, when
/// present, the request's `X-Request-Id` header — the same id the
/// request's spans and access-log line carry, so a client can join its
/// own latency sample to the server-side record. Head and body go out
/// in one `write_all`. Errors are returned so the worker can count
/// them, but a dead peer is not fatal to anyone but itself.
pub(crate) fn write_response_full(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    req_id: Option<u64>,
    body: &str,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(160 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
    );
    if let Some(id) = req_id {
        let _ = write!(out, "X-Request-Id: {id}\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8]) -> Result<Request, FrameError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        read_request(&mut server_side)
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = round_trip(
            b"POST /query?scale=quick HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query_param("scale"), Some("quick"));
        assert_eq!(req.query_param("seed"), None);
        assert_eq!(req.body, "body");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /experiments HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/experiments");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_non_http_lines() {
        assert!(matches!(
            round_trip(b"hello there\r\n\r\n"),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_content_length_up_front() {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(round_trip(raw.as_bytes()), Err(FrameError::TooLarge("body"))));
    }

    #[test]
    fn rejects_absurd_content_length_without_allocating() {
        // A claim near usize::MAX would abort the process if it were
        // allocated before the bound check.
        let raw = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\nxy", usize::MAX);
        assert!(matches!(round_trip(raw.as_bytes()), Err(FrameError::TooLarge("body"))));
    }

    #[test]
    fn body_in_the_same_segment_as_the_head_is_kept() {
        // Small and larger-than-one-buffer bodies, each sent in one write
        // with the head: the bytes buffered past the blank line are the
        // start of the body, not lost.
        for len in [1, 900, 20_000] {
            let body: String = (0..len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
            let raw = format!("POST /v1/query HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}");
            let req = round_trip(raw.as_bytes()).unwrap();
            assert_eq!(req.body, body, "body of {len} bytes");
        }
    }

    #[test]
    fn head_trickled_one_byte_per_write_is_framed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
        let writer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.set_nodelay(true).unwrap();
            for byte in raw {
                client.write_all(std::slice::from_ref(byte)).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            client
        });
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let req = read_request(&mut server_side).unwrap();
        drop(writer.join().unwrap());
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/v1/run"));
        assert_eq!(req.body, "{}");
    }

    #[test]
    fn terminator_straddling_buffer_refills_is_found() {
        let raw = b"GET /v1/api HTTP/1.1\r\nHost: x\r\n\r\nrest";
        for capacity in 1..=raw.len() {
            let mut reader = BufReader::with_capacity(capacity, &raw[..]);
            let head = read_head(&mut reader).unwrap();
            assert_eq!(head, &raw[..raw.len() - 4], "capacity {capacity}");
            let mut rest = String::new();
            reader.read_to_string(&mut rest).unwrap();
            assert_eq!(rest, "rest", "capacity {capacity}");
        }
    }

    #[test]
    fn header_block_bound_is_exact() {
        // Request line + one padding header + blank line, `len` bytes in all.
        let head_of = |len: usize| {
            let fixed = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
            format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "p".repeat(len - fixed))
        };
        assert_eq!(head_of(MAX_HEAD).len(), MAX_HEAD);
        let req = round_trip(head_of(MAX_HEAD).as_bytes()).unwrap();
        assert_eq!(req.path, "/");
        assert!(matches!(
            round_trip(head_of(MAX_HEAD + 1).as_bytes()),
            Err(FrameError::TooLarge("header block"))
        ));
    }

    #[test]
    fn response_is_one_well_formed_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        write_response_full(&mut server_side, 200, "application/json", Some(9), "{}")
            .unwrap();
        drop(server_side);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: close\r\nX-Request-Id: 9\r\n\r\n{}"
        );
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 413, 500, 503] {
            assert_ne!(reason(code), "Unknown");
        }
    }
}
