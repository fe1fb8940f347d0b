//! The line-oriented HTTP/1.1 subset `pi-serve` speaks.
//!
//! Hand-rolled over `std::net` because the build environment has no HTTP
//! stack to depend on — and the daemon needs very little: one request per
//! connection (`Connection: close` both ways), a `Content-Length` body,
//! JSON payloads. Anything outside that subset is a [`ServeError::Protocol`]
//! and turns into a `400`, never a panic or a hang (sockets carry read
//! timeouts so a stalled peer cannot wedge a handler thread).

use crate::ServeError;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bound on how long a handler waits for a slow peer before giving up.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest request/response body accepted (a LeNet archdef plus a full
/// config is ~2 KB; traces run to a few MB).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Largest message head accepted: the request or status line plus every
/// header line, together. Without it a peer that never sends a newline,
/// or sends headers without end, grows the read without bound.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

/// The `{job_id, status}` reply of `/submit`, `/status` and a pending
/// `/result`.
#[derive(Serialize, Deserialize)]
pub(crate) struct Ack {
    pub job_id: String,
    pub status: String,
}

/// The `{error}` body of every error reply.
#[derive(Serialize, Deserialize)]
pub(crate) struct ErrorBody {
    pub error: String,
}

/// Read a single request off an accepted connection.
pub fn read_request(stream: &TcpStream) -> Result<Request, ServeError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    parse_request(&mut BufReader::new(stream.try_clone()?))
}

/// One request: the request line, the headers, the body.
fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, ServeError> {
    let mut head = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::Protocol(format!("request line {line:?} has no path")))?
        .to_string();
    let content_length = read_headers(reader, head)?;
    let body = read_body(reader, content_length)?;
    Ok(Request { method, path, body })
}

/// Write a response and close our half of the connection. `retry_after`
/// adds a `Retry-After` header (seconds), as a shed `503` carries.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    retry_after: Option<u64>,
) -> Result<(), ServeError> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    };
    let retry = retry_after.map_or_else(String::new, |s| format!("Retry-After: {s}\r\n"));
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{retry}Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    Ok(())
}

/// Client side: one request, one response, connection closed.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut head = MAX_HEAD_BYTES;
    let status_line = read_head_line(&mut reader, &mut head)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Protocol(format!("bad status line {status_line:?}")))?;
    let content_length = read_headers(&mut reader, head)?;
    let body = read_body(&mut reader, content_length)?;
    Ok((status, body))
}

/// One line of a message head, charged to `head`, the head bytes left.
/// A line the budget cuts off is a [`ServeError::Protocol`]; an empty
/// string is the end of the stream.
fn read_head_line<R: BufRead>(reader: &mut R, head: &mut usize) -> Result<String, ServeError> {
    let mut line = String::new();
    let n = reader.take(*head as u64).read_line(&mut line)?;
    if n == *head && !line.ends_with('\n') {
        return Err(ServeError::Protocol(format!(
            "message head over {MAX_HEAD_BYTES} bytes"
        )));
    }
    *head -= n;
    Ok(line)
}

/// Consume headers up to the blank line, within the `head` bytes left of
/// the head's budget; return `Content-Length` if given.
fn read_headers<R: BufRead>(reader: &mut R, mut head: usize) -> Result<Option<usize>, ServeError> {
    let mut content_length = None;
    loop {
        let line = read_head_line(reader, &mut head)?;
        if line.is_empty() {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let n: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::Protocol(format!("bad content-length {value:?}")))?;
                if n > MAX_BODY_BYTES {
                    return Err(ServeError::Protocol(format!("body of {n} bytes too large")));
                }
                content_length = Some(n);
            }
        }
    }
    Ok(content_length)
}

/// Read exactly `Content-Length` bytes, or to EOF when absent.
fn read_body<R: BufRead>(
    reader: &mut R,
    content_length: Option<usize>,
) -> Result<String, ServeError> {
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.take(MAX_BODY_BYTES as u64).read_to_end(&mut body)?;
        }
    }
    String::from_utf8(body).map_err(|_| ServeError::Protocol("body is not UTF-8".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    /// ASCII text of bytes in `chars`, of a length in `len`.
    fn text(
        chars: std::ops::RangeInclusive<u8>,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = String> {
        proptest::collection::vec(chars, len)
            .prop_map(|bytes| String::from_utf8(bytes).expect("ASCII"))
    }

    /// A request frame as `http_call` writes it, plus `extra` header lines.
    fn frame(method: &str, path: &str, extra: &[(String, String)], body: &str) -> Vec<u8> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        format!("{head}\r\n{body}").into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary bytes are a request or an error, never a panic, and a
        /// `Content-Length` that parses is within its bound.
        #[test]
        fn arbitrary_bytes_never_panic_and_respect_the_body_bound(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            let _ = parse_request(&mut Cursor::new(&bytes));
            let mut reader = Cursor::new(&bytes);
            let mut head = MAX_HEAD_BYTES;
            if read_head_line(&mut reader, &mut head).is_ok() {
                if let Ok(Some(n)) = read_headers(&mut reader, head) {
                    prop_assert!(n <= MAX_BODY_BYTES);
                }
            }
        }

        /// A well-formed frame parses back to what was written.
        #[test]
        fn a_well_formed_frame_round_trips(
            method in text(b'A'..=b'Z', 1..8),
            path in text(b'!'..=b'~', 0..25),
            extra in proptest::collection::vec((text(b'A'..=b'Z', 1..13), text(b' '..=b'~', 0..41)), 0..6),
            body in text(b'\n'..=b'~', 0..300),
        ) {
            let path = format!("/{path}");
            let extra: Vec<(String, String)> =
                extra.into_iter().map(|(name, value)| (format!("X-{name}"), value)).collect();
            let bytes = frame(&method, &path, &extra, &body);
            let req = parse_request(&mut Cursor::new(&bytes)).unwrap();
            prop_assert_eq!((req.method, req.path, req.body), (method, path, body));
        }

        /// A head is accepted exactly when it fits the bound, however the
        /// bytes are split between the request line and the headers.
        #[test]
        fn the_head_bound_holds(
            line_pad in 0usize..(2 * MAX_HEAD_BYTES),
            header_pad in 0usize..(MAX_HEAD_BYTES / 2),
        ) {
            let path = format!("/{}", "a".repeat(line_pad));
            let extra = [("X-Pad".to_string(), "b".repeat(header_pad))];
            let bytes = frame("GET", &path, &extra, "");
            let head_len = bytes.len();
            let parsed = parse_request(&mut Cursor::new(&bytes));
            prop_assert!(parsed.is_ok() == (head_len <= MAX_HEAD_BYTES), "head of {} bytes", head_len);
            if let Err(e) = parsed {
                prop_assert!(matches!(e, ServeError::Protocol(_)), "{}", e);
            }
        }

        /// A `Content-Length` past the body bound is refused before any
        /// body byte is read.
        #[test]
        fn the_body_bound_holds(n in (MAX_BODY_BYTES + 1)..usize::MAX) {
            let bytes = format!("POST / HTTP/1.1\r\nContent-Length: {n}\r\n\r\n");
            let parsed = parse_request(&mut Cursor::new(bytes.as_bytes()));
            prop_assert!(matches!(parsed, Err(ServeError::Protocol(_))));
        }
    }

    #[test]
    fn a_request_line_past_the_head_bound_is_a_protocol_error() {
        let bytes = vec![b'a'; 1 << 20];
        let err = parse_request(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        assert!(err.to_string().contains("message head over"), "{err}");
    }

    #[test]
    fn request_and_response_round_trip_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request(&stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/submit");
            assert_eq!(req.body, "{\"x\":1}");
            let mut stream = stream;
            write_response(&mut stream, 200, "{\"ok\":true}", None).unwrap();
        });
        let (status, body) = http_call(&addr, "POST", "/submit", "{\"x\":1}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn empty_body_get_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request(&stream).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.body, "");
            write_response(&mut { stream }, 404, "{}", None).unwrap();
        });
        let (status, body) = http_call(&addr, "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "{}");
        server.join().unwrap();
    }
}
