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
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::Protocol(format!("request line {line:?} has no path")))?
        .to_string();
    let content_length = read_headers(&mut reader)?;
    let body = read_body(&mut reader, content_length)?;
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
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Protocol(format!("bad status line {status_line:?}")))?;
    let content_length = read_headers(&mut reader)?;
    let body = read_body(&mut reader, content_length)?;
    Ok((status, body))
}

/// Consume headers up to the blank line; return `Content-Length` if given.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<Option<usize>, ServeError> {
    let mut content_length = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
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
    use std::net::TcpListener;

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
