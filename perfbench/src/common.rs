//! Pieces the workloads share: the server's configuration, reply
//! checking against reference documents, and the requests of the `wire`,
//! `serve` and `net` rungs.

use std::os::unix::net::UnixStream;
use std::time::Duration;

use zigzag_api::net::{read_envelope, write_envelope, NetConfig};
use zigzag_api::{serve, wire, Error, Query, Response, SessionId, ZigzagService};

use crate::check::Checker;
use crate::trace::{SpanId, Tracer};

/// The server's configuration: two workers (the container's core
/// count) and a short idle poll so restarts stay quick.
pub fn net_config() -> NetConfig {
    NetConfig::new()
        .workers(2)
        .poll_interval(Duration::from_millis(5))
}

/// One request on a raw envelope connection, with the client-side
/// encode, exchange and decode as child spans of the request span.
pub fn raw_request(
    tr: &mut Tracer,
    conn: &mut UnixStream,
    id: SessionId,
    q: &Query,
    req: u64,
) -> Result<Response, Error> {
    let top = tr.begin("net", "net.request", req, SpanId::NONE);
    let sp = tr.begin("net", "wire.encode", req, top);
    let frame = serve::encode_frame(id, q);
    tr.end(sp);
    let sp = tr.begin("net", "net.exchange", req, top);
    let doc = write_envelope(conn, &frame)
        .and_then(|()| read_envelope(conn, 16 << 20))
        .map_err(|e| Error::Transport {
            detail: e.to_string(),
        })
        .and_then(|d| {
            d.ok_or_else(|| Error::Transport {
                detail: "server closed the connection".into(),
            })
        });
    tr.end(sp);
    let sp = tr.begin("net", "wire.decode", req, top);
    let out = doc.and_then(|doc| {
        if serve::is_error_document(&doc) {
            Err(Error::Internal {
                detail: doc.lines().nth(1).unwrap_or("").to_string(),
            })
        } else {
            wire::decode_response(&doc)
        }
    });
    tr.end(sp);
    tr.end(top);
    out
}

/// Checks a typed reply against a reference document.
pub fn check_response(
    check: &mut Checker,
    out: Result<Response, Error>,
    want: &str,
    buf: &mut String,
) {
    match out {
        Ok(resp) => {
            buf.clear();
            wire::encode_response_to(buf, &resp).expect("writing to a String");
            check.doc(buf, want);
        }
        Err(e) => check.error(&e),
    }
}

/// One request through the wire codec: frame encoded and decoded,
/// dispatched, response encoded and decoded. Adds the frame's and the
/// response document's bytes to `bytes`.
pub fn wire_roundtrip(
    service: &ZigzagService,
    id: SessionId,
    q: &Query,
    bytes: &mut [u64; 2],
) -> Result<Response, Error> {
    let frame = serve::encode_frame(id, q);
    let doc = serve::decode_frame(&frame)
        .and_then(|(id, q)| service.dispatch(id, &q))
        .map(|resp| wire::encode_response(&resp));
    bytes[0] += frame.len() as u64;
    bytes[1] += doc.as_ref().map_or(0, |d| d.len() as u64);
    doc.and_then(|doc| wire::decode_response(&doc))
}

/// One request as a one-frame call of the serve loop.
pub fn serve_one(service: &ZigzagService, id: SessionId, q: &Query) -> Result<Response, Error> {
    let frame = serve::encode_frame(id, q);
    let docs = serve::serve(service, std::slice::from_ref(&frame), 1);
    wire::decode_response(&docs[0])
}
