//! Decode edge cases for the wire protocol: every malformed frame must
//! come back as a structured error — never a panic, never an allocation
//! sized by attacker-controlled bytes. Also pins the v1↔v2 compatibility
//! contract: a v2 client greeting a v1-only server gets a typed
//! [`ServeError::UnsupportedVersion`], never a hang or a garbage decode.
//!
//! The decode fuzz properties at the end run arbitrary and mutated bytes
//! through every decoder under a counting allocator, so "never an
//! allocation sized by attacker-controlled bytes" is measured, not just
//! inferred from the absence of an out-of-memory abort.

use metaai_math::C64;
use metaai_serve::tcp::TcpClient;
use metaai_serve::wire::{self, Request, Response, MAX_FRAME_BYTES, NO_REQUEST_ID};
use metaai_serve::ServeError;
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest single request made on
/// each thread since that thread last reset its mark.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations made while a thread is torn down must not
    // panic inside the allocator.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping in `note`
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`, returning its output and the largest single allocation it
/// made on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Room for the small strings behind decode and I/O error messages.
const ERROR_SLACK: usize = 256;

fn infer_payload(n: usize) -> Vec<u8> {
    Request::Infer {
        id: 1,
        sample_index: 2,
        deadline_us: 3,
        input: (0..n)
            .map(|i| C64 {
                re: i as f64,
                im: -(i as f64),
            })
            .collect(),
    }
    .encode()
}

fn infer_model_payload(n: usize) -> Vec<u8> {
    Request::InferModel {
        model: 1,
        id: 1,
        sample_index: 2,
        deadline_us: 3,
        input: (0..n)
            .map(|i| C64 {
                re: i as f64,
                im: -(i as f64),
            })
            .collect(),
    }
    .encode()
}

#[test]
fn zero_length_payloads_are_bad_requests() {
    assert!(matches!(
        Request::decode(&[]),
        Err(ServeError::BadRequest(_))
    ));
    assert!(matches!(
        Response::decode(&[]),
        Err(ServeError::BadRequest(_))
    ));
    // A zero-length *frame* is legal framing (the payload decode rejects
    // it); read_frame must hand it up rather than misinterpret it.
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &[]).unwrap();
    let mut r = &buf[..];
    assert_eq!(wire::read_frame(&mut r).unwrap().as_deref(), Some(&[][..]));
}

#[test]
fn an_infer_with_zero_symbols_decodes_without_panicking() {
    // n = 0 is structurally valid; the server rejects it later against
    // the deployment's symbol count, not in the parser.
    let payload = infer_payload(0);
    match Request::decode(&payload).expect("decode") {
        Request::Infer { input, .. } => assert!(input.is_empty()),
        other => panic!("expected INFER, got {other:?}"),
    }
}

#[test]
fn a_frame_exactly_at_the_cap_is_accepted_and_one_past_is_rejected() {
    let payload = vec![0xA5u8; MAX_FRAME_BYTES];
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &payload).unwrap();
    let mut r = &buf[..];
    assert_eq!(
        wire::read_frame(&mut r).unwrap().map(|p| p.len()),
        Some(MAX_FRAME_BYTES)
    );

    let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    buf.push(0);
    let mut r = &buf[..];
    let err = wire::read_frame(&mut r).expect_err("over the cap");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn a_truncated_symbol_block_is_a_bad_request() {
    let full = infer_payload(4);
    // Every strict prefix that cuts into the symbol block must fail
    // cleanly; the header claims 4 symbols the payload no longer holds.
    for cut in 29..full.len() {
        let truncated = &full[..cut];
        assert!(
            matches!(Request::decode(truncated), Err(ServeError::BadRequest(_))),
            "prefix of {cut} bytes decoded"
        );
    }
}

#[test]
fn a_score_whose_declared_n_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = Response::Score {
        id: 1,
        epoch: 1,
        predicted: 0,
        scores: vec![0.5, 0.25],
    }
    .encode();
    // Rewrite the score count (offset 21: kind + id + epoch + predicted)
    // to claim u32::MAX entries. A decoder that sized a Vec from the
    // declared count before checking the remaining payload would try a
    // 32 GiB allocation here.
    payload[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn an_infer_whose_declared_n_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = infer_payload(2);
    // Symbol count lives at offset 25 (kind + id + sample_index +
    // deadline).
    payload[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn length_prefixes_shorter_than_the_payload_leave_clean_errors() {
    // A corrupt length prefix that claims fewer bytes than were sent:
    // the first frame decodes as garbage (or errors), and the stream is
    // desynchronized — but nothing panics.
    let payload = infer_payload(2);
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &payload).unwrap();
    buf[0..4].copy_from_slice(&7u32.to_le_bytes());
    let mut r = &buf[..];
    let first = wire::read_frame(&mut r).unwrap().expect("short frame");
    assert_eq!(first.len(), 7);
    assert!(Request::decode(&first).is_err());
}

#[test]
fn a_length_prefix_longer_than_the_stream_is_a_mid_frame_eof() {
    let mut buf = 64u32.to_le_bytes().to_vec();
    buf.extend_from_slice(&[1, 2, 3]);
    let mut r = &buf[..];
    let err = wire::read_frame(&mut r).expect_err("mid-frame EOF");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn a_truncated_v2_infer_symbol_block_is_a_bad_request() {
    let full = infer_model_payload(4);
    // The v2 header is 33 bytes (kind + model + id + sample_index +
    // deadline + n); every strict prefix cutting into the symbol block
    // must fail cleanly.
    for cut in 33..full.len() {
        let truncated = &full[..cut];
        assert!(
            matches!(Request::decode(truncated), Err(ServeError::BadRequest(_))),
            "prefix of {cut} bytes decoded"
        );
    }
}

#[test]
fn a_v2_infer_whose_declared_n_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = infer_model_payload(2);
    // Symbol count lives at offset 29 (kind + model + id + sample_index +
    // deadline).
    payload[29..33].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn a_truncated_hello_is_a_bad_request() {
    // A HELLO is kind + u16 version; cutting the version short must not
    // panic or misparse.
    let full = Request::Hello { version: 2 }.encode();
    assert_eq!(full.len(), 3);
    for cut in [1usize, 2] {
        assert!(matches!(
            Request::decode(&full[..cut]),
            Err(ServeError::BadRequest(_))
        ));
    }
}

#[test]
fn a_hello_ack_whose_declared_count_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = Response::HelloAck {
        version: 2,
        models: Vec::new(),
    }
    .encode();
    // Model count lives at offset 3 (kind + version). u32::MAX entries
    // would be a multi-GiB reservation if the decoder trusted it.
    payload[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn a_hello_ack_with_a_non_utf8_model_name_is_a_bad_request() {
    let mut payload = Response::HelloAck {
        version: 2,
        models: vec![wire::ModelDescriptor {
            id: 0,
            epoch: 1,
            outputs: 3,
            symbols: 16,
            name: "ab".into(),
        }],
    }
    .encode();
    // The name bytes are the last two; 0xFF 0xFE is not valid UTF-8.
    let at = payload.len() - 2;
    payload[at..].copy_from_slice(&[0xFF, 0xFE]);
    match Response::decode(&payload) {
        Err(ServeError::BadRequest(why)) => assert!(why.contains("UTF-8"), "{why}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

/// A minimal v1-only server, wire-identical to the PR-4/5 front-end's
/// corrupt-frame path: any frame it cannot decode (which includes every
/// v2 kind) is answered with `ERROR { NO_REQUEST_ID, BadRequest }` and
/// the connection closes.
fn v1_only_server() -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { break };
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(Some(payload)) = wire::read_frame(&mut reader) {
                // A v1 decoder knows request kinds 0..=2 only; the crate's
                // current decoder understands v2 kinds, so gate on the kind
                // byte to reproduce v1's "unknown kind" refusal.
                let decoded = match payload.first() {
                    Some(0..=2) => Request::decode(&payload),
                    _ => Err(ServeError::BadRequest(format!(
                        "unknown request kind {:?}",
                        payload.first()
                    ))),
                };
                match decoded {
                    Ok(_) => continue, // not exercised here
                    Err(e) => {
                        let refusal = Response::Error {
                            id: NO_REQUEST_ID,
                            code: e.code(),
                        };
                        let _ = wire::write_frame(&mut writer, &refusal.encode());
                        let _ = std::io::Write::flush(&mut writer);
                        break; // v1 closes after a corrupt frame
                    }
                }
            }
        }
    });
    addr
}

#[test]
fn a_v2_client_greeting_a_v1_server_gets_unsupported_version_not_a_hang() {
    // The decisive detail: PR-5's `Request::decode` rejects kind 3, so a
    // v1 server answers the HELLO with a BadRequest error frame. The v2
    // client recognizes that reply as a version mismatch and surfaces
    // the typed error instead of passing BadRequest through (or worse,
    // waiting forever on an ack that will never come).
    let addr = v1_only_server();
    let mut client = TcpClient::connect(addr).expect("connect");
    let err = client
        .hello()
        .expect("io — the v1 server answers")
        .expect_err("no v2 handshake from a v1 server");
    assert_eq!(err, ServeError::UnsupportedVersion);
    assert_eq!(err.code(), 8);
    assert!(!err.is_retryable(), "a version mismatch never heals itself");
}

/// One valid payload of every request and response kind, the seeds the
/// mutation property corrupts.
fn valid_payloads() -> Vec<Vec<u8>> {
    let models = vec![
        wire::ModelDescriptor {
            id: 0,
            epoch: 3,
            outputs: 10,
            symbols: 784,
            name: "mnist".into(),
        },
        wire::ModelDescriptor {
            id: 1,
            epoch: 1,
            outputs: 3,
            symbols: 64,
            name: "widar".into(),
        },
    ];
    vec![
        infer_payload(3),
        infer_model_payload(2),
        Request::Info.encode(),
        Request::Shutdown.encode(),
        Request::Hello { version: 2 }.encode(),
        Response::Score {
            id: 5,
            epoch: 2,
            predicted: 1,
            scores: vec![0.5, 1.5, -0.25],
        }
        .encode(),
        Response::Error { id: 5, code: 3 }.encode(),
        Response::Info {
            epoch: 1,
            outputs: 10,
            symbols: 784,
        }
        .encode(),
        Response::ShutdownAck.encode(),
        Response::HelloAck { version: 2, models }.encode(),
    ]
}

/// Decodes `payload` both ways; neither decoder may panic, and neither
/// may make an allocation larger than the payload can justify. A decoded
/// HELLO_ACK descriptor takes about 48 bytes for its ≥ 22 payload bytes,
/// so the bound is three bytes of allocation per payload byte.
fn assert_decodes_cleanly(payload: &[u8]) {
    let (_, peak) = peak_alloc(|| {
        let _ = Request::decode(payload);
        let _ = Response::decode(payload);
    });
    assert!(
        peak <= 3 * payload.len() + ERROR_SLACK,
        "a {}-byte payload made a {peak}-byte allocation",
        payload.len()
    );
}

/// Reads frames from `stream` until it ends or errors. No read may
/// allocate more than its frame's declared length (and so never more
/// than [`MAX_FRAME_BYTES`]); a frame over the cap allocates nothing but
/// its error.
fn assert_frames_read_cleanly(stream: &[u8]) {
    let mut r = stream;
    loop {
        let declared = r
            .get(..4)
            .map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()) as usize);
        let (result, peak) = peak_alloc(|| wire::read_frame(&mut r));
        let allowed = if declared <= MAX_FRAME_BYTES {
            declared
        } else {
            0
        };
        assert!(
            peak <= allowed + ERROR_SLACK,
            "a frame declaring {declared} bytes made a {peak}-byte allocation"
        );
        match result {
            Ok(Some(frame)) => {
                assert_eq!(frame.len(), declared);
                assert_decodes_cleanly(&frame);
            }
            Ok(None) | Err(_) => break,
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in vec(any::<u8>(), 0..600)) {
        assert_decodes_cleanly(&bytes);
        assert_frames_read_cleanly(&bytes);
    }

    #[test]
    fn mutated_valid_payloads_never_panic_a_decoder(
        seed in 0usize..10,
        flips in vec((any::<usize>(), any::<u8>()), 0..6),
        cut in any::<usize>(),
        grow in any::<bool>(),
        tail in vec(any::<u8>(), 0..40),
    ) {
        let mut payload = valid_payloads().swap_remove(seed);
        for &(at, byte) in &flips {
            let len = payload.len();
            payload[at % len] = byte;
        }
        // Truncate at a random point or append random bytes, so length
        // fields disagree with the payload both ways.
        if grow {
            payload.extend_from_slice(&tail);
        } else {
            payload.truncate(cut % (payload.len() + 1));
        }
        assert_decodes_cleanly(&payload);

        // The same payload behind a length prefix that tells the truth,
        // and behind one that does not.
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).unwrap();
        assert_frames_read_cleanly(&framed);
        framed[..4].copy_from_slice(&(cut as u32).to_le_bytes());
        assert_frames_read_cleanly(&framed);
    }

    #[test]
    fn read_frame_never_allocates_past_the_declared_length_or_the_cap(
        kind in 0usize..4,
        raw in any::<u32>(),
        body in vec(any::<u8>(), 0..300),
    ) {
        let cap = MAX_FRAME_BYTES as u32;
        let declared = match kind {
            0 => raw % 320,                          // short frames, some complete
            1 => cap - raw % 64,                     // just under the cap: mid-frame EOF
            2 => cap + 1 + raw % (u32::MAX - cap),   // over the cap
            _ => raw,                                // anything
        };
        let mut stream = declared.to_le_bytes().to_vec();
        stream.extend_from_slice(&body);
        assert_frames_read_cleanly(&stream);
    }
}
