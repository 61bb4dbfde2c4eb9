//! The worker wire protocol: length-prefixed frames over stdio.
//!
//! The parent and its `comptest worker` children speak a binary protocol
//! built from the same primitives as the cache's record codec (the shared
//! `wire` module): a fixed magic + version in the handshake, LEB128
//! varints for every integer, length-validated strings and byte blobs.
//! Each frame travels as `[u32 LE payload length][payload]`; the payload
//! is one tag byte followed by the variant's fields.
//!
//! Like the cache codec, the decoder is hardened for **hostile input** — a
//! worker is an external process whose stdout could contain anything (a
//! stray `println!`, a crashed allocator, an impostor binary). Every
//! length is validated against the remaining bytes, varints are
//! overflow-checked, strings are UTF-8 validated, unknown tags are
//! errors, and frames are capped at [`MAX_FRAME`] bytes. A malformed
//! frame must surface as a [`FrameError`] (the parent treats it as a
//! worker death, the worker as a fatal protocol error) — never a panic or
//! an unbounded allocation.

use std::io::{self, Read, Write};

use comptest_core::exec::{ExecOptions, SampleMode};
use comptest_dut::DeviceSpec;
use comptest_dut::ElectricalConfig;
use comptest_model::{CanFrameId, SimTime};

use crate::wire::{put_f64, put_str, put_varint, Reader, WireError};

/// Protocol magic carried by the `Hello` handshake frame.
pub(crate) const MAGIC: [u8; 3] = *b"CWP";

/// Protocol version; bumped on any wire-layout change. A worker that sees
/// a different version refuses the handshake with an `Error` frame, so a
/// mixed-version parent/worker pair fails loudly instead of corrupting.
pub(crate) const VERSION: u8 = 2;

/// Upper bound on one frame's payload, validated before allocating. Real
/// frames are a few KiB (a stand text, a script XML, a result record); a
/// length field beyond this is hostile or corrupt.
pub(crate) const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// A malformed frame: truncated, oversized, bad tag, bad UTF-8, varint
/// overflow. The parent maps this to a worker death; the worker replies
/// with an `Error` frame and exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub(crate) String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker frame decode: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FrameError> {
    Err(FrameError(msg.into()))
}

/// Writes one `[u32 LE length][payload]` frame and flushes, so a child
/// blocked on its next frame always sees complete bytes.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF **at a frame boundary** (the
/// peer closed the stream); EOF mid-frame, an oversized length or any I/O
/// problem is an error.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Frame-level helpers over the shared `wire` primitives
// ---------------------------------------------------------------------------

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError(e.0)
    }
}

fn read_string(r: &mut Reader<'_>) -> Result<String, FrameError> {
    Ok(r.str()?.to_owned())
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, FrameError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => err(format!("bad bool byte {other}")),
    }
}

fn read_usize(r: &mut Reader<'_>) -> Result<usize, FrameError> {
    usize::try_from(r.varint()?).map_err(|_| FrameError("index exceeds usize".into()))
}

/// A varint count followed by that many varints.
fn read_varints(r: &mut Reader<'_>) -> Result<Vec<u64>, FrameError> {
    let n = r.length()?;
    (0..n).map(|_| Ok(r.varint()?)).collect()
}

fn put_varints(out: &mut Vec<u8>, values: &[u64]) {
    put_varint(out, values.len() as u64);
    for &v in values {
        put_varint(out, v);
    }
}

// ---------------------------------------------------------------------------
// DeviceSpec
// ---------------------------------------------------------------------------

fn put_spec(out: &mut Vec<u8>, spec: &DeviceSpec) {
    put_str(out, &spec.behavior);
    put_f64(out, spec.cfg.ubatt);
    put_f64(out, spec.cfg.pull_up);
    put_f64(out, spec.cfg.low_threshold);
    put_f64(out, spec.cfg.high_threshold);
    put_f64(out, spec.cfg.drive_resistance);
    let frames: Vec<u64> = spec.dropped_frames.iter().map(|f| u64::from(f.0)).collect();
    put_varints(out, &frames);
}

fn read_spec(r: &mut Reader<'_>) -> Result<DeviceSpec, FrameError> {
    let behavior = read_string(r)?;
    let cfg = ElectricalConfig {
        ubatt: r.f64()?,
        pull_up: r.f64()?,
        low_threshold: r.f64()?,
        high_threshold: r.f64()?,
        drive_resistance: r.f64()?,
    };
    let dropped_frames = read_varints(r)?
        .into_iter()
        .map(|id| {
            u32::try_from(id)
                .map(CanFrameId)
                .map_err(|_| FrameError("CAN frame id exceeds u32".into()))
        })
        .collect::<Result<_, _>>()?;
    Ok(DeviceSpec {
        behavior,
        cfg,
        dropped_frames,
    })
}

// ---------------------------------------------------------------------------
// Parent → worker frames
// ---------------------------------------------------------------------------

/// Frames the parent sends to a worker child over its stdin.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ToWorker {
    /// Handshake: protocol magic + version and the campaign's execution
    /// options. Always the first frame on the pipe.
    Hello {
        /// The campaign's execution options, applied to every job.
        exec: ExecOptions,
    },
    /// Interns one test stand under `id`; later `RunRange` frames
    /// reference it by id. Sent at most once per (worker, stand).
    Stand {
        /// Parent-assigned intern id.
        id: u64,
        /// The stand's canonical text (`write_stand` round-trip).
        text: String,
    },
    /// Interns one generated test script under `id` (XML round-trip).
    Script {
        /// Parent-assigned intern id.
        id: u64,
        /// The script's XML.
        xml: String,
        /// Source-sheet spellings of the script's signal names. The XML
        /// writer canonicalises names to lowercase, so a worker re-parsing
        /// `xml` would plan — and word its diagnostics — with different
        /// bytes than the parent's in-process executors. Shipping the
        /// original spellings lets the worker restore them after parse,
        /// keeping remote results byte-identical to serial.
        names: Vec<String>,
    },
    /// Executes one job: a contiguous range of one cell's tests, in order,
    /// each against its own fresh device realized from `spec`, stopping at
    /// the first planning error.
    RunRange {
        /// Merge-slot index, echoed back in `RangeDone`.
        job: usize,
        /// Interned script ids of the range, in suite order.
        scripts: Vec<u64>,
        /// Interned stand id.
        stand: u64,
        /// Registry device recipe, one fresh device per test.
        spec: DeviceSpec,
    },
    /// Cooperative cancel fan-out: finish nothing more, exit cleanly.
    Shutdown,
}

impl ToWorker {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ToWorker::Hello { exec } => {
                out.push(0);
                out.extend_from_slice(&MAGIC);
                out.push(VERSION);
                match exec.sample {
                    SampleMode::EndOfStep => out.push(0),
                    SampleMode::Continuous { interval } => {
                        out.push(1);
                        put_varint(&mut out, interval.as_micros());
                    }
                }
                out.push(u8::from(exec.stop_on_failure));
            }
            ToWorker::Stand { id, text } => {
                out.push(1);
                put_varint(&mut out, *id);
                put_str(&mut out, text);
            }
            ToWorker::Script { id, xml, names } => {
                out.push(2);
                put_varint(&mut out, *id);
                put_str(&mut out, xml);
                put_varint(&mut out, names.len() as u64);
                for name in names {
                    put_str(&mut out, name);
                }
            }
            ToWorker::RunRange {
                job,
                scripts,
                stand,
                spec,
            } => {
                out.push(3);
                put_varint(&mut out, *job as u64);
                put_varints(&mut out, scripts);
                put_varint(&mut out, *stand);
                put_spec(&mut out, spec);
            }
            ToWorker::Shutdown => out.push(4),
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8()? {
            0 => {
                if r.take(3)? != MAGIC {
                    return err("bad protocol magic");
                }
                let version = r.u8()?;
                if version != VERSION {
                    return err(format!("protocol version {version}, expected {VERSION}"));
                }
                let sample = match r.u8()? {
                    0 => SampleMode::EndOfStep,
                    1 => SampleMode::Continuous {
                        interval: SimTime::from_micros(r.varint()?),
                    },
                    other => return err(format!("bad sample mode tag {other}")),
                };
                ToWorker::Hello {
                    exec: ExecOptions {
                        sample,
                        stop_on_failure: read_bool(&mut r)?,
                    },
                }
            }
            1 => ToWorker::Stand {
                id: r.varint()?,
                text: read_string(&mut r)?,
            },
            2 => {
                let id = r.varint()?;
                let xml = read_string(&mut r)?;
                let n = r.length()?;
                let names = (0..n)
                    .map(|_| read_string(&mut r))
                    .collect::<Result<_, _>>()?;
                ToWorker::Script { id, xml, names }
            }
            3 => ToWorker::RunRange {
                job: read_usize(&mut r)?,
                scripts: read_varints(&mut r)?,
                stand: r.varint()?,
                spec: read_spec(&mut r)?,
            },
            4 => ToWorker::Shutdown,
            other => return err(format!("bad parent frame tag {other}")),
        };
        read_done(&r)?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Worker → parent frames
// ---------------------------------------------------------------------------

/// Frames a worker child sends to the parent over its stdout. Workers send
/// no progress events: the parent emits every event itself, from the one
/// event-shape implementation all executors share.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FromWorker {
    /// Handshake acknowledgement (version echoed for diagnostics).
    Ready {
        /// The worker's protocol version.
        version: u8,
    },
    /// Outcome of a `RunRange` frame: the determined per-test outcomes (a
    /// prefix of the range when a planning error stopped it) as an encoded
    /// cache record (`cache::binary` layout, so results round-trip
    /// bit-exactly), plus each executed test's worker-side wall time.
    RangeDone {
        /// Echoed merge-slot index.
        job: usize,
        /// `cache::binary`-encoded record with the range's outcomes.
        record: Vec<u8>,
        /// Wall-clock microseconds per executed test, in outcome order.
        walls: Vec<u64>,
    },
    /// Fatal worker-side problem (protocol violation, unrealizable device
    /// spec). The worker exits right after sending it.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl FromWorker {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            FromWorker::Ready { version } => {
                out.push(0);
                out.push(*version);
            }
            FromWorker::RangeDone { job, record, walls } => {
                out.push(1);
                put_varint(&mut out, *job as u64);
                put_varint(&mut out, record.len() as u64);
                out.extend_from_slice(record);
                put_varints(&mut out, walls);
            }
            FromWorker::Error { message } => {
                out.push(2);
                put_str(&mut out, message);
            }
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8()? {
            0 => FromWorker::Ready { version: r.u8()? },
            1 => FromWorker::RangeDone {
                job: read_usize(&mut r)?,
                record: {
                    let n = r.length()?;
                    r.take(n)?.to_vec()
                },
                walls: read_varints(&mut r)?,
            },
            2 => FromWorker::Error {
                message: read_string(&mut r)?,
            },
            other => return err(format!("bad worker frame tag {other}")),
        };
        read_done(&r)?;
        Ok(frame)
    }
}

fn read_done(r: &Reader<'_>) -> Result<(), FrameError> {
    if !r.is_empty() {
        return err(format!("{} trailing bytes", r.remaining()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            behavior: "interior_light".into(),
            cfg: ElectricalConfig::default(),
            dropped_frames: vec![CanFrameId(0x2A0), CanFrameId(0x123)],
        }
    }

    #[test]
    fn to_worker_frames_round_trip() {
        let frames = vec![
            ToWorker::Hello {
                exec: ExecOptions {
                    sample: SampleMode::Continuous {
                        interval: SimTime::from_micros(12_500),
                    },
                    stop_on_failure: true,
                },
            },
            ToWorker::Stand {
                id: 3,
                text: "[stand]\nname = HIL-A\n".into(),
            },
            ToWorker::Script {
                id: 9,
                xml: "<testscript name=\"t\"/>".into(),
                names: vec!["INT_ILL".into(), "Ds_Fl".into()],
            },
            ToWorker::RunRange {
                job: 7,
                scripts: vec![9],
                stand: 3,
                spec: spec(),
            },
            ToWorker::RunRange {
                job: 4,
                scripts: vec![9, 10, 11],
                stand: 3,
                spec: spec(),
            },
            ToWorker::Shutdown,
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(ToWorker::decode(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn from_worker_frames_round_trip() {
        let frames = vec![
            FromWorker::Ready { version: VERSION },
            FromWorker::RangeDone {
                job: 5,
                record: vec![1, 2, 3],
                walls: vec![420],
            },
            FromWorker::RangeDone {
                job: 2,
                record: vec![],
                walls: vec![],
            },
            FromWorker::Error {
                message: "unrealizable spec".into(),
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(FromWorker::decode(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn hostile_bytes_never_panic() {
        // Truncations of a valid frame at every length.
        let valid = ToWorker::RunRange {
            job: 7,
            scripts: vec![9, 10],
            stand: 3,
            spec: spec(),
        }
        .encode();
        for n in 0..valid.len() {
            assert!(ToWorker::decode(&valid[..n]).is_err(), "prefix {n} decoded");
            let _ = FromWorker::decode(&valid[..n]);
        }
        // Bad tags, overlong varints, lying lengths, bad UTF-8.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![99],
            vec![
                1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            ],
            vec![1, 0, 0xff],
            vec![1, 0, 2, 0xff, 0xfe],
            vec![0, b'X', b'Y', b'Z', 1, 0, 0],
            vec![0, b'C', b'W', b'P', 99, 0, 0],
            vec![0, b'C', b'W', b'P', 1, 0, 0],
            vec![2, 1, 0x85],
            vec![3, 0, 0xff, 0xff, 0x7f],
            vec![1, 0, 0xff, 0xff, 0x7f],
        ];
        for bytes in &cases {
            let _ = ToWorker::decode(bytes);
            let _ = FromWorker::decode(bytes);
        }
        // Trailing garbage after a valid frame is rejected, not ignored.
        let mut padded = ToWorker::Shutdown.encode();
        padded.push(0);
        assert!(ToWorker::decode(&padded).is_err());
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_before_allocation() {
        let mut stream: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(read_frame(&mut stream).is_err());
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        let mut torn: &[u8] = &[5, 0];
        assert!(read_frame(&mut torn).is_err());
        let mut short_payload: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert!(read_frame(&mut short_payload).is_err());
    }
}
