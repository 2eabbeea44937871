//! Crash-safe report IO: atomic writes and checksummed envelopes.
//!
//! A SIGKILL mid-`fs::write` leaves a torn file; a torn JSON report that
//! still happens to parse is worse than a missing one, because a later
//! `--resume` would consume it as healthy. This module closes both holes:
//!
//! * [`atomic_write`] stages content in a temp file **in the target
//!   directory**, fsyncs it, and renames it over the destination — so a
//!   report file on disk is always either the previous complete version
//!   or the new complete version, never a prefix of one.
//! * [`seal`]/[`unseal`] wrap a JSON payload in a schema-versioned
//!   envelope carrying the payload's byte length and CRC-32, so the
//!   loader detects truncation, bit flips, and format drift instead of
//!   trusting whatever bytes survived a crash:
//!
//!   ```json
//!   {"stellar_envelope":"stellar-envelope-v1","crc32":3632233996,"len":2,"payload":{}}
//!   ```
//!
//! Everything the harness persists — per-experiment reports, the
//! consolidated `metrics.json`, the `run_state.json` resume manifest,
//! `run_summary.json`, `profile.json`, and the design-cache entries —
//! goes through [`write_envelope`] / [`read_envelope`]. Chrome traces stay plain JSON (external tools load
//! them directly) but are still written atomically.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The envelope schema identifier. Bump only with a corresponding update
/// to the loader, the CI checks, and DESIGN.md's "Durability & recovery"
/// section.
pub const ENVELOPE_SCHEMA: &str = "stellar-envelope-v1";

/// The exact prefix every sealed file starts with — also the sniff used
/// to distinguish envelopes from bare-JSON files such as Chrome traces.
pub const ENVELOPE_PREFIX: &str = "{\"stellar_envelope\":\"";

/// CRC-32 (IEEE 802.3, the zlib/`cksum -o3` polynomial), bit-reflected,
/// init and xorout `0xFFFF_FFFF`. Slice-by-8: eight 256-entry tables,
/// built at compile time, fold eight input bytes per step, and the tail
/// goes a byte at a time through the first table.
pub fn crc32(bytes: &[u8]) -> u32 {
    /// `TABLES[k][b]`: the CRC register contribution of byte `b` followed
    /// by `k` zero bytes.
    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    };
    let byte = |x: u32, n: u32| ((x >> (8 * n)) & 0xff) as usize;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = TABLES[7][byte(lo, 0)]
            ^ TABLES[6][byte(lo, 1)]
            ^ TABLES[5][byte(lo, 2)]
            ^ TABLES[4][byte(lo, 3)]
            ^ TABLES[3][byte(hi, 0)]
            ^ TABLES[2][byte(hi, 1)]
            ^ TABLES[1][byte(hi, 2)]
            ^ TABLES[0][byte(hi, 3)];
    }
    for &b in words.remainder() {
        c = TABLES[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Why an envelope failed to open. Every variant names the evidence, so a
/// corrupted report produces an actionable message rather than a generic
/// parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file does not start with the envelope header at all.
    NotAnEnvelope,
    /// The header names a schema version this loader does not speak.
    WrongVersion {
        /// The version string found in the header.
        found: String,
    },
    /// The payload is shorter or longer than the length the header
    /// recorded — the classic torn-write signature.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload's CRC-32 does not match the header — a bit flip or an
    /// in-place edit.
    ChecksumMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// The header itself is structurally broken (e.g. non-numeric CRC).
    MalformedHeader(&'static str),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::NotAnEnvelope => write!(f, "not a sealed envelope"),
            EnvelopeError::WrongVersion { found } => {
                write!(
                    f,
                    "envelope version {found:?} (expected {ENVELOPE_SCHEMA:?})"
                )
            }
            EnvelopeError::Truncated { expected, actual } => write!(
                f,
                "payload truncated: header promises {expected} bytes, found {actual}"
            ),
            EnvelopeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: header {expected:#010x}, computed {actual:#010x}"
            ),
            EnvelopeError::MalformedHeader(what) => write!(f, "malformed envelope header: {what}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// A durable-IO failure, carrying the operation and the path that failed
/// so callers can report *which* file went wrong, not just that one did.
#[derive(Debug)]
pub enum DurableError {
    /// Creating (or racing to create) a directory failed.
    CreateDir {
        /// The directory that could not be created.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// Staging, syncing, or renaming the temp file failed.
    Write {
        /// The destination the atomic write was for.
        path: PathBuf,
        /// Which stage failed (`create temp`, `write temp`, `sync`, `rename`).
        stage: &'static str,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// Reading the file failed.
    Read {
        /// The file that could not be read.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// The file was read but its envelope did not validate.
    Envelope {
        /// The offending file.
        path: PathBuf,
        /// What the validator rejected.
        source: EnvelopeError,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::CreateDir { path, source } => {
                write!(f, "create directory {}: {source}", path.display())
            }
            DurableError::Write {
                path,
                stage,
                source,
            } => write!(f, "atomic write {} ({stage}): {source}", path.display()),
            DurableError::Read { path, source } => {
                write!(f, "read {}: {source}", path.display())
            }
            DurableError::Envelope { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for DurableError {}

/// `create_dir_all` that tolerates the concurrent-create race: two
/// processes (or two `-j N` workers) racing to create the same output
/// directory must both succeed, and a real failure must name the path.
pub fn ensure_dir(dir: &Path) -> Result<(), DurableError> {
    match fs::create_dir_all(dir) {
        Ok(()) => Ok(()),
        // Lost the race to a sibling — the directory exists now, which is
        // all we wanted.
        Err(_) if dir.is_dir() => Ok(()),
        Err(source) => Err(DurableError::CreateDir {
            path: dir.to_path_buf(),
            source,
        }),
    }
}

/// Monotonic discriminator so concurrent atomic writes from different
/// threads of one process never collide on a temp name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, `write` + `fsync`, then `rename` over the destination (and
/// a best-effort directory fsync so the rename itself survives a crash).
/// A reader — or a post-crash `--resume` — therefore sees either the old
/// complete file or the new complete file, never a torn prefix.
pub fn atomic_write(path: &Path, contents: &[u8]) -> Result<(), DurableError> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    ensure_dir(&dir)?;
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let tmp = dir.join(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write_err = |stage: &'static str, source: std::io::Error| DurableError::Write {
        path: path.to_path_buf(),
        stage,
        source,
    };
    let staged = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| write_err("create temp", e))?;
        f.write_all(contents)
            .map_err(|e| write_err("write temp", e))?;
        f.sync_all().map_err(|e| write_err("sync temp", e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| write_err("rename", e))
    })();
    if staged.is_err() {
        // Never leave temp litter behind a failed write.
        let _ = fs::remove_file(&tmp);
        return staged;
    }
    // Persist the rename itself. Directory fsync is not supported
    // everywhere; a failure here does not undo the (already atomic)
    // rename, so it is best-effort.
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Seals a JSON payload into a checksummed envelope. The output is itself
/// one JSON object, so generic tools can still inspect `.payload`.
pub fn seal(payload: &str) -> String {
    format!(
        "{ENVELOPE_PREFIX}{ENVELOPE_SCHEMA}\",\"crc32\":{},\"len\":{},\"payload\":{payload}}}",
        crc32(payload.as_bytes()),
        payload.len(),
    )
}

/// True when `text` looks like a sealed envelope (it starts with the
/// envelope header). Used to tell envelopes from bare-JSON files such as
/// Chrome traces.
pub fn is_envelope(text: &str) -> bool {
    text.trim_start().starts_with(ENVELOPE_PREFIX)
}

/// Opens a sealed envelope, verifying the schema version, the recorded
/// payload length (truncation), and the CRC-32 (bit flips), and returns
/// the payload slice.
///
/// # Errors
///
/// The specific [`EnvelopeError`] describing what failed to validate.
pub fn unseal(text: &str) -> Result<&str, EnvelopeError> {
    let t = text.trim();
    // A file that is valid JSON but not an envelope gets the generic
    // rejection; header bit flips land here too.
    let rest = t
        .strip_prefix(ENVELOPE_PREFIX)
        .ok_or(EnvelopeError::NotAnEnvelope)?;
    let vend = rest.find('"').ok_or(EnvelopeError::MalformedHeader(
        "unterminated version string",
    ))?;
    let version = &rest[..vend];
    if version != ENVELOPE_SCHEMA {
        return Err(EnvelopeError::WrongVersion {
            found: version.to_string(),
        });
    }
    let rest = rest[vend + 1..]
        .strip_prefix(",\"crc32\":")
        .ok_or(EnvelopeError::MalformedHeader("missing crc32 field"))?;
    let cend = rest
        .find(',')
        .ok_or(EnvelopeError::MalformedHeader("unterminated crc32 field"))?;
    let expected_crc: u32 = rest[..cend]
        .parse()
        .map_err(|_| EnvelopeError::MalformedHeader("non-numeric crc32"))?;
    let rest = rest[cend..]
        .strip_prefix(",\"len\":")
        .ok_or(EnvelopeError::MalformedHeader("missing len field"))?;
    let lend = rest
        .find(',')
        .ok_or(EnvelopeError::MalformedHeader("unterminated len field"))?;
    let expected_len: usize = rest[..lend]
        .parse()
        .map_err(|_| EnvelopeError::MalformedHeader("non-numeric len"))?;
    let body = rest[lend..]
        .strip_prefix(",\"payload\":")
        .ok_or(EnvelopeError::MalformedHeader("missing payload field"))?;
    // The payload runs to the envelope's closing brace. A torn write cuts
    // the file short, so either the brace is gone or the payload is
    // shorter than the header promised.
    let payload = body.strip_suffix('}').ok_or(EnvelopeError::Truncated {
        expected: expected_len,
        actual: body.len(),
    })?;
    if payload.len() != expected_len {
        return Err(EnvelopeError::Truncated {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_crc = crc32(payload.as_bytes());
    if actual_crc != expected_crc {
        return Err(EnvelopeError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

/// Seals `payload` and writes it to `path` atomically.
///
/// # Errors
///
/// A [`DurableError`] naming the failing path and stage.
pub fn write_envelope(path: &Path, payload: &str) -> Result<(), DurableError> {
    atomic_write(path, seal(payload).as_bytes())
}

/// Reads and validates the envelope at `path`, returning its payload.
///
/// # Errors
///
/// [`DurableError::Read`] if the file cannot be read,
/// [`DurableError::Envelope`] if it fails validation.
pub fn read_envelope(path: &Path) -> Result<String, DurableError> {
    let text = fs::read_to_string(path).map_err(|source| DurableError::Read {
        path: path.to_path_buf(),
        source,
    })?;
    unseal(&text)
        .map(str::to_string)
        .map_err(|source| DurableError::Envelope {
            path: path.to_path_buf(),
            source,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("stellar-durable-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_reference_vectors() {
        // Published IEEE CRC-32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The CRC-32 definition, one bit at a time — no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xffff_ffff
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slice-by-8 agrees with the definition on every length, and
        /// whatever the input's offset from an eight-byte boundary.
        #[test]
        fn crc32_matches_the_bitwise_definition(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096 + 7),
        ) {
            for offset in 0..8.min(bytes.len() + 1) {
                let tail = &bytes[offset..bytes.len().min(offset + 4096)];
                prop_assert_eq!(crc32(tail), crc32_bitwise(tail), "offset {}", offset);
            }
        }
    }

    #[test]
    fn seal_unseal_roundtrip() {
        for payload in [
            "{}",
            "{\"id\":\"e04\",\"nested\":{\"a\":[1,2,3]}}",
            "{\"s\":\"}\"}",
        ] {
            let sealed = seal(payload);
            assert!(is_envelope(&sealed));
            assert_eq!(unseal(&sealed).unwrap(), payload);
        }
    }

    #[test]
    fn trailing_whitespace_is_tolerated() {
        let sealed = format!("{}\n", seal("{\"id\":\"e01\"}"));
        assert_eq!(unseal(&sealed).unwrap(), "{\"id\":\"e01\"}");
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        // Cutting the sealed file at *any* byte boundary must be rejected
        // (never mistaken for a valid envelope) — the kill-9 signature.
        let sealed = seal("{\"id\":\"e04\",\"wall_ms\":12.5}");
        for cut in 1..sealed.len() {
            assert!(
                unseal(&sealed[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let sealed = seal("{\"id\":\"e04\",\"cycles\":123456}");
        let bytes = sealed.as_bytes();
        for pos in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[pos] ^= 0x01;
            let Ok(text) = std::str::from_utf8(&flipped) else {
                continue;
            };
            assert!(
                unseal(text).is_err(),
                "flip at byte {pos} went undetected: {text}"
            );
        }
    }

    #[test]
    fn wrong_version_is_named() {
        let sealed = seal("{}").replace(ENVELOPE_SCHEMA, "stellar-envelope-v9");
        assert_eq!(
            unseal(&sealed),
            Err(EnvelopeError::WrongVersion {
                found: "stellar-envelope-v9".to_string()
            })
        );
    }

    #[test]
    fn wrong_checksum_is_named() {
        let payload = "{\"id\":\"e01\"}";
        let sealed = format!(
            "{ENVELOPE_PREFIX}{ENVELOPE_SCHEMA}\",\"crc32\":1,\"len\":{},\"payload\":{payload}}}",
            payload.len()
        );
        match unseal(&sealed) {
            Err(EnvelopeError::ChecksumMismatch { expected: 1, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bare_json_is_not_an_envelope() {
        assert_eq!(
            unseal("{\"id\":\"e01\"}"),
            Err(EnvelopeError::NotAnEnvelope)
        );
        assert!(!is_envelope("{\"id\":\"e01\"}"));
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = tmpdir("atomic");
        let path = dir.join("sub").join("report.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, b"second, longer than before").unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "second, longer than before"
        );
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_read_envelope_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("e07.json");
        write_envelope(&path, "{\"id\":\"e07\"}").unwrap();
        assert_eq!(read_envelope(&path).unwrap(), "{\"id\":\"e07\"}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_errors_name_the_path() {
        let dir = tmpdir("errors");
        let missing = dir.join("nope.json");
        let err = read_envelope(&missing).unwrap_err();
        assert!(err.to_string().contains("nope.json"), "{err}");
        fs::create_dir_all(&dir).unwrap();
        let torn = dir.join("torn.json");
        let sealed = seal("{\"id\":\"e01\"}");
        fs::write(&torn, &sealed[..sealed.len() - 4]).unwrap();
        let err = read_envelope(&torn).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("torn.json") && msg.contains("truncated"),
            "{msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_dir_tolerates_races_and_reports_real_failures() {
        let dir = tmpdir("ensure");
        fs::create_dir_all(&dir).unwrap();
        // Already exists: fine, repeatedly.
        ensure_dir(&dir).unwrap();
        ensure_dir(&dir).unwrap();
        // A file squatting on the path is a real failure that names it.
        let squatter = dir.join("file");
        fs::write(&squatter, "x").unwrap();
        let err = ensure_dir(&squatter.join("child")).unwrap_err();
        assert!(err.to_string().contains("child"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
