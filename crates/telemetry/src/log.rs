//! Structured JSON logging: one self-contained JSON object per line.
//!
//! A [`Record`] accumulates typed fields into a single-line JSON object;
//! a [`Logger`] stamps it with a wall-clock `ts_ms` and writes it to a
//! shared sink (stderr or a file). Lines are written under one mutex-held
//! `write_all`, so concurrent request threads cannot interleave bytes.
//!
//! ```
//! let r = telemetry::log::Record::new("request")
//!     .str("id", "r-000001")
//!     .int("lines", 42)
//!     .bool("ok", true);
//! assert_eq!(
//!     r.finish(),
//!     r#"{"event":"request","id":"r-000001","lines":42,"ok":true}"#
//! );
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// A JSON object under construction. Field order is insertion order;
/// keys are written verbatim (callers use static identifier-like keys).
#[derive(Debug)]
pub struct Record {
    buf: String,
}

impl Record {
    /// Starts a record with its `event` discriminator field.
    pub fn new(event: &str) -> Record {
        let mut r = Record {
            buf: String::from("{"),
        };
        r.push_key("event");
        r.push_str_value(event);
        r
    }

    fn push_key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    fn push_str_value(&mut self, v: &str) {
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Record {
        self.push_key(key);
        self.push_str_value(v);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: impl Into<i128>) -> Record {
        self.push_key(key);
        let _ = write!(self.buf, "{}", v.into());
        self
    }

    /// Adds a float field (non-finite values are serialized as `null` —
    /// JSON has no NaN/Inf).
    pub fn float(mut self, key: &str, v: f64) -> Record {
        self.push_key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Record {
        self.push_key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the JSON line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes):
/// quotes and backslashes get a backslash, `\n`/`\r`/`\t` their short
/// forms, other control characters `\u00XX`. [`Record`] writes through it,
/// and so do the daemon's hand-built JSON replies.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// A shared line sink for [`Record`]s: stderr or an append-only file,
/// behind one mutex. Cheap to share behind an `Arc`.
pub struct Logger {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger").finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger writing to stderr.
    pub fn stderr() -> Logger {
        Logger {
            sink: Mutex::new(Box::new(io::stderr())),
        }
    }

    /// A logger appending to `path`. The file is opened `O_APPEND` once
    /// and never reopened, so an external rotator must copy and truncate
    /// it in place (logrotate's `copytruncate`), not rename it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn file(path: &Path) -> io::Result<Logger> {
        let f = File::options().create(true).append(true).open(path)?;
        Ok(Logger {
            sink: Mutex::new(Box::new(f)),
        })
    }

    /// Stamps `record` with `ts_ms` (Unix milliseconds at write time) and
    /// writes it as one line. Write errors are swallowed: telemetry must
    /// never take down the instrumented service.
    pub fn log(&self, record: Record) {
        let mut line = record.int("ts_ms", now_ms() as i128).finish();
        line.push('\n');
        self.write_line(line.as_bytes());
    }

    /// Writes one pre-rendered JSON object verbatim as a log line. For
    /// records built outside [`Record`] — e.g. wide events embedding
    /// nested objects — whose byte-identical rendering is also served
    /// elsewhere; the caller supplies its own timestamp field. Write
    /// errors are swallowed like in [`Logger::log`].
    pub fn log_line(&self, json_object: &str) {
        let mut line = Vec::with_capacity(json_object.len() + 1);
        line.extend_from_slice(json_object.as_bytes());
        line.push(b'\n');
        self.write_line(&line);
    }

    fn write_line(&self, line: &[u8]) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let _ = sink.write_all(line);
        let _ = sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_escapes_and_orders_fields() {
        let line = Record::new("e\"v")
            .str("k", "a\\b\nc")
            .int("n", -3)
            .float("f", 1.5)
            .float("nan", f64::NAN)
            .bool("b", false)
            .finish();
        assert_eq!(
            line,
            r#"{"event":"e\"v","k":"a\\b\nc","n":-3,"f":1.5,"nan":null,"b":false}"#
        );
    }

    #[test]
    fn escape_into_uses_short_forms_then_unicode() {
        let mut out = String::new();
        escape_into("x\"y\\z\n\r\t\u{1}é", &mut out);
        assert_eq!(out, "x\\\"y\\\\z\\n\\r\\t\\u0001é");
    }

    #[test]
    fn logger_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join(format!("telemetry-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let logger = Logger::file(&path).unwrap();
        logger.log(Record::new("a"));
        logger.log(Record::new("b").int("x", 1));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"event":"a","ts_ms":"#));
        assert!(lines[1].contains(r#""x":1"#));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_never_tear_a_line() {
        const THREADS: i64 = 8;
        const RECORDS: i64 = 500;
        let dir = std::env::temp_dir().join(format!(
            "telemetry-log-concurrent-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let logger = Logger::file(&path).unwrap();
        let record = |t: i64, seq: i64| {
            Record::new("w")
                .int("thread", t)
                .int("seq", seq)
                .str("pad", &"x".repeat(64 + t as usize))
        };
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (logger, record) = (&logger, &record);
                s.spawn(move || {
                    for seq in 0..RECORDS {
                        logger.log(record(t, seq));
                    }
                });
            }
        });
        // Every line is exactly one record's JSON object, closed by its
        // `ts_ms` stamp, and every record appears once.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            let (t, seq) = line
                .strip_prefix(r#"{"event":"w","thread":"#)
                .and_then(|r| r.split_once(r#","seq":"#))
                .and_then(|(t, r)| Some((t.parse().ok()?, r.split_once(',')?.0.parse().ok()?)))
                .unwrap_or_else(|| panic!("torn line {line:?}"));
            let mut prefix = record(t, seq).finish();
            prefix.pop();
            let stamp = line
                .strip_prefix(prefix.as_str())
                .and_then(|r| r.strip_prefix(r#","ts_ms":"#))
                .and_then(|r| r.strip_suffix('}'))
                .unwrap_or_else(|| panic!("torn line {line:?}"));
            assert!(stamp.bytes().all(|b| b.is_ascii_digit()), "{line:?}");
            assert!(seen.insert((t, seq)), "duplicate line {line:?}");
        }
        assert_eq!(text.lines().count(), (THREADS * RECORDS) as usize);
        assert_eq!(seen.len(), (THREADS * RECORDS) as usize);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
