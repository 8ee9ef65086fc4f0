//! The line-delimited job protocol.
//!
//! One request per line; responses are a single header line, followed by
//! a byte-counted payload for successful `gen` requests. Everything is
//! ASCII-safe `key=value` fields, so a shell + `nc` (or a five-line
//! Python client) can drive the daemon.
//!
//! Requests:
//!
//! ```text
//! ping
//! quit
//! gen kernel=gemm n=64 [effort=1] [id=my-req]
//! gen [effort=1] space=[n] -> { [i] : 0 <= i < n } ; [n] -> { ... }
//! batch [effort=1] [id=b1] space=S1 ; S2 ; S3
//! ```
//!
//! `space=` must come last: it consumes the rest of the line (set syntax
//! contains spaces), with multiple statements separated by `;`. A `gen`
//! with several spaces runs them as *one* multi-statement generation; a
//! `batch` runs each space as an *independent* generation sharing one
//! queue slot, one parse, and the warm caches, streaming one reply per
//! space in submission order. Any other field is an error.
//!
//! Responses (header line, then `bytes=` payload bytes for `ok`):
//!
//! ```text
//! pong
//! ok id=r-000001 source=gemm lines=41 codegen_ns=123456 compile_ns=2345 certainty=exact bytes=812
//! <812 bytes of generated code, always ending in a newline>
//! err id=r-000002 msg=unknown kernel "nope" (expected one of gemv qr swim gemm lu)
//! busy id=r-000003 queued=256 max=256
//! batch id=b1 count=3        (then one ok/err reply per space, in order)
//! ```

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Close this connection.
    Quit,
    /// Run a codegen job.
    Gen(JobSpec),
    /// Run each space as an independent generation, streaming one reply
    /// per space.
    Batch(JobSpec, Vec<String>),
}

/// What to generate and how hard to try.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen request id; the daemon assigns `r-NNNNNN` when absent.
    pub id: Option<String>,
    /// The iteration spaces to scan.
    pub source: JobSource,
    /// Overhead-removal effort (`CodeGen::effort`); daemon default if absent.
    pub effort: Option<usize>,
}

/// Where the iteration spaces come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A named Table 1 kernel recipe at problem size `n`.
    Kernel {
        /// Recipe name (`gemv`, `qr`, `swim`, `gemm`, `lu`).
        name: String,
        /// Problem size the recipe is built at.
        n: i64,
    },
    /// Ad-hoc iteration-space descriptions in the `omega` set syntax,
    /// one statement per set.
    Spaces(Vec<String>),
}

impl JobSource {
    /// Short tag for logs and response headers.
    pub fn tag(&self) -> String {
        match self {
            JobSource::Kernel { name, .. } => name.clone(),
            JobSource::Spaces(s) => format!("adhoc[{}]", s.len()),
        }
    }
}

/// Most spaces one `batch` line may carry; a guard against one request
/// monopolizing a worker for unbounded wall time.
pub const MAX_BATCH_SPACES: usize = 4096;

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed lines; the daemon
/// reports it in an `err` response rather than dropping the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    match line {
        "ping" => return Ok(Request::Ping),
        "quit" => return Ok(Request::Quit),
        _ => {}
    }
    let (is_batch, rest) = if let Some(rest) = line.strip_prefix("batch") {
        (true, rest)
    } else if let Some(rest) = line.strip_prefix("gen") {
        (false, rest)
    } else {
        return Err(format!(
            "unknown command {:?} (expected ping, quit, gen, or batch)",
            line.split_whitespace().next().unwrap_or("")
        ));
    };
    if !rest.is_empty() && !rest.starts_with(char::is_whitespace) {
        return Err(format!(
            "unknown command {:?}",
            line.split_whitespace().next().unwrap_or("")
        ));
    }
    // `space=` swallows the rest of the line — split it off before
    // tokenizing the key=value head.
    let (head, spaces) = match rest.find("space=") {
        Some(at) => (&rest[..at], Some(&rest[at + "space=".len()..])),
        None => (rest, None),
    };
    let mut id = None;
    let mut kernel: Option<String> = None;
    let mut n: Option<i64> = None;
    let mut effort = None;
    for tok in head.split_whitespace() {
        let Some((key, value)) = tok.split_once('=') else {
            return Err(format!("malformed field {tok:?} (expected key=value)"));
        };
        match key {
            "id" => id = Some(value.to_owned()),
            "kernel" => kernel = Some(value.to_owned()),
            "n" => match value.parse() {
                Ok(v) => n = Some(v),
                Err(_) => return Err(format!("n={value:?} is not an integer")),
            },
            "effort" => match value.parse() {
                Ok(v) => effort = Some(v),
                Err(_) => return Err(format!("effort={value:?} is not an integer")),
            },
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if let Some(id) = &id {
        if id.contains(|c: char| c.is_whitespace() || c == '/') {
            return Err("id must not contain whitespace or '/'".to_owned());
        }
    }
    let split_spaces = |text: &str| -> Vec<String> {
        text.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect()
    };
    if is_batch {
        if kernel.is_some() || n.is_some() {
            return Err("batch takes space=SETS, not kernel=/n=".to_owned());
        }
        let Some(text) = spaces else {
            return Err("batch needs space=SET ; SET ; ...".to_owned());
        };
        let sets = split_spaces(text);
        if sets.is_empty() {
            return Err("batch needs at least one set description".to_owned());
        }
        if sets.len() > MAX_BATCH_SPACES {
            return Err(format!(
                "batch of {} spaces exceeds the {MAX_BATCH_SPACES}-space cap",
                sets.len()
            ));
        }
        return Ok(Request::Batch(
            JobSpec {
                id,
                source: JobSource::Spaces(sets.clone()),
                effort,
            },
            sets,
        ));
    }
    let source = match (kernel, spaces) {
        (Some(_), Some(_)) => return Err("kernel= and space= are mutually exclusive".to_owned()),
        (Some(name), None) => JobSource::Kernel {
            name,
            n: n.unwrap_or(64),
        },
        (None, Some(text)) => {
            let sets = split_spaces(text);
            if sets.is_empty() {
                return Err("space= needs at least one set description".to_owned());
            }
            if n.is_some() {
                return Err("n= only applies to kernel= jobs".to_owned());
            }
            JobSource::Spaces(sets)
        }
        (None, None) => return Err("gen needs kernel=NAME or space=SETS".to_owned()),
    };
    Ok(Request::Gen(JobSpec { id, source, effort }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_jobs() {
        let r = parse_request("gen kernel=gemm n=64 effort=2 id=x1").unwrap();
        assert_eq!(
            r,
            Request::Gen(JobSpec {
                id: Some("x1".into()),
                source: JobSource::Kernel {
                    name: "gemm".into(),
                    n: 64
                },
                effort: Some(2),
            })
        );
        // n defaults to 64, the Table 1 problem size.
        match parse_request("gen kernel=lu").unwrap() {
            Request::Gen(s) => assert_eq!(
                s.source,
                JobSource::Kernel {
                    name: "lu".into(),
                    n: 64
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn space_consumes_rest_of_line_and_splits_on_semicolons() {
        let r = parse_request(
            "gen effort=2 space=[n] -> { [i] : 0 <= i < n } ; [n] -> { [i] : i = 0 }",
        )
        .unwrap();
        match r {
            Request::Gen(s) => {
                assert_eq!(s.effort, Some(2));
                assert_eq!(
                    s.source,
                    JobSource::Spaces(vec![
                        "[n] -> { [i] : 0 <= i < n }".into(),
                        "[n] -> { [i] : i = 0 }".into()
                    ])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheduling_tags_are_unknown_fields() {
        for line in ["gen kernel=gemv prio=bulk", "gen kernel=gemv client=alice"] {
            let err = parse_request(line).unwrap_err();
            assert!(err.starts_with("unknown field"), "{line}: {err}");
        }
    }

    #[test]
    fn batch_parses_per_space_jobs() {
        let r = parse_request("batch id=b1 effort=2 space={ [i] : 0 <= i < 4 } ; { [i] : i = 9 }")
            .unwrap();
        match r {
            Request::Batch(spec, spaces) => {
                assert_eq!(spec.id.as_deref(), Some("b1"));
                assert_eq!(spec.effort, Some(2));
                assert_eq!(
                    spaces,
                    vec![
                        "{ [i] : 0 <= i < 4 }".to_owned(),
                        "{ [i] : i = 9 }".to_owned()
                    ]
                );
                assert_eq!(spec.source, JobSource::Spaces(spaces));
            }
            other => panic!("unexpected {other:?}"),
        }
        // batch without spaces, with kernel=, or empty is malformed.
        assert!(parse_request("batch").is_err());
        assert!(parse_request("batch kernel=gemm").is_err());
        assert!(parse_request("batch space=").is_err());
        assert!(parse_request("batch space= ; ;").is_err());
    }

    #[test]
    fn control_lines_and_errors() {
        assert_eq!(parse_request(" ping "), Ok(Request::Ping));
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
        assert!(parse_request("generate").is_err());
        assert!(parse_request("gen").is_err());
        assert!(parse_request("gen kernel=a space=b").is_err());
        assert!(parse_request("gen kernel=a effort=x").is_err());
        assert!(parse_request("gen kernel=a id=a b").is_err());
        assert!(parse_request("batches x").is_err());
        assert!(parse_request("frobnicate x").is_err());
    }
}
