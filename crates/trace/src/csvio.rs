//! Flat-file trace import/export.
//!
//! A deliberately simple, dependency-free CSV dialect: one record per
//! line, integer fields, `#`-prefixed comment lines, a mandatory header
//! naming the record type. All ids are numeric so no quoting/escaping is
//! ever needed.
//!
//! Formats:
//!
//! ```text
//! #arq-pairs v1
//! time,guid,src,via,responder,query
//! 17,42,3,9,120,7
//! ```
//!
//! and for raw (pre-join) traces:
//!
//! ```text
//! #arq-raw v1
//! Q,time,guid,from,query
//! R,time,guid,via,responder,file
//! ```

use crate::record::{Guid, HostId, PairRecord, QueryId, QueryRecord, ReplyRecord};
use arq_simkern::SimTime;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};

const PAIRS_HEADER: &str = "#arq-pairs v1";
const RAW_HEADER: &str = "#arq-raw v1";

/// Errors arising while parsing a trace file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem, with line number and message.
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn malformed(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        message: message.into(),
    }
}

/// Writes a pair stream in `#arq-pairs v1` format.
pub fn write_pairs<W: Write>(mut w: W, pairs: &[PairRecord]) -> io::Result<()> {
    let mut buf = String::with_capacity(64 * (pairs.len() + 2));
    buf.push_str(PAIRS_HEADER);
    buf.push('\n');
    buf.push_str("time,guid,src,via,responder,query\n");
    for p in pairs {
        let _ = writeln!(
            buf,
            "{},{},{},{},{},{}",
            p.time.ticks(),
            p.guid.0,
            p.src.0,
            p.via.0,
            p.responder.0,
            p.query.0
        );
    }
    w.write_all(buf.as_bytes())
}

/// Reads a pair stream written by [`write_pairs`].
pub fn read_pairs<R: Read>(r: R) -> Result<Vec<PairRecord>, ParseError> {
    let reader = BufReader::new(r);
    let mut pairs = Vec::new();
    let mut lines = reader.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| malformed(1, "empty file"))?;
    let first = first?;
    if first.trim() != PAIRS_HEADER {
        return Err(malformed(
            1,
            format!("expected `{PAIRS_HEADER}`, got `{first}`"),
        ));
    }
    for (idx, line) in lines {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("time,") {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() != 6 {
            return Err(malformed(
                lineno,
                format!("expected 6 fields, got {}", fields.len()),
            ));
        }
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| malformed(lineno, format!("bad {what}: `{s}`")))
        };
        let guid = fields[1]
            .parse::<u128>()
            .map_err(|_| malformed(lineno, format!("bad guid: `{}`", fields[1])))?;
        pairs.push(PairRecord {
            time: SimTime::from_ticks(parse_u64(fields[0], "time")?),
            guid: Guid(guid),
            src: HostId(parse_u64(fields[2], "src")? as u32),
            via: HostId(parse_u64(fields[3], "via")? as u32),
            responder: HostId(parse_u64(fields[4], "responder")? as u32),
            query: QueryId(parse_u64(fields[5], "query")? as u32),
        });
    }
    Ok(pairs)
}

/// Writes a raw (pre-join) trace in `#arq-raw v1` format.
pub fn write_raw<W: Write>(
    mut w: W,
    queries: &[QueryRecord],
    replies: &[ReplyRecord],
) -> io::Result<()> {
    let mut buf = String::with_capacity(48 * (queries.len() + replies.len() + 2));
    buf.push_str(RAW_HEADER);
    buf.push('\n');
    for q in queries {
        let _ = writeln!(
            buf,
            "Q,{},{},{},{}",
            q.time.ticks(),
            q.guid.0,
            q.from.0,
            q.query.0
        );
    }
    for r in replies {
        let _ = writeln!(
            buf,
            "R,{},{},{},{},{}",
            r.time.ticks(),
            r.guid.0,
            r.via.0,
            r.responder.0,
            r.file.0
        );
    }
    w.write_all(buf.as_bytes())
}

/// Reads a raw trace written by [`write_raw`].
pub fn read_raw<R: Read>(r: R) -> Result<(Vec<QueryRecord>, Vec<ReplyRecord>), ParseError> {
    let reader = BufReader::new(r);
    let mut queries = Vec::new();
    let mut replies = Vec::new();
    let mut lines = reader.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| malformed(1, "empty file"))?;
    let first = first?;
    if first.trim() != RAW_HEADER {
        return Err(malformed(
            1,
            format!("expected `{RAW_HEADER}`, got `{first}`"),
        ));
    }
    for (idx, line) in lines {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| malformed(lineno, format!("bad {what}: `{s}`")))
        };
        match fields[0] {
            "Q" => {
                if fields.len() != 5 {
                    return Err(malformed(lineno, "Q record needs 5 fields"));
                }
                queries.push(QueryRecord {
                    time: SimTime::from_ticks(parse_u64(fields[1], "time")?),
                    guid: Guid(
                        fields[2]
                            .parse::<u128>()
                            .map_err(|_| malformed(lineno, "bad guid"))?,
                    ),
                    from: HostId(parse_u64(fields[3], "from")? as u32),
                    query: QueryId(parse_u64(fields[4], "query")? as u32),
                });
            }
            "R" => {
                if fields.len() != 6 {
                    return Err(malformed(lineno, "R record needs 6 fields"));
                }
                replies.push(ReplyRecord {
                    time: SimTime::from_ticks(parse_u64(fields[1], "time")?),
                    guid: Guid(
                        fields[2]
                            .parse::<u128>()
                            .map_err(|_| malformed(lineno, "bad guid"))?,
                    ),
                    via: HostId(parse_u64(fields[3], "via")? as u32),
                    responder: HostId(parse_u64(fields[4], "responder")? as u32),
                    file: QueryId(parse_u64(fields[5], "file")? as u32),
                });
            }
            other => {
                return Err(malformed(lineno, format!("unknown record tag `{other}`")));
            }
        }
    }
    Ok((queries, replies))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pairs() -> Vec<PairRecord> {
        (0..20)
            .map(|i| PairRecord {
                time: SimTime::from_ticks(i * 3),
                guid: Guid(u128::from(i) << 64 | 7),
                src: HostId(i as u32 % 4),
                via: HostId(10 + i as u32 % 3),
                responder: HostId(100 + i as u32),
                query: QueryId(i as u32 % 5),
            })
            .collect()
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs = sample_pairs();
        let mut buf = Vec::new();
        write_pairs(&mut buf, &pairs).unwrap();
        let back = read_pairs(&buf[..]).unwrap();
        assert_eq!(pairs, back);
    }

    #[test]
    fn raw_roundtrip() {
        let queries = vec![QueryRecord {
            time: SimTime::from_ticks(5),
            guid: Guid(1),
            from: HostId(2),
            query: QueryId(3),
        }];
        let replies = vec![ReplyRecord {
            time: SimTime::from_ticks(9),
            guid: Guid(1),
            via: HostId(4),
            responder: HostId(5),
            file: QueryId(6),
        }];
        let mut buf = Vec::new();
        write_raw(&mut buf, &queries, &replies).unwrap();
        let (q2, r2) = read_raw(&buf[..]).unwrap();
        assert_eq!(queries, q2);
        assert_eq!(replies, r2);
    }

    #[test]
    fn rejects_wrong_header() {
        let data = b"#other v9\n1,2,3,4,5,6\n";
        assert!(matches!(
            read_pairs(&data[..]),
            Err(ParseError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_short_line_with_line_number() {
        let data = format!("{PAIRS_HEADER}\n1,2,3\n");
        match read_pairs(data.as_bytes()) {
            Err(ParseError::Malformed { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("6 fields"));
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let data = format!("{PAIRS_HEADER}\n# a comment\n\n1,2,3,4,5,6\n");
        let pairs = read_pairs(data.as_bytes()).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].guid, Guid(2));
    }

    #[test]
    fn rejects_bad_numbers() {
        let data = format!("{PAIRS_HEADER}\n1,2,x,4,5,6\n");
        assert!(read_pairs(data.as_bytes()).is_err());
    }

    #[test]
    fn raw_rejects_unknown_tag() {
        let data = format!("{RAW_HEADER}\nZ,1,2,3,4\n");
        assert!(read_raw(data.as_bytes()).is_err());
    }

    #[test]
    fn huge_guid_survives() {
        let pairs = vec![PairRecord {
            time: SimTime::from_ticks(0),
            guid: Guid(u128::MAX),
            src: HostId(0),
            via: HostId(0),
            responder: HostId(0),
            query: QueryId(0),
        }];
        let mut buf = Vec::new();
        write_pairs(&mut buf, &pairs).unwrap();
        assert_eq!(read_pairs(&buf[..]).unwrap(), pairs);
    }

    /// Pair and raw CSV round-trips are exact for random records.
    #[test]
    fn csv_roundtrips_random_records() {
        use crate::record::random;
        let mut rng = arq_simkern::Rng64::seed_from(0xC5F);
        for _ in 0..100 {
            let pairs = random::pairs(&mut rng, 100);
            let mut buf = Vec::new();
            write_pairs(&mut buf, &pairs).unwrap();
            assert_eq!(read_pairs(&buf[..]).unwrap(), pairs);

            let queries = random::queries(&mut rng, 50);
            let replies = random::replies(&mut rng, 50);
            let mut buf = Vec::new();
            write_raw(&mut buf, &queries, &replies).unwrap();
            assert_eq!(read_raw(&buf[..]).unwrap(), (queries, replies));
        }
    }
}
