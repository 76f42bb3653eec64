//! Wire format for the sample bus (S23).
//!
//! A *frame* is one exporter render: exposition text plus the target labels
//! a scrape pass would have stamped (`instance`, `job`, extra group labels)
//! and a per-publisher monotonic sequence number. Frames ride HTTP bodies as
//! `[u32 big-endian length][JSON]` records, several per `POST
//! /api/v1/stream/push` body.
//!
//! Why length-prefixed records inside ordinary keep-alive POSTs rather than
//! one long-lived chunked *request*? Chunked request bodies pin a server
//! connection in a half-open state for the publisher's lifetime and make
//! retry semantics murky (how much of an infinite body was "received"?).
//! Batched POSTs reuse the pooled keep-alive connection (S20), give the
//! publisher a crisp ack unit to resume from, and let the server treat one
//! push body as one WAL group commit. The server→client path (live
//! queries) *does* use true chunked streaming — there the server controls
//! the framing and a dropped consumer is just shed.

use serde_json::{json, Value};

/// One published exporter render.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleFrame {
    /// Topic the frame is published to (per-tenant namespace).
    pub topic: String,
    /// Publisher identity; sequence numbers are monotonic per publisher.
    pub publisher: String,
    /// Monotonic sequence number, starting at 1. The bus acks the highest
    /// seq it has ingested for the publisher and treats any seq at or below
    /// it as a duplicate (acknowledged again, not re-ingested), so
    /// resend-after-reconnect is idempotent; a skipped seq is not waited
    /// for.
    pub seq: u64,
    /// `instance` label stamped on every sample (as a scrape would).
    pub instance: String,
    /// `job` label stamped on every sample.
    pub job: String,
    /// Extra target-group labels (e.g. `nodegroup`).
    pub extra_labels: Vec<(String, String)>,
    /// Exposition text payload.
    pub body: String,
    /// Producer timestamp (ms) — used for samples without explicit
    /// timestamps and for the publisher-lag gauge.
    pub produced_ms: i64,
}

impl SampleFrame {
    /// JSON value for the wire.
    pub fn to_json(&self) -> Value {
        json!({
            "topic": self.topic,
            "publisher": self.publisher,
            "seq": self.seq,
            "instance": self.instance,
            "job": self.job,
            "extra_labels": self.extra_labels.iter()
                .map(|(k, val)| json!([k, val]))
                .collect::<Vec<_>>(),
            "body": self.body,
            "produced_ms": self.produced_ms,
        })
    }

    /// Parses a wire JSON object back into a frame (unknown fields are ignored).
    pub fn from_json(v: &Value) -> Result<SampleFrame, String> {
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(|x| x.as_str())
                .map(|x| x.to_string())
                .ok_or_else(|| format!("frame missing string field {key:?}"))
        };
        let mut extra_labels = Vec::new();
        if let Some(arr) = v.get("extra_labels").and_then(|x| x.as_array()) {
            for pair in arr {
                let p = pair.as_array().ok_or("extra_labels entry not a pair")?;
                match (p.first().and_then(|x| x.as_str()), p.get(1).and_then(|x| x.as_str())) {
                    (Some(k), Some(val)) => extra_labels.push((k.to_string(), val.to_string())),
                    _ => return Err("extra_labels entry not a string pair".into()),
                }
            }
        }
        Ok(SampleFrame {
            topic: s("topic")?,
            publisher: s("publisher")?,
            seq: v
                .get("seq")
                .and_then(|x| x.as_u64())
                .ok_or("frame missing seq")?,
            instance: s("instance")?,
            job: s("job")?,
            extra_labels,
            body: s("body")?,
            produced_ms: v.get("produced_ms").and_then(|x| x.as_i64()).unwrap_or(0),
        })
    }

    /// Appends this frame as one `[u32 BE length][JSON]` record.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let bytes = self.to_json().to_string().into_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
}

/// Upper bound on one record's JSON payload — matches the HTTP server's
/// body cap order of magnitude; a frame past this is a protocol error, not
/// a bigger buffer.
pub const MAX_RECORD_BYTES: usize = 8 << 20;

/// Decodes a complete buffer of records (push bodies arrive whole). The
/// records are walked with a read offset, so a body of many small records
/// costs its length, not its length times its record count.
pub fn decode_records(body: &[u8]) -> Result<Vec<Value>, String> {
    let trailing = |at: usize| format!("{} trailing bytes after the last record", body.len() - at);
    let mut out = Vec::new();
    let mut at = 0;
    while at < body.len() {
        let Some(&[a, b, c, d]) = body.get(at..at + 4) else {
            return Err(trailing(at));
        };
        let len = u32::from_be_bytes([a, b, c, d]) as usize;
        if len > MAX_RECORD_BYTES {
            return Err(format!("record length {len} exceeds cap"));
        }
        let record = body.get(at + 4..at + 4 + len).ok_or_else(|| trailing(at))?;
        let value = serde_json::from_slice(record)
            .map_err(|e| format!("bad record JSON at byte {at}: {e}"))?;
        out.push(value);
        at += 4 + len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64) -> SampleFrame {
        SampleFrame {
            topic: "node-metrics".into(),
            publisher: "n1".into(),
            seq,
            instance: "n1:9100".into(),
            job: "ceems".into(),
            extra_labels: vec![("nodegroup".into(), "intel-dram".into())],
            body: "power_watts 250\n".into(),
            produced_ms: 15_000,
        }
    }

    #[test]
    fn frame_roundtrips_through_wire_encoding() {
        let f = frame(7);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        frame(8).encode_into(&mut buf);
        let records = decode_records(&buf).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(SampleFrame::from_json(&records[0]).unwrap(), f);
        assert_eq!(SampleFrame::from_json(&records[1]).unwrap(), frame(8));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let mut buf = Vec::new();
        frame(1).encode_into(&mut buf);
        buf.truncate(buf.len() - 3);
        assert!(decode_records(&buf).is_err());
    }

    /// A push body at the HTTP server's 16 MiB cap made of the smallest
    /// records there are (`{}` behind its length, six bytes) decodes in time
    /// linear in its length. Dropping the consumed bytes once per record made
    /// this body take about ten minutes.
    #[test]
    fn a_16_mib_body_of_minimal_records_decodes_in_linear_time() {
        let records = (16 << 20) / 6;
        let body: Vec<u8> = [0, 0, 0, 2, b'{', b'}'].repeat(records);
        let started = std::time::Instant::now();
        let decoded = decode_records(&body).unwrap();
        let took = started.elapsed();
        assert_eq!(decoded.len(), records);
        assert!(decoded.iter().all(|v| *v == json!({})));
        assert!(took < std::time::Duration::from_secs(30), "{took:?}");
    }

    /// The walk gets past the good record and names where the bad one starts.
    #[test]
    fn a_bad_record_is_reported_and_the_records_before_it_are_consumed() {
        let mut buf = Vec::new();
        frame(1).encode_into(&mut buf);
        let bad_at = buf.len();
        buf.extend_from_slice(&[0, 0, 0, 2, b'{', b'x']);
        let err = decode_records(&buf).unwrap_err();
        assert!(err.contains(&format!("at byte {bad_at}:")), "{err}");
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut buf = ((MAX_RECORD_BYTES + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        assert!(decode_records(&buf).is_err());
    }
}
