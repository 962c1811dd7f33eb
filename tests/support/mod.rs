//! Trace rewrites shared by the integration suites.

use std::cmp::Reverse;

use m3::sim::trace::{PacketBucket, TraceData, TraceEvent, TraceLog};

/// Rewrites each packet drain in `trace` into the log a drain that ran the
/// buckets in reverse and ignored dependency edges would record: the
/// enqueues as they were, then each packet's start-to-finish span (with the
/// events recorded while it ran) one packet per wave, later buckets first
/// and ids ascending within a bucket, and no stalls.
pub fn reverse_bucket_drains(trace: &TraceLog) -> TraceLog {
    let mut out = TraceLog::new();
    let mut spans: Vec<(PacketBucket, u64, Vec<TraceEvent>)> = Vec::new();
    let mut unfinished = 0usize;
    for e in trace.events() {
        match e.data {
            TraceData::PacketEnqueue { .. } => {
                unfinished += 1;
                out.record(e.t, e.pid, e.data.clone());
            }
            TraceData::PacketStall { .. } => {}
            TraceData::PacketStart { packet, bucket, .. } => {
                spans.push((bucket, packet, vec![e.clone()]));
            }
            _ if unfinished == 0 => out.record(e.t, e.pid, e.data.clone()),
            _ => {
                spans.last_mut().expect("inside a packet").2.push(e.clone());
                if matches!(e.data, TraceData::PacketFinish { .. }) {
                    unfinished -= 1;
                }
            }
        }
        if unfinished == 0 && !spans.is_empty() {
            spans.sort_by_key(|&(bucket, packet, _)| (Reverse(bucket), packet));
            for (wave, (_, _, events)) in spans.drain(..).enumerate() {
                for mut e in events {
                    if let TraceData::PacketStart { wave: w, .. } = &mut e.data {
                        *w = wave as u64;
                    }
                    out.record(e.t, e.pid, e.data);
                }
            }
        }
    }
    out
}
