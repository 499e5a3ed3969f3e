//! Per-layer self-time table from a Chrome trace written by the telemetry
//! sink: a span's self time is its duration minus the time its direct
//! children on the same thread cover. A span whose work runs on other
//! threads (the campaign's shard pool) keeps that time as self time: it is
//! the calling thread's wait.

use std::collections::BTreeMap;

/// One complete (`"ph":"X"`) trace event, times in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: String,
    pub tid: u64,
    pub ts: f64,
    pub dur: f64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// Reads the complete events of a trace file (one event per line).
pub fn parse(text: &str) -> Vec<Event> {
    text.lines()
        .filter(|line| line.contains("\"ph\":\"X\""))
        .filter_map(|line| serde_json::from_str(line.trim_end_matches(',')).ok())
        .filter_map(|v: serde_json::Value| {
            Some(Event {
                name: v.get("name")?.as_str()?.to_string(),
                tid: v.get("tid")?.as_u64()?,
                ts: v.get("ts")?.as_f64()?,
                dur: v.get("dur")?.as_f64()?,
            })
        })
        .collect()
}

/// Aggregates events by name into total and self time.
pub fn self_times(mut events: Vec<Event>) -> BTreeMap<String, Row> {
    // Parents first: by thread, start, then longest.
    events.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.ts.total_cmp(&b.ts))
            .then(b.dur.total_cmp(&a.dur))
    });
    let mut child_us = vec![0.0f64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..events.len() {
        let ev = &events[i];
        while let Some(&top) = stack.last() {
            let parent = &events[top];
            if parent.tid == ev.tid && ev.ts < parent.ts + parent.dur {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_us[parent] += ev.dur;
        }
        stack.push(i);
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for (ev, child) in events.iter().zip(child_us) {
        let row = rows.entry(ev.name.clone()).or_default();
        row.calls += 1;
        row.total_us += ev.dur;
        row.self_us += (ev.dur - child).max(0.0);
    }
    rows
}

/// The table as text, largest self time first.
pub fn render(rows: &BTreeMap<String, Row>) -> String {
    let mut sorted: Vec<(&String, &Row)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let all_self: f64 = rows.values().map(|r| r.self_us).sum();
    let mut out = format!(
        "{:<26} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total_ms", "self_ms", "self_%"
    );
    for (name, row) in sorted {
        out.push_str(&format!(
            "{:<26} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            row.calls,
            row.total_us / 1e3,
            row.self_us / 1e3,
            100.0 * row.self_us / all_self.max(f64::MIN_POSITIVE),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts: f64, dur: f64) -> Event {
        Event {
            name: name.into(),
            tid,
            ts,
            dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rows = self_times(vec![
            ev("grandchild", 1, 2.0, 1.0),
            ev("child", 1, 1.0, 4.0),
            ev("root", 1, 0.0, 10.0),
            ev("child", 1, 6.0, 2.0),
            ev("other-thread", 2, 1.0, 5.0),
        ]);
        assert_eq!(rows["root"].self_us, 4.0);
        assert_eq!(rows["child"].calls, 2);
        assert_eq!(rows["child"].total_us, 6.0);
        assert_eq!(rows["child"].self_us, 5.0);
        assert_eq!(rows["grandchild"].self_us, 1.0);
        assert_eq!(rows["other-thread"].self_us, 5.0);
    }

    #[test]
    fn parses_sink_lines_and_skips_metadata() {
        let text = "[\n\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000,\"pid\":1,\"tid\":3},\n\
            {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"campaign\"}}\n\
            ]\n";
        assert_eq!(parse(text), vec![ev("a", 3, 1.5, 2.0)]);
        assert!(render(&self_times(parse(text))).contains("a "));
    }
}
