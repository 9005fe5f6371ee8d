//! Chrome trace-event JSON export — open the file in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The mapping: one *process* track per cluster node (or kernel rank), one
//! *thread* track per DPS thread; wave lifetimes become **async** spans
//! (`b`/`e` keyed by wave id) on every node that executed part of the wave
//! — waves overlap freely under pipelining, so they cannot be stack-nested
//! duration spans — while op executions stay synchronous `B`/`E` spans on
//! their thread track; token deliveries become flow arrows (`s`/`f`) from
//! the enqueue to the delivery.
//!
//! [`validate_chrome_trace`] is the structural checker the tests and the CI
//! smoke job run over emitted files: it parses the JSON from scratch and
//! verifies the track/span/flow invariants, not just syntax.

use std::collections::{BTreeMap, BTreeSet};

use crate::collect::TraceLog;
use crate::event::EventKind;

/// Escape a string into a JSON literal (without surrounding quotes).
fn esc(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// One emitted record plus its ordering class (equal-timestamp records must
/// open enclosing spans first and close them last).
struct Rec {
    at: u64,
    class: u8,
    json: String,
}

fn span_rec(
    at: u64,
    class: u8,
    ph: char,
    (pid, tid): (u16, u16),
    name: &str,
    cat: &str,
    args: &str,
) -> Rec {
    let mut json = String::with_capacity(96);
    json.push_str(&format!(
        "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"name\":\"",
        at as f64 / 1000.0
    ));
    esc(name, &mut json);
    json.push_str("\",\"cat\":\"");
    esc(cat, &mut json);
    json.push('"');
    if !args.is_empty() {
        json.push_str(",\"args\":{");
        json.push_str(args);
        json.push('}');
    }
    json.push('}');
    Rec { at, class, json }
}

/// Render `log` as a complete Chrome trace-event JSON document.
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let mut recs: Vec<Rec> = Vec::with_capacity(log.events.len() * 2 + 16);
    let mut tracks: BTreeSet<(u16, u16)> = BTreeSet::new();
    let max_at = log.events.iter().map(|e| e.at).max().unwrap_or(0);

    // Wave intervals: wave id -> (graph label, start, end, tracks involved).
    struct Wave {
        name: String,
        start: u64,
        end: u64,
        tracks: BTreeSet<(u16, u16)>,
    }
    let mut waves: BTreeMap<u32, Wave> = BTreeMap::new();
    for e in &log.events {
        tracks.insert((e.node, e.thread));
        match e.kind {
            EventKind::WaveStart { graph, wave } => {
                let w = waves.entry(wave).or_insert_with(|| Wave {
                    name: String::new(),
                    start: e.at,
                    end: max_at,
                    tracks: BTreeSet::new(),
                });
                w.name = format!("{} wave {}", log.label(graph), wave);
                w.start = w.start.min(e.at);
                w.tracks.insert((e.node, e.thread));
            }
            EventKind::WaveEnd { wave, .. } => {
                if let Some(w) = waves.get_mut(&wave) {
                    w.end = e.at;
                    w.tracks.insert((e.node, e.thread));
                }
            }
            EventKind::OpStart { wave, .. } | EventKind::OpEnd { wave, .. } => {
                if let Some(w) = waves.get_mut(&wave) {
                    w.end = w.end.max(e.at);
                    w.tracks.insert((e.node, e.thread));
                }
            }
            _ => {}
        }
    }

    // Track metadata.
    for &(node, thread) in &tracks {
        let mut json = format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{thread},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"thread {thread}\"}}}}"
        );
        recs.push(Rec {
            at: 0,
            class: 0,
            json,
        });
        json = format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{thread},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"node{node}\"}}}}"
        );
        recs.push(Rec {
            at: 0,
            class: 0,
            json,
        });
    }

    // Wave spans: async (`b`/`e` by wave id), one pair per participating
    // node — pipelined waves overlap, which synchronous B/E stacks cannot
    // express.
    for (&id, w) in &waves {
        let end = w.end.max(w.start);
        let mut pids: BTreeMap<u16, u16> = BTreeMap::new();
        for &(pid, tid) in &w.tracks {
            let t = pids.entry(pid).or_insert(tid);
            *t = (*t).min(tid);
        }
        for (&pid, &tid) in &pids {
            recs.push(async_rec(w.start, 1, 'b', pid, tid, id, &w.name));
            recs.push(async_rec(end, 4, 'e', pid, tid, id, &w.name));
        }
    }

    // Per-event records.
    for e in &log.events {
        let (pid, tid) = (e.node, e.thread);
        match e.kind {
            // Wave lifecycles were rendered above as per-track spans.
            EventKind::WaveStart { .. } | EventKind::WaveEnd { .. } => {}
            EventKind::OpStart { op, wave } => {
                let args = format!("\"wave\":{wave}");
                recs.push(span_rec(
                    e.at,
                    2,
                    'B',
                    (pid, tid),
                    log.label(op),
                    "op",
                    &args,
                ));
            }
            EventKind::OpEnd { op, wave } => {
                let args = format!("\"wave\":{wave}");
                recs.push(span_rec(
                    e.at,
                    3,
                    'E',
                    (pid, tid),
                    log.label(op),
                    "op",
                    &args,
                ));
            }
            EventKind::TokenEnqueue { token, wave, flow } => {
                let mut json = format!(
                    "{{\"ph\":\"s\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"id\":{flow},\"name\":\"",
                    e.at as f64 / 1000.0
                );
                esc(log.label(token), &mut json);
                json.push_str(&format!(
                    "\",\"cat\":\"token\",\"args\":{{\"wave\":{wave}}}}}"
                ));
                recs.push(Rec {
                    at: e.at,
                    class: 2,
                    json,
                });
            }
            EventKind::TokenDeliver { token, wave, flow } => {
                let mut json = format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"id\":{flow},\"name\":\"",
                    e.at as f64 / 1000.0
                );
                esc(log.label(token), &mut json);
                json.push_str(&format!(
                    "\",\"cat\":\"token\",\"args\":{{\"wave\":{wave}}}}}"
                ));
                recs.push(Rec {
                    at: e.at,
                    class: 2,
                    json,
                });
            }
            EventKind::ChunkClaim { lease, start, len } => {
                let args = format!("\"lease\":{lease},\"start\":{start},\"len\":{len}");
                recs.push(instant(e.at, pid, tid, "chunk claim", "sched", &args));
            }
            EventKind::ChunkExec { iters, nanos } => {
                let args = format!("\"iters\":{iters},\"nanos\":{nanos}");
                recs.push(instant(e.at, pid, tid, "chunk exec", "sched", &args));
            }
            EventKind::ChunkReport {
                worker,
                iters,
                nanos,
            } => {
                let args = format!("\"worker\":{worker},\"iters\":{iters},\"nanos\":{nanos}");
                recs.push(instant(e.at, pid, tid, "chunk report", "sched", &args));
            }
            EventKind::FrameSend { frame, bytes } => {
                let args = format!("\"bytes\":{bytes}");
                let name = format!("send {}", log.label(frame));
                recs.push(instant(e.at, pid, tid, &name, "frame", &args));
            }
            EventKind::FrameRecv { frame, bytes } => {
                let args = format!("\"bytes\":{bytes}");
                let name = format!("recv {}", log.label(frame));
                recs.push(instant(e.at, pid, tid, &name, "frame", &args));
            }
            EventKind::NodeDown { node } => {
                let args = format!("\"node\":{node}");
                recs.push(instant(e.at, pid, tid, "node down", "fault", &args));
            }
            EventKind::Requeue { tokens } => {
                let args = format!("\"tokens\":{tokens}");
                recs.push(instant(e.at, pid, tid, "requeue", "fault", &args));
            }
            EventKind::OpFailed { op } => {
                let name = format!("op failed: {}", log.label(op));
                recs.push(instant(e.at, pid, tid, &name, "fault", ""));
            }
            EventKind::Fault { code, detail } => {
                let name = match code {
                    crate::event::fault_code::NODE_KILL => "fault: node kill",
                    crate::event::fault_code::NET_DROP => "fault: net drop",
                    crate::event::fault_code::NET_DELAY => "fault: net delay",
                    crate::event::fault_code::NET_DUP => "fault: net dup",
                    _ => "fault",
                };
                let args = format!("\"code\":{code},\"detail\":{detail}");
                recs.push(instant(e.at, pid, tid, name, "fault", &args));
            }
        }
    }

    recs.sort_by_key(|r| (r.at, r.class));
    let mut out = String::with_capacity(recs.len() * 100 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&r.json);
    }
    out.push_str("\n]}\n");
    out
}

fn async_rec(at: u64, class: u8, ph: char, pid: u16, tid: u16, id: u32, name: &str) -> Rec {
    let mut json = format!(
        "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"id\":{id},\"name\":\"",
        at as f64 / 1000.0
    );
    esc(name, &mut json);
    json.push_str("\",\"cat\":\"wave\"}");
    Rec { at, class, json }
}

fn instant(at: u64, pid: u16, tid: u16, name: &str, cat: &str, args: &str) -> Rec {
    let mut json = format!(
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"name\":\"",
        at as f64 / 1000.0
    );
    esc(name, &mut json);
    json.push_str("\",\"cat\":\"");
    esc(cat, &mut json);
    json.push('"');
    if !args.is_empty() {
        json.push_str(",\"args\":{");
        json.push_str(args);
        json.push('}');
    }
    json.push('}');
    Rec { at, class: 2, json }
}

// ---------------------------------------------------------------------------
// Validation: a self-contained JSON parser + Chrome-trace structural checks.
// ---------------------------------------------------------------------------

/// A parsed JSON value (validator-internal, but public so tests can poke).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.at < self.b.len() && self.b[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.at).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.ws();
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.ws();
        let start = self.at;
        while self
            .b
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.at).ok_or("bad escape")?;
                    self.at += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                c if c < 0x20 => return Err("raw control char in string".into()),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Re-decode the UTF-8 sequence starting at c.
                    let start = self.at - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s = self
                        .b
                        .get(start..start + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or("bad utf-8 in string")?;
                    out.push_str(s);
                    self.at = start + len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            pairs.push((k, self.value()?));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] measured while checking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total records in `traceEvents`.
    pub records: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
    /// Async wave spans (`cat == "wave"`, `ph == "b"`).
    pub wave_spans: usize,
    /// Operation duration spans (`cat == "op"`, `ph == "B"`).
    pub op_spans: usize,
    /// Op spans that opened while a wave span was open on the same node —
    /// the nesting Perfetto renders.
    pub nested_op_spans: usize,
    /// Completed flow arrows (an `f` whose id saw an earlier `s`).
    pub flows: usize,
}

/// Parse `text` as Chrome trace-event JSON and check the structural
/// invariants the exporters promise: every record carries `ph`/`pid`/`tid`,
/// duration spans balance per track, async wave spans balance per
/// `(pid, id)`, op spans nest under wave spans, and every flow-finish has a
/// matching flow-start. One causal rule too: on a track that takes tokens
/// of wave `w`, no op of wave `w` starts before the first of them is
/// delivered — which a log merged from processes with unaligned clocks
/// breaks. Returns counts on success.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeStats, String> {
    let doc = parse_json(text)?;
    let events = doc.get("traceEvents").ok_or("missing traceEvents")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut stats = ChromeStats {
        records: events.len(),
        ..ChromeStats::default()
    };
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Per-track stack of open span categories.
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    // Open async spans by (pid, cat, id), and how many waves are open per
    // node (what op spans nest under).
    let mut open_async: BTreeMap<(u64, String, u64), usize> = BTreeMap::new();
    let mut open_waves: BTreeMap<u64, usize> = BTreeMap::new();
    let mut open_flows: BTreeSet<u64> = BTreeSet::new();
    // Per (pid, tid, wave): the first token delivery, and the first op
    // start with its record index.
    let mut first_delivery: BTreeMap<(u64, u64, u64), f64> = BTreeMap::new();
    let mut first_op: BTreeMap<(u64, u64, u64), (f64, usize)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("record {i}: missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("record {i}: missing tid"))? as u64;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing name"))?;
        let mut ts = 0.0;
        if ph != "M" {
            ts = ev
                .get("ts")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("record {i}: missing ts"))?;
            // Async spans live on per-(cat, id) rows, not thread tracks.
            if ph != "b" && ph != "e" {
                tracks.insert((pid, tid));
            }
        }
        let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
        let wave = ev
            .get("args")
            .and_then(|a| a.get("wave"))
            .and_then(Json::as_num);
        match (ph, cat, wave) {
            ("B", "op", Some(w)) => {
                let first = first_op.entry((pid, tid, w as u64)).or_insert((ts, i));
                if ts < first.0 {
                    *first = (ts, i);
                }
            }
            ("f", "token", Some(w)) => {
                let first = first_delivery.entry((pid, tid, w as u64)).or_insert(ts);
                *first = first.min(ts);
            }
            _ => {}
        }
        match ph {
            "B" => {
                let stack = stacks.entry((pid, tid)).or_default();
                if cat == "wave" {
                    stats.wave_spans += 1;
                } else if cat == "op" {
                    stats.op_spans += 1;
                    if stack.iter().any(|c| c == "wave")
                        || open_waves.get(&pid).is_some_and(|&n| n > 0)
                    {
                        stats.nested_op_spans += 1;
                    }
                }
                stack.push(cat.to_string());
            }
            "b" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("record {i}: async begin without id"))?;
                *open_async
                    .entry((pid, cat.to_string(), id as u64))
                    .or_insert(0) += 1;
                if cat == "wave" {
                    stats.wave_spans += 1;
                    *open_waves.entry(pid).or_insert(0) += 1;
                }
            }
            "e" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("record {i}: async end without id"))?;
                let key = (pid, cat.to_string(), id as u64);
                match open_async.get_mut(&key) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => {
                        return Err(format!(
                            "record {i}: async end '{cat}' id {id} without begin on pid {pid}"
                        ))
                    }
                }
                if cat == "wave" {
                    if let Some(n) = open_waves.get_mut(&pid) {
                        *n = n.saturating_sub(1);
                    }
                }
            }
            "E" => {
                let stack = stacks.entry((pid, tid)).or_default();
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("record {i}: E without open B on ({pid},{tid})"))?;
                if open != cat {
                    return Err(format!(
                        "record {i}: E closes '{cat}' but '{open}' is open on ({pid},{tid})"
                    ));
                }
            }
            "s" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("record {i}: flow start without id"))?;
                open_flows.insert(id as u64);
            }
            "f" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("record {i}: flow finish without id"))?;
                if !open_flows.contains(&(id as u64)) {
                    return Err(format!("record {i}: flow finish {id} without start"));
                }
                stats.flows += 1;
            }
            "i" | "M" | "X" => {}
            other => return Err(format!("record {i}: unknown ph '{other}'")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "track ({pid},{tid}) has {} unclosed span(s)",
                stack.len()
            ));
        }
    }
    for ((pid, cat, id), n) in &open_async {
        if *n > 0 {
            return Err(format!("async span '{cat}' id {id} left open on pid {pid}"));
        }
    }
    for (&(pid, tid, wave), &delivered) in &first_delivery {
        if let Some(&(started, i)) = first_op.get(&(pid, tid, wave)) {
            if started < delivered {
                return Err(format!(
                    "record {i}: an op of wave {wave} starts on ({pid},{tid}) at {started} µs, \
                     before the track's first token of that wave is delivered at {delivered} µs"
                ));
            }
        }
    }
    stats.tracks = tracks.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceCollector;
    use crate::event::EventKind;

    #[test]
    fn export_validates_and_nests() {
        let c = TraceCollector::new();
        let g = c.label("lu");
        let op = c.label("lu:leaf2");
        let tok = c.label("LuTask");
        let mut w = c.writer(0, 0);
        w.record_on(0, 0, 0, EventKind::WaveStart { graph: g, wave: 1 });
        w.record_on(
            100,
            0,
            0,
            EventKind::TokenEnqueue {
                token: tok,
                wave: 1,
                flow: 7,
            },
        );
        w.record_on(
            200,
            1,
            0,
            EventKind::TokenDeliver {
                token: tok,
                wave: 1,
                flow: 7,
            },
        );
        w.record_on(200, 1, 0, EventKind::OpStart { op, wave: 1 });
        w.record_on(900, 1, 0, EventKind::OpEnd { op, wave: 1 });
        w.record_on(1000, 0, 0, EventKind::WaveEnd { graph: g, wave: 1 });
        let json = chrome_trace_json(&c.take_log());
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.tracks, 2, "two (pid,tid) tracks");
        assert_eq!(stats.op_spans, 1);
        assert_eq!(stats.nested_op_spans, 1, "op nests under its wave");
        assert_eq!(stats.flows, 1, "delivery flow arrow present");
        assert!(stats.wave_spans >= 2, "wave span on each involved track");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"ph":"E","pid":0,"tid":0,"ts":1,"name":"x","cat":"op"}]}"#
            )
            .is_err(),
            "E without B"
        );
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"ph":"f","bp":"e","pid":0,"tid":0,"ts":1,"name":"x","id":9}]}"#
            )
            .is_err(),
            "flow finish without start"
        );
    }

    /// An op that starts before its track is handed the wave's first token
    /// — a worker's stamps merged on their own clock — is refused.
    #[test]
    fn validator_rejects_an_op_before_its_wave_reaches_the_track() {
        let c = TraceCollector::new();
        let (op, tok) = (c.label("mm:multiply"), c.label("BlockTask"));
        let mut w = c.writer(0, 0);
        let deliver = |flow| EventKind::TokenDeliver {
            token: tok,
            wave: 4,
            flow,
        };
        w.record_on(
            5,
            0,
            0,
            EventKind::TokenEnqueue {
                token: tok,
                wave: 4,
                flow: 1,
            },
        );
        w.record_on(260, 1, 0, deliver(1));
        w.record_on(300, 1, 0, EventKind::OpStart { op, wave: 4 });
        w.record_on(400, 1, 0, EventKind::OpEnd { op, wave: 4 });
        let log = c.take_log();
        assert!(validate_chrome_trace(&chrome_trace_json(&log)).is_ok());
        let mut early = log;
        for e in &mut early.events {
            if matches!(e.kind, EventKind::OpStart { .. } | EventKind::OpEnd { .. }) {
                e.at -= 231; // the op at 69, its token at 260
            }
        }
        let err = validate_chrome_trace(&chrome_trace_json(&early)).unwrap_err();
        assert!(err.contains("before the track's first token"), "{err}");
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let v = parse_json(r#"{"a":"q\"\\\nAü","n":-1.5e2,"b":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str().unwrap(), "q\"\\\nAü");
        assert_eq!(v.get("n").unwrap().as_num().unwrap(), -150.0);
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("[1] junk").is_err());
    }
}
