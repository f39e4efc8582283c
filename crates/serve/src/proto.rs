//! The JSON-lines wire protocol: request frames in, response frames out.
//!
//! One request per line, one response per line, in order. Every request
//! is an object with a `"verb"` field; every response is an object with
//! `"ok"` (and the request's `"id"` echoed back when one was given).
//! Failures are *structured*: `{"ok":false,"error":"<code>",
//! "message":"…"}` — a malformed frame gets an error response on the
//! same connection, never a dropped connection or a server panic.
//!
//! Verbs: `hello`, `open_session`, `close_session`, `prove`, `batch`,
//! `report`, `analyze`, `invalidate`, `stats`, `health`, `ready`,
//! `shutdown`. See `DESIGN.md` §"The serving layer" for the full frame
//! reference.
//!
//! The protocol is versioned: [`PROTO_VERSION`] names the highest frame
//! dialect this build speaks, `hello`/`stats`/`ready` report it, and a
//! verb this build does not know earns a machine-readable
//! [`ErrorCode::Unsupported`] frame (carrying the rejected verb and the
//! server's version) instead of a generic `bad_request` — so an old
//! client can detect a feature gap and degrade, and a new client
//! talking to an old server gets a parseable refusal rather than a
//! guessing game.

use apt_core::{
    Answer, Budget, EngineSelection, EngineTally, MaybeReason, Outcome, PortfolioStats, ProverStats,
};
use apt_regex::Path;
use std::time::Duration;

use crate::json::{obj, parse, Json};

/// The wire-protocol version this build speaks.
///
/// * **1** — the original dialect: `open_session`, `close_session`,
///   `prove`, `batch`, `report`, `stats`, `health`, `ready`,
///   `shutdown`.
/// * **2** — adds `hello` (version/verb discovery), `analyze`
///   (whole-program incremental dependence tables), and `invalidate`
///   (dropping persisted analyze state); unknown verbs now answer
///   `unsupported` instead of `bad_request`.
/// * **3** — portfolio solving: proving frames accept an `"engines"`
///   selection (`"all"`, `"axiomatic"`, or a comma list of engine
///   names), outcome frames carry `"engine"` (which backend settled the
///   query) and `"witness"` (an encoded concrete dependence heap for
///   refuter `Yes` answers), and `stats` reports per-engine
///   win/loss/cancel tallies under `"portfolio"`.
/// * **4** — the Dyck engine is retired, so `axiomatic` and `refuter`
///   are the engine names left: an `"engines"` selection naming `dyck`
///   answers `unsupported`, and the `stats` `portfolio` block has no
///   `dyck` row.
///
/// Frames from a v1–v3 client stay valid v4 frames, except an
/// `"engines"` selection naming `dyck`.
pub const PROTO_VERSION: u64 = 4;

/// Engine names earlier protocol versions accepted and this one no
/// longer serves; a selection naming one answers `unsupported`, not
/// `bad_request`.
const RETIRED_ENGINES: &[&str] = &["dyck"];

/// Every verb this build understands, in documentation order. The
/// `hello` response carries this list so clients can feature-detect
/// without trial-and-error.
pub const SUPPORTED_VERBS: &[&str] = &[
    "hello",
    "open_session",
    "close_session",
    "prove",
    "batch",
    "report",
    "analyze",
    "invalidate",
    "stats",
    "health",
    "ready",
    "shutdown",
];

/// Error codes a response frame can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON (or not an object).
    ParseError,
    /// The frame was JSON but missing/mistyping required fields.
    BadRequest,
    /// The verb is well-formed but not one this server speaks — the
    /// frame carries the rejected verb and the server's
    /// [`PROTO_VERSION`] so version-skewed clients can negotiate down.
    Unsupported,
    /// The named session does not exist (never opened, or evicted).
    NoSuchSession,
    /// Admission control refused the request: the work queue is past its
    /// high-water mark. Back off and retry — the 429 of this protocol.
    Overloaded,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// The connection sat idle past the read deadline, or dribbled a
    /// partial frame past it (slow-loris). The server sends this frame,
    /// then closes the connection.
    Timeout,
    /// The request crashed the worker; the fault was isolated.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::NoSuchSession => "no_such_session",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured protocol failure (maps to an error response frame).
#[derive(Debug, Clone)]
pub struct ProtoError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Unsupported`]: the verb the client sent,
    /// echoed back machine-readably (`"verb"` in the error frame,
    /// beside `"proto_version"`).
    pub verb: Option<String>,
}

impl ProtoError {
    /// A bad-request error with a message.
    pub fn bad(message: impl Into<String>) -> ProtoError {
        ProtoError {
            code: ErrorCode::BadRequest,
            message: message.into(),
            verb: None,
        }
    }

    /// An unsupported-verb error naming the rejected verb.
    pub fn unsupported(verb: impl Into<String>) -> ProtoError {
        let verb = verb.into();
        ProtoError {
            code: ErrorCode::Unsupported,
            message: format!("verb {verb:?} is not supported at proto_version {PROTO_VERSION}"),
            verb: Some(verb),
        }
    }
}

/// Per-request budget overrides carried on the wire. Every field is
/// optional; the server clamps whatever arrives against its ceiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBudget {
    /// Goal-attempt fuel.
    pub fuel: Option<u64>,
    /// Wall-clock allowance, milliseconds.
    pub deadline_ms: Option<u64>,
    /// DFA states any one subset construction may build.
    pub max_dfa_states: Option<usize>,
}

impl WireBudget {
    fn from_frame(frame: &Json) -> Result<WireBudget, ProtoError> {
        let field = |name: &str| -> Result<Option<u64>, ProtoError> {
            match frame.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                    ProtoError::bad(format!("{name} must be a non-negative integer"))
                }),
            }
        };
        Ok(WireBudget {
            fuel: field("fuel")?,
            deadline_ms: field("deadline_ms")?,
            max_dfa_states: field("max_dfa_states")?
                .map(|v| {
                    usize::try_from(v)
                        .map_err(|_| ProtoError::bad("max_dfa_states does not fit in usize"))
                })
                .transpose()?,
        })
    }

    /// Whether no override was given at all.
    pub fn is_empty(&self) -> bool {
        *self == WireBudget::default()
    }

    /// Applies the overrides on top of `base` (the server default),
    /// then clamps the result against `ceiling` so no client can exceed
    /// the operator's limits.
    pub fn resolve(&self, base: &Budget, ceiling: &Budget) -> Budget {
        let mut requested = base.clone();
        if let Some(fuel) = self.fuel {
            requested.fuel = fuel;
        }
        if let Some(ms) = self.deadline_ms {
            requested.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(states) = self.max_dfa_states {
            requested.max_dfa_states = Some(states);
        }
        requested.clamped_to(ceiling)
    }
}

/// One dependence query as it appears on the wire (inside `prove` or a
/// `batch` array).
#[derive(Debug, Clone)]
pub struct WireQuery {
    /// `"disjoint"` (default) or `"equal"`.
    pub equal: bool,
    /// First access path.
    pub a: Path,
    /// Second access path.
    pub b: Path,
    /// `"same"` (default) or `"distinct"` origin.
    pub distinct: bool,
    /// Whether the response should carry the rendered proof text
    /// (`"proof": true` on the wire) instead of just `true`/`null`.
    pub want_proof: bool,
    /// Per-query budget overrides.
    pub budget: WireBudget,
    /// Per-query engine selection (`"engines"` on the wire): race the
    /// named backends instead of the server's default roster.
    pub engines: Option<EngineSelection>,
}

impl WireQuery {
    fn from_frame(frame: &Json) -> Result<WireQuery, ProtoError> {
        let path_field = |name: &str| -> Result<Path, ProtoError> {
            let text = frame
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::bad(format!("missing path field {name:?}")))?;
            Path::parse(text).map_err(|e| ProtoError::bad(format!("bad path {name:?}: {e}")))
        };
        let equal = match frame.get("kind").and_then(Json::as_str) {
            None | Some("disjoint") => false,
            Some("equal") => true,
            Some(other) => {
                return Err(ProtoError::bad(format!(
                    "kind must be \"disjoint\" or \"equal\", got {other:?}"
                )))
            }
        };
        let distinct = match frame.get("origin").and_then(Json::as_str) {
            None | Some("same") => false,
            Some("distinct") => true,
            Some(other) => {
                return Err(ProtoError::bad(format!(
                    "origin must be \"same\" or \"distinct\", got {other:?}"
                )))
            }
        };
        let want_proof = match frame.get("proof") {
            None | Some(Json::Null) => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ProtoError::bad("proof must be a boolean"))?,
        };
        Ok(WireQuery {
            equal,
            a: path_field("a")?,
            b: path_field("b")?,
            distinct,
            want_proof,
            budget: WireBudget::from_frame(frame)?,
            engines: engines_field(frame)?,
        })
    }
}

/// Reads the optional `"engines"` selection off a frame (`"all"`,
/// `"axiomatic"`, or a comma list of engine names).
fn engines_field(frame: &Json) -> Result<Option<EngineSelection>, ProtoError> {
    match frame.get("engines") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let spec = v
                .as_str()
                .ok_or_else(|| ProtoError::bad("engines must be a string"))?;
            if let Some(retired) = spec
                .split(',')
                .map(str::trim)
                .find(|name| RETIRED_ENGINES.contains(name))
            {
                return Err(ProtoError {
                    code: ErrorCode::Unsupported,
                    message: format!(
                        "engine {retired:?} is not supported at proto_version {PROTO_VERSION} \
                         (expected all, axiomatic, refuter)"
                    ),
                    verb: None,
                });
            }
            EngineSelection::parse(spec)
                .map(Some)
                .map_err(|e| ProtoError::bad(format!("engines: {e}")))
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Version/verb discovery: the reply carries `proto_version` and
    /// the `verbs` list so clients can feature-detect up front.
    Hello,
    /// Register an axiom set; the reply names the (possibly deduplicated)
    /// session.
    OpenSession {
        /// Axiom text — ADDS or one-axiom-per-line, auto-detected.
        axioms: String,
    },
    /// Drop a session eagerly (idle sessions are also LRU-evicted).
    CloseSession {
        /// The session to drop.
        session: String,
    },
    /// One dependence query against an open session.
    Prove {
        /// The session whose engine (and warm caches) to use.
        session: String,
        /// The query itself.
        query: WireQuery,
    },
    /// A batch of queries against one session, deduplicated and fanned
    /// out by the engine.
    Batch {
        /// The session whose engine to use.
        session: String,
        /// The queries, in caller order.
        queries: Vec<WireQuery>,
        /// Worker threads for the batch (clamped by the server).
        jobs: Option<usize>,
        /// Engine selection for the whole batch (overrides the server
        /// default roster).
        engines: Option<EngineSelection>,
    },
    /// A whole-program parallelization report (the `apt report`
    /// workload) — the program text carries its own axioms.
    Report {
        /// Program text in the `apt-ir` mini language.
        program: String,
        /// Restrict to one procedure.
        proc: Option<String>,
        /// Budget overrides for the report's queries.
        budget: WireBudget,
        /// Engine selection for the report's queries.
        engines: Option<EngineSelection>,
    },
    /// Whole-program incremental dependence analysis: derive the full
    /// dependence table for every procedure of `program`, replaying
    /// persisted verdicts for procedures whose content hashes are
    /// unchanged since the last `analyze` under the same table `name`.
    Analyze {
        /// Program text in the `apt-ir` mini language.
        program: String,
        /// Which persistent table to read/update (defaults to
        /// `"default"`); tables survive restarts via snapshots.
        name: String,
        /// Worker threads for the fresh queries (clamped by the server).
        jobs: Option<usize>,
        /// When true, the response lists only procedures that had work
        /// re-proved (display filter; totals still cover everything).
        changed_only: bool,
        /// Budget overrides for the analysis' queries.
        budget: WireBudget,
        /// Engine selection for the analysis' fresh queries.
        engines: Option<EngineSelection>,
    },
    /// Drop persisted analyze state: one procedure's entry, or a whole
    /// table.
    Invalidate {
        /// Which table to touch (defaults to `"default"`).
        name: String,
        /// Drop just this procedure's verdicts; `None` drops the whole
        /// table.
        proc: Option<String>,
    },
    /// A live metrics snapshot.
    Stats,
    /// Liveness probe: answers on any serving process, even one
    /// draining for shutdown.
    Health,
    /// Readiness probe: additionally reports whether the node accepts
    /// new work and whether it came up warm from a snapshot.
    Ready,
    /// Graceful shutdown: respond, then drain and exit.
    Shutdown,
}

/// Parses one request line into `(echoed id, request)`.
///
/// # Errors
///
/// Returns a [`ProtoError`] whose code distinguishes JSON-level from
/// frame-level failures; the caller turns it into an error frame.
pub fn parse_request(line: &str) -> Result<(Option<Json>, Request), ProtoError> {
    let frame = parse(line).map_err(|e| ProtoError {
        code: ErrorCode::ParseError,
        message: e.to_string(),
        verb: None,
    })?;
    if !matches!(frame, Json::Obj(_)) {
        return Err(ProtoError {
            code: ErrorCode::ParseError,
            message: "request frame must be a JSON object".to_owned(),
            verb: None,
        });
    }
    let id = frame.get("id").cloned();
    let str_field = |name: &str| -> Result<String, ProtoError> {
        frame
            .get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ProtoError::bad(format!("missing string field {name:?}")))
    };
    let verb = str_field("verb")?;
    let request = match verb.as_str() {
        "open_session" => Request::OpenSession {
            axioms: str_field("axioms")?,
        },
        "close_session" => Request::CloseSession {
            session: str_field("session")?,
        },
        "prove" => Request::Prove {
            session: str_field("session")?,
            query: WireQuery::from_frame(&frame)?,
        },
        "batch" => {
            let items = frame
                .get("queries")
                .and_then(Json::as_array)
                .ok_or_else(|| ProtoError::bad("batch needs a \"queries\" array"))?;
            let queries = items
                .iter()
                .map(WireQuery::from_frame)
                .collect::<Result<Vec<_>, _>>()?;
            let jobs = match frame.get("jobs") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| ProtoError::bad("jobs must be a positive integer"))?,
                ),
            };
            Request::Batch {
                session: str_field("session")?,
                queries,
                jobs,
                engines: engines_field(&frame)?,
            }
        }
        "report" => Request::Report {
            program: str_field("program")?,
            proc: frame.get("proc").and_then(Json::as_str).map(str::to_owned),
            budget: WireBudget::from_frame(&frame)?,
            engines: engines_field(&frame)?,
        },
        "hello" => Request::Hello,
        "analyze" => {
            let jobs = match frame.get("jobs") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| ProtoError::bad("jobs must be a positive integer"))?,
                ),
            };
            let changed_only = match frame.get("changed_only") {
                None | Some(Json::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| ProtoError::bad("changed_only must be a boolean"))?,
            };
            Request::Analyze {
                program: str_field("program")?,
                name: table_name(&frame)?,
                jobs,
                changed_only,
                budget: WireBudget::from_frame(&frame)?,
                engines: engines_field(&frame)?,
            }
        }
        "invalidate" => Request::Invalidate {
            name: table_name(&frame)?,
            proc: frame.get("proc").and_then(Json::as_str).map(str::to_owned),
        },
        "stats" => Request::Stats,
        "health" => Request::Health,
        "ready" => Request::Ready,
        "shutdown" => Request::Shutdown,
        other => return Err(ProtoError::unsupported(other)),
    };
    Ok((id, request))
}

/// Reads the optional `"name"` field naming an analyze table,
/// defaulting to `"default"`.
fn table_name(frame: &Json) -> Result<String, ProtoError> {
    match frame.get("name") {
        None | Some(Json::Null) => Ok("default".to_owned()),
        Some(v) => v
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| ProtoError::bad("name must be a string")),
    }
}

fn frame_base(id: Option<&Json>, ok: bool) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![("ok", Json::Bool(ok))];
    if let Some(id) = id {
        pairs.push(("id", id.clone()));
    }
    pairs
}

/// An error response frame. `unsupported` frames additionally carry
/// the server's `proto_version` (and the rejected `verb`, when a verb
/// was the problem) so clients can negotiate without parsing prose.
pub fn error_frame(id: Option<&Json>, error: &ProtoError) -> Json {
    let mut pairs = frame_base(id, false);
    pairs.push(("error", error.code.as_str().into()));
    pairs.push(("message", error.message.as_str().into()));
    if let Some(verb) = &error.verb {
        pairs.push(("verb", verb.as_str().into()));
    }
    if error.code == ErrorCode::Unsupported {
        pairs.push(("proto_version", PROTO_VERSION.into()));
    }
    obj(pairs)
}

/// A success frame with extra fields.
pub fn ok_frame(id: Option<&Json>, extra: Vec<(&'static str, Json)>) -> Json {
    let mut pairs = frame_base(id, true);
    pairs.extend(extra);
    obj(pairs)
}

/// Renders prover work counters for a response or the `stats` verb.
pub fn stats_json(stats: &ProverStats) -> Json {
    obj(vec![
        ("goals_attempted", stats.goals_attempted.into()),
        ("cache_hits", stats.cache_hits.into()),
        ("shared_hits", stats.shared_hits.into()),
        ("subset_checks", stats.subset_checks.into()),
        ("dispatch_hits", stats.dispatch_hits.into()),
        ("dispatch_misses", stats.dispatch_misses.into()),
        ("neg_memo_hits", stats.neg_memo_hits.into()),
        (
            "cutoffs",
            obj(vec![
                ("fuel", stats.cutoffs.fuel.into()),
                ("depth", stats.cutoffs.depth.into()),
                ("rewrites", stats.cutoffs.rewrites.into()),
                ("deadline", stats.cutoffs.deadline.into()),
                ("regex_budget", stats.cutoffs.regex_budget.into()),
                ("cancelled", stats.cutoffs.cancelled.into()),
            ]),
        ),
    ])
}

/// Renders one query outcome as the response-body fields shared by
/// `prove` (top level) and `batch` (per-result array entries).
pub fn outcome_json(outcome: &Outcome, include_proof: bool) -> Json {
    let reason = match outcome.verdict.reason {
        Some(r) => Json::Str(r.code().to_owned()),
        None => Json::Null,
    };
    let proof = match (&outcome.proof, include_proof) {
        (Some(p), true) => Json::Str(p.to_string()),
        (Some(_), false) => Json::Bool(true),
        (None, _) => Json::Null,
    };
    let witness = match &outcome.witness {
        Some(w) => Json::Str(w.encode()),
        None => Json::Null,
    };
    obj(vec![
        ("answer", outcome.verdict.answer.as_str().into()),
        ("reason", reason),
        ("degraded", outcome.verdict.is_degraded().into()),
        ("proof", proof),
        ("engine", outcome.engine.code().into()),
        ("witness", witness),
        ("stats", stats_json(&outcome.stats)),
    ])
}

/// Renders cumulative per-engine race tallies for the `stats` verb.
pub fn portfolio_json(stats: &PortfolioStats) -> Json {
    let tally = |t: EngineTally| {
        obj(vec![
            ("wins", t.wins.into()),
            ("losses", t.losses.into()),
            ("cancelled", t.cancelled.into()),
        ])
    };
    obj(vec![
        ("axiomatic", tally(stats.axiomatic)),
        ("refuter", tally(stats.refuter)),
        ("witnesses", stats.witnesses.into()),
    ])
}

/// Reads `(answer, reason)` back out of an outcome/result frame —
/// the client-side inverse of [`outcome_json`].
pub fn parse_verdict(frame: &Json) -> Option<(Answer, Option<MaybeReason>)> {
    let answer = Answer::from_str_opt(frame.get("answer")?.as_str()?)?;
    let reason = match frame.get("reason") {
        None | Some(Json::Null) => None,
        Some(r) => Some(MaybeReason::from_code(r.as_str()?)?),
    };
    Some((answer, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_prove_frames() {
        let (id, req) = parse_request(
            r#"{"id": 7, "verb":"prove", "session":"s0", "a":"L.L.N", "b":"L.R.N",
               "origin":"distinct", "fuel": 50, "deadline_ms": 100}"#,
        )
        .unwrap();
        assert_eq!(id, Some(Json::Num(7.0)));
        let Request::Prove { session, query } = req else {
            panic!("wrong verb");
        };
        assert_eq!(session, "s0");
        assert!(!query.equal);
        assert!(query.distinct);
        assert_eq!(query.budget.fuel, Some(50));
        assert_eq!(query.budget.deadline_ms, Some(100));
    }

    #[test]
    fn parses_engine_selections() {
        let (_, req) = parse_request(
            r#"{"verb":"prove","session":"s0","a":"L","b":"R","engines":"axiomatic,refuter"}"#,
        )
        .unwrap();
        let Request::Prove { query, .. } = req else {
            panic!("wrong verb");
        };
        let sel = query.engines.expect("engines parsed");
        assert!(sel.axiomatic && sel.refuter);

        // The retired Dyck engine is refused machine-readably, alone or
        // in a list, on any proving verb.
        for frame in [
            r#"{"verb":"prove","session":"s0","a":"L","b":"R","engines":"dyck"}"#,
            r#"{"verb":"prove","session":"s0","a":"L","b":"R","engines":"dyck,refuter"}"#,
            r#"{"verb":"batch","session":"s0","queries":[],"engines":"refuter, dyck"}"#,
            r#"{"verb":"report","program":"proc p() {}","engines":"dyck"}"#,
        ] {
            let e = parse_request(frame).unwrap_err();
            assert_eq!(e.code, ErrorCode::Unsupported, "{frame}");
            let text = error_frame(None, &e).render();
            assert!(text.contains(r#""proto_version":4"#), "{text}");
        }

        // Omitted means "server default", not "none".
        let (_, req) = parse_request(r#"{"verb":"prove","session":"s0","a":"L","b":"R"}"#).unwrap();
        let Request::Prove { query, .. } = req else {
            panic!("wrong verb");
        };
        assert!(query.engines.is_none());

        let e =
            parse_request(r#"{"verb":"prove","session":"s0","a":"L","b":"R","engines":"warlock"}"#)
                .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn rejects_malformed_frames_with_codes() {
        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::ParseError);
        let e = parse_request("[1,2]").unwrap_err();
        assert_eq!(e.code, ErrorCode::ParseError);
        let e = parse_request(r#"{"verb":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Unsupported);
        assert_eq!(e.verb.as_deref(), Some("frobnicate"));
        let e = parse_request(r#"{"verb":"prove","session":"s0","a":"L..L","b":"R"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = parse_request(r#"{"verb":"prove","session":"s0","a":"L","b":"R","fuel":-1}"#)
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn parses_versioned_verbs() {
        let (_, req) = parse_request(r#"{"verb":"hello"}"#).unwrap();
        assert!(matches!(req, Request::Hello));

        let (_, req) = parse_request(
            r#"{"verb":"analyze","program":"proc p() {}","jobs":4,"changed_only":true}"#,
        )
        .unwrap();
        let Request::Analyze {
            name,
            jobs,
            changed_only,
            ..
        } = req
        else {
            panic!("wrong verb");
        };
        assert_eq!(name, "default", "table name defaults");
        assert_eq!(jobs, Some(4));
        assert!(changed_only);

        let (_, req) =
            parse_request(r#"{"verb":"invalidate","name":"t1","proc":"update"}"#).unwrap();
        let Request::Invalidate { name, proc } = req else {
            panic!("wrong verb");
        };
        assert_eq!(name, "t1");
        assert_eq!(proc.as_deref(), Some("update"));
    }

    #[test]
    fn unsupported_frames_carry_verb_and_version() {
        let e = parse_request(r#"{"verb":"frobnicate"}"#).unwrap_err();
        let text = error_frame(None, &e).render();
        assert!(text.contains(r#""error":"unsupported""#), "{text}");
        assert!(text.contains(r#""verb":"frobnicate""#), "{text}");
        assert!(text.contains(r#""proto_version":4"#), "{text}");
    }

    #[test]
    fn budget_resolution_clamps_to_ceiling() {
        let ceiling = Budget::new()
            .with_fuel(1000)
            .with_deadline(Duration::from_millis(500));
        let wire = WireBudget {
            fuel: Some(5000),
            deadline_ms: Some(100),
            max_dfa_states: Some(64),
        };
        let resolved = wire.resolve(&ceiling, &ceiling);
        assert_eq!(resolved.fuel, 1000, "fuel clamped");
        assert_eq!(resolved.deadline, Some(Duration::from_millis(100)));
        assert_eq!(resolved.max_dfa_states, Some(64));
        // No overrides: the ceiling itself.
        let resolved = WireBudget::default().resolve(&ceiling, &ceiling);
        assert_eq!(resolved.fuel, 1000);
        assert_eq!(resolved.deadline, Some(Duration::from_millis(500)));
    }

    #[test]
    fn error_frames_are_structured() {
        let frame = error_frame(
            Some(&Json::Str("q1".into())),
            &ProtoError::bad("missing field"),
        );
        let text = frame.render();
        assert!(text.contains(r#""ok":false"#), "{text}");
        assert!(text.contains(r#""error":"bad_request""#), "{text}");
        assert!(text.contains(r#""id":"q1""#), "{text}");
    }
}
