//! The Fig. 14 transformation: a synchronous servlet and its functionally
//! equivalent event-driven form, as executable Rust.
//!
//! The paper's Appendix A shows how `doGet` with two blocking
//! `SyncDBQuery` calls splits into `AsynDBQuery` calls plus callback
//! handlers (`eventHandler1`, `eventHandler2`), following Schneider's
//! transformation rules. This module implements both forms against the same
//! database abstraction so their equivalence is testable:
//!
//! * [`run_sync`] — the Fig. 14(a) control flow: pre-process, query 1,
//!   think, query 2, post-process, respond (the calling thread blocks in
//!   each query);
//! * [`AsyncServlet`] — the Fig. 14(b) state machine: each query submission
//!   returns immediately; the continuation runs when the completion event is
//!   dispatched.
//!
//! # Example
//!
//! ```
//! use ntier_core::servlet::{run_sync, AsyncServlet, MapDatabase, ServletEvents, SyncDatabase};
//!
//! let mut db = MapDatabase::new([("q1:alice", "42"), ("q2:42", "ok")]);
//! let sync_response = run_sync(&mut db, "alice");
//!
//! let mut events = ServletEvents::default();
//! let mut servlet = AsyncServlet::start("alice", &mut db, &mut events);
//! while let Some(ev) = events.pop() {
//!     servlet.dispatch(ev, &mut db, &mut events);
//! }
//! assert_eq!(servlet.response(), Some(sync_response.as_str()));
//! ```

use std::collections::{HashMap, VecDeque};

/// A blocking database interface (the `SyncDBQuery` side).
pub trait SyncDatabase {
    /// Executes `query` and blocks until the result is available.
    fn query(&mut self, query: &str) -> String;
}

/// A scripted in-memory database for tests and examples.
#[derive(Debug, Clone, Default)]
pub struct MapDatabase {
    answers: HashMap<String, String>,
    /// Queries executed, in order (for asserting equivalent behaviour).
    pub log: Vec<String>,
}

impl MapDatabase {
    /// Builds a database from `(query, answer)` pairs.
    pub fn new<const N: usize>(pairs: [(&str, &str); N]) -> Self {
        MapDatabase {
            answers: pairs
                .iter()
                .map(|(q, a)| (q.to_string(), a.to_string()))
                .collect(),
            log: Vec::new(),
        }
    }
}

impl SyncDatabase for MapDatabase {
    fn query(&mut self, query: &str) -> String {
        self.log.push(query.to_string());
        self.answers
            .get(query)
            .cloned()
            .unwrap_or_else(|| format!("<no row for {query}>"))
    }
}

/// Fig. 14(a): the synchronous servlet. The thread "blocks" in each
/// `db.query` call.
pub fn run_sync(db: &mut impl SyncDatabase, request: &str) -> String {
    // [02] pre-processing request
    let user = request.trim();
    // [03] form query1; [04] result1 = SyncDBQuery1(query1)
    let result1 = db.query(&format!("q1:{user}"));
    // [05] think about result1; [06] form query2
    let key = result1.trim().to_string();
    // [07] result2 = SyncDBQuery2(query2)
    let result2 = db.query(&format!("q2:{key}"));
    // [08] post-processing result2; [09] form response
    format!("user={user} key={key} status={result2}")
}

/// A completion event: the "return" of an `AsynDBQuery`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbCompletion {
    token: u64,
    result: String,
}

/// The completion queue standing in for the server's event loop.
#[derive(Debug, Default)]
pub struct ServletEvents {
    events: VecDeque<DbCompletion>,
    next_token: u64,
}

impl ServletEvents {
    /// Submits an asynchronous query: executes against `db` and enqueues the
    /// completion event (in a real server the execution would overlap with
    /// other work; the ordering semantics are identical).
    pub fn submit(&mut self, db: &mut impl SyncDatabase, query: &str) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let result = db.query(query);
        self.events.push_back(DbCompletion { token, result });
        token
    }

    /// Pops the next completion event.
    pub fn pop(&mut self) -> Option<DbCompletion> {
        self.events.pop_front()
    }

    /// Pending completions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Fig. 14(b): the event-driven servlet as an explicit state machine.
#[derive(Debug)]
pub struct AsyncServlet {
    user: String,
    stage: Stage,
}

#[derive(Debug)]
enum Stage {
    /// Waiting for query 1 (`eventHandler1` will run next).
    AwaitingQuery1 { token: u64 },
    /// Waiting for query 2 (`eventHandler2` will run next).
    AwaitingQuery2 { token: u64, key: String },
    /// Response formed.
    Done { response: String },
}

impl AsyncServlet {
    /// `doGet`: pre-processes the request and issues the first asynchronous
    /// query; returns immediately (the worker thread is not held).
    pub fn start(request: &str, db: &mut impl SyncDatabase, events: &mut ServletEvents) -> Self {
        // [02] pre-processing request; [03] form query1 + AsynDBQuery1
        let user = request.trim().to_string();
        let token = events.submit(db, &format!("q1:{user}"));
        AsyncServlet {
            user,
            stage: Stage::AwaitingQuery1 { token },
        }
    }

    /// Dispatches one completion event to the matching handler.
    ///
    /// Events for other servlets (unknown tokens) are ignored, as an event
    /// loop demultiplexing completions would.
    pub fn dispatch(
        &mut self,
        event: DbCompletion,
        db: &mut impl SyncDatabase,
        events: &mut ServletEvents,
    ) {
        match &self.stage {
            // eventHandler1: [06] think about result1; [07] form query2 +
            // AsynDBQuery2.
            Stage::AwaitingQuery1 { token } if *token == event.token => {
                let key = event.result.trim().to_string();
                let token2 = events.submit(db, &format!("q2:{key}"));
                self.stage = Stage::AwaitingQuery2 { token: token2, key };
            }
            // eventHandler2: [11] post-processing result2; [12] form
            // response.
            Stage::AwaitingQuery2 { token, key } if *token == event.token => {
                let response = format!("user={} key={key} status={}", self.user, event.result);
                self.stage = Stage::Done { response };
            }
            _ => {}
        }
    }

    /// The response, once formed.
    pub fn response(&self) -> Option<&str> {
        match &self.stage {
            Stage::Done { response } => Some(response),
            _ => None,
        }
    }

    /// `true` once the response is formed.
    #[cfg(test)]
    fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> MapDatabase {
        MapDatabase::new([
            ("q1:alice", "42"),
            ("q2:42", "ok"),
            ("q1:bob", "7"),
            ("q2:7", "denied"),
        ])
    }

    fn drive(servlet: &mut AsyncServlet, db: &mut MapDatabase, events: &mut ServletEvents) {
        while let Some(ev) = events.pop() {
            servlet.dispatch(ev, db, events);
        }
    }

    #[test]
    fn sync_and_async_produce_identical_responses() {
        for user in ["alice", "bob"] {
            let mut db_sync = db();
            let expect = run_sync(&mut db_sync, user);

            let mut db_async = db();
            let mut events = ServletEvents::default();
            let mut servlet = AsyncServlet::start(user, &mut db_async, &mut events);
            drive(&mut servlet, &mut db_async, &mut events);

            assert_eq!(servlet.response(), Some(expect.as_str()));
            // same queries in the same order — the transformation preserves
            // the database interaction pattern
            assert_eq!(db_sync.log, db_async.log);
        }
    }

    #[test]
    fn async_servlet_does_not_block_between_events() {
        let mut database = db();
        let mut events = ServletEvents::default();
        let servlet = AsyncServlet::start("alice", &mut database, &mut events);
        // start() returned with the response not yet formed: the "thread" is
        // free while query 1 is outstanding.
        assert!(!servlet.is_done());
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn foreign_events_are_ignored() {
        let mut database = db();
        let mut events = ServletEvents::default();
        let mut servlet = AsyncServlet::start("alice", &mut database, &mut events);
        servlet.dispatch(
            DbCompletion {
                token: 999,
                result: "garbage".into(),
            },
            &mut database,
            &mut events,
        );
        assert!(!servlet.is_done());
        drive(&mut servlet, &mut database, &mut events);
        assert!(servlet.is_done());
    }

    #[test]
    fn missing_rows_flow_through() {
        let mut database = MapDatabase::default();
        let response = run_sync(&mut database, "ghost");
        assert!(response.contains("<no row for q2:"));
    }

    #[test]
    fn two_servlets_interleave_on_one_event_queue() {
        // The event-driven model's point: one loop, many in-flight requests.
        let mut database = db();
        let mut events = ServletEvents::default();
        let mut a = AsyncServlet::start("alice", &mut database, &mut events);
        let mut b = AsyncServlet::start("bob", &mut database, &mut events);
        while let Some(ev) = events.pop() {
            a.dispatch(ev.clone(), &mut database, &mut events);
            b.dispatch(ev, &mut database, &mut events);
        }
        assert_eq!(a.response(), Some("user=alice key=42 status=ok"));
        assert_eq!(b.response(), Some("user=bob key=7 status=denied"));
    }
}
