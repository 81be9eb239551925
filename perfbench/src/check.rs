//! Answer checking: every reply is compared byte for byte with the
//! reference document an in-process `ZigzagService::dispatch` produced
//! during setup, and every failure is tallied by the `Error` variant the
//! client received.

use std::collections::BTreeMap;

use zigzag_api::Error;

#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Failures by kind: the `Error` variant, `error-doc` for an error
    /// document read off a raw connection, or `mismatch`.
    pub kinds: BTreeMap<String, u64>,
    /// Test hook: corrupt the next reply before comparing it.
    corrupt_next: bool,
    /// The first failure, for the report.
    pub first: Option<String>,
}

impl Checker {
    pub fn new(corrupt_one_reply: bool) -> Self {
        Checker {
            corrupt_next: corrupt_one_reply,
            ..Checker::default()
        }
    }

    fn fail(&mut self, kind: String, detail: String) {
        self.failed += 1;
        *self.kinds.entry(kind).or_default() += 1;
        self.first.get_or_insert(detail);
    }

    /// Checks one reply document against its reference.
    pub fn doc(&mut self, got: &str, want: &str) {
        self.attempted += 1;
        let corrupt = std::mem::take(&mut self.corrupt_next);
        if got.starts_with("zigzag-error v1") {
            let line = got.lines().nth(1).unwrap_or("").to_string();
            self.fail("error-doc".into(), line);
        } else if corrupt || got != want {
            let shown: String = got.chars().take(120).collect();
            self.fail(
                "mismatch".into(),
                format!("reply {shown:?} differs from the reference"),
            );
        }
    }

    /// Checks a value that has no document form (an append's event count).
    pub fn value<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.fail("mismatch".into(), format!("got {got:?}, want {want:?}"));
        }
    }

    /// Records a failed operation.
    pub fn error(&mut self, e: &Error) {
        self.attempted += 1;
        let debug = format!("{e:?}");
        let kind: String = debug.chars().take_while(|c| c.is_alphanumeric()).collect();
        self.fail(kind, e.to_string());
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, n) in other.kinds {
            *self.kinds.entry(k).or_default() += n;
        }
        if self.first.is_none() {
            self.first = other.first;
        }
    }

    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}
