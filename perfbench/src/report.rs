//! The run's result: metrics, correctness tally and metadata, printed as
//! JSON without a serialization crate.

use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
}

/// Operations attempted and how many failed, plus what went wrong.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (queries, applies, checkpoints, reopens).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Of `failed`: answers or epochs that did not match their check.
    pub mismatched: u64,
    /// Answers compared bit for bit with an in-process answer.
    pub checked: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts an operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// Counts an answer or epoch that did not match its check.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatched += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.checked += other.checked;
        for p in other.problems {
            self.note(p);
        }
    }
}

/// A JSON number with all its digits; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An ordered JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already JSON.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.0.push((key.to_string(), json));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, string(value))
    }

    /// Adds a number field.
    pub fn num(self, key: &str, value: f64) -> Obj {
        self.raw(key, num(value))
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut m = Obj::new();
    for metric in metrics {
        m = m.raw(
            metric.name,
            Obj::new()
                .num("value", metric.value)
                .str("unit", metric.unit)
                .render(),
        );
    }
    Obj::new()
        .raw("correct", correct.to_string())
        .raw("attempted", tally.attempted.max(1).to_string())
        .raw("failed", tally.failed.to_string())
        .raw("metrics", m.render())
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let line = result_line(
            true,
            &tally,
            &[Metric {
                name: "qps",
                value: 1234.5678,
                unit: "1/s",
                n: 1,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"qps": {"value": 1234.5678, "unit": "1/s"}}}"#
        );
        assert_eq!(string("a\"b\\"), r#""a\"b\\""#);
        assert_eq!(num(f64::NAN), "null");
    }
}
